//! Property-based tests for the simulation substrate.

use phishsim_simnet::{DetRng, IpPool, Ipv4Sim, RetryPolicy, Scheduler, SimDuration, SimTime};
use proptest::prelude::*;

/// An arbitrary-but-sane retry policy for the schedule properties.
fn retry_policy_strategy() -> impl Strategy<Value = RetryPolicy> {
    (
        1u64..60_000,
        1.0f64..4.0,
        0.0f64..1.0,
        1u32..10,
        60_000u64..7_200_000,
    )
        .prop_map(
            |(base, multiplier, jitter, max_attempts, budget)| RetryPolicy {
                base: SimDuration::from_millis(base),
                multiplier,
                jitter,
                max_attempts,
                budget: SimDuration::from_millis(budget),
            },
        )
}

proptest! {
    /// Popping a scheduler always yields events in nondecreasing time
    /// order, regardless of insertion order.
    #[test]
    fn scheduler_pops_sorted(times in proptest::collection::vec(0u64..1_000_000, 1..200)) {
        let mut s: Scheduler<usize> = Scheduler::new();
        for (i, &t) in times.iter().enumerate() {
            s.schedule_at(SimTime::from_millis(t), i);
        }
        let mut last = SimTime::ZERO;
        let mut popped = 0;
        while let Some((t, _)) = s.pop() {
            prop_assert!(t >= last);
            last = t;
            popped += 1;
        }
        prop_assert_eq!(popped, times.len());
    }

    /// Events at the same timestamp preserve insertion order.
    #[test]
    fn scheduler_stable_at_equal_times(n in 1usize..100) {
        let mut s: Scheduler<usize> = Scheduler::new();
        for i in 0..n {
            s.schedule_at(SimTime::from_secs(42), i);
        }
        let order: Vec<usize> = std::iter::from_fn(|| s.pop().map(|(_, e)| e)).collect();
        prop_assert_eq!(order, (0..n).collect::<Vec<usize>>());
    }

    /// Time conversions are consistent: ms -> mins truncates correctly.
    #[test]
    fn time_conversion_consistent(ms in 0u64..u64::MAX / 2) {
        let t = SimTime::from_millis(ms);
        prop_assert_eq!(t.as_mins(), ms / 60_000);
        prop_assert_eq!(t.as_secs(), ms / 1_000);
        prop_assert!(t.as_mins_f64() >= t.as_mins() as f64);
    }

    /// Duration addition is commutative and associative within range.
    #[test]
    fn duration_add_commutative(a in 0u64..1u64 << 40, b in 0u64..1u64 << 40) {
        let da = SimDuration::from_millis(a);
        let db = SimDuration::from_millis(b);
        prop_assert_eq!(da + db, db + da);
    }

    /// Forked RNG streams with equal labels are identical; with different
    /// labels they diverge (overwhelmingly likely on 8 draws).
    #[test]
    fn rng_fork_determinism(seed in any::<u64>(), label in "[a-z]{1,12}") {
        let root = DetRng::new(seed);
        let mut a = root.fork(&label);
        let mut b = root.fork(&label);
        for _ in 0..8 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    /// IP parse/display round-trips.
    #[test]
    fn ip_round_trip(a in any::<u8>(), b in any::<u8>(), c in any::<u8>(), d in any::<u8>()) {
        let ip = Ipv4Sim::new(a, b, c, d);
        prop_assert_eq!(Ipv4Sim::parse(&ip.to_string()), Some(ip));
    }

    /// IP pools contain exactly the requested number of distinct in-subnet
    /// addresses.
    #[test]
    fn ip_pool_invariants(seed in any::<u64>(), size in 1usize..200) {
        let mut rng = DetRng::new(seed);
        let base = Ipv4Sim::new(100, 64, 0, 0);
        let pool = IpPool::allocate(base, 16, size, &mut rng);
        prop_assert_eq!(pool.len(), size);
        let mut addrs = pool.addrs().to_vec();
        addrs.sort_unstable();
        addrs.dedup();
        prop_assert_eq!(addrs.len(), size);
        prop_assert!(pool.addrs().iter().all(|a| a.in_subnet(base, 16)));
    }

    /// A pool holds the addresses a tree set of the drawn host numbers
    /// gives, in its order, and leaves the stream where that set left
    /// it.
    #[test]
    fn ip_pool_matches_a_tree_set_of_draws(
        seed in any::<u64>(),
        prefix_len in 16u8..=30,
        fill in 0.0f64..1.0,
    ) {
        let capacity = (1u32 << (32 - u32::from(prefix_len))) - 2;
        let size = ((f64::from(capacity) * fill) as usize).clamp(1, 600);
        let base = Ipv4Sim::new(100, 64, 37, 201);
        let mut rng = DetRng::new(seed);
        let pool = IpPool::allocate(base, prefix_len, size, &mut rng);
        let mut reference_rng = DetRng::new(seed);
        let mut hosts = std::collections::BTreeSet::new();
        while hosts.len() < size {
            hosts.insert(reference_rng.range(1..=capacity));
        }
        let net = base.0 & (u32::MAX << (32 - u32::from(prefix_len)));
        let reference: Vec<Ipv4Sim> = hosts.into_iter().map(|h| Ipv4Sim(net | h)).collect();
        prop_assert_eq!(pool.addrs(), &reference[..]);
        prop_assert_eq!(rng.range(0..u64::MAX), reference_rng.range(0..u64::MAX));
    }

    /// A retry schedule is a pure function of (seed, fork label,
    /// policy): recomputing it never disturbs the parent stream, and
    /// different labels give independent schedules.
    #[test]
    fn retry_schedule_deterministic_per_label(
        seed in any::<u64>(),
        policy in retry_policy_strategy(),
        label in "[a-z]{1,12}",
    ) {
        let rng = DetRng::new(seed);
        let a = policy.schedule(&rng, &label);
        let b = policy.schedule(&rng, &label);
        prop_assert_eq!(&a, &b, "same label must replay the same schedule");
        // Computing a schedule forks; the parent stream is untouched.
        let mut x = rng.fork("probe");
        let _ = policy.schedule(&rng, &label);
        let mut y = rng.fork("probe");
        prop_assert_eq!(x.next_u64(), y.next_u64());
    }

    /// Schedules are monotone non-decreasing in attempt index, carry at
    /// most `max_attempts - 1` delays, and fit the total budget.
    #[test]
    fn retry_schedule_monotone_and_budgeted(
        seed in any::<u64>(),
        policy in retry_policy_strategy(),
        label in "[a-z]{1,12}",
    ) {
        let rng = DetRng::new(seed);
        let delays = policy.schedule(&rng, &label);
        prop_assert!(delays.len() <= policy.max_retries() as usize);
        prop_assert!(delays.windows(2).all(|w| w[0] <= w[1]),
            "backoff must not shrink: {delays:?}");
        let total: u64 = delays.iter().map(|d| d.as_millis()).sum();
        prop_assert!(total <= policy.budget.as_millis(),
            "schedule total {total} exceeds budget {}", policy.budget.as_millis());
    }

    /// The budget fit is exact: the schedule is the *longest* prefix of
    /// the unbounded delay sequence whose cumulative sum fits the
    /// budget. In particular a budget below the first backoff step
    /// yields an empty schedule, and a schedule never stops while the
    /// next delay would still have fit.
    #[test]
    fn retry_schedule_budget_boundary_is_exact(
        seed in any::<u64>(),
        policy in retry_policy_strategy(),
        label in "[a-z]{1,12}",
    ) {
        let rng = DetRng::new(seed);
        let delays = policy.schedule(&rng, &label);
        // Jitter draws are per-slot and unconditional, so lifting the
        // budget replays the same delay sequence, just longer.
        let unbounded = RetryPolicy {
            budget: SimDuration::from_millis(u64::MAX / 4),
            ..policy.clone()
        };
        let full = unbounded.schedule(&rng, &label);
        prop_assert_eq!(&delays[..], &full[..delays.len()],
            "budgeted schedule must be a prefix of the unbounded one");
        let total: u64 = delays.iter().map(|d| d.as_millis()).sum();
        prop_assert!(total <= policy.budget.as_millis());
        if delays.len() < full.len() {
            let next = full[delays.len()].as_millis();
            prop_assert!(
                total + next > policy.budget.as_millis(),
                "schedule stopped early: next delay {} would still fit ({} + {} <= {})",
                next, total, next, policy.budget.as_millis()
            );
        }
    }

    /// A schedule/cancel storm — the pattern engine-level retries
    /// produce — leaves the scheduler bounded: compaction keeps the
    /// tombstone set small relative to the live queue.
    #[test]
    fn scheduler_churn_stays_bounded(
        seed in any::<u64>(),
        rounds in 10usize..60,
    ) {
        let mut rng = DetRng::new(seed).fork("churn");
        let mut s: Scheduler<usize> = Scheduler::new();
        let mut live: Vec<phishsim_simnet::EventId> = Vec::new();
        let mut t = 0u64;
        for round in 0..rounds {
            // Schedule a burst of retry timers...
            for i in 0..20 {
                t += rng.range(1..1_000);
                live.push(s.schedule_at(SimTime::from_millis(t), round * 100 + i));
            }
            // ...then cancel most of them (a retry succeeded).
            for _ in 0..15 {
                let idx = rng.range(0..live.len() as u64) as usize;
                s.cancel(live.swap_remove(idx));
            }
            // Tombstones never dominate: compaction fires before the
            // cancelled set reaches both 64 entries and half the heap.
            prop_assert!(
                s.tombstone_count() < 64 || s.tombstone_count() * 2 < s.len() + s.tombstone_count(),
                "tombstones {} vs heap {}", s.tombstone_count(), s.len()
            );
        }
        // Everything still pending pops in order, skipping cancellations.
        let mut popped = 0;
        let mut last = SimTime::ZERO;
        while let Some((at, _)) = s.pop() {
            prop_assert!(at >= last);
            last = at;
            popped += 1;
        }
        prop_assert_eq!(popped, live.len());
        prop_assert_eq!(s.tombstone_count(), 0, "drained scheduler holds no tombstones");
    }
}

use rand::RngCore;
