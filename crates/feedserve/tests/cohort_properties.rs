//! Property tests for the cohort compression layer.
//!
//! The contract cohort mode rests on: collapsing clients onto the
//! schedule grid and walking each row once with weighted counters is a
//! pure *regrouping* of the exact per-client walk — at unit quanta
//! (`CohortSpec::exact()`) the split/merge must round-trip to the
//! exact walk's per-client distribution bit for bit, for any
//! population, seed, mirror layout, or thread count. The wire codec
//! gets the same hardening discipline as the delta-list varints:
//! round-trip equality, and rejection of every truncation.

use phishsim_feedserve::{
    run_population_with_threads, CohortRecord, CohortSpec, CohortTable, FeedServer, ListingEvent,
    MirrorConfig, PopulationConfig, PopulationReport, ServerConfig,
};
use phishsim_simnet::{DetRng, SimDuration, SimTime};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn h(i: u64) -> u64 {
    (i << 33) | 0x5151
}

/// A tiny feed timeline: a baseline version, then one listing an hour
/// in — enough to exercise diffs, protection checks, and percentiles.
fn small_feed() -> (FeedServer, Vec<ListingEvent>) {
    let mut server = FeedServer::new(ServerConfig::default());
    server.publish((0..50).map(h), SimTime::from_mins(5));
    server.publish((0..51).map(h), SimTime::from_mins(60));
    let events = vec![ListingEvent {
        label: "listing".into(),
        full_hash: h(50),
        listed_at: SimTime::from_mins(60),
    }];
    (server, events)
}

fn pop_cfg(clients: usize, seed: u64, aggressive: f64, mirrors: u32) -> PopulationConfig {
    PopulationConfig {
        clients,
        seed,
        batch: 32,
        horizon: SimDuration::from_hours(4),
        aggressive_fraction: aggressive,
        mirrors: (mirrors > 0).then(|| MirrorConfig {
            mirrors,
            ..MirrorConfig::default()
        }),
        ..PopulationConfig::default()
    }
}

/// The parts of a report that must be identical between the exact
/// walk and the unit-quanta cohort walk (the compression bookkeeping
/// fields — `cohorts`, `state_bytes` — legitimately differ).
fn walk_fingerprint(r: &PopulationReport) -> String {
    serde_json::to_string(&(&r.events, r.fetches, &r.counters)).unwrap()
}

/// The naive table build: one sequential pass over every client into a
/// `BTreeMap`, whose iteration order is the canonical key order. Each
/// schedule is derived the long way — the client's stream forked by
/// its spelled `feedserve-client#i` label, then the period, phase,
/// aggressive and mirror draws in the population walker's order.
fn reference_rows(cfg: &PopulationConfig, min_wait: SimDuration) -> Vec<CohortRecord> {
    let spec = cfg.cohorts.clone().unwrap_or_default();
    let pq = spec.period_quantum.as_millis().max(1);
    let fq = spec.phase_quantum.as_millis().max(1);
    let root = DetRng::new(cfg.seed);
    let mut rows: BTreeMap<(u32, u64, u64, bool), u64> = BTreeMap::new();
    for i in 0..cfg.clients {
        let mut rng = root.fork(&format!("feedserve-client#{i}"));
        let jitter = cfg.period_jitter.as_millis();
        let offset = if jitter > 0 {
            rng.range(0..=2 * jitter)
        } else {
            0
        };
        let period = (cfg.base_period.as_millis() + offset)
            .saturating_sub(jitter)
            .max(min_wait.as_millis().max(60_000));
        let phase = rng.range(0..period);
        let aggressive = rng.chance(cfg.aggressive_fraction);
        let mirror = match &cfg.mirrors {
            Some(m) => rng.range(0..u64::from(m.mirrors.max(1))) as u32,
            None => 0,
        };
        let period_q = (period / pq * pq).max(1);
        let phase_q = (phase / fq * fq).min(period_q - 1);
        *rows
            .entry((mirror, period_q, phase_q, aggressive))
            .or_insert(0) += 1;
    }
    rows.into_iter()
        .map(
            |((mirror, period_ms, phase_ms, aggressive), count)| CohortRecord {
                count,
                period_ms,
                phase_ms,
                mirror,
                aggressive,
            },
        )
        .collect()
}

fn table_rows(table: &CohortTable) -> Vec<CohortRecord> {
    (0..table.len()).map(|i| table.record(i)).collect()
}

/// A grid whose phase quantum (25 min) is coarser than the shortest
/// period (20 min) and whose period quantum (10 min) snaps periods far
/// below their phases, so the `phase < period` clamp fires and merges
/// keys.
fn coarse_spec() -> CohortSpec {
    CohortSpec {
        period_quantum: SimDuration::from_mins(10),
        phase_quantum: SimDuration::from_mins(25),
    }
}

#[test]
fn coarse_grid_clamps_phases_and_matches_the_naive_build() {
    let mut cfg = pop_cfg(2_000, 17, 0.05, 3);
    cfg.cohorts = Some(coarse_spec());
    let min_wait = ServerConfig::default().min_wait;
    let want = reference_rows(&cfg, min_wait);
    let clamped = want
        .iter()
        .filter(|r| r.phase_ms == r.period_ms - 1)
        .count();
    assert!(clamped > 0, "the coarse grid must exercise the phase clamp");
    for threads in [1, 2, 3] {
        let table = CohortTable::from_population(&cfg, min_wait, threads);
        assert_eq!(table_rows(&table), want, "{threads} threads");
    }
}

proptest! {
    /// The table build equals the naive sequential build over every
    /// client — same rows, same counts, same canonical order — on any
    /// grid (exact, default, coarser than the shortest period) and any
    /// split of clients over threads, including more threads than
    /// clients.
    #[test]
    fn table_build_matches_the_naive_reference(
        clients in 0usize..150,
        seed in 0u64..1_000,
        aggressive in 0.0f64..0.3,
        mirrors in 0u32..4,
        grid in 0usize..3,
    ) {
        let mut cfg = pop_cfg(clients, seed, aggressive, mirrors);
        cfg.cohorts = Some([CohortSpec::exact(), CohortSpec::default(), coarse_spec()][grid].clone());
        let min_wait = ServerConfig::default().min_wait;
        let want = reference_rows(&cfg, min_wait);
        for threads in [1, 2, 3, clients + 2] {
            let table = CohortTable::from_population(&cfg, min_wait, threads);
            prop_assert_eq!(table_rows(&table), want.clone(), "{} threads", threads);
            prop_assert_eq!(table.clients(), clients as u64);
        }
    }

    /// Unit-quanta cohorts are a pure regrouping: the cohort walk's
    /// events, fetches, and every protocol counter match the exact
    /// per-client walk bit for bit — the split/merge round-trip to the
    /// exact per-client distribution.
    #[test]
    fn unit_quanta_cohort_walk_round_trips_the_exact_walk(
        clients in 1usize..80,
        seed in 0u64..1_000,
        aggressive in 0.0f64..0.3,
        mirrors in 0u32..4,
    ) {
        let (server, events) = small_feed();
        let exact = pop_cfg(clients, seed, aggressive, mirrors);
        let mut cohort = exact.clone();
        cohort.cohorts = Some(CohortSpec::exact());
        let a = run_population_with_threads(&exact, &server, &events, 2);
        let b = run_population_with_threads(&cohort, &server, &events, 3);
        prop_assert_eq!(walk_fingerprint(&a), walk_fingerprint(&b));
        prop_assert_eq!(b.cohorts.is_some(), true);
    }

    /// The table itself is canonical: it accounts for every client,
    /// keeps strictly ascending key order, and is byte-identical at
    /// any thread count.
    #[test]
    fn cohort_table_is_canonical_and_thread_invariant(
        clients in 1usize..200,
        seed in 0u64..1_000,
        mirrors in 0u32..4,
    ) {
        let mut cfg = pop_cfg(clients, seed, 0.05, mirrors);
        cfg.cohorts = Some(CohortSpec::default());
        let min_wait = ServerConfig::default().min_wait;
        let t1 = CohortTable::from_population(&cfg, min_wait, 1);
        let t3 = CohortTable::from_population(&cfg, min_wait, 3);
        prop_assert_eq!(&t1, &t3);
        prop_assert_eq!(t1.clients(), clients as u64);
        for i in 0..t1.len() {
            let r = t1.record(i);
            prop_assert!(r.count > 0);
            prop_assert!(r.phase_ms < r.period_ms);
            if i > 0 {
                let p = t1.record(i - 1);
                prop_assert!(
                    (p.mirror, p.period_ms, p.phase_ms, p.aggressive)
                        < (r.mirror, r.period_ms, r.phase_ms, r.aggressive),
                    "rows {} and {} out of canonical order", i - 1, i
                );
            }
        }
    }

    /// Wire round-trip is exact, and — like the `get_varint` tests —
    /// every strict prefix of a valid encoding is rejected, as is a
    /// trailing byte.
    #[test]
    fn cohort_codec_round_trips_and_rejects_truncation(
        clients in 1usize..150,
        seed in 0u64..1_000,
        mirrors in 0u32..4,
    ) {
        let mut cfg = pop_cfg(clients, seed, 0.1, mirrors);
        cfg.cohorts = Some(CohortSpec::default());
        let table = CohortTable::from_population(&cfg, ServerConfig::default().min_wait, 2);
        let buf = table.encode();
        prop_assert_eq!(CohortTable::decode(&buf).unwrap(), table);
        for cut in 0..buf.len() {
            prop_assert!(
                CohortTable::decode(&buf[..cut]).is_err(),
                "prefix of {} of {} bytes decoded", cut, buf.len()
            );
        }
        let mut trailing = buf.clone();
        trailing.push(0);
        prop_assert!(CohortTable::decode(&trailing).is_err());
    }
}
