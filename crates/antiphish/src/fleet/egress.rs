//! Egress identity rotation: the fleet-wide proxy/IP pool.
//!
//! Cloaking kits key on requester identity — source subnet and its
//! history — so a crawl fleet that reuses one static pool is trivially
//! fingerprinted (the Gundelach et al. bot-detection result). The
//! fleet therefore owns a pool of *egress identities* (an exit IP plus
//! a proxy label) and a [`RotationPolicy`] deciding which identities a
//! worker crawls through for a given report. Rotation is seeded and a
//! pure function of `(worker, report sequence, simulated time)` — the
//! same fleet config replays the same identity schedule byte for byte.

use phishsim_simnet::{DetRng, IpPool, Ipv4Sim, SimDuration, SimTime};

/// One egress identity: an exit address and the proxy it rides.
#[derive(Debug, Clone)]
pub struct EgressIdentity {
    /// Exit IPv4 address cloaking kits see.
    pub addr: Ipv4Sim,
    /// Human-readable proxy label (`"proxy-03"`), for reports.
    pub label: String,
}

/// When the fleet switches the identities a worker crawls through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum RotationPolicy {
    /// Each worker keeps one fixed identity slice (cheapest; the most
    /// fingerprintable — a cloaking kit learns the slice once).
    Sticky,
    /// Advance the pool cursor every report (per-report churn).
    PerReport,
    /// Rotate the whole pool mapping every `period_mins` of simulated
    /// time (lease-style proxy rotation).
    Timed {
        /// Rotation period in simulated minutes.
        period_mins: u64,
    },
}

/// The fleet's egress pool.
#[derive(Debug)]
pub struct EgressPool {
    identities: Vec<EgressIdentity>,
    policy: RotationPolicy,
    /// Identities drawn per report (the engine's per-browser pool).
    per_report: usize,
    cursor: u64,
    rotations: u64,
    used: Vec<u64>,
}

impl EgressPool {
    /// Allocate `n` identities from `base/16`, deterministically from
    /// `rng`. `per_report` identities back each report's crawls.
    pub fn allocate(
        base: Ipv4Sim,
        n: usize,
        per_report: usize,
        policy: RotationPolicy,
        rng: &mut DetRng,
    ) -> Self {
        assert!(n > 0, "egress pool needs at least one identity");
        let pool = IpPool::allocate(base, 16, n, rng);
        let identities = pool
            .addrs()
            .iter()
            .enumerate()
            .map(|(i, &addr)| EgressIdentity {
                addr,
                label: format!("proxy-{i:03}"),
            })
            .collect();
        EgressPool {
            identities,
            policy,
            per_report: per_report.clamp(1, n),
            cursor: 0,
            rotations: 0,
            used: vec![0; n],
        }
    }

    /// Number of identities in the pool.
    pub fn len(&self) -> usize {
        self.identities.len()
    }

    /// True if the pool is empty (never constructible via `allocate`).
    pub fn is_empty(&self) -> bool {
        self.identities.is_empty()
    }

    /// The rotation policy in force.
    pub fn policy(&self) -> RotationPolicy {
        self.policy
    }

    /// Fill `pool`, the [`IpPool`] the engine draws per-browser sources
    /// from, with the identities the given worker crawls the next report
    /// through. The pool's buffer is reused: a fill allocates nothing
    /// once the buffer holds `per_report` addresses.
    ///
    /// The starting offset is a pure function of the policy's inputs:
    /// worker id for [`RotationPolicy::Sticky`], a per-report cursor
    /// for [`RotationPolicy::PerReport`], the simulated-time window
    /// for [`RotationPolicy::Timed`] — so a replay reproduces the
    /// exact identity schedule.
    pub fn fill_pool(&mut self, worker: usize, now: SimTime, pool: &mut IpPool) {
        let n = self.identities.len() as u64;
        let offset = match self.policy {
            RotationPolicy::Sticky => worker as u64 * self.per_report as u64,
            RotationPolicy::PerReport => {
                let c = self.cursor;
                self.cursor = self.cursor.wrapping_add(self.per_report as u64);
                self.rotations += 1;
                c
            }
            RotationPolicy::Timed { period_mins } => {
                let window =
                    now.as_millis() / SimDuration::from_mins(period_mins.max(1)).as_millis();
                if window != self.cursor {
                    self.cursor = window;
                    self.rotations += 1;
                }
                window
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add(worker as u64 * self.per_report as u64)
            }
        };
        let (identities, used) = (&self.identities, &mut self.used);
        pool.refill((0..self.per_report as u64).map(|i| {
            let idx = ((offset + i) % n) as usize;
            used[idx] += 1;
            identities[idx].addr
        }));
    }

    /// How many rotations the policy performed.
    pub fn rotations(&self) -> u64 {
        self.rotations
    }

    /// How many distinct identities have carried at least one report.
    pub fn identities_used(&self) -> usize {
        self.used.iter().filter(|&&n| n > 0).count()
    }

    /// All identities (for cloaking-experiment bot lists).
    pub fn identities(&self) -> &[EgressIdentity] {
        &self.identities
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(policy: RotationPolicy) -> EgressPool {
        let mut rng = DetRng::new(7).fork("egress-test");
        EgressPool::allocate(Ipv4Sim::new(77, 10, 0, 0), 16, 2, policy, &mut rng)
    }

    /// The addresses `fill_pool` puts in a pool.
    fn addrs_for(p: &mut EgressPool, worker: usize, now: SimTime) -> Vec<Ipv4Sim> {
        let mut pool = IpPool::from_addrs(vec![Ipv4Sim::new(1, 2, 3, 4); 5]);
        p.fill_pool(worker, now, &mut pool);
        pool.addrs().to_vec()
    }

    #[test]
    fn sticky_workers_keep_their_slice() {
        let mut p = pool(RotationPolicy::Sticky);
        let a1 = addrs_for(&mut p, 0, SimTime::ZERO);
        let a2 = addrs_for(&mut p, 0, SimTime::from_hours(5));
        assert_eq!(a1, a2, "sticky slice never moves");
        assert_eq!(a1.len(), 2, "a fill replaces the pool's addresses");
        let b = addrs_for(&mut p, 1, SimTime::ZERO);
        assert_ne!(a1, b, "workers get distinct slices");
        assert_eq!(p.rotations(), 0);
    }

    #[test]
    fn per_report_rotation_churns_through_the_pool() {
        let mut p = pool(RotationPolicy::PerReport);
        let mut seen = std::collections::HashSet::new();
        for i in 0..8 {
            seen.extend(addrs_for(&mut p, 0, SimTime::from_mins(i)));
        }
        assert_eq!(seen.len(), 16, "8 reports x 2 identities cover the pool");
        assert_eq!(p.rotations(), 8);
        assert_eq!(p.identities_used(), 16);
    }

    #[test]
    fn timed_rotation_is_a_function_of_the_window() {
        let mut p = pool(RotationPolicy::Timed { period_mins: 30 });
        let w0 = addrs_for(&mut p, 3, SimTime::from_mins(5));
        let w0_again = addrs_for(&mut p, 3, SimTime::from_mins(25));
        assert_eq!(w0, w0_again, "same window, same identity");
        let w1 = addrs_for(&mut p, 3, SimTime::from_mins(35));
        assert_ne!(w0, w1, "next window rotates");
    }

    #[test]
    fn replay_reproduces_the_identity_schedule() {
        let run = || {
            let mut p = pool(RotationPolicy::PerReport);
            (0..20)
                .flat_map(|i| addrs_for(&mut p, i % 4, SimTime::from_mins(i as u64)))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
