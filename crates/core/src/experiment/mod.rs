//! The paper's experiments, one module each.
//!
//! * [`preliminary`] — §4.1 / Table 1: naked payloads vs all seven
//!   engines over 24 hours.
//! * [`main_experiment`] — §4.2 / Table 2: 105 armed URLs vs the six
//!   surviving engines over two weeks.
//! * [`extension_experiment`] — §5 / Table 3: six client-side
//!   extensions vs 9 armed URLs visited by a human.
//! * [`cloaking`] — the Oest et al. (PhishFarm) web-cloaking baseline
//!   the paper compares against (126 min / 238 min / 23 %).
//! * [`sb_scale`] — population-scale propagation: the main
//!   experiment's listing delays fed through the `feedserve`
//!   million-client update-protocol simulator.
//! * [`sb_scale_50m`] — the cohort scale sweep: the same scenario
//!   compressed onto quantized schedule cohorts behind a regional
//!   mirror tier and swept to fifty million clients, guarded against
//!   the exact baseline.
//! * [`resilience`] — the chaos sweep: the coupled pipeline re-run
//!   across escalating fault intensities (crawl loss × feed-server
//!   outage × feed-channel loss).
//! * [`fleet_sweep`] — crawl-fleet throughput and queueing: the
//!   multi-worker fleet scheduler driven by a reports-per-day-scale
//!   arrival stream, swept over fleet sizes × queue disciplines.
//! * [`fleet_chaos`] — worker-level chaos: deterministic crash / hang /
//!   restart fault schedules vs the supervised fleet, swept over crash
//!   rate × restart delay × lease timeout against a fault-free
//!   baseline.

pub mod cloaking;
pub mod extension_experiment;
pub mod fleet_chaos;
pub mod fleet_sweep;
pub mod longitudinal;
pub mod main_experiment;
pub mod preliminary;
pub mod recorded;
pub mod redirection;
pub mod resilience;
pub mod sb_scale;
pub mod sb_scale_50m;

pub use cloaking::{run_cloaking_baseline, ArmStats, CloakingConfig, CloakingResult};
pub use extension_experiment::{run_extension_experiment, ExtensionConfig, ExtensionResult};
pub use fleet_chaos::{
    chaos_points, run_chaos_point, run_fleet_chaos, run_fleet_chaos_with_threads, ChaosPoint,
    ChaosPointReport, FleetChaosConfig, FleetChaosResult,
};
pub use fleet_sweep::{
    fleet_points, run_fleet_point, run_fleet_sweep, run_fleet_sweep_with_threads, FleetPoint,
    FleetPointReport, FleetSweepConfig, FleetSweepResult,
};
pub use longitudinal::{run_longitudinal, LongitudinalConfig, LongitudinalResult, WaveResult};
pub use main_experiment::{run_main_experiment, MainConfig, MainResult};
pub use preliminary::{run_preliminary, PreliminaryConfig, PreliminaryResult};
pub use recorded::{record_run, rerun_pack, RecordedConfig, SweepSpec};
pub use redirection::{run_redirection_baseline, EntryKind, RedirectionConfig, RedirectionResult};
pub use resilience::{
    run_resilience, run_resilience_with_threads, FaultIntensity, LevelReport, ResilienceConfig,
    ResilienceResult, TechniqueResilience,
};
pub use sb_scale::{
    run_sb_scale, run_sb_scale_with_threads, SbScaleConfig, SbScaleResult, TechniqueDelay,
};
pub use sb_scale_50m::{
    run_sb_scale_50m, run_sb_scale_50m_with_threads, BaselineDelta, SbScale50mConfig,
    SbScale50mResult, ScalePoint,
};

use phishsim_dns::reputation::WORDS;
use phishsim_dns::{DomainName, Registry};
use phishsim_simnet::{DetRng, SimDuration, SimTime};

/// Generate `n` distinct registrable domain names, deterministically
/// from `rng`, skipping names already present in `registry`.
pub fn synth_domains(rng: &DetRng, registry: &Registry, n: usize, label: &str) -> Vec<DomainName> {
    let mut rng = rng.fork(&format!("synth-domains:{label}"));
    let tlds = ["com", "net", "org", "xyz", "online", "site"];
    let mut out = Vec::with_capacity(n);
    let mut seen = std::collections::HashSet::new();
    let mut counter = 0u64;
    while out.len() < n {
        let w1 = *rng.pick(WORDS);
        let w2 = *rng.pick(WORDS);
        let tld = *rng.pick(&tlds);
        counter += 1;
        let s = if counter.is_multiple_of(3) {
            format!("{w1}-{w2}-{}.{tld}", counter % 97)
        } else {
            format!("{w1}-{w2}.{tld}")
        };
        let Ok(d) = DomainName::parse(&s) else {
            continue;
        };
        if seen.contains(&d) {
            continue;
        }
        if registry.state(&d, SimTime::ZERO) != phishsim_dns::DomainState::Available {
            continue;
        }
        seen.insert(d.clone());
        out.push(d);
    }
    out
}

/// Register a batch of experiment domains at `start`, spread over the
/// given window (the paper's anti-bulk spreading), returning each
/// domain's registration time.
pub fn register_spread(
    registry: &mut Registry,
    domains: &[DomainName],
    start: SimTime,
    window: SimDuration,
    rng: &DetRng,
) -> Vec<SimTime> {
    let mut rng = rng.fork("register-spread");
    let mut times = Vec::with_capacity(domains.len());
    for d in domains {
        let at = start + SimDuration::from_millis(rng.range(0..window.as_millis().max(1)));
        registry
            .register(d.clone(), "ovh", at, SimDuration::from_days(365))
            .expect("synth domain must be available");
        times.push(at);
    }
    times
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synth_domains_distinct_and_deterministic() {
        let rng = DetRng::new(5);
        let reg = Registry::new();
        let a = synth_domains(&rng, &reg, 105, "main");
        let b = synth_domains(&rng, &reg, 105, "main");
        assert_eq!(a, b);
        let mut set = a.clone();
        set.sort();
        set.dedup();
        assert_eq!(set.len(), 105);
        let other = synth_domains(&rng, &reg, 10, "other");
        assert_ne!(&a[..10], &other[..]);
    }

    #[test]
    fn register_spread_times_in_window() {
        let rng = DetRng::new(6);
        let mut reg = Registry::new();
        let domains = synth_domains(&rng, &reg, 20, "x");
        let start = SimTime::from_hours(10);
        let window = SimDuration::from_days(14);
        let times = register_spread(&mut reg, &domains, start, window, &rng);
        for (d, t) in domains.iter().zip(&times) {
            assert!(*t >= start && *t <= start + window);
            assert_eq!(
                reg.state(d, start + window),
                phishsim_dns::DomainState::Registered
            );
        }
    }
}
