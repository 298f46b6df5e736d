//! Population-scale blacklist propagation (`sb_scale`).
//!
//! The paper measures when an evasive URL *appears on a blacklist*;
//! this scenario measures the second leg of protection: how long until
//! a deployed population of Safe-Browsing clients actually *holds*
//! that listing locally. It couples the two layers the repo already
//! has:
//!
//! 1. the main experiment (§4.2) supplies per-technique listing
//!    delays — how long after the report each evasion technique's URL
//!    reached a feed;
//! 2. the `phishsim_feedserve` population simulator propagates those
//!    listings to N clients (default one million) over a realistic
//!    versioned-diff update protocol with background feed churn.
//!
//! The output is the end-to-end blind window per technique: report →
//! listing (from the experiment) plus listing → client store
//! (population percentiles). A technique that delays listing by hours
//! pushes every client's protection out by that much *before* the
//! 5–60-minute client-side update lag even starts.

use crate::experiment::main_experiment::{run_main_experiment, MainConfig, MainResult};
use phishsim_feedserve::{
    run_population_with_threads, FeedServer, ListingEvent, PopulationConfig, PopulationReport,
    ServerConfig,
};
use phishsim_simnet::runner::sweep_threads;
use phishsim_simnet::{DetRng, SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Knobs for the propagation scenario.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SbScaleConfig {
    /// Seed for the synthetic feed content (baseline + churn hashes).
    pub seed: u64,
    /// The client population.
    pub population: PopulationConfig,
    /// Feed-distribution parameters.
    pub server: ServerConfig,
    /// Hashes on the feed before the experiment starts (GSB carries
    /// millions; the store/diff costs scale with this).
    pub baseline_hashes: usize,
    /// Background churn: a new feed version is published this often…
    pub churn_every: SimDuration,
    /// …adding this many unrelated hashes (keeps diffs realistic —
    /// clients always have *something* to download).
    pub churn_add: usize,
    /// When the experiment's URLs are reported, relative to the start
    /// of the population run.
    pub report_at: SimTime,
    /// The main-experiment configuration the listing delays come from.
    pub main: MainConfig,
}

impl SbScaleConfig {
    /// Full-scale configuration: one million clients over an
    /// eight-hour horizon against a fifty-thousand-entry feed.
    pub fn paper() -> Self {
        SbScaleConfig {
            seed: 23,
            population: PopulationConfig::default(),
            server: ServerConfig::default(),
            baseline_hashes: 50_000,
            churn_every: SimDuration::from_mins(30),
            churn_add: 250,
            report_at: SimTime::from_mins(30),
            main: MainConfig::fast(),
        }
    }

    /// Reduced configuration for tests and CI smoke runs.
    pub fn fast() -> Self {
        SbScaleConfig {
            baseline_hashes: 2_000,
            churn_add: 50,
            population: PopulationConfig {
                clients: 2_000,
                batch: 256,
                ..PopulationConfig::default()
            },
            ..Self::paper()
        }
    }
}

/// One technique's report→listing leg, as measured by the main
/// experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TechniqueDelay {
    /// Technique label (`EvasionTechnique` display form).
    pub technique: String,
    /// Arms deployed with this technique.
    pub arms: usize,
    /// Arms whose URL ever appeared on a monitored feed.
    pub listed_arms: usize,
    /// Median report→listing delay over the listed arms, in minutes
    /// (`None`: the technique was never listed — the population stays
    /// blind for the whole horizon).
    pub median_listing_delay_mins: Option<u64>,
}

/// The full scenario output: both legs of the blind window.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SbScaleResult {
    /// Clients simulated.
    pub clients: usize,
    /// Feed seed used.
    pub seed: u64,
    /// Feed versions published over the horizon.
    pub versions_published: u64,
    /// Report→listing delays per technique (leg one).
    pub delays: Vec<TechniqueDelay>,
    /// Listing→client propagation metrics (leg two).
    pub population: PopulationReport,
}

/// FNV-1a over the label — a deterministic synthetic full hash for
/// each technique's listed URL. The top bit is forced set while
/// baseline/churn hashes keep it clear, so a measured event can never
/// collide with background-feed prefixes.
fn event_hash(label: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in label.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h | (1 << 63)
}

/// Derive per-technique listing delays from a main-experiment run:
/// for each arm, the earliest monitored observation of its URL gives
/// `listed_at`; the delay is that minus the arm's report time. The
/// per-technique figure is the median over listed arms (lower median —
/// deterministic, no interpolation).
fn technique_delays(main: &MainConfig) -> Vec<TechniqueDelay> {
    delays_from_result(&run_main_experiment(main))
}

/// The same derivation from an already-run [`MainResult`] — the
/// resilience sweep runs the main experiment once per fault intensity
/// and reuses the result for both the delay table and the feed
/// timeline.
pub fn delays_from_result(result: &MainResult) -> Vec<TechniqueDelay> {
    // Earliest listing per URL across all feeds.
    let mut first_listing: BTreeMap<String, SimTime> = BTreeMap::new();
    for obs in &result.observations {
        let key = obs.url.to_string();
        first_listing
            .entry(key)
            .and_modify(|t| {
                if obs.listed_at < *t {
                    *t = obs.listed_at;
                }
            })
            .or_insert(obs.listed_at);
    }
    let mut per_technique: BTreeMap<String, (usize, Vec<u64>)> = BTreeMap::new();
    for arm in &result.arms {
        let entry = per_technique
            .entry(arm.technique.to_string())
            .or_insert((0, Vec::new()));
        entry.0 += 1;
        if let Some(listed_at) = first_listing.get(&arm.url.to_string()) {
            entry
                .1
                .push(listed_at.since(arm.outcome.reported_at).as_mins());
        }
    }
    let mut out: Vec<TechniqueDelay> = per_technique
        .into_iter()
        .map(|(technique, (arms, mut delays))| {
            delays.sort_unstable();
            let median = (!delays.is_empty()).then(|| delays[(delays.len() - 1) / 2]);
            TechniqueDelay {
                technique,
                arms,
                listed_arms: delays.len(),
                median_listing_delay_mins: median,
            }
        })
        .collect();
    // The naked-payload reference (§4.1: naked URLs list in ~2 h). The
    // main experiment only deploys armed URLs, so the preliminary
    // figure is pinned here as the comparison row.
    out.insert(
        0,
        TechniqueDelay {
            technique: "none".into(),
            arms: 0,
            listed_arms: 0,
            median_listing_delay_mins: Some(132),
        },
    );
    out
}

/// Run the scenario on the default thread count.
pub fn run_sb_scale(cfg: &SbScaleConfig) -> SbScaleResult {
    run_sb_scale_with_threads(cfg, sweep_threads())
}

/// Run the scenario on exactly `threads` workers. The result is
/// byte-identical for any thread count (the delays leg is serial; the
/// population leg merges in input order).
pub fn run_sb_scale_with_threads(cfg: &SbScaleConfig, threads: usize) -> SbScaleResult {
    let delays = technique_delays(&cfg.main);
    let (server, events) = build_feed(cfg, &delays);
    let population = run_population_with_threads(&cfg.population, &server, &events, threads);

    SbScaleResult {
        clients: cfg.population.clients,
        seed: cfg.seed,
        versions_published: server.current_version(),
        delays,
        population,
    }
}

/// Build the synthetic feed timeline — baseline + background churn +
/// one measured listing per technique row — and the listing events
/// whose propagation the population leg measures. Shared with the
/// resilience sweep, which additionally schedules server outages on
/// the returned server.
pub(crate) fn build_feed(
    cfg: &SbScaleConfig,
    delays: &[TechniqueDelay],
) -> (FeedServer, Vec<ListingEvent>) {
    // Synthetic feed content: baseline + churn, top bit clear (the
    // measured events own the top-bit-set half of the hash space).
    let mut rng = DetRng::new(cfg.seed).fork("sb-scale-feed");
    let mut background = || -> u64 { rng.range(0..u64::MAX >> 1) };

    // Listing timeline: churn instants plus each technique's listing
    // instant, walked in time order with a cumulative hash set.
    let horizon = SimTime::ZERO + cfg.population.horizon;
    let mut additions: BTreeMap<SimTime, Vec<u64>> = BTreeMap::new();
    let mut events = Vec::with_capacity(delays.len());
    for d in delays {
        let hash = event_hash(&d.technique);
        let listed_at = match d.median_listing_delay_mins {
            // Never listed: the event is measured (everyone stays
            // exposed) but the hash never ships.
            None => cfg.report_at,
            Some(mins) => {
                let at = cfg.report_at + SimDuration::from_mins(mins);
                if at <= horizon {
                    additions.entry(at).or_default().push(hash);
                }
                at
            }
        };
        events.push(ListingEvent {
            label: d.technique.clone(),
            full_hash: hash,
            listed_at,
        });
    }
    let mut churn_at = SimTime::ZERO + cfg.churn_every;
    while churn_at <= horizon {
        let batch: Vec<u64> = (0..cfg.churn_add).map(|_| background()).collect();
        additions.entry(churn_at).or_default().extend(batch);
        churn_at += cfg.churn_every;
    }

    // The feed stays sorted: the stable sort takes the sorted feed as
    // one run and merges the appended batch into it, so a publication
    // does not sort the whole feed again.
    let mut server = FeedServer::new(cfg.server.clone());
    let mut feed: Vec<u64> = (0..cfg.baseline_hashes).map(|_| background()).collect();
    feed.sort_unstable();
    server.publish(feed.iter().copied(), SimTime::ZERO);
    for (at, mut batch) in additions {
        feed.append(&mut batch);
        feed.sort();
        server.publish(feed.iter().copied(), at);
    }
    (server, events)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SbScaleConfig {
        SbScaleConfig {
            baseline_hashes: 500,
            churn_add: 20,
            population: PopulationConfig {
                clients: 300,
                batch: 64,
                horizon: SimDuration::from_hours(6),
                ..PopulationConfig::default()
            },
            ..SbScaleConfig::fast()
        }
    }

    #[test]
    fn naked_reference_row_present() {
        let delays = technique_delays(&MainConfig::fast());
        assert_eq!(delays[0].technique, "none");
        assert_eq!(delays[0].median_listing_delay_mins, Some(132));
        // The three armed techniques all have rows.
        for t in ["alert-box", "session", "recaptcha"] {
            let row = delays.iter().find(|d| d.technique == t);
            assert!(row.is_some_and(|r| r.arms > 0), "missing row for {t}");
        }
    }

    #[test]
    fn event_hashes_never_collide_with_background() {
        for label in ["none", "alert-box", "session", "recaptcha"] {
            assert!(event_hash(label) >> 63 == 1);
        }
        assert_ne!(event_hash("alert-box"), event_hash("session"));
    }

    #[test]
    fn scenario_runs_and_couples_both_legs() {
        let cfg = tiny();
        let r = run_sb_scale(&cfg);
        assert_eq!(r.clients, 300);
        assert!(r.versions_published > 1, "churn must publish versions");
        assert_eq!(r.delays.len(), r.population.events.len());
        // The naked reference lists earliest, so its population
        // protection can't lag any armed technique that also listed.
        let by_label = |l: &str| {
            r.population
                .events
                .iter()
                .find(|e| e.label == l)
                .expect("event present")
        };
        let naked = by_label("none");
        assert!(naked.first_version.is_some());
        assert!(naked.protected > 0);
        // Techniques that never listed leave everyone exposed.
        for (d, e) in r.delays.iter().zip(&r.population.events) {
            assert_eq!(d.technique, e.label);
            if d.median_listing_delay_mins.is_none() {
                assert_eq!(e.protected, 0);
            }
        }
        // Diffs were exercised by churn.
        assert!(r.population.counters.get("update.diff") > 0);
    }

    #[test]
    fn thread_count_invariant() {
        let cfg = tiny();
        let a = run_sb_scale_with_threads(&cfg, 1);
        let b = run_sb_scale_with_threads(&cfg, 4);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
    }
}
