//! Reputation and history services, plus the synthetic Alexa population.
//!
//! The paper's pipeline consumes four external data sources beyond DNS
//! and WHOIS: the Alexa top-1M list, VirusTotal / Google Safe Browsing
//! history ("make sure they have not been recently used in malicious
//! activity"), the Internet Archive ("archived at least once"), and the
//! Google index ("indexed at least once based on the `site:domain`
//! query"). This module provides all four, and a
//! [`SyntheticPopulation`] generator that seeds them — *calibrated* so
//! the paper's selection funnel regenerates:
//!
//! ```text
//! 1,000,000 Alexa domains
//!   └─ step 1: SOA/NS scan, keep NXDOMAIN ............ 770
//!       └─ step 2: registrar availability API ........ 251
//!           └─ step 3: WHOIS == NOT FOUND ............ 244
//!               └─ step 4: VT + GSB history clean ..... 244
//!                   └─ step 5+6: archived AND indexed .. 50
//! ```
//!
//! The attrition at each step has a concrete mechanism in the simulation:
//! step-2 losses are domains still in grace/redemption or held as
//! premium/reserved inventory; step-3 losses are pending-delete domains
//! that backorder-capable availability APIs report as available while
//! WHOIS still shows the stale record; step-5/6 losses are dropped
//! domains that never accumulated web history.

use crate::name::DomainName;
use crate::registry::Registry;
use phishsim_simnet::{DetRng, SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};

/// A compact word list used to synthesise plausible domain names (the
/// paper draws random keywords from the Unix dictionary).
pub const WORDS: &[&str] = &[
    "green",
    "energy",
    "garden",
    "river",
    "stone",
    "cloud",
    "maple",
    "harbor",
    "summit",
    "field",
    "bright",
    "ocean",
    "cedar",
    "valley",
    "north",
    "south",
    "east",
    "west",
    "rapid",
    "silver",
    "golden",
    "iron",
    "copper",
    "crystal",
    "meadow",
    "forest",
    "spring",
    "winter",
    "autumn",
    "summer",
    "trade",
    "market",
    "craft",
    "works",
    "studio",
    "media",
    "press",
    "journal",
    "daily",
    "weekly",
    "global",
    "local",
    "prime",
    "alpha",
    "delta",
    "omega",
    "vector",
    "matrix",
    "pixel",
    "byte",
    "data",
    "logic",
    "smart",
    "swift",
    "solid",
    "clear",
    "pure",
    "fresh",
    "vivid",
    "travel",
    "voyage",
    "journey",
    "trail",
    "path",
    "bridge",
    "tower",
    "castle",
    "garden",
    "kitchen",
    "recipe",
    "flavor",
    "spice",
    "honey",
    "berry",
    "apple",
    "lemon",
    "olive",
    "grape",
    "health",
    "fitness",
    "yoga",
    "sport",
    "active",
    "vital",
    "care",
    "clinic",
    "dental",
    "vision",
    "school",
    "academy",
    "campus",
    "learn",
    "study",
    "tutor",
    "class",
    "course",
    "skill",
    "talent",
    "finance",
    "capital",
    "asset",
    "fund",
    "invest",
    "credit",
    "wealth",
    "broker",
    "ledger",
    "audit",
    "legal",
    "justice",
    "counsel",
    "notary",
    "estate",
    "realty",
    "housing",
    "rental",
    "motor",
    "drive",
    "wheel",
    "engine",
    "garage",
    "repair",
    "service",
    "support",
    "expert",
    "master",
    "guild",
    "union",
    "alliance",
    "partner",
    "venture",
    "startup",
    "launch",
    "rocket",
    "orbit",
    "lunar",
    "solar",
    "stellar",
    "cosmic",
    "photon",
    "quantum",
    "atomic",
    "micro",
    "macro",
    "mega",
    "ultra",
    "super",
    "hyper",
    "turbo",
    "rapidly",
    "quick",
    "instant",
    "direct",
    "secure",
    "trusted",
    "verified",
    "certified",
    "official",
    "premium",
    "select",
    "choice",
    "quality",
    "classic",
    "modern",
    "urban",
    "rural",
    "coastal",
    "alpine",
    "desert",
    "tropic",
    "arctic",
    "island",
    "lagoon",
    "canyon",
    "mesa",
    "prairie",
    "tundra",
    "grove",
    "orchard",
    "vineyard",
    "farm",
    "ranch",
    "barn",
    "mill",
    "forge",
    "anvil",
    "hammer",
    "chisel",
    "plane",
    "timber",
    "lumber",
    "brick",
    "mortar",
    "granite",
    "marble",
    "quartz",
    "basalt",
    "flint",
    "ember",
    "flame",
    "torch",
    "beacon",
    "signal",
    "relay",
    "network",
    "node",
    "link",
    "mesh",
    "grid",
    "panel",
    "module",
    "sensor",
    "probe",
    "scope",
    "lens",
    "prism",
    "mirror",
    "shade",
    "light",
    "shadow",
    "dawn",
    "dusk",
    "noon",
    "midnight",
    "horizon",
    "zenith",
    "nadir",
    "apex",
];

/// Verdict from the combined VirusTotal + GSB history check.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum HistoryVerdict {
    /// No recent malicious activity on record.
    Clean,
    /// The domain was recently flagged (disqualifies it in step 4).
    RecentlyFlagged,
}

/// The Alexa-style popularity list: domains in rank order (rank 1 first).
#[derive(Debug, Clone, Default)]
pub struct AlexaList {
    entries: Vec<DomainName>,
}

impl AlexaList {
    /// Build from a ranked vector.
    pub fn new(entries: Vec<DomainName>) -> Self {
        AlexaList { entries }
    }

    /// All entries in rank order.
    pub fn entries(&self) -> &[DomainName] {
        &self.entries
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the list is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// 1-based rank of a domain, if listed.
    pub fn rank(&self, name: &DomainName) -> Option<usize> {
        self.entries.iter().position(|d| d == name).map(|i| i + 1)
    }
}

/// The Internet Archive: which domains have at least one snapshot.
#[derive(Debug, Clone, Default)]
pub struct ArchiveService {
    snapshots: HashMap<DomainName, u32>,
}

impl ArchiveService {
    /// Record `count` snapshots for a domain.
    pub fn add_snapshots(&mut self, name: DomainName, count: u32) {
        *self.snapshots.entry(name).or_insert(0) += count;
    }

    /// Whether the domain has been archived at least once (step 5).
    pub fn has_snapshot(&self, name: &DomainName) -> bool {
        self.snapshots.get(name).copied().unwrap_or(0) > 0
    }
}

/// The search-engine index: `site:domain` result counts.
#[derive(Debug, Clone, Default)]
pub struct SearchIndex {
    indexed_pages: HashMap<DomainName, u32>,
}

impl SearchIndex {
    /// Record `pages` indexed pages for a domain.
    pub fn add_pages(&mut self, name: DomainName, pages: u32) {
        *self.indexed_pages.entry(name).or_insert(0) += pages;
    }

    /// The `site:domain` query (step 6): number of indexed pages.
    pub fn site_query(&self, name: &DomainName) -> u32 {
        self.indexed_pages.get(name).copied().unwrap_or(0)
    }
}

/// VirusTotal + GSB history service.
#[derive(Debug, Clone, Default)]
pub struct ThreatHistory {
    flagged: HashSet<DomainName>,
}

impl ThreatHistory {
    /// Mark a domain as recently flagged.
    pub fn flag(&mut self, name: DomainName) {
        self.flagged.insert(name);
    }

    /// Step-4 check.
    pub fn check(&self, name: &DomainName) -> HistoryVerdict {
        if self.flagged.contains(name) {
            HistoryVerdict::RecentlyFlagged
        } else {
            HistoryVerdict::Clean
        }
    }
}

/// Summary of one domain's planted ground truth (used by tests and by
/// the funnel harness to verify the pipeline's selections).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DomainProfile {
    /// Healthy, actively used domain (the overwhelming majority).
    Healthy,
    /// Expired, still in grace/redemption: NXDOMAIN but not available.
    InDropLifecycle,
    /// Fully dropped but premium/reserved at the registrars.
    DroppedReserved,
    /// Pending delete: backorder APIs say available, WHOIS still Found.
    PendingDeleteRace,
    /// Fully dropped, clean, but without web history.
    DroppedNoHistory,
    /// Fully dropped, clean, archived and indexed: the drop-catch targets.
    DropCatchTarget,
    /// Fully dropped but with recent malicious history.
    DroppedDirtyHistory,
}

/// Calibration knobs for the synthetic population.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PopulationConfig {
    /// Total Alexa list size (paper: 1,000,000).
    pub alexa_size: usize,
    /// Domains answering NXDOMAIN in step 1 (paper: 770).
    pub nxdomain: usize,
    /// Of those, domains the availability APIs report available (paper: 251).
    pub registrar_available: usize,
    /// Of those, domains whose WHOIS says NOT FOUND (paper: 244).
    pub whois_not_found: usize,
    /// Of those, domains with clean VT/GSB history (paper: 244).
    pub clean_history: usize,
    /// Of those, domains both archived and indexed (paper: 50).
    pub archived_and_indexed: usize,
}

impl PopulationConfig {
    /// The paper's exact funnel at full scale.
    pub fn paper() -> Self {
        PopulationConfig {
            alexa_size: 1_000_000,
            nxdomain: 770,
            registrar_available: 251,
            whois_not_found: 244,
            clean_history: 244,
            archived_and_indexed: 50,
        }
    }

    /// A reduced population for fast tests: same funnel tail, smaller list.
    pub fn small() -> Self {
        PopulationConfig {
            alexa_size: 5_000,
            ..Self::paper()
        }
    }

    fn validate(&self) {
        assert!(self.nxdomain <= self.alexa_size);
        assert!(self.registrar_available <= self.nxdomain);
        assert!(self.whois_not_found <= self.registrar_available);
        assert!(self.clean_history <= self.whois_not_found);
        assert!(self.archived_and_indexed <= self.clean_history);
    }
}

/// A fully seeded synthetic ecosystem.
#[derive(Debug)]
pub struct SyntheticPopulation {
    /// The popularity list the pipeline scans.
    pub alexa: AlexaList,
    /// The seeded registry (drop lifecycles planted).
    pub registry: Registry,
    /// Archive snapshots.
    pub archive: ArchiveService,
    /// Search index.
    pub index: SearchIndex,
    /// VT/GSB history.
    pub history: ThreatHistory,
    /// Names the registrars hold as premium/reserved inventory.
    pub reserved_names: HashSet<DomainName>,
    /// Ground-truth profile per planted domain (healthy domains omitted).
    pub profiles: HashMap<DomainName, DomainProfile>,
    /// The "now" the population was seeded relative to.
    pub now: SimTime,
}

impl SyntheticPopulation {
    /// Generate a population satisfying `config` exactly, deterministically
    /// from `rng`.
    pub fn generate(config: &PopulationConfig, rng: &DetRng, now: SimTime) -> Self {
        config.validate();
        let mut rng = rng.fork("population");
        let mut registry = Registry::new();
        let mut archive = ArchiveService::default();
        let mut index = SearchIndex::default();
        let mut history = ThreatHistory::default();
        let mut reserved_names = HashSet::new();
        let mut profiles = HashMap::new();

        // Deterministic distinct names: word-word{-n}.tld over the word
        // list, enumerated in a shuffled order. The word list contains a
        // few repeated entries, so dedupe first — duplicate names would
        // let a later (healthy) seeding overwrite an earlier (planted)
        // one and silently shrink the funnel.
        let words: Vec<&str> = {
            let mut seen = HashSet::new();
            WORDS.iter().copied().filter(|w| seen.insert(*w)).collect()
        };
        let mut names = Vec::with_capacity(config.alexa_size);
        let tlds = [
            "com", "net", "org", "fr", "de", "io", "xyz", "online", "co", "uk",
        ];
        let mut counter = 0usize;
        while names.len() < config.alexa_size {
            let w1 = words[counter % words.len()];
            let w2 = words[(counter / words.len()) % words.len()];
            let n = counter / (words.len() * words.len());
            let tld = tlds[counter % tlds.len()];
            let s = if n == 0 {
                format!("{w1}-{w2}.{tld}")
            } else {
                format!("{w1}-{w2}-{n}.{tld}")
            };
            counter += 1;
            if let Ok(d) = DomainName::parse(&s) {
                names.push(d);
            }
        }
        rng.shuffle(&mut names);

        // Partition the planted roles over the first `nxdomain` names
        // (the list is already shuffled, so this is a uniform sample).
        let nx = &names[..config.nxdomain];
        let available = &nx[..config.registrar_available];
        let not_found = &available[..config.whois_not_found];
        let clean = &not_found[..config.clean_history];
        let targets = &clean[..config.archived_and_indexed];

        let target_set: HashSet<&DomainName> = targets.iter().collect();
        let clean_set: HashSet<&DomainName> = clean.iter().collect();
        let not_found_set: HashSet<&DomainName> = not_found.iter().collect();
        let available_set: HashSet<&DomainName> = available.iter().collect();

        // Ancient registration for everything; expiry depends on role.
        let registered_at = SimTime::ZERO;
        let long_dropped_expiry = now; // placeholder overwritten below

        for (i, name) in names.iter().enumerate() {
            let in_nx = i < config.nxdomain;
            if !in_nx {
                // Healthy: registered, delegated (synthetically), renewing.
                registry.seed_delegated(
                    name.clone(),
                    "various",
                    registered_at,
                    now + SimDuration::from_days(200),
                    false,
                );
                continue;
            }
            let profile = if target_set.contains(name) {
                DomainProfile::DropCatchTarget
            } else if clean_set.contains(name) {
                DomainProfile::DroppedNoHistory
            } else if not_found_set.contains(name) {
                DomainProfile::DroppedDirtyHistory
            } else if available_set.contains(name) {
                DomainProfile::PendingDeleteRace
            } else if rng.chance(0.6) {
                DomainProfile::InDropLifecycle
            } else {
                DomainProfile::DroppedReserved
            };
            profiles.insert(name.clone(), profile);

            match profile {
                DomainProfile::DropCatchTarget
                | DomainProfile::DroppedNoHistory
                | DomainProfile::DroppedDirtyHistory => {
                    // Fully dropped: expired long enough ago to be Available.
                    let expiry = back(now, rng.range(120..600u64));
                    registry.seed(name.clone(), "oldcorp", registered_at, expiry, true);
                }
                DomainProfile::DroppedReserved => {
                    let expiry = back(now, rng.range(120..600u64));
                    registry.seed(name.clone(), "oldcorp", registered_at, expiry, true);
                    reserved_names.insert(name.clone());
                }
                DomainProfile::PendingDeleteRace => {
                    // In the pending-delete window: expiry such that
                    // now - expiry ∈ [75, 80) days.
                    let days_ago = rng.range(76..80u64);
                    let expiry = back(now, days_ago);
                    registry.seed(name.clone(), "oldcorp", registered_at, expiry, true);
                }
                DomainProfile::InDropLifecycle => {
                    // Grace or redemption: now - expiry ∈ [1, 74] days.
                    let days_ago = rng.range(1..74u64);
                    let expiry = back(now, days_ago);
                    registry.seed(name.clone(), "oldcorp", registered_at, expiry, true);
                }
                DomainProfile::Healthy => unreachable!(),
            }

            if profile == DomainProfile::DroppedDirtyHistory {
                history.flag(name.clone());
            }

            // Web history: targets have both; other dropped domains get
            // at most one of archive/index (never both), so the planted
            // target count is exact.
            match profile {
                DomainProfile::DropCatchTarget => {
                    archive.add_snapshots(name.clone(), rng.range(1..40u32));
                    index.add_pages(name.clone(), rng.range(1..200u32));
                }
                DomainProfile::DroppedNoHistory => {
                    // These survive to step 5 of the pipeline, so the
                    // paper's funnel (244 -> 50 at the archive filter)
                    // requires them to have no archive snapshots; an
                    // index entry alone is allowed and irrelevant.
                    if rng.chance(0.4) {
                        index.add_pages(name.clone(), rng.range(1..20u32));
                    }
                }
                DomainProfile::DroppedDirtyHistory
                | DomainProfile::DroppedReserved
                | DomainProfile::InDropLifecycle
                | DomainProfile::PendingDeleteRace => {
                    if rng.chance(0.4) {
                        archive.add_snapshots(name.clone(), rng.range(1..10u32));
                    } else if rng.chance(0.4) {
                        index.add_pages(name.clone(), rng.range(1..20u32));
                    }
                }
                DomainProfile::Healthy => {}
            }
        }
        let _ = long_dropped_expiry;

        SyntheticPopulation {
            alexa: AlexaList::new(names),
            registry,
            archive,
            index,
            history,
            reserved_names,
            profiles,
            now,
        }
    }
}

/// `now` minus `days` whole days, saturating at the epoch.
fn back(now: SimTime, days: u64) -> SimTime {
    SimTime::from_millis(
        now.as_millis()
            .saturating_sub(SimDuration::from_days(days).as_millis()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::DomainState;

    fn population() -> SyntheticPopulation {
        // Seed far enough into sim time that "expired N days ago" works.
        let now = SimTime::from_hours(24 * 700);
        SyntheticPopulation::generate(&PopulationConfig::small(), &DetRng::new(2020), now)
    }

    #[test]
    fn planted_counts_match_config() {
        let p = population();
        let cfg = PopulationConfig::small();
        assert_eq!(p.alexa.len(), cfg.alexa_size);
        let count = |prof: DomainProfile| p.profiles.values().filter(|&&x| x == prof).count();
        assert_eq!(count(DomainProfile::DropCatchTarget), 50);
        assert_eq!(count(DomainProfile::DroppedNoHistory), 244 - 50);
        assert_eq!(count(DomainProfile::DroppedDirtyHistory), 0); // 244 == 244 in the paper
        assert_eq!(count(DomainProfile::PendingDeleteRace), 251 - 244);
        assert_eq!(
            count(DomainProfile::InDropLifecycle) + count(DomainProfile::DroppedReserved),
            770 - 251
        );
    }

    #[test]
    fn targets_are_available_clean_and_historied() {
        let p = population();
        for (name, prof) in &p.profiles {
            if *prof == DomainProfile::DropCatchTarget {
                assert_eq!(p.registry.state(name, p.now), DomainState::Available);
                assert_eq!(p.history.check(name), HistoryVerdict::Clean);
                assert!(p.archive.has_snapshot(name));
                assert!(p.index.site_query(name) > 0);
                assert!(!p.reserved_names.contains(name));
            }
        }
    }

    #[test]
    fn pending_delete_race_has_stale_whois() {
        let p = population();
        for (name, prof) in &p.profiles {
            if *prof == DomainProfile::PendingDeleteRace {
                assert_eq!(p.registry.state(name, p.now), DomainState::PendingDelete);
                assert!(matches!(
                    p.registry.whois(name, p.now),
                    crate::registry::WhoisAnswer::Found { .. }
                ));
            }
        }
    }

    #[test]
    fn no_history_domains_lack_joint_history() {
        let p = population();
        for (name, prof) in &p.profiles {
            if *prof == DomainProfile::DroppedNoHistory {
                assert!(
                    !p.archive.has_snapshot(name),
                    "{name} must not be archived (paper funnel: 244 -> 50 at step 5)"
                );
            }
        }
    }

    #[test]
    fn healthy_majority_resolves() {
        let p = population();
        let mut resolver = crate::resolver::Resolver::new();
        let healthy: Vec<&DomainName> = p
            .alexa
            .entries()
            .iter()
            .filter(|d| !p.profiles.contains_key(*d))
            .take(20)
            .collect();
        assert!(!healthy.is_empty());
        for d in healthy {
            assert!(
                !resolver.is_nxdomain(&p.registry, d, p.now),
                "{d} should resolve"
            );
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let now = SimTime::from_hours(24 * 700);
        let a = SyntheticPopulation::generate(&PopulationConfig::small(), &DetRng::new(7), now);
        let b = SyntheticPopulation::generate(&PopulationConfig::small(), &DetRng::new(7), now);
        assert_eq!(a.alexa.entries(), b.alexa.entries());
        assert_eq!(a.profiles, b.profiles);
    }

    #[test]
    fn alexa_rank_lookup() {
        let p = population();
        let first = p.alexa.entries()[0].clone();
        assert_eq!(p.alexa.rank(&first), Some(1));
        let absent = DomainName::parse("definitely-not-present-zz.com").unwrap();
        assert_eq!(p.alexa.rank(&absent), None);
    }
}

#[cfg(test)]
mod uniqueness_tests {
    use super::*;

    #[test]
    fn population_names_are_unique_at_scale() {
        // Regression: WORDS contains repeated entries; without dedup the
        // generated Alexa list held duplicate names at large sizes, and
        // a later healthy seeding silently overwrote planted drop-catch
        // domains (the 1M funnel read 763 instead of 770).
        let cfg = PopulationConfig {
            alexa_size: 120_000,
            ..PopulationConfig::paper()
        };
        let now = SimTime::from_hours(24 * 700);
        let pop = SyntheticPopulation::generate(&cfg, &DetRng::new(1), now);
        let mut names: Vec<&DomainName> = pop.alexa.entries().iter().collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), cfg.alexa_size, "alexa names must be distinct");
    }
}
