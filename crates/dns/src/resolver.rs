//! A caching stub resolver.
//!
//! The paper's pipeline (step 1) issues SOA/NS queries against the Alexa
//! population and keeps NXDOMAIN answers; its crawlers later resolve the
//! registered domains to reach the hosting servers. [`Resolver`] answers
//! from the registry's delegations, with positive and negative caching
//! governed by record TTLs.

use crate::name::DomainName;
use crate::records::{Record, RecordData, RecordType, Zone, NS1};
use crate::registry::Registry;
use phishsim_simnet::{BuildSymHasher, SimDuration, SimTime};
use std::collections::HashMap;

/// DNS response codes the simulation distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rcode {
    /// Answer present (or empty answer for the requested type).
    NoError,
    /// The name does not exist.
    NxDomain,
}

/// A resolver answer.
#[derive(Debug, Clone, PartialEq)]
pub struct ResolverResponse {
    /// Response code.
    pub rcode: Rcode,
    /// Matching records (empty for NXDOMAIN or NODATA).
    pub answers: Vec<Record>,
    /// Whether the answer came from the resolver cache.
    pub from_cache: bool,
}

#[derive(Debug, Clone)]
struct CacheEntry {
    rcode: Rcode,
    answers: Vec<Record>,
    /// Simulated time of the lookup that filled the entry.
    cached_at: SimTime,
    expires_at: SimTime,
}

impl CacheEntry {
    /// Whether the entry answers a query at `now`. Callers query at
    /// out-of-order simulated times, so an entry cached *later* than
    /// `now` describes a future state of the registry and must not
    /// answer: a domain's NXDOMAIN cached after it dropped says nothing
    /// about a query from while it was still registered.
    fn live_at(&self, now: SimTime) -> bool {
        self.cached_at <= now && now < self.expires_at
    }
}

/// What authority says about a name at one moment.
enum Authority<'r> {
    /// The name is delegated to a stored zone.
    Zone(&'r Zone),
    /// A healthy population domain, answered without a stored zone.
    Synthetic,
    /// The name does not exist.
    NxDomain,
}

impl<'r> Authority<'r> {
    fn of(registry: &'r Registry, name: &DomainName, now: SimTime) -> Self {
        match registry.zone(name, now) {
            Some(zone) => Authority::Zone(zone),
            None if registry.has_synthetic_delegation(name, now) => Authority::Synthetic,
            None => Authority::NxDomain,
        }
    }

    /// Whether `entry` holds exactly this answer for `rtype`, checked
    /// by reference (synthetic answers are never confirmed, only
    /// rebuilt).
    fn confirms(&self, entry: &CacheEntry, rtype: RecordType) -> bool {
        match self {
            Authority::Zone(zone) => {
                entry.rcode == Rcode::NoError && entry.answers.iter().eq(zone.records_of(rtype))
            }
            Authority::Synthetic => false,
            Authority::NxDomain => entry.rcode == Rcode::NxDomain,
        }
    }

    /// The answer as owned records.
    fn answer(&self, name: &DomainName, rtype: RecordType) -> (Rcode, Vec<Record>) {
        match self {
            Authority::Zone(zone) => {
                let answers: Vec<Record> = zone.records_of(rtype).cloned().collect();
                (Rcode::NoError, answers)
            }
            Authority::Synthetic => {
                // Healthy population domain: synthesise a conventional
                // answer on demand rather than storing a zone per domain.
                let data = match rtype {
                    RecordType::Soa => Some(RecordData::Soa {
                        mname: NS1.into(),
                        serial: 1,
                    }),
                    RecordType::Ns => Some(RecordData::Ns(NS1.into())),
                    _ => None,
                };
                let answers = data
                    .map(|d| {
                        vec![Record {
                            name: name.clone(),
                            ttl: 3600,
                            data: d,
                        }]
                    })
                    .unwrap_or_default();
                (Rcode::NoError, answers)
            }
            Authority::NxDomain => (Rcode::NxDomain, Vec::new()),
        }
    }
}

/// Negative-cache TTL (SOA minimum in real life; fixed here).
const NEGATIVE_TTL: SimDuration = SimDuration::from_mins(15);

/// One cache slot per [`RecordType`], indexed by [`slot`].
type Slots = [Option<CacheEntry>; 5];

/// The cache slot of `rtype`.
fn slot(rtype: RecordType) -> usize {
    match rtype {
        RecordType::Soa => 0,
        RecordType::Ns => 1,
        RecordType::A => 2,
        RecordType::Txt => 3,
        RecordType::Ds => 4,
    }
}

/// A caching stub resolver over a [`Registry`].
#[derive(Debug)]
pub struct Resolver {
    /// Cached answers by name, one slot per record type: a query looks
    /// the name up once, by reference, without building an owned key.
    cache: HashMap<DomainName, Slots, BuildSymHasher>,
    caching: bool,
    /// Count of queries answered from cache / from authority.
    pub cache_hits: u64,
    /// Count of authoritative lookups performed.
    pub authoritative_lookups: u64,
}

impl Default for Resolver {
    fn default() -> Self {
        Resolver {
            cache: HashMap::default(),
            caching: true,
            cache_hits: 0,
            authoritative_lookups: 0,
        }
    }
}

impl Resolver {
    /// A resolver with an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// A resolver that never caches. Population-scale scans (the
    /// 1M-domain pipeline) use this to keep memory flat.
    pub fn uncached() -> Self {
        Resolver {
            caching: false,
            ..Self::default()
        }
    }

    /// Resolve `name`/`rtype` at time `now` against `registry`.
    pub fn query(
        &mut self,
        registry: &Registry,
        name: &DomainName,
        rtype: RecordType,
        now: SimTime,
    ) -> ResolverResponse {
        self.answer(registry, name, rtype, now, |rcode, answers, from_cache| {
            ResolverResponse {
                rcode,
                answers: answers.to_vec(),
                from_cache,
            }
        })
    }

    /// Convenience: resolve the A record of `name` to an address. A
    /// cache hit copies nothing.
    pub fn resolve_addr(
        &mut self,
        registry: &Registry,
        name: &DomainName,
        now: SimTime,
    ) -> Option<phishsim_simnet::Ipv4Sim> {
        self.answer(registry, name, RecordType::A, now, |_, answers, _| {
            answers.iter().find_map(|r| match r.data {
                RecordData::A(a) => Some(a),
                _ => None,
            })
        })
    }

    /// Answer `name`/`rtype` at `now` — from a live cache entry when
    /// there is one, else from authority, caching the result — and hand
    /// the answer to `read` as `(rcode, answers, from_cache)`.
    fn answer<R>(
        &mut self,
        registry: &Registry,
        name: &DomainName,
        rtype: RecordType,
        now: SimTime,
        read: impl FnOnce(Rcode, &[Record], bool) -> R,
    ) -> R {
        let stale = self
            .cache
            .get_mut(name)
            .and_then(|slots| slots[slot(rtype)].as_mut());
        if let Some(entry) = stale.as_deref().filter(|e| e.live_at(now)) {
            self.cache_hits += 1;
            return read(entry.rcode, &entry.answers, true);
        }
        self.authoritative_lookups += 1;
        let authority = Authority::of(registry, name, now);
        // Probe traffic queries at out-of-order times, so most misses
        // find an entry that authority still confirms; re-time it in
        // place instead of copying the records again.
        if let Some(entry) = stale {
            if authority.confirms(entry, rtype) {
                let ttl = entry.expires_at.since(entry.cached_at);
                entry.cached_at = now;
                entry.expires_at = now + ttl;
                return read(entry.rcode, &entry.answers, false);
            }
        }
        let (rcode, answers) = authority.answer(name, rtype);
        let out = read(rcode, &answers, false);
        if self.caching {
            let ttl = match rcode {
                Rcode::NxDomain => NEGATIVE_TTL,
                Rcode::NoError => {
                    let min_ttl = answers.iter().map(|r| r.ttl).min().unwrap_or(300);
                    SimDuration::from_secs(min_ttl as u64)
                }
            };
            let entry = CacheEntry {
                rcode,
                answers,
                cached_at: now,
                expires_at: now + ttl,
            };
            self.cache.entry(name.clone()).or_default()[slot(rtype)] = Some(entry);
        }
        out
    }

    /// The SOA/NS probe the paper's pipeline performs: returns true when
    /// the domain answers NXDOMAIN for both SOA and NS.
    pub fn is_nxdomain(&mut self, registry: &Registry, name: &DomainName, now: SimTime) -> bool {
        let soa = self.query(registry, name, RecordType::Soa, now);
        let ns = self.query(registry, name, RecordType::Ns, now);
        soa.rcode == Rcode::NxDomain && ns.rcode == Rcode::NxDomain
    }

    /// Drop all cached entries.
    pub fn flush(&mut self) {
        self.cache.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::records::Zone;
    use phishsim_simnet::Ipv4Sim;

    fn setup() -> (Registry, DomainName) {
        let mut reg = Registry::new();
        let d = DomainName::parse("hosted.com").unwrap();
        reg.register(d.clone(), "ovh", SimTime::ZERO, SimDuration::from_days(365))
            .unwrap();
        let zone = Zone::hosting(d.clone(), Ipv4Sim::new(10, 1, 1, 1), 1, true);
        reg.delegate(&d, zone, SimTime::ZERO).unwrap();
        (reg, d)
    }

    #[test]
    fn resolves_a_record() {
        let (reg, d) = setup();
        let mut res = Resolver::new();
        let addr = res.resolve_addr(&reg, &d, SimTime::from_mins(1));
        assert_eq!(addr, Some(Ipv4Sim::new(10, 1, 1, 1)));
    }

    #[test]
    fn nxdomain_for_unknown() {
        let reg = Registry::new();
        let mut res = Resolver::new();
        let d = DomainName::parse("ghost.com").unwrap();
        assert!(res.is_nxdomain(&reg, &d, SimTime::ZERO));
    }

    #[test]
    fn registered_domain_is_not_nxdomain() {
        let (reg, d) = setup();
        let mut res = Resolver::new();
        assert!(!res.is_nxdomain(&reg, &d, SimTime::from_mins(1)));
    }

    #[test]
    fn positive_cache_hits_within_ttl() {
        let (reg, d) = setup();
        let mut res = Resolver::new();
        let t0 = SimTime::from_mins(1);
        let first = res.query(&reg, &d, RecordType::A, t0);
        assert!(!first.from_cache);
        let second = res.query(&reg, &d, RecordType::A, t0 + SimDuration::from_secs(60));
        assert!(second.from_cache);
        assert_eq!(res.cache_hits, 1);
        // The A record TTL is 300 s; beyond it we re-query authority.
        let third = res.query(&reg, &d, RecordType::A, t0 + SimDuration::from_secs(301));
        assert!(!third.from_cache);
        assert_eq!(res.authoritative_lookups, 2);
    }

    #[test]
    fn negative_cache_expires() {
        let reg = Registry::new();
        let mut res = Resolver::new();
        let d = DomainName::parse("gone.com").unwrap();
        let t0 = SimTime::ZERO;
        let first = res.query(&reg, &d, RecordType::Soa, t0);
        assert_eq!(first.rcode, Rcode::NxDomain);
        let second = res.query(&reg, &d, RecordType::Soa, t0 + SimDuration::from_mins(5));
        assert!(second.from_cache);
        let third = res.query(&reg, &d, RecordType::Soa, t0 + SimDuration::from_mins(16));
        assert!(!third.from_cache);
    }

    #[test]
    fn later_cached_answer_never_serves_an_earlier_query() {
        // Out-of-order query times: a lapsed domain is first queried
        // after it dropped, caching NXDOMAIN; a query timed *before* that
        // entry was cached, while the domain still resolved, must go to
        // authority, not the cache.
        let mut reg = Registry::new();
        let d = DomainName::parse("lapsed.com").unwrap();
        reg.register(d.clone(), "ovh", SimTime::ZERO, SimDuration::from_days(30))
            .unwrap();
        let zone = Zone::hosting(d.clone(), Ipv4Sim::new(10, 2, 2, 2), 1, false);
        reg.delegate(&d, zone, SimTime::ZERO).unwrap();
        reg.abandon(&d).unwrap();
        let mut res = Resolver::new();
        let dropped = SimTime::from_days_helper(120);
        let late = res.query(&reg, &d, RecordType::A, dropped);
        assert_eq!(late.rcode, Rcode::NxDomain);
        assert!(!late.from_cache);
        let early = res.query(&reg, &d, RecordType::A, SimTime::from_days_helper(1));
        assert_eq!(early.rcode, Rcode::NoError);
        assert!(!early.from_cache, "an entry cached later must not answer");
        assert_eq!(
            res.resolve_addr(&reg, &d, SimTime::from_days_helper(1)),
            Some(Ipv4Sim::new(10, 2, 2, 2))
        );
        assert_eq!(
            res.cache_hits, 1,
            "the early answer is cached for its own window"
        );
        assert_eq!(res.authoritative_lookups, 2);
    }

    #[test]
    fn nodata_is_noerror_with_empty_answers() {
        let (reg, d) = setup();
        let mut res = Resolver::new();
        let resp = res.query(&reg, &d, RecordType::Txt, SimTime::from_mins(1));
        assert_eq!(resp.rcode, Rcode::NoError);
        assert!(resp.answers.is_empty());
    }

    #[test]
    fn flush_clears_cache() {
        let (reg, d) = setup();
        let mut res = Resolver::new();
        res.query(&reg, &d, RecordType::A, SimTime::from_mins(1));
        res.flush();
        let again = res.query(&reg, &d, RecordType::A, SimTime::from_mins(2));
        assert!(!again.from_cache);
    }

    #[test]
    fn expired_domain_goes_nxdomain() {
        let mut reg = Registry::new();
        let d = DomainName::parse("lapsed.com").unwrap();
        reg.register(d.clone(), "ovh", SimTime::ZERO, SimDuration::from_days(30))
            .unwrap();
        let zone = Zone::hosting(d.clone(), Ipv4Sim::new(10, 2, 2, 2), 1, false);
        reg.delegate(&d, zone, SimTime::ZERO).unwrap();
        reg.abandon(&d).unwrap();
        let mut res = Resolver::new();
        assert!(!res.is_nxdomain(&reg, &d, SimTime::from_days_helper(1)));
        assert!(res.is_nxdomain(&reg, &d, SimTime::from_days_helper(31)));
    }

    // Small helper since SimTime has no from_days constructor.
    trait Days {
        fn from_days_helper(d: u64) -> SimTime;
    }
    impl Days for SimTime {
        fn from_days_helper(d: u64) -> SimTime {
            SimTime::from_hours(d * 24)
        }
    }
}
