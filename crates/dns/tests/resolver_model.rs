//! Reference-model test for the resolver cache and the registry's
//! lifecycle queries.
//!
//! `Resolver` keeps one fixed slot per record type under each name and
//! re-times a stale entry in place when authority confirms it;
//! `Registry` derives a name's lifecycle state from the one
//! registration it looks up. This property drives random `register`,
//! `delegate`, `abandon` and `seed_delegated` events and queries of
//! every record type at out-of-order simulated times into both, and
//! into a plain model kept here: registrations in a map, and a resolver
//! whose cache is nested maps that rebuilds every entry it misses. Every
//! `(rcode, answers, from_cache)`, every address and every registry
//! answer must match, and so must the hit and lookup counters.

use phishsim_dns::registry::{lifecycle, RegistryError};
use phishsim_dns::{
    DomainName, DomainState, Rcode, Record, RecordData, RecordType, Registry, Resolver,
    WhoisAnswer, Zone,
};
use phishsim_simnet::{Ipv4Sim, SimDuration, SimTime};
use proptest::prelude::*;
use std::collections::HashMap;

const NAMES: [&str; 4] = ["alpha.com", "beta.net", "gamma.xyz", "delta.org"];
const TYPES: [RecordType; 5] = [
    RecordType::Soa,
    RecordType::Ns,
    RecordType::A,
    RecordType::Txt,
    RecordType::Ds,
];
/// Days that straddle a 30-day term's lifecycle: registered, expired
/// (grace), redemption, pending delete, available again.
const DAYS: [u64; 8] = [0, 1, 29, 31, 80, 108, 111, 200];
const TERMS: [u64; 2] = [30, 365];

fn name(i: usize) -> DomainName {
    DomainName::parse(NAMES[i]).unwrap()
}

/// A time on one of [`DAYS`], `minute` minutes in: minutes are close
/// enough for answers to hit the cache (A records live 5 minutes,
/// NXDOMAIN 15, SOA/NS an hour) and queries come in any order.
fn at(day: usize, minute: u64) -> SimTime {
    SimTime::from_hours(DAYS[day] * 24) + SimDuration::from_mins(minute)
}

#[derive(Debug, Clone)]
enum Step {
    Register {
        name: usize,
        at: SimTime,
        term_days: u64,
    },
    Delegate {
        name: usize,
        at: SimTime,
        octet: u8,
        serial: u32,
        dnssec: bool,
    },
    Abandon {
        name: usize,
    },
    SeedDelegated {
        name: usize,
        registered: SimTime,
        expires: SimTime,
        abandoned: bool,
    },
    /// Queries of one name on one day, at minutes in any order — a
    /// probe burst. `None` is a `resolve_addr`.
    Burst {
        name: usize,
        day: usize,
        queries: Vec<(Option<RecordType>, u64)>,
    },
    Flush,
}

fn time() -> impl Strategy<Value = SimTime> {
    (0..DAYS.len(), 0u64..30).prop_map(|(d, m)| at(d, m))
}

fn step() -> BoxedStrategy<Step> {
    let n = NAMES.len();
    prop_oneof![
        (0..n, time(), 0..TERMS.len()).prop_map(|(name, at, t)| Step::Register {
            name,
            at,
            term_days: TERMS[t],
        }),
        (0..n, time(), 0u8..3, 1u32..3, any::<bool>()).prop_map(
            |(name, at, octet, serial, dnssec)| Step::Delegate {
                name,
                at,
                octet,
                serial,
                dnssec,
            }
        ),
        (0..n).prop_map(|name| Step::Abandon { name }),
        (0..n, 0..DAYS.len(), 0..DAYS.len(), any::<bool>()).prop_map(|(name, r, e, abandoned)| {
            Step::SeedDelegated {
                name,
                registered: at(r.min(e), 0),
                expires: at(r.max(e), 0),
                abandoned,
            }
        }),
        burst(),
        burst(),
        burst(),
        burst(),
        Just(Step::Flush),
    ]
    .boxed()
}

fn burst() -> impl Strategy<Value = Step> {
    let query = prop_oneof![
        (0..TYPES.len()).prop_map(|t| Some(TYPES[t])),
        Just(Some(RecordType::A)),
        Just(None),
    ];
    (
        0..NAMES.len(),
        0..DAYS.len(),
        proptest::collection::vec((query, 0u64..30), 1..10),
    )
        .prop_map(|(name, day, queries)| Step::Burst { name, day, queries })
}

/// One registration, as the model keeps it.
#[derive(Debug, Clone)]
struct ModelReg {
    registrar: &'static str,
    registered_at: SimTime,
    expires_at: SimTime,
    abandoned: bool,
    zone: Option<Zone>,
    synthetic: bool,
}

impl ModelReg {
    fn state(&self, now: SimTime) -> DomainState {
        if now < self.expires_at || !self.abandoned {
            return DomainState::Registered;
        }
        let since = now.since(self.expires_at);
        if since < lifecycle::GRACE {
            DomainState::ExpiredGrace
        } else if since < lifecycle::GRACE + lifecycle::REDEMPTION {
            DomainState::Redemption
        } else if since < lifecycle::GRACE + lifecycle::REDEMPTION + lifecycle::PENDING_DELETE {
            DomainState::PendingDelete
        } else {
            DomainState::Available
        }
    }
}

/// The model registry: registrations by name, every query a plain
/// lookup and match.
#[derive(Debug, Default)]
struct ModelRegistry {
    regs: HashMap<DomainName, ModelReg>,
}

impl ModelRegistry {
    fn state(&self, name: &DomainName, now: SimTime) -> DomainState {
        self.regs
            .get(name)
            .map_or(DomainState::Available, |r| r.state(now))
    }

    fn active(&self, name: &DomainName, now: SimTime) -> Option<&ModelReg> {
        self.regs
            .get(name)
            .filter(|r| r.state(now) == DomainState::Registered)
    }

    fn whois(&self, name: &DomainName, now: SimTime) -> WhoisAnswer {
        match self.regs.get(name) {
            Some(r) if r.state(now) != DomainState::Available => WhoisAnswer::Found {
                registrar: r.registrar.to_string(),
                registered_at: r.registered_at,
                expires_at: r.expires_at,
            },
            _ => WhoisAnswer::NotFound,
        }
    }

    /// What authority answers for `name`/`rtype` at `now`.
    fn authority(
        &self,
        name: &DomainName,
        rtype: RecordType,
        now: SimTime,
    ) -> (Rcode, Vec<Record>) {
        let Some(reg) = self.active(name, now) else {
            return (Rcode::NxDomain, Vec::new());
        };
        if let Some(zone) = &reg.zone {
            let answers = zone
                .records
                .iter()
                .filter(|r| r.data.rtype() == rtype)
                .cloned()
                .collect();
            return (Rcode::NoError, answers);
        }
        if !reg.synthetic {
            return (Rcode::NxDomain, Vec::new());
        }
        let data = match rtype {
            RecordType::Soa => Some(RecordData::Soa {
                mname: "ns1.dns-host.net".into(),
                serial: 1,
            }),
            RecordType::Ns => Some(RecordData::Ns("ns1.dns-host.net".into())),
            _ => None,
        };
        let answers = data
            .map(|data| Record {
                name: name.clone(),
                ttl: 3600,
                data,
            })
            .into_iter()
            .collect();
        (Rcode::NoError, answers)
    }
}

#[derive(Debug, Clone)]
struct ModelEntry {
    rcode: Rcode,
    answers: Vec<Record>,
    cached_at: SimTime,
    expires_at: SimTime,
}

/// The model resolver: nested maps, and a miss always rebuilds its
/// entry from authority.
#[derive(Debug, Default)]
struct ModelResolver {
    cache: HashMap<DomainName, HashMap<RecordType, ModelEntry>>,
    hits: u64,
    lookups: u64,
}

impl ModelResolver {
    fn query(
        &mut self,
        registry: &ModelRegistry,
        name: &DomainName,
        rtype: RecordType,
        now: SimTime,
    ) -> (Rcode, Vec<Record>, bool) {
        if let Some(e) = self.cache.get(name).and_then(|by_type| by_type.get(&rtype)) {
            if e.cached_at <= now && now < e.expires_at {
                self.hits += 1;
                return (e.rcode, e.answers.clone(), true);
            }
        }
        self.lookups += 1;
        let (rcode, answers) = registry.authority(name, rtype, now);
        let ttl = match rcode {
            Rcode::NxDomain => SimDuration::from_mins(15),
            Rcode::NoError => {
                SimDuration::from_secs(answers.iter().map(|r| r.ttl).min().unwrap_or(300) as u64)
            }
        };
        let entry = ModelEntry {
            rcode,
            answers: answers.clone(),
            cached_at: now,
            expires_at: now + ttl,
        };
        self.cache
            .entry(name.clone())
            .or_default()
            .insert(rtype, entry);
        (rcode, answers, false)
    }
}

/// Every registry query on `name` at `now`, real against model.
fn check_registry(registry: &Registry, model: &ModelRegistry, name: &DomainName, now: SimTime) {
    let active = model.active(name, now);
    assert_eq!(registry.state(name, now), model.state(name, now), "{name}");
    assert_eq!(
        registry.is_delegated(name, now),
        active.is_some_and(|r| r.zone.is_some() || r.synthetic),
        "{name}"
    );
    assert_eq!(
        registry.has_synthetic_delegation(name, now),
        active.is_some_and(|r| r.zone.is_none() && r.synthetic),
        "{name}"
    );
    assert_eq!(
        registry.zone(name, now),
        active.and_then(|r| r.zone.as_ref()),
        "{name}"
    );
    assert_eq!(registry.whois(name, now), model.whois(name, now), "{name}");
}

fn apply(
    step: &Step,
    registry: &mut Registry,
    resolver: &mut Resolver,
    model: &mut ModelRegistry,
    model_resolver: &mut ModelResolver,
) {
    match *step {
        Step::Register {
            name: i,
            at,
            term_days,
        } => {
            let d = name(i);
            let term = SimDuration::from_days(term_days);
            let expect = match model.state(&d, at) {
                DomainState::Available => {
                    model.regs.insert(
                        d.clone(),
                        ModelReg {
                            registrar: "ovh",
                            registered_at: at,
                            expires_at: at + term,
                            abandoned: false,
                            zone: None,
                            synthetic: false,
                        },
                    );
                    Ok(())
                }
                state => Err(RegistryError::NotAvailable(state)),
            };
            assert_eq!(registry.register(d, "ovh", at, term), expect);
        }
        Step::Delegate {
            name: i,
            at,
            octet,
            serial,
            dnssec,
        } => {
            let d = name(i);
            let zone = Zone::hosting(d.clone(), Ipv4Sim::new(10, 0, 0, octet), serial, dnssec);
            let expect = match model.regs.get_mut(&d) {
                Some(reg) if reg.state(at) == DomainState::Registered => {
                    reg.zone = Some(zone.clone());
                    Ok(())
                }
                _ => Err(RegistryError::NotRegistered),
            };
            assert_eq!(registry.delegate(&d, zone, at), expect);
        }
        Step::Abandon { name: i } => {
            let d = name(i);
            let expect = match model.regs.get_mut(&d) {
                Some(reg) => {
                    reg.abandoned = true;
                    Ok(())
                }
                None => Err(RegistryError::NotRegistered),
            };
            assert_eq!(registry.abandon(&d), expect);
        }
        Step::SeedDelegated {
            name: i,
            registered,
            expires,
            abandoned,
        } => {
            let d = name(i);
            model.regs.insert(
                d.clone(),
                ModelReg {
                    registrar: "seed",
                    registered_at: registered,
                    expires_at: expires,
                    abandoned,
                    zone: None,
                    synthetic: true,
                },
            );
            registry.seed_delegated(d, "seed", registered, expires, abandoned);
        }
        Step::Burst {
            name: i,
            day,
            ref queries,
        } => {
            let d = name(i);
            for &(rtype, minute) in queries {
                let at = at(day, minute);
                check_registry(registry, model, &d, at);
                let (rcode, answers, from_cache) =
                    model_resolver.query(model, &d, rtype.unwrap_or(RecordType::A), at);
                match rtype {
                    Some(rtype) => {
                        let got = resolver.query(registry, &d, rtype, at);
                        assert_eq!(
                            (got.rcode, got.answers, got.from_cache),
                            (rcode, answers, from_cache),
                            "{d} {rtype:?} at {at}"
                        );
                    }
                    None => {
                        let expect = answers.iter().find_map(|r| match r.data {
                            RecordData::A(a) => Some(a),
                            _ => None,
                        });
                        assert_eq!(
                            resolver.resolve_addr(registry, &d, at),
                            expect,
                            "{d} at {at}"
                        );
                    }
                }
            }
        }
        Step::Flush => {
            resolver.flush();
            model_resolver.cache.clear();
        }
    }
}

proptest! {
    /// The slotted, re-timing resolver and the single-lookup registry
    /// answer every step exactly as the nested-map model does.
    #[test]
    fn resolver_matches_the_nested_map_model(steps in proptest::collection::vec(step(), 0..40)) {
        let mut registry = Registry::new();
        let mut resolver = Resolver::new();
        let mut model = ModelRegistry::default();
        let mut model_resolver = ModelResolver::default();
        for step in &steps {
            apply(step, &mut registry, &mut resolver, &mut model, &mut model_resolver);
        }
        prop_assert_eq!(resolver.cache_hits, model_resolver.hits);
        prop_assert_eq!(resolver.authoritative_lookups, model_resolver.lookups);
        for i in 0..NAMES.len() {
            for day in 0..DAYS.len() {
                check_registry(&registry, &model, &name(i), at(day, 7));
            }
        }
    }
}
