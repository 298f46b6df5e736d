//! Domain registry: the authoritative registration state machine.
//!
//! The paper's "drop-catch" method depends on the post-expiration
//! lifecycle of domains (it cites Miramirkhani et al. and Lauinger et
//! al. on drop-catching): a registered domain whose owner stops renewing
//! passes through a grace period and a redemption period, then briefly
//! `PendingDelete`, and finally becomes available for anyone to
//! re-register — while its *web history* (archive snapshots, search-index
//! entries) survives, which is what makes it look "reputed". The
//! [`Registry`] models that lifecycle plus WHOIS.

use crate::name::DomainName;
use crate::records::Zone;
use phishsim_simnet::{BuildSymHasher, SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Lifecycle state of a domain at the registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DomainState {
    /// Never registered, or fully released: can be registered now.
    Available,
    /// Actively registered and delegated.
    Registered,
    /// Expired but still in the renewal grace period (owner may renew).
    ExpiredGrace,
    /// In the redemption period (owner may restore, at a fee).
    Redemption,
    /// Scheduled for deletion; nobody can register it yet.
    PendingDelete,
}

/// Standard ICANN-ish lifecycle durations used by the simulation.
pub mod lifecycle {
    use phishsim_simnet::SimDuration;
    /// Renewal grace period after expiry.
    pub const GRACE: SimDuration = SimDuration::from_days(45);
    /// Redemption period after the grace period.
    pub const REDEMPTION: SimDuration = SimDuration::from_days(30);
    /// Pending-delete window before release.
    pub const PENDING_DELETE: SimDuration = SimDuration::from_days(5);
}

/// A WHOIS answer, as the paper's pipeline consumes it (step 3 keeps
/// domains whose WHOIS says `NOT FOUND`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum WhoisAnswer {
    /// `NOT FOUND` — no current registration.
    NotFound,
    /// A current registration record.
    Found {
        /// Sponsoring registrar name.
        registrar: String,
        /// Registration timestamp.
        registered_at: SimTime,
        /// Expiry timestamp.
        expires_at: SimTime,
    },
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Registration {
    registrar: String,
    registered_at: SimTime,
    expires_at: SimTime,
    /// Set when the owner stops renewing; drives the drop lifecycle.
    abandoned: bool,
    zone: Option<Zone>,
    /// Synthetic delegation marker: the domain resolves (SOA/NS answers
    /// are synthesised on demand) but no concrete zone is stored. Used to
    /// seed the million-entry healthy population without allocating a
    /// million zones.
    synthetic_delegation: bool,
}

impl Registration {
    /// The lifecycle state of this registration at `now`.
    fn state(&self, now: SimTime) -> DomainState {
        if now < self.expires_at || !self.abandoned {
            // Auto-renewed registrations never lapse in the sim.
            return DomainState::Registered;
        }
        let since_expiry = now.since(self.expires_at);
        if since_expiry < lifecycle::GRACE {
            DomainState::ExpiredGrace
        } else if since_expiry < lifecycle::GRACE + lifecycle::REDEMPTION {
            DomainState::Redemption
        } else if since_expiry
            < lifecycle::GRACE + lifecycle::REDEMPTION + lifecycle::PENDING_DELETE
        {
            DomainState::PendingDelete
        } else {
            DomainState::Available
        }
    }
}

/// The shared registry for all TLDs in the simulation.
///
/// State queries take the current [`SimTime`] so the lifecycle is a pure
/// function of the stored registration and the clock — no background
/// tasks to run. Each query looks its name up once.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    domains: HashMap<DomainName, Registration, BuildSymHasher>,
}

/// Errors from registry operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// The domain is not currently available for registration.
    NotAvailable(DomainState),
    /// The domain has no active registration.
    NotRegistered,
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::NotAvailable(s) => write!(f, "domain not available (state {s:?})"),
            RegistryError::NotRegistered => write!(f, "domain not registered"),
        }
    }
}

impl std::error::Error for RegistryError {}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The lifecycle state of `name` at time `now`.
    pub fn state(&self, name: &DomainName, now: SimTime) -> DomainState {
        self.domains
            .get(name)
            .map_or(DomainState::Available, |reg| reg.state(now))
    }

    /// Register `name` to `registrar` for `term`, replacing any released
    /// prior registration. Fails unless the domain is [`DomainState::Available`].
    pub fn register(
        &mut self,
        name: DomainName,
        registrar: &str,
        now: SimTime,
        term: SimDuration,
    ) -> Result<(), RegistryError> {
        let state = self.state(&name, now);
        if state != DomainState::Available {
            return Err(RegistryError::NotAvailable(state));
        }
        self.domains.insert(
            name,
            Registration {
                registrar: registrar.to_string(),
                registered_at: now,
                expires_at: now + term,
                abandoned: false,
                zone: None,
                synthetic_delegation: false,
            },
        );
        Ok(())
    }

    /// Mark a registration as abandoned (owner will not renew), starting
    /// the drop lifecycle at its expiry. Used to seed drop-catchable
    /// domains in the synthetic population.
    pub fn abandon(&mut self, name: &DomainName) -> Result<(), RegistryError> {
        let reg = self
            .domains
            .get_mut(name)
            .ok_or(RegistryError::NotRegistered)?;
        reg.abandoned = true;
        Ok(())
    }

    /// Backdate helper for population seeding: register `name` as having
    /// been registered at `registered_at` and expiring at `expires_at`,
    /// optionally abandoned.
    pub fn seed(
        &mut self,
        name: DomainName,
        registrar: &str,
        registered_at: SimTime,
        expires_at: SimTime,
        abandoned: bool,
    ) {
        self.domains.insert(
            name,
            Registration {
                registrar: registrar.to_string(),
                registered_at,
                expires_at,
                abandoned,
                zone: None,
                synthetic_delegation: false,
            },
        );
    }

    /// Population-scale seeding helper: like [`Registry::seed`] but marks
    /// the domain as synthetically delegated, so the resolver answers
    /// SOA/NS/A queries for it without a stored zone. Keeps seeding a
    /// million healthy Alexa domains cheap.
    pub fn seed_delegated(
        &mut self,
        name: DomainName,
        registrar: &str,
        registered_at: SimTime,
        expires_at: SimTime,
        abandoned: bool,
    ) {
        self.domains.insert(
            name,
            Registration {
                registrar: registrar.to_string(),
                registered_at,
                expires_at,
                abandoned,
                zone: None,
                synthetic_delegation: true,
            },
        );
    }

    /// True if the domain currently resolves: it is registered and either
    /// holds a concrete zone or carries the synthetic-delegation marker.
    pub fn is_delegated(&self, name: &DomainName, now: SimTime) -> bool {
        self.active(name, now)
            .is_some_and(|reg| reg.zone.is_some() || reg.synthetic_delegation)
    }

    /// True if the domain is registered with the synthetic-delegation
    /// marker but no concrete zone.
    pub fn has_synthetic_delegation(&self, name: &DomainName, now: SimTime) -> bool {
        self.active(name, now)
            .is_some_and(|reg| reg.zone.is_none() && reg.synthetic_delegation)
    }

    /// The registration of `name`, if it is actively registered at `now`.
    fn active(&self, name: &DomainName, now: SimTime) -> Option<&Registration> {
        self.domains
            .get(name)
            .filter(|reg| reg.state(now) == DomainState::Registered)
    }

    /// Attach (delegate) a zone to an actively registered domain.
    pub fn delegate(
        &mut self,
        name: &DomainName,
        zone: Zone,
        now: SimTime,
    ) -> Result<(), RegistryError> {
        match self.domains.get_mut(name) {
            Some(reg) if reg.state(now) == DomainState::Registered => {
                reg.zone = Some(zone);
                Ok(())
            }
            _ => Err(RegistryError::NotRegistered),
        }
    }

    /// The delegated zone of a domain, if it is currently registered and
    /// has one. Domains past expiry stop resolving (their delegation is
    /// pulled), which is why step 1 of the paper's pipeline sees NXDOMAIN.
    pub fn zone(&self, name: &DomainName, now: SimTime) -> Option<&Zone> {
        self.active(name, now)?.zone.as_ref()
    }

    /// WHOIS lookup at time `now`.
    ///
    /// Mirrors real-world behaviour the pipeline relies on: WHOIS answers
    /// `NOT FOUND` once the domain has fully dropped, but still shows the
    /// stale record during grace/redemption/pending-delete (which is why
    /// the paper double-checks WHOIS *after* the registrar availability
    /// API).
    pub fn whois(&self, name: &DomainName, now: SimTime) -> WhoisAnswer {
        match self.domains.get(name) {
            Some(reg) if reg.state(now) != DomainState::Available => WhoisAnswer::Found {
                registrar: reg.registrar.clone(),
                registered_at: reg.registered_at,
                expires_at: reg.expires_at,
            },
            _ => WhoisAnswer::NotFound,
        }
    }

    /// Number of domains the registry has ever seen.
    pub fn len(&self) -> usize {
        self.domains.len()
    }

    /// True if the registry holds no domains.
    pub fn is_empty(&self) -> bool {
        self.domains.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phishsim_simnet::Ipv4Sim;

    fn dom(s: &str) -> DomainName {
        DomainName::parse(s).unwrap()
    }

    #[test]
    fn fresh_domain_available_then_registered() {
        let mut r = Registry::new();
        let d = dom("fresh.com");
        let now = SimTime::from_hours(1);
        assert_eq!(r.state(&d, now), DomainState::Available);
        r.register(d.clone(), "ovh", now, SimDuration::from_days(365))
            .unwrap();
        assert_eq!(r.state(&d, now), DomainState::Registered);
        assert_eq!(
            r.state(&d, now + SimDuration::from_days(200)),
            DomainState::Registered
        );
    }

    #[test]
    fn double_registration_fails() {
        let mut r = Registry::new();
        let d = dom("taken.com");
        let now = SimTime::ZERO;
        r.register(d.clone(), "ovh", now, SimDuration::from_days(365))
            .unwrap();
        let err = r
            .register(d, "godaddy", now, SimDuration::from_days(365))
            .unwrap_err();
        assert_eq!(err, RegistryError::NotAvailable(DomainState::Registered));
    }

    #[test]
    fn drop_lifecycle_progression() {
        let mut r = Registry::new();
        let d = dom("dropping.com");
        r.seed(
            d.clone(),
            "oldcorp",
            SimTime::ZERO,
            SimTime::from_hours(24), // expires after one day
            true,
        );
        let exp = SimTime::from_hours(24);
        assert_eq!(r.state(&d, SimTime::from_hours(1)), DomainState::Registered);
        assert_eq!(r.state(&d, exp), DomainState::ExpiredGrace);
        assert_eq!(
            r.state(&d, exp + SimDuration::from_days(44)),
            DomainState::ExpiredGrace
        );
        assert_eq!(
            r.state(&d, exp + SimDuration::from_days(46)),
            DomainState::Redemption
        );
        assert_eq!(
            r.state(&d, exp + SimDuration::from_days(76)),
            DomainState::PendingDelete
        );
        assert_eq!(
            r.state(&d, exp + SimDuration::from_days(81)),
            DomainState::Available
        );
    }

    #[test]
    fn non_abandoned_domains_auto_renew() {
        let mut r = Registry::new();
        let d = dom("renewed.com");
        r.seed(
            d.clone(),
            "corp",
            SimTime::ZERO,
            SimTime::from_hours(24),
            false,
        );
        assert_eq!(
            r.state(&d, SimTime::from_hours(24) + SimDuration::from_days(400)),
            DomainState::Registered
        );
    }

    #[test]
    fn dropped_domain_can_be_reregistered() {
        let mut r = Registry::new();
        let d = dom("catchme.com");
        r.seed(
            d.clone(),
            "oldcorp",
            SimTime::ZERO,
            SimTime::from_hours(24),
            true,
        );
        let after_drop = SimTime::from_hours(24) + SimDuration::from_days(81);
        assert_eq!(r.state(&d, after_drop), DomainState::Available);
        r.register(d.clone(), "ovh", after_drop, SimDuration::from_days(365))
            .unwrap();
        assert_eq!(r.state(&d, after_drop), DomainState::Registered);
    }

    #[test]
    fn whois_lifecycle() {
        let mut r = Registry::new();
        let d = dom("whoised.com");
        assert_eq!(r.whois(&d, SimTime::ZERO), WhoisAnswer::NotFound);
        r.seed(
            d.clone(),
            "oldcorp",
            SimTime::ZERO,
            SimTime::from_hours(24),
            true,
        );
        // During redemption WHOIS still shows the stale record.
        let in_redemption = SimTime::from_hours(24) + SimDuration::from_days(50);
        assert!(matches!(
            r.whois(&d, in_redemption),
            WhoisAnswer::Found { .. }
        ));
        // After the drop, NOT FOUND.
        let after_drop = SimTime::from_hours(24) + SimDuration::from_days(81);
        assert_eq!(r.whois(&d, after_drop), WhoisAnswer::NotFound);
    }

    #[test]
    fn delegation_only_while_registered() {
        let mut r = Registry::new();
        let d = dom("zoned.com");
        let now = SimTime::ZERO;
        let zone = Zone::hosting(d.clone(), Ipv4Sim::new(10, 0, 0, 9), 1, true);
        assert!(r.delegate(&d, zone.clone(), now).is_err());
        r.register(d.clone(), "ovh", now, SimDuration::from_days(30))
            .unwrap();
        r.delegate(&d, zone, now).unwrap();
        assert!(r.zone(&d, now).is_some());
        // After abandonment + expiry, the zone stops resolving.
        r.abandon(&d).unwrap();
        let later = now + SimDuration::from_days(31);
        assert!(r.zone(&d, later).is_none());
    }
}
