//! DNS records and zones.
//!
//! Step 1 of the paper's domain pipeline scans the Alexa top 1M "for
//! 'SOA' and 'NS' DNS records and only keep[s] the domains with the
//! NXDOMAIN answer". The simulation therefore needs real-enough zones:
//! SOA and NS for delegation, A records for hosting, TXT for
//! verification tokens, and DS to model DNSSEC deployment (the paper
//! deploys DNSSEC on all of its domains).

use crate::name::DomainName;
use phishsim_simnet::Ipv4Sim;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;

/// The hosting provider's primary name server.
pub(crate) const NS1: &str = "ns1.dns-host.net";
/// The hosting provider's secondary name server.
const NS2: &str = "ns2.dns-host.net";

/// The record types the simulation understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RecordType {
    /// Start of authority.
    Soa,
    /// Delegation to a name server.
    Ns,
    /// IPv4 address.
    A,
    /// Free-form text (verification tokens).
    Txt,
    /// Delegation signer — presence models DNSSEC.
    Ds,
}

/// The data carried by one record. Name-server host names are the
/// provider's constants, held without a copy.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum RecordData {
    /// SOA: primary NS and a serial number.
    Soa {
        /// Primary name-server host name.
        mname: Cow<'static, str>,
        /// Zone serial.
        serial: u32,
    },
    /// NS: name-server host name.
    Ns(Cow<'static, str>),
    /// A: an IPv4 address.
    A(Ipv4Sim),
    /// TXT: text payload.
    Txt(String),
    /// DS: key tag of the signing key.
    Ds(u16),
}

impl RecordData {
    /// The type corresponding to this data.
    pub fn rtype(&self) -> RecordType {
        match self {
            RecordData::Soa { .. } => RecordType::Soa,
            RecordData::Ns(_) => RecordType::Ns,
            RecordData::A(_) => RecordType::A,
            RecordData::Txt(_) => RecordType::Txt,
            RecordData::Ds(_) => RecordType::Ds,
        }
    }
}

/// One resource record.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Record {
    /// Owner name (the registrable domain in this simulation).
    pub name: DomainName,
    /// Time-to-live in seconds.
    pub ttl: u32,
    /// Record payload.
    pub data: RecordData,
}

/// An authoritative zone for one registrable domain.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Zone {
    /// The apex name.
    pub origin: DomainName,
    /// All records in the zone.
    pub records: Vec<Record>,
}

impl Zone {
    /// A conventional hosting zone: SOA + two NS + one A record, with the
    /// given serial. `dnssec` adds a DS record (the paper deploys DNSSEC
    /// for all its domains). The record list is the zone's one
    /// allocation: each record shares the origin's name.
    pub fn hosting(origin: DomainName, addr: Ipv4Sim, serial: u32, dnssec: bool) -> Self {
        let record = |ttl, data| Record {
            name: origin.clone(),
            ttl,
            data,
        };
        let mut records = Vec::with_capacity(5);
        records.extend([
            record(
                3600,
                RecordData::Soa {
                    mname: NS1.into(),
                    serial,
                },
            ),
            record(3600, RecordData::Ns(NS1.into())),
            record(3600, RecordData::Ns(NS2.into())),
            record(300, RecordData::A(addr)),
        ]);
        if dnssec {
            records.push(record(
                3600,
                RecordData::Ds((serial % u16::MAX as u32) as u16),
            ));
        }
        Zone { origin, records }
    }

    /// All records of a given type, in zone order.
    pub fn records_of(&self, rtype: RecordType) -> impl Iterator<Item = &Record> {
        self.records.iter().filter(move |r| r.data.rtype() == rtype)
    }

    /// The zone's A record address, if any.
    pub fn address(&self) -> Option<Ipv4Sim> {
        self.records.iter().find_map(|r| match r.data {
            RecordData::A(a) => Some(a),
            _ => None,
        })
    }

    /// Whether the zone carries a DS record (DNSSEC-enabled).
    pub fn has_dnssec(&self) -> bool {
        self.records_of(RecordType::Ds).next().is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn origin() -> DomainName {
        DomainName::parse("example.com").unwrap()
    }

    #[test]
    fn hosting_zone_shape() {
        let z = Zone::hosting(origin(), Ipv4Sim::new(10, 0, 0, 1), 1, false);
        assert_eq!(z.records_of(RecordType::Soa).count(), 1);
        assert_eq!(z.records_of(RecordType::Ns).count(), 2);
        assert_eq!(z.address(), Some(Ipv4Sim::new(10, 0, 0, 1)));
        assert!(!z.has_dnssec());
    }

    #[test]
    fn dnssec_zone_has_ds() {
        let z = Zone::hosting(origin(), Ipv4Sim::new(10, 0, 0, 1), 7, true);
        assert!(z.has_dnssec());
        assert_eq!(z.records_of(RecordType::Ds).count(), 1);
    }

    #[test]
    fn record_data_type_mapping() {
        assert_eq!(RecordData::Ns("x".into()).rtype(), RecordType::Ns);
        assert_eq!(
            RecordData::A(Ipv4Sim::new(1, 2, 3, 4)).rtype(),
            RecordType::A
        );
        assert_eq!(RecordData::Txt("t".into()).rtype(), RecordType::Txt);
        assert_eq!(RecordData::Ds(1).rtype(), RecordType::Ds);
        assert_eq!(
            RecordData::Soa {
                mname: "m".into(),
                serial: 1
            }
            .rtype(),
            RecordType::Soa
        );
    }
}
