//! The `.runpack` container: a versioned, section-framed, digest-tagged
//! serialization of one run's complete identity.
//!
//! # Layout
//!
//! ```text
//! magic  b"PHRP"
//! varint version (currently 2)
//! string experiment name
//! 8-byte little-endian FNV-1a-64 digest of the experiment name
//! 6 sections, in fixed id order, each framed as:
//!     varint section id
//!     varint payload length
//!     payload bytes
//!     8-byte little-endian FNV-1a-64 digest of the payload
//! ```
//!
//! Every section must be present, in order, exactly once; anything
//! else — unknown ids, reordered sections, bytes after the last
//! section, a payload that contradicts its digest, a version other
//! than the current one — is a typed decode error. The per-section digests are what `runpack verify` compares:
//! a reproduced run matches the recorded one iff every section digest
//! matches, and the first *differing* section names the layer to blame
//! before any event-level bisection starts.
//!
//! The events payload is canonicalised on encode: within each run,
//! records are sorted into the total `(at, seq)` order and timestamps
//! are delta-encoded, with span/point names and actors interned into a
//! first-appearance string table. Two recordings of the same run
//! therefore produce byte-identical sections even if their buffers
//! appended simultaneous events in different interleavings.

use crate::wire::{
    digest, fnv1a, get_bytes, get_count, get_str, get_varint, put_bytes, put_str, put_varint,
    PackError, FNV_OFFSET,
};
use phishsim_simnet::{ObsKind, ObsRecord, SimTime, SpanId};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// The four magic bytes every `.runpack` starts with.
pub const MAGIC: &[u8; 4] = b"PHRP";

/// The current format version. Version 1 packs carried an environment
/// section, always empty; decode refuses them with
/// [`PackError::BadVersion`].
pub const VERSION: u64 = 2;

/// The fixed section catalogue of format version 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum SectionId {
    /// The experiment configuration (self-describing JSON).
    Config = 1,
    /// The fault schedule (serialized `FaultInjector`).
    Faults = 2,
    /// The typed observability event streams, one per run.
    Events = 3,
    /// The merged metrics registry (deterministic JSON).
    Metrics = 4,
    /// State snapshots for time-travel seek.
    Snapshots = 5,
    /// The experiment's result summary (JSON).
    Result = 6,
}

impl SectionId {
    /// Every section, in wire order.
    pub const ALL: [SectionId; 6] = [
        SectionId::Config,
        SectionId::Faults,
        SectionId::Events,
        SectionId::Metrics,
        SectionId::Snapshots,
        SectionId::Result,
    ];

    /// Human-readable section name.
    pub fn name(self) -> &'static str {
        match self {
            SectionId::Config => "config",
            SectionId::Faults => "faults",
            SectionId::Events => "events",
            SectionId::Metrics => "metrics",
            SectionId::Snapshots => "snapshots",
            SectionId::Result => "result",
        }
    }

    fn from_u64(v: u64) -> Option<SectionId> {
        SectionId::ALL.into_iter().find(|s| *s as u64 == v)
    }
}

/// One layer's serialized state at one simulated instant, captured for
/// `runpack seek`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StateSnapshot {
    /// When the snapshot was taken (simulated time).
    pub at: SimTime,
    /// Which layer's state this is (e.g. `"antiphish.engine.gsb"`,
    /// `"core.world"`).
    pub layer: String,
    /// The state itself, as deterministic JSON.
    pub state: String,
}

/// One run's recorded event stream within a pack. Sweeps record many
/// runs (`"seed:17"` …); single experiments record one (`"main"`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunEvents {
    /// Stable run label, unique within the pack.
    pub label: String,
    /// The run's observability records.
    pub events: Vec<ObsRecord>,
}

/// A run's complete recorded identity: everything needed to re-execute
/// it and check the reproduction byte-for-byte.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct RunPack {
    /// Experiment name (`"table1"`, `"table2"`, `"obs_report"`, …).
    pub experiment: String,
    /// Self-describing configuration JSON (a
    /// `RecordedConfig` in the core crate's vocabulary).
    pub config_json: String,
    /// The fault schedule as JSON (`"null"` when the run had none).
    pub faults_json: String,
    /// Per-run event streams, in recording order.
    pub runs: Vec<RunEvents>,
    /// The merged metrics registry as deterministic JSON.
    pub metrics_json: String,
    /// State snapshots, sorted by `(at, layer)`.
    pub snapshots: Vec<StateSnapshot>,
    /// Result summary JSON.
    pub result_json: String,
}

/// One section's digest line in a pack's digest tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SectionDigest {
    /// Which section.
    pub section: SectionId,
    /// FNV-1a-64 over the section payload.
    pub digest: u64,
    /// Payload length in bytes.
    pub len: usize,
}

impl RunPack {
    /// Serialize to the versioned wire format.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4096);
        out.extend_from_slice(MAGIC);
        put_varint(&mut out, VERSION);
        put_str(&mut out, &self.experiment);
        out.extend_from_slice(&digest(self.experiment.as_bytes()).to_le_bytes());
        for section in SectionId::ALL {
            let payload = self.section_payload(section);
            put_varint(&mut out, section as u64);
            put_bytes(&mut out, &payload);
            out.extend_from_slice(&digest(&payload).to_le_bytes());
        }
        out
    }

    /// Parse a pack, validating framing, section order, and every
    /// section digest.
    pub fn decode(buf: &[u8]) -> Result<RunPack, PackError> {
        let magic = buf.get(..4).ok_or(PackError::Truncated)?;
        if magic != MAGIC {
            return Err(PackError::BadMagic);
        }
        let mut pos = 4;
        let version = get_varint(buf, &mut pos)?;
        if version != VERSION {
            return Err(PackError::BadVersion(version));
        }
        let experiment = get_str(buf, &mut pos)?;
        let header_want: [u8; 8] = buf
            .get(pos..pos + 8)
            .ok_or(PackError::Truncated)?
            .try_into()
            .expect("slice of length 8");
        pos += 8;
        if digest(experiment.as_bytes()) != u64::from_le_bytes(header_want) {
            return Err(PackError::DigestMismatch { section: "header" });
        }
        let mut pack = RunPack {
            experiment,
            ..RunPack::default()
        };
        for expect in SectionId::ALL {
            let raw_id = get_varint(buf, &mut pos)?;
            let section = SectionId::from_u64(raw_id).ok_or(PackError::BadSection(raw_id))?;
            if section != expect {
                return Err(PackError::BadSection(raw_id));
            }
            let payload = get_bytes(buf, &mut pos)?;
            let want = buf
                .get(pos..pos + 8)
                .ok_or(PackError::Truncated)?
                .try_into()
                .expect("slice of length 8");
            pos += 8;
            if digest(payload) != u64::from_le_bytes(want) {
                return Err(PackError::DigestMismatch {
                    section: section.name(),
                });
            }
            pack.read_section(section, payload)?;
        }
        if pos != buf.len() {
            return Err(PackError::TrailingBytes);
        }
        Ok(pack)
    }

    /// The encoded payload of one section (what its digest covers).
    pub fn section_payload(&self, section: SectionId) -> Vec<u8> {
        let mut buf = Vec::new();
        match section {
            SectionId::Config => put_str(&mut buf, &self.config_json),
            SectionId::Faults => put_str(&mut buf, &self.faults_json),
            SectionId::Events => self.encode_events(&mut buf),
            SectionId::Metrics => put_str(&mut buf, &self.metrics_json),
            SectionId::Snapshots => {
                put_varint(&mut buf, self.snapshots.len() as u64);
                for snap in &self.snapshots {
                    put_varint(&mut buf, snap.at.as_millis());
                    put_str(&mut buf, &snap.layer);
                    put_str(&mut buf, &snap.state);
                }
            }
            SectionId::Result => put_str(&mut buf, &self.result_json),
        }
        buf
    }

    /// The pack's digest tree: one line per section, wire order.
    pub fn section_digests(&self) -> Vec<SectionDigest> {
        SectionId::ALL
            .into_iter()
            .map(|section| {
                let payload = self.section_payload(section);
                SectionDigest {
                    section,
                    digest: digest(&payload),
                    len: payload.len(),
                }
            })
            .collect()
    }

    /// The root digest: FNV-1a chained over every `(id, digest)` pair
    /// in section order. Two packs are byte-identical iff their root
    /// digests match (collision odds aside).
    pub fn root_digest(&self) -> u64 {
        let mut h = FNV_OFFSET;
        for line in self.section_digests() {
            h = fnv1a(h, &(line.section as u64).to_le_bytes());
            h = fnv1a(h, &line.digest.to_le_bytes());
        }
        h
    }

    /// Total event records across every run.
    pub fn total_events(&self) -> usize {
        self.runs.iter().map(|r| r.events.len()).sum()
    }

    /// A run's stream by label.
    pub fn run(&self, label: &str) -> Option<&RunEvents> {
        self.runs.iter().find(|r| r.label == label)
    }

    fn encode_events(&self, buf: &mut Vec<u8>) {
        // Intern names and actors in first-appearance order. Streams
        // are walked in canonical (at, seq) order so the table — and
        // with it the whole payload — is independent of append
        // interleaving.
        let canonical: Vec<Vec<ObsRecord>> = self
            .runs
            .iter()
            .map(|run| {
                let mut events = run.events.clone();
                events.sort_by(|a, b| a.at.cmp(&b.at).then_with(|| a.seq.cmp(&b.seq)));
                events
            })
            .collect();
        fn idx_of<'a>(
            table: &mut Vec<&'a str>,
            index: &mut HashMap<&'a str, u64>,
            s: &'a str,
        ) -> u64 {
            if let Some(&i) = index.get(s) {
                return i;
            }
            let i = table.len() as u64;
            table.push(s);
            index.insert(s, i);
            i
        }
        let mut table: Vec<&str> = Vec::new();
        let mut index: HashMap<&str, u64> = HashMap::new();
        struct Wire {
            at: u64,
            seq: u64,
            tag: u8,
            a: u64,
            b: u64,
            c: u64,
            d: u64,
        }
        let mut runs_wire: Vec<(usize, Vec<Wire>)> = Vec::new();
        for (run_idx, events) in canonical.iter().enumerate() {
            let mut wires = Vec::with_capacity(events.len());
            for rec in events {
                let w = match &rec.kind {
                    ObsKind::SpanStart {
                        id,
                        parent,
                        name,
                        actor,
                    } => Wire {
                        at: rec.at.as_millis(),
                        seq: rec.seq,
                        tag: 0,
                        a: id.raw(),
                        b: parent.map(SpanId::raw).unwrap_or(0),
                        c: idx_of(&mut table, &mut index, name.as_str()),
                        d: idx_of(&mut table, &mut index, actor.as_str()),
                    },
                    ObsKind::SpanEnd { id } => Wire {
                        at: rec.at.as_millis(),
                        seq: rec.seq,
                        tag: 1,
                        a: id.raw(),
                        b: 0,
                        c: 0,
                        d: 0,
                    },
                    ObsKind::Point { name, actor } => Wire {
                        at: rec.at.as_millis(),
                        seq: rec.seq,
                        tag: 2,
                        a: idx_of(&mut table, &mut index, name.as_str()),
                        b: idx_of(&mut table, &mut index, actor.as_str()),
                        c: 0,
                        d: 0,
                    },
                };
                wires.push(w);
            }
            runs_wire.push((run_idx, wires));
        }
        put_varint(buf, table.len() as u64);
        for s in &table {
            put_str(buf, s);
        }
        put_varint(buf, self.runs.len() as u64);
        for (run_idx, wires) in &runs_wire {
            put_str(buf, &self.runs[*run_idx].label);
            put_varint(buf, wires.len() as u64);
            let mut prev_at = 0u64;
            for w in wires {
                put_varint(buf, w.at - prev_at);
                prev_at = w.at;
                put_varint(buf, w.seq);
                buf.push(w.tag);
                match w.tag {
                    0 => {
                        put_varint(buf, w.a);
                        put_varint(buf, w.b);
                        put_varint(buf, w.c);
                        put_varint(buf, w.d);
                    }
                    1 => put_varint(buf, w.a),
                    _ => {
                        put_varint(buf, w.a);
                        put_varint(buf, w.b);
                    }
                }
            }
        }
    }

    fn read_section(&mut self, section: SectionId, payload: &[u8]) -> Result<(), PackError> {
        let mut pos = 0;
        match section {
            SectionId::Config => self.config_json = get_str(payload, &mut pos)?,
            SectionId::Faults => self.faults_json = get_str(payload, &mut pos)?,
            SectionId::Events => self.read_events(payload, &mut pos)?,
            SectionId::Metrics => self.metrics_json = get_str(payload, &mut pos)?,
            SectionId::Snapshots => {
                let n = get_count(payload, &mut pos)?;
                let mut snaps = Vec::with_capacity(n);
                for _ in 0..n {
                    let at = SimTime::from_millis(get_varint(payload, &mut pos)?);
                    let layer = get_str(payload, &mut pos)?;
                    let state = get_str(payload, &mut pos)?;
                    snaps.push(StateSnapshot { at, layer, state });
                }
                self.snapshots = snaps;
            }
            SectionId::Result => self.result_json = get_str(payload, &mut pos)?,
        }
        if pos != payload.len() {
            return Err(PackError::TrailingBytes);
        }
        Ok(())
    }

    fn read_events(&mut self, payload: &[u8], pos: &mut usize) -> Result<(), PackError> {
        let nstrings = get_count(payload, pos)?;
        let mut table = Vec::with_capacity(nstrings);
        for _ in 0..nstrings {
            table.push(get_str(payload, pos)?);
        }
        let lookup = |i: u64| -> Result<String, PackError> {
            table
                .get(usize::try_from(i).map_err(|_| PackError::Overflow)?)
                .cloned()
                .ok_or(PackError::Malformed("string index out of range"))
        };
        let nruns = get_count(payload, pos)?;
        let mut runs = Vec::with_capacity(nruns);
        for _ in 0..nruns {
            let label = get_str(payload, pos)?;
            let nevents = get_count(payload, pos)?;
            let mut events = Vec::with_capacity(nevents);
            let mut prev_at = 0u64;
            for _ in 0..nevents {
                let delta = get_varint(payload, pos)?;
                let at = prev_at
                    .checked_add(delta)
                    .ok_or(PackError::Malformed("timestamp overflow"))?;
                prev_at = at;
                let seq = get_varint(payload, pos)?;
                let tag = *payload.get(*pos).ok_or(PackError::Truncated)?;
                *pos += 1;
                let kind = match tag {
                    0 => {
                        let id = SpanId::from_raw(get_varint(payload, pos)?);
                        let parent_raw = get_varint(payload, pos)?;
                        let parent = if parent_raw == 0 {
                            None
                        } else {
                            Some(SpanId::from_raw(parent_raw))
                        };
                        let name = lookup(get_varint(payload, pos)?)?;
                        let actor = lookup(get_varint(payload, pos)?)?;
                        ObsKind::SpanStart {
                            id,
                            parent,
                            name,
                            actor,
                        }
                    }
                    1 => ObsKind::SpanEnd {
                        id: SpanId::from_raw(get_varint(payload, pos)?),
                    },
                    2 => ObsKind::Point {
                        name: lookup(get_varint(payload, pos)?)?,
                        actor: lookup(get_varint(payload, pos)?)?,
                    },
                    _ => return Err(PackError::Malformed("unknown event tag")),
                };
                events.push(ObsRecord {
                    at: SimTime::from_millis(at),
                    seq,
                    kind,
                });
            }
            runs.push(RunEvents { label, events });
        }
        self.runs = runs;
        Ok(())
    }

    /// The pack with every run's events re-sorted into the canonical
    /// `(at, seq)` order — the form `encode` serializes. Useful when
    /// comparing an in-memory pack against its decoded round trip.
    pub fn canonicalized(&self) -> RunPack {
        let mut out = self.clone();
        for run in &mut out.runs {
            run.events
                .sort_by(|a, b| a.at.cmp(&b.at).then_with(|| a.seq.cmp(&b.seq)));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phishsim_simnet::ObsSink;

    fn sample_pack() -> RunPack {
        let sink = ObsSink::memory();
        let root = sink.span_start(None, "browser.visit", "gsb", SimTime::from_mins(1));
        let fetch = sink.span_start(Some(root), "browser.fetch", "gsb", SimTime::from_mins(2));
        sink.point("retry.attempt", "gsb", SimTime::from_mins(2));
        sink.span_end(fetch, SimTime::from_mins(3));
        sink.span_end(root, SimTime::from_mins(4));
        RunPack {
            experiment: "table2".into(),
            config_json: r#"{"seed":42}"#.into(),
            faults_json: "null".into(),
            runs: vec![RunEvents {
                label: "main".into(),
                events: sink.events(),
            }],
            metrics_json: r#"{"counters":{}}"#.into(),
            snapshots: vec![StateSnapshot {
                at: SimTime::from_mins(4),
                layer: "core.world".into(),
                state: r#"{"log_len":5}"#.into(),
            }],
            result_json: r#"{"detections":8}"#.into(),
        }
    }

    #[test]
    fn round_trip_is_lossless() {
        let pack = sample_pack();
        let bytes = pack.encode();
        let back = RunPack::decode(&bytes).unwrap();
        assert_eq!(back, pack.canonicalized());
        // Re-encoding the decoded pack is byte-identical.
        assert_eq!(back.encode(), bytes);
    }

    #[test]
    fn encode_is_append_order_independent() {
        let pack = sample_pack();
        let mut shuffled = pack.clone();
        shuffled.runs[0].events.reverse();
        assert_eq!(pack.encode(), shuffled.encode());
        assert_eq!(pack.root_digest(), shuffled.root_digest());
    }

    #[test]
    fn every_truncation_is_rejected() {
        let bytes = sample_pack().encode();
        for len in 0..bytes.len() {
            assert!(
                RunPack::decode(&bytes[..len]).is_err(),
                "prefix of {len} bytes must not decode"
            );
        }
    }

    #[test]
    fn corruption_is_localised_to_a_section() {
        let mut bytes = sample_pack().encode();
        // Flip a byte somewhere inside the config JSON payload.
        let target = bytes
            .windows(4)
            .position(|w| w == b"seed")
            .expect("config payload present");
        bytes[target] ^= 0x01;
        match RunPack::decode(&bytes) {
            Err(PackError::DigestMismatch { section }) => assert_eq!(section, "config"),
            other => panic!("expected config digest mismatch, got {other:?}"),
        }
    }

    #[test]
    fn bad_magic_version_and_trailing_bytes() {
        let good = sample_pack().encode();
        let mut bad = good.clone();
        bad[0] = b'X';
        assert_eq!(RunPack::decode(&bad), Err(PackError::BadMagic));
        let mut vbad = good.clone();
        vbad[4] = 0x63; // version 99
        assert_eq!(RunPack::decode(&vbad), Err(PackError::BadVersion(99)));
        let mut trailing = good.clone();
        trailing.push(0);
        assert_eq!(RunPack::decode(&trailing), Err(PackError::TrailingBytes));
    }

    #[test]
    fn version_one_packs_are_refused() {
        let mut v1 = sample_pack().encode();
        assert_eq!(v1[4], VERSION as u8);
        v1[4] = 0x01;
        assert_eq!(RunPack::decode(&v1), Err(PackError::BadVersion(1)));
    }

    #[test]
    fn section_digests_cover_all_sections_and_feed_root() {
        let pack = sample_pack();
        let digests = pack.section_digests();
        assert_eq!(digests.len(), 6);
        assert_eq!(digests[0].section, SectionId::Config);
        assert_eq!(digests[5].section, SectionId::Result);
        // Root digest changes when any section changes.
        let mut other = pack.clone();
        other.result_json = r#"{"detections":9}"#.into();
        assert_ne!(pack.root_digest(), other.root_digest());
        let d2 = other.section_digests();
        assert_eq!(digests[0].digest, d2[0].digest, "config unchanged");
        assert_ne!(digests[5].digest, d2[5].digest, "result changed");
    }

    #[test]
    fn run_lookup_and_totals() {
        let pack = sample_pack();
        assert_eq!(pack.total_events(), 5);
        assert!(pack.run("main").is_some());
        assert!(pack.run("seed:17").is_none());
    }
}
