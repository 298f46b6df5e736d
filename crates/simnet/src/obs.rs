//! Unified observability: structured spans, a run-wide metrics
//! registry, and profiling hooks.
//!
//! The paper's analysis is log analysis (§4): per-engine request
//! counts, traffic timing, probe paths. PRs 1–3 added subsystems the
//! trace log cannot see — the scheduler, retry recovery, feed sync
//! rounds, fault injection — so this module gives the whole stack one
//! deterministic instrument:
//!
//! * **Spans** — typed `span_start`/`span_end` records whose ids are
//!   derived from stable labels (the same labels the RNG fork tree
//!   uses), never from wall-clock time or allocation addresses, so a
//!   replayed run emits byte-identical ids.
//! * **[`MetricsRegistry`]** — counters, log-bucketed histograms and
//!   gauge snapshots, all stored in label order (`BTreeMap`) with
//!   commutative merges, so per-worker registries folded together in
//!   input order are byte-identical at any `PHISHSIM_SWEEP_THREADS`.
//! * **Profiling hooks** — the sweep runner reports host-time
//!   attribution through [`SweepProfile`](crate::runner::SweepProfile)
//!   (kept *out* of deterministic records), while simulated-time phase
//!   attribution flows into the registry's histograms.
//!
//! The disabled path is [`ObsSink::Null`]: every call is a no-op that
//! allocates nothing and **never draws from any RNG stream**, mirroring
//! the `FaultInjector::none()` guarantee — attaching or removing a
//! sink cannot perturb a calibrated experiment.

use crate::metrics::update_entry;
use crate::time::SimTime;
use parking_lot::{Mutex, RwLock};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// FNV-1a over a byte slice, continuing from `h`.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Identifier of one span.
///
/// Ids are pure functions of stable labels — the same fork labels the
/// deterministic RNG tree uses — plus the emitting buffer's append
/// sequence. Wall-clock time, thread ids and addresses never enter the
/// derivation, so a replayed run reproduces every id exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct SpanId(u64);

impl SpanId {
    /// The sentinel id the [`ObsSink::Null`] path hands back: no
    /// hashing happens on the disabled path.
    pub const NONE: SpanId = SpanId(0);

    /// Derive a root span id from a stable label.
    pub fn from_label(label: &str) -> SpanId {
        let h = fnv1a(FNV_OFFSET, label.as_bytes());
        SpanId(h.max(1))
    }

    /// Derive a child id from this id and a stable label.
    pub fn child(self, label: &str) -> SpanId {
        let h = fnv1a(fnv1a(FNV_OFFSET, &self.0.to_le_bytes()), label.as_bytes());
        SpanId(h.max(1))
    }

    /// The raw 64-bit id.
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Rebuild an id from its raw value (runpack decoding: recorded
    /// streams store ids as plain integers on the wire).
    pub const fn from_raw(raw: u64) -> SpanId {
        SpanId(raw)
    }
}

/// What one observability record says.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ObsKind {
    /// A span opened.
    SpanStart {
        /// The span's id.
        id: SpanId,
        /// Enclosing span, if any.
        parent: Option<SpanId>,
        /// Span name (e.g. `"http.request"`, `"browser.fetch"`).
        name: String,
        /// Acting entity (engine key, `"human"`, `"feed"`, …).
        actor: String,
    },
    /// A span closed.
    SpanEnd {
        /// The id the matching start handed out.
        id: SpanId,
    },
    /// A one-shot event with no duration (retry attempt, give-up,
    /// degradation, …).
    Point {
        /// Event name.
        name: String,
        /// Acting entity.
        actor: String,
    },
}

/// One record in an observability buffer. `(at, seq)` is a total
/// order: `seq` is assigned at append under the buffer lock.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ObsRecord {
    /// Simulated time of the record.
    pub at: SimTime,
    /// Append sequence number within the buffer.
    pub seq: u64,
    /// The record itself.
    pub kind: ObsKind,
}

/// A power-of-two-bucketed histogram of `u64` observations
/// (conventionally milliseconds).
///
/// Bucket 0 holds zeros; bucket `i` (for `i >= 1`) holds values whose
/// `ilog2` is `i - 1`, i.e. `[2^(i-1), 2^i)`. Log buckets make merges
/// exact — elementwise addition — so the merged histogram is identical
/// regardless of which worker observed what.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LogHistogram {
    /// Number of observations.
    pub count: u64,
    /// Sum of all observations.
    pub sum: u64,
    /// Bucket counts; trailing buckets are only materialised when hit.
    pub buckets: Vec<u64>,
}

impl LogHistogram {
    /// Bucket index for a value.
    fn bucket_of(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            v.ilog2() as usize + 1
        }
    }

    /// Record one observation.
    pub fn record(&mut self, v: u64) {
        let idx = Self::bucket_of(v);
        if self.buckets.len() <= idx {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
    }

    /// Arithmetic mean of the observations, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Fold another histogram into this one (commutative, associative).
    pub fn merge(&mut self, other: &LogHistogram) {
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (i, n) in other.buckets.iter().enumerate() {
            self.buckets[i] += n;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }
}

/// A gauge snapshot: the last observed value and when it was observed.
///
/// The merge keeps the sample with the later simulated time; ties keep
/// the larger value. Both rules are commutative and associative, so
/// merging per-worker registries in input order is order-independent
/// within a label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GaugeSample {
    /// When the value was observed (simulated time).
    pub at: SimTime,
    /// The observed value.
    pub value: i64,
}

impl GaugeSample {
    /// Combine two samples under the latest-wins (tie: max) rule.
    pub fn merged(self, other: GaugeSample) -> GaugeSample {
        match self.at.cmp(&other.at) {
            std::cmp::Ordering::Less => other,
            std::cmp::Ordering::Greater => self,
            std::cmp::Ordering::Equal => {
                if other.value > self.value {
                    other
                } else {
                    self
                }
            }
        }
    }
}

/// The run-wide metrics registry: counters, log-bucketed histograms
/// and gauge snapshots, all keyed by label in sorted order.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, LogHistogram>,
    gauges: BTreeMap<String, GaugeSample>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increment a counter by one.
    pub fn incr(&mut self, label: &str) {
        self.add(label, 1);
    }

    /// Increment a counter by `n`.
    pub fn add(&mut self, label: &str, n: u64) {
        update_entry(&mut self.counters, label, |c| *c += n);
    }

    /// Current value of a counter (zero if never incremented).
    pub fn counter(&self, label: &str) -> u64 {
        self.counters.get(label).copied().unwrap_or(0)
    }

    /// Record one observation into a histogram.
    pub fn observe(&mut self, label: &str, v: u64) {
        update_entry(&mut self.histograms, label, |h| h.record(v));
    }

    /// A histogram by label, if it was ever observed.
    pub fn histogram(&self, label: &str) -> Option<&LogHistogram> {
        self.histograms.get(label)
    }

    /// Set a gauge to `value` as of `at` (latest sample wins).
    pub fn gauge(&mut self, label: &str, at: SimTime, value: i64) {
        let sample = GaugeSample { at, value };
        self.gauges
            .entry(label.to_string())
            .and_modify(|g| *g = g.merged(sample))
            .or_insert(sample);
    }

    /// A gauge's last sample, if any.
    pub fn gauge_sample(&self, label: &str) -> Option<GaugeSample> {
        self.gauges.get(label).copied()
    }

    /// Iterate counters in label order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Iterate histograms in label order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &LogHistogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Iterate gauges in label order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, GaugeSample)> {
        self.gauges.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// True when nothing was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty() && self.gauges.is_empty()
    }

    /// Fold another registry into this one. Counters and histogram
    /// buckets add; gauges keep the later sample. Every rule commutes,
    /// so per-worker registries merged in input order come out
    /// byte-identical at any thread count.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (label, n) in &other.counters {
            *self.counters.entry(label.clone()).or_insert(0) += n;
        }
        for (label, h) in &other.histograms {
            self.histograms.entry(label.clone()).or_default().merge(h);
        }
        for (label, g) in &other.gauges {
            self.gauges
                .entry(label.clone())
                .and_modify(|mine| *mine = mine.merged(*g))
                .or_insert(*g);
        }
    }

    /// The `n` histogram labels with the largest total (simulated-time
    /// attribution: labels are phases, sums are milliseconds), largest
    /// first; ties break by label so the ranking is deterministic.
    pub fn hottest(&self, n: usize) -> Vec<(&str, &LogHistogram)> {
        let mut all: Vec<(&str, &LogHistogram)> = self.histograms().collect();
        all.sort_by(|a, b| b.1.sum.cmp(&a.1.sum).then_with(|| a.0.cmp(b.0)));
        all.truncate(n);
        all
    }
}

/// A streaming consumer of finalized observability records.
///
/// A tap sees every record exactly once, in **append order** (not the
/// canonical `(at, seq)` order — simultaneous events may be appended
/// out of timestamp order). Taps are the hook the runpack recorder
/// uses to digest an event stream while the run is still executing;
/// any order-insensitive accumulation (a commutative digest, a count)
/// is safe, anything order-sensitive must re-sort at the end.
///
/// Implementations must be cheap and must never touch an RNG stream:
/// a tap rides on the already-enabled memory path, so it may allocate,
/// but it inherits the memory sink's guarantee that observation never
/// perturbs the simulation.
pub trait ObsTap: Send + Sync + std::fmt::Debug {
    /// Consume one finalized record.
    fn record(&self, rec: &ObsRecord);
}

/// The shared backing store of a [`ObsSink::Memory`] sink.
#[derive(Debug, Default)]
pub struct ObsBuffer {
    events: RwLock<Vec<ObsRecord>>,
    metrics: Mutex<MetricsRegistry>,
}

impl ObsBuffer {
    fn push(&self, at: SimTime, kind: ObsKind) -> u64 {
        let mut events = self.events.write();
        let seq = events.len() as u64;
        events.push(ObsRecord { at, seq, kind });
        seq
    }

    fn add(&self, label: &str, n: u64) {
        self.metrics.lock().add(label, n);
    }

    fn observe(&self, label: &str, v: u64) {
        self.metrics.lock().observe(label, v);
    }

    /// Snapshot of every record, in `(at, seq)` order.
    pub fn events(&self) -> Vec<ObsRecord> {
        let mut out = self.events.read().clone();
        out.sort_by(|a, b| a.at.cmp(&b.at).then_with(|| a.seq.cmp(&b.seq)));
        out
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.events.read().len()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.read().is_empty()
    }

    /// Snapshot of the metrics registry.
    pub fn metrics(&self) -> MetricsRegistry {
        self.metrics.lock().clone()
    }

    /// Fold a caller-accumulated registry into this buffer's (sweep
    /// workers accumulate locally and merge in input order).
    pub fn absorb(&self, other: &MetricsRegistry) {
        self.metrics.lock().merge(other);
    }

    /// Per-actor count of `SpanStart` records with span name `name`,
    /// in actor order. The obs-side view of Table 1's request column.
    pub fn span_counts_by_actor(&self, name: &str) -> BTreeMap<String, u64> {
        let mut out = BTreeMap::new();
        for rec in self.events.read().iter() {
            if let ObsKind::SpanStart { name: n, actor, .. } = &rec.kind {
                if n == name {
                    *out.entry(actor.clone()).or_insert(0) += 1;
                }
            }
        }
        out
    }
}

/// Where observability records go.
///
/// `Null` (the default everywhere) is the production-off switch: every
/// method returns immediately without allocating, locking, or touching
/// any RNG. `Memory` appends to a shared [`ObsBuffer`]. `Tee` appends
/// to a buffer *and* streams each finalized record into an [`ObsTap`]
/// (the runpack recorder's rolling digest rides here). Cloning a sink
/// is cheap; clones of a `Memory`/`Tee` sink share one buffer.
#[derive(Debug, Clone, Default)]
pub enum ObsSink {
    /// Observability disabled: all calls are no-ops.
    #[default]
    Null,
    /// Record into a shared in-memory buffer.
    Memory(Arc<ObsBuffer>),
    /// Record into a buffer and stream every record into a tap.
    Tee(Arc<ObsBuffer>, Arc<dyn ObsTap>),
}

impl ObsSink {
    /// A fresh memory sink with its own buffer.
    pub fn memory() -> Self {
        ObsSink::Memory(Arc::new(ObsBuffer::default()))
    }

    /// A fresh tee sink: a private buffer whose records are also
    /// streamed into `tap` as they are appended.
    pub fn tee(tap: Arc<dyn ObsTap>) -> Self {
        ObsSink::Tee(Arc::new(ObsBuffer::default()), tap)
    }

    /// Whether records are being kept. Call sites guard any label
    /// `format!` behind this so the `Null` path never allocates.
    pub fn enabled(&self) -> bool {
        !matches!(self, ObsSink::Null)
    }

    /// The backing buffer, when recording.
    #[inline]
    pub fn buffer(&self) -> Option<&Arc<ObsBuffer>> {
        match self {
            ObsSink::Null => None,
            ObsSink::Memory(b) => Some(b),
            ObsSink::Tee(b, _) => Some(b),
        }
    }

    /// The streaming tap, when teeing.
    fn tap(&self) -> Option<&Arc<dyn ObsTap>> {
        match self {
            ObsSink::Tee(_, tap) => Some(tap),
            _ => None,
        }
    }

    /// Open a span. The returned id is [`SpanId::NONE`] on the `Null`
    /// path; on the memory path it derives from the parent id, the
    /// name, and the buffer's append sequence — never wall-clock.
    pub fn span_start(
        &self,
        parent: Option<SpanId>,
        name: &str,
        actor: &str,
        at: SimTime,
    ) -> SpanId {
        let Some(buf) = self.buffer() else {
            return SpanId::NONE;
        };
        let base = parent.unwrap_or(SpanId::NONE).child(name);
        // Reserve the slot first so the id can mix in the
        // append sequence (making same-label siblings unique),
        // then write the id back.
        let seq = buf.push(
            at,
            ObsKind::SpanStart {
                id: SpanId::NONE,
                parent,
                name: name.to_string(),
                actor: actor.to_string(),
            },
        );
        let id = SpanId(fnv1a(base.0, &seq.to_le_bytes()).max(1));
        if let Some(ObsKind::SpanStart { id: slot, .. }) = buf
            .events
            .write()
            .get_mut(seq as usize)
            .map(|r| &mut r.kind)
        {
            *slot = id;
        }
        if let Some(tap) = self.tap() {
            // The tap sees the *finalized* record (id already fixed
            // up), reconstructed from the fields at hand rather than
            // re-read under the lock.
            tap.record(&ObsRecord {
                at,
                seq,
                kind: ObsKind::SpanStart {
                    id,
                    parent,
                    name: name.to_string(),
                    actor: actor.to_string(),
                },
            });
        }
        id
    }

    /// Close a span.
    pub fn span_end(&self, id: SpanId, at: SimTime) {
        if let Some(buf) = self.buffer() {
            let seq = buf.push(at, ObsKind::SpanEnd { id });
            if let Some(tap) = self.tap() {
                tap.record(&ObsRecord {
                    at,
                    seq,
                    kind: ObsKind::SpanEnd { id },
                });
            }
        }
    }

    /// Record a one-shot event.
    pub fn point(&self, name: &str, actor: &str, at: SimTime) {
        if let Some(buf) = self.buffer() {
            let kind = ObsKind::Point {
                name: name.to_string(),
                actor: actor.to_string(),
            };
            let seq = buf.push(at, kind.clone());
            if let Some(tap) = self.tap() {
                tap.record(&ObsRecord { at, seq, kind });
            }
        }
    }

    /// Increment a registry counter by one.
    pub fn incr(&self, label: &str) {
        self.add(label, 1);
    }

    /// Increment a registry counter by `n`.
    // `add` and `observe` are inline so that a `Null` sink costs the
    // caller one compare (a feed walk calls them on every exchange);
    // the locked recording path stays out of line.
    #[inline]
    pub fn add(&self, label: &str, n: u64) {
        if let Some(buf) = self.buffer() {
            buf.add(label, n);
        }
    }

    /// Record one histogram observation.
    #[inline]
    pub fn observe(&self, label: &str, v: u64) {
        if let Some(buf) = self.buffer() {
            buf.observe(label, v);
        }
    }

    /// Set a gauge as of `at`.
    pub fn gauge(&self, label: &str, at: SimTime, value: i64) {
        if let Some(buf) = self.buffer() {
            buf.metrics.lock().gauge(label, at, value);
        }
    }

    /// Snapshot of the registry (empty for `Null`).
    pub fn metrics(&self) -> MetricsRegistry {
        match self.buffer() {
            None => MetricsRegistry::new(),
            Some(buf) => buf.metrics(),
        }
    }

    /// Snapshot of all records (empty for `Null`).
    pub fn events(&self) -> Vec<ObsRecord> {
        match self.buffer() {
            None => Vec::new(),
            Some(buf) => buf.events(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_ids_are_label_derived_and_stable() {
        let a = SpanId::from_label("visit:gsb:1");
        let b = SpanId::from_label("visit:gsb:1");
        assert_eq!(a, b);
        assert_ne!(a, SpanId::from_label("visit:gsb:2"));
        assert_ne!(a.child("fetch"), a.child("render"));
        assert_eq!(a.child("fetch"), b.child("fetch"));
        assert_ne!(a, SpanId::NONE);
    }

    #[test]
    fn null_sink_is_inert() {
        let sink = ObsSink::Null;
        assert!(!sink.enabled());
        let id = sink.span_start(None, "x", "a", SimTime::ZERO);
        assert_eq!(id, SpanId::NONE);
        sink.span_end(id, SimTime::ZERO);
        sink.point("p", "a", SimTime::ZERO);
        sink.incr("c");
        sink.observe("h", 5);
        sink.gauge("g", SimTime::ZERO, 1);
        assert!(sink.metrics().is_empty());
        assert!(sink.events().is_empty());
    }

    #[test]
    fn memory_sink_records_spans_with_unique_ids() {
        let sink = ObsSink::memory();
        let root = sink.span_start(None, "visit", "gsb", SimTime::from_mins(1));
        let c1 = sink.span_start(Some(root), "fetch", "gsb", SimTime::from_mins(1));
        let c2 = sink.span_start(Some(root), "fetch", "gsb", SimTime::from_mins(2));
        assert_ne!(root, SpanId::NONE);
        assert_ne!(c1, c2, "same-label siblings get distinct ids");
        sink.span_end(c1, SimTime::from_mins(2));
        sink.span_end(c2, SimTime::from_mins(3));
        sink.span_end(root, SimTime::from_mins(3));
        let events = sink.events();
        assert_eq!(events.len(), 6);
        let starts: Vec<_> = events
            .iter()
            .filter_map(|r| match &r.kind {
                ObsKind::SpanStart { id, parent, .. } => Some((*id, *parent)),
                _ => None,
            })
            .collect();
        assert_eq!(starts[0], (root, None));
        assert_eq!(starts[1], (c1, Some(root)));
        assert_eq!(starts[2], (c2, Some(root)));
    }

    #[test]
    fn replayed_runs_emit_identical_records() {
        let run = || {
            let sink = ObsSink::memory();
            let root = sink.span_start(None, "visit", "gsb", SimTime::from_mins(1));
            for i in 0..5u64 {
                let c = sink.span_start(Some(root), "fetch", "gsb", SimTime::from_mins(i));
                sink.span_end(c, SimTime::from_mins(i + 1));
            }
            sink.span_end(root, SimTime::from_mins(9));
            serde_json::to_string(&sink.events()).unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn histogram_buckets_are_power_of_two() {
        let mut h = LogHistogram::default();
        for v in [0, 1, 1, 2, 3, 4, 7, 8, 1024] {
            h.record(v);
        }
        assert_eq!(h.count, 9);
        assert_eq!(h.buckets[0], 1, "zeros");
        assert_eq!(h.buckets[1], 2, "[1,2)");
        assert_eq!(h.buckets[2], 2, "[2,4)");
        assert_eq!(h.buckets[3], 2, "[4,8)");
        assert_eq!(h.buckets[4], 1, "[8,16)");
        assert_eq!(h.buckets[11], 1, "[1024,2048)");
        assert_eq!(h.sum, 1050);
    }

    #[test]
    fn registry_merge_is_commutative() {
        let build = |labels: &[(&str, u64)], obs: &[(&str, u64)]| {
            let mut r = MetricsRegistry::new();
            for (l, n) in labels {
                r.add(l, *n);
            }
            for (l, v) in obs {
                r.observe(l, *v);
            }
            r
        };
        let a = build(&[("x", 2), ("y", 1)], &[("t", 10), ("t", 100)]);
        let b = build(&[("y", 3), ("z", 5)], &[("t", 7), ("u", 1)]);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(
            serde_json::to_string(&ab).unwrap(),
            serde_json::to_string(&ba).unwrap()
        );
        assert_eq!(ab.counter("y"), 4);
        assert_eq!(ab.histogram("t").unwrap().count, 3);
    }

    #[test]
    fn gauge_merge_keeps_latest_then_max() {
        let early = GaugeSample {
            at: SimTime::from_mins(1),
            value: 100,
        };
        let late = GaugeSample {
            at: SimTime::from_mins(5),
            value: 3,
        };
        assert_eq!(early.merged(late), late);
        assert_eq!(late.merged(early), late);
        let tie = GaugeSample {
            at: SimTime::from_mins(5),
            value: 9,
        };
        assert_eq!(late.merged(tie).value, 9);
        assert_eq!(tie.merged(late).value, 9);
    }

    #[test]
    fn hottest_ranks_by_sum_then_label() {
        let mut r = MetricsRegistry::new();
        r.observe("phase.b", 100);
        r.observe("phase.a", 100);
        r.observe("phase.c", 900);
        let top = r.hottest(2);
        assert_eq!(top[0].0, "phase.c");
        assert_eq!(top[1].0, "phase.a", "ties break by label");
    }

    #[test]
    fn tee_sink_streams_every_record_with_final_ids() {
        #[derive(Debug, Default)]
        struct Collect(Mutex<Vec<ObsRecord>>);
        impl ObsTap for Collect {
            fn record(&self, rec: &ObsRecord) {
                self.0.lock().push(rec.clone());
            }
        }
        let tap = Arc::new(Collect::default());
        let sink = ObsSink::tee(tap.clone());
        assert!(sink.enabled());
        let root = sink.span_start(None, "visit", "gsb", SimTime::from_mins(1));
        sink.point("retry.attempt", "gsb", SimTime::from_mins(2));
        sink.span_end(root, SimTime::from_mins(3));
        sink.incr("c");
        let streamed = tap.0.lock().clone();
        let buffered = sink.events();
        assert_eq!(streamed, buffered, "tap sees exactly the buffer's records");
        match &streamed[0].kind {
            ObsKind::SpanStart { id, .. } => {
                assert_eq!(*id, root, "tap must see the fixed-up span id")
            }
            other => panic!("unexpected first record {other:?}"),
        }
        assert_eq!(sink.metrics().counter("c"), 1);
    }

    #[test]
    fn tee_and_memory_sinks_record_identically() {
        #[derive(Debug, Default)]
        struct Ignore;
        impl ObsTap for Ignore {
            fn record(&self, _rec: &ObsRecord) {}
        }
        let run = |sink: ObsSink| {
            let root = sink.span_start(None, "visit", "gsb", SimTime::from_mins(1));
            let child = sink.span_start(Some(root), "fetch", "gsb", SimTime::from_mins(1));
            sink.span_end(child, SimTime::from_mins(2));
            sink.span_end(root, SimTime::from_mins(2));
            sink.point("p", "gsb", SimTime::from_mins(3));
            serde_json::to_string(&sink.events()).unwrap()
        };
        assert_eq!(
            run(ObsSink::memory()),
            run(ObsSink::tee(Arc::new(Ignore))),
            "a tap must never change what the buffer records"
        );
    }

    #[test]
    fn span_counts_by_actor_groups_starts() {
        let sink = ObsSink::memory();
        for i in 0..3u64 {
            let s = sink.span_start(None, "http.request", "gsb", SimTime::from_mins(i));
            sink.span_end(s, SimTime::from_mins(i));
        }
        let s = sink.span_start(None, "http.request", "netcraft", SimTime::ZERO);
        sink.span_end(s, SimTime::ZERO);
        let s = sink.span_start(None, "other", "gsb", SimTime::ZERO);
        sink.span_end(s, SimTime::ZERO);
        let counts = sink.buffer().unwrap().span_counts_by_actor("http.request");
        assert_eq!(counts.get("gsb"), Some(&3));
        assert_eq!(counts.get("netcraft"), Some(&1));
        assert_eq!(counts.len(), 2);
    }
}
