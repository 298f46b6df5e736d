//! Recording: building a [`RunPack`] while an experiment executes.
//!
//! The recorder hands each run an [`ObsSink::Tee`] whose tap folds
//! every record into a **rolling XOR digest** as it streams past.
//! XOR of per-record digests is commutative, so the rolling value is
//! identical no matter how parallel sweep workers interleave their
//! appends — and at [`PackRecorder::finish`] it is cross-checked
//! against a batch digest computed from the collected streams. A
//! mismatch means records were streamed to the tap but never collected
//! into the pack (a lost buffer), which is an invariant violation, not
//! an input error — so it panics.

use crate::pack::{RunEvents, RunPack, StateSnapshot};
use crate::wire::{fnv1a, FNV_OFFSET};
use phishsim_simnet::{MetricsRegistry, ObsKind, ObsRecord, ObsSink, ObsTap, SimTime, SpanId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Content digest of one observability record: FNV-1a over a canonical
/// byte rendering of its fields. Ignores nothing — `at`, `seq`, ids,
/// names and actors all contribute.
pub fn record_digest(rec: &ObsRecord) -> u64 {
    let mut h = FNV_OFFSET;
    h = fnv1a(h, &rec.at.as_millis().to_le_bytes());
    h = fnv1a(h, &rec.seq.to_le_bytes());
    match &rec.kind {
        ObsKind::SpanStart {
            id,
            parent,
            name,
            actor,
        } => {
            h = fnv1a(h, &[0]);
            h = fnv1a(h, &id.raw().to_le_bytes());
            h = fnv1a(h, &parent.map(SpanId::raw).unwrap_or(0).to_le_bytes());
            h = fnv1a(h, name.as_bytes());
            h = fnv1a(h, &[0xff]);
            h = fnv1a(h, actor.as_bytes());
        }
        ObsKind::SpanEnd { id } => {
            h = fnv1a(h, &[1]);
            h = fnv1a(h, &id.raw().to_le_bytes());
        }
        ObsKind::Point { name, actor } => {
            h = fnv1a(h, &[2]);
            h = fnv1a(h, name.as_bytes());
            h = fnv1a(h, &[0xff]);
            h = fnv1a(h, actor.as_bytes());
        }
    }
    h
}

/// XOR-fold of [`record_digest`] over a batch: order-insensitive, so
/// it matches the rolling value regardless of append interleaving.
pub fn batch_digest(events: &[ObsRecord]) -> u64 {
    events.iter().fold(0u64, |acc, r| acc ^ record_digest(r))
}

/// The streaming tap: a commutative rolling digest plus a record
/// count. Safe to share across every run of a parallel sweep.
#[derive(Debug, Default)]
pub struct RollingDigest {
    xor: AtomicU64,
    count: AtomicU64,
}

impl RollingDigest {
    /// Current XOR-folded digest.
    pub fn value(&self) -> u64 {
        self.xor.load(Ordering::SeqCst)
    }

    /// Records folded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::SeqCst)
    }
}

impl ObsTap for RollingDigest {
    fn record(&self, rec: &ObsRecord) {
        self.xor.fetch_xor(record_digest(rec), Ordering::SeqCst);
        self.count.fetch_add(1, Ordering::SeqCst);
    }
}

/// Accumulates one experiment's identity into a [`RunPack`].
///
/// Usage: construct with the experiment name and its self-describing
/// config JSON, take one [`PackRecorder::run_sink`] per run (each gets
/// a private buffer but shares the rolling tap), execute, then
/// [`PackRecorder::push_run`] each finished sink in a deterministic
/// order. `finish()` seals the pack.
#[derive(Debug)]
pub struct PackRecorder {
    experiment: String,
    config_json: String,
    faults_json: String,
    runs: Vec<RunEvents>,
    metrics: MetricsRegistry,
    snapshots: Vec<StateSnapshot>,
    result_json: String,
    tap: Arc<RollingDigest>,
}

impl PackRecorder {
    /// Start recording.
    pub fn new(experiment: &str, config_json: &str) -> Self {
        PackRecorder {
            experiment: experiment.to_string(),
            config_json: config_json.to_string(),
            faults_json: "null".to_string(),
            runs: Vec::new(),
            metrics: MetricsRegistry::new(),
            snapshots: Vec::new(),
            result_json: "null".to_string(),
            tap: Arc::new(RollingDigest::default()),
        }
    }

    /// Record the fault schedule (serialized `FaultInjector`).
    pub fn set_faults_json(&mut self, json: &str) {
        self.faults_json = json.to_string();
    }

    /// Record the experiment's result summary.
    pub fn set_result_json(&mut self, json: &str) {
        self.result_json = json.to_string();
    }

    /// A sink for one run: a fresh private buffer teeing into the
    /// shared rolling digest. Every sink handed out must eventually be
    /// passed back through [`PackRecorder::push_run`], or `finish()`
    /// will detect the lost stream and panic.
    pub fn run_sink(&self) -> ObsSink {
        ObsSink::tee(self.tap.clone() as Arc<dyn ObsTap>)
    }

    /// Collect a finished run: its event stream (canonical order) and
    /// its metrics, merged in call order.
    pub fn push_run(&mut self, label: &str, sink: &ObsSink) {
        self.runs.push(RunEvents {
            label: label.to_string(),
            events: sink.events(),
        });
        self.metrics.merge(&sink.metrics());
    }

    /// Record one layer's state at one simulated instant.
    pub fn push_snapshot(&mut self, at: SimTime, layer: &str, state: &str) {
        self.snapshots.push(StateSnapshot {
            at,
            layer: layer.to_string(),
            state: state.to_string(),
        });
    }

    /// Absorb snapshots an experiment collected itself.
    pub fn extend_snapshots(&mut self, snaps: impl IntoIterator<Item = StateSnapshot>) {
        self.snapshots.extend(snaps);
    }

    /// Seal the pack. Cross-checks the rolling tap digest against a
    /// batch digest over the collected streams; a mismatch means a
    /// run's buffer was streamed but never pushed (or pushed twice),
    /// which is a recorder-usage bug — panic, don't mis-record.
    pub fn finish(mut self) -> RunPack {
        let collected: usize = self.runs.iter().map(|r| r.events.len()).sum();
        let batch = self
            .runs
            .iter()
            .fold(0u64, |acc, r| acc ^ batch_digest(&r.events));
        assert_eq!(
            (self.tap.count(), self.tap.value()),
            (collected as u64, batch),
            "runpack recorder lost or duplicated an event stream: \
             tap saw {} records, pack collected {collected}",
            self.tap.count(),
        );
        self.snapshots
            .sort_by(|a, b| a.at.cmp(&b.at).then_with(|| a.layer.cmp(&b.layer)));
        RunPack {
            experiment: self.experiment,
            config_json: self.config_json,
            faults_json: self.faults_json,
            runs: self.runs,
            metrics_json: serde_json::to_string(&self.metrics)
                .expect("metrics registry serializes"),
            snapshots: self.snapshots,
            result_json: self.result_json,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rolling_digest_matches_batch_regardless_of_order() {
        let sink = ObsSink::memory();
        let a = sink.span_start(None, "x", "e1", SimTime::from_mins(1));
        sink.point("p", "e2", SimTime::from_mins(1));
        sink.span_end(a, SimTime::from_mins(2));
        let mut events = sink.events();
        let forward = batch_digest(&events);
        events.reverse();
        assert_eq!(forward, batch_digest(&events));
        assert_ne!(forward, 0);
    }

    #[test]
    fn recorder_round_trip_with_two_runs() {
        let mut rec = PackRecorder::new("seed_sweep", r#"{"seeds":[1,2]}"#);
        let sinks: Vec<ObsSink> = (0..2).map(|_| rec.run_sink()).collect();
        for (i, sink) in sinks.iter().enumerate() {
            let s = sink.span_start(None, "engine.report", "gsb", SimTime::from_mins(i as u64));
            sink.span_end(s, SimTime::from_mins(i as u64 + 1));
            sink.incr("engine.reports");
        }
        for (i, sink) in sinks.iter().enumerate() {
            rec.push_run(&format!("seed:{}", i + 1), sink);
        }
        rec.push_snapshot(SimTime::from_mins(5), "core.world", "{}");
        rec.set_result_json(r#"{"detections":[1,1]}"#);
        let pack = rec.finish();
        assert_eq!(pack.runs.len(), 2);
        assert_eq!(pack.total_events(), 4);
        assert_eq!(pack.runs[0].label, "seed:1");
        assert!(pack.metrics_json.contains("engine.reports"));
        let decoded = RunPack::decode(&pack.encode()).unwrap();
        assert_eq!(decoded, pack.canonicalized());
    }

    #[test]
    #[should_panic(expected = "lost or duplicated an event stream")]
    fn lost_stream_is_detected() {
        let mut rec = PackRecorder::new("table2", "{}");
        let kept = rec.run_sink();
        let lost = rec.run_sink();
        let s = kept.span_start(None, "a", "x", SimTime::ZERO);
        kept.span_end(s, SimTime::ZERO);
        lost.point("b", "y", SimTime::ZERO);
        rec.push_run("kept", &kept);
        // `lost` streamed into the tap but is never pushed.
        let _ = rec.finish();
    }
}
