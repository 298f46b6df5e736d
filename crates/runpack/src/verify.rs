//! Verification: does a reproduced run match the recorded one
//! byte-for-byte, and if not, where does it first diverge?
//!
//! Verification is section-by-section digest comparison — cheap, and
//! the failing section already names a layer of blame (config drift vs
//! event drift vs metrics drift). When the *events* section differs,
//! the report additionally walks the streams in canonical `(at, seq)`
//! order and pins the first divergent record: its simulated time,
//! sequence number, span/point name, and the emitting layer. A metrics
//! section that does not parse as a registry fails verification even
//! when both packs carry the same bytes.

use crate::layer_of;
use crate::pack::{RunPack, SectionDigest, SectionId};
use phishsim_simnet::{MetricsRegistry, ObsKind, ObsRecord, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// One section's digest comparison.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SectionCheck {
    /// Which section.
    pub section: SectionId,
    /// Digest in the recorded pack.
    pub recorded: u64,
    /// Digest in the reproduced pack.
    pub reproduced: u64,
    /// Whether they match.
    pub matches: bool,
}

/// The first divergent event between two recorded streams.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Divergence {
    /// Which run's stream diverged (the pack's run label).
    pub run: String,
    /// Index of the first differing record in canonical order.
    pub index: usize,
    /// Simulated time of the divergence (the recorded side's record,
    /// or the reproduced side's when the recorded stream ended first).
    pub at: SimTime,
    /// Sequence number at the divergence.
    pub seq: u64,
    /// Span or point name at the divergence.
    pub name: String,
    /// Acting entity at the divergence.
    pub actor: String,
    /// The layer the divergent record's name attributes to.
    pub layer: &'static str,
    /// Human-readable description of how the records differ.
    pub detail: String,
}

/// The first divergent entry between two packs' metrics registries —
/// the Metrics-section counterpart of [`Divergence`]. Counters are
/// compared first, then histograms, then gauges, each in label order,
/// so "first" is deterministic.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MetricsDivergence {
    /// What kind of metric diverged (`counter`, `histogram`, `gauge`).
    pub kind: String,
    /// The divergent metric's label.
    pub label: String,
    /// The layer the label attributes to.
    pub layer: &'static str,
    /// Rendered value in the recorded pack (`absent` when the label
    /// only exists on the other side).
    pub recorded: String,
    /// Rendered value in the reproduced pack.
    pub reproduced: String,
}

/// The outcome of `runpack verify`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VerifyReport {
    /// Every section's digest line, in wire order.
    pub sections: Vec<SectionCheck>,
    /// The first divergent event, when the events section differs.
    pub divergence: Option<Divergence>,
    /// The first divergent registry entry, when the metrics section
    /// differs.
    pub metrics: Option<MetricsDivergence>,
    /// Why a metrics section is not a registry, when one is not.
    pub metrics_error: Option<String>,
    /// True iff every section digest matches and both metrics sections
    /// are registries.
    pub ok: bool,
}

fn describe(rec: &ObsRecord) -> (String, String, String) {
    match &rec.kind {
        ObsKind::SpanStart {
            id,
            parent,
            name,
            actor,
        } => (
            name.clone(),
            actor.clone(),
            format!(
                "SpanStart id={:#x} parent={:#x}",
                id.raw(),
                parent.map(|p| p.raw()).unwrap_or(0)
            ),
        ),
        ObsKind::SpanEnd { id } => (
            String::new(),
            String::new(),
            format!("SpanEnd id={:#x}", id.raw()),
        ),
        ObsKind::Point { name, actor } => (name.clone(), actor.clone(), "Point".to_string()),
    }
}

fn divergence_at(run: &str, index: usize, rec: &ObsRecord, detail: String) -> Divergence {
    let (name, actor, _) = describe(rec);
    Divergence {
        run: run.to_string(),
        index,
        at: rec.at,
        seq: rec.seq,
        layer: layer_of(&name),
        name,
        actor,
        detail,
    }
}

/// The first record at which two canonical streams differ, if any.
pub fn first_divergence(
    run: &str,
    recorded: &[ObsRecord],
    reproduced: &[ObsRecord],
) -> Option<Divergence> {
    let n = recorded.len().min(reproduced.len());
    for i in 0..n {
        if recorded[i] != reproduced[i] {
            let (_, _, rec_desc) = describe(&recorded[i]);
            let (_, _, rep_desc) = describe(&reproduced[i]);
            let detail = format!(
                "recorded {} at={}ms seq={} vs reproduced {} at={}ms seq={}",
                rec_desc,
                recorded[i].at.as_millis(),
                recorded[i].seq,
                rep_desc,
                reproduced[i].at.as_millis(),
                reproduced[i].seq,
            );
            return Some(divergence_at(run, i, &recorded[i], detail));
        }
    }
    match recorded.len().cmp(&reproduced.len()) {
        std::cmp::Ordering::Equal => None,
        std::cmp::Ordering::Greater => Some(divergence_at(
            run,
            n,
            &recorded[n],
            format!("reproduced stream ended after {n} records; recorded continues",),
        )),
        std::cmp::Ordering::Less => Some(divergence_at(
            run,
            n,
            &reproduced[n],
            format!("recorded stream ended after {n} records; reproduced continues"),
        )),
    }
}

/// Parse one side's metrics section.
fn parse_metrics(side: &str, json: &str) -> Result<MetricsRegistry, String> {
    serde_json::from_str(json).map_err(|e| format!("{side} metrics section is not a registry: {e}"))
}

/// The first entry at which two packs' metrics registries disagree, if
/// any: counters, then histograms, then gauges, each walked over the
/// union of labels in sorted order. A label missing on one side is a
/// divergence (`absent`), so a lost or spurious metric is pinned just
/// like a changed count. Errs when either metrics section does not
/// parse as a registry.
pub fn metrics_divergence(
    recorded: &RunPack,
    reproduced: &RunPack,
) -> Result<Option<MetricsDivergence>, String> {
    let rec = parse_metrics("recorded", &recorded.metrics_json)?;
    let rep = parse_metrics("reproduced", &reproduced.metrics_json)?;

    fn first_diff<'a, V: PartialEq, I: Iterator<Item = (&'a str, V)>>(
        kind: &str,
        left: impl Fn() -> I,
        right: impl Fn() -> I,
        render: impl Fn(&V) -> String,
    ) -> Option<MetricsDivergence> {
        let labels: BTreeSet<&str> = left()
            .map(|(l, _)| l)
            .chain(right().map(|(l, _)| l))
            .collect();
        for label in labels {
            let a = left().find(|(l, _)| *l == label).map(|(_, v)| v);
            let b = right().find(|(l, _)| *l == label).map(|(_, v)| v);
            if a != b {
                let show = |v: &Option<V>| match v {
                    Some(v) => render(v),
                    None => "absent".to_string(),
                };
                return Some(MetricsDivergence {
                    kind: kind.to_string(),
                    label: label.to_string(),
                    layer: layer_of(label),
                    recorded: show(&a),
                    reproduced: show(&b),
                });
            }
        }
        None
    }

    Ok(first_diff(
        "counter",
        || rec.counters(),
        || rep.counters(),
        |v| v.to_string(),
    )
    .or_else(|| {
        first_diff(
            "histogram",
            || rec.histograms(),
            || rep.histograms(),
            |h| format!("count={} sum={}", h.count, h.sum),
        )
    })
    .or_else(|| {
        first_diff(
            "gauge",
            || rec.gauges(),
            || rep.gauges(),
            |g| format!("value={} at={}ms", g.value, g.at.as_millis()),
        )
    }))
}

/// Compare a reproduced pack against the recorded one.
pub fn verify_against(recorded: &RunPack, reproduced: &RunPack) -> VerifyReport {
    let rec_digests = recorded.section_digests();
    let rep_digests = reproduced.section_digests();
    let sections: Vec<SectionCheck> = rec_digests
        .iter()
        .zip(rep_digests.iter())
        .map(|(a, b): (&SectionDigest, &SectionDigest)| SectionCheck {
            section: a.section,
            recorded: a.digest,
            reproduced: b.digest,
            matches: a.digest == b.digest,
        })
        .collect();
    let events_differ = sections
        .iter()
        .any(|c| c.section == SectionId::Events && !c.matches);
    let mut divergence = None;
    if events_differ {
        let rec = recorded.canonicalized();
        let rep = reproduced.canonicalized();
        for run in &rec.runs {
            let other: &[ObsRecord] = rep
                .run(&run.label)
                .map(|r| r.events.as_slice())
                .unwrap_or(&[]);
            if let Some(d) = first_divergence(&run.label, &run.events, other) {
                divergence = Some(d);
                break;
            }
        }
        if divergence.is_none() {
            // Same per-run streams but different run sets/order.
            if let Some(extra) = rep.runs.iter().find(|r| rec.run(&r.label).is_none()) {
                if let Some(first) = extra.events.first() {
                    divergence = Some(divergence_at(
                        &extra.label,
                        0,
                        first,
                        "run present only in reproduced pack".to_string(),
                    ));
                }
            }
        }
    }
    let (metrics, metrics_error) = match metrics_divergence(recorded, reproduced) {
        Ok(metrics) => (metrics, None),
        Err(e) => (None, Some(e)),
    };
    let ok = sections.iter().all(|c| c.matches) && metrics_error.is_none();
    VerifyReport {
        sections,
        divergence,
        metrics,
        metrics_error,
        ok,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pack::RunEvents;
    use phishsim_simnet::ObsSink;

    fn pack_with(names: &[&str]) -> RunPack {
        let sink = ObsSink::memory();
        for (i, name) in names.iter().enumerate() {
            let s = sink.span_start(None, name, "gsb", SimTime::from_mins(i as u64));
            sink.span_end(s, SimTime::from_mins(i as u64 + 1));
        }
        RunPack {
            experiment: "table2".into(),
            runs: vec![RunEvents {
                label: "main".into(),
                events: sink.events(),
            }],
            metrics_json: serde_json::to_string(&MetricsRegistry::new()).unwrap(),
            ..RunPack::default()
        }
    }

    #[test]
    fn identical_packs_verify_clean() {
        let a = pack_with(&["browser.visit", "engine.report"]);
        let report = verify_against(&a, &a.clone());
        assert!(report.ok);
        assert!(report.divergence.is_none());
        assert_eq!(report.sections.len(), 6);
        assert!(report.sections.iter().all(|c| c.matches));
    }

    #[test]
    fn event_drift_is_localised_with_layer() {
        let a = pack_with(&["browser.visit", "engine.report", "engine.convict"]);
        let b = pack_with(&["browser.visit", "engine.crawl", "engine.convict"]);
        let report = verify_against(&a, &b);
        assert!(!report.ok);
        let d = report.divergence.expect("events diverged");
        assert_eq!(d.run, "main");
        assert_eq!(d.index, 2, "first two records (visit start/end) match");
        assert_eq!(d.name, "engine.report");
        assert_eq!(d.layer, "antiphish");
        assert_eq!(d.at, SimTime::from_mins(1));
    }

    #[test]
    fn prefix_truncation_reports_stream_end() {
        let a = pack_with(&["browser.visit", "engine.report"]);
        let mut b = a.clone();
        b.runs[0].events.truncate(2);
        let report = verify_against(&a, &b);
        let d = report.divergence.expect("length mismatch diverges");
        assert_eq!(d.index, 2);
        assert!(d.detail.contains("reproduced stream ended"));
    }

    #[test]
    fn metrics_drift_is_pinned_to_label_and_layer() {
        let a = pack_with(&["browser.visit"]);
        let mut b = a.clone();
        let mut ra = MetricsRegistry::new();
        ra.add("fleet.completed", 30);
        ra.observe("fleet.queue_wait_ms", 120);
        let mut rb = ra.clone();
        rb.add("fleet.completed", 2);
        let mut a = a;
        a.metrics_json = serde_json::to_string(&ra).unwrap();
        b.metrics_json = serde_json::to_string(&rb).unwrap();
        let report = verify_against(&a, &b);
        assert!(!report.ok);
        assert!(report.divergence.is_none(), "events still match");
        let m = report.metrics.expect("metrics diverged");
        assert_eq!(m.kind, "counter");
        assert_eq!(m.label, "fleet.completed");
        assert_eq!(m.layer, "antiphish");
        assert_eq!(m.recorded, "30");
        assert_eq!(m.reproduced, "32");
    }

    #[test]
    fn missing_metric_reads_as_absent() {
        let mut ra = MetricsRegistry::new();
        ra.incr("engine.reports");
        ra.observe("lease.revoke_latency_ms", 7);
        let mut rb = ra.clone();
        rb.incr("worker.orphan");
        let mut a = pack_with(&["browser.visit"]);
        let mut b = a.clone();
        a.metrics_json = serde_json::to_string(&ra).unwrap();
        b.metrics_json = serde_json::to_string(&rb).unwrap();
        let m = metrics_divergence(&a, &b)
            .unwrap()
            .expect("registries differ");
        assert_eq!(m.kind, "counter");
        assert_eq!(m.label, "worker.orphan");
        assert_eq!(m.layer, "antiphish");
        assert_eq!(m.recorded, "absent");
        assert_eq!(m.reproduced, "1");
    }

    #[test]
    fn histogram_drift_surfaces_after_counters_agree() {
        let mut ra = MetricsRegistry::new();
        ra.add("fleet.completed", 5);
        ra.observe("fleet.recovery_ms", 100);
        let mut rb = MetricsRegistry::new();
        rb.add("fleet.completed", 5);
        rb.observe("fleet.recovery_ms", 100);
        rb.observe("fleet.recovery_ms", 900);
        let mut a = pack_with(&["browser.visit"]);
        let mut b = a.clone();
        a.metrics_json = serde_json::to_string(&ra).unwrap();
        b.metrics_json = serde_json::to_string(&rb).unwrap();
        let m = metrics_divergence(&a, &b)
            .unwrap()
            .expect("histograms differ");
        assert_eq!(m.kind, "histogram");
        assert_eq!(m.label, "fleet.recovery_ms");
        assert_eq!(m.recorded, "count=1 sum=100");
        assert_eq!(m.reproduced, "count=2 sum=1000");
        assert!(metrics_divergence(&a, &a.clone()).unwrap().is_none());
    }

    #[test]
    fn a_metrics_section_that_is_not_a_registry_fails_verification() {
        let mut a = pack_with(&["browser.visit"]);
        a.metrics_json = "[1,2]".into();
        // Equal bytes on both sides: every digest matches, and still
        // the pack does not verify.
        let report = verify_against(&a, &a.clone());
        assert!(report.sections.iter().all(|c| c.matches));
        assert!(!report.ok);
        let err = report.metrics_error.expect("metrics error reported");
        assert!(err.starts_with("recorded metrics section"), "{err}");
        // A broken reproduction is named as such.
        let good = pack_with(&["browser.visit"]);
        let err = verify_against(&good, &a).metrics_error.expect("reported");
        assert!(err.starts_with("reproduced metrics section"), "{err}");
    }

    #[test]
    fn config_drift_fails_without_event_divergence() {
        let a = pack_with(&["browser.visit"]);
        let mut b = a.clone();
        b.config_json = r#"{"seed":43}"#.into();
        let report = verify_against(&a, &b);
        assert!(!report.ok);
        assert!(report.divergence.is_none(), "events still match");
        let bad: Vec<_> = report.sections.iter().filter(|c| !c.matches).collect();
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].section, SectionId::Config);
    }
}
