//! # phishsim-runpack
//!
//! Deterministic record/replay artifacts for the phishsim workspace.
//!
//! Every experiment in this workspace is a pure function of its
//! configuration: seed, volume, horizon and fault schedule. This crate
//! makes that claim *checkable* by serializing a run's complete
//! identity into a compact, versioned `.runpack` artifact and giving it
//! three verbs:
//!
//! * **verify** — re-execute from the recorded configuration and
//!   compare section digests byte-for-byte; on event drift, report the
//!   first divergent record (`at`, `seq`, span name, emitting layer).
//! * **bisect** — binary-search two packs' event streams over
//!   cumulative prefix digests to localize the earliest divergence.
//! * **seek** — fast-forward a replay to any simulated timestamp and
//!   dump reconstructed state: open spans, counters, and the newest
//!   layer snapshots at or before the target.
//!
//! The wire format ([`pack`]) is LEB128-varint framed with a
//! shift-capped decoder (the same hardening as feedserve's update
//! protocol), one FNV-1a-64 digest per section, and a root digest
//! chaining them. Recording ([`record`]) rides the observability
//! layer's [`ObsSink::Tee`](phishsim_simnet::ObsSink) path: a
//! commutative rolling digest cross-checks that no stream is lost,
//! no matter how sweep workers interleave.
//!
//! ## What never enters a pack
//!
//! Host time is not part of run identity. The sweep profiler's
//! `SweepProfile` deliberately does not implement `Serialize`, so the
//! pack codec — which only consumes serializable inputs — cannot see
//! its `host_elapsed_ms` field even by accident. This is enforced at
//! compile time; the following refuses to build:
//!
//! ```compile_fail
//! fn require_serialize<T: serde::Serialize>() {}
//! require_serialize::<phishsim_simnet::runner::SweepProfile>();
//! ```
//!
//! Likewise no environment variable enters a pack: the env section is
//! recorded empty. The two that remain, `PHISHSIM_SWEEP_THREADS` and
//! `PHISHSIM_SWEEP_MAX_THREADS`, set thread counts, which must never
//! change a pack; `runpack verify` at 1 and 8 threads proves it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bisect;
pub mod pack;
pub mod record;
pub mod seek;
pub mod verify;
pub mod wire;

pub use bisect::{bisect, BisectReport};
pub use pack::{RunEvents, RunPack, SectionDigest, SectionId, StateSnapshot, MAGIC, VERSION};
pub use record::{batch_digest, record_digest, PackRecorder, RollingDigest};
pub use seek::{seek, OpenSpanView, SeekReport};
pub use verify::{
    metrics_divergence, verify_against, Divergence, MetricsDivergence, SectionCheck, VerifyReport,
};
pub use wire::PackError;

/// Attribute a span/point name to the workspace layer that emits it.
///
/// The observability vocabulary is namespaced by convention
/// (`browser.fetch`, `engine.report`, `feed.sync`, …); this maps the
/// prefix back to the crate of origin so divergence reports can say
/// *which layer* drifted, not just which record.
pub fn layer_of(name: &str) -> &'static str {
    for (prefix, layer) in [
        ("http.", "http"),
        ("browser.", "browser"),
        ("engine.", "antiphish"),
        ("fleet.", "antiphish"),
        ("worker.", "antiphish"),
        ("lease.", "antiphish"),
        ("feed.", "feedserve"),
        ("retry.", "simnet"),
        ("sched.", "simnet"),
        ("sweep.", "simnet"),
        ("phase.", "core"),
    ] {
        if name.starts_with(prefix) {
            return layer;
        }
    }
    "unknown"
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_attribution_covers_the_vocabulary() {
        assert_eq!(layer_of("http.request"), "http");
        assert_eq!(layer_of("browser.visit"), "browser");
        assert_eq!(layer_of("engine.convict"), "antiphish");
        assert_eq!(layer_of("fleet.crawl"), "antiphish");
        assert_eq!(layer_of("worker.crash"), "antiphish");
        assert_eq!(layer_of("lease.revoke"), "antiphish");
        assert_eq!(layer_of("feed.sync"), "feedserve");
        assert_eq!(layer_of("retry.attempt"), "simnet");
        assert_eq!(layer_of("sched.dispatch"), "simnet");
        assert_eq!(layer_of("sweep.item"), "simnet");
        assert_eq!(layer_of("phase.detect.scan"), "core");
        assert_eq!(layer_of("mystery"), "unknown");
        assert_eq!(layer_of(""), "unknown");
    }
}
