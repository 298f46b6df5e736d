//! # phishsim-simnet
//!
//! Deterministic discrete-event substrate for the `phishsim` workspace.
//!
//! The paper this workspace reproduces ("Are You Human?", IMC 2020) is an
//! Internet measurement study: its results are *times* (minutes until a URL
//! appears on a blacklist), *volumes* (requests sent by anti-phishing
//! crawlers), and *counts* (URLs detected). Reproducing those offline
//! requires a simulated network in which time, latency, and randomness are
//! fully controlled. This crate provides that substrate:
//!
//! * [`SimTime`] / [`SimDuration`] — a millisecond-resolution simulated
//!   clock with convenient minute/hour arithmetic (blacklist delays in the
//!   paper are reported in minutes).
//! * [`DetRng`] — a seedable, forkable random-number generator. Every
//!   stochastic decision in the workspace flows from one root seed, so the
//!   same seed regenerates byte-identical experiment tables.
//! * [`Scheduler`] — a calendar/bucket event queue with stable FIFO
//!   ordering for simultaneous events and a heap fallback for far-future
//!   events.
//! * [`Ipv4Sim`] / [`IpPool`] — simulated IPv4 addressing; anti-phishing
//!   bots crawl from pools of distinct addresses (Table 1 reports unique
//!   source IPs per engine).
//! * [`LatencyModel`] / [`FaultInjector`] / [`Link`] — per-link delay and
//!   loss models in the spirit of smoltcp's fault-injection examples,
//!   including error responses, payload truncation, and scheduled outage
//!   windows.
//! * [`RetryPolicy`] — deterministic exponential backoff whose jittered
//!   schedule is a pure function of a fork label, so recovery behaviour
//!   never perturbs other streams.
//! * [`TraceLog`] — an append-only traffic log; the paper's server-side log
//!   analysis (request bursts, kit probing, "90 % of traffic in the first
//!   two hours") is reproduced by querying this log.
//! * [`SymHasher`] — the FxHash-style hasher of the hot lookup tables
//!   (access-log strings, resolver cache, registry, session ids).
//! * [`metrics`] — counters, histograms and summary statistics used by the
//!   experiment harness.
//! * [`runner`] — the work-stealing parallel sweep runner shared by the
//!   experiment harness and the feedserve population simulator.
//! * [`obs`] — the unified observability layer: structured spans, the
//!   run-wide [`MetricsRegistry`], and profiling hooks. The disabled
//!   sink ([`ObsSink::Null`]) is guaranteed free: no allocation, no
//!   locking, no RNG draws. [`ObsSink::Tee`] additionally streams every
//!   record into an [`ObsTap`] (the runpack recorder's hook).
//! * [`replay`] — the deterministic replay clock: walk a recorded event
//!   stream in `(at, seq)` order and reconstruct open spans and counts
//!   at any simulated timestamp (time-travel debugging for runpacks).
//!
//! The design follows the event-driven, poll-based style of smoltcp rather
//! than an async runtime: simplicity and reproducibility are design goals,
//! clever type tricks are an anti-goal.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod hash;
pub mod ip;
pub mod link;
pub mod metrics;
pub mod obs;
pub mod replay;
pub mod retry;
pub mod rng;
pub mod runner;
pub mod sched;
pub mod time;
pub mod trace;

pub use error::SimError;
pub use hash::{BuildSymHasher, SymHasher};
pub use ip::{IpPool, Ipv4Sim};
pub use link::{
    FaultInjector, FaultOutcome, LatencyModel, Link, LinkConfig, OutageWindow,
    ScheduledWorkerFault, TierOutage, TierOutagePlan, WorkerFault, WorkerFaultPlan,
};
pub use obs::{
    GaugeSample, LogHistogram, MetricsRegistry, ObsBuffer, ObsKind, ObsRecord, ObsSink, ObsTap,
    SpanId,
};
pub use replay::{OpenSpan, ReplayClock};
pub use retry::RetryPolicy;
pub use rng::{DetRng, IndexedForks};
pub use sched::{EventId, Scheduler};
pub use time::{SimDuration, SimTime};
pub use trace::{TraceEvent, TraceKind, TraceLog, TraceView};
