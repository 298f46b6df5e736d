//! # phishsim-antiphish
//!
//! Simulated anti-phishing engines.
//!
//! The paper evaluates seven server-side entities — Google Safe
//! Browsing (GSB), NetCraft, APWG, OpenPhish, PhishTank, Microsoft
//! Defender SmartScreen, and Yandex Safe Browsing (YSB). Their observed
//! behavioural differences are the paper's explanatory variables, and
//! this crate makes each one an explicit, testable knob:
//!
//! * [`classifier`] — a two-path content classifier: a *signature* path
//!   that recognises cloned brand markup, and a *heuristic* path
//!   (login form + brand evidence + host mismatch) that only the
//!   stronger engines (GSB, NetCraft) employ. This reproduces the
//!   preliminary-test split where only GSB and NetCraft flagged the
//!   scratch-built Gmail page.
//! * [`profiles`] — per-engine capability profiles calibrated from
//!   Tables 1 and 2: crawl volume, IP-pool size, dialog policy (only
//!   GSB confirms alert boxes), form-submission behaviour (NetCraft
//!   submits any form; OpenPhish and PhishTank submit credential
//!   forms), CAPTCHA capability (none), verdict-latency models.
//! * [`blacklist`] / [`feeds`] — per-engine blacklists and the
//!   cross-feed propagation graph behind Table 1's "Also blacklisted
//!   by" column.
//! * [`kit_probe`] — OpenPhish's server-probing behaviour (§4.1: 81,967
//!   requests looking for web shells, kit archives, and stolen
//!   credential logs).
//! * [`intake`] — report channels (online form vs email) and the
//!   PhishLabs abuse-notification side effect.
//! * [`sharedcache`] — the render cache and verdict store an engine
//!   classifies through; the main experiment shares one pair across
//!   all engines of a run.
//! * [`engine`] — the crawl pipeline tying it together: intake → visits
//!   (with the browser capability profile) → form submission →
//!   classification → verdict, plus background crawl traffic shaped so
//!   ~90 % arrives within two hours.
//! * [`fleet`] — the multi-worker crawl fleet wrapped around the
//!   engine: sharded work-stealing report queues, per-hosting-farm
//!   rate limits, egress-identity rotation, and non-lossy backpressure
//!   — a deterministic simulation of intake at reports-per-day scale.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blacklist;
pub mod classifier;
pub mod engine;
pub mod feeds;
pub mod fleet;
pub mod intake;
pub mod kit_probe;
pub mod profiles;
pub mod sbapi;
pub mod sharedcache;
pub mod voting;

pub use blacklist::Blacklist;
pub use classifier::{classify, Classification, ClassifierMode};
pub use engine::{Engine, ReportOutcome};
pub use feeds::{FeedEdge, FeedNetwork};
pub use fleet::{
    run_fleet, EgressPool, FarmLimiter, FleetConfig, FleetOutcome, FleetResult, QueueDiscipline,
    ReportArrival, RotationPolicy, ServiceModel, ShardedQueue, TokenBucket,
};
pub use intake::ReportChannel;
pub use profiles::{CapabilityUpgrade, DeepPass, EngineId, EngineProfile};
pub use sbapi::{full_hash, HashPrefix, SbClient, SbServer, SbVerdict};
pub use sharedcache::{RunCaches, VerdictStore};
pub use voting::{SubmissionView, Vote, VoterProfile, VotingQueue};
