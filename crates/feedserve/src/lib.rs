//! # phishsim-feedserve
//!
//! Versioned blacklist distribution — the serving half of the
//! Safe-Browsing Update API that the paper's §2.1 blind windows live
//! in. The rest of the workspace measures *when a URL gets listed*;
//! this crate measures and models *when the client population actually
//! receives that listing*, which related work (Oest et al., Lain et
//! al.) shows is the quantity that decides victim exposure.
//!
//! Four layers, bottom-up:
//!
//! * [`store`] — [`PrefixStore`]: the compact client-resident prefix
//!   set. Sorted flat `u32`s, binary-search lookup, delta-varint wire
//!   encoding, built once per blacklist version instead of per call.
//! * [`diff`] — [`PrefixDiff`]: checksummed incremental updates
//!   between versions with the SB v4 contract
//!   `apply(state_v1, diff) == state_v2` (proptested).
//! * [`server`] / [`client`] — [`FeedServer`] keeps every published
//!   version, serves diffs inside a bounded history window (full reset
//!   beyond it), enforces a minimum wait between fetches, and answers
//!   full-hash lookups with positive/negative cache TTLs, all
//!   instrumented through `simnet::metrics::CounterSet`. Scheduled
//!   [`OutageWindow`](phishsim_simnet::OutageWindow)s take the serving
//!   edge down for `[t0, t1)`.
//!   [`FeedClient`] is one installation's sync state machine,
//!   including the degraded mode: while the server is unreachable the
//!   stale local store keeps serving (staleness counted), sync
//!   attempts back off exponentially, and recovery rides the ordinary
//!   diff/full-reset path.
//! * [`mirror`] — [`MirrorTier`]: the CDN leg real deployments put
//!   between origin and client. Mirrors refresh from the origin on a
//!   staggered cadence (skipping refreshes during origin outages or
//!   their own [`TierOutagePlan`](phishsim_simnet::TierOutagePlan)
//!   windows) and serve their possibly stale captured version.
//! * [`population`] — drives N clients (default 10⁶) with staggered
//!   schedules through the shared work-stealing sweep runner and
//!   reports population blind-window metrics, byte-identically at any
//!   thread count. [`cohort`] scales the walk past 5 × 10⁷ clients by
//!   collapsing identical quantized schedules into weighted
//!   struct-of-arrays [`CohortTable`] rows with a proven error bound.
//!
//! `antiphish::sbapi` (the protocol toy the paper-facing experiments
//! use) and `browser::sbcache` both consume [`PrefixStore`] instead of
//! rebuilding ad-hoc `BTreeSet`s; the `sb_scale` experiment and bench
//! bin sit on [`population`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod cohort;
pub mod diff;
pub mod mirror;
pub mod population;
pub mod server;
pub mod store;
mod tally;
pub mod wire;

pub use client::{FeedClient, FeedVerdict};
pub use cohort::{CohortRecord, CohortSpec, CohortTable, COHORT_ROW_BYTES};
pub use diff::{ApplyError, PrefixDiff};
pub use mirror::{MirrorConfig, MirrorTier};
pub use population::{
    run_population, run_population_with_threads, EventReport, ListingEvent, PopulationConfig,
    PopulationReport, ProtectedSample,
};
pub use server::{FeedServer, FullHashResponse, ServerConfig, UpdateResponse};
pub use store::{prefix_of, PrefixStore};
pub use wire::WireError;
