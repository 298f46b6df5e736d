//! Allocation budgets of the main experiment and the feed population
//! walk.
//!
//! At paper volume the main experiment sends 630,330 background
//! requests through the engines' probe loop, the world's DNS step, the
//! hosting farm and the gate handlers, and each one lands in the access
//! log. One test counts heap allocations, and the bytes they request,
//! made on its own thread while the experiment runs at two traffic
//! volumes, and bounds both per extra access-log entry. What is left per
//! request is the response's header list and, on a session gate, the
//! planted cookie: a resolve that parsed its host again, a response
//! that copied its static headers, or a gate that copied its page into
//! every response would fail the budget.
//! Another bounds a whole fast run, whose cost is per-run setup and
//! browser visits: it fails when setup goes back to building cover
//! sites nobody requests, stepping the monitor's poll ticks one by one,
//! copying a domain name into every zone record or a user agent into
//! every request. A third bounds each report of the fast fleet sweep,
//! almost all one-visit dedup revalidations: it fails when a crawl pass
//! goes back to building a browser or a new crawl pool, or a visit to
//! formatting or copying URLs nobody reads. The blacklist lookups the
//! monitor makes must not allocate at all: a lookup that builds its
//! URL's canonical text fails.
//!
//! The feed tests bound the population walks: a cohort-table build must
//! not allocate per client (no map per batch of clients, no formatted
//! fork label per client), a cohort walk must allocate a bounded amount
//! per row (no key string per counter bump), and an exact walk must not
//! allocate per sync or per protected client (no list of matching full
//! hashes per protecting sync, no tree node per exposure). All run on
//! one thread, so the sweep runner calls them inline
//! on the counting thread. The counts are deterministic (same seed,
//! same calls), so the bounds cannot flake.

use phishsim::antiphish::{EngineId, FeedNetwork};
use phishsim::experiment::{
    run_fleet_sweep_with_threads, run_main_experiment, FleetSweepConfig, MainConfig,
};
use phishsim::feedserve::{
    run_population_with_threads, CohortSpec, CohortTable, FeedServer, ListingEvent, MirrorConfig,
    PopulationConfig, ServerConfig,
};
use phishsim::http::Url;
use phishsim::simnet::{DetRng, SimTime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Allocations allowed per background request, counting everything the
/// request causes: the probe loop, DNS, the farm's log append and the
/// handler's response.
const BUDGET_PER_REQUEST: f64 = 2.0;

/// Bytes those allocations may request per background request (a
/// `realloc` counts its new size). Gate pages are shared, not copied
/// into each response.
const BYTES_PER_REQUEST: f64 = 400.0;

/// Allocations allowed for one `MainConfig::fast()` run (13,564
/// measured; 20,984 while every blacklist lookup built its key, every
/// zone record copied its name and every request its user agent;
/// 27,801 while every crawl pass built a new browser).
const FAST_RUN_BUDGET: u64 = 13_900;

/// Allocations allowed per report of the fast fleet sweep, the setup of
/// its four points included (20.34 measured; 22.63 while every report
/// built a crawl pool and every request copied its user agent; 43.22
/// while every crawl pass built a new browser and every visit
/// formatted its URL).
const FLEET_BUDGET_PER_REPORT: f64 = 20.8;

/// Allocations allowed for one cohort-table build, at any population.
const TABLE_BUILD_BUDGET: u64 = 64;

/// Allocations allowed per cohort row of a cohort walk, table build
/// included (0.074 measured: the per-batch buffers and the growth of
/// each event's exposure pairs; 0.19 while exposures were kept in one
/// `BTreeMap` per batch and event).
const WALK_BUDGET_PER_ROW: f64 = 0.08;

/// Allocations allowed per client of an exact walk (0.025 measured, the
/// same kinds; 0.56 with the `BTreeMap` nodes, and 2.56 while every
/// protecting sync built a list of full hashes).
const EXACT_WALK_BUDGET_PER_CLIENT: f64 = 0.03;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn bump(bytes: usize) {
    // `try_with`: the allocator can run while thread-locals are torn
    // down; those allocations are not the test's to count.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

// SAFETY: every call forwards unchanged to the system allocator; the
// counters are const-initialised thread-local `Cell`s that never
// allocate or panic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations and allocated bytes of one main-experiment run at
/// `volume_scale`, and the number of access-log entries it left.
fn run(volume_scale: f64) -> (u64, u64, usize) {
    let config = MainConfig {
        volume_scale,
        ..MainConfig::paper()
    };
    let allocs = ALLOCS.with(Cell::get);
    let bytes = BYTES.with(Cell::get);
    let result = run_main_experiment(&config);
    (
        ALLOCS.with(Cell::get) - allocs,
        BYTES.with(Cell::get) - bytes,
        result.world.log.len(),
    )
}

#[test]
fn background_requests_stay_within_the_allocation_budget() {
    let (base_allocs, base_bytes, base_entries) = run(0.0);
    let (allocs, bytes, entries) = run(0.1);
    assert!(
        entries > base_entries + 10_000,
        "volume 0.1 must add background traffic: {base_entries} -> {entries} entries"
    );
    let extra = (entries - base_entries) as f64;
    let per_request = (allocs - base_allocs) as f64 / extra;
    let bytes_per_request = (bytes - base_bytes) as f64 / extra;
    eprintln!(
        "{} extra allocations ({} B) over {extra} extra log entries: \
         {per_request:.2} allocations, {bytes_per_request:.0} B per request",
        allocs - base_allocs,
        bytes - base_bytes,
    );
    assert!(
        per_request <= BUDGET_PER_REQUEST,
        "{per_request:.2} allocations per background request, budget {BUDGET_PER_REQUEST}"
    );
    assert!(
        bytes_per_request <= BYTES_PER_REQUEST,
        "{bytes_per_request:.0} B allocated per background request, budget {BYTES_PER_REQUEST}"
    );
}

#[test]
fn fleet_reports_stay_within_the_allocation_budget() {
    let cfg = FleetSweepConfig::fast();
    let before = ALLOCS.with(Cell::get);
    let bytes = BYTES.with(Cell::get);
    let result = run_fleet_sweep_with_threads(&cfg, 1);
    let allocs = ALLOCS.with(Cell::get) - before;
    let bytes = BYTES.with(Cell::get) - bytes;
    let reports: u64 = result.points.iter().map(|p| p.completed).sum();
    assert_eq!(reports, 1_600, "four points of 400 reports");
    let per_report = allocs as f64 / reports as f64;
    eprintln!(
        "fleet sweep, {reports} reports: {allocs} allocations ({bytes} B), \
         {per_report:.2} per report"
    );
    assert!(
        per_report <= FLEET_BUDGET_PER_REPORT,
        "{per_report:.2} allocations per fleet report, budget {FLEET_BUDGET_PER_REPORT}"
    );
}

#[test]
fn fast_run_stays_within_the_allocation_budget() {
    let before = ALLOCS.with(Cell::get);
    let result = run_main_experiment(&MainConfig::fast());
    let allocs = ALLOCS.with(Cell::get) - before;
    assert_eq!(result.table.total.total, 105);
    eprintln!("one fast run: {allocs} allocations");
    assert!(
        allocs <= FAST_RUN_BUDGET,
        "{allocs} allocations in one fast run, budget {FAST_RUN_BUDGET}"
    );
}

#[test]
fn monitor_blacklist_lookups_do_not_allocate() {
    // Each engine lists a few URLs (and what the feeds propagate);
    // the monitor then asks every engine about every reported URL,
    // listed or not, with query parameters the lists ignore.
    let mut feeds = FeedNetwork::paper_topology(&DetRng::new(17));
    let urls: Vec<Url> = (0..40)
        .map(|i| {
            let scheme = if i % 3 == 0 { "http" } else { "https" };
            Url::parse(&format!(
                "{scheme}://site-{}.com/kit/login.php?id={i}",
                i % 20
            ))
            .unwrap()
        })
        .collect();
    for (i, url) in urls.iter().enumerate().step_by(3) {
        let engine = EngineId::all()[i % EngineId::all().len()];
        feeds.publish(engine, url, SimTime::from_mins(i as u64));
    }
    let now = SimTime::from_hours(48);
    let before = ALLOCS.with(Cell::get);
    let mut listed = 0;
    for engine in EngineId::all() {
        for url in &urls {
            listed += usize::from(feeds.listed_at(engine, url).is_some());
            listed += usize::from(feeds.list(engine).is_listed(url, now));
        }
    }
    let allocs = ALLOCS.with(Cell::get) - before;
    assert!(listed > 0, "some lookups must hit");
    assert_eq!(allocs, 0, "{allocs} allocations over blacklist lookups");
}

/// A cohort population of `clients` behind four mirrors.
fn cohort_population(clients: usize) -> PopulationConfig {
    PopulationConfig {
        clients,
        cohorts: Some(CohortSpec::default()),
        mirrors: Some(MirrorConfig {
            mirrors: 4,
            ..MirrorConfig::default()
        }),
        ..PopulationConfig::default()
    }
}

/// Allocations made by one cohort-table build, and its row count.
fn table_build(clients: usize) -> (u64, usize) {
    let cfg = cohort_population(clients);
    let before = ALLOCS.with(Cell::get);
    let table = CohortTable::from_population(&cfg, ServerConfig::default().min_wait, 1);
    let allocs = ALLOCS.with(Cell::get) - before;
    assert_eq!(table.clients(), clients as u64);
    (allocs, table.len())
}

#[test]
fn cohort_table_build_does_not_allocate_per_client() {
    for clients in [2_000, 200_000] {
        let (allocs, rows) = table_build(clients);
        eprintln!("table build, {clients} clients, {rows} rows: {allocs} allocations");
        assert!(
            allocs <= TABLE_BUILD_BUDGET,
            "{allocs} allocations to build a {clients}-client table, budget {TABLE_BUILD_BUDGET}"
        );
    }
}

/// A feed with two listings, at minutes 60 and 150: every client that
/// syncs after both is protected twice.
fn two_listings() -> (FeedServer, Vec<ListingEvent>) {
    let h = |i: u64| (i << 33) | 0x5151;
    let mut server = FeedServer::new(ServerConfig::default());
    server.publish((0..50).map(h), SimTime::from_mins(5));
    server.publish((0..51).map(h), SimTime::from_mins(60));
    server.publish((0..52).map(h), SimTime::from_mins(150));
    let events: Vec<ListingEvent> = [(50, 60), (51, 150)]
        .into_iter()
        .map(|(i, mins)| ListingEvent {
            label: format!("listing-{i}"),
            full_hash: h(i),
            listed_at: SimTime::from_mins(mins),
        })
        .collect();
    (server, events)
}

#[test]
fn cohort_walk_stays_within_the_per_row_budget() {
    let (server, events) = two_listings();
    let cfg = cohort_population(20_000);
    let before = ALLOCS.with(Cell::get);
    let report = run_population_with_threads(&cfg, &server, &events, 1);
    let allocs = ALLOCS.with(Cell::get) - before;
    let rows = report.cohorts.expect("cohort mode reports its rows");
    let per_row = allocs as f64 / rows as f64;
    eprintln!("cohort walk over {rows} rows: {allocs} allocations, {per_row:.2} per row");
    assert!(
        per_row <= WALK_BUDGET_PER_ROW,
        "{per_row:.2} allocations per cohort row, budget {WALK_BUDGET_PER_ROW}"
    );
}

#[test]
fn exact_walk_does_not_allocate_per_sync() {
    let (server, events) = two_listings();
    let clients = 5_000;
    let cfg = PopulationConfig {
        cohorts: None,
        ..cohort_population(clients)
    };
    let before = ALLOCS.with(Cell::get);
    let report = run_population_with_threads(&cfg, &server, &events, 1);
    let allocs = ALLOCS.with(Cell::get) - before;
    let protected: usize = report.events.iter().map(|e| e.protected).sum();
    assert!(protected > clients, "most clients must be protected twice");
    let per_client = allocs as f64 / clients as f64;
    eprintln!(
        "exact walk over {clients} clients ({protected} protections): \
         {allocs} allocations, {per_client:.2} per client"
    );
    assert!(
        per_client <= EXACT_WALK_BUDGET_PER_CLIENT,
        "{per_client:.2} allocations per client of an exact walk, \
         budget {EXACT_WALK_BUDGET_PER_CLIENT}"
    );
}
