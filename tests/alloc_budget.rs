//! Allocation budgets of the main experiment and the feed population
//! walk.
//!
//! At paper volume the main experiment sends 630,330 background
//! requests through the engines' probe loop, the world's DNS step, the
//! hosting farm and the gate handlers, and each one lands in the access
//! log. One test counts heap allocations made on its own thread while
//! the experiment runs at two traffic volumes, and bounds the extra
//! allocations per extra access-log entry. Another bounds a whole
//! fast run, whose cost is per-run setup and browser visits: it fails
//! when setup goes back to building cover sites nobody requests or
//! stepping the monitor's poll ticks one by one.
//!
//! The feed tests bound the cohort path: a cohort-table build must not
//! allocate per client (no map per batch of clients, no formatted fork
//! label per client), and a cohort walk must allocate a bounded amount
//! per row (no key string per counter bump). Both run on one thread,
//! so the sweep runner calls them inline on the counting thread. The
//! counts are deterministic (same seed, same calls), so the bounds
//! cannot flake.

use phishsim::experiment::{run_main_experiment, MainConfig};
use phishsim::feedserve::{
    run_population_with_threads, CohortSpec, CohortTable, FeedServer, ListingEvent, MirrorConfig,
    PopulationConfig, ServerConfig,
};
use phishsim::simnet::SimTime;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Allocations allowed per background request, counting everything the
/// request causes: the probe loop, DNS, the farm's log append and the
/// handler's response.
const BUDGET_PER_REQUEST: f64 = 10.0;

/// Allocations allowed for one `MainConfig::fast()` run.
const FAST_RUN_BUDGET: u64 = 50_000;

/// Allocations allowed for one cohort-table build, at any population.
const TABLE_BUILD_BUDGET: u64 = 64;

/// Allocations allowed per cohort row of a cohort walk.
const WALK_BUDGET_PER_ROW: f64 = 5.0;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the allocator can run while thread-locals are torn
    // down; those allocations are not the test's to count.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards unchanged to the system allocator; the
// counter is a const-initialised thread-local `Cell` that never
// allocates or panics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made by one main-experiment run at `volume_scale`, and
/// the number of access-log entries it left.
fn run(volume_scale: f64) -> (u64, usize) {
    let config = MainConfig {
        volume_scale,
        ..MainConfig::paper()
    };
    let before = ALLOCS.with(Cell::get);
    let result = run_main_experiment(&config);
    let allocs = ALLOCS.with(Cell::get) - before;
    (allocs, result.world.log.len())
}

#[test]
fn background_requests_stay_within_the_allocation_budget() {
    let (base_allocs, base_entries) = run(0.0);
    let (allocs, entries) = run(0.1);
    assert!(
        entries > base_entries + 10_000,
        "volume 0.1 must add background traffic: {base_entries} -> {entries} entries"
    );
    let per_request = (allocs - base_allocs) as f64 / (entries - base_entries) as f64;
    eprintln!(
        "{} extra allocations over {} extra log entries: {per_request:.2} per request",
        allocs - base_allocs,
        entries - base_entries
    );
    assert!(
        per_request <= BUDGET_PER_REQUEST,
        "{per_request:.2} allocations per background request, budget {BUDGET_PER_REQUEST}"
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

#[test]
fn cohort_walk_stays_within_the_per_row_budget() {
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
