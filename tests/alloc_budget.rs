//! Allocation budgets of the main experiment.
//!
//! At paper volume the main experiment sends 630,330 background
//! requests through the engines' probe loop, the world's DNS step, the
//! hosting farm and the gate handlers, and each one lands in the access
//! log. One test counts heap allocations made on its own thread while
//! the experiment runs at two traffic volumes, and bounds the extra
//! allocations per extra access-log entry. The other bounds a whole
//! fast run, whose cost is per-run setup and browser visits: it fails
//! when setup goes back to building cover sites nobody requests or
//! stepping the monitor's poll ticks one by one. The counts are
//! deterministic (same seed, same calls), so the bounds cannot flake.

use phishsim::experiment::{run_main_experiment, MainConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Allocations allowed per background request, counting everything the
/// request causes: the probe loop, DNS, the farm's log append and the
/// handler's response.
const BUDGET_PER_REQUEST: f64 = 10.0;

/// Allocations allowed for one `MainConfig::fast()` run.
const FAST_RUN_BUDGET: u64 = 50_000;

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
