//! The reference probe: a fixed piece of work, in the benchmark's own
//! code, that `run` times before and after every timed iteration to tell
//! how fast the host is running at that moment.
//!
//! On a shared host the same iteration can take half as long again from
//! one minute to the next. On the 2-vCPU host the benchmark was written
//! on, that came with no steal time and with process CPU time equal to
//! wall time, so neither CPU time nor the fastest of many iterations
//! removes it: a neighbour on the same physical cores slowed the program
//! for tens of seconds at a time. A short loop of hash-map and B-tree
//! inserts with formatted string keys, the kind of work the simulation
//! does, slowed by about as much at the same moments, while a pure
//! arithmetic loop or a memory-latency chase hardly moved. Dividing each
//! iteration by the probes around it took the spread of one workload's
//! 30-second medians from 15-27% to 1-9% in 150-second samples of each
//! workload. It does not catch every slowdown: `paper_tables`, with the
//! largest working set, still slowed by a third at moments when the probe
//! read its reference time.
//!
//! The probe shares no code with phishsim, so a change to the program
//! cannot move it.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// Map and string operations per probe.
const OPS: u64 = 100_000;

/// The probe's wall time on the reference host (2 vCPUs of an Intel Xeon
/// in a Firecracker VM) when no neighbour slowed it: the 10th percentile
/// of 600 probes. Scaled times are in seconds at this speed.
pub const REFERENCE_S: f64 = 0.0205;

/// Run the probe once and return its wall time in seconds.
pub fn probe() -> f64 {
    let start = Instant::now();
    black_box(work(black_box(OPS)));
    start.elapsed().as_secs_f64()
}

/// `ops` rounds of formatting a key, counting it in a hash map and
/// filing it in a B-tree. The hasher has fixed keys, so every probe does
/// the same work.
fn work(ops: u64) -> usize {
    let mut counts: HashMap<String, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut order = BTreeMap::new();
    let mut x = 0x9e37_79b9_7f4a_7c15_u64;
    for i in 0..ops {
        // xorshift64
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let key = format!("site-{}.example", x % 4096);
        *counts.entry(key.clone()).or_insert(0) += i;
        order.insert(x % 8192, key);
    }
    counts.len() + order.len()
}

/// A wall time `secs`, taken between probes that took `before` and
/// `after` seconds, in seconds at the reference speed.
pub fn scaled(secs: f64, before: f64, after: f64) -> f64 {
    secs * REFERENCE_S * 2.0 / (before + after)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_probe_does_the_same_work() {
        assert_eq!(work(OPS), work(OPS));
        assert_eq!(work(OPS), 4096 + 8192);
    }

    #[test]
    fn scaling_divides_by_the_probes_around_a_sample() {
        let r = REFERENCE_S;
        assert_eq!(scaled(1.0, r, r), 1.0);
        // A host running at half speed doubles both the sample and the probes.
        assert!((scaled(2.0, 2.0 * r, 2.0 * r) - 1.0).abs() < 1e-12);
        assert!((scaled(1.5, r, 2.0 * r) - 1.0).abs() < 1e-12);
    }
}
