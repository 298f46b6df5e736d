//! Lightweight metrics: counters, timing collections, summary statistics.
//!
//! The experiment harness aggregates detection delays ("on average 132
//! minutes after submission") and rates ("23 % of URLs armed with
//! web-cloaking"). These helpers keep the statistics code out of the
//! experiment logic and give it a single, tested home.

use crate::time::SimDuration;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Apply `f` to `label`'s entry, inserting a default first. The key is
/// allocated only on a label's first insert: `entry(label.to_string())`
/// would allocate on every call, and counters are bumped per sync round.
pub(crate) fn update_entry<V: Default>(
    map: &mut BTreeMap<String, V>,
    label: &str,
    f: impl FnOnce(&mut V),
) {
    match map.get_mut(label) {
        Some(v) => f(v),
        None => f(map.entry(label.to_owned()).or_default()),
    }
}

/// A labelled set of monotonically increasing counters.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct CounterSet {
    counts: BTreeMap<String, u64>,
}

impl CounterSet {
    /// Create an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increment `label` by one.
    pub fn incr(&mut self, label: &str) {
        self.add(label, 1);
    }

    /// Increment `label` by `n`.
    pub fn add(&mut self, label: &str, n: u64) {
        update_entry(&mut self.counts, label, |c| *c += n);
    }

    /// Current value of `label` (zero if never incremented).
    pub fn get(&self, label: &str) -> u64 {
        self.counts.get(label).copied().unwrap_or(0)
    }

    /// Iterate over `(label, count)` pairs in label order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counts.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Sum of all counters.
    pub fn total(&self) -> u64 {
        self.counts.values().sum()
    }

    /// Fold another set into this one, label by label. Used by the
    /// parallel population simulator to combine per-batch counters into
    /// a deterministic total (label order is fixed by the `BTreeMap`,
    /// and addition commutes, so the merged set is identical at any
    /// thread count).
    pub fn merge(&mut self, other: &CounterSet) {
        for (label, n) in other.iter() {
            self.add(label, n);
        }
    }
}

/// A collection of duration observations with summary statistics.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct DurationStats {
    samples_ms: Vec<u64>,
}

impl DurationStats {
    /// Create an empty collection.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one observation.
    pub fn record(&mut self, d: SimDuration) {
        self.samples_ms.push(d.as_millis());
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.samples_ms.len()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.samples_ms.is_empty()
    }

    /// Arithmetic mean, or `None` if empty.
    pub fn mean(&self) -> Option<SimDuration> {
        if self.samples_ms.is_empty() {
            return None;
        }
        let sum: u128 = self.samples_ms.iter().map(|&v| v as u128).sum();
        Some(SimDuration::from_millis(
            (sum / self.samples_ms.len() as u128) as u64,
        ))
    }

    /// Minimum observation.
    pub fn min(&self) -> Option<SimDuration> {
        self.samples_ms
            .iter()
            .min()
            .map(|&v| SimDuration::from_millis(v))
    }

    /// Maximum observation.
    pub fn max(&self) -> Option<SimDuration> {
        self.samples_ms
            .iter()
            .max()
            .map(|&v| SimDuration::from_millis(v))
    }

    /// Sample standard deviation, or `None` with fewer than two samples.
    pub fn std_dev(&self) -> Option<SimDuration> {
        if self.samples_ms.len() < 2 {
            return None;
        }
        let n = self.samples_ms.len() as f64;
        let mean = self.samples_ms.iter().map(|&v| v as f64).sum::<f64>() / n;
        let var = self
            .samples_ms
            .iter()
            .map(|&v| {
                let d = v as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / (n - 1.0);
        Some(SimDuration::from_millis(var.sqrt() as u64))
    }

    /// Percentile via nearest-rank (p in `[0, 100]`).
    pub fn percentile(&self, p: f64) -> Option<SimDuration> {
        if self.samples_ms.is_empty() {
            return None;
        }
        let mut sorted = self.samples_ms.clone();
        sorted.sort_unstable();
        let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
        let idx = rank.clamp(1, sorted.len()) - 1;
        Some(SimDuration::from_millis(sorted[idx]))
    }

    /// Median (50th percentile).
    pub fn median(&self) -> Option<SimDuration> {
        self.percentile(50.0)
    }

    /// All raw samples in insertion order.
    pub fn samples(&self) -> impl Iterator<Item = SimDuration> + '_ {
        self.samples_ms.iter().map(|&v| SimDuration::from_millis(v))
    }
}

/// A detection-rate tally: `hits` out of `total` attempts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Rate {
    /// Number of positive outcomes.
    pub hits: u64,
    /// Number of attempts.
    pub total: u64,
}

impl Rate {
    /// Record one attempt with the given outcome.
    pub fn record(&mut self, hit: bool) {
        self.total += 1;
        if hit {
            self.hits += 1;
        }
    }

    /// Merge another tally into this one.
    pub fn merge(&mut self, other: Rate) {
        self.hits += other.hits;
        self.total += other.total;
    }

    /// The rate as a fraction, or 0 for an empty tally.
    pub fn fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.hits as f64 / self.total as f64
        }
    }

    /// Render as the paper's "X/Y" cells.
    pub fn as_cell(&self) -> String {
        format!("{}/{}", self.hits, self.total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut c = CounterSet::new();
        c.incr("gsb");
        c.add("gsb", 4);
        c.incr("netcraft");
        assert_eq!(c.get("gsb"), 5);
        assert_eq!(c.get("netcraft"), 1);
        assert_eq!(c.get("missing"), 0);
        assert_eq!(c.total(), 6);
        let labels: Vec<&str> = c.iter().map(|(k, _)| k).collect();
        assert_eq!(labels, vec!["gsb", "netcraft"]);
    }

    #[test]
    fn counters_merge() {
        let mut a = CounterSet::new();
        a.add("x", 2);
        a.add("y", 1);
        let mut b = CounterSet::new();
        b.add("y", 3);
        b.add("z", 5);
        a.merge(&b);
        assert_eq!(a.get("x"), 2);
        assert_eq!(a.get("y"), 4);
        assert_eq!(a.get("z"), 5);
        a.merge(&CounterSet::new());
        assert_eq!(a.total(), 11);
    }

    #[test]
    fn duration_stats_summary() {
        let mut s = DurationStats::new();
        for m in [100, 120, 140, 160, 140] {
            s.record(SimDuration::from_mins(m));
        }
        assert_eq!(s.len(), 5);
        assert_eq!(s.mean().unwrap().as_mins(), 132);
        assert_eq!(s.min().unwrap().as_mins(), 100);
        assert_eq!(s.max().unwrap().as_mins(), 160);
        assert_eq!(s.median().unwrap().as_mins(), 140);
    }

    #[test]
    fn empty_stats_are_none() {
        let s = DurationStats::new();
        assert!(s.mean().is_none());
        assert!(s.median().is_none());
        assert!(s.min().is_none());
        assert!(s.percentile(90.0).is_none());
    }

    #[test]
    fn std_dev_matches_hand_computation() {
        let mut s = DurationStats::new();
        for ms in [2_000u64, 4_000, 4_000, 4_000, 5_000, 5_000, 7_000, 9_000] {
            s.record(SimDuration::from_millis(ms));
        }
        // Known dataset: sample std dev ~ 2138 ms.
        let sd = s.std_dev().unwrap().as_millis();
        assert!((2_000..2_300).contains(&sd), "{sd}");
        // Fewer than two samples: undefined.
        let mut one = DurationStats::new();
        one.record(SimDuration::from_secs(1));
        assert!(one.std_dev().is_none());
    }

    #[test]
    fn percentiles_nearest_rank() {
        let mut s = DurationStats::new();
        for ms in 1..=100u64 {
            s.record(SimDuration::from_millis(ms));
        }
        assert_eq!(s.percentile(90.0).unwrap().as_millis(), 90);
        assert_eq!(s.percentile(100.0).unwrap().as_millis(), 100);
        assert_eq!(s.percentile(0.0).unwrap().as_millis(), 1);
    }

    #[test]
    fn rate_cells() {
        let mut r = Rate::default();
        for i in 0..6 {
            r.record(i < 2);
        }
        assert_eq!(r.as_cell(), "2/6");
        assert!((r.fraction() - 1.0 / 3.0).abs() < 1e-9);
        let mut other = Rate::default();
        other.record(true);
        r.merge(other);
        assert_eq!(r.as_cell(), "3/7");
        assert_eq!(Rate::default().fraction(), 0.0);
    }
}
