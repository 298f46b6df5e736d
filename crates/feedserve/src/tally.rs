//! Typed serving counters.
//!
//! Each exchange of the population walk bumps one to three serving
//! counters. A [`CounterSet`] keys its counters by string, so every
//! bump is a `BTreeMap` lookup; a [`Tally`] keys them by [`Counter`]
//! kind, so a bump is an array index. The walk fills one tally per
//! batch, sums the batches' tallies, and turns the sum into the
//! `CounterSet` labels once, at the end.

use phishsim_simnet::metrics::CounterSet;

/// A serving counter, by kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Counter {
    /// An update fetch refused inside an origin or mirror outage.
    UpdateUnavailable,
    /// An update fetch inside the minimum wait.
    UpdateBackoff,
    /// An update fetch by a client already at the serving version.
    UpdateUpToDate,
    /// An update fetch answered with a diff.
    UpdateDiff,
    /// An update fetch answered with a full reset.
    UpdateFullReset,
    /// An update exchange lost on the feed channel.
    UpdateLost,
    /// Wire bytes of the diffs served.
    BytesDiff,
    /// Wire bytes of the full resets served.
    BytesFullReset,
    /// Full-hash lookups answered.
    FullhashLookups,
    /// Full-hash lookups that found no hash under the prefix.
    FullhashNegative,
    /// Update fetches refused by a down mirror.
    MirrorUnavailable,
    /// Serves of an older version than the origin holds.
    MirrorStaleServes,
}

impl Counter {
    /// Every kind, in declaration order.
    const ALL: [Counter; 12] = [
        Counter::UpdateUnavailable,
        Counter::UpdateBackoff,
        Counter::UpdateUpToDate,
        Counter::UpdateDiff,
        Counter::UpdateFullReset,
        Counter::UpdateLost,
        Counter::BytesDiff,
        Counter::BytesFullReset,
        Counter::FullhashLookups,
        Counter::FullhashNegative,
        Counter::MirrorUnavailable,
        Counter::MirrorStaleServes,
    ];

    /// The kind's [`CounterSet`] label.
    pub(crate) fn label(self) -> &'static str {
        match self {
            Counter::UpdateUnavailable => "update.unavailable",
            Counter::UpdateBackoff => "update.backoff",
            Counter::UpdateUpToDate => "update.up_to_date",
            Counter::UpdateDiff => "update.diff",
            Counter::UpdateFullReset => "update.full_reset",
            Counter::UpdateLost => "update.lost",
            Counter::BytesDiff => "bytes.diff",
            Counter::BytesFullReset => "bytes.full_reset",
            Counter::FullhashLookups => "fullhash.lookups",
            Counter::FullhashNegative => "fullhash.negative",
            Counter::MirrorUnavailable => "mirror.unavailable",
            Counter::MirrorStaleServes => "mirror.stale_serves",
        }
    }

    fn bit(self) -> u16 {
        1 << self as u16
    }
}

/// Serving counts by [`Counter`] kind, and which kinds were bumped at
/// all: `CounterSet::add(label, 0)` creates the label, so a kind
/// bumped only by zero must still become one.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct Tally {
    counts: [u64; Counter::ALL.len()],
    touched: u16,
}

impl Tally {
    /// Bump `counter` by `n`.
    pub(crate) fn add(&mut self, counter: Counter, n: u64) {
        self.counts[counter as usize] += n;
        self.touched |= counter.bit();
    }

    /// The count of `counter`.
    #[cfg(test)]
    pub(crate) fn get(&self, counter: Counter) -> u64 {
        self.counts[counter as usize]
    }

    /// Fold another tally into this one.
    pub(crate) fn merge(&mut self, other: &Tally) {
        for (acc, n) in self.counts.iter_mut().zip(&other.counts) {
            *acc += n;
        }
        self.touched |= other.touched;
    }

    /// Add every bumped kind to `counters` under its label.
    pub(crate) fn add_to(&self, counters: &mut CounterSet) {
        for counter in Counter::ALL {
            if self.touched & counter.bit() != 0 {
                counters.add(counter.label(), self.counts[counter as usize]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_kind_bumped_by_zero_in_one_batch_survives_the_merge() {
        let mut first = Tally::default();
        first.add(Counter::UpdateDiff, 3);
        first.add(Counter::BytesDiff, 0);
        let mut second = Tally::default();
        second.add(Counter::UpdateDiff, 2);
        let mut merged = Tally::default();
        merged.merge(&first);
        merged.merge(&second);
        let mut counters = CounterSet::new();
        merged.add_to(&mut counters);
        let labels: Vec<(&str, u64)> = counters.iter().collect();
        assert_eq!(labels, vec![("bytes.diff", 0), ("update.diff", 5)]);
    }

    #[test]
    fn labels_are_distinct_and_in_declaration_order() {
        for (i, counter) in Counter::ALL.into_iter().enumerate() {
            assert_eq!(counter as usize, i);
        }
        let mut labels: Vec<&str> = Counter::ALL.iter().map(|c| c.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), Counter::ALL.len());
    }
}
