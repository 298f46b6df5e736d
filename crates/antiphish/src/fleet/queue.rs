//! Sharded, bounded report queues with deterministic work-stealing.
//!
//! Each simulated worker owns one bounded shard. A worker pops the
//! *best* report from its own shard (front of the ordering); an idle
//! worker steals from the *opposite* end of a victim's shard — the
//! classic work-stealing split, which keeps the hot end of each deque
//! owner-local. Shards are `BTreeMap`s keyed by `(rank, seq)`, so both
//! ends are O(log n) and iteration order — hence the whole fleet — is
//! fully deterministic.
//!
//! The queue discipline is pluggable via the rank: FIFO ranks
//! everything equally (arrival sequence breaks ties), while
//! feed-reputation ranks high-reputation feeds ahead of low ones. The
//! `fleet_sweep` experiment charts how that choice moves
//! time-to-blacklist when the fleet saturates.

use phishsim_simnet::SimTime;
use std::collections::BTreeMap;

/// How a shard orders the reports it holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum QueueDiscipline {
    /// First-in first-out by fleet arrival sequence.
    Fifo,
    /// Higher feed reputation first; arrival sequence breaks ties.
    FeedReputation,
}

impl QueueDiscipline {
    /// Stable key for result tables.
    pub fn key(self) -> &'static str {
        match self {
            QueueDiscipline::Fifo => "fifo",
            QueueDiscipline::FeedReputation => "feed_reputation",
        }
    }

    fn rank(self, reputation: u16) -> u64 {
        match self {
            QueueDiscipline::Fifo => 0,
            // Invert so high reputation sorts first under `pop_first`.
            QueueDiscipline::FeedReputation => u64::from(u16::MAX - reputation),
        }
    }
}

/// A report sitting in a shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueuedReport {
    /// Index into the fleet's arrival list.
    pub idx: u32,
    /// When the report entered a shard (for queue-wait accounting).
    pub enqueued_at: SimTime,
    /// Reputation of the feed that reported it (0..=u16::MAX).
    pub reputation: u16,
}

/// Error returned when a shard is at capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardFull;

/// The fleet's sharded queue: one bounded shard per worker.
#[derive(Debug)]
pub struct ShardedQueue {
    discipline: QueueDiscipline,
    capacity: usize,
    shards: Vec<BTreeMap<(u64, u64), QueuedReport>>,
    seq: u64,
    /// Reports queued across all shards, kept as shards change.
    total: usize,
    deepest_total: usize,
}

impl ShardedQueue {
    /// `workers` shards, each holding at most `capacity` reports.
    pub fn new(workers: usize, capacity: usize, discipline: QueueDiscipline) -> Self {
        assert!(workers > 0, "fleet needs at least one worker");
        assert!(capacity > 0, "shard capacity must be positive");
        ShardedQueue {
            discipline,
            capacity,
            shards: (0..workers).map(|_| BTreeMap::new()).collect(),
            seq: 0,
            total: 0,
            deepest_total: 0,
        }
    }

    /// Number of shards (= workers).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Reports currently queued in `shard`.
    pub fn depth(&self, shard: usize) -> usize {
        self.shards[shard].len()
    }

    /// Reports queued across all shards.
    pub fn total_depth(&self) -> usize {
        self.total
    }

    /// High-water mark of [`ShardedQueue::total_depth`].
    pub fn deepest_total(&self) -> usize {
        self.deepest_total
    }

    /// The shard with the fewest queued reports (lowest index wins
    /// ties, keeping spill placement deterministic).
    pub fn least_loaded(&self) -> usize {
        self.shards
            .iter()
            .enumerate()
            .min_by_key(|(i, s)| (s.len(), *i))
            .map(|(i, _)| i)
            .expect("at least one shard")
    }

    /// Enqueue onto `shard`; fails without mutating when full.
    pub fn push(&mut self, shard: usize, report: QueuedReport) -> Result<(), ShardFull> {
        if self.shards[shard].len() >= self.capacity {
            return Err(ShardFull);
        }
        let rank = self.discipline.rank(report.reputation);
        self.shards[shard].insert((rank, self.seq), report);
        self.seq += 1;
        self.total += 1;
        self.deepest_total = self.deepest_total.max(self.total);
        Ok(())
    }

    /// Pop the best-ranked report from the worker's own shard.
    pub fn pop_local(&mut self, shard: usize) -> Option<QueuedReport> {
        let (_, r) = self.shards[shard].pop_first()?;
        self.total -= 1;
        Some(r)
    }

    /// Steal the *worst*-ranked report from a victim's shard — the
    /// opposite end from [`ShardedQueue::pop_local`], so thieves and
    /// the owner contend for different reports.
    pub fn steal_from(&mut self, victim: usize) -> Option<QueuedReport> {
        let (_, r) = self.shards[victim].pop_last()?;
        self.total -= 1;
        Some(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(idx: u32, reputation: u16) -> QueuedReport {
        QueuedReport {
            idx,
            enqueued_at: SimTime::ZERO,
            reputation,
        }
    }

    #[test]
    fn fifo_pops_in_arrival_order() {
        let mut q = ShardedQueue::new(1, 8, QueueDiscipline::Fifo);
        for i in 0..4 {
            q.push(0, report(i, (i % 2) as u16 * 100)).unwrap();
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop_local(0))
            .map(|r| r.idx)
            .collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
    }

    #[test]
    fn reputation_discipline_pops_high_rep_first() {
        let mut q = ShardedQueue::new(1, 8, QueueDiscipline::FeedReputation);
        q.push(0, report(0, 10)).unwrap();
        q.push(0, report(1, 900)).unwrap();
        q.push(0, report(2, 10)).unwrap();
        q.push(0, report(3, 900)).unwrap();
        let order: Vec<u32> = std::iter::from_fn(|| q.pop_local(0))
            .map(|r| r.idx)
            .collect();
        // High reputation first; arrival sequence breaks ties.
        assert_eq!(order, vec![1, 3, 0, 2]);
    }

    #[test]
    fn steal_takes_the_opposite_end() {
        let mut q = ShardedQueue::new(2, 8, QueueDiscipline::FeedReputation);
        q.push(0, report(0, 900)).unwrap();
        q.push(0, report(1, 10)).unwrap();
        // Owner gets the high-reputation report, the thief the stale one.
        assert_eq!(q.steal_from(0).unwrap().idx, 1);
        assert_eq!(q.pop_local(0).unwrap().idx, 0);
        assert!(q.steal_from(0).is_none());
    }

    #[test]
    fn bounded_shard_rejects_when_full() {
        let mut q = ShardedQueue::new(2, 2, QueueDiscipline::Fifo);
        q.push(0, report(0, 0)).unwrap();
        q.push(0, report(1, 0)).unwrap();
        assert_eq!(q.push(0, report(2, 0)), Err(ShardFull));
        assert_eq!(q.depth(0), 2, "failed push must not mutate");
        // Spill target: shard 1 is empty.
        assert_eq!(q.least_loaded(), 1);
        q.push(1, report(2, 0)).unwrap();
        assert_eq!(q.total_depth(), 3);
        assert_eq!(q.deepest_total(), 3);
    }

    #[test]
    fn total_depth_tracks_every_shard_change() {
        let mut q = ShardedQueue::new(3, 2, QueueDiscipline::FeedReputation);
        let sum = |q: &ShardedQueue| (0..q.shard_count()).map(|s| q.depth(s)).sum::<usize>();
        for i in 0..9u32 {
            let _ = q.push(i as usize % 3, report(i, (i * 37 % 1000) as u16));
            assert_eq!(q.total_depth(), sum(&q));
        }
        assert_eq!(q.total_depth(), 6, "three pushes hit full shards");
        assert!(q.steal_from(1).is_some());
        assert!(q.pop_local(0).is_some());
        assert_eq!(q.total_depth(), sum(&q));
        while q.pop_local(2).is_some() {}
        assert!(q.pop_local(2).is_none() && q.steal_from(2).is_none());
        assert_eq!(q.total_depth(), sum(&q));
        assert_eq!(q.total_depth(), 2);
        assert_eq!(q.deepest_total(), 6);
    }
}
