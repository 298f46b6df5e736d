//! Discrete-event scheduler.
//!
//! A [`Scheduler`] is a time-ordered queue of typed events. Events
//! scheduled for the same instant pop in FIFO order (stable sequence
//! numbers), which keeps simulations deterministic. The experiment
//! framework in `phishsim-core` drives one scheduler per experiment run:
//! report submissions, crawl visits, blacklist publications and feed
//! polls are all events.
//!
//! # Calendar/bucket queue
//!
//! Internally the queue is a *calendar queue*: a ring of `BUCKETS`
//! time buckets, each [`WIDTH_MS`] of simulated time wide, plus a
//! binary-heap overflow for events beyond the ring's horizon. Inserts
//! within the horizon are O(1) pushes into a bucket; pops walk the
//! ring in time order and lazily sort the active bucket (cheap —
//! buckets are small) with the same `(at, seq)` tie-break the old
//! single `BinaryHeap` used, so pop order is bit-for-bit unchanged.
//! Bucket vectors live in fixed ring slots and are reused as the
//! window wraps, so a steady-state scheduler stops allocating: the
//! per-event heap churn the old implementation paid is gone, which is
//! what lets many sweep workers run without serializing inside the
//! global allocator.
//!
//! Three structural moves keep the mapping `bucket = (t / WIDTH_MS) %
//! BUCKETS` honest:
//!
//! * **migration** — when the window advances one bucket, overflow
//!   events that now fall inside the horizon move into the ring;
//! * **jump** — when the ring drains while the overflow still holds
//!   events, the window re-anchors at the earliest overflow event
//!   instead of stepping bucket-by-bucket across empty time;
//! * **rebase** (rare) — if, after a jump, a caller legally schedules
//!   an event *earlier* than the re-anchored window (but still `>=
//!   now`), the ring is dumped into the overflow and re-anchored at
//!   that event. Deterministic, counted in `sched.rebases`.
//!
//! Cancellation is lazy (tombstones swept at pop) with periodic
//! compaction, exactly as before; `len()` tracks the alive set so the
//! count never depends on tombstone placement.

use crate::hash::BuildSymHasher;
use crate::obs::ObsSink;
use crate::time::{SimDuration, SimTime};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};

/// Width of one calendar bucket in simulated milliseconds. A power of
/// two so the floor/index arithmetic stays shift-and-mask. One second
/// of simulated time per bucket matches the dominant cadences (retry
/// timers, crawl pacing) while keeping same-bucket sorts tiny.
const WIDTH_MS: u64 = 1024;

/// Number of buckets in the ring; the addressable window is
/// `BUCKETS * WIDTH_MS` ≈ 65 s of simulated time. Events beyond it sit
/// in the overflow heap until the window reaches them.
const BUCKETS: usize = 64;

/// Identifier of a scheduled event, usable for cancellation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(u64);

struct Entry<E> {
    at: SimTime,
    seq: u64,
    id: EventId,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so earliest time pops first,
        // breaking ties by insertion order.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// One calendar slot: entries kept unsorted on insert and sorted
/// descending by `(at, seq)` on first pop (so `pop()` takes from the
/// back). The vector stays in its ring slot when drained, retaining
/// capacity for the next lap of the window.
struct Bucket<E> {
    entries: Vec<Entry<E>>,
    /// True when an insert may have broken the descending sort.
    dirty: bool,
}

impl<E> Default for Bucket<E> {
    fn default() -> Self {
        Bucket {
            entries: Vec::new(),
            dirty: false,
        }
    }
}

/// A deterministic discrete-event queue.
///
/// ```
/// use phishsim_simnet::{Scheduler, SimTime, SimDuration};
///
/// let mut sched: Scheduler<&str> = Scheduler::new();
/// sched.schedule_at(SimTime::from_mins(10), "crawl");
/// sched.schedule_at(SimTime::from_mins(5), "report");
/// let (t, ev) = sched.pop().unwrap();
/// assert_eq!((t.as_mins(), ev), (5, "report"));
/// ```
pub struct Scheduler<E> {
    /// Calendar ring; empty until the first in-window insert so that
    /// short-lived schedulers (retry timers) stay allocation-free.
    ring: Vec<Bucket<E>>,
    /// Start of the addressable window, a multiple of `WIDTH_MS`.
    ring_base: u64,
    /// Ring index of the bucket holding `ring_base`.
    cur: usize,
    /// Physical entries in the ring, tombstones included.
    ring_len: usize,
    /// Events at or beyond `ring_base + BUCKETS * WIDTH_MS`.
    overflow: BinaryHeap<Entry<E>>,
    now: SimTime,
    next_seq: u64,
    /// IDs scheduled and not yet popped or cancelled. `len()` is this
    /// set's size, so cancelling an already-popped ID cannot skew the
    /// count. Both sets take an insert or removal per event, so they
    /// hash with the simulation's fast hasher.
    alive: HashSet<EventId, BuildSymHasher>,
    /// Lazily-deleted IDs still sitting in the ring or overflow.
    cancelled: HashSet<EventId, BuildSymHasher>,
    /// Observability sink; `Null` by default and free when disabled.
    obs: ObsSink,
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Scheduler<E> {
    /// Create an empty scheduler at time zero.
    pub fn new() -> Self {
        Scheduler {
            ring: Vec::new(),
            ring_base: 0,
            cur: 0,
            ring_len: 0,
            overflow: BinaryHeap::new(),
            now: SimTime::ZERO,
            next_seq: 0,
            alive: HashSet::default(),
            cancelled: HashSet::default(),
            obs: ObsSink::Null,
        }
    }

    /// Attach an observability sink. Dispatch, cancellation and
    /// compaction counts flow into its registry; the tombstone gauge
    /// tracks the lazy-delete set.
    pub fn with_obs(mut self, obs: ObsSink) -> Self {
        self.obs = obs;
        self
    }

    /// Current simulated time: the timestamp of the most recently popped
    /// event (or zero).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.alive.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of lazily-deleted tombstones still sitting in the queue.
    /// Exposed so churn tests can assert that compaction bounds the
    /// queue under schedule/cancel storms (e.g. from retry timers).
    pub fn tombstone_count(&self) -> usize {
        self.cancelled.len()
    }

    /// End of the addressable window (exclusive).
    fn ring_limit(&self) -> u64 {
        self.ring_base + (BUCKETS as u64) * WIDTH_MS
    }

    /// Ring index for an in-window timestamp.
    fn idx_for(t: u64) -> usize {
        ((t / WIDTH_MS) as usize) % BUCKETS
    }

    /// Largest multiple of `WIDTH_MS` at or below `t`.
    fn bucket_floor(t: u64) -> u64 {
        t & !(WIDTH_MS - 1)
    }

    /// Schedule an event at an absolute time. Scheduling in the past is a
    /// logic error and panics: discrete-event time must be monotonic.
    pub fn schedule_at(&mut self, at: SimTime, payload: E) -> EventId {
        assert!(
            at >= self.now,
            "event scheduled in the past: {} < now {}",
            at,
            self.now
        );
        let id = EventId(self.next_seq);
        let entry = Entry {
            at,
            seq: self.next_seq,
            id,
            payload,
        };
        self.insert(entry);
        self.alive.insert(id);
        self.next_seq += 1;
        self.obs.incr("sched.scheduled");
        id
    }

    /// Schedule an event `delay` after the current time.
    pub fn schedule_after(&mut self, delay: SimDuration, payload: E) -> EventId {
        self.schedule_at(self.now + delay, payload)
    }

    /// Route an entry to its bucket or the overflow heap.
    fn insert(&mut self, entry: Entry<E>) {
        let t = entry.at.as_millis();
        if t < self.ring_base {
            // A jump re-anchored the window ahead of `now`; this event
            // is earlier than the window but still legal. Re-anchor.
            self.rebase(t);
        }
        if t >= self.ring_limit() {
            self.overflow.push(entry);
            return;
        }
        if self.ring.is_empty() {
            self.ring = (0..BUCKETS).map(|_| Bucket::default()).collect();
        }
        let bucket = &mut self.ring[Self::idx_for(t)];
        bucket.entries.push(entry);
        bucket.dirty = true;
        self.ring_len += 1;
    }

    /// Dump the ring into the overflow and re-anchor the window at `t`,
    /// then migrate back whatever fits. Rare (only after a jump skipped
    /// ahead of `now`), deterministic, and O(n log n) in queue size.
    fn rebase(&mut self, t: u64) {
        for bucket in &mut self.ring {
            self.overflow.extend(bucket.entries.drain(..));
            bucket.dirty = false;
        }
        self.ring_len = 0;
        self.ring_base = Self::bucket_floor(t);
        self.cur = Self::idx_for(self.ring_base);
        self.obs.incr("sched.rebases");
        self.migrate();
    }

    /// Pull overflow events that now fall inside the window into their
    /// buckets.
    fn migrate(&mut self) {
        let limit = self.ring_limit();
        while let Some(head) = self.overflow.peek() {
            if head.at.as_millis() >= limit {
                break;
            }
            let entry = self.overflow.pop().expect("peeked entry exists");
            if self.ring.is_empty() {
                self.ring = (0..BUCKETS).map(|_| Bucket::default()).collect();
            }
            let bucket = &mut self.ring[Self::idx_for(entry.at.as_millis())];
            bucket.entries.push(entry);
            bucket.dirty = true;
            self.ring_len += 1;
        }
    }

    /// Position `cur` at the earliest non-empty bucket, jumping the
    /// window across empty stretches. Returns false when the queue is
    /// physically empty (tombstones included).
    fn locate_front(&mut self) -> bool {
        loop {
            if self.ring_len == 0 {
                if self.overflow.is_empty() {
                    return false;
                }
                // Jump: re-anchor at the earliest overflow event.
                let t = self.overflow.peek().expect("non-empty").at.as_millis();
                self.ring_base = Self::bucket_floor(t);
                self.cur = Self::idx_for(self.ring_base);
                self.migrate();
                debug_assert!(self.ring_len > 0);
                continue;
            }
            if !self.ring[self.cur].entries.is_empty() {
                return true;
            }
            // Step one bucket; the vacated slot becomes the top of the
            // window, so newly-addressable overflow events migrate in.
            self.cur = (self.cur + 1) % BUCKETS;
            self.ring_base += WIDTH_MS;
            self.migrate();
        }
    }

    /// Cancel a pending event. Returns true if the event was still
    /// pending; cancelling an already-popped, already-cancelled, or
    /// never-issued ID is a no-op returning false.
    pub fn cancel(&mut self, id: EventId) -> bool {
        // Only events that are genuinely pending may grow the tombstone
        // set, so every tombstone has exactly one queue counterpart.
        if !self.alive.remove(&id) {
            return false;
        }
        // Lazy deletion: mark and skip at pop time.
        self.cancelled.insert(id);
        self.obs.incr("sched.cancelled");
        self.obs
            .gauge("sched.tombstones", self.now, self.cancelled.len() as i64);
        self.maybe_compact();
        true
    }

    /// Physically remove tombstoned entries once they dominate the
    /// queue, bounding memory for workloads that cancel most of what
    /// they schedule. O(queue) rebuild, amortised by the >=1/2 trigger.
    fn maybe_compact(&mut self) {
        let physical = self.ring_len + self.overflow.len();
        if self.cancelled.len() >= 64 && self.cancelled.len() * 2 >= physical {
            let swept = self.cancelled.len() as u64;
            let cancelled = std::mem::take(&mut self.cancelled);
            for bucket in &mut self.ring {
                let before = bucket.entries.len();
                // retain preserves order, so a clean bucket stays clean.
                bucket.entries.retain(|e| !cancelled.contains(&e.id));
                self.ring_len -= before - bucket.entries.len();
            }
            let entries: Vec<Entry<E>> = std::mem::take(&mut self.overflow)
                .into_iter()
                .filter(|e| !cancelled.contains(&e.id))
                .collect();
            self.overflow = BinaryHeap::from(entries);
            self.obs.incr("sched.compactions");
            self.obs.add("sched.tombstones_swept", swept);
            self.obs.gauge("sched.tombstones", self.now, 0);
        }
    }

    /// Pop the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let at = self.peek_time()?;
        // peek_time left `cur` on a sorted bucket whose back entry is
        // alive and is the global minimum.
        let entry = self.ring[self.cur].entries.pop().expect("peeked front");
        self.ring_len -= 1;
        debug_assert_eq!(entry.at, at);
        self.alive.remove(&entry.id);
        debug_assert!(entry.at >= self.now);
        self.now = entry.at;
        self.obs.incr("sched.dispatched");
        Some((entry.at, entry.payload))
    }

    /// Pop the next event only if it occurs at or before `deadline`.
    pub fn pop_until(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
        if self.peek_time()? <= deadline {
            self.pop()
        } else {
            None
        }
    }

    /// Timestamp of the next pending event without popping it.
    /// Tombstones encountered on the way are swept.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        loop {
            if !self.locate_front() {
                return None;
            }
            let bucket = &mut self.ring[self.cur];
            if bucket.dirty {
                bucket
                    .entries
                    .sort_unstable_by_key(|e| std::cmp::Reverse((e.at, e.seq)));
                bucket.dirty = false;
            }
            let front = bucket.entries.last().expect("located non-empty bucket");
            if self.cancelled.contains(&front.id) {
                let e = bucket.entries.pop().expect("front exists");
                self.ring_len -= 1;
                self.cancelled.remove(&e.id);
                continue;
            }
            return Some(front.at);
        }
    }

    /// Advance the clock manually (e.g. to close out an experiment horizon
    /// with no remaining events). Panics if `to` is in the past.
    pub fn advance_to(&mut self, to: SimTime) {
        assert!(to >= self.now, "cannot rewind the clock");
        self.now = to;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut s: Scheduler<u32> = Scheduler::new();
        s.schedule_at(SimTime::from_mins(30), 3);
        s.schedule_at(SimTime::from_mins(10), 1);
        s.schedule_at(SimTime::from_mins(20), 2);
        let order: Vec<u32> = std::iter::from_fn(|| s.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn simultaneous_events_fifo() {
        let mut s: Scheduler<u32> = Scheduler::new();
        let t = SimTime::from_mins(5);
        for i in 0..10 {
            s.schedule_at(t, i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| s.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<u32>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut s: Scheduler<&str> = Scheduler::new();
        s.schedule_at(SimTime::from_mins(7), "a");
        assert_eq!(s.now(), SimTime::ZERO);
        s.pop();
        assert_eq!(s.now(), SimTime::from_mins(7));
    }

    #[test]
    fn schedule_after_is_relative() {
        let mut s: Scheduler<&str> = Scheduler::new();
        s.schedule_at(SimTime::from_mins(10), "first");
        s.pop();
        s.schedule_after(SimDuration::from_mins(5), "second");
        let (t, _) = s.pop().unwrap();
        assert_eq!(t, SimTime::from_mins(15));
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_in_past_panics() {
        let mut s: Scheduler<&str> = Scheduler::new();
        s.schedule_at(SimTime::from_mins(10), "a");
        s.pop();
        s.schedule_at(SimTime::from_mins(5), "too late");
    }

    #[test]
    fn cancellation() {
        let mut s: Scheduler<&str> = Scheduler::new();
        let id = s.schedule_at(SimTime::from_mins(1), "cancel me");
        s.schedule_at(SimTime::from_mins(2), "keep");
        assert!(s.cancel(id));
        assert!(!s.cancel(id), "double-cancel reports false");
        assert_eq!(s.len(), 1);
        let (_, e) = s.pop().unwrap();
        assert_eq!(e, "keep");
        assert!(s.pop().is_none());
    }

    #[test]
    fn cancel_unknown_id_is_false() {
        let mut s: Scheduler<&str> = Scheduler::new();
        assert!(!s.cancel(EventId(99)));
    }

    #[test]
    fn cancel_after_pop_does_not_corrupt_len() {
        // Regression: cancelling an ID that was already popped used to
        // insert a tombstone with no queue counterpart, making
        // `physical - cancelled` over-subtract (and underflow once the
        // queue drained).
        let mut s: Scheduler<&str> = Scheduler::new();
        let id = s.schedule_at(SimTime::from_mins(1), "popped");
        s.schedule_at(SimTime::from_mins(2), "pending");
        s.pop();
        assert!(!s.cancel(id), "cancelling a popped event is a no-op");
        assert_eq!(s.len(), 1);
        assert!(!s.is_empty());
        s.pop();
        assert!(!s.cancel(id));
        assert_eq!(s.len(), 0, "previously underflowed");
        assert!(s.is_empty());
    }

    #[test]
    fn mass_cancellation_compacts_tombstones() {
        let mut s: Scheduler<u32> = Scheduler::new();
        let ids: Vec<EventId> = (0..1000)
            .map(|i| s.schedule_at(SimTime::from_mins(i + 1), i as u32))
            .collect();
        // Cancel all but one; the tombstone set must not retain ~999
        // entries alongside a drained queue.
        for id in &ids[1..] {
            assert!(s.cancel(*id));
        }
        assert_eq!(s.len(), 1);
        assert!(s.cancelled.len() < 64, "tombstones were compacted");
        let (t, e) = s.pop().unwrap();
        assert_eq!((t.as_mins(), e), (1, 0));
        assert!(s.pop().is_none());
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn interleaved_cancel_pop_keeps_len_consistent() {
        let mut s: Scheduler<u64> = Scheduler::new();
        let mut expect = 0usize;
        let mut ids = Vec::new();
        for round in 0..200u64 {
            let id = s.schedule_at(SimTime::from_mins(round + 1), round);
            ids.push(id);
            expect += 1;
            if round % 3 == 0 && s.cancel(ids[(round / 2) as usize]) {
                expect -= 1;
            }
            if round % 5 == 0 && s.pop().is_some() {
                expect -= 1;
            }
            assert_eq!(s.len(), expect, "round {round}");
        }
        while s.pop().is_some() {
            expect -= 1;
        }
        assert_eq!(expect, 0);
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn pop_until_respects_deadline() {
        let mut s: Scheduler<&str> = Scheduler::new();
        s.schedule_at(SimTime::from_mins(10), "early");
        s.schedule_at(SimTime::from_hours(30), "late");
        assert!(s.pop_until(SimTime::from_hours(24)).is_some());
        assert!(s.pop_until(SimTime::from_hours(24)).is_none());
        assert_eq!(s.len(), 1, "late event still pending");
    }

    #[test]
    fn peek_skips_cancelled() {
        let mut s: Scheduler<&str> = Scheduler::new();
        let id = s.schedule_at(SimTime::from_mins(1), "gone");
        s.schedule_at(SimTime::from_mins(2), "next");
        s.cancel(id);
        assert_eq!(s.peek_time(), Some(SimTime::from_mins(2)));
    }

    #[test]
    fn obs_counts_dispatch_cancel_and_compaction() {
        let sink = ObsSink::memory();
        let mut s: Scheduler<u32> = Scheduler::new().with_obs(sink.clone());
        let ids: Vec<EventId> = (0..200)
            .map(|i| s.schedule_at(SimTime::from_mins(i + 1), i as u32))
            .collect();
        for id in &ids[..150] {
            s.cancel(*id);
        }
        while s.pop().is_some() {}
        let m = sink.metrics();
        assert_eq!(m.counter("sched.scheduled"), 200);
        assert_eq!(m.counter("sched.cancelled"), 150);
        assert_eq!(m.counter("sched.dispatched"), 50);
        assert!(m.counter("sched.compactions") >= 1);
        assert_eq!(
            m.counter("sched.cancelled"),
            m.counter("sched.scheduled") - m.counter("sched.dispatched")
        );
    }

    #[test]
    fn advance_to_moves_clock() {
        let mut s: Scheduler<()> = Scheduler::new();
        s.advance_to(SimTime::from_hours(24));
        assert_eq!(s.now(), SimTime::from_hours(24));
    }

    // ---- calendar-queue specific behaviour ------------------------

    #[test]
    fn far_future_events_overflow_and_still_pop_in_order() {
        let mut s: Scheduler<u32> = Scheduler::new();
        // Mix of in-window (seconds) and far-future (hours) events.
        s.schedule_at(SimTime::from_hours(20), 4);
        s.schedule_at(SimTime::from_secs(2), 1);
        s.schedule_at(SimTime::from_hours(2), 3);
        s.schedule_at(SimTime::from_secs(50), 2);
        let order: Vec<u32> = std::iter::from_fn(|| s.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3, 4]);
    }

    #[test]
    fn same_instant_fifo_across_window_jump() {
        // Events at an identical far-future instant arrive via the
        // overflow heap; the (at, seq) tie-break must survive the trip.
        let mut s: Scheduler<u32> = Scheduler::new();
        let t = SimTime::from_hours(5);
        for i in 0..20 {
            s.schedule_at(t, i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| s.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..20).collect::<Vec<u32>>());
    }

    #[test]
    fn schedule_before_jumped_window_rebases() {
        let mut s: Scheduler<&str> = Scheduler::new();
        s.schedule_at(SimTime::from_hours(10), "far");
        // Peeking jumps the window to the 10 h mark without moving now.
        assert_eq!(s.peek_time(), Some(SimTime::from_hours(10)));
        assert_eq!(s.now(), SimTime::ZERO);
        // Scheduling at 1 min is legal (>= now) but behind the jumped
        // window; the queue must re-anchor and keep time order.
        s.schedule_at(SimTime::from_mins(1), "near");
        let (t1, e1) = s.pop().unwrap();
        assert_eq!((t1.as_mins(), e1), (1, "near"));
        let (t2, e2) = s.pop().unwrap();
        assert_eq!((t2.as_hours(), e2), (10, "far"));
        assert!(s.pop().is_none());
    }

    #[test]
    fn interleaving_pops_and_inserts_into_active_bucket() {
        // Retry-timer pattern: pop, then schedule within the same
        // bucket, repeatedly. The lazily-sorted active bucket must keep
        // FIFO/time order through dirty re-sorts.
        let mut s: Scheduler<u64> = Scheduler::new();
        s.schedule_at(SimTime::from_millis(10), 0);
        let mut popped = Vec::new();
        let mut next = 1u64;
        while let Some((t, e)) = s.pop() {
            popped.push((t.as_millis(), e));
            if next <= 6 {
                s.schedule_at(SimTime::from_millis(10 + next * 3), next);
                next += 1;
            }
        }
        let times: Vec<u64> = popped.iter().map(|(t, _)| *t).collect();
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(times, sorted, "pop times must be monotonic");
        assert_eq!(popped.len(), 7);
    }

    #[test]
    fn window_wraparound_reuses_ring_slots() {
        // Drive the window through many laps of the ring; ordering must
        // hold and the queue must drain completely.
        let mut s: Scheduler<u64> = Scheduler::new();
        let mut expected = Vec::new();
        for i in 0..500u64 {
            // ~3 events per bucket, spanning ~25 window laps.
            let t = SimTime::from_millis(i * 333);
            s.schedule_at(t, i);
            expected.push(i);
        }
        let order: Vec<u64> = std::iter::from_fn(|| s.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, expected);
        assert!(s.is_empty());
    }

    #[test]
    fn cancel_far_future_event_in_overflow() {
        let mut s: Scheduler<&str> = Scheduler::new();
        let far = s.schedule_at(SimTime::from_hours(9), "cancelled");
        s.schedule_at(SimTime::from_hours(8), "kept");
        assert!(s.cancel(far));
        let (t, e) = s.pop().unwrap();
        assert_eq!((t.as_hours(), e), (8, "kept"));
        assert!(s.pop().is_none());
        assert_eq!(s.tombstone_count(), 0, "tombstone swept on drain");
    }
}
