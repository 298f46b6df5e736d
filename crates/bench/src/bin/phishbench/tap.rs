//! Host-time attribution of the program's spans.
//!
//! [`SpanTap`] rides on the public `ObsSink::tee` hook: it sees every
//! span start and end the simulation emits, in append order, on the
//! thread that emitted it, and stamps each with `Instant::now()`. The
//! host time between two consecutive records of one thread is charged
//! to the innermost span open on that thread, which is a span's self
//! time under interval nesting: its duration minus the part its child
//! spans cover. Time outside every span is not charged; the benchmark
//! wraps its own timed calls in a root span so that time lands there.
//!
//! Two kinds of span get a count but no time:
//! * spans whose start and end do not nest last-in-first-out on their
//!   thread, such as `fleet.report`, which opens at intake and closes
//!   whenever the fleet's event loop completes the report;
//! * spans opened after their work is done, such as
//!   `browser.challenge`, which the browser emits back to back once a
//!   dialog or CAPTCHA round has finished.
//!
//! The names known to behave this way are listed in [`COUNT_ONLY`] and
//! never take a charge, so the time passes to the span enclosing them.
//! Any other name that closes out of order is detected and also
//! reported as count only, with the time it was charged dropped.

use phishsim_simnet::{ObsKind, ObsRecord, ObsTap, SpanId};
use std::collections::{BTreeMap, HashMap};
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::{Duration, Instant};

/// Span names that never take a time charge (see the module docs).
pub const COUNT_ONLY: [&str; 2] = ["fleet.report", "browser.challenge"];

/// What the tap measured for one span name.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanStats {
    /// Spans started.
    pub count: u64,
    /// Host self time in seconds, or `None` when the name is count
    /// only.
    pub self_s: Option<f64>,
}

/// An `ObsTap` that attributes host time to span names.
#[derive(Debug, Default)]
pub struct SpanTap {
    state: Mutex<TapState>,
}

#[derive(Debug, Default)]
struct TapState {
    threads: HashMap<ThreadId, Frames>,
    names: Vec<NameStats>,
    index: HashMap<String, usize>,
}

#[derive(Debug)]
struct NameStats {
    name: String,
    count: u64,
    charged: Duration,
    count_only: bool,
    out_of_order: u64,
}

/// One thread's open spans.
#[derive(Debug)]
struct Frames {
    /// Open spans that take time charges, innermost last.
    stack: Vec<(SpanId, usize)>,
    /// Open count-only spans, by id.
    uncharged: HashMap<SpanId, usize>,
    /// When this thread's previous record arrived.
    last: Instant,
}

impl SpanTap {
    /// Per-name statistics, by name.
    pub fn report(&self) -> BTreeMap<String, SpanStats> {
        let state = self.state.lock().expect("tap lock poisoned");
        state
            .names
            .iter()
            .map(|n| {
                let timed = !n.count_only && n.out_of_order == 0;
                let stats = SpanStats {
                    count: n.count,
                    self_s: timed.then_some(n.charged.as_secs_f64()),
                };
                (n.name.clone(), stats)
            })
            .collect()
    }

    /// Consume one record as emitted on `thread` at host time `now`.
    fn record_at(&self, rec: &ObsRecord, thread: ThreadId, now: Instant) {
        let mut guard = self.state.lock().expect("tap lock poisoned");
        let state = &mut *guard;
        let frames = state.threads.entry(thread).or_insert_with(|| Frames {
            stack: Vec::new(),
            uncharged: HashMap::new(),
            last: now,
        });
        if let Some(&(_, idx)) = frames.stack.last() {
            state.names[idx].charged += now.saturating_duration_since(frames.last);
        }
        frames.last = now;
        match &rec.kind {
            ObsKind::SpanStart { id, name, .. } => {
                let idx = match state.index.get(name.as_str()) {
                    Some(&idx) => idx,
                    None => {
                        state.names.push(NameStats {
                            name: name.clone(),
                            count: 0,
                            charged: Duration::ZERO,
                            count_only: COUNT_ONLY.contains(&name.as_str()),
                            out_of_order: 0,
                        });
                        state.index.insert(name.clone(), state.names.len() - 1);
                        state.names.len() - 1
                    }
                };
                state.names[idx].count += 1;
                if state.names[idx].count_only {
                    frames.uncharged.insert(*id, idx);
                } else {
                    frames.stack.push((*id, idx));
                }
            }
            ObsKind::SpanEnd { id } => {
                if frames.stack.last().is_some_and(|&(top, _)| top == *id) {
                    frames.stack.pop();
                } else if let Some(pos) = frames.stack.iter().rposition(|&(s, _)| s == *id) {
                    let (_, idx) = frames.stack.remove(pos);
                    state.names[idx].out_of_order += 1;
                } else {
                    frames.uncharged.remove(id);
                }
            }
            ObsKind::Point { .. } => {}
        }
    }
}

impl ObsTap for SpanTap {
    fn record(&self, rec: &ObsRecord) {
        self.record_at(rec, std::thread::current().id(), Instant::now());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phishsim_simnet::SimTime;

    /// Replays `(ms, event)` pairs on one thread: `+name` opens a span
    /// whose id is the event's position, `-k` closes the span opened at
    /// position `k`.
    fn replay(tap: &SpanTap, thread: ThreadId, events: &[(u64, &str)]) {
        let base = Instant::now();
        for (pos, (ms, ev)) in events.iter().enumerate() {
            let kind = match ev.strip_prefix('+') {
                Some(name) => ObsKind::SpanStart {
                    id: SpanId::from_raw(pos as u64 + 1),
                    parent: None,
                    name: name.to_string(),
                    actor: "test".to_string(),
                },
                None => {
                    let k: u64 = ev[1..].parse().expect("-k closes the span opened at k");
                    ObsKind::SpanEnd {
                        id: SpanId::from_raw(k + 1),
                    }
                }
            };
            let rec = ObsRecord {
                at: SimTime::ZERO,
                seq: pos as u64,
                kind,
            };
            tap.record_at(&rec, thread, base + Duration::from_millis(*ms));
        }
    }

    fn self_ms(tap: &SpanTap, name: &str) -> Option<u64> {
        tap.report()[name].self_s.map(|s| (s * 1e3).round() as u64)
    }

    fn this_thread() -> ThreadId {
        std::thread::current().id()
    }

    #[test]
    fn nested_spans_get_duration_minus_children() {
        let tap = SpanTap::default();
        let events = [
            (0, "+outer"),
            (10, "+inner"),
            (30, "-1"),
            (35, "+inner"),
            (40, "-3"),
            (50, "-0"),
        ];
        replay(&tap, this_thread(), &events);
        assert_eq!(self_ms(&tap, "outer"), Some(25));
        assert_eq!(self_ms(&tap, "inner"), Some(25));
        assert_eq!(tap.report()["inner"].count, 2);
    }

    #[test]
    fn out_of_order_names_are_count_only() {
        let tap = SpanTap::default();
        // `a` closes while `b`, opened inside it, is still open.
        let events = [
            (0, "+loop"),
            (5, "+a"),
            (10, "+b"),
            (20, "-1"),
            (30, "-2"),
            (40, "-0"),
        ];
        replay(&tap, this_thread(), &events);
        let report = tap.report();
        assert_eq!(report["a"].count, 1);
        assert_eq!(report["a"].self_s, None, "closed out of order");
        assert_eq!(self_ms(&tap, "b"), Some(20));
        assert_eq!(self_ms(&tap, "loop"), Some(15));
    }

    #[test]
    fn known_interleaved_names_pass_time_to_the_enclosing_span() {
        let tap = SpanTap::default();
        // Two fleet reports interleave inside the event loop; a crawl
        // nests properly under the loop while both are open.
        let events = [
            (0, "+fleet.loop"),
            (10, "+fleet.report"),
            (20, "+fleet.report"),
            (30, "+fleet.crawl"),
            (45, "-3"),
            (50, "-1"),
            (60, "-2"),
            (70, "-0"),
        ];
        replay(&tap, this_thread(), &events);
        let report = tap.report();
        assert_eq!(report["fleet.report"].count, 2);
        assert_eq!(report["fleet.report"].self_s, None);
        assert_eq!(self_ms(&tap, "fleet.crawl"), Some(15));
        assert_eq!(self_ms(&tap, "fleet.loop"), Some(55));
    }

    #[test]
    fn retroactive_zero_length_spans_are_counted_without_time() {
        let tap = SpanTap::default();
        let events = [
            (0, "+browser.visit"),
            (12, "+browser.challenge"),
            (12, "-1"),
            (20, "-0"),
        ];
        replay(&tap, this_thread(), &events);
        let report = tap.report();
        assert_eq!(report["browser.challenge"].count, 1);
        assert_eq!(report["browser.challenge"].self_s, None);
        assert_eq!(self_ms(&tap, "browser.visit"), Some(20));
    }

    #[test]
    fn threads_nest_independently() {
        let tap = SpanTap::default();
        let other = std::thread::spawn(|| std::thread::current().id())
            .join()
            .expect("id thread ran");
        replay(&tap, this_thread(), &[(0, "+run"), (40, "-0")]);
        replay(
            &tap,
            other,
            &[(0, "+run"), (10, "+inner"), (15, "-1"), (30, "-0")],
        );
        assert_eq!(self_ms(&tap, "run"), Some(65));
        assert_eq!(self_ms(&tap, "inner"), Some(5));
    }
}
