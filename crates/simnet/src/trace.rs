//! Traffic tracing.
//!
//! The paper's §4 analysis is largely *server log analysis*: counting
//! requests per engine (Table 1), observing that "we received about 90 %
//! of the traffic during the first 2 hours", and discovering that
//! OpenPhish probes for web shells, phishing-kit archives, and stolen
//! credential logs. [`TraceLog`] is the simulated equivalent of the Nginx
//! access log: every HTTP exchange appends a [`TraceEvent`], and the
//! experiment harness answers its questions by querying the log.

use crate::hash::BuildSymHasher;
use crate::ip::Ipv4Sim;
use crate::time::{SimDuration, SimTime};
use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// What kind of exchange a trace event records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum TraceKind {
    /// An HTTP request that reached a simulated web server.
    HttpRequest,
    /// A request dropped by fault injection (never reached the server).
    Dropped,
    /// A report submitted to an anti-phishing entity.
    Report,
    /// A blacklist publication event.
    Blacklist,
    /// An abuse-notification email.
    AbuseEmail,
}

/// One entry in the traffic log, owned (what [`TraceLog::snapshot`] and
/// [`TraceLog::filter`] return).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// When the event occurred.
    pub at: SimTime,
    /// The kind of event.
    pub kind: TraceKind,
    /// Source address (crawler / reporter).
    pub src: Ipv4Sim,
    /// Requested host (domain name).
    pub host: String,
    /// Requested path (including query string, as servers log it).
    pub path: String,
    /// The `User-Agent` presented, if any.
    pub user_agent: Option<String>,
    /// Name of the actor on whose behalf the request was made (an
    /// anti-phishing engine name, `"human"`, etc.). The real experiment
    /// infers this from IP ranges; the simulation records ground truth so
    /// tests can verify the inference logic too.
    pub actor: String,
}

impl TraceEvent {
    /// Borrow this event as a [`TraceView`].
    pub fn view(&self) -> TraceView<'_> {
        TraceView {
            at: self.at,
            kind: self.kind,
            src: self.src,
            host: &self.host,
            path: &self.path,
            user_agent: self.user_agent.as_deref(),
            actor: &self.actor,
        }
    }
}

/// One entry in the traffic log, borrowed from the log's string table:
/// what [`TraceLog::count`] and [`TraceLog::filter`] predicates see.
/// Same fields as [`TraceEvent`], without an allocation per entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceView<'a> {
    /// When the event occurred.
    pub at: SimTime,
    /// The kind of event.
    pub kind: TraceKind,
    /// Source address (crawler / reporter).
    pub src: Ipv4Sim,
    /// Requested host (domain name).
    pub host: &'a str,
    /// Requested path (including query string).
    pub path: &'a str,
    /// The `User-Agent` presented, if any.
    pub user_agent: Option<&'a str>,
    /// Ground-truth actor name.
    pub actor: &'a str,
}

impl TraceView<'_> {
    /// An owned copy of this entry.
    pub fn to_event(&self) -> TraceEvent {
        TraceEvent {
            at: self.at,
            kind: self.kind,
            src: self.src,
            host: self.host.to_string(),
            path: self.path.to_string(),
            user_agent: self.user_agent.map(str::to_string),
            actor: self.actor.to_string(),
        }
    }
}

/// The deterministic total order described on [`TraceLog`]: by time,
/// then by string *content* — never by symbol id — then source, kind
/// and user agent.
fn order(a: &TraceView<'_>, b: &TraceView<'_>) -> Ordering {
    a.at.cmp(&b.at)
        .then_with(|| a.actor.cmp(b.actor))
        .then_with(|| a.host.cmp(b.host))
        .then_with(|| a.path.cmp(b.path))
        .then_with(|| a.src.cmp(&b.src))
        .then_with(|| a.kind.cmp(&b.kind))
        .then_with(|| a.user_agent.cmp(&b.user_agent))
}

/// Symbol of an interned string: its index in [`Store::strings`].
type Sym = u32;

/// The symbol stored for an absent user agent.
const NO_SYM: Sym = Sym::MAX;

/// One stored log line: 32 bytes, its four strings interned.
#[derive(Debug, Clone, Copy)]
struct Entry {
    at: SimTime,
    src: Ipv4Sim,
    kind: TraceKind,
    host: Sym,
    path: Sym,
    user_agent: Sym,
    actor: Sym,
}

const _: () = assert!(std::mem::size_of::<Entry>() == 32);

/// The log's storage: fixed-size entries over a string table. A paper
/// run logs hundreds of thousands of requests but only ~170 distinct
/// strings (hosts, paths, user agents, actors).
#[derive(Debug, Default)]
struct Store {
    entries: Vec<Entry>,
    strings: Vec<Box<str>>,
    symbols: HashMap<Box<str>, Sym, BuildSymHasher>,
}

impl Store {
    fn intern(&mut self, s: &str) -> Sym {
        if let Some(&sym) = self.symbols.get(s) {
            return sym;
        }
        let sym = Sym::try_from(self.strings.len())
            .ok()
            .filter(|&sym| sym != NO_SYM)
            .expect("trace string table overflow");
        self.strings.push(s.into());
        self.symbols.insert(s.into(), sym);
        sym
    }

    /// The symbol of `s`, if it was ever recorded.
    fn lookup(&self, s: &str) -> Option<Sym> {
        self.symbols.get(s).copied()
    }

    /// The symbol of `s`, trying `prev` — the same field's symbol in
    /// the previous entry — before hashing. Compared by content: a
    /// caller may rewrite one buffer in place between appends.
    fn intern_after(&mut self, prev: Option<Sym>, s: &str) -> Sym {
        match prev {
            Some(sym) if sym != NO_SYM && *self.strings[sym as usize] == *s => sym,
            _ => self.intern(s),
        }
    }

    fn push(&mut self, event: TraceView<'_>) {
        // A probe burst logs one host, agent and actor many times in a
        // row, so most fields repeat the previous entry's.
        let prev = self.entries.last().copied();
        let entry = Entry {
            at: event.at,
            src: event.src,
            kind: event.kind,
            host: self.intern_after(prev.map(|e| e.host), event.host),
            path: self.intern_after(prev.map(|e| e.path), event.path),
            user_agent: event.user_agent.map_or(NO_SYM, |ua| {
                self.intern_after(prev.map(|e| e.user_agent), ua)
            }),
            actor: self.intern_after(prev.map(|e| e.actor), event.actor),
        };
        self.entries.push(entry);
    }

    fn view(&self, e: &Entry) -> TraceView<'_> {
        let s = |sym: Sym| &*self.strings[sym as usize];
        TraceView {
            at: e.at,
            kind: e.kind,
            src: e.src,
            host: s(e.host),
            path: s(e.path),
            user_agent: (e.user_agent != NO_SYM).then(|| s(e.user_agent)),
            actor: s(e.actor),
        }
    }

    /// HTTP requests, optionally only those by `actor` and for `host`.
    /// An actor or host never recorded matches nothing.
    fn requests<'s>(
        &'s self,
        actor: Option<&str>,
        host: Option<&str>,
    ) -> impl Iterator<Item = &'s Entry> + 's {
        // A filter on a string the log never saw is `Some(None)`, which
        // no entry's symbol equals.
        let actor = actor.map(|a| self.lookup(a));
        let host = host.map(|h| self.lookup(h));
        self.entries.iter().filter(move |e| {
            e.kind == TraceKind::HttpRequest
                && actor.is_none_or(|a| a == Some(e.actor))
                && host.is_none_or(|h| h == Some(e.host))
        })
    }

    /// Sort into the deterministic total order. Stable, so the append
    /// sequence breaks exact ties.
    fn sort(&self, entries: &mut [Entry]) {
        entries.sort_by(|a, b| order(&self.view(a), &self.view(b)));
    }

    /// Owned copies of `entries`, in the deterministic total order.
    fn sorted_events(&self, mut entries: Vec<Entry>) -> Vec<TraceEvent> {
        self.sort(&mut entries);
        entries.iter().map(|e| self.view(e).to_event()).collect()
    }
}

/// A shared, append-only traffic log.
///
/// Cloning is cheap (an `Arc`); all clones append to the same log. The
/// lock is `parking_lot::RwLock` so concurrent table harnesses can read
/// while a simulation thread appends.
///
/// # Storage
///
/// Entries are stored as 32-byte records whose host, path, user agent
/// and actor are symbols into a per-log string table, so appending a
/// request copies no string the table already holds, and a field whose
/// text equals the previous entry's reuses its symbol without being
/// hashed. Symbols are
/// assigned in first-seen order and never leave this module: no query
/// result depends on them.
///
/// # Ordering
///
/// Appends from parallel sweep workers land in the backing vector in
/// thread-interleaving-dependent order, so raw append order must never
/// leak into records that are supposed to be byte-identical across
/// thread counts. Every order-exposing query therefore sorts on a
/// deterministic total order: `(at, actor, host, path, src, kind,
/// user_agent)`, comparing strings by content, with the append sequence
/// — assigned under the write lock — as the final tie-break (via stable
/// sort). Two events that differ in any field always compare by
/// content; fully identical events are interchangeable in any digest,
/// so the residual append-order tie-break cannot make output
/// thread-dependent.
#[derive(Debug, Clone, Default)]
pub struct TraceLog {
    inner: Arc<RwLock<Store>>,
}

impl TraceLog {
    /// Create an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an event.
    pub fn record(&self, event: TraceEvent) {
        self.inner.write().push(event.view());
    }

    /// Append one HTTP request, borrowing its strings (the hosting
    /// farm's per-request access-log line).
    pub fn record_request(
        &self,
        at: SimTime,
        src: Ipv4Sim,
        host: &str,
        path: &str,
        user_agent: Option<&str>,
        actor: &str,
    ) {
        self.inner.write().push(TraceView {
            at,
            kind: TraceKind::HttpRequest,
            src,
            host,
            path,
            user_agent,
            actor,
        });
    }

    /// Total number of events.
    pub fn len(&self) -> usize {
        self.inner.read().entries.len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.inner.read().entries.is_empty()
    }

    /// Snapshot of all events, in the deterministic total order (see
    /// the type-level ordering note) — not raw append order.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        let store = self.inner.read();
        store.sorted_events(store.entries.clone())
    }

    /// Events matching a predicate, in the deterministic total order.
    pub fn filter<F: Fn(&TraceView<'_>) -> bool>(&self, pred: F) -> Vec<TraceEvent> {
        let store = self.inner.read();
        let hits = store
            .entries
            .iter()
            .filter(|e| pred(&store.view(e)))
            .copied()
            .collect();
        store.sorted_events(hits)
    }

    /// Count of events matching a predicate.
    pub fn count<F: Fn(&TraceView<'_>) -> bool>(&self, pred: F) -> usize {
        let store = self.inner.read();
        store
            .entries
            .iter()
            .filter(|e| pred(&store.view(e)))
            .count()
    }

    /// Number of HTTP requests attributed to `actor` for `host`
    /// (Table 1's "# of requests" column).
    pub fn requests_for(&self, actor: &str, host: Option<&str>) -> usize {
        self.inner.read().requests(Some(actor), host).count()
    }

    /// Unique source IPs attributed to `actor` (Table 1's "Unique IPs").
    pub fn unique_ips_for(&self, actor: &str) -> usize {
        let store = self.inner.read();
        let set: HashSet<Ipv4Sim> = store.requests(Some(actor), None).map(|e| e.src).collect();
        set.len()
    }

    /// For each `(host, start)` query, the fraction of HTTP requests for
    /// `host` arriving within `window` of `start` ("we received about
    /// 90 % of the traffic during the first 2 hours after reporting");
    /// 0 for a host with no requests. One pass over the log answers
    /// every query.
    pub fn fractions_within(&self, queries: &[(&str, SimTime)], window: SimDuration) -> Vec<f64> {
        let store = self.inner.read();
        // Queries by host symbol; hosts never recorded get no slot.
        let mut by_host: Vec<Vec<usize>> = vec![Vec::new(); store.strings.len()];
        for (i, (host, _)) in queries.iter().enumerate() {
            if let Some(sym) = store.lookup(host) {
                by_host[sym as usize].push(i);
            }
        }
        let cutoffs: Vec<SimTime> = queries.iter().map(|&(_, start)| start + window).collect();
        let mut within = vec![0usize; queries.len()];
        let mut total = vec![0usize; queries.len()];
        for e in store.requests(None, None) {
            for &i in &by_host[e.host as usize] {
                total[i] += 1;
                if e.at <= cutoffs[i] {
                    within[i] += 1;
                }
            }
        }
        within
            .iter()
            .zip(&total)
            .map(|(&w, &t)| if t == 0 { 0.0 } else { w as f64 / t as f64 })
            .collect()
    }

    /// Time of the first HTTP request for `host` at or after `start`.
    pub fn first_request_after(&self, host: &str, start: SimTime) -> Option<SimTime> {
        self.inner
            .read()
            .requests(None, Some(host))
            .map(|e| e.at)
            .filter(|&at| at >= start)
            .min()
    }

    /// Histogram of request arrival offsets from `start`, bucketed by
    /// `bucket` width, over `n_buckets` buckets (requests beyond the last
    /// bucket are counted in a final overflow bucket). Used by the
    /// traffic-timing experiment (E3).
    pub fn arrival_histogram(
        &self,
        host: Option<&str>,
        start: SimTime,
        bucket: SimDuration,
        n_buckets: usize,
    ) -> Vec<usize> {
        let mut buckets = vec![0usize; n_buckets + 1];
        for e in self.inner.read().requests(None, host) {
            if e.at < start {
                continue;
            }
            let offset = e.at.since(start).as_millis();
            let idx = (offset / bucket.as_millis().max(1)) as usize;
            buckets[idx.min(n_buckets)] += 1;
        }
        buckets
    }

    /// Paths requested by `actor`, in arrival order (kit-probing
    /// analysis). "Arrival" means simulated time, via the deterministic
    /// total order — raw append order is interleaving-dependent when
    /// sweep workers share a log.
    pub fn paths_for(&self, actor: &str) -> Vec<String> {
        let store = self.inner.read();
        let mut hits: Vec<Entry> = store.requests(Some(actor), None).copied().collect();
        store.sort(&mut hits);
        hits.iter()
            .map(|e| store.view(e).path.to_string())
            .collect()
    }

    /// Clear the log (between experiment phases).
    pub fn clear(&self) {
        *self.inner.write() = Store::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at_min: u64, actor: &str, host: &str, path: &str, src: Ipv4Sim) -> TraceEvent {
        TraceEvent {
            at: SimTime::from_mins(at_min),
            kind: TraceKind::HttpRequest,
            src,
            host: host.to_string(),
            path: path.to_string(),
            user_agent: None,
            actor: actor.to_string(),
        }
    }

    #[test]
    fn shared_clones_append_to_same_log() {
        let log = TraceLog::new();
        let clone = log.clone();
        clone.record(ev(1, "gsb", "a.com", "/", Ipv4Sim::new(1, 1, 1, 1)));
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn request_and_ip_counts() {
        let log = TraceLog::new();
        log.record(ev(1, "gsb", "a.com", "/", Ipv4Sim::new(1, 1, 1, 1)));
        log.record(ev(2, "gsb", "a.com", "/x", Ipv4Sim::new(1, 1, 1, 1)));
        log.record(ev(3, "gsb", "b.com", "/", Ipv4Sim::new(1, 1, 1, 2)));
        log.record(ev(4, "netcraft", "a.com", "/", Ipv4Sim::new(9, 9, 9, 9)));
        assert_eq!(log.requests_for("gsb", None), 3);
        assert_eq!(log.requests_for("gsb", Some("a.com")), 2);
        assert_eq!(log.unique_ips_for("gsb"), 2);
        assert_eq!(log.unique_ips_for("netcraft"), 1);
        assert_eq!(log.unique_ips_for("nobody"), 0);
    }

    #[test]
    fn fractions_within_window() {
        let log = TraceLog::new();
        for m in [5, 10, 30, 60, 90, 100, 110, 115, 119, 500] {
            log.record(ev(m, "x", "a.com", "/", Ipv4Sim::new(1, 0, 0, 1)));
        }
        let f = log.fractions_within(
            &[
                ("a.com", SimTime::ZERO),
                ("none.com", SimTime::ZERO),
                ("a.com", SimTime::from_mins(400)),
            ],
            SimDuration::from_hours(2),
        );
        assert!((f[0] - 0.9).abs() < 1e-9, "fraction {}", f[0]);
        assert_eq!(f[1], 0.0, "unknown host");
        assert_eq!(f[2], 1.0, "a second query on one host gets its own window");
    }

    #[test]
    fn first_request_after_start() {
        let log = TraceLog::new();
        log.record(ev(5, "x", "a.com", "/", Ipv4Sim::new(1, 0, 0, 1)));
        log.record(ev(12, "x", "a.com", "/", Ipv4Sim::new(1, 0, 0, 1)));
        assert_eq!(
            log.first_request_after("a.com", SimTime::from_mins(6)),
            Some(SimTime::from_mins(12))
        );
        assert_eq!(
            log.first_request_after("a.com", SimTime::from_mins(13)),
            None
        );
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let log = TraceLog::new();
        for m in [0, 1, 1, 2, 59, 61, 500] {
            log.record(ev(m, "x", "a.com", "/", Ipv4Sim::new(1, 0, 0, 1)));
        }
        let h = log.arrival_histogram(Some("a.com"), SimTime::ZERO, SimDuration::from_mins(30), 2);
        // Buckets: [0-30), [30-60), overflow.
        assert_eq!(h, vec![4, 1, 2]);
    }

    #[test]
    fn paths_in_order() {
        let log = TraceLog::new();
        log.record(ev(1, "op", "a.com", "/shell.php", Ipv4Sim::new(1, 0, 0, 1)));
        log.record(ev(2, "op", "a.com", "/kit.zip", Ipv4Sim::new(1, 0, 0, 1)));
        assert_eq!(log.paths_for("op"), vec!["/shell.php", "/kit.zip"]);
    }

    #[test]
    fn queries_are_append_order_independent() {
        // Two logs fed the same events in different (thread-
        // interleaving-like) orders must answer every order-exposing
        // query identically.
        let events = vec![
            ev(3, "op", "a.com", "/kit.zip", Ipv4Sim::new(1, 0, 0, 2)),
            ev(1, "gsb", "a.com", "/", Ipv4Sim::new(1, 0, 0, 1)),
            ev(3, "gsb", "b.com", "/x", Ipv4Sim::new(1, 0, 0, 1)),
            ev(3, "gsb", "a.com", "/y", Ipv4Sim::new(1, 0, 0, 3)),
        ];
        let a = TraceLog::new();
        for e in &events {
            a.record(e.clone());
        }
        let b = TraceLog::new();
        for e in events.iter().rev() {
            b.record(e.clone());
        }
        let digest = |log: &TraceLog| {
            log.snapshot()
                .iter()
                .map(|e| format!("{}|{}|{}|{}|{}", e.at, e.actor, e.host, e.path, e.src))
                .collect::<Vec<_>>()
        };
        assert_eq!(digest(&a), digest(&b));
        assert_eq!(log_paths(&a), log_paths(&b));

        fn log_paths(log: &TraceLog) -> Vec<String> {
            let mut p = log.paths_for("gsb");
            p.extend(log.paths_for("op"));
            p
        }
    }

    #[test]
    fn snapshot_orders_by_time_then_content() {
        let log = TraceLog::new();
        log.record(ev(5, "b", "z.com", "/", Ipv4Sim::new(1, 0, 0, 1)));
        log.record(ev(5, "a", "z.com", "/", Ipv4Sim::new(1, 0, 0, 1)));
        log.record(ev(2, "z", "z.com", "/", Ipv4Sim::new(1, 0, 0, 1)));
        let snap = log.snapshot();
        assert_eq!(snap[0].actor, "z", "earlier time first");
        assert_eq!(snap[1].actor, "a", "equal times order by content");
        assert_eq!(snap[2].actor, "b");
    }

    #[test]
    fn clear_resets() {
        let log = TraceLog::new();
        log.record(ev(1, "x", "a.com", "/", Ipv4Sim::new(1, 0, 0, 1)));
        log.clear();
        assert!(log.is_empty());
    }
}
