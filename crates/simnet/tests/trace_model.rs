//! Reference-model test for the interned access log.
//!
//! `TraceLog` stores entries as interned symbols over a string table.
//! This property records random event sequences into a `TraceLog` and
//! into a plain `Vec<TraceEvent>` kept here as the reference, whose
//! queries are naive scans over owned events, and requires every query
//! to answer identically: repeated and never-seen strings, absent user
//! agents, non-request kinds, out-of-order and tied times, unknown
//! actors and hosts, and a `clear` part-way through.
//!
//! The log reuses the previous entry's symbol for a field whose text
//! repeats, so events come in runs that repeat fields of the one before,
//! and borrowed appends pass their path in one buffer rewritten in
//! place, as the engines' probe loop does: a memo that trusted the
//! buffer's address instead of its text would log the wrong path.

use phishsim_simnet::{Ipv4Sim, SimDuration, SimTime, TraceEvent, TraceKind, TraceLog, TraceView};
use proptest::prelude::*;
use std::collections::HashSet;

/// Request kinds dominate, as in a real access log.
const KINDS: [TraceKind; 7] = [
    TraceKind::HttpRequest,
    TraceKind::HttpRequest,
    TraceKind::HttpRequest,
    TraceKind::Dropped,
    TraceKind::Report,
    TraceKind::Blacklist,
    TraceKind::AbuseEmail,
];
const HOSTS: [&str; 3] = ["a.com", "b.com", "green-energy.com"];
const PATHS: [&str; 4] = ["/", "/index.php", "/kit.zip", "/log.txt"];
const AGENTS: [&str; 2] = ["Googlebot/2.1", "Mozilla/5.0 (X11)"];
const ACTORS: [&str; 3] = ["gsb", "netcraft", "human"];

/// A string from `pool` two times in three, else a fresh one.
fn pooled(pool: &'static [&'static str], fresh: &'static str) -> BoxedStrategy<String> {
    prop_oneof![
        (0..pool.len()).prop_map(move |i| pool[i].to_string()),
        (0..pool.len()).prop_map(move |i| pool[i].to_string()),
        fresh,
    ]
    .boxed()
}

fn event() -> impl Strategy<Value = (TraceEvent, bool)> {
    (
        (0u64..40, 0..KINDS.len(), 0u8..4),
        (
            pooled(&HOSTS, "[a-c]{1,3}\\.net"),
            pooled(&PATHS, "/[a-z]{0,4}"),
        ),
        (
            proptest::option::of(pooled(&AGENTS, "[A-Z][a-z]{0,5}/[0-9]")),
            pooled(&ACTORS, "[a-z]{1,3}"),
        ),
        any::<bool>(),
    )
        .prop_map(
            |((at, kind, src), (host, path), (user_agent, actor), borrowed)| {
                let event = TraceEvent {
                    at: SimTime::from_mins(at),
                    kind: KINDS[kind],
                    src: Ipv4Sim::new(10, 0, 0, src),
                    host,
                    path,
                    user_agent,
                    actor,
                };
                (event, borrowed)
            },
        )
}

/// Apply each event's repeat mask, making runs of repeated fields: bit
/// `i` copies field `i` (host, path, user agent, actor) from the
/// previous event.
fn with_runs(raw: &[((TraceEvent, bool), u8)]) -> Vec<(TraceEvent, bool)> {
    let mut out: Vec<(TraceEvent, bool)> = Vec::with_capacity(raw.len());
    for ((event, borrowed), mask) in raw {
        let mut event = event.clone();
        if let Some((prev, _)) = out.last() {
            if mask & 1 != 0 {
                event.host = prev.host.clone();
            }
            if mask & 2 != 0 {
                event.path = prev.path.clone();
            }
            if mask & 4 != 0 {
                event.user_agent = prev.user_agent.clone();
            }
            if mask & 8 != 0 {
                event.actor = prev.actor.clone();
            }
        }
        out.push((event, *borrowed));
    }
    out
}

/// Append `event` to the log — a borrowed request passes its path in
/// `path_buf`, rewritten in place — and to the model.
fn record(
    log: &TraceLog,
    model: &mut Vec<TraceEvent>,
    path_buf: &mut String,
    event: &TraceEvent,
    borrowed: bool,
) {
    if borrowed && event.kind == TraceKind::HttpRequest {
        let before = path_buf.as_ptr();
        path_buf.clear();
        path_buf.push_str(&event.path);
        assert_eq!(
            path_buf.as_ptr(),
            before,
            "the buffer is rewritten in place"
        );
        log.record_request(
            event.at,
            event.src,
            &event.host,
            path_buf,
            event.user_agent.as_deref(),
            &event.actor,
        );
    } else {
        log.record(event.clone());
    }
    model.push(event.clone());
}

/// The reference order: time, then string content, then the rest;
/// stable, so append order breaks exact ties.
fn sorted(mut events: Vec<TraceEvent>) -> Vec<TraceEvent> {
    events.sort_by(|a, b| {
        a.at.cmp(&b.at)
            .then_with(|| a.actor.cmp(&b.actor))
            .then_with(|| a.host.cmp(&b.host))
            .then_with(|| a.path.cmp(&b.path))
            .then_with(|| a.src.cmp(&b.src))
            .then_with(|| a.kind.cmp(&b.kind))
            .then_with(|| a.user_agent.cmp(&b.user_agent))
    });
    events
}

fn requests(model: &[TraceEvent]) -> impl Iterator<Item = &TraceEvent> {
    model.iter().filter(|e| e.kind == TraceKind::HttpRequest)
}

/// Every query on `log` against the naive answer from `model`.
fn check(log: &TraceLog, model: &[TraceEvent]) {
    assert_eq!(log.len(), model.len());
    assert_eq!(log.is_empty(), model.is_empty());
    assert_eq!(log.snapshot(), sorted(model.to_vec()));

    // Probe every string seen, plus ones never recorded.
    let mut actors: Vec<String> = ACTORS.iter().map(|s| s.to_string()).collect();
    actors.extend(model.iter().map(|e| e.actor.clone()));
    actors.push("nobody".to_string());
    let mut hosts: Vec<String> = HOSTS.iter().map(|s| s.to_string()).collect();
    hosts.extend(model.iter().map(|e| e.host.clone()));
    hosts.push("unknown.org".to_string());

    let preds: [fn(&TraceView<'_>) -> bool; 4] = [
        |e| e.user_agent.is_none(),
        |e| e.kind == TraceKind::Report,
        |e| e.path.starts_with("/k"),
        |e| e.actor == "gsb" && e.at >= SimTime::from_mins(20),
    ];
    for pred in preds {
        let expect: Vec<TraceEvent> = model.iter().filter(|e| pred(&e.view())).cloned().collect();
        assert_eq!(log.count(pred), expect.len());
        assert_eq!(log.filter(pred), sorted(expect));
    }

    for actor in &actors {
        let by_actor: Vec<&TraceEvent> = requests(model).filter(|e| &e.actor == actor).collect();
        assert_eq!(log.requests_for(actor, None), by_actor.len(), "{actor}");
        for host in &hosts {
            let n = by_actor.iter().filter(|e| &e.host == host).count();
            assert_eq!(log.requests_for(actor, Some(host)), n, "{actor} {host}");
        }
        let ips: HashSet<Ipv4Sim> = by_actor.iter().map(|e| e.src).collect();
        assert_eq!(log.unique_ips_for(actor), ips.len(), "{actor}");
        let paths: Vec<String> = sorted(by_actor.iter().map(|e| (*e).clone()).collect())
            .into_iter()
            .map(|e| e.path)
            .collect();
        assert_eq!(log.paths_for(actor), paths, "{actor}");
    }

    let window = SimDuration::from_mins(15);
    let starts = [
        SimTime::ZERO,
        SimTime::from_mins(10),
        SimTime::from_mins(25),
    ];
    let queries: Vec<(&str, SimTime)> = hosts
        .iter()
        .flat_map(|h| starts.iter().map(move |&s| (h.as_str(), s)))
        .collect();
    let expect: Vec<f64> = queries
        .iter()
        .map(|&(host, start)| {
            let all: Vec<&TraceEvent> = requests(model).filter(|e| e.host == host).collect();
            if all.is_empty() {
                return 0.0;
            }
            let within = all.iter().filter(|e| e.at <= start + window).count();
            within as f64 / all.len() as f64
        })
        .collect();
    let got = log.fractions_within(&queries, window);
    assert_eq!(
        got.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
        expect.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
        "fractions are bit-identical"
    );

    let (bucket, n_buckets) = (SimDuration::from_mins(7), 3);
    for host in hosts.iter().map(|h| Some(h.as_str())).chain([None]) {
        for start in starts {
            let first = requests(model)
                .filter(|e| host.is_none_or(|h| e.host == h) && e.at >= start)
                .map(|e| e.at)
                .min();
            if let Some(h) = host {
                assert_eq!(log.first_request_after(h, start), first, "{h}");
            }
            let mut buckets = vec![0usize; n_buckets + 1];
            for e in requests(model).filter(|e| host.is_none_or(|h| e.host == h)) {
                if e.at >= start {
                    let idx = (e.at.since(start).as_millis() / bucket.as_millis()) as usize;
                    buckets[idx.min(n_buckets)] += 1;
                }
            }
            assert_eq!(
                log.arrival_histogram(host, start, bucket, n_buckets),
                buckets,
                "{host:?}"
            );
        }
    }
}

proptest! {
    /// The interned log answers every query exactly as the naive
    /// reference does, before and after a `clear`.
    #[test]
    fn interned_log_matches_reference(
        before in proptest::collection::vec((event(), any::<u8>()), 0..60),
        after in proptest::collection::vec((event(), any::<u8>()), 0..30),
    ) {
        let log = TraceLog::new();
        let mut model = Vec::new();
        // Longer than any generated path, so it never reallocates.
        let mut path_buf = String::with_capacity(64);
        for (e, borrowed) in &with_runs(&before) {
            record(&log, &mut model, &mut path_buf, e, *borrowed);
        }
        check(&log, &model);
        log.clear();
        model.clear();
        check(&log, &model);
        for (e, borrowed) in &with_runs(&after) {
            record(&log, &mut model, &mut path_buf, e, *borrowed);
        }
        check(&log, &model);
    }
}
