//! Reference-model test for the blacklist monitor.
//!
//! `monitor_listings` computes each (engine, URL) listing's observation
//! straight from the engine's polling schedule. The reference below is
//! the event loop it replaced, kept verbatim: every engine's poll is an
//! event on the FIFO `Scheduler`, and each poll reports the listings
//! published since the last one. The property publishes random listings
//! and requires both to return the same observations in the same order
//! and to leave the same `Blacklist` events in the log: listings before
//! `start`, exactly on a poll, on both sides of SmartScreen's 72 h
//! switch to 5-hourly screenshots, after `horizon`, and one URL listed
//! by several engines at the same poll.

use phishsim_antiphish::{EngineId, FeedNetwork};
use phishsim_core::monitor::{monitor_listings, MonitorMethod, Observation};
use phishsim_http::Url;
use phishsim_simnet::{DetRng, Scheduler, SimDuration, SimTime, TraceEvent, TraceKind, TraceLog};
use proptest::prelude::*;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PollEvent {
    engine_idx: usize,
}

/// Poll all engines' lists for `urls` from `start` until `horizon`,
/// returning every appearance with its observation time. Appends
/// `Blacklist` trace events to `log` as appearances are observed.
fn reference_monitor_listings(
    feeds: &FeedNetwork,
    urls: &[Url],
    start: SimTime,
    horizon: SimTime,
    log: &TraceLog,
) -> Vec<Observation> {
    let engines = EngineId::all();
    let mut sched: Scheduler<PollEvent> = Scheduler::new();
    sched.advance_to(start);
    for (i, engine) in engines.iter().enumerate() {
        let period = MonitorMethod::for_engine(*engine).poll_period();
        sched.schedule_at(start + period, PollEvent { engine_idx: i });
    }

    // The feeds are frozen while the monitor polls, so every
    // (engine, URL) listing time can be resolved once up front and
    // sorted by publication time. Each engine then keeps a cursor into
    // its sorted listings, advanced monotonically as its poll ticks
    // arrive: a tick costs O(listings that just became visible), where
    // the previous implementation rescanned every URL on every tick
    // (a 21-day NetCraft cadence alone is ~30k ticks × all URLs).
    let listings: Vec<Vec<(SimTime, usize)>> = engines
        .iter()
        .map(|engine| {
            let mut v: Vec<(SimTime, usize)> = urls
                .iter()
                .enumerate()
                .filter_map(|(i, u)| feeds.listed_at(*engine, u).map(|t| (t, i)))
                .collect();
            v.sort_unstable();
            v
        })
        .collect();
    let mut cursors = vec![0usize; engines.len()];

    let mut observations = Vec::new();
    let mut batch: Vec<(usize, SimTime)> = Vec::new();

    while let Some((now, ev)) = sched.pop_until(horizon) {
        let engine = engines[ev.engine_idx];
        let list = &listings[ev.engine_idx];
        let cursor = &mut cursors[ev.engine_idx];
        batch.clear();
        while let Some(&(listed_at, url_idx)) = list.get(*cursor) {
            if listed_at > now {
                break;
            }
            batch.push((url_idx, listed_at));
            *cursor += 1;
        }
        // Emit in URL index order — the order the full-scan
        // implementation produced within one tick.
        batch.sort_unstable();
        for &(url_idx, listed_at) in &batch {
            let url = &urls[url_idx];
            observations.push(Observation {
                engine,
                url: url.clone(),
                listed_at,
                observed_at: now,
            });
            log.record(TraceEvent {
                at: now,
                kind: TraceKind::Blacklist,
                src: phishsim_simnet::Ipv4Sim::new(0, 0, 0, 0),
                host: url.host.clone(),
                path: url.target(),
                user_agent: None,
                actor: engine.key().to_string(),
            });
        }
        let elapsed = now.since(start);
        let period = MonitorMethod::for_engine(engine).poll_period_at(elapsed);
        sched.schedule_after(
            period,
            PollEvent {
                engine_idx: ev.engine_idx,
            },
        );
    }
    observations.sort_by_key(|o| o.observed_at);
    observations
}

const URLS: usize = 5;

/// Where a listing lands, as an offset from the monitor's `start` in
/// milliseconds (negative: before `start`).
fn offset_ms() -> BoxedStrategy<i64> {
    const MIN: i64 = 60_000;
    const HOUR: i64 = 60 * MIN;
    prop_oneof![
        // Before `start`.
        (1i64..600).prop_map(|m| -m * MIN),
        // On the half-hour grid every method's dense phase polls on.
        (0i64..340).prop_map(|k| k * 30 * MIN),
        // On SmartScreen's sparse 5-hourly grid.
        (0i64..30).prop_map(|k| 72 * HOUR + k * 5 * HOUR),
        // Either side of the 72 h switch, to the millisecond.
        (-40 * MIN..40 * MIN).prop_map(|d| 72 * HOUR + d),
        // Anywhere, at any millisecond.
        0i64..170 * HOUR,
    ]
    .boxed()
}

/// One `publish`: engine index, URL index, offset from `start`.
fn listing() -> impl Strategy<Value = (usize, usize, i64)> {
    (0..EngineId::all().len(), 0..URLS, offset_ms())
}

fn url(i: usize) -> Url {
    Url::parse(&format!("https://site-{i}.com/secure/login.php")).unwrap()
}

fn blacklist_events(log: &TraceLog) -> Vec<TraceEvent> {
    log.filter(|e| e.kind == TraceKind::Blacklist)
}

proptest! {
    /// The computed observations equal the event loop's, in order, and
    /// log the same `Blacklist` events.
    #[test]
    fn computed_polls_match_the_event_loop(
        start_mins in prop_oneof![Just(0u64), 1u64..2_000],
        horizon_mins in 0u64..9_000,
        listings in proptest::collection::vec(listing(), 0..24),
        // A URL published on several engines at one instant.
        shared in proptest::option::of((0..URLS, offset_ms(), 2usize..7)),
        propagate in any::<bool>(),
    ) {
        let start = SimTime::from_mins(start_mins);
        let horizon = start + SimDuration::from_mins(horizon_mins);
        let rng = DetRng::new(start_mins ^ horizon_mins);
        let mut feeds = if propagate {
            FeedNetwork::paper_topology(&rng)
        } else {
            FeedNetwork::isolated(&rng)
        };
        let at = |offset: i64| {
            SimTime::from_millis(start.as_millis().saturating_add_signed(offset))
        };
        for &(engine, u, offset) in &listings {
            feeds.publish(EngineId::all()[engine], &url(u), at(offset));
        }
        if let Some((u, offset, engines)) = shared {
            for engine in EngineId::all().into_iter().take(engines) {
                feeds.publish(engine, &url(u), at(offset));
            }
        }
        let urls: Vec<Url> = (0..URLS).map(url).collect();

        let log = TraceLog::new();
        let got = monitor_listings(&feeds, &urls, start, horizon, &log);
        let ref_log = TraceLog::new();
        let want = reference_monitor_listings(&feeds, &urls, start, horizon, &ref_log);
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(blacklist_events(&log), blacklist_events(&ref_log));
    }
}

/// Fixed cases the property's inputs may not hit every run.
#[test]
fn edge_listings_match_the_event_loop() {
    let start = SimTime::from_mins(13);
    let horizon = start + SimDuration::from_hours(90);
    let mut feeds = FeedNetwork::isolated(&DetRng::new(1));
    let cases = [
        (EngineId::SmartScreen, SimDuration::from_hours(72)),
        (
            EngineId::SmartScreen,
            SimDuration::from_millis(72 * 3_600_000 + 1),
        ),
        (EngineId::SmartScreen, SimDuration::from_hours(90)),
        (EngineId::Gsb, SimDuration::from_hours(90)),
        (EngineId::NetCraft, SimDuration::ZERO),
    ];
    let urls: Vec<Url> = (0..=cases.len()).map(url).collect();
    for (i, &(engine, offset)) in cases.iter().enumerate() {
        feeds.publish(engine, &urls[i], start + offset);
    }
    // One more URL on every engine, on a poll they all share.
    let shared = &urls[cases.len()];
    for engine in EngineId::all() {
        feeds.publish(engine, shared, start + SimDuration::from_hours(2));
    }
    let log = TraceLog::new();
    let got = monitor_listings(&feeds, &urls, start, horizon, &log);
    let ref_log = TraceLog::new();
    let want = reference_monitor_listings(&feeds, &urls, start, horizon, &ref_log);
    assert_eq!(got, want);
    assert_eq!(blacklist_events(&log), blacklist_events(&ref_log));
    // The 72 h listing is caught by the last dense screenshot, the one a
    // millisecond later by the first sparse one, 5 hours on.
    let smartscreen: Vec<SimDuration> = got
        .iter()
        .filter(|o| o.engine == EngineId::SmartScreen && o.url != *shared)
        .map(|o| o.observed_at.since(start))
        .collect();
    assert_eq!(
        smartscreen,
        [SimDuration::from_hours(72), SimDuration::from_hours(77)]
    );
}
