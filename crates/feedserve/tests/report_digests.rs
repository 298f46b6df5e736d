//! Pinned report bytes across every branch of the population walk.
//!
//! Each case runs one small population through a feed timeline that
//! exercises every kind of exchange the walk makes — full resets
//! (fresh clients, and clients pushed out of a three-version history
//! window), diffs, up-to-date polls, backoffs of aggressive clients,
//! refusals inside an origin outage and a mirror outage, stale mirror
//! serves, lost exchanges, and full-hash confirmations both positive
//! and negative (one listing is withdrawn again, so clients that sync
//! after the withdrawal confirm against a version without it). The
//! FNV-1a digest of the report's serde JSON must equal the digest
//! recorded before the walk's exchange was rebuilt without locks,
//! string-keyed counters or per-sync allocations, at one and at three
//! threads.

use phishsim_feedserve::{
    run_population_with_threads, CohortSpec, FeedServer, ListingEvent, MirrorConfig,
    PopulationConfig, PopulationReport, ServerConfig,
};
use phishsim_simnet::link::TierOutage;
use phishsim_simnet::{OutageWindow, SimDuration, SimTime, TierOutagePlan};

fn h(i: u64) -> u64 {
    (i << 33) | 0x2b2b
}

/// FNV-1a over the report's JSON text.
fn digest(report: &PopulationReport) -> u64 {
    let json = serde_json::to_string(report).expect("reports serialise");
    json.bytes().fold(0xcbf2_9ce4_8422_2325, |acc, b| {
        (acc ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A feed that grows every 20 minutes for three hours. "listed" joins
/// at minute 40 and stays; "withdrawn" joins at minute 60 and leaves
/// at minute 100; "never" is never published.
fn feed(origin_outage: bool) -> (FeedServer, Vec<ListingEvent>) {
    let mut server = FeedServer::new(ServerConfig {
        history_window: 3,
        ..ServerConfig::default()
    });
    let (listed, withdrawn, never) = (h(10_000), h(10_001), h(10_002));
    for step in 0..=9u64 {
        let at = SimTime::from_mins(20 * step);
        let mut hashes: Vec<u64> = (0..200 + 7 * step).map(h).collect();
        if at >= SimTime::from_mins(40) {
            hashes.push(listed);
        }
        if at >= SimTime::from_mins(60) && at < SimTime::from_mins(100) {
            hashes.push(withdrawn);
        }
        server.publish(hashes, at);
    }
    let server = if origin_outage {
        server.with_outages(vec![OutageWindow::new(
            SimTime::from_mins(70),
            SimTime::from_mins(110),
        )])
    } else {
        server
    };
    let events = [
        ("listed", listed, 40),
        ("withdrawn", withdrawn, 60),
        ("never", never, 50),
    ]
    .into_iter()
    .map(|(label, full_hash, mins)| ListingEvent {
        label: label.into(),
        full_hash,
        listed_at: SimTime::from_mins(mins),
    })
    .collect();
    (server, events)
}

/// Four mirrors refreshing every 10 minutes; mirror 1 is down from
/// minute 50 to minute 90.
fn tier() -> MirrorConfig {
    MirrorConfig {
        mirrors: 4,
        refresh_every: SimDuration::from_mins(10),
        outages: TierOutagePlan {
            outages: vec![TierOutage {
                mirror: 1,
                window: OutageWindow::new(SimTime::from_mins(50), SimTime::from_mins(90)),
            }],
        },
    }
}

struct Case {
    name: &'static str,
    cohorts: bool,
    mirrors: bool,
    origin_outage: bool,
    feed_loss: f64,
    digest: u64,
}

const CASES: [Case; 8] = [
    Case {
        name: "exact, direct",
        cohorts: false,
        mirrors: false,
        origin_outage: false,
        feed_loss: 0.0,
        digest: 0xc842_cea3_e6d3_3bbb,
    },
    Case {
        name: "exact, direct, origin outage",
        cohorts: false,
        mirrors: false,
        origin_outage: true,
        feed_loss: 0.0,
        digest: 0x59fa_93a0_d5ad_44a5,
    },
    Case {
        name: "exact, direct, origin outage, feed loss",
        cohorts: false,
        mirrors: false,
        origin_outage: true,
        feed_loss: 0.1,
        digest: 0x52aa_3073_56e8_38e9,
    },
    Case {
        name: "exact, mirrors",
        cohorts: false,
        mirrors: true,
        origin_outage: false,
        feed_loss: 0.0,
        digest: 0x836d_5729_eff9_5b06,
    },
    Case {
        name: "exact, mirrors, origin outage, feed loss",
        cohorts: false,
        mirrors: true,
        origin_outage: true,
        feed_loss: 0.1,
        digest: 0x3bef_5979_a2de_b7f4,
    },
    Case {
        name: "cohort, direct",
        cohorts: true,
        mirrors: false,
        origin_outage: false,
        feed_loss: 0.0,
        digest: 0xe587_9f77_ed42_56f0,
    },
    Case {
        name: "cohort, direct, origin outage",
        cohorts: true,
        mirrors: false,
        origin_outage: true,
        feed_loss: 0.0,
        digest: 0xbbda_0fdc_c884_a054,
    },
    Case {
        name: "cohort, mirrors, origin outage",
        cohorts: true,
        mirrors: true,
        origin_outage: true,
        feed_loss: 0.0,
        digest: 0xb7c3_46c3_4702_8ade,
    },
];

fn run(case: &Case, threads: usize) -> PopulationReport {
    let (server, events) = feed(case.origin_outage);
    let cfg = PopulationConfig {
        clients: 1_500,
        seed: 29,
        batch: 128,
        horizon: SimDuration::from_hours(4),
        aggressive_fraction: 0.05,
        feed_loss: case.feed_loss,
        cohorts: case.cohorts.then(CohortSpec::default),
        mirrors: case.mirrors.then(tier),
        ..PopulationConfig::default()
    };
    run_population_with_threads(&cfg, &server, &events, threads)
}

#[test]
fn the_scenario_reaches_every_branch() {
    let lossy = run(&CASES[4], 1);
    for label in [
        "update.full_reset",
        "update.diff",
        "update.up_to_date",
        "update.backoff",
        "update.unavailable",
        "update.lost",
        "mirror.unavailable",
        "mirror.stale_serves",
        "fullhash.lookups",
        "fullhash.negative",
    ] {
        assert!(lossy.counters.get(label) > 0, "{label} never counted");
    }
    let cohort = run(&CASES[7], 1);
    assert!(cohort.cohorts.expect("cohort mode") < 1_500);
    assert!(cohort.counters.get("fullhash.negative") > 0);
    assert!(cohort.counters.get("update.unavailable") > 0);
}

#[test]
fn population_reports_keep_their_recorded_bytes() {
    let mut wrong = Vec::new();
    for case in &CASES {
        for threads in [1, 3] {
            let got = digest(&run(case, threads));
            if got != case.digest {
                wrong.push(format!(
                    "{} at {threads} threads: {got:#018x}, recorded {:#018x}",
                    case.name, case.digest
                ));
            }
        }
    }
    assert!(
        wrong.is_empty(),
        "report bytes moved:\n{}",
        wrong.join("\n")
    );
}
