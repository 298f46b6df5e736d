//! The paper's headline claims, asserted against full experiment runs
//! through the public facade. This is the repository's contract: if
//! any of these fail, the reproduction no longer reproduces.

use phishsim::prelude::*;
use phishsim::simnet::FaultInjector;

#[test]
fn table2_shape_holds_across_seeds() {
    // The *shape* claims must hold for arbitrary seeds, not just the
    // calibrated default: GSB alone beats the alert box (6/6), only
    // NetCraft ever beats session gates, CAPTCHA beats everyone.
    for seed in [1, 99, 12345] {
        let mut cfg = MainConfig::fast();
        cfg.seed = seed;
        let r = run_main_experiment(&cfg);
        for engine in EngineId::main_experiment() {
            for brand in [Brand::Facebook, Brand::PayPal] {
                let alert = r.table.cell(engine, brand, EvasionTechnique::AlertBox);
                if engine == EngineId::Gsb {
                    assert_eq!(alert.hits, alert.total, "seed {seed}: GSB alert cell");
                } else {
                    assert_eq!(alert.hits, 0, "seed {seed}: {engine} alert cell");
                }
                let captcha = r.table.cell(engine, brand, EvasionTechnique::CaptchaGate);
                assert_eq!(captcha.hits, 0, "seed {seed}: {engine} reCAPTCHA cell");
                let session = r.table.cell(engine, brand, EvasionTechnique::SessionGate);
                if engine != EngineId::NetCraft {
                    assert_eq!(session.hits, 0, "seed {seed}: {engine} session cell");
                }
            }
        }
        // Total = 6 GSB alert detections + NetCraft's 0..=6 session hits.
        assert!(
            (6..=12).contains(&(r.table.total.hits as usize)),
            "seed {seed}: total {}",
            r.table.total.as_cell()
        );
    }
}

#[test]
fn default_seed_matches_paper_numbers() {
    let r = run_main_experiment(&MainConfig::fast());
    assert_eq!(r.table.total.as_cell(), "8/105", "the paper's 8 out of 105");
    let mean = r.table.gsb_alert_mean_mins.expect("GSB detections exist");
    assert!(
        (100.0..180.0).contains(&mean),
        "GSB mean {mean:.0} vs paper's 132"
    );
    assert_eq!(
        r.table.netcraft_session_delays_mins.len(),
        2,
        "NetCraft detected exactly two session URLs"
    );
    // Paper: 6 and 9 minutes. Ours should be single-digit-to-tens.
    for d in &r.table.netcraft_session_delays_mins {
        assert!(*d < 30.0, "NetCraft session delay {d:.1} min");
    }
}

#[test]
fn preliminary_reproduces_table1_structure() {
    let r = run_preliminary(&PreliminaryConfig::fast());
    let row = |id: EngineId| r.table.rows.iter().find(|row| row.engine == id).unwrap();

    // Detection split: GSB & NetCraft catch G+F+P; the four
    // signature-only engines catch F+P; YSB catches nothing.
    assert_eq!(row(EngineId::Gsb).blacklisted_targets.len(), 3);
    assert_eq!(row(EngineId::NetCraft).blacklisted_targets.len(), 3);
    for id in [
        EngineId::Apwg,
        EngineId::OpenPhish,
        EngineId::PhishTank,
        EngineId::SmartScreen,
    ] {
        let targets = &row(id).blacklisted_targets;
        assert_eq!(targets.len(), 2, "{id}: {targets:?}");
        assert!(!targets.contains(&'G'), "{id} must miss Gmail");
    }
    assert!(row(EngineId::Ysb).blacklisted_targets.is_empty());

    // Volume ordering mirrors Table 1: OpenPhish ≫ GSB > NetCraft >
    // PhishTank > APWG > SmartScreen > YSB.
    let req = |id: EngineId| row(id).requests;
    assert!(req(EngineId::OpenPhish) > req(EngineId::Gsb));
    assert!(req(EngineId::Gsb) > req(EngineId::NetCraft));
    assert!(req(EngineId::NetCraft) > req(EngineId::PhishTank));
    assert!(req(EngineId::PhishTank) > req(EngineId::Apwg));
    assert!(req(EngineId::Apwg) > req(EngineId::SmartScreen));
    assert!(req(EngineId::SmartScreen) > req(EngineId::Ysb));
}

#[test]
fn preliminary_full_volume_matches_table1_counts() {
    // At full traffic scale the absolute numbers land near the paper's:
    // requests within ±20 % and unique IPs equal to the pool sizes.
    let r = run_preliminary(&PreliminaryConfig::paper());
    let expect = [
        (EngineId::Gsb, 8_396u64, 69usize),
        (EngineId::NetCraft, 6_057, 63),
        (EngineId::Apwg, 2_381, 86),
        (EngineId::OpenPhish, 81_967, 852),
        (EngineId::PhishTank, 4_929, 275),
        (EngineId::SmartScreen, 1_590, 81),
        (EngineId::Ysb, 82, 34),
    ];
    for (id, req, ips) in expect {
        let row = r.table.rows.iter().find(|row| row.engine == id).unwrap();
        let lo = (req as f64 * 0.8) as u64;
        let hi = (req as f64 * 1.2) as u64;
        assert!(
            (lo..=hi).contains(&row.requests),
            "{id}: {} requests vs paper's {req}",
            row.requests
        );
        // Unique IPs converge to the pool size for the busy engines;
        // the quiet ones (YSB: 82 requests over 34 IPs) come close.
        assert!(
            row.unique_ips <= ips && row.unique_ips * 10 >= ips * 7,
            "{id}: {} unique IPs vs paper's {ips}",
            row.unique_ips
        );
    }
}

#[test]
fn extensions_detect_nothing_while_humans_see_everything() {
    let r = run_extension_experiment(&ExtensionConfig::paper());
    for row in &r.table.rows {
        assert_eq!(row.rate.as_cell(), "0/9", "{}", row.extension);
    }
    assert!(r.human_reached_all_payloads);
}

#[test]
fn cloaking_baseline_matches_phishfarm_shape() {
    let r = run_cloaking_baseline(&CloakingConfig::paper());
    assert!(
        r.naked.detection.fraction() > 0.9,
        "naked: {}",
        r.naked.detection.as_cell()
    );
    let cloaked_rate = r.cloaked.detection.fraction();
    assert!(
        (0.05..0.45).contains(&cloaked_rate),
        "cloaked detection {cloaked_rate:.2} vs paper's 23 %"
    );
    let ratio = r.delay_ratio().expect("detections in both arms");
    assert!(
        ratio > 1.3,
        "cloaked detections slower by {ratio:.1}x (paper: 238/126 ≈ 1.9x)"
    );
}

#[test]
fn main_experiment_traffic_mostly_in_first_two_hours() {
    let mut cfg = MainConfig::fast();
    cfg.volume_scale = 0.05;
    let r = run_main_experiment(&cfg);
    assert!(
        r.traffic_within_2h > 0.8,
        "paper: ~90 % of traffic within 2 h; measured {:.0}%",
        r.traffic_within_2h * 100.0
    );
}

#[test]
fn chaos_loses_detections_but_never_invents_them() {
    // Dropped, failed and truncated exchanges can spoil a crawl that
    // would have convicted a page, but must never turn a miss into a
    // detection. Paper volume at the default seed, then the fast
    // config across seeds; at least one run must lose a detection, or
    // the bound was never put to the test.
    let fast = (1..=6).chain([DEFAULT_SEED]).map(|seed| MainConfig {
        seed,
        ..MainConfig::fast()
    });
    let mut runs_that_lost = 0;
    for cfg in std::iter::once(MainConfig::paper()).chain(fast) {
        let chaos = MainConfig {
            faults: FaultInjector::chaos_profile(),
            ..cfg.clone()
        };
        let clean = run_main_experiment(&cfg).table.total.hits;
        let faulty = run_main_experiment(&chaos).table.total.hits;
        assert!(
            faulty <= clean,
            "seed {} at volume {}: {faulty} detections under chaos, {clean} without",
            cfg.seed,
            cfg.volume_scale
        );
        runs_that_lost += usize::from(faulty < clean);
    }
    assert!(runs_that_lost > 0, "chaos never cost a detection");
}
