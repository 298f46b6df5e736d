//! Recorded execution: run any experiment under a [`PackRecorder`]
//! and seal its complete identity into a [`RunPack`].
//!
//! [`RecordedConfig`] is the *self-describing* config that goes into a
//! pack's Config section: deserializing it back tells the replayer
//! which experiment to run and with which parameters, so
//! [`rerun_pack`] needs nothing but the pack bytes. Fields that are
//! `#[serde(skip)]` on the underlying configs (sinks, fault profiles)
//! are either reconstructed by the replayer (sinks) or carried in the
//! pack's dedicated Faults section. No environment variable changes a
//! run, so the pack's env section is empty.
//!
//! Every run of a sweep gets its own tee sink but shares the
//! recorder's rolling digest, so recording is safe at any
//! `PHISHSIM_SWEEP_THREADS` — and the resulting pack is byte-identical
//! across thread counts, which is exactly what `runpack verify`
//! checks.

use crate::experiment::fleet_chaos::{chaos_points, run_chaos_point, FleetChaosConfig};
use crate::experiment::fleet_sweep::{fleet_points, run_fleet_point, summarize, FleetSweepConfig};
use crate::experiment::main_experiment::{run_main_experiment, MainConfig};
use crate::experiment::preliminary::{run_preliminary, PreliminaryConfig};
use crate::experiment::sb_scale::{run_sb_scale_with_threads, SbScaleConfig};
use crate::experiment::sb_scale_50m::{run_sb_scale_50m_with_threads, SbScale50mConfig};
use phishsim_runpack::{PackRecorder, RunPack, StateSnapshot};
use phishsim_simnet::runner::run_sweep_with_threads;
use phishsim_simnet::{FaultInjector, ObsSink};
use serde::{Deserialize, Serialize};

/// A sweep over seeds of one base main-experiment config.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepSpec {
    /// Config every run starts from (its `seed` is overridden).
    pub base: MainConfig,
    /// One run per seed, recorded in this order.
    pub seeds: Vec<u64>,
}

/// Self-describing experiment config — the payload of a pack's Config
/// section. One variant per recordable experiment shape.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum RecordedConfig {
    /// §4.1 preliminary test (Table 1). Single run, no fault profile.
    Table1(PreliminaryConfig),
    /// §4.2 main experiment (Table 2). Single run; the pack's Faults
    /// section applies to it.
    Table2(MainConfig),
    /// The observability report: one chaos run (the pack's Faults
    /// section applies to it) plus a clean seed sweep.
    ObsReport {
        /// Config of the chaos run.
        chaos: MainConfig,
        /// The clean sweep that follows.
        sweep: SweepSpec,
    },
    /// A bare seed sweep; the pack's Faults section applies to every
    /// run.
    SeedSweep(SweepSpec),
    /// The crawl-fleet sweep: one run per (workers, discipline) point.
    /// Fault-free by contract (the fleet's own outage windows live in
    /// the config).
    FleetSweep(FleetSweepConfig),
    /// The worker-chaos sweep: one supervised fleet run per
    /// (crash rate, restart delay, lease timeout) point plus the
    /// fault-free baseline. Worker-fault plans are regenerated from
    /// the config's seed, so the config alone replays the run.
    FleetChaos(FleetChaosConfig),
    /// Population-scale propagation: the main-experiment leg (the
    /// pack's Faults section applies to it) plus the population walk.
    /// The walk itself is fault-free by contract — its feed-channel
    /// loss lives inside the config.
    SbScale(SbScaleConfig),
    /// The cohort scale sweep: exact baseline plus one cohort run per
    /// population, all against the one recorded feed timeline.
    SbScale50m(SbScale50mConfig),
}

impl RecordedConfig {
    /// The experiment name stamped into the pack header.
    pub fn experiment(&self) -> &'static str {
        match self {
            RecordedConfig::Table1(_) => "table1",
            RecordedConfig::Table2(_) => "table2",
            RecordedConfig::ObsReport { .. } => "obs_report",
            RecordedConfig::SeedSweep(_) => "seed_sweep",
            RecordedConfig::FleetSweep(_) => "fleet_sweep",
            RecordedConfig::FleetChaos(_) => "fleet_chaos",
            RecordedConfig::SbScale(_) => "sb_scale",
            RecordedConfig::SbScale50m(_) => "sb_scale_50m",
        }
    }
}

/// Render a result value as compact JSON text.
fn json_string(v: &serde_json::Value) -> String {
    serde_json::to_string(v).expect("result value serializes")
}

/// Prefix a run's snapshots with its label so sweeps keep layers from
/// different seeds apart.
fn label_snapshots(label: &str, snaps: Vec<StateSnapshot>) -> Vec<StateSnapshot> {
    snaps
        .into_iter()
        .map(|s| StateSnapshot {
            at: s.at,
            layer: format!("{label}/{}", s.layer),
            state: s.state,
        })
        .collect()
}

/// Run one main-experiment config to completion for the recorder:
/// returns the detection count and any captured snapshots. Everything
/// heavyweight (world, feeds, caches) is dropped here so sweep workers
/// only ship small results across threads.
fn main_run_summary(config: &MainConfig) -> (u64, Vec<StateSnapshot>) {
    let r = run_main_experiment(config);
    (r.table.total.hits, r.state_snapshots)
}

/// Execute the experiment described by `cfg` under a recorder and
/// seal the pack. `faults` is the run's fault schedule (applied per
/// the variant's contract — see [`RecordedConfig`]); `threads` is the
/// sweep parallelism, which by the determinism contract must not
/// change a single byte of the output.
pub fn record_run(cfg: &RecordedConfig, faults: &FaultInjector, threads: usize) -> RunPack {
    let config_json = serde_json::to_string(cfg).expect("recorded config serializes");
    let mut rec = PackRecorder::new(cfg.experiment(), &config_json);
    rec.set_faults_json(&serde_json::to_string(faults).expect("fault profile serializes"));

    match cfg {
        RecordedConfig::Table1(pc) => {
            let sink = rec.run_sink();
            let mut c = pc.clone();
            c.obs = sink.clone();
            let r = run_preliminary(&c);
            rec.push_run("main", &sink);
            rec.set_result_json(&json_string(&serde_json::json!({
                "table": r.table,
                "max_first_visit_mins": r.max_first_visit_mins,
                "abuse_emails": r.abuse_emails,
                "observations": r.observations.len(),
            })));
        }
        RecordedConfig::Table2(mc) => {
            let sink = rec.run_sink();
            let mut c = mc.clone();
            c.obs = sink.clone();
            c.faults = faults.clone();
            let r = run_main_experiment(&c);
            rec.push_run("main", &sink);
            rec.extend_snapshots(r.state_snapshots);
            rec.set_result_json(&json_string(&serde_json::json!({
                "table": r.table,
                "traffic_within_2h": r.traffic_within_2h,
                "detections": r.table.total.hits,
            })));
        }
        RecordedConfig::ObsReport { chaos, sweep } => {
            let chaos_sink = rec.run_sink();
            let mut c = chaos.clone();
            c.obs = chaos_sink.clone();
            c.faults = faults.clone();
            let (chaos_detections, chaos_snaps) = main_run_summary(&c);
            rec.push_run("chaos", &chaos_sink);
            rec.extend_snapshots(label_snapshots("chaos", chaos_snaps));

            let (detections, labels) =
                record_sweep(&mut rec, sweep, &FaultInjector::none(), threads);
            rec.set_result_json(&json_string(&serde_json::json!({
                "chaos": { "detections": chaos_detections },
                "sweep": { "seeds": sweep.seeds, "runs": labels, "detections": detections },
            })));
        }
        RecordedConfig::SeedSweep(spec) => {
            let (detections, _) = record_sweep(&mut rec, spec, faults, threads);
            rec.set_result_json(&json_string(&serde_json::json!({
                "seeds": spec.seeds,
                "detections": detections,
            })));
        }
        RecordedConfig::FleetSweep(fc) => {
            let points = fleet_points(fc);
            let jobs: Vec<(crate::experiment::fleet_sweep::FleetPoint, ObsSink)> =
                points.into_iter().map(|p| (p, rec.run_sink())).collect();
            let reports = run_sweep_with_threads(&jobs, threads, |(point, sink)| {
                run_fleet_point(fc, point, sink)
            });
            for (point, sink) in &jobs {
                rec.push_run(
                    &format!("w{}:{}", point.workers, point.discipline.key()),
                    sink,
                );
            }
            let result = summarize(fc, reports);
            rec.set_result_json(
                &serde_json::to_string(&result).expect("fleet sweep result serializes"),
            );
        }
        RecordedConfig::FleetChaos(cc) => {
            let points = chaos_points(cc);
            let jobs: Vec<(crate::experiment::fleet_chaos::ChaosPoint, ObsSink)> =
                points.into_iter().map(|p| (p, rec.run_sink())).collect();
            let reports = run_sweep_with_threads(&jobs, threads, |(point, sink)| {
                run_chaos_point(cc, point, sink)
            });
            for (point, sink) in &jobs {
                rec.push_run(
                    &format!(
                        "c{}:r{}:l{}",
                        (point.crash_rate * 10_000.0).round() as u64,
                        point.restart_delay.as_secs(),
                        point.lease_timeout.as_secs()
                    ),
                    sink,
                );
            }
            let result = crate::experiment::fleet_chaos::summarize(cc, reports);
            rec.set_result_json(
                &serde_json::to_string(&result).expect("fleet chaos result serializes"),
            );
        }
        RecordedConfig::SbScale(sc) => {
            let sink = rec.run_sink();
            let mut c = sc.clone();
            c.main.obs = sink.clone();
            c.main.faults = faults.clone();
            let r = run_sb_scale_with_threads(&c, threads);
            rec.push_run("main", &sink);
            rec.set_result_json(&serde_json::to_string(&r).expect("sb_scale result serializes"));
        }
        RecordedConfig::SbScale50m(sc) => {
            let sink = rec.run_sink();
            let mut c = sc.clone();
            c.scale.main.obs = sink.clone();
            c.scale.main.faults = faults.clone();
            let r = run_sb_scale_50m_with_threads(&c, threads);
            rec.push_run("main", &sink);
            rec.set_result_json(
                &serde_json::to_string(&r).expect("sb_scale_50m result serializes"),
            );
        }
    }

    rec.finish()
}

/// Run a seed sweep on `threads` workers, pushing each run into the
/// recorder in seed order regardless of completion order. Returns the
/// per-seed detection counts and the run labels.
fn record_sweep(
    rec: &mut PackRecorder,
    spec: &SweepSpec,
    faults: &FaultInjector,
    threads: usize,
) -> (Vec<u64>, Vec<String>) {
    let jobs: Vec<(u64, ObsSink)> = spec
        .seeds
        .iter()
        .map(|&seed| (seed, rec.run_sink()))
        .collect();
    let results = run_sweep_with_threads(&jobs, threads, |(seed, sink)| {
        let mut c = spec.base.clone();
        c.seed = *seed;
        c.obs = sink.clone();
        c.faults = faults.clone();
        main_run_summary(&c)
    });
    let mut detections = Vec::with_capacity(jobs.len());
    let mut labels = Vec::with_capacity(jobs.len());
    for ((seed, sink), (hits, snaps)) in jobs.iter().zip(results) {
        let label = format!("seed:{seed}");
        rec.push_run(&label, sink);
        rec.extend_snapshots(label_snapshots(&label, snaps));
        detections.push(hits);
        labels.push(label);
    }
    (detections, labels)
}

/// Re-execute a pack from nothing but its own recorded identity:
/// parse the Config and Faults sections back and run [`record_run`]
/// again. The result is a fresh pack to hold against the original —
/// `runpack verify` does exactly that, section digest by section
/// digest.
pub fn rerun_pack(pack: &RunPack, threads: usize) -> Result<RunPack, String> {
    let cfg: RecordedConfig = serde_json::from_str(&pack.config_json)
        .map_err(|e| format!("pack config does not parse: {e}"))?;
    let faults: FaultInjector = if pack.faults_json == "null" {
        FaultInjector::none()
    } else {
        serde_json::from_str(&pack.faults_json)
            .map_err(|e| format!("pack fault schedule does not parse: {e}"))?
    };
    if cfg.experiment() != pack.experiment {
        return Err(format!(
            "pack header says {:?} but its config describes {:?}",
            pack.experiment,
            cfg.experiment()
        ));
    }
    Ok(record_run(&cfg, &faults, threads))
}

#[cfg(test)]
mod tests {
    use super::*;
    use phishsim_runpack::verify_against;

    fn fast_sweep(seeds: Vec<u64>) -> RecordedConfig {
        RecordedConfig::SeedSweep(SweepSpec {
            base: MainConfig::fast(),
            seeds,
        })
    }

    #[test]
    fn table2_pack_is_thread_count_invariant() {
        let cfg = RecordedConfig::SeedSweep(SweepSpec {
            base: MainConfig::fast(),
            seeds: vec![17, 18, 19],
        });
        let p1 = record_run(&cfg, &FaultInjector::none(), 1);
        let p3 = record_run(&cfg, &FaultInjector::none(), 3);
        assert_eq!(p1.encode(), p3.encode());
        assert!(p1.total_events() > 0, "sweep recorded no events");
    }

    #[test]
    fn rerun_reproduces_the_pack_byte_for_byte() {
        let mut base = MainConfig::fast();
        base.snapshots = true;
        let cfg = RecordedConfig::Table2(base);
        let pack = record_run(&cfg, &FaultInjector::none(), 1);
        assert!(
            !pack.snapshots.is_empty(),
            "snapshots=true produced no state snapshots"
        );
        let again = rerun_pack(&pack, 2).expect("pack round-trips");
        let report = verify_against(&pack, &again);
        assert!(report.ok, "self-rerun diverged: {:?}", report.divergence);
        assert_eq!(pack.encode(), again.encode());
    }

    #[test]
    fn seed_change_is_a_detectable_divergence() {
        let a = record_run(&fast_sweep(vec![17]), &FaultInjector::none(), 1);
        let b = record_run(&fast_sweep(vec![18]), &FaultInjector::none(), 1);
        let report = verify_against(&a, &b);
        assert!(!report.ok);
    }

    #[test]
    fn table1_records_and_reruns() {
        let cfg = RecordedConfig::Table1(PreliminaryConfig::fast());
        let pack = record_run(&cfg, &FaultInjector::none(), 1);
        assert_eq!(pack.experiment, "table1");
        assert_eq!(pack.runs.len(), 1);
        assert_eq!(pack.runs[0].label, "main");
        assert!(pack.result_json.contains("abuse_emails"));
        let again = rerun_pack(&pack, 1).expect("reruns");
        assert!(verify_against(&pack, &again).ok);
    }

    #[test]
    fn fleet_sweep_pack_is_thread_invariant_and_reruns() {
        let cfg = RecordedConfig::FleetSweep(FleetSweepConfig::fast());
        let p1 = record_run(&cfg, &FaultInjector::none(), 1);
        let p2 = record_run(&cfg, &FaultInjector::none(), 2);
        assert_eq!(p1.encode(), p2.encode());
        assert_eq!(p1.experiment, "fleet_sweep");
        assert_eq!(p1.runs.len(), 4, "2 fleet sizes x 2 disciplines");
        assert!(p1.total_events() > 0, "fleet spans must be recorded");
        let again = rerun_pack(&p1, 2).expect("fleet pack reruns");
        assert!(verify_against(&p1, &again).ok);
    }

    #[test]
    fn fleet_chaos_pack_is_thread_invariant_and_reruns() {
        let mut cc = FleetChaosConfig::fast();
        cc.sites = 6;
        cc.reports = 80;
        cc.crash_rates = vec![0.5];
        cc.restart_delays = vec![phishsim_simnet::SimDuration::from_secs(10)];
        let cfg = RecordedConfig::FleetChaos(cc);
        let p1 = record_run(&cfg, &FaultInjector::none(), 1);
        let p2 = record_run(&cfg, &FaultInjector::none(), 2);
        assert_eq!(p1.encode(), p2.encode());
        assert_eq!(p1.experiment, "fleet_chaos");
        assert_eq!(p1.runs.len(), 2, "baseline + one chaos cell");
        assert!(p1.result_json.contains("throughput_retention"));
        let again = rerun_pack(&p1, 2).expect("fleet chaos pack reruns");
        assert!(verify_against(&p1, &again).ok);
    }

    #[test]
    fn sb_scale_pack_is_thread_invariant_and_reruns() {
        let mut sc = SbScaleConfig::fast();
        sc.baseline_hashes = 500;
        sc.churn_add = 20;
        sc.population.clients = 300;
        sc.population.batch = 64;
        let cfg = RecordedConfig::SbScale(sc);
        let p1 = record_run(&cfg, &FaultInjector::none(), 1);
        let p2 = record_run(&cfg, &FaultInjector::none(), 2);
        assert_eq!(p1.encode(), p2.encode());
        assert_eq!(p1.experiment, "sb_scale");
        assert!(p1.result_json.contains("versions_published"));
        let again = rerun_pack(&p1, 2).expect("sb_scale pack reruns");
        assert!(verify_against(&p1, &again).ok);
    }

    #[test]
    fn sb_scale_50m_pack_is_thread_invariant_and_reruns() {
        let mut sc = SbScale50mConfig::fast();
        sc.scale.baseline_hashes = 500;
        sc.scale.churn_add = 20;
        sc.scale.population.batch = 64;
        sc.populations = vec![300, 1_200];
        let cfg = RecordedConfig::SbScale50m(sc);
        let p1 = record_run(&cfg, &FaultInjector::none(), 1);
        let p2 = record_run(&cfg, &FaultInjector::none(), 2);
        assert_eq!(p1.encode(), p2.encode());
        assert_eq!(p1.experiment, "sb_scale_50m");
        assert!(p1.result_json.contains("within_one_sample_step"));
        let again = rerun_pack(&p1, 2).expect("sb_scale_50m pack reruns");
        assert!(verify_against(&p1, &again).ok);
    }

    #[test]
    fn chaos_faults_round_trip_through_the_pack() {
        let cfg = RecordedConfig::Table2(MainConfig::fast());
        let faults = FaultInjector::chaos_profile();
        let pack = record_run(&cfg, &faults, 1);
        assert_ne!(pack.faults_json, "null");
        let again = rerun_pack(&pack, 1).expect("chaos pack reruns");
        assert!(verify_against(&pack, &again).ok);
    }
}
