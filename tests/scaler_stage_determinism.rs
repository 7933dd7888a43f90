//! The AutoScaler runs beside the serving loop — inline at `par_jobs() ==
//! 1`, on its own thread above that — and a prefill above its floor fans
//! out over the same knob. Neither may show in any output: every scenario
//! below must produce the same run at 1, 2 and 4 workers.
//!
//! One `#[test]` on purpose: `with_par_jobs` pins a process-wide count,
//! and sibling tests in this binary would race it.

use elmem::cluster::frontend::PREFILL_FANOUT_MIN;
use elmem::cluster::ClusterConfig;
use elmem::core::migration::MigrationCosts;
use elmem::core::{
    run_experiment, AutoScalerConfig, ExperimentConfig, ExperimentResult, FaultPlan, HealingConfig,
    MigrationPolicy,
};
use elmem::util::par::with_par_jobs;
use elmem::util::{NodeId, SimTime};
use elmem::workload::{DemandTrace, Keyspace, WorkloadConfig};

const KEYS: u64 = 70_000;

fn scaler(cluster: &ClusterConfig) -> AutoScalerConfig {
    // 1 200 lookups/s at peak against an r_DB of 20/s: Eq. (1) wants a
    // 98 % hit rate there and 67 % in the trough.
    let mut scaler = AutoScalerConfig::new(20.0, cluster.node_memory);
    scaler.epoch = SimTime::from_secs(20);
    scaler.min_nodes = 2;
    scaler.max_nodes = 5;
    scaler.min_observations = 20_000;
    scaler
}

/// Demand high, low, high on a fully prefilled tier, under a reactive
/// AutoScaler.
fn reactive() -> ExperimentConfig {
    let cluster = ClusterConfig::small_test();
    let steps = vec![1.0, 1.0, 1.0, 1.0, 0.05, 0.05, 0.05, 0.05, 1.0, 1.0, 1.0];
    ExperimentConfig {
        workload: WorkloadConfig {
            keyspace: Keyspace::new(KEYS, 6),
            zipf_exponent: 1.0,
            items_per_request: 3,
            peak_rate: 400.0,
            trace: DemandTrace::new(steps, SimTime::from_secs(20)),
        },
        policy: MigrationPolicy::elmem(),
        autoscaler: Some(scaler(&cluster)),
        scheduled: vec![],
        prefill_top_ranks: KEYS,
        costs: MigrationCosts::default(),
        faults: FaultPlan::new(),
        healing: None,
        master: Default::default(),
        seed: 41,
        cluster,
    }
}

fn run_at(jobs: usize, config: &ExperimentConfig) -> ExperimentResult {
    with_par_jobs(jobs, || run_experiment(config.clone()))
}

fn assert_same_run(name: &str, jobs: usize, a: &ExperimentResult, b: &ExperimentResult) {
    let what = format!("{name}: {jobs} workers against 1");
    assert_eq!(a.events, b.events, "{what}: events");
    assert_eq!(a.timeline, b.timeline, "{what}: timeline");
    assert_eq!(a.journal, b.journal, "{what}: journal");
    assert_eq!(a.recoveries, b.recoveries, "{what}: recoveries");
    assert_eq!(
        a.profiler_tracked_keys, b.profiler_tracked_keys,
        "{what}: profiler population"
    );
    assert!(
        a.telemetry.to_json() == b.telemetry.to_json(),
        "{what}: telemetry dumps differ"
    );
}

#[test]
fn worker_count_never_shows_in_a_scaled_run() {
    assert!(
        KEYS as usize >= PREFILL_FANOUT_MIN,
        "the prefill must be long enough to fan out above 1 worker"
    );
    let base = reactive();

    // A crash the detector must confirm and a warmed replacement must
    // repair, while the AutoScaler keeps sizing the tier around it.
    let healed = ExperimentConfig {
        faults: FaultPlan::new().crash(SimTime::from_secs(30), NodeId(1)),
        healing: Some(HealingConfig::warm_replacement()),
        ..base.clone()
    };

    // The Master dies 200 ms into the first migration the AutoScaler asks
    // for, and resumes it from the journal.
    let first = run_at(1, &base);
    let decided_at = first.events.first().expect("the drop scales in").decided_at;
    let mut crashed = base.clone();
    crashed.master.crashes = vec![decided_at + SimTime::from_millis(200)];

    let scenarios = [
        ("reactive", base),
        ("crash + healing", healed),
        ("master crash", crashed),
    ];
    for (name, config) in &scenarios {
        let reference = run_at(1, config);
        // Each scenario must actually exercise what it is named for.
        assert!(reference.profiler_tracked_keys > 0, "{name}: scaler ran");
        let scaled = |grew: bool| {
            let mut events = reference.events.iter();
            events.any(|e| (e.to_nodes > e.from_nodes) == grew)
        };
        assert!(scaled(false) && scaled(true), "{name}: scaled in and out");
        match *name {
            "crash + healing" => assert_eq!(reference.recoveries.len(), 1, "{name}"),
            "master crash" => {
                let resumed = reference
                    .events
                    .iter()
                    .filter_map(|e| e.report.as_ref())
                    .any(|r| !r.resumes.is_empty());
                assert!(resumed, "{name}: the crash interrupted a migration");
                assert!(!reference.journal.is_empty(), "{name}");
            }
            _ => {}
        }
        for jobs in [2, 4] {
            assert_same_run(name, jobs, &run_at(jobs, config), &reference);
        }
    }
}
