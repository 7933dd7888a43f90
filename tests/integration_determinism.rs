//! Whole-system determinism: identical seeds give bit-identical runs;
//! different seeds differ. This is what makes every experiment in
//! EXPERIMENTS.md reproducible with a single command.

use elmem::cluster::ClusterConfig;
use elmem::core::migration::MigrationCosts;
use elmem::core::{run_experiment, ExperimentConfig, FaultPlan, MigrationPolicy, ScaleAction};
use elmem::util::SimTime;
use elmem::workload::{Keyspace, TraceKind, WorkloadConfig};

fn config(seed: u64) -> ExperimentConfig {
    ExperimentConfig {
        cluster: ClusterConfig::small_test(),
        workload: WorkloadConfig {
            keyspace: Keyspace::new(20_000, 4),
            zipf_exponent: 0.95,
            items_per_request: 4,
            peak_rate: 150.0,
            trace: TraceKind::FacebookEtc.demand_trace(),
        },
        policy: MigrationPolicy::elmem(),
        autoscaler: None,
        scheduled: vec![
            (SimTime::from_secs(600), ScaleAction::In { count: 1 }),
            (SimTime::from_secs(1800), ScaleAction::Out { count: 1 }),
        ],
        prefill_top_ranks: 10_000,
        costs: MigrationCosts::default(),
        faults: FaultPlan::new(),
        healing: None,
        master: Default::default(),
        seed,
    }
}

#[test]
fn same_seed_identical_results() {
    let a = run_experiment(config(99));
    let b = run_experiment(config(99));
    assert_eq!(a.timeline, b.timeline);
    assert_eq!(a.total_requests, b.total_requests);
    assert_eq!(a.final_members, b.final_members);
    assert_eq!(a.events.len(), b.events.len());
    for (ea, eb) in a.events.iter().zip(&b.events) {
        assert_eq!(ea, eb);
    }
}

#[test]
fn same_seed_identical_telemetry_dumps() {
    // The full observability surface — event stream, latency histograms,
    // counter series, per-node rows — must be byte-identical across two
    // runs of the same seed.
    let a = run_experiment(config(99));
    let b = run_experiment(config(99));
    assert_eq!(a.telemetry, b.telemetry);
    assert_eq!(a.telemetry.to_json(), b.telemetry.to_json());
    assert!(
        a.telemetry.recorded_events > 0,
        "the two scalings must populate the stream"
    );
}

#[test]
fn concurrent_runs_are_byte_identical_to_serial() {
    // The sweep harness's foundational claim, checked here at the system
    // level without the harness itself: experiments share no state, so
    // running them on concurrent threads — different seeds racing each
    // other — reproduces the serial runs bit for bit, telemetry dump
    // included. (The harness's own scheduling test lives with
    // `elmem-bench::sweep`; this guards the experiment side.)
    let seeds = [11u64, 12, 13, 14];
    let serial: Vec<String> = seeds
        .iter()
        .map(|&s| run_experiment(config(s)).telemetry.to_json())
        .collect();
    let concurrent: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = seeds
            .iter()
            .map(|&s| scope.spawn(move || run_experiment(config(s)).telemetry.to_json()))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(serial, concurrent);
}

#[test]
fn different_seeds_differ() {
    let a = run_experiment(config(1));
    let b = run_experiment(config(2));
    assert_ne!(
        a.total_requests, b.total_requests,
        "different seeds should give different arrival counts"
    );
}

#[test]
fn both_scheduled_actions_execute() {
    let r = run_experiment(config(7));
    assert_eq!(r.events.len(), 2);
    assert!(r.events[0].to_nodes < r.events[0].from_nodes); // scale-in
    assert!(r.events[1].to_nodes > r.events[1].from_nodes); // scale-out
    assert_eq!(r.final_members, 4);
}
