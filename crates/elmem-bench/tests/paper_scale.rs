//! The paper's scale end to end, under `cargo test`: a 100-node tier over
//! the ~19 M-key ETC population at 20 k req/s peak, a compressed diurnal
//! day (420 s) with a 10-node scale-in at the trough and the matching
//! scale-out on the ramp. No threshold is touched: the exact→MIMIR
//! profiler switch engages through its real constant, and the Zipf sampler
//! is the one every size uses.
//!
//! `#[ignore]`d — in release on a 2-vCPU VM, 67 s of wall clock (39 s at
//! one worker, 28 s at four) and 1.03 GiB peak RSS; CI runs it nightly:
//!
//! ```text
//! cargo test --release -p elmem-bench --test paper_scale -- --ignored --nocapture
//! ```

use std::time::Instant;

use elmem_bench::exp::{experiment_preset, Preset};
use elmem_core::{
    run_experiment, AutoScalerConfig, ExperimentConfig, ExperimentResult, MigrationPolicy,
    ScaleAction,
};
use elmem_stackdist::ADAPTIVE_SWITCH_KEYS;
use elmem_util::par::with_par_jobs;
use elmem_util::{DetRng, SimTime};
use elmem_workload::{DemandTrace, RequestGenerator, TraceKind};

const NODES: u32 = 100;

/// MIMIR may briefly hold one rotating bucket beyond the population it
/// adopted at the switch, so the end-of-run count may exceed the switch
/// threshold by this factor.
const TRACKED_KEYS_SLACK: f64 = 1.10;

fn experiment() -> ExperimentConfig {
    let count = NODES / 10;
    let step = SimTime::from_secs(60);
    let mut config = experiment_preset(
        Preset::Paper,
        TraceKind::FacebookEtc,
        NODES,
        MigrationPolicy::elmem(),
        vec![
            (step * 3, ScaleAction::In { count }),
            (step * 6, ScaleAction::Out { count }),
        ],
        20,
    );
    // One diurnal day compressed into seven steps, in place of the
    // published ETC shape.
    config.workload.trace =
        DemandTrace::new(vec![1.0, 0.85, 0.6, 0.45, 0.45, 0.6, 0.85, 1.0], step);
    // The autoscaler observes every lookup (the paper's always-on
    // monitoring, the stack-distance hot path) but never decides: the
    // scaling actions are scripted, so every run executes the same pair.
    let mut scaler = AutoScalerConfig::new(config.cluster.r_db(), config.cluster.node_memory);
    scaler.min_observations = u64::MAX;
    scaler.max_nodes = NODES + NODES / 5;
    config.autoscaler = Some(scaler);
    config
}

/// End-state counters, scaling events and the full telemetry dump.
fn digest(r: &ExperimentResult) -> String {
    format!(
        "requests={} members={} events={} timeouts={} retired_or_added={} tracked={} dump={}",
        r.total_requests,
        r.final_members,
        r.events.len(),
        r.client_timeouts,
        r.events.iter().map(|e| e.nodes.len()).sum::<usize>(),
        r.profiler_tracked_keys,
        r.telemetry.to_json()
    )
}

#[test]
#[ignore = "paper scale: about 70 s of wall clock, 1.03 GiB peak RSS; run in release"]
fn paper_scale_run_is_worker_count_independent_and_bounded() {
    let keys = Preset::Paper.keys();
    let table_bytes = RequestGenerator::new(experiment().workload, DetRng::seed(20))
        .zipf()
        .table_bytes();
    assert!(
        table_bytes <= 16 << 10,
        "the sampler's table is {table_bytes} bytes at {keys} keys: it must stay in L1"
    );

    let run = |jobs: usize| {
        let t0 = Instant::now();
        let r = with_par_jobs(jobs, || run_experiment(experiment()));
        println!(
            "jobs={jobs}: {} requests, {} scaling events, {} tracked keys, {:.1}s",
            r.total_requests,
            r.events.len(),
            r.profiler_tracked_keys,
            t0.elapsed().as_secs_f64()
        );
        assert_eq!(
            r.events.len(),
            2,
            "jobs={jobs}: scale-in and scale-out must both commit"
        );
        (digest(&r), r.profiler_tracked_keys as u64)
    };
    let (serial, tracked) = run(1);
    let (parallel, _) = run(4);
    assert!(
        serial == parallel,
        "counters + telemetry dump differ between 1 and 4 workers"
    );

    let bound = (ADAPTIVE_SWITCH_KEYS as f64 * TRACKED_KEYS_SLACK) as u64;
    assert!(
        tracked <= bound && tracked < keys,
        "profiler tracks {tracked} keys: bound {bound}, keyspace {keys}"
    );
}
