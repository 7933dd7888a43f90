//! Cross-crate integration: the §III-B AutoScaler driving the full stack —
//! Eq. (1) + stack-distance sizing reacts to demand changes, and the hit
//! rate after scaling stays sufficient for the database (p ≥ p_min).

use elmem::cluster::ClusterConfig;
use elmem::core::migration::MigrationCosts;
use elmem::core::{run_experiment, AutoScalerConfig, ExperimentConfig, FaultPlan, MigrationPolicy};
use elmem::util::SimTime;
use elmem::workload::{DemandTrace, Keyspace, WorkloadConfig};

fn config(trace: DemandTrace, peak_rate: f64, seed: u64) -> ExperimentConfig {
    let cluster = ClusterConfig::small_test();
    let mut scaler = AutoScalerConfig::new(cluster.r_db(), cluster.node_memory);
    scaler.epoch = SimTime::from_secs(30);
    scaler.max_nodes = 8;
    // Small-scale test: warm up within the first epoch.
    scaler.min_observations = 20_000;
    ExperimentConfig {
        workload: WorkloadConfig {
            keyspace: Keyspace::new(30_000, 6),
            zipf_exponent: 1.0,
            items_per_request: 3,
            peak_rate,
            trace,
        },
        policy: MigrationPolicy::elmem(),
        autoscaler: Some(scaler),
        scheduled: vec![],
        prefill_top_ranks: 15_000,
        costs: MigrationCosts::default(),
        faults: FaultPlan::new(),
        healing: None,
        master: Default::default(),
        seed,
        cluster,
    }
}

#[test]
fn demand_drop_triggers_scale_in() {
    // High demand for 2 min, then a sustained drop to 10%.
    let trace = DemandTrace::new(
        vec![1.0, 1.0, 1.0, 1.0, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1],
        SimTime::from_secs(30),
    );
    let result = run_experiment(config(trace, 400.0, 41));
    assert!(
        !result.events.is_empty(),
        "the drop should trigger at least one scale-in"
    );
    assert!(
        result.final_members < 4,
        "tier should shrink, ended at {}",
        result.final_members
    );
    // Every event here is a scale-in.
    for ev in &result.events {
        assert!(ev.to_nodes < ev.from_nodes);
    }
}

#[test]
fn steady_low_demand_never_scales_out() {
    let trace = DemandTrace::new(vec![0.2; 11], SimTime::from_secs(30));
    let result = run_experiment(config(trace, 300.0, 43));
    for ev in &result.events {
        assert!(ev.to_nodes < ev.from_nodes, "low demand must not scale out");
    }
}

#[test]
fn hit_rate_stays_adequate_after_autoscaling() {
    // After scale-in, the achieved hit rate must keep DB load ≈ under r_DB:
    // misses/s ≤ r_DB with headroom for estimation noise.
    let trace = DemandTrace::new(
        vec![1.0, 1.0, 1.0, 1.0, 0.3, 0.3, 0.3, 0.3, 0.3, 0.3, 0.3],
        SimTime::from_secs(30),
    );
    let cfg = config(trace, 400.0, 47);
    let r_db = cfg.cluster.r_db();
    let result = run_experiment(cfg);
    if result.events.is_empty() {
        return; // nothing scaled; trivially fine
    }
    let settle = result.events.last().unwrap().committed_at.as_secs() + 60;
    let late: Vec<_> = result
        .timeline
        .iter()
        .filter(|p| p.second >= settle && p.requests > 0)
        .collect();
    if late.is_empty() {
        return;
    }
    // Average miss throughput late in the run.
    let total_lookups: u64 = late.iter().map(|p| p.requests * 3).sum();
    let miss_rate = 1.0 - late.iter().map(|p| p.hit_rate).sum::<f64>() / late.len() as f64;
    let misses_per_sec = miss_rate * total_lookups as f64 / late.len() as f64;
    assert!(
        misses_per_sec < r_db * 1.5,
        "DB overloaded after scaling: {misses_per_sec:.0} misses/s vs r_DB {r_db}"
    );
}

#[test]
fn autoscaler_respects_busy_master() {
    // Two back-to-back decisions cannot overlap: committed_at of event i
    // must precede decided_at of event i+1.
    let trace = DemandTrace::new(
        vec![1.0, 1.0, 0.5, 0.3, 0.2, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1],
        SimTime::from_secs(30),
    );
    let result = run_experiment(config(trace, 400.0, 53));
    for pair in result.events.windows(2) {
        assert!(
            pair[0].committed_at <= pair[1].decided_at,
            "scaling actions overlapped"
        );
    }
}
