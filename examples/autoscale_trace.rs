//! Drive the full elastic stack with a Facebook-style demand trace and the
//! §III-B AutoScaler: watch it scale the tier and keep the database under
//! its capacity.
//!
//! Run with: `cargo run --release --example autoscale_trace`

use elmem::cluster::ClusterConfig;
use elmem::core::migration::MigrationCosts;
use elmem::core::{run_experiment, AutoScalerConfig, ExperimentConfig, FaultPlan, MigrationPolicy};
use elmem::util::SimTime;
use elmem::workload::{GeneralizedPareto, Keyspace, TraceKind, WorkloadConfig};

fn main() {
    let mut cluster = ClusterConfig::small_test();
    cluster.initial_nodes = 6;
    let mut scaler = AutoScalerConfig::new(cluster.r_db(), cluster.node_memory);
    scaler.epoch = SimTime::from_secs(60);
    scaler.max_nodes = 8;
    // Let the stack-distance estimator see a few minutes of reuse before
    // trusting its quantiles (see the autoscaler module docs).
    scaler.min_observations = 400_000;

    let config = ExperimentConfig {
        workload: WorkloadConfig {
            // Values capped at 4 KB so the tiny demo nodes (4 MB, 4 pages)
            // can give every touched slab class a page.
            keyspace: Keyspace::with_distribution(
                100_000,
                7,
                GeneralizedPareto::facebook_etc(),
                4_000,
            ),
            zipf_exponent: 1.0,
            items_per_request: 3,
            peak_rate: 1000.0,
            trace: TraceKind::FacebookSys.demand_trace(),
        },
        policy: MigrationPolicy::elmem(),
        autoscaler: Some(scaler),
        scheduled: vec![],
        prefill_top_ranks: 50_000,
        costs: MigrationCosts::default(),
        faults: FaultPlan::new(),
        healing: None,
        master: Default::default(),
        seed: 7,
        cluster,
    };

    println!("running the SYS trace (60 simulated minutes) with the AutoScaler...\n");
    let result = run_experiment(config);

    println!("scaling events:");
    if result.events.is_empty() {
        println!("  (none)");
    }
    for ev in &result.events {
        let kind = if ev.to_nodes < ev.from_nodes {
            "IN "
        } else {
            "OUT"
        };
        let migrated = ev
            .report
            .as_ref()
            .map(|r| {
                format!(
                    ", migrated {} items in {}",
                    r.items_migrated,
                    r.phases.total()
                )
            })
            .unwrap_or_default();
        println!(
            "  {kind} t={:>7} {} -> {} nodes{migrated}",
            ev.decided_at.to_string(),
            ev.from_nodes,
            ev.to_nodes
        );
    }

    println!("\nper-minute timeline (hit rate / p95 ms):");
    for p in result.timeline.iter().filter(|p| p.second % 60 == 0) {
        let bar: String = std::iter::repeat_n('#', (p.hit_rate * 30.0) as usize).collect();
        println!(
            "  min {:>2}  hit {:.3} {bar:<30} p95 {:>8.2} ms",
            p.second / 60,
            p.hit_rate,
            p.p95_ms
        );
    }
    println!(
        "\nserved {} requests; final tier size: {} nodes",
        result.total_requests, result.final_members
    );
}
