//! Property test for the figures' sweeps: for *any* small grid of
//! experiment cells and *any* worker count, running them through
//! `par_map_indexed` must produce results — including the golden telemetry
//! dumps — byte-identical to the serial run, in cell order.

use elmem_cluster::ClusterConfig;
use elmem_core::migration::MigrationCosts;
use elmem_core::{
    run_experiment, ExperimentConfig, ExperimentResult, FaultPlan, MigrationPolicy, ScaleAction,
};
use elmem_util::par::par_map_indexed;
use elmem_util::SimTime;
use elmem_workload::{DemandTrace, Keyspace, WorkloadConfig};
use proptest::prelude::*;

/// One generated cell: (seed, policy selector, scale-in selector — 0 means
/// no scheduled action, anything else lands a scale-in at `5 + s % 30`s).
type RawCell = (u64, u8, u64);

fn cell_config(raw: &RawCell) -> ExperimentConfig {
    let (seed, policy_sel, scale_sel) = *raw;
    let policy = match policy_sel % 3 {
        0 => MigrationPolicy::Baseline,
        1 => MigrationPolicy::elmem(),
        _ => MigrationPolicy::Naive,
    };
    ExperimentConfig {
        cluster: ClusterConfig::small_test(),
        workload: WorkloadConfig {
            keyspace: Keyspace::new(6_000, seed),
            zipf_exponent: 1.0,
            items_per_request: 3,
            peak_rate: 120.0,
            trace: DemandTrace::new(vec![1.0; 5], SimTime::from_secs(8)),
        },
        policy,
        autoscaler: None,
        scheduled: if scale_sel == 0 {
            vec![]
        } else {
            vec![(
                SimTime::from_secs(5 + scale_sel % 30),
                ScaleAction::In { count: 1 },
            )]
        },
        prefill_top_ranks: 3_000,
        costs: MigrationCosts::default(),
        faults: FaultPlan::new(),
        healing: None,
        master: Default::default(),
        seed,
    }
}

/// Everything observable about a cell's result, as one byte string.
fn digest(r: &ExperimentResult) -> String {
    format!(
        "requests={} members={} events={} timeouts={} dump={}",
        r.total_requests,
        r.final_members,
        r.events.len(),
        r.client_timeouts,
        r.telemetry.to_json()
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    #[test]
    fn parallel_sweep_is_byte_identical_to_serial(
        raws in prop::collection::vec(
            (0u64..1000, 0u8..3, 0u64..30),
            1..5,
        ),
        jobs in 2usize..8,
    ) {
        let cells: Vec<ExperimentConfig> = raws.iter().map(cell_config).collect();
        let run = |jobs: usize| -> Vec<String> {
            par_map_indexed(jobs, &cells, |_, cfg| {
                digest(&run_experiment(cfg.clone()))
            })
        };
        let serial = run(1);
        let parallel = run(jobs);
        prop_assert_eq!(&serial, &parallel);
        // And a second parallel pass at a different worker count agrees too
        // (scheduling nondeterminism must never leak into results).
        let parallel2 = run(jobs / 2 + 1);
        prop_assert_eq!(&serial, &parallel2);
    }
}
