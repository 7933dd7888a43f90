//! Property test for the self-healing loop: under *any* small fault plan
//! — crashes, partitions, slow links at arbitrary times and targets — the
//! detector converges. No live node is ever confirmed dead (partitions and
//! slow links flap suspicion but never kill), every node that crashes
//! during the run leaves the final membership (except the one corpse the
//! tier keeps when *everything* died and no replacement policy is armed),
//! and the healed timeline is bit-reproducible.

use elmem::cluster::ClusterConfig;
use elmem::core::migration::MigrationCosts;
use elmem::core::{
    run_experiment, ExperimentConfig, FaultPlan, HealingConfig, MigrationPolicy, ScaleAction,
};
use elmem::util::{NodeId, SimTime};
use elmem::workload::{DemandTrace, Keyspace, WorkloadConfig};
use proptest::prelude::*;

fn config(faults: FaultPlan, healing: HealingConfig, seed: u64) -> ExperimentConfig {
    ExperimentConfig {
        cluster: ClusterConfig::small_test(),
        workload: WorkloadConfig {
            keyspace: Keyspace::new(8_000, 3),
            zipf_exponent: 1.0,
            items_per_request: 3,
            peak_rate: 150.0,
            trace: DemandTrace::new(vec![1.0; 6], SimTime::from_secs(10)),
        },
        policy: MigrationPolicy::elmem(),
        autoscaler: None,
        scheduled: vec![(SimTime::from_secs(20), ScaleAction::In { count: 1 })],
        prefill_top_ranks: 4_000,
        costs: MigrationCosts::default(),
        faults,
        healing: Some(healing),
        master: Default::default(),
        seed,
    }
}

/// One generated fault: (kind selector, at-second, node, factor/duration).
type RawFault = (u8, u64, u32, u64);

fn build_plan(raw: &[RawFault]) -> FaultPlan {
    let mut plan = FaultPlan::new();
    for &(kind, at_s, node, extra) in raw {
        let at = SimTime::from_secs(at_s);
        let node = NodeId(node);
        plan = match kind % 3 {
            0 => plan.crash(at, node),
            1 => plan.slow_link(
                at,
                node,
                2.0 + (extra % 14) as f64,
                SimTime::from_secs(10 + extra),
            ),
            _ => plan.partition(at, node, SimTime::from_secs(1 + extra % 20)),
        };
    }
    plan
}

fn healing_mode(mode: u8) -> HealingConfig {
    match mode % 2 {
        0 => HealingConfig::evict_only(),
        _ => HealingConfig::warm_replacement(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]
    #[test]
    fn detector_converges_under_any_fault_plan(
        raw in prop::collection::vec(
            (0u8..3, 0u64..50, 0u32..4, 0u64..30),
            0..4,
        ),
        mode in 0u8..2,
        seed in 0u64..50,
    ) {
        let plan = build_plan(&raw);
        let healing = healing_mode(mode);
        let result = run_experiment(config(plan.clone(), healing, seed));

        // 1. Safety: only nodes that actually crashed are ever confirmed
        // dead. A partitioned or slow-linked node flaps in suspicion but
        // must never trigger a recovery.
        for rec in &result.recoveries {
            let crashed_at = rec.crashed_at;
            prop_assert!(
                crashed_at.is_some(),
                "node {:?} was confirmed dead without a scheduled crash",
                rec.node
            );
            prop_assert!(rec.confirmed_at >= crashed_at.unwrap());
            prop_assert!(rec.confirmed_at >= rec.suspected_at);
            prop_assert!(rec.recovered_at >= rec.confirmed_at);
        }

        // 2. Liveness: every crashed member is eventually evicted. The one
        // exception: with no replacement policy, a fully-dead tier keeps a
        // single corpse so clients still have somewhere to hash to.
        if result.final_crashed_members > 0 {
            prop_assert!(!healing.replace);
            prop_assert_eq!(result.final_crashed_members, 1);
            prop_assert_eq!(result.final_members, 1);
        }

        // 3. The tier never empties, and counters stay coherent.
        prop_assert!(result.final_members >= 1);
        prop_assert!(result.total_requests > 0);
        prop_assert!(result.probes_sent > 0, "the detector must have probed");

        // 4. Bit-reproducibility of the whole healed run.
        let replay = run_experiment(config(plan, healing, seed));
        prop_assert_eq!(&result.timeline, &replay.timeline);
        prop_assert_eq!(&result.recoveries, &replay.recoveries);
        prop_assert_eq!(result.final_members, replay.final_members);
        prop_assert_eq!(result.client_timeouts, replay.client_timeouts);
        prop_assert_eq!(result.breaker_transitions, replay.breaker_transitions);
        prop_assert_eq!(result.probes_sent, replay.probes_sent);
    }
}
