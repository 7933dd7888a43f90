//! Property tests for the pipelined migration planner: the shipment plan
//! — contents, order, and stats — must be **byte-identical** whatever the
//! worker count, across arbitrary warm states, node counts, and retiring
//! sets; and the full supervised migration (report and every surviving
//! store) must be unaffected by the worker-count knob.

use elmem::cluster::{CacheTier, ClusterConfig};
use elmem::core::migration::{
    migrate, plan_scale_in_shipments, MigrateJob, MigrationCosts, Supervision,
};
use elmem::store::{ImportMode, MetadataDump};
use elmem::util::par::with_par_jobs;
use elmem::util::{KeyId, NodeId, SimTime};
use proptest::prelude::*;

/// A warm tier: each access `(key, extra)` sets the key at its ring owner
/// with value size `32 + extra` and a strictly increasing timestamp
/// (duplicates re-access, refreshing recency).
fn warm_tier(nodes: u32, accesses: &[(u64, u16)]) -> CacheTier {
    let mut cfg = ClusterConfig::small_test();
    cfg.initial_nodes = nodes;
    let mut tier = CacheTier::new(cfg);
    let mut now = SimTime::from_secs(1);
    for &(k, extra) in accesses {
        let key = KeyId(k);
        let owner = tier.node_for_key(key).unwrap();
        let _ = tier
            .node_mut(owner)
            .unwrap()
            .store
            .set(key, 32 + u32::from(extra), now);
        now += SimTime::from_secs(1);
    }
    tier
}

/// Every member's full metadata dump — the observable store state a
/// migration leaves behind (MRU order included).
fn tier_state(tier: &CacheTier) -> Vec<(NodeId, MetadataDump)> {
    tier.membership()
        .members()
        .iter()
        .map(|&id| (id, tier.node(id).unwrap().store.dump_metadata()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn pipelined_plan_is_byte_identical_to_serial(
        nodes in 3u32..8,
        accesses in prop::collection::vec((0u64..5000, 0u16..2000), 50..600),
        retire in 1usize..3,
    ) {
        let tier = warm_tier(nodes, &accesses);
        let retiring: Vec<NodeId> = (0..retire.min(nodes as usize - 1))
            .map(|i| NodeId(i as u32))
            .collect();
        let (serial_plan, serial_stats) =
            plan_scale_in_shipments(&tier, &retiring, 1).unwrap();
        for jobs in [2usize, 3, 8] {
            let (plan, stats) = plan_scale_in_shipments(&tier, &retiring, jobs).unwrap();
            prop_assert_eq!(&plan, &serial_plan, "jobs={} plan diverges from serial", jobs);
            prop_assert_eq!(stats, serial_stats, "jobs={} stats diverge from serial", jobs);
        }
    }

    #[test]
    fn migration_outcome_ignores_planner_jobs(
        accesses in prop::collection::vec((0u64..3000, 0u16..1000), 50..400),
        victim in 0u32..4,
    ) {
        let tier = warm_tier(4, &accesses);
        let retiring = [NodeId(victim)];
        let now = SimTime::from_secs(1_000_000);
        let costs = MigrationCosts::default();
        let mut reference = None;
        for jobs in [1usize, 4] {
            let mut t = tier.clone();
            let job = MigrateJob::ScaleIn {
                retiring: &retiring,
                import_mode: ImportMode::Merge,
            };
            let report = with_par_jobs(jobs, || {
                migrate(&mut t, &job, now, &costs, &mut Supervision::none(), None)
            })
            .unwrap();
            let state = tier_state(&t);
            match &reference {
                None => reference = Some((report, state)),
                Some((r0, s0)) => {
                    prop_assert_eq!(&report, r0, "jobs={} report diverges", jobs);
                    prop_assert_eq!(&state, s0, "jobs={} store state diverges", jobs);
                }
            }
        }
    }
}
