//! Property tests for `plan`, the one migration planner, pinned through
//! the `plan_scale_in_shipments` shim and through `migrate`: the shipment
//! plan — contents, order, and stats — must be **byte-identical** whatever
//! the worker count, across arbitrary warm states, node counts, and
//! retiring sets; and every migration job (report and every store it
//! leaves behind) must be unaffected by it. A store keeps one MRU list per
//! class, so the worker count is the only knob left (the shard legs went
//! with the shards).

use elmem::cluster::{CacheTier, ClusterConfig};
use elmem::core::migration::{
    migrate, plan_scale_in_shipments, MigrateJob, MigrationCosts, MigrationReport, Supervision,
};
use elmem::core::MigrationJournal;
use elmem::store::{ImportMode, MetadataDump, StoreStats};
use elmem::util::par::with_par_jobs;
use elmem::util::{ByteSize, KeyId, NodeId, SimTime};
use proptest::prelude::*;

/// A warm tier under `cfg`: each access `(key, extra)` sets the key at its
/// ring owner with value size `32 + extra` and a strictly increasing
/// timestamp (duplicates re-access, refreshing recency) — or, with
/// `one_instant`, the same timestamp throughout, so every MRU list is in
/// access order while its canonical order is the hotness tie-break's and
/// the planner's per-cell dump has to sort.
fn warm_tier(cfg: ClusterConfig, accesses: &[(u64, u16)], one_instant: bool) -> CacheTier {
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
        if !one_instant {
            now += SimTime::from_secs(1);
        }
    }
    tier
}

/// The small test cluster with `nodes` members.
fn small(nodes: u32) -> ClusterConfig {
    ClusterConfig {
        initial_nodes: nodes,
        ..ClusterConfig::small_test()
    }
}

/// Every node's full metadata dump and counters, members or not — the
/// observable store state a migration leaves behind (MRU order included).
fn tier_state(tier: &CacheTier) -> Vec<(NodeId, MetadataDump, StoreStats)> {
    tier.iter_nodes()
        .map(|n| (n.id(), n.store.dump_metadata(), n.store.stats()))
        .collect()
}

/// The three directions the one engine runs.
#[derive(Debug, Clone, Copy)]
enum Direction {
    ScaleIn,
    ScaleOut,
    Naive(f64),
}

/// Runs `direction` on a clone of `tier` with the planner pinned to `jobs`
/// workers; returns the report and the state of every store.
fn run(
    tier: &CacheTier,
    direction: Direction,
    retiring: &[NodeId],
    jobs: usize,
) -> (MigrationReport, Vec<(NodeId, MetadataDump, StoreStats)>) {
    let mut t = tier.clone();
    let new_nodes = t.provision_nodes(1);
    let job = match direction {
        Direction::ScaleIn => MigrateJob::ScaleIn {
            retiring,
            import_mode: ImportMode::Merge,
        },
        Direction::ScaleOut => MigrateJob::ScaleOut {
            new_nodes: &new_nodes,
        },
        Direction::Naive(fraction) => MigrateJob::NaiveScaleIn { retiring, fraction },
    };
    let now = SimTime::from_secs(1_000_000);
    let costs = MigrationCosts::default();
    let report = with_par_jobs(jobs, || {
        migrate(
            &mut t,
            &job,
            now,
            &costs,
            &mut Supervision::none(),
            (&mut MigrationJournal::new(), 0),
        )
    })
    .unwrap();
    (report, tier_state(&t))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn pipelined_plan_is_byte_identical_to_serial(
        nodes in 3u32..8,
        accesses in prop::collection::vec((0u64..5000, 0u16..2000), 50..600),
        retire in 1usize..3,
        one_instant in any::<bool>(),
    ) {
        let retiring: Vec<NodeId> = (0..retire.min(nodes as usize - 1))
            .map(|i| NodeId(i as u32))
            .collect();
        let tier = warm_tier(small(nodes), &accesses, one_instant);
        let (serial_plan, serial_stats) = plan_scale_in_shipments(&tier, &retiring, 1).unwrap();
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
        quarters in 0u32..=4,
        one_instant in any::<bool>(),
    ) {
        let retiring = [NodeId(victim)];
        let naive = Direction::Naive(f64::from(quarters) / 4.0);
        for direction in [Direction::ScaleIn, Direction::ScaleOut, naive] {
            let tier = warm_tier(small(4), &accesses, one_instant);
            let want = run(&tier, direction, &retiring, 1);
            for jobs in [2usize, 4] {
                let got = run(&tier, direction, &retiring, jobs);
                prop_assert_eq!(
                    &got.0, &want.0,
                    "{:?} jobs={} report diverges", direction, jobs
                );
                prop_assert_eq!(
                    &got.1, &want.1,
                    "{:?} jobs={} store state diverges", direction, jobs
                );
            }
        }
    }
}

/// Inside `migrate` the planner fans out only when a source holds 32 Ki
/// items, which no generated tier above does. Here a node does, in two
/// slab classes, a third of the items re-read in one instant — so each
/// direction's routing (Naive's per-class trim included) and selection
/// really run on workers.
#[test]
fn migration_above_the_fanout_floor_ignores_jobs() {
    let accesses: Vec<(u64, u16)> = (0..130_000u64).map(|k| (k, 40 * (k % 7) as u16)).collect();
    let cfg = ClusterConfig {
        node_memory: ByteSize::from_mib(32),
        ..small(3)
    };
    let mut tier = warm_tier(cfg, &accesses, false);
    let instant = SimTime::from_secs(500_000);
    for &(k, _) in accesses.iter().step_by(3) {
        let owner = tier.node_for_key(KeyId(k)).unwrap();
        let _ = tier.node_mut(owner).unwrap().store.get(KeyId(k), instant);
    }
    // The ring never splits evenly: retire whichever node it favoured.
    let fullest = tier.iter_nodes().max_by_key(|n| n.store.len()).unwrap();
    assert!(fullest.store.len() >= 32_768, "no node is over the floor");
    let retiring = [fullest.id()];
    for direction in [
        Direction::ScaleIn,
        Direction::ScaleOut,
        Direction::Naive(0.4),
    ] {
        let want = run(&tier, direction, &retiring, 1);
        let got = run(&tier, direction, &retiring, 4);
        assert_eq!(got, want, "{direction:?} jobs=4 diverges");
    }
}
