//! Cross-crate integration: scale-in with the full 3-phase ElMem migration
//! preserves the globally hottest items and beats baseline hit rates.

use elmem::cluster::{Cluster, ClusterConfig};
use elmem::core::migration::{migrate, MigrateJob, MigrationCosts, Supervision};
use elmem::core::scoring::choose_retiring;
use elmem::store::{Hotness, ImportMode};
use elmem::util::{DetRng, KeyId, NodeId, SimTime};
use elmem::workload::{GeneralizedPareto, Keyspace};

/// Builds a warmed 4-node cluster where every key has a distinct access
/// time; returns (cluster, keys-with-times).
fn warmed() -> (Cluster, Vec<(KeyId, SimTime)>) {
    let mut cluster = Cluster::new(
        ClusterConfig::small_test(),
        // Cap values at 4 KB so the 4-page small_test nodes can give every
        // touched size class a page.
        Keyspace::with_distribution(50_000, 3, GeneralizedPareto::facebook_etc(), 4_000),
        DetRng::seed(11),
    );
    let mut touched = Vec::new();
    for k in 0..4000u64 {
        let key = KeyId(k);
        let t = SimTime::from_secs(1 + k);
        let owner = cluster.tier.node_for_key(key).unwrap();
        let size = cluster.keyspace().value_size(key);
        cluster
            .tier
            .node_mut(owner)
            .unwrap()
            .store
            .set(key, size, t)
            .unwrap();
        touched.push((key, t));
    }
    (cluster, touched)
}

#[test]
fn migration_preserves_global_hottest_set() {
    let (mut cluster, touched) = warmed();
    let now = SimTime::from_secs(100_000);

    // Pick the coldest node, migrate, flip.
    let (victims, _) = choose_retiring(&cluster.tier, 1).unwrap();
    let report = migrate(
        &mut cluster.tier,
        &MigrateJob::ScaleIn {
            retiring: &victims,
            import_mode: ImportMode::Merge,
        },
        now,
        &MigrationCosts::default(),
        &mut Supervision::none(),
        None,
    )
    .unwrap();
    cluster.tier.commit_remove(&victims).unwrap();

    assert!(report.items_migrated > 0);

    // Collect what survived across the retained nodes.
    let mut survived: Vec<Hotness> = Vec::new();
    for &id in cluster.tier.membership().members() {
        let store = &cluster.tier.node(id).unwrap().store;
        survived.extend(store.iter().map(|i| i.hotness()));
    }
    // Nothing was over capacity here, so *every* cached item must survive:
    // migration without memory pressure loses nothing.
    assert_eq!(survived.len(), touched.len());
}

#[test]
fn migration_under_memory_pressure_keeps_sorted_lists() {
    // Overfill the small cluster so the merge must evict: retained class
    // lists must remain MRU-sorted (evictions only from the cold end).
    let mut cluster = Cluster::new(
        ClusterConfig::small_test(),
        Keyspace::with_distribution(400_000, 5, GeneralizedPareto::facebook_etc(), 4_000),
        DetRng::seed(13),
    );
    for k in 0..200_000u64 {
        let key = KeyId(k);
        let owner = cluster.tier.node_for_key(key).unwrap();
        let size = cluster.keyspace().value_size(key);
        let _ =
            cluster
                .tier
                .node_mut(owner)
                .unwrap()
                .store
                .set(key, size, SimTime::from_secs(1 + k));
    }
    assert!(cluster.tier.total_items() > 0);

    let (victims, _) = choose_retiring(&cluster.tier, 1).unwrap();
    migrate(
        &mut cluster.tier,
        &MigrateJob::ScaleIn {
            retiring: &victims,
            import_mode: ImportMode::Merge,
        },
        SimTime::from_secs(1_000_000),
        &MigrationCosts::default(),
        &mut Supervision::none(),
        None,
    )
    .unwrap();
    cluster.tier.commit_remove(&victims).unwrap();

    for &id in cluster.tier.membership().members() {
        let store = &cluster.tier.node(id).unwrap().store;
        for class in store.classes().ids() {
            let dump = store.dump_class(class);
            for w in dump.items.windows(2) {
                assert!(w[0].hotness() >= w[1].hotness());
            }
        }
    }
}

#[test]
fn post_flip_requests_hit_migrated_data() {
    let (mut cluster, _) = warmed();
    let now = SimTime::from_secs(100_000);
    let (victims, _) = choose_retiring(&cluster.tier, 1).unwrap();

    // Keys that lived on the victim before the flip.
    let victim_keys: Vec<KeyId> = (0..4000u64)
        .map(KeyId)
        .filter(|&k| cluster.tier.node_for_key(k) == Some(victims[0]))
        .collect();
    assert!(!victim_keys.is_empty());

    migrate(
        &mut cluster.tier,
        &MigrateJob::ScaleIn {
            retiring: &victims,
            import_mode: ImportMode::Merge,
        },
        now,
        &MigrationCosts::default(),
        &mut Supervision::none(),
        None,
    )
    .unwrap();
    cluster.tier.commit_remove(&victims).unwrap();

    // After the flip, those keys hash to retained nodes and must hit.
    let mut hits = 0;
    for &k in &victim_keys {
        let (_, hit) = cluster.lookup_and_fill(k, now + SimTime::from_secs(1));
        if hit {
            hits += 1;
        }
    }
    assert_eq!(
        hits,
        victim_keys.len(),
        "all previously-cached victim keys should hit after migration"
    );
}

#[test]
fn baseline_scale_in_loses_victim_data() {
    let (mut cluster, _) = warmed();
    let (victims, _) = choose_retiring(&cluster.tier, 1).unwrap();
    let victim_keys: Vec<KeyId> = (0..4000u64)
        .map(KeyId)
        .filter(|&k| cluster.tier.node_for_key(k) == Some(victims[0]))
        .collect();
    cluster.tier.commit_remove(&victims).unwrap();
    let mut hits = 0;
    for &k in &victim_keys {
        let (_, hit) = cluster.lookup_and_fill(k, SimTime::from_secs(200_000));
        if hit {
            hits += 1;
        }
    }
    assert_eq!(hits, 0, "baseline must cold-miss all victim keys");
}

#[test]
fn scoring_identifies_a_deliberately_cold_node() {
    let (mut cluster, _) = warmed();
    // Refresh every non-node-0 item far in the future so node 0 is coldest.
    for k in 0..4000u64 {
        let key = KeyId(k);
        let owner = cluster.tier.node_for_key(key).unwrap();
        if owner != NodeId(0) {
            cluster
                .tier
                .node_mut(owner)
                .unwrap()
                .store
                .get(key, SimTime::from_secs(1_000_000 + k))
                .unwrap();
        }
    }
    let (victims, scored) = choose_retiring(&cluster.tier, 1).unwrap();
    assert_eq!(victims, vec![NodeId(0)]);
    assert_eq!(scored[0].0, NodeId(0));
}
