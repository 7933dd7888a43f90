//! Cross-crate integration: scale-out (§III-D4) — new nodes are filled by
//! migration before the membership flips, avoiding the cold cache.

use elmem::cluster::{Cluster, ClusterConfig};
use elmem::core::migration::{migrate, MigrateJob, MigrationCosts, Supervision};
use elmem::core::MigrationJournal;
use elmem::util::{DetRng, KeyId, SimTime};
use elmem::workload::{GeneralizedPareto, Keyspace};

fn warmed() -> Cluster {
    let mut cluster = Cluster::new(
        ClusterConfig::small_test(),
        // Cap values at 4 KB so the 4-page small_test nodes can give every
        // touched size class a page.
        Keyspace::with_distribution(50_000, 3, GeneralizedPareto::facebook_etc(), 4_000),
        DetRng::seed(17),
    );
    for k in 0..4000u64 {
        let key = KeyId(k);
        let owner = cluster.tier.node_for_key(key).unwrap();
        let size = cluster.keyspace().value_size(key);
        cluster
            .tier
            .node_mut(owner)
            .unwrap()
            .store
            .set(key, size, SimTime::from_secs(1 + k))
            .unwrap();
    }
    cluster
}

#[test]
fn scale_out_keeps_remapped_keys_hitting() {
    let mut cluster = warmed();
    let now = SimTime::from_secs(100_000);

    let new = cluster.tier.provision_nodes(1);
    migrate(
        &mut cluster.tier,
        &MigrateJob::ScaleOut { new_nodes: &new },
        now,
        &MigrationCosts::default(),
        &mut Supervision::none(),
        (&mut MigrationJournal::new(), 0),
    )
    .unwrap();
    cluster.tier.commit_add(&new).unwrap();

    // Every key cached before must still hit after the flip — the ones
    // that moved to the new node were migrated ahead of the flip.
    let mut hits = 0;
    for k in 0..4000u64 {
        let (_, hit) = cluster.lookup_and_fill(KeyId(k), now + SimTime::from_secs(1));
        if hit {
            hits += 1;
        }
    }
    assert_eq!(hits, 4000, "ElMem scale-out must not cold-miss");
}

#[test]
fn cold_scale_out_misses_remapped_keys() {
    let mut cluster = warmed();
    let before_ring = cluster.tier.membership().ring().clone();

    // Baseline-style scale-out: flip immediately, new node cold.
    let new = cluster.tier.provision_nodes(1);
    cluster.tier.commit_add(&new).unwrap();

    let mut remapped = 0;
    let mut misses = 0;
    for k in 0..4000u64 {
        let key = KeyId(k);
        let now_owner = cluster.tier.node_for_key(key).unwrap();
        if before_ring.node_for(key) != Some(now_owner) {
            remapped += 1;
            let (_, hit) = cluster.lookup_and_fill(key, SimTime::from_secs(100_000));
            if !hit {
                misses += 1;
            }
        }
    }
    assert!(remapped > 0);
    assert_eq!(misses, remapped, "cold scale-out misses every remapped key");
}

#[test]
fn scale_out_migrates_about_one_over_k_plus_one() {
    let mut cluster = warmed();
    let new = cluster.tier.provision_nodes(1);
    let report = migrate(
        &mut cluster.tier,
        &MigrateJob::ScaleOut { new_nodes: &new },
        SimTime::from_secs(100_000),
        &MigrationCosts::default(),
        &mut Supervision::none(),
        (&mut MigrationJournal::new(), 0),
    )
    .unwrap();
    // 4 → 5 nodes: ~1/5 of the 4000 cached items should move.
    let frac = report.items_migrated as f64 / 4000.0;
    assert!((0.08..0.4).contains(&frac), "moved fraction {frac}");
}

#[test]
fn multi_node_scale_out_works() {
    let mut cluster = warmed();
    let now = SimTime::from_secs(100_000);
    let new = cluster.tier.provision_nodes(3);
    let report = migrate(
        &mut cluster.tier,
        &MigrateJob::ScaleOut { new_nodes: &new },
        now,
        &MigrationCosts::default(),
        &mut Supervision::none(),
        (&mut MigrationJournal::new(), 0),
    )
    .unwrap();
    cluster.tier.commit_add(&new).unwrap();
    assert_eq!(cluster.tier.membership().len(), 7);
    assert!(report.items_migrated > 0);
    // All keys still hit.
    let mut hits = 0;
    for k in 0..4000u64 {
        let (_, hit) = cluster.lookup_and_fill(KeyId(k), now + SimTime::from_secs(1));
        if hit {
            hits += 1;
        }
    }
    assert_eq!(hits, 4000);
}
