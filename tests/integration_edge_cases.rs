//! Edge cases and failure injection across the scaling control plane:
//! empty victims, expired-only victims, minimum-size tiers, saturated
//! destinations, and repeated scalings down to one node and back.

use elmem::cluster::{Cluster, ClusterConfig};
use elmem::core::master::Master;
use elmem::core::migration::{migrate, MigrateJob, MigrationCosts, Supervision};
use elmem::core::MigrationPolicy;
use elmem::store::ImportMode;
use elmem::util::{ByteSize, DetRng, ElmemError, KeyId, NodeId, SimTime};
use elmem::workload::{GeneralizedPareto, Keyspace};

fn cluster() -> Cluster {
    Cluster::new(
        ClusterConfig::small_test(),
        Keyspace::with_distribution(50_000, 1, GeneralizedPareto::facebook_etc(), 4_000),
        DetRng::seed(3),
    )
}

fn t(s: u64) -> SimTime {
    SimTime::from_secs(s)
}

#[test]
fn migrating_an_empty_victim_is_a_clean_noop() {
    let mut c = cluster();
    // Warm only nodes 1..3; node 0 stays empty.
    for k in 0..1000u64 {
        let key = KeyId(k);
        let owner = c.tier.node_for_key(key).unwrap();
        if owner != NodeId(0) {
            let size = c.keyspace().value_size(key);
            c.tier
                .node_mut(owner)
                .unwrap()
                .store
                .set(key, size, t(1 + k))
                .unwrap();
        }
    }
    let before = c.tier.total_items();
    let report = migrate(
        &mut c.tier,
        &MigrateJob::ScaleIn {
            retiring: &[NodeId(0)],
            import_mode: ImportMode::Merge,
        },
        t(10_000),
        &MigrationCosts::default(),
        &mut Supervision::none(),
        None,
    )
    .unwrap();
    assert_eq!(report.items_migrated, 0);
    assert_eq!(report.items_considered, 0);
    assert_eq!(report.metadata_bytes, ByteSize::ZERO);
    c.tier.commit_remove(&[NodeId(0)]).unwrap();
    assert_eq!(c.tier.total_items(), before, "nothing lost, nothing moved");
}

#[test]
fn expired_only_victim_migrates_then_expires_everywhere() {
    let mut c = cluster();
    // Node contents that are all already past their TTL at migration time.
    for k in 0..500u64 {
        let key = KeyId(k);
        let owner = c.tier.node_for_key(key).unwrap();
        let size = c.keyspace().value_size(key);
        c.tier
            .node_mut(owner)
            .unwrap()
            .store
            .set_with_ttl(key, size, t(1 + k), SimTime::from_secs(10))
            .unwrap();
    }
    // Migrate long after everything expired. The dump still carries the
    // items (lazy expiry), but once anything touches them they die.
    migrate(
        &mut c.tier,
        &MigrateJob::ScaleIn {
            retiring: &[NodeId(0)],
            import_mode: ImportMode::Merge,
        },
        t(100_000),
        &MigrationCosts::default(),
        &mut Supervision::none(),
        None,
    )
    .unwrap();
    c.tier.commit_remove(&[NodeId(0)]).unwrap();
    // Every key is a miss (lazy reclamation at lookup).
    let mut hits = 0;
    for k in 0..500u64 {
        let owner = c.tier.node_for_key(KeyId(k)).unwrap();
        if c.tier
            .node_mut(owner)
            .unwrap()
            .store
            .get(KeyId(k), t(100_010))
            .is_some()
        {
            hits += 1;
        }
    }
    assert_eq!(hits, 0, "expired items must not resurrect via migration");
}

#[test]
fn two_node_tier_can_only_lose_one() {
    let mut config = ClusterConfig::small_test();
    config.initial_nodes = 2;
    let mut c = Cluster::new(
        config,
        Keyspace::with_distribution(1_000, 1, GeneralizedPareto::facebook_etc(), 4_000),
        DetRng::seed(4),
    );
    let mut m = Master::new(MigrationPolicy::elmem(), MigrationCosts::default(), 1);
    assert!(m.scale_in(&mut c, 2, t(10)).is_err());
    let orch = m.scale_in(&mut c, 1, t(10)).unwrap();
    for d in &orch.deferred {
        Master::apply(&mut c, &d.kind);
    }
    assert_eq!(c.tier.membership().len(), 1);
    // The last node cannot be retired.
    assert!(m.scale_in(&mut c, 1, t(10_000)).is_err());
}

#[test]
fn saturated_destination_still_only_keeps_hottest() {
    // Destinations already at capacity with HOT items: a migration of
    // colder victim data must not displace them.
    let mut c = cluster();
    // Fill everything hot (recent timestamps).
    for k in 0..120_000u64 {
        let key = KeyId(k % 50_000);
        let owner = c.tier.node_for_key(key).unwrap();
        let size = c.keyspace().value_size(key);
        let _ = c
            .tier
            .node_mut(owner)
            .unwrap()
            .store
            .set(key, size, t(1_000_000 + k));
    }
    // Make the victim's items cold: rewrite its contents with old stamps.
    let victim = NodeId(2);
    let victim_keys: Vec<KeyId> = c
        .tier
        .node(victim)
        .unwrap()
        .store
        .iter()
        .map(|i| i.key)
        .collect();
    for (i, &key) in victim_keys.iter().enumerate() {
        let size = c.keyspace().value_size(key);
        // Rebuild with ancient timestamps (cold).
        c.tier.node_mut(victim).unwrap().store.delete(key);
        c.tier
            .node_mut(victim)
            .unwrap()
            .store
            .set(key, size, t(1 + i as u64))
            .unwrap();
    }
    // Snapshot of every retained node's resident keys before migration.
    let pre_keys: Vec<(NodeId, Vec<KeyId>)> = c
        .tier
        .membership()
        .members()
        .iter()
        .filter(|&&id| id != victim)
        .map(|&id| {
            let store = &c.tier.node(id).unwrap().store;
            (id, store.iter().map(|i| i.key).collect())
        })
        .collect();
    migrate(
        &mut c.tier,
        &MigrateJob::ScaleIn {
            retiring: &[victim],
            import_mode: ImportMode::Merge,
        },
        t(2_000_000),
        &MigrationCosts::default(),
        &mut Supervision::none(),
        None,
    )
    .unwrap();
    c.tier.commit_remove(&[victim]).unwrap();
    // Every import is colder than every resident, so FuseCache must not
    // displace a single pre-existing item — and lists must stay sorted.
    for (id, keys) in pre_keys {
        let store = &c.tier.node(id).unwrap().store;
        for key in keys {
            assert!(
                store.contains(key),
                "hot resident {key} on {id} displaced by a cold import"
            );
        }
        let dump_sorted = store
            .dump_metadata()
            .classes
            .iter()
            .all(|d| d.items.windows(2).all(|w| w[0].hotness() >= w[1].hotness()));
        assert!(dump_sorted, "{id} lists must stay hotness-sorted");
    }
}

#[test]
fn repeated_scale_in_and_out_round_trip() {
    let mut c = cluster();
    for k in 0..2000u64 {
        let key = KeyId(k);
        let owner = c.tier.node_for_key(key).unwrap();
        let size = c.keyspace().value_size(key);
        c.tier
            .node_mut(owner)
            .unwrap()
            .store
            .set(key, size, t(1 + k))
            .unwrap();
    }
    let mut m = Master::new(MigrationPolicy::elmem(), MigrationCosts::default(), 2);
    let mut now = t(10_000);
    // 4 → 2 → 4 → 2.
    for (action, count) in [("in", 2u32), ("out", 2), ("in", 2)] {
        let orch = if action == "in" {
            m.scale_in(&mut c, count, now).unwrap()
        } else {
            m.scale_out(&mut c, count, now).unwrap()
        };
        for d in &orch.deferred {
            Master::apply(&mut c, &d.kind);
        }
        now = orch.committed_at + t(100);
    }
    assert_eq!(c.tier.membership().len(), 2);
    // Every originally-cached key that survived the shrink to 2 nodes is
    // reachable through the current membership; verify repeat-hit behavior.
    let mut hits = 0;
    for k in 0..2000u64 {
        let (_, hit1) = c.lookup_and_fill(KeyId(k), now);
        let (_, hit2) = c.lookup_and_fill(KeyId(k), now + SimTime::from_millis(1));
        assert!(hit2 || !hit1, "a hit key cannot immediately miss");
        if hit1 {
            hits += 1;
        }
        now += SimTime::from_millis(2);
    }
    assert!(hits > 0, "the tier should still be warm");
}

#[test]
fn scale_out_with_no_provisioned_nodes_rejected() {
    let mut c = cluster();
    let err = migrate(
        &mut c.tier,
        &MigrateJob::ScaleOut { new_nodes: &[] },
        t(1),
        &MigrationCosts::default(),
        &mut Supervision::none(),
        None,
    );
    assert!(matches!(err, Err(ElmemError::InvalidScaling(_))));
}
