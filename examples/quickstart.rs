//! Quickstart: boot a Memcached tier, warm it, scale it in with ElMem's
//! migration, and watch the hit rate survive the scaling action.
//!
//! Run with: `cargo run --release --example quickstart`

use elmem::cluster::{Cluster, ClusterConfig};
use elmem::core::migration::{migrate, MigrateJob, MigrationCosts, Supervision};
use elmem::core::scoring::choose_retiring;
use elmem::store::ImportMode;
use elmem::util::{DetRng, KeyId, SimTime};
use elmem::workload::{GeneralizedPareto, Keyspace};

fn main() {
    // A 4-node tier with a small keyspace so this runs instantly.
    let mut cluster = Cluster::new(
        ClusterConfig::small_test(),
        // Values capped at 4 KB so the tiny demo nodes (4 MB, 4 pages)
        // can give every touched slab class a page.
        Keyspace::with_distribution(50_000, 0, GeneralizedPareto::facebook_etc(), 4_000),
        DetRng::seed(1),
    );
    println!(
        "booted {} cache nodes ({} each), database capacity {} req/s",
        cluster.tier.membership().len(),
        cluster.tier.config().node_memory,
        cluster.tier.config().r_db(),
    );

    // Warm the cache: touch 5000 keys with increasing recency.
    for k in 0..5000u64 {
        let key = KeyId(k);
        let owner = cluster.tier.node_for_key(key).expect("tier nonempty");
        let size = cluster.keyspace().value_size(key);
        cluster
            .tier
            .node_mut(owner)
            .expect("node exists")
            .store
            .set(key, size, SimTime::from_secs(1 + k))
            .expect("fits");
    }
    println!(
        "warmed {} items across the tier",
        cluster.tier.total_items()
    );

    // Measure hit rate before scaling.
    let probe = |cluster: &mut Cluster, at: SimTime| -> f64 {
        let mut hits = 0;
        for k in 0..5000u64 {
            let (_, hit) = cluster.lookup_and_fill(KeyId(k), at);
            if hit {
                hits += 1;
            }
        }
        f64::from(hits) / 5000.0
    };
    println!(
        "hit rate before scale-in: {:.3}",
        probe(&mut cluster, SimTime::from_secs(10_000))
    );

    // ElMem scale-in: score nodes, migrate the hottest data, flip.
    let (victims, scored) = choose_retiring(&cluster.tier, 1).unwrap();
    println!("\nnode scores (coldest first):");
    for (id, score) in &scored {
        println!("  {id}: {score:.1}");
    }
    let report = migrate(
        &mut cluster.tier,
        &MigrateJob::ScaleIn {
            retiring: &victims,
            import_mode: ImportMode::Merge,
        },
        SimTime::from_secs(20_000),
        &MigrationCosts::default(),
        &mut Supervision::none(),
        None,
    )
    .expect("migration succeeds");
    cluster
        .tier
        .commit_remove(&victims)
        .expect("commit succeeds");
    println!(
        "\nretired {:?}: migrated {} items ({}) in {} (modeled)",
        victims,
        report.items_migrated,
        report.bytes_migrated,
        report.phases.total()
    );

    println!(
        "hit rate after ElMem scale-in: {:.3} (a cold scale-in would have lost ~1/4 of hits)",
        probe(&mut cluster, SimTime::from_secs(30_000))
    );
}
