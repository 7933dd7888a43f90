//! Which node should be retired? The §III-C weighted-median scoring in
//! action: build a tier with deliberately different per-node hotness and
//! verify the coldest-median node is also the cheapest to migrate.
//!
//! Run with: `cargo run --release --example node_choice`

use elmem::cluster::{Cluster, ClusterConfig};
use elmem::core::migration::{migrate, MigrateJob, MigrationCosts, Supervision};
use elmem::core::scoring::{choose_retiring, node_score};
use elmem::core::MigrationJournal;
use elmem::store::ImportMode;
use elmem::util::{DetRng, KeyId, SimTime};
use elmem::workload::{GeneralizedPareto, Keyspace};

fn main() {
    let mut cluster = Cluster::new(
        ClusterConfig::small_test(),
        // Values capped at 4 KB so the tiny demo nodes (4 MB, 4 pages)
        // can give every touched slab class a page.
        Keyspace::with_distribution(100_000, 3, GeneralizedPareto::facebook_etc(), 4_000),
        DetRng::seed(3),
    );

    // Warm 20k keys. Keys on lower-numbered nodes get *older* timestamps,
    // creating a clear hotness gradient across nodes.
    for k in 0..20_000u64 {
        let key = KeyId(k);
        let owner = cluster.tier.node_for_key(key).expect("tier nonempty");
        let base = u64::from(owner.0 + 1) * 100_000;
        let size = cluster.keyspace().value_size(key);
        let _ = cluster
            .tier
            .node_mut(owner)
            .expect("node exists")
            .store
            .set(key, size, SimTime::from_secs(base + k));
    }

    println!("per-node §III-C scores (weighted median hotness; lower = colder):");
    for &id in cluster.tier.membership().members() {
        let store = &cluster.tier.node(id).expect("member").store;
        println!(
            "  {id}: score {:>12.1}, items {:>6}",
            node_score(store),
            store.len()
        );
    }

    // What would each choice cost? Clone the tier and try everyone.
    println!("\nitems migrated if retiring each node (10 -> 9 style what-if):");
    let members: Vec<_> = cluster.tier.membership().members().to_vec();
    let mut by_choice = Vec::new();
    for id in members {
        let mut trial = cluster.tier.clone();
        let report = migrate(
            &mut trial,
            &MigrateJob::ScaleIn {
                retiring: &[id],
                import_mode: ImportMode::Merge,
            },
            SimTime::from_secs(10_000_000),
            &MigrationCosts::default(),
            &mut Supervision::none(),
            (&mut MigrationJournal::new(), 0),
        )
        .expect("migration succeeds");
        println!(
            "  retire {id}: {:>6} items, {}",
            report.items_migrated, report.bytes_migrated
        );
        by_choice.push((id, report.items_migrated));
    }

    let (chosen, _) = choose_retiring(&cluster.tier, 1).unwrap();
    let best = by_choice
        .iter()
        .min_by_key(|(_, items)| *items)
        .expect("nonempty");
    println!(
        "\nscoring picked {}, cheapest was {} -> {}",
        chosen[0],
        best.0,
        if chosen[0] == best.0 {
            "optimal choice"
        } else {
            "near-optimal choice"
        }
    );
}
