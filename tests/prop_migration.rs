//! Property test for the whole scale-in migration: for uniform-size items
//! (one slab class), the items surviving on each retained node must be
//! exactly the hottest ones among {its own residents} ∪ {victim items that
//! hash to it} that fit its capacity — FuseCache's §IV guarantee, verified
//! against a brute-force oracle on arbitrary warm states.

use std::collections::{HashMap, HashSet};

use elmem::cluster::{Cluster, ClusterConfig};
use elmem::core::migration::{migrate, MigrateJob, MigrationCosts, Supervision};
use elmem::store::{Hotness, ImportMode};
use elmem::util::{DetRng, KeyId, NodeId, SimTime};
use elmem::workload::{GeneralizedPareto, Keyspace};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn scale_in_keeps_exactly_the_per_target_hottest(
        // (key, access-order) pairs; duplicate keys = re-accesses.
        accesses in prop::collection::vec(0u64..3000, 50..800),
        victim_sel in 0u32..4,
        seed in 0u64..100,
    ) {
        let mut cluster = Cluster::new(
            ClusterConfig::small_test(),
            Keyspace::with_distribution(10_000, seed, GeneralizedPareto::facebook_etc(), 4_000),
            DetRng::seed(seed),
        );
        // Uniform item size → a single slab class everywhere.
        let mut now = SimTime::from_secs(1);
        for &k in &accesses {
            let key = KeyId(k);
            let owner = cluster.tier.node_for_key(key).unwrap();
            cluster
                .tier
                .node_mut(owner)
                .unwrap()
                .store
                .set(key, 64, now)
                .unwrap();
            now += SimTime::from_secs(1);
        }

        let victim = NodeId(victim_sel);
        let retained_ring = cluster.tier.membership().ring().without(&[victim]);

        // Oracle: per retained node, the expected surviving set.
        let mut pre: HashMap<NodeId, Vec<(Hotness, KeyId)>> = HashMap::new();
        let mut victim_items: Vec<(Hotness, KeyId)> = Vec::new();
        for &id in cluster.tier.membership().members() {
            let store = &cluster.tier.node(id).unwrap().store;
            for item in store.iter() {
                if id == victim {
                    victim_items.push((item.hotness(), item.key));
                } else {
                    pre.entry(id).or_default().push((item.hotness(), item.key));
                }
            }
        }
        let mut expected: HashMap<NodeId, HashSet<KeyId>> = HashMap::new();
        for (&id, residents) in &pre {
            // Candidates: own residents + victim items hashing here.
            let mut cand = residents.clone();
            for &(h, k) in &victim_items {
                if retained_ring.node_for(k) == Some(id) {
                    cand.push((h, k));
                }
            }
            cand.sort_by_key(|&(h, _)| std::cmp::Reverse(h));
            // Capacity: FuseCache selects the top n where n = max(own list
            // length, one page of chunks) — here stores are far below
            // capacity, so n = how many actually fit ≥ candidate count
            // unless the class is page-limited; recompute via the same rule.
            let store = &cluster.tier.node(id).unwrap().store;
            let class = store.classes().class_for(64 + 59).unwrap();
            let n = (residents.len() as u64)
                .max(store.classes().chunks_per_page(class))
                .min(cand.len() as u64) as usize;
            expected.insert(id, cand.into_iter().take(n).map(|(_, k)| k).collect());
        }

        // Run the real migration and flip.
        migrate(&mut cluster.tier, &MigrateJob::ScaleIn { retiring: &[victim], import_mode: ImportMode::Merge }, now + SimTime::from_secs(10), &MigrationCosts::default(), &mut Supervision::none(), None)
        .unwrap();
        cluster.tier.commit_remove(&[victim]).unwrap();

        for (&id, want) in &expected {
            let store = &cluster.tier.node(id).unwrap().store;
            let got: HashSet<KeyId> = store.iter().map(|i| i.key).collect();
            prop_assert_eq!(
                &got,
                want,
                "node {} survivors diverge from the oracle",
                id
            );
        }
    }
}
