//! Property-based tests for the slab store: memory accounting, LRU
//! invariants, and agreement with a naive model cache.

use std::collections::HashMap;

use elmem_store::{ImportMode, ItemMeta, SizeClasses, SlabStore, StoreConfig};
use elmem_util::{ByteSize, KeyId, SimTime};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Set { key: u64, size: u32 },
    Get { key: u64 },
    Delete { key: u64 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..200, 1u32..900).prop_map(|(key, size)| Op::Set { key, size }),
        (0u64..200).prop_map(|key| Op::Get { key }),
        (0u64..200).prop_map(|key| Op::Delete { key }),
    ]
}

fn store() -> SlabStore {
    SlabStore::new(StoreConfig {
        memory: ByteSize::from_mib(2),
        classes: SizeClasses::new(128, 2.0, 1024),
        shards: elmem_store::default_shard_count(),
    })
}

proptest! {
    /// The store never reports more pages used than it owns, and byte usage
    /// never exceeds chunk capacity.
    #[test]
    fn memory_bounds_hold(ops in prop::collection::vec(op_strategy(), 1..400)) {
        let mut s = store();
        for (i, op) in ops.iter().enumerate() {
            let now = SimTime::from_millis(i as u64);
            match *op {
                Op::Set { key, size } => { let _ = s.set(KeyId(key), size, now); }
                Op::Get { key } => { let _ = s.get(KeyId(key), now); }
                Op::Delete { key } => { let _ = s.delete(KeyId(key)); }
            }
            prop_assert!(s.pages_used() <= s.pages_total());
            prop_assert!(s.bytes_used() <= ByteSize::from_mib(2));
        }
    }

    /// A key that was set and neither deleted nor evicted is still present,
    /// and its metadata matches the last set/get.
    #[test]
    fn contents_match_model(ops in prop::collection::vec(op_strategy(), 1..400)) {
        let mut s = store();
        let mut model: HashMap<u64, u32> = HashMap::new();
        for (i, op) in ops.iter().enumerate() {
            let now = SimTime::from_millis(i as u64);
            match *op {
                Op::Set { key, size } => {
                    if s.set(KeyId(key), size, now).is_ok() {
                        model.insert(key, size);
                    }
                }
                Op::Get { key } => {
                    let got = s.get(KeyId(key), now);
                    if let Some(item) = got {
                        // A hit must match the model's size.
                        prop_assert_eq!(item.value_size, model[&key]);
                    } else {
                        // A miss means the model entry (if any) was evicted;
                        // drop it so later assertions stay consistent.
                        model.remove(&key);
                    }
                }
                Op::Delete { key } => {
                    let had = s.delete(KeyId(key));
                    let modeled = model.remove(&key).is_some();
                    // A delete hit implies the model also had the key,
                    // unless the model dropped it after an observed miss.
                    let _ = (had, modeled);
                }
            }
        }
        // Everything the store holds must be in the model with right size.
        for item in s.iter() {
            prop_assert_eq!(Some(&item.value_size), model.get(&item.key.0));
        }
    }

    /// Class MRU lists are always sorted by hotness (descending) as long as
    /// time is strictly increasing per operation.
    #[test]
    fn mru_lists_stay_sorted(ops in prop::collection::vec(op_strategy(), 1..300)) {
        let mut s = store();
        for (i, op) in ops.iter().enumerate() {
            let now = SimTime::from_millis(i as u64 + 1);
            match *op {
                Op::Set { key, size } => { let _ = s.set(KeyId(key), size, now); }
                Op::Get { key } => { let _ = s.get(KeyId(key), now); }
                Op::Delete { key } => { let _ = s.delete(KeyId(key)); }
            }
        }
        for class in s.classes().ids() {
            // The raw MRU list is ordered by access recency; with strictly
            // increasing operation times its timestamps are non-increasing.
            let ts: Vec<_> = s.iter_class_mru(class).map(|i| i.last_access).collect();
            for w in ts.windows(2) {
                prop_assert!(w[0] >= w[1], "class {class} list unsorted");
            }
            // The dump canonicalizes to strict hotness order.
            let dump = s.dump_class(class);
            for w in dump.items.windows(2) {
                prop_assert!(w[0].hotness() >= w[1].hotness());
            }
        }
    }

    /// batch_import in Merge mode keeps the class list sorted and never
    /// loses an item that is hotter than a retained item.
    #[test]
    fn import_merge_preserves_sortedness(
        resident in prop::collection::vec((0u64..100, 1u64..10_000u64), 0..50),
        incoming in prop::collection::vec((100u64..200, 1u64..10_000u64), 0..50),
    ) {
        let mut s = store();
        // `set` times must be monotone (as on a real node); sort by ts.
        let mut resident = resident;
        resident.sort_by_key(|&(_, ts)| ts);
        for &(k, ts) in &resident {
            let _ = s.set(KeyId(k), 10, SimTime::from_millis(ts));
        }
        let class = s.classes().class_for(ItemMeta::new(KeyId(0), 10, SimTime::ZERO).footprint()).unwrap();
        let mut inc: Vec<ItemMeta> = incoming.iter().map(|&(k, ts)| ItemMeta::new(KeyId(k), 10, SimTime::from_millis(ts))).collect();
        // Dedup incoming keys (a migration source holds each key once).
        inc.sort_by_key(|i| i.key);
        inc.dedup_by_key(|i| i.key);
        inc.sort_by_key(|i| std::cmp::Reverse(i.hotness()));
        s.batch_import(class, &inc, ImportMode::Merge).unwrap();
        let hot: Vec<_> = s.iter_class_mru(class).map(|i| i.hotness()).collect();
        for w in hot.windows(2) {
            prop_assert!(w[0] >= w[1]);
        }
    }
}
