//! Property-based tests for the slab store: memory accounting, LRU
//! invariants, and agreement with a naive model cache — of sizes, and of
//! the expiries a shard keeps apart from its slots.

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
        let class = s.classes().class_for(elmem_store::ItemMeta { key: KeyId(0), value_size: 10, last_access: SimTime::ZERO, expires: SimTime::MAX }.footprint()).unwrap();
        let mut inc: Vec<ItemMeta> = incoming.iter().map(|&(k, ts)| ItemMeta { key: KeyId(k), value_size: 10, last_access: SimTime::from_millis(ts), expires: SimTime::MAX }).collect();
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

#[derive(Debug, Clone)]
enum TtlOp {
    Set {
        key: u64,
        size: u32,
        ttl: Option<u64>,
    },
    Get {
        key: u64,
    },
    Touch {
        key: u64,
        ttl: u64,
    },
    Delete {
        key: u64,
    },
    Evict {
        size: u32,
    },
    Crawl {
        budget: u64,
    },
    /// Keys with a last access `age` ms back and, if given, a TTL.
    Import {
        items: Vec<(u64, u64, Option<u64>)>,
    },
}

fn ttl_op_strategy() -> impl Strategy<Value = TtlOp> {
    let ttl = || prop_oneof![Just(None), (1u64..60).prop_map(Some)];
    prop_oneof![
        (0u64..120, 1u32..900, ttl()).prop_map(|(key, size, ttl)| TtlOp::Set { key, size, ttl }),
        (0u64..120, 1u32..900, ttl()).prop_map(|(key, size, ttl)| TtlOp::Set { key, size, ttl }),
        (0u64..120).prop_map(|key| TtlOp::Get { key }),
        (0u64..120, 1u64..60).prop_map(|(key, ttl)| TtlOp::Touch { key, ttl }),
        (0u64..120).prop_map(|key| TtlOp::Delete { key }),
        (1u32..900).prop_map(|size| TtlOp::Evict { size }),
        (1u64..80).prop_map(|budget| TtlOp::Crawl { budget }),
        prop::collection::vec((0u64..160, 0u64..40, ttl()), 1..30)
            .prop_map(|items| TtlOp::Import { items }),
    ]
}

/// The expiry a key's resident copy must report: the last one it landed
/// with. Entries of keys since gone are never read — only resident keys
/// are checked — and a key that lands again overwrites its entry.
fn expected(model: &HashMap<u64, SimTime>, key: KeyId) -> SimTime {
    model.get(&key.0).copied().unwrap_or(SimTime::MAX)
}

fn check_expiries(s: &SlabStore, model: &HashMap<u64, SimTime>) {
    s.audit().unwrap();
    for item in s.iter() {
        assert_eq!(item.expires, expected(model, item.key), "iter {}", item.key);
        assert_eq!(s.peek(item.key), Some(item));
    }
    for class in s.classes().ids() {
        for item in s.iter_class_mru(class).chain(s.dump_class(class).items) {
            assert_eq!(item.expires, expected(model, item.key), "walk {}", item.key);
        }
    }
}

proptest! {
    /// TTL'd sets, plain re-sets (which drop the TTL), touches, the
    /// crawler, eviction, deletes and imports of items with a finite expiry:
    /// every get, peek, walk and dump reports the expiry a model gives, and
    /// the audit holds the side table to the resident keys.
    #[test]
    fn expiries_match_model(ops in prop::collection::vec(ttl_op_strategy(), 1..300)) {
        let mut s = store();
        let mut model: HashMap<u64, SimTime> = HashMap::new();
        let ms = SimTime::from_millis;
        for (i, op) in ops.iter().enumerate() {
            let now = ms(10 * i as u64 + 100);
            let mut land = |key: u64, expires: SimTime| match expires {
                SimTime::MAX => model.remove(&key),
                at => model.insert(key, at),
            };
            match op {
                TtlOp::Set { key, size, ttl } => {
                    let set = match ttl {
                        Some(ttl) => s.set_with_ttl(KeyId(*key), *size, now, ms(*ttl)),
                        None => s.set(KeyId(*key), *size, now),
                    };
                    if set.is_ok() {
                        land(*key, ttl.map_or(SimTime::MAX, |ttl| now + ms(ttl)));
                    }
                }
                TtlOp::Get { key } => {
                    if let Some(item) = s.get(KeyId(*key), now) {
                        prop_assert_eq!(item.expires, expected(&model, item.key));
                        prop_assert!(!item.is_expired(now));
                    }
                }
                TtlOp::Touch { key, ttl } => {
                    if let Some(item) = s.touch(KeyId(*key), now, ms(*ttl)) {
                        land(*key, now + ms(*ttl));
                        prop_assert_eq!(item.expires, now + ms(*ttl));
                    }
                }
                TtlOp::Delete { key } => {
                    s.delete(KeyId(*key));
                }
                TtlOp::Evict { size } => {
                    let class = s.classes().class_for(elmem_store::ItemMeta::new(KeyId(0), *size, now).footprint());
                    if let Some(class) = class {
                        if let Some(victim) = s.evict_lru(class) {
                            prop_assert_eq!(victim.expires, expected(&model, victim.key));
                        }
                    }
                }
                TtlOp::Crawl { budget } => {
                    s.crawl_expired(now, *budget);
                }
                TtlOp::Import { items } => {
                    let mut batch: Vec<ItemMeta> = items
                        .iter()
                        .map(|&(key, age, ttl)| {
                            let at = now - ms(age);
                            match ttl {
                                Some(ttl) => ItemMeta::with_ttl(KeyId(key), 10, at, ms(ttl)),
                                None => ItemMeta::new(KeyId(key), 10, at),
                            }
                        })
                        .collect();
                    batch.sort_by_key(|i| i.key);
                    batch.dedup_by_key(|i| i.key);
                    batch.sort_by_key(|i| std::cmp::Reverse(i.hotness()));
                    // An incoming copy lands unless a resident one is as hot.
                    let landing: Vec<ItemMeta> = batch
                        .iter()
                        .filter(|i| s.peek(i.key).is_none_or(|r| r.hotness() < i.hotness()))
                        .copied()
                        .collect();
                    let class = s.classes().class_for(batch[0].footprint()).unwrap();
                    s.batch_import(class, &batch, ImportMode::Merge).unwrap();
                    for item in landing {
                        land(item.key.0, item.expires);
                    }
                }
            }
            check_expiries(&s, &model);
        }
    }
}
