//! `SlabStore::fill` against the per-key `set` it stands in for. A fill
//! touches only the slot lanes and indexes the survivors once at its end,
//! so the reference is not the fill itself at another shard count but the
//! plain command loop: after the fill, and after any tail of commands,
//! the two stores must be indistinguishable through the public surface,
//! and every item either reports must carry the expiry a model of the
//! commands gives it.

use std::collections::HashMap;

use elmem_store::{ClassId, ImportMode, ItemMeta, SizeClasses, SlabStore, StoreConfig};
use elmem_util::{ByteSize, ElmemError, KeyId, SimTime};
use proptest::prelude::*;

/// Keys of the fill stream are `key(0)`, `key(1)`, …; the tail draws from
/// the same ids and a few beyond them.
fn key(i: u64) -> KeyId {
    KeyId(3 * i + 1)
}

/// A value size from a draw in `0..1100`: skewed small, and past the
/// largest chunk for the top tenth of draws.
fn value_size(classes: &SizeClasses, draw: u32) -> u32 {
    let d = u64::from(draw);
    (classes.max_chunk() * d * d / 1_000_000) as u32 + 1
}

#[derive(Debug, Clone)]
enum Op {
    Get(u64),
    Set(u64, u32, Option<u64>),
    Delete(u64),
    Touch(u64, u64),
    Add(u64, u32),
    EvictLru(u16),
    ReassignPage(u16, u16),
    /// Items as (key id, size draw, age in ms against now); every third
    /// key carries a TTL.
    BatchImport(Vec<(u64, u32, u64)>),
    CrawlExpired(u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let id = || 0u64..1_600;
    prop_oneof![
        id().prop_map(Op::Get),
        (
            id(),
            0u32..1_100,
            prop_oneof![Just(None), (1u64..80).prop_map(Some)]
        )
            .prop_map(|(k, s, ttl)| Op::Set(k, s, ttl)),
        id().prop_map(Op::Delete),
        (id(), 1u64..80).prop_map(|(k, ttl)| Op::Touch(k, ttl)),
        (id(), 0u32..1_100).prop_map(|(k, s)| Op::Add(k, s)),
        (0u16..16).prop_map(Op::EvictLru),
        (0u16..16, 0u16..16).prop_map(|(a, b)| Op::ReassignPage(a, b)),
        prop::collection::vec((id(), 0u32..1_100, 0u64..3_000), 1..40).prop_map(Op::BatchImport),
        (0u64..400).prop_map(Op::CrawlExpired),
    ]
}

/// The expiry each key last landed with; absent is never. Only resident
/// keys are read, and a key that lands again overwrites its entry.
type Ttls = HashMap<KeyId, SimTime>;

fn expected(ttls: &Ttls, key: KeyId) -> SimTime {
    ttls.get(&key).copied().unwrap_or(SimTime::MAX)
}

fn land(ttls: &mut Ttls, key: KeyId, expires: SimTime) {
    match expires {
        SimTime::MAX => ttls.remove(&key),
        at => ttls.insert(key, at),
    };
}

/// Everything a caller can read of a store, compared; both must audit, and
/// every item reports its modeled expiry.
fn assert_same(a: &SlabStore, b: &SlabStore, ttls: &Ttls) {
    for item in a.dump_metadata().classes.iter().flat_map(|c| &c.items) {
        assert_eq!(item.expires, expected(ttls, item.key), "{}", item.key);
    }
    assert_eq!(a.dump_metadata(), b.dump_metadata());
    assert_eq!(a.stats(), b.stats());
    assert_eq!((a.len(), a.bytes_used()), (b.len(), b.bytes_used()));
    assert_eq!(a.pages_used(), b.pages_used());
    for class in a.classes().ids() {
        assert_eq!(a.pages_of_class(class), b.pages_of_class(class), "{class}");
        assert_eq!(a.len_of_class(class), b.len_of_class(class), "{class}");
        assert_eq!(
            a.eviction_pressure(class),
            b.eviction_pressure(class),
            "{class}"
        );
        assert_eq!(a.median_hotness(class), b.median_hotness(class), "{class}");
    }
    assert_eq!(a.audit(), Ok(()));
    assert_eq!(b.audit(), Ok(()));
}

/// Applies one command to both stores and checks they answer alike.
fn apply(a: &mut SlabStore, b: &mut SlabStore, op: &Op, now: SimTime, ttls: &mut Ttls) {
    let classes = a.classes().clone();
    let class = |c: u16| ClassId(c % classes.len() as u16);
    let ms = SimTime::from_millis;
    match *op {
        Op::Get(k) => {
            let got = a.get(key(k), now);
            assert_eq!(got, b.get(key(k), now));
            if let Some(item) = got {
                assert_eq!(item.expires, expected(ttls, item.key));
            }
        }
        Op::Set(k, s, ttl) => {
            let v = value_size(&classes, s);
            let set = |st: &mut SlabStore| match ttl {
                Some(t) => st.set_with_ttl(key(k), v, now, ms(t)),
                None => st.set(key(k), v, now),
            };
            let done = set(a);
            assert_eq!(done, set(b));
            if done.is_ok() {
                land(ttls, key(k), ttl.map_or(SimTime::MAX, |t| now + ms(t)));
            }
        }
        Op::Delete(k) => assert_eq!(a.delete(key(k)), b.delete(key(k))),
        Op::Touch(k, t) => {
            let touched = a.touch(key(k), now, ms(t));
            assert_eq!(touched, b.touch(key(k), now, ms(t)));
            if touched.is_some() {
                land(ttls, key(k), now + ms(t));
            }
        }
        Op::Add(k, s) => {
            let v = value_size(&classes, s);
            let added = a.add(key(k), v, now);
            assert_eq!(added, b.add(key(k), v, now));
            if added == Ok(true) {
                land(ttls, key(k), SimTime::MAX);
            }
        }
        Op::EvictLru(c) => assert_eq!(a.evict_lru(class(c)), b.evict_lru(class(c))),
        Op::ReassignPage(f, t) => assert_eq!(
            a.reassign_page(class(f), class(t)),
            b.reassign_page(class(f), class(t))
        ),
        Op::BatchImport(ref raw) => {
            // One class's items (the first item's), each key once,
            // hottest first.
            let mut items: Vec<ItemMeta> = raw
                .iter()
                .map(|&(k, s, age)| {
                    let (at, v) = (now.saturating_sub(ms(age)), value_size(&classes, s));
                    match k % 3 {
                        0 => ItemMeta::with_ttl(key(k), v, at, ms(1 + age % 50)),
                        _ => ItemMeta::new(key(k), v, at),
                    }
                })
                .filter(|i| classes.class_for(i.footprint()).is_some())
                .collect();
            let Some(first) = items.first() else {
                return;
            };
            let target = classes.class_for(first.footprint()).unwrap();
            items.retain(|i| classes.class_for(i.footprint()) == Some(target));
            items.sort_by_key(|i| i.key);
            items.dedup_by_key(|i| i.key);
            items.sort_by_key(|i| std::cmp::Reverse(i.hotness()));
            let mode = ImportMode::Merge;
            // An incoming copy lands unless a resident one is as hot.
            let landing: Vec<ItemMeta> = items
                .iter()
                .filter(|i| a.peek(i.key).is_none_or(|r| r.hotness() < i.hotness()))
                .copied()
                .collect();
            assert_eq!(
                a.batch_import(target, &items, mode),
                b.batch_import(target, &items, mode)
            );
            for item in landing {
                land(ttls, item.key, item.expires);
            }
        }
        Op::CrawlExpired(budget) => {
            assert_eq!(a.crawl_expired(now, budget), b.crawl_expired(now, budget));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]
    #[test]
    fn fill_matches_per_key_set(
        ladder in (16u64..512, 125u64..400, 1u64..64),
        pages in 1u64..=6,
        shards in prop_oneof![Just(1usize), Just(4), Just(8)],
        warm in prop_oneof![Just(0usize), Just(0), Just(0), 1usize..6],
        sizes in prop::collection::vec(0u32..1_100, 0..1_500),
        cut in (0usize..1_800, any::<bool>()),
        tail in prop::collection::vec(op_strategy(), 0..200),
    ) {
        // Ladders from 128 B to 1 MiB chunks, so a 1–6 page budget holds
        // a few hundred to tens of thousands of items: some fills never
        // evict, some evict most of what they set, and a class whose
        // first item finds no free page answers `OutOfMemory`.
        let (min8, growth, span) = ladder;
        let min_chunk = 8 * min8;
        let max_chunk = (min_chunk * span).clamp(min_chunk, ByteSize::PAGE.as_u64());
        let config = StoreConfig {
            memory: ByteSize::from_mib(pages),
            classes: SizeClasses::new(min_chunk, growth as f64 / 100.0, max_chunk),
            shards,
        };
        let (mut a, mut b) = (SlabStore::new(config.clone()), SlabStore::new(config));
        let classes = a.classes().clone();
        let at = |i: usize| SimTime::from_nanos(1_000 + i as u64);
        // Nothing this fill sets carries a TTL.
        let mut ttls = Ttls::new();
        // A warm store fills through plain `set`.
        for i in 0..warm {
            let v = value_size(&classes, 100 + 50 * i as u32);
            assert_eq!(a.set(key(i as u64), v, at(i)), b.set(key(i as u64), v, at(i)));
        }
        let (stop, finish_early) = cut;
        {
            let mut fill = b.fill();
            for (i, &draw) in sizes.iter().enumerate() {
                if i == stop {
                    if !finish_early {
                        break; // the guard drops mid-fill
                    }
                    // Finished early, the guard takes a repeated key.
                    fill.finish();
                    let (k, v) = (key(0), value_size(&classes, draw));
                    let t = at(warm + i) - SimTime::from_nanos(1);
                    assert_eq!(a.set(k, v, t), fill.set(k, v, t));
                }
                let (k, v, t) = (key(i as u64), value_size(&classes, draw), at(warm + i));
                assert_eq!(a.set(k, v, t), fill.set(k, v, t), "set {i} of the fill");
            }
        }
        assert_same(&a, &b, &ttls);
        let mut now = SimTime::from_millis(1);
        for op in &tail {
            apply(&mut a, &mut b, op, now, &mut ttls);
            now += SimTime::from_millis(1);
        }
        assert_same(&a, &b, &ttls);
    }
}

#[test]
fn dropped_fill_leaves_a_complete_index() {
    for shards in [1, 4, 8] {
        let config = StoreConfig {
            memory: ByteSize::from_mib(1),
            classes: SizeClasses::new(128, 2.0, 1024),
            shards,
        };
        let (mut a, mut b) = (SlabStore::new(config.clone()), SlabStore::new(config));
        // 1 MiB of 128 B chunks holds 8192: the fill evicts the coldest
        // 1 808 of its 10 000 keys, then the guard goes out of scope.
        let mut fill = b.fill();
        for i in 0..10_000u64 {
            let t = SimTime::from_nanos(i + 1);
            assert_eq!(a.set(key(i), 10, t), fill.set(key(i), 10, t));
        }
        drop(fill);
        assert_eq!(b.stats().evictions, 1_808);
        assert_same(&a, &b, &Ttls::new());
        let now = SimTime::from_secs(1);
        for i in (0..10_000).rev() {
            assert_eq!(a.get(key(i), now), b.get(key(i), now), "key {i}");
        }
        assert_same(&a, &b, &Ttls::new());
        // A second fill of a store that is not empty is plain `set`,
        // repeats included.
        let mut fill = b.fill();
        for i in [5_000, 5_000, 20_000] {
            let t = SimTime::from_secs(2);
            assert_eq!(a.set(key(i), 10, t), fill.set(key(i), 10, t));
        }
        drop(fill);
        assert_same(&a, &b, &Ttls::new());
    }
}

#[test]
fn fill_refuses_what_set_refuses() {
    // One page: the first class takes it, the second has none to take,
    // and an item past the largest chunk fits no class at all.
    let config = StoreConfig {
        memory: ByteSize::from_mib(1),
        classes: SizeClasses::new(128, 2.0, 1024),
        shards: 1,
    };
    let mut s = SlabStore::new(config);
    let mut fill = s.fill();
    let t = SimTime::from_secs(1);
    assert_eq!(fill.set(KeyId(1), 10, t), Ok(()));
    assert_eq!(fill.set(KeyId(2), 900, t), Err(ElmemError::OutOfMemory));
    assert!(matches!(
        fill.set(KeyId(3), 5_000, t),
        Err(ElmemError::ItemTooLarge { .. })
    ));
    drop(fill);
    assert_eq!((s.len(), s.stats().sets), (1, 1));
    assert_eq!(s.eviction_pressure(ClassId(3)), 1);
    assert!(s.contains(KeyId(1)));
    assert_eq!(s.audit(), Ok(()));
}
