//! `SlabStore::fill` against the per-key `set` it stands in for. A fill of
//! a new store is a ring: it writes only the item lane, overwriting each
//! class's oldest slot once the pages are gone, and links and indexes the
//! survivors once at its end. The reference is the plain command loop:
//! after the fill, and after any tail of commands, the two stores must be
//! indistinguishable through the public surface.

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
    Set(u64, u32),
    Delete(u64),
    EvictLru(u16),
    ReassignPage(u16, u16),
    /// Items as (key id, size draw, age in ms against now).
    BatchImport(Vec<(u64, u32, u64)>),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let id = || 0u64..1_600;
    prop_oneof![
        id().prop_map(Op::Get),
        (id(), 0u32..1_100).prop_map(|(k, s)| Op::Set(k, s)),
        id().prop_map(Op::Delete),
        (0u16..16).prop_map(Op::EvictLru),
        (0u16..16, 0u16..16).prop_map(|(a, b)| Op::ReassignPage(a, b)),
        prop::collection::vec((id(), 0u32..1_100, 0u64..3_000), 1..40).prop_map(Op::BatchImport),
    ]
}

/// Everything a caller can read of a store, compared; both must audit.
fn assert_same(a: &SlabStore, b: &SlabStore) {
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
fn apply(a: &mut SlabStore, b: &mut SlabStore, op: &Op, now: SimTime) {
    let classes = a.classes().clone();
    let class = |c: u16| ClassId(c % classes.len() as u16);
    match *op {
        Op::Get(k) => assert_eq!(a.get(key(k), now), b.get(key(k), now)),
        Op::Set(k, s) => {
            let v = value_size(&classes, s);
            assert_eq!(a.set(key(k), v, now), b.set(key(k), v, now));
        }
        Op::Delete(k) => assert_eq!(a.delete(key(k)), b.delete(key(k))),
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
                    let at = now.saturating_sub(SimTime::from_millis(age));
                    ItemMeta::new(key(k), value_size(&classes, s), at)
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
            assert_eq!(
                a.batch_import(target, &items, mode),
                b.batch_import(target, &items, mode)
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]
    #[test]
    fn fill_matches_per_key_set(
        ladder in (16u64..512, 125u64..400, 1u64..64),
        pages in 1u64..=6,
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
            classes: SizeClasses::new(min_chunk, growth as f64 / 100.0, max_chunk),
            ..StoreConfig::with_memory(ByteSize::from_mib(pages))
        };
        let (mut a, mut b) = (SlabStore::new(config.clone()), SlabStore::new(config));
        let classes = a.classes().clone();
        let at = |i: usize| SimTime::from_nanos(1_000 + i as u64);
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
        assert_same(&a, &b);
        let mut now = SimTime::from_millis(1);
        for op in &tail {
            apply(&mut a, &mut b, op, now);
            now += SimTime::from_millis(1);
        }
        assert_same(&a, &b);
    }
}

#[test]
fn dropped_fill_leaves_a_complete_index() {
    let config = StoreConfig {
        classes: SizeClasses::new(128, 2.0, 1024),
        ..StoreConfig::with_memory(ByteSize::from_mib(1))
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
    assert_same(&a, &b);
    let now = SimTime::from_secs(1);
    for i in (0..10_000).rev() {
        assert_eq!(a.get(key(i), now), b.get(key(i), now), "key {i}");
    }
    assert_same(&a, &b);
    // A second fill of a store that is not empty is plain `set`,
    // repeats included.
    let mut fill = b.fill();
    for i in [5_000, 5_000, 20_000] {
        let t = SimTime::from_secs(2);
        assert_eq!(a.set(key(i), 10, t), fill.set(key(i), 10, t));
    }
    drop(fill);
    assert_same(&a, &b);
}

#[test]
fn fill_refuses_what_set_refuses() {
    // One page: the first class takes it, the second has none to take,
    // and an item past the largest chunk fits no class at all.
    let mut s = SlabStore::new(StoreConfig {
        classes: SizeClasses::new(128, 2.0, 1024),
        ..StoreConfig::with_memory(ByteSize::from_mib(1))
    });
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

/// A store of 1 KiB to 8 KiB chunks, 1 024 to 128 a page.
fn kib_store(mib: u64) -> SlabStore {
    SlabStore::new(StoreConfig {
        classes: SizeClasses::new(1024, 2.0, 8192),
        ..StoreConfig::with_memory(ByteSize::from_mib(mib))
    })
}

#[test]
fn a_fill_finished_mid_ring_takes_a_repeated_key() {
    // Two pages of class 0 hold 2 048 items: the fill wraps its ring to
    // slot 700, is finished there by a repeated key, and goes on as plain
    // `set`s that evict past the ring's last slot and back to its first.
    let (mut a, mut b) = (kib_store(2), kib_store(2));
    let mut fill = b.fill();
    let t = |i: u64| SimTime::from_nanos(i + 1);
    for i in 0..2_748u64 {
        assert_eq!(a.set(key(i), 100, t(i)), fill.set(key(i), 100, t(i)));
    }
    fill.finish();
    // One resident (rewritten in place), one evicted (set anew).
    for (k, i) in [(2_000, 2_748), (3, 2_749)] {
        assert_eq!(a.set(key(k), 200, t(i)), fill.set(key(k), 200, t(i)));
    }
    for i in 2_750..4_500u64 {
        assert_eq!(a.set(key(i), 100, t(i)), fill.set(key(i), 100, t(i)));
    }
    drop(fill);
    assert_eq!(b.stats().evictions, 2_748 + 1 + 1_750 - 2_048);
    assert_same(&a, &b);
    let now = SimTime::from_secs(1);
    for i in 0..4_500 {
        assert_eq!(a.get(key(i), now), b.get(key(i), now), "key {i}");
    }
    assert_same(&a, &b);
}

#[test]
fn a_fill_dropped_mid_ring_serves_like_per_key_sets() {
    // Classes 0 and 1 share three pages, two and one: each wraps its ring
    // to a different slot before the guard drops. The lists it links must
    // then evict, hit and take sets in the per-key loop's order.
    let (mut a, mut b) = (kib_store(3), kib_store(3));
    let mut fill = b.fill();
    let size = |i: u64| if i.is_multiple_of(4) { 1_500 } else { 500 };
    for i in 0..4_000u64 {
        let (v, at) = (size(i), SimTime::from_nanos(i + 1));
        assert_eq!(a.set(key(i), v, at), fill.set(key(i), v, at), "set {i}");
    }
    drop(fill);
    // 3 000 sets into 2 048 slots and 1 000 into 512.
    assert_eq!(b.eviction_pressure(ClassId(0)), 952);
    assert_eq!(b.eviction_pressure(ClassId(1)), 488);
    assert_same(&a, &b);
    for class in [ClassId(0), ClassId(1)] {
        for _ in 0..100 {
            assert_eq!(a.evict_lru(class), b.evict_lru(class), "{class}");
        }
    }
    let now = SimTime::from_secs(1);
    for i in (0..4_000).rev().step_by(7) {
        assert_eq!(a.get(key(i), now), b.get(key(i), now), "key {i}");
    }
    for i in 4_000..5_000u64 {
        assert_eq!(a.set(key(i), size(i), now), b.set(key(i), size(i), now));
    }
    assert_same(&a, &b);
}

#[test]
fn a_class_without_a_page_is_refused_once_the_pages_are_gone() {
    // Class 0 takes the first page, class 1 the second with one item, and
    // class 2 then finds none: refused, its pressure counted, while class
    // 0 evicts around its ring and class 1 still takes fresh slots.
    let (mut a, mut b) = (kib_store(2), kib_store(2));
    let mut fill = b.fill();
    let mut i = 0u64;
    let mut set = |a: &mut SlabStore, fill: &mut elmem_store::Fill, v: u32| {
        let at = SimTime::from_nanos(i + 1);
        let answer = a.set(key(i), v, at);
        assert_eq!(answer, fill.set(key(i), v, at), "set {i}");
        i += 1;
        answer
    };
    for _ in 0..1_024 {
        set(&mut a, &mut fill, 500).unwrap();
    }
    set(&mut a, &mut fill, 1_500).unwrap();
    assert_eq!(set(&mut a, &mut fill, 3_000), Err(ElmemError::OutOfMemory));
    for _ in 0..300 {
        set(&mut a, &mut fill, 500).unwrap();
        set(&mut a, &mut fill, 1_500).unwrap();
    }
    assert_eq!(set(&mut a, &mut fill, 3_000), Err(ElmemError::OutOfMemory));
    drop(fill);
    assert_eq!(b.pages_of_class(ClassId(2)), 0);
    assert_eq!(b.eviction_pressure(ClassId(2)), 2);
    assert_eq!(b.eviction_pressure(ClassId(0)), 300);
    assert_eq!(
        (b.len_of_class(ClassId(1)), b.eviction_pressure(ClassId(1))),
        (301, 0)
    );
    assert_same(&a, &b);
}
