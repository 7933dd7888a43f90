//! Differential test for [`ClassMruIter`], the ordered-walk kernel.
//!
//! The reference is the list itself, read by raw pointers: from the head
//! along `next`, and from the tail along `prev`, reversed — the two must
//! agree — with the item lane's entry at each slot. From the hot end the
//! kernel must visit the same slots in the same order; taking from both
//! ends in any interleaving it must close in on that order from either
//! side; its two-ended drain and `nth(k)` for every k ≤ len + 1 must read
//! it too; it must report how many items are left before every step, and
//! leave `dump_class`, `median_hotness` and `audit` in agreement — after
//! anything that relinks a list.

use elmem_util::{KeyId, SimTime};
use proptest::prelude::*;

use super::import_oracle::{batch_items, store};
use super::{ImportMode, SlabStore};
use crate::classes::ClassId;
use crate::item::ItemMeta;
use crate::list::NIL;

/// Every linked slot of the class as (slot, item), head first: the `next`
/// walk, checked against the reversed `prev` walk.
fn by_pointers(s: &SlabStore, class: ClassId) -> Vec<(u32, ItemMeta)> {
    let list = &s.lists[class.0 as usize];
    let walk = |mut at: u32, hot: bool| {
        let mut slots = Vec::new();
        while at != NIL {
            slots.push((at, list.slots[at as usize].meta()));
            let link = list.links[at as usize];
            at = if hot { link.next } else { link.prev };
        }
        slots
    };
    let forward = walk(list.head, true);
    let mut backward = walk(list.tail, false);
    backward.reverse();
    assert_eq!(
        forward, backward,
        "{class}: next and prev pointers disagree"
    );
    forward
}

/// Checks the kernel against the pointer walks on every class of `s`.
/// `ends` says, step by step and cyclically, which end a mixed walk takes
/// from (`true`: the hot one).
fn check(s: &SlabStore, ends: &[bool], when: &str) {
    s.audit().unwrap();
    for class in s.classes.ids() {
        let want = by_pointers(s, class);
        assert_eq!(want.len() as u64, s.len_of_class(class), "{when} {class}");
        for &(_, item) in &want {
            assert_eq!(s.peek(item.key), Some(item), "{when} {class}");
        }

        // Hot end only: the pointer walk's order, counted down exactly.
        let mut new = s.iter_class_mru(class);
        for (left, &(idx, item)) in (1..=want.len()).rev().zip(&want) {
            assert_eq!(new.size_hint(), (left, Some(left)), "{when} {class}");
            assert_eq!(new.step::<true>(), Some(idx), "{when} {class}");
            assert_eq!(new.item(idx), item, "{when} {class}");
        }
        assert_eq!(new.size_hint(), (0, Some(0)), "{when} {class}");
        assert_eq!(new.next(), None, "{when} {class}");
        assert_eq!(
            new.step::<false>(),
            None,
            "an exhausted walk stays exhausted"
        );

        // Either end in any interleaving: the two ends close in on each
        // other and never yield a slot twice.
        let mut new = s.iter_class_mru(class);
        let (mut hot, mut cold) = (0, want.len());
        for (left, &from_hot) in (1..=want.len()).rev().zip(ends.iter().cycle()) {
            assert_eq!(new.size_hint(), (left, Some(left)), "{when} {class}");
            let (got, (idx, item)) = if from_hot {
                hot += 1;
                (new.step::<true>(), want[hot - 1])
            } else {
                cold -= 1;
                (new.step::<false>(), want[cold])
            };
            assert_eq!(got, Some(idx), "{when} {class}");
            assert_eq!(new.item(idx), item, "{when} {class}");
        }
        assert_eq!(hot, cold, "{when} {class}");
        assert_eq!(new.step::<true>(), None, "{when} {class}");
        assert_eq!(new.step::<false>(), None, "{when} {class}");

        let order: Vec<ItemMeta> = want.iter().map(|&(_, item)| item).collect();
        let walked: Vec<ItemMeta> = s.iter_class_mru(class).collect();
        assert_eq!(walked, order, "{when} {class}");

        // `nth(k)` skips on the link lane what `next` would have yielded:
        // the k-th item (none from `len` on), then the walk goes on from
        // there. (`skip(k).next()` is no reference — it calls `nth`.)
        for k in 0..=order.len() + 1 {
            let mut new = s.iter_class_mru(class);
            assert_eq!(new.nth(k), order.get(k).copied(), "{when} {class} nth({k})");
            let left = order.len().saturating_sub(k + 1);
            assert_eq!(
                new.size_hint(),
                (left, Some(left)),
                "{when} {class} nth({k})"
            );
            assert_eq!(
                new.next(),
                order.get(k + 1).copied(),
                "{when} {class} nth({k})"
            );
        }
        let drained = s
            .iter_class_mru(class)
            .collect_with(|idx, item| (idx, item));
        assert_eq!(drained, want, "{when} {class}");
        assert_eq!(
            s.median_hotness(class),
            order.get(order.len() / 2).map(ItemMeta::hotness),
            "{when} {class}"
        );
        let mut canonical = order;
        canonical.sort_by_key(|i| std::cmp::Reverse(i.hotness()));
        assert_eq!(s.dump_class(class).items, canonical, "{when} {class}");
    }
}

/// A value size landing in each of the three classes of the import
/// oracle's [`store`] (64/32/16 chunks to a page, under 4 pages: a few
/// dozen sets fill a class and the next one evicts); the first is the size
/// its [`batch_items`] carry.
const SIZES: [u32; 3] = [100, 20_000, 40_000];

#[derive(Debug, Clone)]
enum Op {
    Set {
        key: u64,
        class: usize,
        ms: u64,
    },
    Get {
        key: u64,
        ms: u64,
    },
    Delete {
        key: u64,
    },
    Evict {
        class: u16,
    },
    Reassign {
        from: u16,
        to: u16,
    },
    Import {
        pairs: Vec<(u64, u64)>,
        prepend: bool,
    },
}

/// Keys 0..160 over three classes and a clock that runs backwards as often
/// as forwards within a few milliseconds: lists fill and evict, and whole
/// runs tie on the timestamp, so MRU order and hotness order disagree.
fn op_strategy() -> impl Strategy<Value = Op> {
    let set =
        || (0u64..160, 0usize..3, 0u64..12).prop_map(|(key, class, ms)| Op::Set { key, class, ms });
    let get = || (0u64..160, 0u64..12).prop_map(|(key, ms)| Op::Get { key, ms });
    // The shim's `prop_oneof!` is uniform: repeat an arm to weight it.
    prop_oneof![
        set(),
        set(),
        set(),
        set(),
        get(),
        get(),
        get(),
        (0u64..160).prop_map(|key| Op::Delete { key }),
        (0u16..3).prop_map(|class| Op::Evict { class }),
        (0u16..3, 0u16..3).prop_map(|(from, to)| Op::Reassign { from, to }),
        (
            prop::collection::vec((0u64..240, 0u64..16), 0..90),
            any::<bool>()
        )
            .prop_map(|(pairs, prepend)| Op::Import { pairs, prepend }),
    ]
}

/// Applies `op`.
fn apply(s: &mut SlabStore, op: &Op) {
    match op {
        Op::Set { key, class, ms } => {
            let _ = s.set(KeyId(*key), SIZES[*class], SimTime::from_millis(*ms));
        }
        Op::Get { key, ms } => {
            let _ = s.get(KeyId(*key), SimTime::from_millis(*ms));
        }
        Op::Delete { key } => {
            s.delete(KeyId(*key));
        }
        Op::Evict { class } => {
            s.evict_lru(ClassId(*class));
        }
        Op::Reassign { from, to } => {
            let _ = s.reassign_page(ClassId(*from), ClassId(*to));
        }
        Op::Import { pairs, prepend } => {
            let mode = if *prepend {
                ImportMode::Prepend
            } else {
                ImportMode::Merge
            };
            s.batch_import(ClassId(0), &batch_items(pairs), mode)
                .unwrap();
        }
    }
}

proptest! {
    /// The kernel walks what the raw pointer walks read — midway through a
    /// history, at its end, with every list emptied, refilled, and with a
    /// whole class emptied.
    #[test]
    fn kernel_matches_the_pointer_walks(
        ops in prop::collection::vec(op_strategy(), 1..250),
        ends in prop::collection::vec(any::<bool>(), 1..40),
    ) {
        let mut s = store();
        for (i, op) in ops.iter().enumerate() {
            apply(&mut s, op);
            if i == ops.len() / 2 {
                check(&s, &ends, "midway");
            }
        }
        check(&s, &ends, "after the history");

        // Empty every list, key by key.
        let keys: Vec<u32> = s.index.keys().copied().collect();
        for id in keys {
            s.delete(KeyId(u64::from(id)));
        }
        check(&s, &ends, "with every list emptied");

        // Refill, then empty one class outright.
        for k in 0..40 {
            let key = if k % 2 == 0 { k * 3 } else { 500 + k };
            let size = SIZES[(k % 3) as usize];
            let _ = s.set(KeyId(key), size, SimTime::from_millis(k % 5));
        }
        check(&s, &ends, "after plain sets");
        let small = ClassId(0);
        while s.evict_lru(small).is_some() {}
        prop_assert_eq!(s.len_of_class(small), 0);
        prop_assert!(s.iter_class_mru(small).next().is_none());
        check(&s, &ends, "with one class emptied");
    }
}
