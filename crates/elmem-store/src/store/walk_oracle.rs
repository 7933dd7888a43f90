//! Differential test for [`ClassMruIter`], the ordered-walk kernel.
//!
//! Two references. The first is the form the kernel replaced, verbatim: a
//! cursor per shard and, at every step, a fresh read of every live
//! cursor's stamp through `shards[si].lists[class].links[cur]`. The second
//! knows nothing about lists at all: every slot of the class with a live
//! stamp, paired with the item lane's entry at the same id and sorted by
//! stamp. From the hot end the kernel must visit the same (shard,
//! slot) positions in the same order as both; taking from both ends in any
//! interleaving it must close in on the stamp order from either side; it
//! must report how many items are left before every step, and leave
//! `dump_class`, `median_hotness`, `crawl_expired` and `audit` in agreement
//! — at any shard count, after anything that relinks a list. Every item
//! any of them reports carries the expiry a model of the history's TTLs
//! gives it, which the shards keep apart from the slots.

use std::collections::HashMap;

use elmem_util::{KeyId, SimTime};
use proptest::prelude::*;

use super::import_oracle::{batch_items, store};
use super::{ImportMode, SlabStore};
use crate::classes::ClassId;
use crate::item::ItemMeta;
use crate::shard::{Shard, NIL};

/// The walk the kernel replaced.
struct CursorWalk<'a> {
    shards: &'a [Shard],
    class: u16,
    /// Per-shard cursor into the class's list ([`NIL`] = exhausted).
    cursors: Vec<u32>,
}

impl CursorWalk<'_> {
    fn new(s: &SlabStore, class: ClassId) -> CursorWalk<'_> {
        CursorWalk {
            shards: &s.shards,
            class: class.0,
            cursors: s
                .shards
                .iter()
                .map(|sh| sh.lists[class.0 as usize].head)
                .collect(),
        }
    }

    fn next_slot(&mut self) -> Option<(usize, u32)> {
        let mut hottest: Option<(usize, u64)> = None;
        for (si, &cur) in self.cursors.iter().enumerate() {
            if cur == NIL {
                continue;
            }
            let seq = self.shards[si].lists[self.class as usize].links[cur as usize].seq;
            if hottest.is_none_or(|(_, s)| seq > s) {
                hottest = Some((si, seq));
            }
        }
        let (si, _) = hottest?;
        let idx = self.cursors[si];
        self.cursors[si] = self.shards[si].lists[self.class as usize].links[idx as usize].next;
        Some((si, idx))
    }
}

/// The expiry the history gave each key when it last landed: absent is
/// never.
type Ttls = HashMap<u64, SimTime>;

/// Every occupied slot of the class as (shard, slot, item), hottest stamp
/// first, each item's expiry from `ttls`. Stamps are unique store-wide, so
/// the order is total.
fn by_stamp(s: &SlabStore, class: ClassId, ttls: &Ttls) -> Vec<(usize, u32, ItemMeta)> {
    let mut all: Vec<(u64, usize, u32, ItemMeta)> = Vec::new();
    for (si, sh) in s.shards.iter().enumerate() {
        let list = &sh.lists[class.0 as usize];
        for (idx, (link, slot)) in list.links.iter().zip(&list.slots).enumerate() {
            if link.seq != 0 {
                let key = KeyId(u64::from(slot.key));
                let expires = ttls.get(&key.0).copied().unwrap_or(SimTime::MAX);
                let (value_size, last_access) = (slot.value_size, slot.last_access);
                let item = ItemMeta {
                    key,
                    value_size,
                    last_access,
                    expires,
                };
                all.push((link.seq, si, idx as u32, item));
            }
        }
    }
    all.sort_by_key(|&(seq, ..)| std::cmp::Reverse(seq));
    all.into_iter()
        .map(|(_, si, idx, item)| (si, idx, item))
        .collect()
}

/// Checks the kernel against both references on every class of `s`.
/// `ends` says, step by step and cyclically, which end a mixed walk takes
/// from (`true`: the hot one).
fn check(s: &SlabStore, ends: &[bool], ttls: &Ttls, when: &str) {
    s.audit().unwrap();
    for class in s.classes.ids() {
        let want = by_stamp(s, class, ttls);
        assert_eq!(want.len() as u64, s.len_of_class(class), "{when} {class}");
        for &(_, _, item) in &want {
            assert_eq!(s.peek(item.key), Some(item), "{when} {class}");
        }

        // Hot end only: the cursor walk's order, counted down exactly.
        let mut old = CursorWalk::new(s, class);
        let mut new = s.iter_class_mru(class);
        for (left, &(si, idx, item)) in (1..=want.len()).rev().zip(&want) {
            assert_eq!(new.size_hint(), (left, Some(left)), "{when} {class}");
            assert_eq!(old.next_slot(), Some((si, idx)), "{when} {class}");
            assert_eq!(new.step::<true>(), Some((si, idx)), "{when} {class}");
            assert_eq!(new.item(si, idx), item, "{when} {class}");
        }
        assert_eq!(new.size_hint(), (0, Some(0)), "{when} {class}");
        assert_eq!(old.next_slot(), None, "{when} {class}");
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
            let (got, (si, idx, item)) = if from_hot {
                hot += 1;
                (new.step::<true>(), want[hot - 1])
            } else {
                cold -= 1;
                (new.step::<false>(), want[cold])
            };
            assert_eq!(got, Some((si, idx)), "{when} {class}");
            assert_eq!(new.item(si, idx), item, "{when} {class}");
        }
        assert_eq!(hot, cold, "{when} {class}");
        assert_eq!(new.step::<true>(), None, "{when} {class}");
        assert_eq!(new.step::<false>(), None, "{when} {class}");

        let order: Vec<ItemMeta> = want.iter().map(|&(_, _, item)| item).collect();
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
            .collect_with(|si, idx, item| (si, idx, item));
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
    /// `ttl` 0 sets without one.
    Set {
        key: u64,
        class: usize,
        ms: u64,
        ttl: u64,
    },
    Get {
        key: u64,
        ms: u64,
    },
    Touch {
        key: u64,
        ms: u64,
        ttl: u64,
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
    Crawl {
        ms: u64,
        budget: u64,
    },
}

/// Keys 0..160 over three classes and a clock that runs backwards as often
/// as forwards within a few milliseconds: lists fill and evict, and whole
/// runs tie on the timestamp, so MRU order and hotness order disagree.
fn op_strategy() -> impl Strategy<Value = Op> {
    let set = || {
        (0u64..160, 0usize..3, 0u64..12, 0u64..8).prop_map(|(key, class, ms, ttl)| Op::Set {
            key,
            class,
            ms,
            ttl,
        })
    };
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
        (0u64..160, 0u64..12, 1u64..8).prop_map(|(key, ms, ttl)| Op::Touch { key, ms, ttl }),
        (0u64..160).prop_map(|key| Op::Delete { key }),
        (0u16..3).prop_map(|class| Op::Evict { class }),
        (0u16..3, 0u16..3).prop_map(|(from, to)| Op::Reassign { from, to }),
        (0u64..20, 0u64..120).prop_map(|(ms, budget)| Op::Crawl { ms, budget }),
        (
            prop::collection::vec((0u64..240, 0u64..16), 0..90),
            any::<bool>()
        )
            .prop_map(|(pairs, prepend)| Op::Import { pairs, prepend }),
    ]
}

/// Applies `op`, recording in `ttls` the expiry of every item it lands.
fn apply(s: &mut SlabStore, op: &Op, ttls: &mut Ttls) {
    let expiry = |now: SimTime, ttl| match ttl {
        0 => None,
        _ => Some(now + SimTime::from_millis(ttl)),
    };
    match op {
        Op::Set {
            key,
            class,
            ms,
            ttl,
        } => {
            let (id, size, now) = (KeyId(*key), SIZES[*class], SimTime::from_millis(*ms));
            let set = match ttl {
                0 => s.set(id, size, now),
                _ => s.set_with_ttl(id, size, now, SimTime::from_millis(*ttl)),
            };
            if set.is_ok() {
                land(ttls, *key, expiry(now, *ttl));
            }
        }
        Op::Get { key, ms } => {
            let _ = s.get(KeyId(*key), SimTime::from_millis(*ms));
        }
        Op::Touch { key, ms, ttl } => {
            let now = SimTime::from_millis(*ms);
            if let Some(item) = s.touch(KeyId(*key), now, SimTime::from_millis(*ttl)) {
                land(ttls, *key, expiry(now, *ttl));
                assert_eq!(item.expires, now + SimTime::from_millis(*ttl));
            }
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
            let items = batch_items(pairs);
            // An incoming copy lands unless a resident one is as hot.
            let landing: Vec<ItemMeta> = items
                .iter()
                .filter(|i| s.peek(i.key).is_none_or(|r| r.hotness() < i.hotness()))
                .copied()
                .collect();
            s.batch_import(ClassId(0), &items, mode).unwrap();
            for i in landing {
                land(
                    ttls,
                    i.key.0,
                    (i.expires != SimTime::MAX).then_some(i.expires),
                );
            }
        }
        Op::Crawl { ms, budget } => {
            // The crawler is the walk from its cold end, class by class,
            // until the budget is spent.
            let now = SimTime::from_millis(*ms);
            let coldest_first = s
                .classes
                .ids()
                .flat_map(|c| by_stamp(s, c, ttls).into_iter().rev());
            let doomed: Vec<KeyId> = coldest_first
                .take(*budget as usize)
                .filter(|(_, _, item)| item.is_expired(now))
                .map(|(_, _, item)| item.key)
                .collect();
            let (len, expired) = (s.len(), s.stats().expired);
            assert_eq!(s.crawl_expired(now, *budget), doomed.len() as u64);
            assert!(doomed.iter().all(|&key| !s.contains(key)));
            assert_eq!(s.len(), len - doomed.len() as u64);
            assert_eq!(s.stats().expired, expired + doomed.len() as u64);
        }
    }
}

fn land(ttls: &mut Ttls, key: u64, expires: Option<SimTime>) {
    match expires {
        Some(at) => ttls.insert(key, at),
        None => ttls.remove(&key),
    };
}

proptest! {
    /// The kernel walks what the cursor form walked and what sorting the
    /// slots by stamp yields — midway through a history, at its end, with
    /// one shard's lane emptied, and with a whole class emptied.
    #[test]
    fn kernel_matches_cursor_walk_and_stamp_sort(
        ops in prop::collection::vec(op_strategy(), 1..250),
        ends in prop::collection::vec(any::<bool>(), 1..40),
    ) {
        for shards in [1usize, 2, 3, 8] {
            let mut s = store(shards);
            let mut ttls = Ttls::new();
            for (i, op) in ops.iter().enumerate() {
                apply(&mut s, op, &mut ttls);
                if i == ops.len() / 2 {
                    check(&s, &ends, &ttls, "midway");
                }
            }
            check(&s, &ends, &ttls, "after the history");

            // Empty the last shard's lane of every class; the others keep
            // theirs (at one shard that is every item).
            let lane: Vec<u32> = s.shards[shards - 1].index.keys().copied().collect();
            for id in lane {
                s.delete(KeyId(u64::from(id)));
            }
            check(&s, &ends, &ttls, "with one lane emptied");

            // Refill — plain sets over keys that held TTLs among them —
            // then empty one class outright.
            for k in 0..40 {
                let key = if k % 2 == 0 { k * 3 } else { 500 + k };
                let size = SIZES[(k % 3) as usize];
                if s.set(KeyId(key), size, SimTime::from_millis(k % 5)).is_ok() {
                    land(&mut ttls, key, None);
                }
            }
            check(&s, &ends, &ttls, "after plain sets");
            let small = ClassId(0);
            while s.evict_lru(small).is_some() {}
            prop_assert_eq!(s.len_of_class(small), 0);
            prop_assert!(s.iter_class_mru(small).next().is_none());
            check(&s, &ends, &ttls, "with one class emptied");
        }
    }
}
