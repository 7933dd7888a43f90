//! One shard of a [`SlabStore`](crate::SlabStore): the slot arena, free
//! lists, per-class MRU lists, and key index for the subset of keys that
//! route here — by default all of them: a store has one shard unless its
//! config names more, and then a class's MRU list *is* its one shard list.
//!
//! # Two lanes per arena
//!
//! A slot id indexes two parallel vectors: a 16-byte [`Link`] (stamp,
//! prev, next) and the 32-byte [`ItemMeta`] the slot holds. Whatever only
//! reorders a list — `unlink`, `push_front`, `push_back`, `detach_list`,
//! `relink_back`, an ordered walk's hops — stays on the link lane; the
//! item lane is read when an item is asked for and written when one is
//! set. A slot is free exactly when its stamp is 0 (`remove` zeroes it,
//! linking writes a live one), so no `Option` wraps the item, and
//! [`SlabStore::audit`](crate::SlabStore::audit) checks "on the free list
//! ⇔ stamp 0". See DESIGN.md §14.
//!
//! A shard is deliberately *dumb*: it owns list surgery and byte/len
//! accounting for its own slots, but every policy decision — whether a
//! chunk may be allocated, which class gets a page, which item is the
//! global LRU victim — lives in the facade that drives it (the serial
//! [`SlabStore`](crate::SlabStore) or the concurrent
//! [`ConcurrentSlabStore`](crate::ConcurrentSlabStore)). Both facades
//! funnel through the same methods here, which is what makes the
//! serialized-interleaving equivalence between them testable at all.
//!
//! # The `lru_seq` linchpin
//!
//! Every time an item is (re)linked into an MRU list it is stamped with a
//! value drawn from the store's global monotone **LRU clock**. The facade
//! maintains one invariant: *within each (shard, class) list, stamps
//! strictly descend from head to tail*. Under that invariant the global
//! MRU order of a class is exactly the k-way merge of its shard lists by
//! descending stamp — so the unsharded store's observable behavior
//! (eviction victims, crawler visit order, the median position, dump
//! contents) is recoverable at any shard count, byte for byte. One kernel
//! performs that merge for every ordered walk, from either end
//! ([`ClassMruIter`](crate::store::ClassMruIter)); with one shard it has one
//! lane and merges nothing. See DESIGN.md §14.

use elmem_util::hashutil::{mix64, FastIntMap};
use elmem_util::KeyId;

use crate::item::ItemMeta;

/// Sentinel for "no slot" in the intrusive MRU lists.
pub(crate) const NIL: u32 = u32::MAX;

/// Which shard a key routes to: the high 32 bits of the same SplitMix64
/// finalizer the key index hashes with, range-reduced without division.
/// One shard means shard 0 — the degenerate case is the unsharded store.
#[inline]
pub(crate) fn shard_of(key: KeyId, n_shards: u32) -> usize {
    let h = (mix64(key.0) >> 32) as u32;
    ((u64::from(h) * u64::from(n_shards)) >> 32) as usize
}

/// The hot half of one chunk: its LRU-clock stamp and its intrusive MRU
/// links within the owning (shard, class) list. 16 bytes, four to a cache
/// line, so a walk or a relink that needs no item never fetches one.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Link {
    /// LRU-clock stamp assigned when the slot was last linked; 0 exactly
    /// when the slot is free (the clock hands stamps out from 1).
    pub seq: u64,
    pub prev: u32,
    pub next: u32,
}

// Four links or two items to a cache line, neither ever straddling one.
const _: () = assert!(size_of::<Link>() == 16 && size_of::<ItemMeta>() == 32);

/// One class's slots within one shard, as two lanes indexed by the same
/// slot id: `links` for list surgery and ordered walks, `items` for what a
/// slot holds (stale while the slot is free). Slots are *virtual chunks*:
/// the lanes grow lazily as the facade grants capacity, so the sum of slot
/// counts across shards never exceeds the class's page capacity — but
/// which physical page a given shard's chunk lives on is not modeled
/// (a documented non-goal, DESIGN.md §14).
#[derive(Debug)]
pub(crate) struct ShardList {
    pub links: Vec<Link>,
    pub items: Vec<ItemMeta>,
    pub free: Vec<u32>,
    pub head: u32,
    pub tail: u32,
    /// Occupied slots in this shard-class list.
    pub len: u64,
    /// Footprint bytes of the occupied slots.
    pub bytes_used: u64,
}

impl Clone for ShardList {
    /// Copies the lanes *with their capacity*: the derive trims each to its
    /// length, so the first insert into any cloned store reallocated and
    /// copied a whole arena. Capacity nothing has written is not resident.
    fn clone(&self) -> Self {
        fn with_capacity_of<T: Copy>(v: &Vec<T>) -> Vec<T> {
            let mut copy = Vec::with_capacity(v.capacity());
            copy.extend_from_slice(v);
            copy
        }
        ShardList {
            links: with_capacity_of(&self.links),
            items: with_capacity_of(&self.items),
            free: with_capacity_of(&self.free),
            ..*self
        }
    }
}

impl ShardList {
    fn new() -> Self {
        ShardList {
            links: Vec::new(),
            items: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            len: 0,
            bytes_used: 0,
        }
    }

    /// Takes a linked slot out of the list; its own link is left stale for
    /// the caller to overwrite or zero.
    fn unlink(&mut self, idx: u32) {
        let Link { prev, next, .. } = self.links[idx as usize];
        if prev != NIL {
            self.links[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.links[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    pub fn push_front(&mut self, idx: u32, seq: u64) {
        let next = self.head;
        self.links[idx as usize] = Link {
            seq,
            prev: NIL,
            next,
        };
        if next != NIL {
            self.links[next as usize].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    fn push_back(&mut self, idx: u32, seq: u64) {
        let prev = self.tail;
        self.links[idx as usize] = Link {
            seq,
            prev,
            next: NIL,
        };
        if prev != NIL {
            self.links[prev as usize].next = idx;
        }
        self.tail = idx;
        if self.head == NIL {
            self.head = idx;
        }
    }

    /// Stores a new item in a slot — a previously freed one if one exists,
    /// else a fresh virtual chunk — and counts it; the caller links it. The
    /// *capacity* decision (is the class allowed another chunk?) is the
    /// caller's too, and so is the key index.
    pub fn occupy(&mut self, item: ItemMeta) -> u32 {
        self.len += 1;
        self.bytes_used += item.footprint();
        if let Some(idx) = self.free.pop() {
            self.items[idx as usize] = item;
            return idx;
        }
        let idx = self.links.len() as u32;
        self.links.push(Link {
            seq: 0,
            prev: NIL,
            next: NIL,
        });
        self.items.push(item);
        idx
    }

    /// Unlinks an occupied slot, frees it and uncounts its item, which it
    /// returns; the key index is the caller's.
    pub fn vacate(&mut self, idx: u32) -> ItemMeta {
        self.unlink(idx);
        self.links[idx as usize].seq = 0;
        let item = self.items[idx as usize];
        self.free.push(idx);
        self.len -= 1;
        self.bytes_used -= item.footprint();
        item
    }
}

/// One independent shard: per-class lists plus the key index for the keys
/// that route here.
#[derive(Debug, Clone)]
pub(crate) struct Shard {
    pub lists: Vec<ShardList>,
    /// key → (class, slot) for this shard's resident keys. The
    /// deterministic integer hasher keeps placement identical across runs
    /// and platforms.
    pub index: FastIntMap<KeyId, (u16, u32)>,
}

impl Shard {
    pub fn new(n_classes: usize) -> Self {
        Shard {
            lists: (0..n_classes).map(|_| ShardList::new()).collect(),
            index: FastIntMap::default(),
        }
    }

    /// Inserts `item` into class `class` at the MRU head with stamp `seq`.
    /// The caller has already secured capacity for one chunk.
    pub fn insert_front(&mut self, class: u16, item: ItemMeta, seq: u64) {
        let list = &mut self.lists[class as usize];
        let idx = list.occupy(item);
        list.push_front(idx, seq);
        self.index.insert(item.key, (class, idx));
    }

    /// Inserts `item` at the MRU *tail* with stamp `seq` — how
    /// `batch_import` lands an incoming item while it appends a merged
    /// list hottest first. The caller guarantees `seq` is below the
    /// current tail stamp.
    pub fn insert_back(&mut self, class: u16, item: ItemMeta, seq: u64) {
        let list = &mut self.lists[class as usize];
        let idx = list.occupy(item);
        list.push_back(idx, seq);
        self.index.insert(item.key, (class, idx));
    }

    /// Empties a class's MRU list without touching its slots: every
    /// occupied slot stays occupied, counted and indexed, but is linked
    /// nowhere until [`relink_back`](Self::relink_back) appends it again.
    /// The caller relinks every occupied slot before anything else reads
    /// the list.
    pub fn detach_list(&mut self, class: u16) {
        let list = &mut self.lists[class as usize];
        list.head = NIL;
        list.tail = NIL;
    }

    /// Appends an occupied slot of a [detached](Self::detach_list) list
    /// at the MRU tail with stamp `seq` — link lane only. The caller
    /// guarantees `seq` is below the current tail stamp.
    pub fn relink_back(&mut self, class: u16, idx: u32, seq: u64) {
        self.lists[class as usize].push_back(idx, seq);
    }

    /// Removes a key from this shard; returns its class and metadata.
    pub fn remove(&mut self, key: KeyId) -> Option<(u16, ItemMeta)> {
        let (class, idx) = self.index.remove(&key)?;
        Some((class, self.lists[class as usize].vacate(idx)))
    }

    /// Moves an already-resident slot to the MRU head with a fresh stamp,
    /// returning a mutable handle to its item.
    pub fn relink_front(&mut self, class: u16, idx: u32, seq: u64) -> &mut ItemMeta {
        let list = &mut self.lists[class as usize];
        list.unlink(idx);
        list.push_front(idx, seq);
        &mut list.items[idx as usize]
    }

    /// The item in an occupied slot, by reference.
    pub fn item(&self, class: u16, idx: u32) -> &ItemMeta {
        &self.lists[class as usize].items[idx as usize]
    }

    /// The key of the coldest (tail) item of a class, with its stamp.
    pub fn tail_entry(&self, class: u16) -> Option<(KeyId, u64)> {
        let list = &self.lists[class as usize];
        let tail = list.tail as usize;
        (list.tail != NIL).then(|| (list.items[tail].key, list.links[tail].seq))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elmem_util::SimTime;

    #[test]
    fn shard_of_is_stable_and_in_range() {
        for n in [1u32, 2, 3, 4, 8, 64] {
            for k in 0..1000u64 {
                let s = shard_of(KeyId(k), n);
                assert!(s < n as usize);
                assert_eq!(s, shard_of(KeyId(k), n), "routing must be pure");
            }
        }
        // One shard degenerates to the unsharded store.
        assert!((0..1000).all(|k| shard_of(KeyId(k), 1) == 0));
    }

    #[test]
    fn shard_of_spreads_keys() {
        let n = 8u32;
        let mut counts = [0usize; 8];
        for k in 0..8000u64 {
            counts[shard_of(KeyId(k), n)] += 1;
        }
        for (s, &c) in counts.iter().enumerate() {
            assert!(
                (500..1500).contains(&c),
                "shard {s} got {c} of 8000 keys — routing badly skewed"
            );
        }
    }

    #[test]
    fn insert_remove_roundtrip_keeps_accounting() {
        let mut sh = Shard::new(2);
        let a = ItemMeta::new(KeyId(1), 100, SimTime::from_secs(1));
        let b = ItemMeta::new(KeyId(2), 50, SimTime::from_secs(2));
        sh.insert_front(0, a, 1);
        sh.insert_front(0, b, 2);
        assert_eq!(sh.lists[0].len, 2);
        assert_eq!(sh.lists[0].bytes_used, a.footprint() + b.footprint());
        assert_eq!(sh.tail_entry(0), Some((KeyId(1), 1)));
        let (class, removed) = sh.remove(KeyId(1)).unwrap();
        assert_eq!(class, 0);
        assert_eq!(removed.key, KeyId(1));
        assert_eq!(sh.lists[0].len, 1);
        assert_eq!(sh.lists[0].bytes_used, b.footprint());
        assert_eq!(sh.lists[0].free.len(), 1);
        assert!(sh.remove(KeyId(1)).is_none());
    }

    #[test]
    fn relink_front_restamps() {
        let mut sh = Shard::new(1);
        sh.insert_front(0, ItemMeta::new(KeyId(1), 10, SimTime::from_secs(1)), 1);
        sh.insert_front(0, ItemMeta::new(KeyId(2), 10, SimTime::from_secs(2)), 2);
        // Key 1 is the tail; relink it to the head with stamp 3.
        let (_, idx) = *sh.index.get(&KeyId(1)).unwrap();
        sh.relink_front(0, idx, 3);
        assert_eq!(sh.tail_entry(0), Some((KeyId(2), 2)));
        let head = sh.lists[0].head;
        assert_eq!(sh.lists[0].links[head as usize].seq, 3);
    }
}
