//! One shard of a [`SlabStore`](crate::SlabStore): the slot arena, free
//! lists, per-class MRU lists and key index for the keys that route here
//! (all of them unless the config names more shards). Only this module
//! knows a slot's layout: two 16-byte lanes per arena, a [`Link`] (stamp,
//! prev, next) for list surgery and walks and a [`Slot`] (32-bit key id,
//! value size, last access) for the item; a slot is free exactly when its
//! stamp is 0. A shard is deliberately *dumb*: every policy decision (chunk
//! grants, pages, the LRU victim) lives in the facade driving it, and the
//! facade keeps stamps strictly descending within each (shard, class) list,
//! so a class's MRU order is the merge of its shard lists by stamp
//! ([`ClassMruIter`](crate::store::ClassMruIter)). See DESIGN.md §14.

use elmem_util::hashutil::{mix64, FastIntMap};
use elmem_util::{ElmemError, KeyId, SimTime};

use crate::item::{item_footprint, ItemMeta};

/// Sentinel for "no slot" in the intrusive MRU lists.
pub(crate) const NIL: u32 = u32::MAX;

/// Which shard a key routes to: the high 32 bits of the same SplitMix64
/// finalizer the key index hashes with, range-reduced without division.
/// One shard means shard 0, unhashed — the unsharded store.
#[inline]
pub(crate) fn shard_of(key: KeyId, n_shards: u32) -> usize {
    if n_shards == 1 {
        return 0;
    }
    let h = (mix64(key.0) >> 32) as u32;
    ((u64::from(h) * u64::from(n_shards)) >> 32) as usize
}

/// The 32-bit id a slot holds for a key about to be stored: a wider key id
/// is refused, never truncated.
pub(crate) fn storable(key: KeyId) -> Result<u32, ElmemError> {
    let wide = |_| ElmemError::InvalidConfig(format!("{key} is wider than 32 bits"));
    u32::try_from(key.0).map_err(wide)
}

/// The hot half of one chunk: its LRU-clock stamp and its intrusive MRU
/// links within the owning (shard, class) list. 16 bytes, four to a cache
/// line, so a walk or a relink that needs no item never fetches one.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Link {
    /// LRU-clock stamp assigned when the slot was last linked; 0 exactly
    /// when the slot is free (the clock hands stamps out from 1).
    pub seq: u64,
    pub prev: u32,
    pub next: u32,
}

/// What a chunk holds: 16 bytes, four to a cache line.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Slot {
    pub key: u32,
    pub value_size: u32,
    pub last_access: SimTime,
}

// Four links or four slots to a cache line, and a 12-byte index entry.
const _: () = assert!(
    size_of::<Link>() == 16 && size_of::<Slot>() == 16 && size_of::<(u32, (u16, u32))>() == 12
);

impl Slot {
    fn new(id: u32, item: &ItemMeta) -> Slot {
        Slot {
            key: id,
            value_size: item.value_size,
            last_access: item.last_access,
        }
    }

    /// The exchange type of this slot's item.
    #[inline]
    pub fn meta(self) -> ItemMeta {
        ItemMeta::new(
            KeyId(u64::from(self.key)),
            self.value_size,
            self.last_access,
        )
    }
}

/// One class's slots within one shard, as two lanes indexed by the same
/// slot id: `links` for list surgery and ordered walks, `slots` for what a
/// slot holds (stale while the slot is free). Slots are *virtual chunks*:
/// the lanes grow lazily as the facade grants capacity, so the sum of slot
/// counts across shards never exceeds the class's page capacity — but
/// which physical page a given shard's chunk lives on is not modeled
/// (a documented non-goal, DESIGN.md §14).
#[derive(Debug, Default)]
pub(crate) struct ShardList {
    pub links: Vec<Link>,
    pub slots: Vec<Slot>,
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
            slots: with_capacity_of(&self.slots),
            free: with_capacity_of(&self.free),
            ..*self
        }
    }
}

impl ShardList {
    fn new() -> Self {
        let (head, tail) = (NIL, NIL);
        ShardList {
            head,
            tail,
            ..Self::default()
        }
    }

    /// Takes a linked slot out of the list; its own link is left stale for
    /// the caller to overwrite or zero.
    fn unlink(&mut self, idx: u32) {
        let Link { prev, next, .. } = self.links[idx as usize];
        match prev {
            NIL => self.head = next,
            _ => self.links[prev as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            _ => self.links[next as usize].prev = prev,
        }
    }

    /// Links a slot at the MRU head (`FRONT`) or tail with stamp `seq`.
    #[inline]
    fn push<const FRONT: bool>(&mut self, idx: u32, seq: u64) {
        let (prev, next) = if FRONT {
            (NIL, self.head)
        } else {
            (self.tail, NIL)
        };
        self.links[idx as usize] = Link { seq, prev, next };
        match next {
            NIL => self.tail = idx,
            _ => self.links[next as usize].prev = idx,
        }
        match prev {
            NIL => self.head = idx,
            _ => self.links[prev as usize].next = idx,
        }
    }

    /// Checks this list's lanes, free list, MRU links and counters.
    fn audit(&self, lru_clock: u64) -> Result<(), String> {
        let (links, slots) = (self.links.len(), self.slots.len());
        if links != slots {
            return Err(format!("{links} links but {slots} slots"));
        }
        // On the free list ⇒ stamp 0; the two counts below make it ⇔.
        let mut freed = vec![false; links];
        for &idx in &self.free {
            let problem = match self.links.get(idx as usize) {
                None => "out of range".into(),
                Some(l) if l.seq != 0 => format!("is occupied (stamp {})", l.seq),
                // Marks the slot freed, and tells whether it already was.
                _ if std::mem::replace(&mut freed[idx as usize], true) => "listed twice".into(),
                _ => continue,
            };
            return Err(format!("free slot {idx} {problem}"));
        }
        // Forward MRU walk: every linked slot occupied (stamp ≠ 0), prev
        // pointers mirror next pointers, stamps strictly descending, and
        // the walk covers exactly `len` items.
        let (mut walked, mut prev, mut prev_seq, mut at) = (0u64, NIL, u64::MAX, self.head);
        while at != NIL {
            let Some(&link) = self.links.get(at as usize) else {
                return Err(format!("MRU cursor {at} out of range"));
            };
            let (seq, back, next) = (link.seq, link.prev, link.next);
            walked += 1;
            let problem = if seq == 0 {
                format!("MRU-linked slot {at} is free (stamp 0)")
            } else if back != prev {
                format!("slot {at} prev {back} != expected {prev}")
            } else if seq >= prev_seq {
                format!("slot {at} stamp {seq} not below predecessor's {prev_seq}")
            } else if seq > lru_clock {
                format!("slot {at} stamp {seq} ahead of the LRU clock {lru_clock}")
            } else if walked > self.len {
                "MRU list longer than len (cycle?)".into()
            } else {
                (prev, prev_seq, at) = (at, seq, next);
                continue;
            };
            return Err(problem);
        }
        // A slot is occupied exactly when its stamp is live.
        let occupied = || self.links.iter().zip(&self.slots).filter(|s| s.0.seq != 0);
        let (len, n_occupied, free) = (self.len, occupied().count() as u64, self.free.len());
        let bytes: u64 = occupied().map(|(_, s)| item_footprint(s.value_size)).sum();
        Err(if walked != len {
            format!("MRU walk covered {walked} of {len} items")
        } else if self.tail != prev {
            format!("tail {} but MRU walk ended at {prev}", self.tail)
        } else if n_occupied != len {
            format!("len counter {len} but {n_occupied} occupied slots")
        } else if free + n_occupied as usize != links {
            format!("{free} free + {n_occupied} occupied != {links} slots")
        } else if bytes != self.bytes_used {
            format!(
                "bytes_used {} but item footprints sum to {bytes}",
                self.bytes_used
            )
        } else {
            return Ok(());
        })
    }
}

/// What [`Shard::update`] did: no such key, rewrote it in place, or
/// removed it from its old class.
pub(crate) enum Resident {
    Absent,
    Updated,
    Removed(u16),
}

/// One independent shard: per-class lists plus the key index for the keys
/// that route here.
#[derive(Debug, Clone)]
pub(crate) struct Shard {
    pub lists: Vec<ShardList>,
    /// key id → (class, slot) for this shard's resident keys. The
    /// deterministic integer hasher keeps placement identical across runs
    /// and platforms, and hashes a `u32` id as it hashes the same `u64`.
    pub index: FastIntMap<u32, (u16, u32)>,
}

impl Shard {
    pub fn new(n_classes: usize) -> Self {
        Shard {
            lists: (0..n_classes).map(|_| ShardList::new()).collect(),
            index: FastIntMap::default(),
        }
    }

    /// Where a resident key lives, as (class, slot).
    #[inline]
    pub fn locate(&self, key: KeyId) -> Option<(u16, u32)> {
        self.index.get(&u32::try_from(key.0).ok()?).copied()
    }

    /// The item in an occupied slot.
    #[inline]
    pub fn item(&self, class: u16, idx: u32) -> ItemMeta {
        self.lists[class as usize].slots[idx as usize].meta()
    }

    /// A `get` of `key` at `now`: a resident item moves to the MRU head
    /// with the stamp `stamp` draws and is accessed at `now`; returns its
    /// class and the item as it reads after the access.
    #[inline]
    pub fn access(
        &mut self,
        key: KeyId,
        now: SimTime,
        stamp: impl FnOnce() -> u64,
    ) -> Option<(u16, ItemMeta)> {
        let (class, idx) = self.locate(key)?;
        let list = &mut self.lists[class as usize];
        list.unlink(idx);
        list.push::<true>(idx, stamp());
        let slot = &mut list.slots[idx as usize];
        slot.last_access = now;
        Some((class, slot.meta()))
    }

    /// `set`'s handling of a key already resident: in `class` its slot is
    /// rewritten in place and moved to the MRU head with the stamp `stamp`
    /// draws; in another class it is removed, for the caller to insert.
    pub fn update(
        &mut self,
        class: u16,
        id: u32,
        item: &ItemMeta,
        stamp: impl FnOnce() -> u64,
    ) -> Resident {
        let Some(&(old, idx)) = self.index.get(&id) else {
            return Resident::Absent;
        };
        if old != class {
            self.vacate(old, idx, true);
            return Resident::Removed(old);
        }
        let list = &mut self.lists[class as usize];
        let slot = &mut list.slots[idx as usize];
        list.bytes_used = list.bytes_used - item_footprint(slot.value_size) + item.footprint();
        *slot = Slot::new(id, item);
        list.unlink(idx);
        list.push::<true>(idx, stamp());
        Resident::Updated
    }

    /// Stores `item`, whose key has slot id `id`, in a free slot of `class`
    /// or else a fresh virtual chunk, linked at the MRU head (`FRONT`) or
    /// tail with stamp `seq` and indexed unless `indexed` is false (inside
    /// a [`Fill`](crate::Fill)). Whether the class may take a chunk is the
    /// caller's decision, and at the tail `seq` is below the tail's stamp —
    /// how `batch_import` appends a merged list hottest first.
    pub fn insert<const FRONT: bool>(
        &mut self,
        class: u16,
        id: u32,
        item: &ItemMeta,
        seq: u64,
        indexed: bool,
    ) {
        let list = &mut self.lists[class as usize];
        list.len += 1;
        list.bytes_used += item.footprint();
        let slot = Slot::new(id, item);
        let idx = match list.free.pop() {
            Some(idx) => {
                list.slots[idx as usize] = slot;
                idx
            }
            None => {
                list.links.push(Link::default());
                list.slots.push(slot);
                (list.links.len() - 1) as u32
            }
        };
        list.push::<FRONT>(idx, seq);
        if indexed {
            self.index.insert(id, (class, idx));
        }
    }

    /// Indexes every occupied slot, into an index sized once for them — how
    /// a [`Fill`](crate::Fill) finishes.
    pub fn index_occupied(&mut self) {
        let survivors = self.lists.iter().map(|l| l.len as usize).sum();
        self.index.reserve(survivors);
        for (class, list) in self.lists.iter().enumerate() {
            let slots = list.links.iter().zip(&list.slots).enumerate();
            for (idx, (_, slot)) in slots.filter(|(_, (link, _))| link.seq != 0) {
                self.index.insert(slot.key, (class as u16, idx as u32));
            }
        }
        debug_assert_eq!(self.index.len(), survivors, "a key set twice in one fill");
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
        self.lists[class as usize].push::<false>(idx, seq);
    }

    /// Unlinks and frees an occupied slot, uncounts its item and, if
    /// `indexed`, forgets its index entry; returns the item.
    pub fn vacate(&mut self, class: u16, idx: u32, indexed: bool) -> ItemMeta {
        let item = self.item(class, idx);
        let list = &mut self.lists[class as usize];
        list.unlink(idx);
        list.links[idx as usize].seq = 0;
        list.free.push(idx);
        list.len -= 1;
        list.bytes_used -= item.footprint();
        if indexed {
            self.index.remove(&list.slots[idx as usize].key);
        }
        item
    }

    /// Checks every list of this shard, the `si`th of `n_shards`, then its
    /// index (slot agreement, key → shard routing). The index iterates in
    /// hash order, so the smallest offending key is the one reported.
    pub fn audit(&self, si: usize, n_shards: u32, lru_clock: u64) -> Result<(), String> {
        for (ci, list) in self.lists.iter().enumerate() {
            list.audit(lru_clock)
                .map_err(|e| format!("class {ci} shard {si}: {e}"))?;
        }
        let misindexed = self.index.iter().filter_map(|(&id, &(class, idx))| {
            let key = KeyId(u64::from(id));
            let routed = shard_of(key, n_shards);
            let list = self.lists.get(class as usize);
            let at =
                list.and_then(|l| Some((l.links.get(idx as usize)?, l.slots.get(idx as usize)?)));
            let problem = match at {
                _ if routed != si => format!("routes to shard {routed}, not {si}"),
                None => format!("maps to out-of-range slot {class}/{idx}"),
                Some((link, _)) if link.seq == 0 => format!("maps to free slot {class}/{idx}"),
                Some((_, slot)) if slot.key != id => format!("maps to slot holding k{}", slot.key),
                Some(_) => return None,
            };
            Some((id, format!("shard {si} index: {key} {problem}")))
        });
        match misindexed.min_by_key(|m| m.0) {
            Some((_, msg)) => Err(msg),
            None => Ok(()),
        }
    }

    /// The stamp of the coldest (tail) item of a class.
    pub fn tail_stamp(&self, class: u16) -> Option<u64> {
        let list = &self.lists[class as usize];
        (list.tail != NIL).then(|| list.links[list.tail as usize].seq)
    }

    /// Evicts the coldest item of a class, as [`vacate`](Self::vacate).
    pub fn evict_tail(&mut self, class: u16, indexed: bool) -> Option<ItemMeta> {
        let tail = self.lists[class as usize].tail;
        (tail != NIL).then(|| self.vacate(class, tail, indexed))
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
        sh.insert::<true>(0, 1, &a, 1, true);
        sh.insert::<true>(0, 2, &b, 2, true);
        assert_eq!(sh.lists[0].len, 2);
        assert_eq!(sh.lists[0].bytes_used, a.footprint() + b.footprint());
        assert_eq!(sh.tail_stamp(0), Some(1));
        let (class, idx) = sh.locate(KeyId(2)).unwrap();
        assert_eq!(sh.item(class, idx), b);
        let (class, idx) = sh.locate(KeyId(1)).unwrap();
        assert_eq!((class, sh.vacate(class, idx, true)), (0, a));
        assert_eq!(sh.lists[0].len, 1);
        assert_eq!(sh.lists[0].bytes_used, b.footprint());
        assert_eq!(sh.lists[0].free.len(), 1);
        assert!(sh.locate(KeyId(1)).is_none());
        assert_eq!(sh.evict_tail(0, true), Some(b));
        assert!(sh.index.is_empty());
        assert_eq!(sh.tail_stamp(0), None);
    }

    #[test]
    fn access_restamps_a_hit_and_misses_the_rest() {
        let mut sh = Shard::new(1);
        let at = SimTime::from_secs;
        sh.insert::<true>(0, 1, &ItemMeta::new(KeyId(1), 10, at(1)), 1, true);
        sh.insert::<true>(0, 2, &ItemMeta::new(KeyId(2), 10, at(2)), 2, true);
        // Key 1 is the tail; a hit relinks it to the head with stamp 3.
        let hit = sh.access(KeyId(1), at(5), || 3);
        assert_eq!(hit, Some((0, ItemMeta::new(KeyId(1), 10, at(5)))));
        assert_eq!(sh.tail_stamp(0), Some(2));
        let head = sh.lists[0].head;
        assert_eq!(sh.lists[0].links[head as usize].seq, 3);
        assert_eq!(sh.access(KeyId(3), at(6), || 4), None);
        let wide = KeyId(u64::from(u32::MAX) + 2);
        assert_eq!(sh.access(wide, at(7), || 5), None);
    }
}
