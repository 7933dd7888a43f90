//! One slab class's slots and MRU list ([`ClassList`]) and how the key
//! index's handle splits ([`Handles`]). Only this module knows a slot's
//! layout: two lanes indexed by the same slot id, an 8-byte [`Link`] (prev,
//! next) for list surgery and walks and a 16-byte [`Slot`] (32-bit key id,
//! value size, last access) for the item. List order is the recency order,
//! head hottest; a slot is free exactly when its `prev` is [`FREE`]. A list
//! is deliberately *dumb*: chunk grants, pages and the key index live in the
//! [`SlabStore`](crate::SlabStore) driving it. See DESIGN.md §14.

use elmem_util::{ElmemError, KeyId, SimTime};

use crate::item::{item_footprint, ItemMeta};

/// Sentinel for "no slot" in the intrusive MRU lists.
pub(crate) const NIL: u32 = u32::MAX;

/// The `prev` of a free slot. No slot id reaches it: a handle leaves a
/// slot at most 31 bits (26 on the default ladder), and `SlabStore::new`
/// refuses a store with more chunks than those bits address.
pub(crate) const FREE: u32 = u32::MAX - 1;

/// The 32-bit id a slot holds for a key about to be stored: a wider key id
/// is refused, never truncated.
pub(crate) fn storable(key: KeyId) -> Result<u32, ElmemError> {
    let wide = |_| ElmemError::InvalidConfig(format!("{key} is wider than 32 bits"));
    u32::try_from(key.0).map_err(wide)
}

/// The hot half of one chunk: its intrusive MRU links. A walk or a relink
/// that needs no item never fetches one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Link {
    /// The hotter neighbour, [`NIL`] at the head, [`FREE`] off the list.
    pub prev: u32,
    pub next: u32,
}

/// How a key's index entry, one `u32` handle, splits: its class in the
/// high bits, as many as the ladder's top class id needs (at least one),
/// and its slot in the low `.0` bits, which `SlabStore::new` checks address
/// every chunk of the smallest class (DESIGN.md §14).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Handles(pub u32);

impl Handles {
    pub fn for_classes(n_classes: usize) -> Handles {
        Handles(31 - (n_classes.saturating_sub(1).max(1) as u32).ilog2())
    }

    pub fn encode(self, class: u16, slot: u32) -> u32 {
        debug_assert!(slot >> self.0 == 0, "slot {slot} past {} bits", self.0);
        u32::from(class) << self.0 | slot
    }

    pub fn decode(self, handle: u32) -> (u16, u32) {
        ((handle >> self.0) as u16, handle & ((1 << self.0) - 1))
    }
}

/// What a chunk holds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Slot {
    pub key: u32,
    pub value_size: u32,
    pub last_access: SimTime,
}

// Eight links or four slots to a cache line.
const _: () = assert!(size_of::<Link>() == 8 && size_of::<Slot>() == 16);

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

/// One class's slots, as two lanes indexed by the same slot id: `links` for
/// list surgery and ordered walks, `slots` for what a slot holds (stale
/// while the slot is free). Slots are *virtual chunks*: the lanes grow
/// lazily as the store grants capacity, and which physical page a chunk
/// lives on is not modeled (a documented non-goal, DESIGN.md §14).
#[derive(Debug)]
pub(crate) struct ClassList {
    pub links: Vec<Link>,
    pub slots: Vec<Slot>,
    pub free: Vec<u32>,
    pub head: u32,
    pub tail: u32,
    /// Occupied slots.
    pub len: u64,
    /// Footprint bytes of the occupied slots.
    pub bytes_used: u64,
}

impl Default for ClassList {
    fn default() -> Self {
        ClassList {
            links: Vec::new(),
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            len: 0,
            bytes_used: 0,
        }
    }
}

impl Clone for ClassList {
    /// Copies the lanes *with their capacity*: the derive trims each to its
    /// length, so the first insert into any cloned store reallocated and
    /// copied a whole arena. Capacity nothing has written is not resident.
    fn clone(&self) -> Self {
        fn with_capacity_of<T: Copy>(v: &Vec<T>) -> Vec<T> {
            let mut copy = Vec::with_capacity(v.capacity());
            copy.extend_from_slice(v);
            copy
        }
        ClassList {
            links: with_capacity_of(&self.links),
            slots: with_capacity_of(&self.slots),
            free: with_capacity_of(&self.free),
            ..*self
        }
    }
}

impl ClassList {
    /// Takes a linked slot out of the list; its own link is left stale for
    /// the caller to overwrite or free.
    fn unlink(&mut self, idx: u32) {
        let Link { prev, next } = self.links[idx as usize];
        match prev {
            NIL => self.head = next,
            _ => self.links[prev as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            _ => self.links[next as usize].prev = prev,
        }
    }

    /// Links a slot at the MRU head (`FRONT`) or tail.
    #[inline]
    pub fn push<const FRONT: bool>(&mut self, idx: u32) {
        let (prev, next) = if FRONT {
            (NIL, self.head)
        } else {
            (self.tail, NIL)
        };
        self.links[idx as usize] = Link { prev, next };
        match next {
            NIL => self.tail = idx,
            _ => self.links[next as usize].prev = idx,
        }
        match prev {
            NIL => self.head = idx,
            _ => self.links[prev as usize].next = idx,
        }
    }

    /// Moves a linked slot to the MRU head.
    #[inline]
    pub fn touch(&mut self, idx: u32) {
        self.unlink(idx);
        self.push::<true>(idx);
    }

    /// The item in an occupied slot.
    #[inline]
    pub fn item(&self, idx: u32) -> ItemMeta {
        self.slots[idx as usize].meta()
    }

    /// Rewrites an occupied slot with `item`, whose key has id `id`, and
    /// moves it to the MRU head.
    pub fn rewrite(&mut self, idx: u32, id: u32, item: &ItemMeta) {
        self.overwrite(idx, id, item);
        self.touch(idx);
    }

    /// [`rewrite`](Self::rewrite) without the relink.
    pub fn overwrite(&mut self, idx: u32, id: u32, item: &ItemMeta) {
        let slot = &mut self.slots[idx as usize];
        self.bytes_used = self.bytes_used - item_footprint(slot.value_size) + item.footprint();
        *slot = Slot::new(id, item);
    }

    /// A ring fill's insert: `item` in a fresh slot, the new head. A ring
    /// takes fresh slots only before its first eviction, so slot 0 is the
    /// tail; [`link_ring`](Self::link_ring) writes the links.
    pub fn append(&mut self, id: u32, item: &ItemMeta) {
        self.len += 1;
        self.bytes_used += item.footprint();
        (self.head, self.tail) = (self.slots.len() as u32, 0);
        self.slots.push(Slot::new(id, item));
    }

    /// A ring fill's evicting insert: `item` overwrites the tail, the
    /// oldest slot, which becomes the head; the next slot around the ring
    /// becomes the tail.
    pub fn overwrite_tail(&mut self, id: u32, item: &ItemMeta) {
        (self.head, self.tail) = (self.tail, self.tail + 1);
        if self.tail as usize == self.slots.len() {
            self.tail = 0;
        }
        self.overwrite(self.head, id, item);
    }

    /// Links a ring fill's class, its link lane empty until now: slot `i`'s
    /// newer neighbour is `i + 1` around the ring, cut between the head and
    /// the tail (DESIGN.md §14). The lane gets the item lane's capacity, as
    /// pushing both lanes in step leaves.
    pub fn link_ring(&mut self) {
        let Some(last) = (self.slots.len() as u32).checked_sub(1) else {
            return;
        };
        self.links.reserve_exact(self.slots.capacity());
        let around = (0..=last).map(|i| Link {
            prev: if i == last { 0 } else { i + 1 },
            next: i.checked_sub(1).unwrap_or(last),
        });
        self.links.extend(around);
        self.links[self.head as usize].prev = NIL;
        self.links[self.tail as usize].next = NIL;
    }

    /// Stores `item`, whose key has id `id`, in a free slot or else a fresh
    /// virtual chunk, linked at the MRU head (`FRONT`) or tail; returns the
    /// slot. Whether the class may take a chunk is the caller's decision.
    pub fn insert<const FRONT: bool>(&mut self, id: u32, item: &ItemMeta) -> u32 {
        self.len += 1;
        self.bytes_used += item.footprint();
        let slot = Slot::new(id, item);
        let idx = match self.free.pop() {
            Some(idx) => {
                self.slots[idx as usize] = slot;
                idx
            }
            None => {
                self.links.push(Link {
                    prev: FREE,
                    next: NIL,
                });
                self.slots.push(slot);
                (self.links.len() - 1) as u32
            }
        };
        self.push::<FRONT>(idx);
        idx
    }

    /// Unlinks and frees an occupied slot and uncounts its item; returns
    /// the item.
    pub fn vacate(&mut self, idx: u32) -> ItemMeta {
        let item = self.item(idx);
        self.unlink(idx);
        self.links[idx as usize].prev = FREE;
        self.free.push(idx);
        self.len -= 1;
        self.bytes_used -= item.footprint();
        item
    }

    /// The occupied slots, by id.
    pub fn occupied(&self) -> impl Iterator<Item = (u32, &Slot)> {
        let lanes = self.links.iter().zip(&self.slots).enumerate();
        lanes.filter_map(|(idx, (link, slot))| (link.prev != FREE).then_some((idx as u32, slot)))
    }

    /// Checks this list's lanes, free list, MRU links and counters.
    pub fn audit(&self) -> Result<(), String> {
        let (links, slots) = (self.links.len(), self.slots.len());
        if links != slots {
            return Err(format!("{links} links but {slots} slots"));
        }
        // On the free list ⇒ marked free; the two counts below make it ⇔.
        let mut freed = vec![false; links];
        for &idx in &self.free {
            let problem = match self.links.get(idx as usize) {
                None => "out of range".into(),
                Some(l) if l.prev != FREE => format!("is occupied (prev {})", l.prev),
                // Marks the slot freed, and tells whether it already was.
                _ if std::mem::replace(&mut freed[idx as usize], true) => "listed twice".into(),
                _ => continue,
            };
            return Err(format!("free slot {idx} {problem}"));
        }
        // Forward MRU walk: every linked slot occupied, prev pointers
        // mirror next pointers, and the walk covers exactly `len` items.
        let (mut walked, mut prev, mut at) = (0u64, NIL, self.head);
        while at != NIL {
            let Some(&Link { prev: back, next }) = self.links.get(at as usize) else {
                return Err(format!("MRU cursor {at} out of range"));
            };
            walked += 1;
            let problem = if back == FREE {
                format!("MRU-linked slot {at} is marked free")
            } else if back != prev {
                format!("slot {at} prev {back} != expected {prev}")
            } else if walked > self.len {
                "MRU list longer than len (cycle?)".into()
            } else {
                (prev, at) = (at, next);
                continue;
            };
            return Err(problem);
        }
        let (len, n_occupied, free) = (self.len, self.occupied().count() as u64, self.free.len());
        let bytes: u64 = self
            .occupied()
            .map(|(_, s)| item_footprint(s.value_size))
            .sum();
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_round_trip_at_the_split_edges() {
        // (classes in the ladder, slot bits the split leaves): the first
        // and last class, at the first and the last slot each split
        // addresses, come back as they went in — and no slot is FREE.
        let splits = [
            (1, 31),
            (2, 31),
            (3, 30),
            (4, 30),
            (5, 29),
            (43, 26),
            (64, 26),
            (65, 25),
            (1 << 16, 16),
        ];
        for (n_classes, slot_bits) in splits {
            let handles = Handles::for_classes(n_classes);
            assert_eq!(handles.0, slot_bits, "{n_classes} classes");
            let (last_class, last_slot) = ((n_classes - 1) as u16, (1u32 << slot_bits) - 1);
            assert!(last_slot < FREE, "{n_classes} classes");
            for (class, slot) in [
                (0, 0),
                (0, last_slot),
                (last_class, 0),
                (last_class, last_slot),
            ] {
                let handle = handles.encode(class, slot);
                let back = handles.decode(handle);
                assert_eq!(back, (class, slot), "{n_classes} classes, {handle:#010x}");
            }
        }
    }

    #[test]
    fn insert_remove_roundtrip_keeps_accounting() {
        let mut list = ClassList::default();
        let a = ItemMeta::new(KeyId(1), 100, SimTime::from_secs(1));
        let b = ItemMeta::new(KeyId(2), 50, SimTime::from_secs(2));
        let ia = list.insert::<true>(1, &a);
        let ib = list.insert::<true>(2, &b);
        assert_eq!(list.len, 2);
        assert_eq!(list.bytes_used, a.footprint() + b.footprint());
        assert_eq!((list.head, list.tail), (ib, ia));
        assert_eq!(list.item(ib), b);
        assert_eq!(list.vacate(ia), a);
        assert_eq!(list.len, 1);
        assert_eq!(list.bytes_used, b.footprint());
        assert_eq!(list.free, [ia]);
        assert_eq!(list.links[ia as usize].prev, FREE);
        list.audit().unwrap();
        assert_eq!(list.vacate(list.tail), b);
        assert_eq!((list.head, list.tail, list.len), (NIL, NIL, 0));
        list.audit().unwrap();
    }

    #[test]
    fn touch_and_rewrite_relink_at_the_head() {
        // A touch relinks the tail at the head; a rewrite restamps the item
        // in place and relinks it too.
        let mut list = ClassList::default();
        let at = SimTime::from_secs;
        let i1 = list.insert::<true>(1, &ItemMeta::new(KeyId(1), 10, at(1)));
        let i2 = list.insert::<true>(2, &ItemMeta::new(KeyId(2), 10, at(2)));
        list.touch(i1);
        assert_eq!((list.head, list.tail), (i1, i2));
        let fresh = ItemMeta::new(KeyId(2), 20, at(5));
        list.rewrite(i2, 2, &fresh);
        assert_eq!((list.head, list.tail), (i2, i1));
        assert_eq!(list.item(i2), fresh);
        list.audit().unwrap();
        let occupied: Vec<u32> = list.occupied().map(|(idx, _)| idx).collect();
        assert_eq!(occupied, [i1, i2]);
    }
}
