//! Differential test for [`SlabStore::batch_import`].
//!
//! The reference is the implementation `batch_import` replaced: tear the
//! whole destination class down (`remove_entry` per resident) and rebuild
//! it (an `insert` at the tail per member of the merged population). It is slow —
//! two index operations, a slot free and a slot allocation for every
//! resident, however few items arrive — but obviously right, so it stays
//! here as the executable specification of what an import must leave
//! behind: the same dump, counters and pages, and the class list in
//! exactly the merged order the rebuild inserts, both pointer directions.

use elmem_util::{ByteSize, ElmemError, KeyId, SimTime};
use proptest::prelude::*;

use super::{ImportMode, SlabStore, StoreConfig};
use crate::classes::{ClassId, SizeClasses};
use crate::item::ItemMeta;
use crate::list::{storable, NIL};

impl SlabStore {
    /// The tear-down-and-rebuild `batch_import`: the kept count, and the
    /// keys it landed in list order, hottest first.
    fn batch_import_rebuild(
        &mut self,
        class: ClassId,
        incoming: &[ItemMeta],
        mode: ImportMode,
    ) -> Result<(u64, Vec<KeyId>), ElmemError> {
        for item in incoming {
            if self.classes.class_for(item.footprint()) != Some(class) {
                return Err(ElmemError::InvalidConfig(format!(
                    "item {} (footprint {}) does not belong to {class}",
                    item.key,
                    item.footprint()
                )));
            }
        }

        // Resolve key collisions: drop incoming copies that are colder than
        // a resident copy; remove resident copies that are colder.
        let mut accepted: Vec<ItemMeta> = Vec::with_capacity(incoming.len());
        for item in incoming {
            match self.peek(item.key) {
                Some(resident) if resident.hotness() >= item.hotness() => continue,
                Some(_) => {
                    self.remove_entry(item.key);
                    accepted.push(*item);
                }
                None => accepted.push(*item),
            }
        }

        // Canonicalize to strict hotness order (the MRU list may order
        // same-instant accesses either way; see `ClassDump::new`).
        let mut resident: Vec<ItemMeta> = self.iter_class_mru(class).collect();
        resident.sort_by_key(|i| std::cmp::Reverse(i.hotness()));
        // Snapshot the accepted keys (sorted, for binary search) before the
        // merge consumes `accepted`; both import modes then build `merged`
        // by *moving* the accepted items — no clones of the batch.
        let mut incoming_keys: Vec<KeyId> = accepted.iter().map(|i| i.key).collect();
        incoming_keys.sort_unstable();
        let merged: Vec<ItemMeta> = match mode {
            ImportMode::Merge => {
                // Both inputs are hottest-first; standard 2-way merge.
                accepted.sort_by_key(|i| std::cmp::Reverse(i.hotness()));
                let mut all = Vec::with_capacity(resident.len() + accepted.len());
                let (mut i, mut j) = (0usize, 0usize);
                while i < resident.len() && j < accepted.len() {
                    if resident[i].hotness() >= accepted[j].hotness() {
                        all.push(resident[i]);
                        i += 1;
                    } else {
                        all.push(accepted[j]);
                        j += 1;
                    }
                }
                all.extend_from_slice(&resident[i..]);
                all.extend_from_slice(&accepted[j..]);
                all
            }
            ImportMode::Prepend => {
                let mut all = accepted;
                all.extend_from_slice(&resident);
                all
            }
        };

        // Rebuild the class list: clear it, then grow capacity and insert
        // at the tail in order (hottest first), evicting the overflow (the
        // tail of `merged`).
        for item in &resident {
            self.remove_entry(item.key);
        }
        let mut kept_incoming = 0u64;
        let mut landed = Vec::new();
        for item in &merged {
            if !self.secure_chunk(class) {
                break; // class cannot grow further; rest is overflow
            }
            let id = storable(item.key)?;
            let slot = self.lists[class.0 as usize].insert::<false>(id, item);
            self.index.insert(id, self.handles.encode(class.0, slot));
            landed.push(item.key);
            if incoming_keys.binary_search(&item.key).is_ok() {
                kept_incoming += 1;
                self.stats.imported += 1;
            }
        }
        // Count the dropped overflow as evictions.
        self.stats.evictions += (merged.len() - landed.len()) as u64;
        Ok((kept_incoming, landed))
    }
}

/// 16/32/64 KiB chunks — 64/32/16 to a page — under 4 pages: a few hundred
/// items overflow a class, and whether a free page is left for it depends
/// on what the other two classes hold.
pub(super) fn store() -> SlabStore {
    SlabStore::new(StoreConfig {
        classes: SizeClasses::new(16_384, 2.0, 65_536),
        ..StoreConfig::with_memory(ByteSize::from_mib(4))
    })
}

/// The class every batch targets, and a value size that lands in it.
const CLASS: ClassId = ClassId(0);
const SMALL: u32 = 100;

/// One incoming batch: `(key, last-access ms)` pairs and the import mode.
type Batch = (Vec<(u64, u64)>, bool);

/// Resident keys are 0..120 and incoming keys 0..200, so batches collide
/// with residents (of any class) and bring fresh keys; timestamps share a
/// range of a few milliseconds, so colliding copies are hotter, colder and
/// same-instant, and whole runs of the list tie on the timestamp.
pub(super) fn batch_items(pairs: &[(u64, u64)]) -> Vec<ItemMeta> {
    let mut seen = std::collections::BTreeSet::new();
    pairs
        .iter()
        .filter(|(key, _)| seen.insert(*key))
        .map(|&(key, ms)| ItemMeta::new(KeyId(key), SMALL, SimTime::from_millis(ms)))
        .collect()
}

/// A class list's keys by a raw pointer walk: from the head along `next`
/// and, reversed, from the tail along `prev` — the two must agree.
fn list_keys(s: &SlabStore, class: ClassId) -> Vec<KeyId> {
    let list = &s.lists[class.0 as usize];
    let walk = |mut at: u32, hot: bool| {
        let mut keys = Vec::new();
        while at != NIL {
            keys.push(KeyId(u64::from(list.slots[at as usize].key)));
            let link = list.links[at as usize];
            at = if hot { link.next } else { link.prev };
        }
        keys
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

/// Everything an import can change, the unobservable included: the
/// canonical dump, counters, page and byte accounting, and every list's
/// true order.
fn observe(s: &SlabStore) -> String {
    let per_class: Vec<_> = s
        .classes
        .ids()
        .map(|c| {
            (
                s.len_of_class(c),
                s.class_meta[c.0 as usize].pages,
                list_keys(s, c),
            )
        })
        .collect();
    format!(
        "{:?}|{:?}|{:?}|{}|{}",
        s.dump_metadata(),
        s.stats(),
        per_class,
        s.pages_used(),
        s.bytes_used(),
    )
}

proptest! {
    /// `batch_import` leaves exactly what the rebuild leaves — on an empty
    /// destination and a crowded one, with free pages and without, in both
    /// modes, batch after batch — the class list reads the merge the
    /// rebuild landed, and a burst of `set`s afterwards evicts the same
    /// victims in the same order.
    #[test]
    fn in_place_import_matches_rebuild(
        residents in prop::collection::vec((0u64..120, 0u32..6, 0u64..12), 0..300),
        batches in prop::collection::vec(
            (prop::collection::vec((0u64..200, 0u64..16), 0..260), any::<bool>()),
            1..4,
        ),
    ) {
        let batches: Vec<Batch> = batches;
        let mut new = store();
        for &(key, sel, ms) in &residents {
            // Four in six land in the batches' class; `now` is not
            // monotone, so MRU order and hotness order disagree.
            let size = [SMALL, SMALL, SMALL, SMALL, 20_000, 40_000][sel as usize];
            let _ = new.set(KeyId(key), size, SimTime::from_millis(ms));
        }
        let mut old = new.clone();
        for (pairs, prepend) in &batches {
            let items = batch_items(pairs);
            let mode = if *prepend { ImportMode::Prepend } else { ImportMode::Merge };
            let got = new.batch_import(CLASS, &items, mode);
            let want = old.batch_import_rebuild(CLASS, &items, mode);
            prop_assert_eq!(got, want.map(|(kept, landed)| {
                assert_eq!(list_keys(&new, CLASS), landed, "the relinked list");
                kept
            }));
            new.audit().unwrap();
            prop_assert_eq!(&observe(&new), &observe(&old), "after import");
        }
        for k in 0..40u64 {
            let now = SimTime::from_secs(1 + k);
            prop_assert_eq!(
                new.set(KeyId(1_000 + k), SMALL, now),
                old.set(KeyId(1_000 + k), SMALL, now)
            );
        }
        new.audit().unwrap();
        prop_assert_eq!(&observe(&new), &observe(&old), "after the burst");
    }
}
