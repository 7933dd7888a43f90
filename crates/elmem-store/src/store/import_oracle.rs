//! Differential test for [`SlabStore::batch_import`].
//!
//! The reference is the implementation `batch_import` replaced: tear the
//! whole destination class down (`remove_entry` per resident) and rebuild
//! it (an `insert` at the tail per member of the merged population). It is slow —
//! two index operations, a slot free and a slot allocation for every
//! resident, however few items arrive — but obviously right, so it stays
//! here, unchanged, as the executable specification of what an import
//! must leave behind: same dump, counters, pages, stamps and list order
//! at every shard count.

use elmem_util::{ByteSize, ElmemError, KeyId, SimTime};
use proptest::prelude::*;

use super::{ImportMode, SlabStore, StoreConfig};
use crate::classes::{ClassId, SizeClasses};
use crate::item::ItemMeta;
use crate::shard::shard_of;

impl SlabStore {
    /// The tear-down-and-rebuild `batch_import`, verbatim.
    fn batch_import_rebuild(
        &mut self,
        class: ClassId,
        incoming: &[ItemMeta],
        mode: ImportMode,
    ) -> Result<u64, ElmemError> {
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
        // in order (hottest first, descending stamps from a block reserved
        // off the LRU clock), evicting the overflow (the tail of `merged`).
        for item in &resident {
            self.remove_entry(item.key);
        }
        let n = merged.len() as u64;
        let base = self.lru_clock;
        self.lru_clock += n;
        let mut kept_incoming = 0u64;
        let mut inserted = 0u64;
        for (i, item) in merged.iter().enumerate() {
            if !self.secure_chunk(class) {
                break; // class cannot grow further; rest is overflow
            }
            let seq = base + (n - i as u64);
            let meta = &mut self.class_meta[class.0 as usize];
            meta.len += 1;
            meta.version += 1;
            let si = shard_of(item.key, self.n_shards);
            let id = crate::shard::storable(item.key)?;
            self.shards[si].insert::<false>(class.0, id, item, seq, true);
            inserted += 1;
            if incoming_keys.binary_search(&item.key).is_ok() {
                kept_incoming += 1;
                self.stats.imported += 1;
            }
        }
        // Count the dropped overflow as evictions.
        self.stats.evictions += merged.len() as u64 - inserted;
        Ok(kept_incoming)
    }
}

/// 16/32/64 KiB chunks — 64/32/16 to a page — under 4 pages: a few hundred
/// items overflow a class, and whether a free page is left for it depends
/// on what the other two classes hold.
pub(super) fn store(shards: usize) -> SlabStore {
    SlabStore::new(StoreConfig {
        memory: ByteSize::from_mib(4),
        classes: SizeClasses::new(16_384, 2.0, 65_536),
        shards,
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
/// same-instant, and whole runs of the list tie on the timestamp. Every
/// third key carries a finite expiry a few milliseconds on.
pub(super) fn batch_items(pairs: &[(u64, u64)]) -> Vec<ItemMeta> {
    let mut seen = std::collections::BTreeSet::new();
    pairs
        .iter()
        .filter(|(key, _)| seen.insert(*key))
        .map(|&(key, ms)| {
            let at = SimTime::from_millis(ms);
            match key % 3 {
                0 => ItemMeta::with_ttl(KeyId(key), SMALL, at, SimTime::from_millis(4)),
                _ => ItemMeta::new(KeyId(key), SMALL, at),
            }
        })
        .collect()
}

/// Everything an import can change, the unobservable included: the
/// canonical dump, counters, page and byte accounting, the LRU clock, and
/// every list's true order with its stamps.
fn observe(s: &SlabStore) -> String {
    let per_class: Vec<_> = s
        .classes
        .ids()
        .map(|c| {
            let order: Vec<KeyId> = s.iter_class_mru(c).map(|i| i.key).collect();
            let stamps: Vec<Vec<u64>> = s
                .shards
                .iter()
                .map(|sh| {
                    let list = &sh.lists[c.0 as usize];
                    let mut stamps = Vec::new();
                    let mut cursor = list.head;
                    while cursor != crate::shard::NIL {
                        stamps.push(list.links[cursor as usize].seq);
                        cursor = list.links[cursor as usize].next;
                    }
                    stamps
                })
                .collect();
            (
                s.len_of_class(c),
                s.pages_of_class(c),
                s.eviction_pressure(c),
                order,
                stamps,
            )
        })
        .collect();
    format!(
        "{:?}|{:?}|{:?}|{}|{}|{}",
        s.dump_metadata(),
        s.stats(),
        per_class,
        s.pages_used(),
        s.bytes_used(),
        s.lru_clock,
    )
}

proptest! {
    /// `batch_import` leaves exactly what the rebuild leaves — on an empty
    /// destination and a crowded one, with free pages and without, in both
    /// modes, batch after batch, at every shard count — and a burst of
    /// `set`s afterwards evicts the same victims in the same order.
    #[test]
    fn in_place_import_matches_rebuild(
        residents in prop::collection::vec((0u64..120, 0u32..6, 0u64..12), 0..300),
        batches in prop::collection::vec(
            (prop::collection::vec((0u64..200, 0u64..16), 0..260), any::<bool>()),
            1..4,
        ),
    ) {
        let batches: Vec<Batch> = batches;
        for shards in [1usize, 2, 4, 8] {
            let mut new = store(shards);
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
                prop_assert_eq!(got, want, "kept count at {} shards", shards);
                new.audit().unwrap();
                prop_assert_eq!(&observe(&new), &observe(&old), "after import at {} shards", shards);
            }
            for k in 0..40u64 {
                let now = SimTime::from_secs(1 + k);
                prop_assert_eq!(
                    new.set(KeyId(1_000 + k), SMALL, now),
                    old.set(KeyId(1_000 + k), SMALL, now)
                );
            }
            new.audit().unwrap();
            prop_assert_eq!(&observe(&new), &observe(&old), "after the burst at {} shards", shards);
        }
    }
}
