//! Metadata dumps: the "timestamp dump" modification ElMem adds to
//! Memcached (§V-A1), used in migration phase 1 (§III-D1).

use elmem_util::ByteSize;
use serde::{Deserialize, Serialize};

use crate::classes::ClassId;
use crate::item::{Hotness, ItemMeta, KEY_BYTES, TIMESTAMP_BYTES};

/// MRU-ordered metadata of one slab class.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassDump {
    /// Which class this dump describes.
    pub class: ClassId,
    /// Items in MRU (hottest-first) order.
    pub items: Vec<ItemMeta>,
}

impl ClassDump {
    /// Wraps an MRU-ordered item list, canonicalizing the order to strictly
    /// descending [hotness](crate::Hotness).
    ///
    /// The store's MRU list is ordered by *access recency*; items touched in
    /// the same instant may appear in either order there. Dumps are the
    /// interchange format between nodes, so they re-sort by full hotness
    /// (timestamp + tie-break). The list is already sorted in practice, so
    /// canonicalization checks that first (one O(n) comparison pass, no
    /// allocation, no writes) and only a disordered list pays a sort.
    ///
    /// Hotness is a total order and keys within a class are distinct, so
    /// the descending order is unique — callers can not observe which path
    /// ran.
    pub fn new(class: ClassId, mut items: Vec<ItemMeta>) -> Self {
        canonicalize(&mut items, ItemMeta::hotness);
        ClassDump { class, items }
    }

    /// Number of items in the dump.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the dump holds no items.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Bytes this dump occupies on the wire during the metadata-transfer
    /// phase: key (11 B) + timestamp (10 B) per item — values are *not*
    /// shipped in phase 1 (§III-D1).
    pub fn wire_bytes(&self) -> ByteSize {
        ByteSize((KEY_BYTES + TIMESTAMP_BYTES) * self.items.len() as u64)
    }
}

/// Sorts `items` into descending hotness.
///
/// One comparison pass and no writes when the list is already descending
/// (the common case: MRU lists are hotness-sorted under normal operation).
/// Otherwise a stable merge sort, which finds the pre-sorted runs of a
/// nearly-sorted list and merges them — O(n log n) at worst, whatever the
/// shape of the disorder.
pub(crate) fn canonicalize<T>(items: &mut [T], hotness: impl Fn(&T) -> Hotness) {
    if !items.is_sorted_by(|a, b| hotness(a) >= hotness(b)) {
        items.sort_by_key(|i| std::cmp::Reverse(hotness(i)));
    }
}

/// Metadata dump of a whole store (all non-empty classes).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct MetadataDump {
    /// Per-class dumps.
    pub classes: Vec<ClassDump>,
}

impl MetadataDump {
    /// Wraps a set of per-class dumps.
    pub fn new(classes: Vec<ClassDump>) -> Self {
        MetadataDump { classes }
    }

    /// Total items across all classes.
    pub fn total_items(&self) -> u64 {
        self.classes.iter().map(|c| c.items.len() as u64).sum()
    }

    /// Total wire bytes of the metadata transfer.
    pub fn wire_bytes(&self) -> ByteSize {
        self.classes.iter().map(|c| c.wire_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elmem_util::{KeyId, SimTime};

    fn item(k: u64, ts: u64) -> ItemMeta {
        ItemMeta {
            key: KeyId(k),
            value_size: 10,
            last_access: SimTime::from_secs(ts),
            expires: SimTime::MAX,
        }
    }

    #[test]
    fn wire_bytes_is_21_per_item() {
        let d = ClassDump::new(ClassId(0), vec![item(1, 1), item(2, 2)]);
        assert_eq!(d.wire_bytes().as_u64(), 42);
    }

    #[test]
    fn metadata_dump_totals() {
        let d = MetadataDump::new(vec![
            ClassDump::new(ClassId(0), vec![item(1, 1)]),
            ClassDump::new(ClassId(1), vec![item(2, 2), item(3, 3)]),
        ]);
        assert_eq!(d.total_items(), 3);
        assert_eq!(d.wire_bytes().as_u64(), 63);
    }

    /// Reference canonical order: the full sort every path must match.
    fn full_sort(mut items: Vec<ItemMeta>) -> Vec<ItemMeta> {
        items.sort_by_key(|i| std::cmp::Reverse(i.hotness()));
        items
    }

    #[test]
    fn sorted_input_is_untouched() {
        let items: Vec<ItemMeta> = (0..100).map(|k| item(k, 1000 - k)).collect();
        let d = ClassDump::new(ClassId(0), items.clone());
        assert_eq!(d.items, items, "descending input must pass through as-is");
    }

    #[test]
    fn few_local_inversions_fixed() {
        // Mostly descending with a handful of local swaps — the
        // same-instant multi-get pattern.
        let mut items: Vec<ItemMeta> = (0..200).map(|k| item(k, 2000 - k)).collect();
        items.swap(10, 11);
        items.swap(50, 51);
        items.swap(120, 121);
        let expect = full_sort(items.clone());
        assert_eq!(ClassDump::new(ClassId(0), items).items, expect);
    }

    #[test]
    fn long_distance_displacement_fixed() {
        // One very hot item buried at the tail: a single inversion whose
        // fixup must travel the whole list.
        let mut items: Vec<ItemMeta> = (0..100).map(|k| item(k, 1000 - k)).collect();
        items.push(item(999, 5000));
        let expect = full_sort(items.clone());
        let d = ClassDump::new(ClassId(0), items);
        assert_eq!(d.items, expect);
        assert_eq!(d.items[0].key.0, 999);
    }

    #[test]
    fn ascending_input_is_reversed() {
        // Ascending input: every adjacent pair is an inversion.
        let items: Vec<ItemMeta> = (0..500).map(|k| item(k, k + 1)).collect();
        let expect = full_sort(items.clone());
        assert_eq!(ClassDump::new(ClassId(0), items).items, expect);
    }

    /// `runs` descending runs over one key range, item `k` in run `k % runs`
    /// — what concatenating a class's per-shard dumps looks like.
    fn concatenated_runs(n: u64, runs: u64, ts: impl Fn(u64) -> u64) -> Vec<ItemMeta> {
        (0..runs)
            .flat_map(|r| (0..n).filter(move |k| k % runs == r))
            .map(|k| item(k, ts(k)))
            .collect()
    }

    #[test]
    fn concatenated_shard_runs_are_merged_not_sifted() {
        // 8 descending runs have only 7 adjacent inversions, yet ¾ of the
        // items are displaced by a quarter of the list: the shape that made
        // a bounded-inversion insertion fixup quadratic (minutes at this
        // size). Both a normal timestamp spread and the all-one-instant
        // prefill pattern.
        let n = 200_000;
        for ts in [|k: u64| 1_000_000 - k, |_: u64| 7] {
            let mut runs = concatenated_runs(n, 8, ts);
            // Same-instant items order by tie-break, not key: sort each
            // run so it is a genuine descending run.
            for run in runs.chunks_mut((n / 8) as usize) {
                run.sort_by_key(|i| std::cmp::Reverse(i.hotness()));
            }
            let expect = full_sort(runs.clone());
            assert_eq!(ClassDump::new(ClassId(0), runs).items, expect);
        }
    }

    #[test]
    fn same_instant_ties_break_canonically() {
        // All items share a timestamp: order is decided purely by the
        // hotness tie-break, whatever order the MRU list had.
        let fwd: Vec<ItemMeta> = (0..50).map(|k| item(k, 7)).collect();
        let rev: Vec<ItemMeta> = (0..50).rev().map(|k| item(k, 7)).collect();
        let a = ClassDump::new(ClassId(0), fwd.clone());
        let b = ClassDump::new(ClassId(0), rev);
        assert_eq!(a.items, b.items, "canonical order is input-order-free");
        assert_eq!(a.items, full_sort(fwd));
    }

    #[test]
    fn empty_dump() {
        let d = MetadataDump::default();
        assert_eq!(d.total_items(), 0);
        assert_eq!(d.wire_bytes(), ByteSize::ZERO);
        assert!(ClassDump::new(ClassId(0), vec![]).is_empty());
    }
}
