//! What a resident item costs in heap bytes: a 20 000-item store, filled by
//! plain `set`s under a counting allocator. An item is its 8-byte link and
//! 16-byte slot lane entries, its share of the key index's 8-byte entries and control bytes,
//! and the lanes' and index's spare capacity; nothing else in the store
//! grows with it. The pin moves only when one of those does.
//!
//! Alone in its binary on purpose: the allocator counts every allocation
//! the process makes, and a second test on another thread would add its own.

use std::sync::atomic::Ordering::SeqCst;

use elmem_store::{SlabStore, StoreConfig};
use elmem_util::{ByteSize, KeyId, SimTime};

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::HEAP;

#[test]
fn a_resident_item_costs_its_pinned_heap_bytes() {
    const ITEMS: u64 = 20_000;
    let before = HEAP.live.load(SeqCst);
    let mut store = SlabStore::new(StoreConfig::with_memory(ByteSize::from_mib(64)));
    for k in 0..ITEMS {
        let value_size = 100 + (k * 7_919 % 2_000) as u32;
        store
            .set(KeyId(k), value_size, SimTime::from_nanos(k + 1))
            .unwrap();
    }
    let bytes = HEAP.live.load(SeqCst) - before;
    assert_eq!((store.len(), store.stats().evictions), (ITEMS, 0));
    // 47.06 B an item. With the 8-byte counter each of the 43 classes
    // kept for the deleted page mover, 941 640 bytes, 47.08 B. The
    // 16-byte links with an LRU stamp the 8-byte links replaced held
    // 1 155 040 bytes here, 57.75 B an item; the
    // 12-byte (key, class, slot) index entries before them 1 286 104,
    // 64.31 B; the 32-byte item slot and 16-byte entries before those
    // 1 843 160, 92.16 B.
    assert_eq!(
        bytes,
        941_296,
        "{:.2} B an item",
        bytes as f64 / ITEMS as f64
    );
    drop(store);
}
