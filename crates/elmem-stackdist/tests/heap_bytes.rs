//! What a tracked key costs the exact profiler in heap bytes: 252 770
//! Zipf(0.8) accesses over 200 000 ids — the shape of `elastic_day`'s
//! profiler stream — recorded under a counting allocator. A key is its
//! share of the id array (four bytes for every id up to the largest seen,
//! tracked or not), of the position array (compaction keeps it near twice
//! the live keys) and of the block-sum tree. The pin moves only when one
//! of those does.
//!
//! Alone in its binary on purpose: the allocator counts every allocation
//! the process makes, and a second test on another thread would add its own.

use std::sync::atomic::Ordering::SeqCst;

use elmem_stackdist::ExactStackDistance;
use elmem_util::DetRng;
use elmem_workload::ZipfPopularity;

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::HEAP;

#[test]
fn a_tracked_key_costs_its_pinned_heap_bytes() {
    const ACCESSES: usize = 252_770;
    let zipf = ZipfPopularity::new(200_000, 0.8, 7);
    let mut rng = DetRng::seed(7);
    let before = HEAP.live.load(SeqCst);
    let mut engine = ExactStackDistance::new();
    for _ in 0..ACCESSES {
        engine.record(zipf.sample(&mut rng), 100);
    }
    let bytes = HEAP.live.load(SeqCst) - before;
    let keys = engine.unique_keys();
    assert_eq!(keys, 91_647);
    // 23.63 B a tracked key: 8.7 of it the id array (200 k ids for 92 k
    // keys), the rest positions and block sums. The hashed last-position
    // map this engine replaced held 55.7 B a key on the same stream.
    let per_key = bytes as f64 / keys as f64;
    assert_eq!(bytes, 2_165_984, "{per_key:.2} B a tracked key");
    drop(engine);
}
