//! What a ring vnode costs in heap bytes: rings of 10 and 100 members at
//! the configs' 128 vnodes each, built under a counting allocator. A vnode
//! is its (point, node) pair and its share of the prefix-bucket index;
//! beside them the ring holds only its sorted member list. The pins move
//! only when one of those does.
//!
//! Alone in its binary on purpose: the allocator counts every allocation
//! the process makes, and a second test on another thread would add its own.

use std::sync::atomic::Ordering::SeqCst;

use elmem_hash::HashRing;
use elmem_util::NodeId;

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::HEAP;

#[test]
fn a_ring_vnode_costs_its_pinned_heap_bytes() {
    // (members, vnodes each, heap bytes the built ring holds): 28.83 and
    // 26.27 B a vnode. 16 B is the (point, node) pair; the rest is the
    // bucket index, a power of two of `u32` starts, 2–4 a point (3.2 and
    // 2.56 here).
    for (members, vnodes, pinned) in [(10u32, 128u32, 36_908usize), (100, 128, 336_276)] {
        let before = HEAP.live.load(SeqCst);
        let ring = HashRing::new((0..members).map(NodeId), vnodes);
        let bytes = HEAP.live.load(SeqCst) - before;
        let points = (members * vnodes) as usize;
        assert_eq!(ring.len(), members as usize);
        assert_eq!(
            bytes,
            pinned,
            "{members} members: {:.2} B a vnode",
            bytes as f64 / points as f64
        );
        drop(ring);
    }
}
