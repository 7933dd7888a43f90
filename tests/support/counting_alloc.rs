//! The system allocator, counting what passes through it: the bytes live
//! on the heap and the allocations made, a reallocation counting as one
//! and moving the live bytes by its new size less its old. A test binary
//! that pins heap bytes or allocations takes it in as a module,
//!
//! ```text
//! #[path = "../../../tests/support/counting_alloc.rs"]
//! mod counting_alloc;
//! ```
//!
//! and reads [`HEAP`], the binary's global allocator from then on.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::SeqCst};

/// The system allocator with its two counts.
pub struct Counting {
    /// Bytes live on the heap.
    pub live: AtomicUsize,
    /// Allocations and reallocations made.
    pub allocations: AtomicU64,
}

// SAFETY: every call forwards to `System` with the caller's own pointer
// and layout, so `System` upholds `GlobalAlloc`'s contract; the counters
// only add and subtract the sizes passed through.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.allocations.fetch_add(1, SeqCst);
        self.live.fetch_add(layout.size(), SeqCst);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        self.live.fetch_sub(layout.size(), SeqCst);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.allocations.fetch_add(1, SeqCst);
        // Wraps below zero when the block shrinks, as the atomic add does.
        self.live
            .fetch_add(new_size.wrapping_sub(layout.size()), SeqCst);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
pub static HEAP: Counting = Counting {
    live: AtomicUsize::new(0),
    allocations: AtomicU64::new(0),
};
