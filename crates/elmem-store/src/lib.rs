//! Memcached-like slab-allocated in-memory KV store (the paper's caching
//! substrate, §II-A), including the two modifications ElMem makes to
//! Memcached (§V-A1): a per-slab *timestamp dump* and a *batch import*.
//!
//! Faithfully modeled structure:
//!
//! * memory is divided into **1 MB pages**;
//! * pages are grouped into **slab classes**, each storing items of a given
//!   size range in fixed-size *chunks* (to minimize fragmentation);
//! * within a class, items sit on a doubly-linked list in **MRU order**;
//! * on `get`/`set` the item moves to the MRU head and its access timestamp
//!   is refreshed;
//! * when a class is full and no free pages remain, the **LRU tail of that
//!   class** is evicted in O(1).
//!
//! Because this is a simulation substrate, the store tracks item *metadata*
//! (key, value size, access timestamp) rather than value bytes; memory
//! accounting is still byte-accurate (chunk sizes, page assignment, item
//! overhead).
//!
//! Of Memcached's commands it models only those the paper's path issues:
//! `get`, `set` and `delete` from the web tier (§II-A), plus the two patches
//! the migration drives (§III-D). Items never lapse on their own; a command
//! or a lifetime comes back only with a caller that needs it (DESIGN.md §2).
//!
//! # Example
//!
//! ```
//! use elmem_store::{SlabStore, StoreConfig};
//! use elmem_util::{ByteSize, KeyId, SimTime};
//!
//! let mut store = SlabStore::new(StoreConfig::with_memory(ByteSize::from_mib(4)));
//! store.set(KeyId(1), 100, SimTime::from_secs(1)).unwrap();
//! assert!(store.get(KeyId(1), SimTime::from_secs(2)).is_some());
//! assert!(store.get(KeyId(2), SimTime::from_secs(2)).is_none());
//! ```

pub mod classes;
pub mod concurrent;
pub mod dump;
pub mod item;
mod list;
pub mod store;

pub use classes::{ClassId, SizeClasses};
pub use concurrent::ConcurrentSlabStore;
pub use dump::{ClassDump, MetadataDump};
pub use item::{Hotness, ItemMeta, ITEM_OVERHEAD_BYTES, KEY_BYTES, TIMESTAMP_BYTES};
pub use store::{default_shard_count, Fill, ImportMode, SlabStore, StoreConfig, StoreStats};
