//! The slab store: pages, chunks, MRU lists, LRU eviction, and the
//! commands the paper's path issues — `get`, `set`, `delete`, the bulk
//! [`Fill`], the timestamp dump and `batch_import` — and no others. Its
//! body is N [`Shard`]s, one unless a config says otherwise, and it is
//! byte-identical at any N; every ordered walk is one kernel,
//! [`ClassMruIter`]. See DESIGN.md §14.

use std::sync::atomic::{AtomicU64, Ordering::SeqCst};

use elmem_util::{ByteSize, ElmemError, KeyId, SimTime};

use crate::classes::{ClassId, SizeClasses};
use crate::dump::{canonicalize, ClassDump, MetadataDump};
use crate::item::{Hotness, ItemMeta};
use crate::shard::{shard_of, storable, Handles, Link, Resident, Shard, ShardList, Slot};

/// Environment variable overriding the default shard count
/// ([`default_shard_count`]); CI reruns the suite at 4 and 8 (DESIGN.md §14).
pub const ELMEM_SHARDS_ENV: &str = "ELMEM_SHARDS";

/// Upper bound on the shard count (configs clamp to it).
pub const MAX_SHARDS: usize = 64;

/// One MRU list per slab class. Measured, not assumed (EXPERIMENTS.md E25):
/// with no product caller on the concurrent facade, four shards bought a
/// 4-way merge under every ordered walk, four tails per eviction and
/// sixteen small arenas per node, and nothing else.
const DEFAULT_SHARDS: usize = 1;

/// The shard count configs use unless told otherwise: the
/// [`ELMEM_SHARDS_ENV`] variable if set (clamped to `1..=`[`MAX_SHARDS`]),
/// else 1. Every observable output is shard-count-invariant, so the knob
/// trades nothing but memory layout and concurrent-facade parallelism.
pub fn default_shard_count() -> usize {
    std::env::var(ELMEM_SHARDS_ENV)
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .map(|n| n.clamp(1, MAX_SHARDS))
        .unwrap_or(DEFAULT_SHARDS)
}

/// Configuration for a [`SlabStore`].
///
/// # Example
///
/// ```
/// use elmem_store::StoreConfig;
/// use elmem_util::ByteSize;
///
/// let cfg = StoreConfig::with_memory(ByteSize::from_gib(4));
/// assert_eq!(cfg.memory, ByteSize::from_gib(4));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StoreConfig {
    /// Total memory dedicated to item storage.
    pub memory: ByteSize,
    /// The slab size-class ladder.
    pub classes: SizeClasses,
    /// Number of independent shards (clamped to `1..=`[`MAX_SHARDS`]).
    /// Purely a layout/concurrency knob: all observable output is
    /// byte-identical at any value.
    pub shards: usize,
}

impl StoreConfig {
    /// Config with the given memory, Memcached's default class ladder, and
    /// the [`default_shard_count`].
    pub fn with_memory(memory: ByteSize) -> Self {
        StoreConfig {
            memory,
            classes: SizeClasses::memcached_default(),
            shards: default_shard_count(),
        }
    }
}

/// How [`SlabStore::batch_import`] merges migrated items into the local
/// MRU list (§III-D3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ImportMode {
    /// Merge by hotness so the class list stays globally MRU-sorted.
    /// This is the mode ElMem uses: it preserves the sortedness invariant
    /// that later FuseCache invocations rely on.
    Merge,
    /// Prepend the (hotter) migrated items at the MRU head in the given
    /// order, as the paper's prose describes; colder residents shift toward
    /// the tail. Slightly cheaper but can leave the list locally unsorted.
    Prepend,
}

/// Cumulative operation counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// `get` calls that found the key.
    pub hits: u64,
    /// `get` calls that missed.
    pub misses: u64,
    /// Successful `set` calls (inserts and updates).
    pub sets: u64,
    /// Items evicted by the LRU policy.
    pub evictions: u64,
    /// Items removed by explicit `delete`.
    pub deletes: u64,
    /// Items accepted by `batch_import`.
    pub imported: u64,
}

impl StoreStats {
    /// Total `get` calls (hits + misses).
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of `get` calls that hit (0.0 when no lookups yet).
    pub fn hit_rate(&self) -> f64 {
        self.hits as f64 / self.lookups().max(1) as f64
    }

    /// Adds another node's counters into this one, for tier-wide roll-ups
    /// in telemetry dumps. Element-wise, so it is associative and
    /// commutative like the histogram merge.
    pub fn merge(&mut self, other: &StoreStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.sets += other.sets;
        self.evictions += other.evictions;
        self.deletes += other.deletes;
        self.imported += other.imported;
    }
}

/// Memoized result of [`SlabStore::median_hotness`], invalidated by the
/// class's MRU-list version counter.
///
/// The Master's §III-C scoring crawls every class's median once per
/// decision round; between rounds most classes have not changed, so the
/// O(n/2) walk is paid once per *mutation epoch* instead of once per
/// probe. Unlike the PR 5 version this holds no `Mutex`: it is a seqlock
/// of plain atomics, so probing it on the serial path takes no lock at
/// all, and the store stays `Sync` for the parallel planner. A writer that
/// loses the (never-in-practice) CAS race simply skips the memo — the
/// cache is an optimization, never an authority.
#[derive(Debug, Default)]
pub(crate) struct MedianCache {
    /// Seqlock word: odd = write in progress, readers retry-as-miss.
    seq: AtomicU64,
    /// The class version the payload was computed at.
    version: AtomicU64,
    ts: AtomicU64,
    tiebreak: AtomicU64,
    /// 0 = never written, 1 = cached `None`, 2 = cached `Some(ts, tiebreak)`.
    state: AtomicU64,
}

const MEDIAN_EMPTY: u64 = 0;
const MEDIAN_NONE: u64 = 1;
const MEDIAN_SOME: u64 = 2;

impl MedianCache {
    fn get(&self, version: u64) -> Option<Option<Hotness>> {
        let s1 = self.seq.load(SeqCst);
        if s1 & 1 != 0 {
            return None;
        }
        let v = self.version.load(SeqCst);
        let ts = self.ts.load(SeqCst);
        let tiebreak = self.tiebreak.load(SeqCst);
        let state = self.state.load(SeqCst);
        if self.seq.load(SeqCst) != s1 || state == MEDIAN_EMPTY || v != version {
            return None;
        }
        Some((state == MEDIAN_SOME).then_some(Hotness { ts, tiebreak }))
    }

    fn put(&self, version: u64, median: Option<Hotness>) {
        let s = self.seq.load(SeqCst);
        if s & 1 != 0 {
            return; // another writer is mid-flight; skip the memo
        }
        if self.seq.compare_exchange(s, s + 1, SeqCst, SeqCst).is_err() {
            return;
        }
        self.version.store(version, SeqCst);
        if let Some(h) = median {
            self.ts.store(h.ts, SeqCst);
            self.tiebreak.store(h.tiebreak, SeqCst);
            self.state.store(MEDIAN_SOME, SeqCst);
        } else {
            self.state.store(MEDIAN_NONE, SeqCst);
        }
        self.seq.store(s + 2, SeqCst);
    }
}

impl Clone for MedianCache {
    /// Snapshots the payload (an independent copy: mutating either store
    /// afterwards never disturbs the other's memo). A torn read degrades
    /// to a fresh empty cache.
    fn clone(&self) -> Self {
        let (fresh, version) = (MedianCache::default(), self.version.load(SeqCst));
        if let Some(median) = self.get(version) {
            fresh.put(version, median);
        }
        fresh
    }
}

/// Where one member of a [`SlabStore::batch_import`] merge comes from.
#[derive(Debug, Clone, Copy)]
enum Origin {
    /// An item already resident in the class, by position.
    Resident { shard: u32, slot: u32 },
    /// An accepted incoming item, by index into the accepted batch.
    Incoming(usize),
}

/// Facade-level accounting for one size class, spanning all shards.
///
/// Capacity is *virtual*: the facade grants pages to a class as a budget
/// (`capacity = pages × chunks_per_page`) and shard slot arenas grow
/// lazily against it — which physical page a chunk lives on is not
/// modeled (DESIGN.md §14, non-goals).
#[derive(Debug, Clone)]
pub(crate) struct ClassMeta {
    pub chunks_per_page: u64,
    /// Pages granted to this class.
    pub pages: u64,
    /// Resident items across all shards of this class.
    pub len: u64,
    /// Evictions + allocation failures since the pressure counter was last
    /// read (drives the slab rebalancer's recipient choice).
    pub pressure: u64,
    /// Bumped on every MRU-list mutation in any shard of this class; a
    /// stale version is proof the class — and its median — is unchanged.
    pub version: u64,
    /// Version-stamped memo of the class's median hotness.
    pub median: MedianCache,
}

impl ClassMeta {
    fn new(chunks_per_page: u64) -> Self {
        ClassMeta {
            chunks_per_page,
            pages: 0,
            len: 0,
            pressure: 0,
            version: 0,
            median: MedianCache::default(),
        }
    }

    /// Chunks this class may hold under its current page grant.
    pub fn capacity(&self) -> u64 {
        self.pages * self.chunks_per_page
    }
}

/// A single Memcached node's storage engine.
///
/// See the [crate-level documentation](crate) for the model. All operations
/// take the current simulated time explicitly; the store has no internal
/// clock. This is the deterministic *serial* facade over the shards; for
/// real-thread serving see [`ConcurrentSlabStore`](crate::ConcurrentSlabStore).
#[derive(Debug, Clone)]
pub struct SlabStore {
    pub(crate) classes: SizeClasses,
    pub(crate) n_shards: u32,
    pub(crate) shards: Vec<Shard>,
    pub(crate) class_meta: Vec<ClassMeta>,
    pub(crate) pages_total: u64,
    pub(crate) pages_used: u64,
    /// Global monotone LRU clock; every MRU link is stamped from it.
    pub(crate) lru_clock: u64,
    pub(crate) stats: StoreStats,
}

impl SlabStore {
    /// Creates an empty store.
    ///
    /// # Panics
    ///
    /// Panics if the configured memory is smaller than one page, or if its
    /// smallest chunk class could hold more chunks than the slot bits of
    /// a key's index handle address (DESIGN.md §14).
    pub fn new(config: StoreConfig) -> Self {
        let pages_total = config.memory.as_u64() / ByteSize::PAGE.as_u64();
        assert!(pages_total > 0, "store memory below one 1MB page");
        let n_shards = config.shards.clamp(1, MAX_SHARDS) as u32;
        let n_classes = config.classes.len();
        let slots = 1 << Handles::for_classes(n_classes).0;
        let chunks = pages_total.saturating_mul(config.classes.chunks_per_page(ClassId(0)));
        assert!(chunks <= slots, "{chunks} chunks, {slots} handle slots");
        let class_meta = config
            .classes
            .ids()
            .map(|id| ClassMeta::new(config.classes.chunks_per_page(id)))
            .collect();
        SlabStore {
            classes: config.classes,
            n_shards,
            shards: (0..n_shards).map(|_| Shard::new(n_classes)).collect(),
            class_meta,
            pages_total,
            pages_used: 0,
            lru_clock: 0,
            stats: StoreStats::default(),
        }
    }

    /// The size-class ladder in use.
    pub fn classes(&self) -> &SizeClasses {
        &self.classes
    }

    /// Number of shards the store body is split into.
    pub fn shard_count(&self) -> usize {
        self.n_shards as usize
    }

    /// Total pages of memory this store may use.
    pub fn pages_total(&self) -> u64 {
        self.pages_total
    }

    /// Pages currently assigned to classes.
    pub fn pages_used(&self) -> u64 {
        self.pages_used
    }

    /// Pages assigned to one class.
    pub fn pages_of_class(&self, id: ClassId) -> u64 {
        self.class_meta[id.0 as usize].pages
    }

    /// Number of items resident in one class.
    pub fn len_of_class(&self, id: ClassId) -> u64 {
        self.class_meta[id.0 as usize].len
    }

    /// Total resident items.
    pub fn len(&self) -> u64 {
        self.class_meta.iter().map(|m| m.len).sum()
    }

    /// Whether the store holds no items.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes of item payload currently resident (footprints, not chunks).
    pub fn bytes_used(&self) -> ByteSize {
        let lists = self.shards.iter().flat_map(|sh| &sh.lists);
        ByteSize(lists.map(|l| l.bytes_used).sum())
    }

    /// Operation counters.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// For each class, the fraction of this store's *used* pages assigned to
    /// it — the weight `w_b` in the paper's node-scoring formula (§III-C).
    pub fn page_weights(&self) -> Vec<(ClassId, f64)> {
        let used = self.pages_used.max(1) as f64;
        self.classes
            .ids()
            .map(|id| (id, self.class_meta[id.0 as usize].pages as f64 / used))
            .collect()
    }

    /// Looks up a key, refreshing its MRU position and timestamp on hit.
    pub fn get(&mut self, key: KeyId, now: SimTime) -> Option<ItemMeta> {
        let si = shard_of(key, self.n_shards);
        let stamp = || tick(&mut self.lru_clock);
        let Some((class, item)) = self.shards[si].access(key, now, stamp) else {
            self.stats.misses += 1;
            return None;
        };
        self.stats.hits += 1;
        self.class_meta[class as usize].version += 1;
        Some(item)
    }

    /// Looks up a key without disturbing MRU order or counters.
    pub fn peek(&self, key: KeyId) -> Option<ItemMeta> {
        let sh = &self.shards[shard_of(key, self.n_shards)];
        let (class, idx) = sh.locate(key)?;
        Some(sh.item(class, idx))
    }

    /// Whether a key is resident.
    pub fn contains(&self, key: KeyId) -> bool {
        let sh = &self.shards[shard_of(key, self.n_shards)];
        sh.locate(key).is_some()
    }

    /// Inserts or updates a key, moving it to the MRU head.
    ///
    /// # Errors
    ///
    /// * [`ElmemError::InvalidConfig`] for a key id wider than 32 bits;
    /// * [`ElmemError::ItemTooLarge`] if the footprint exceeds the largest
    ///   chunk;
    /// * [`ElmemError::OutOfMemory`] if no free chunk, free page, or
    ///   evictable item exists in the needed class.
    pub fn set(&mut self, key: KeyId, value_size: u32, now: SimTime) -> Result<(), ElmemError> {
        self.set_item(ItemMeta::new(key, value_size, now), true)
    }

    /// `set` of an item. Unless `indexed` — inside a [`Fill`], whose keys
    /// are new — the key index is neither read nor written, and a victim is
    /// unlinked by its slot.
    fn set_item(&mut self, new_item: ItemMeta, indexed: bool) -> Result<(), ElmemError> {
        let id = storable(new_item.key)?;
        let class = self.classes.class_to_store(new_item.footprint())?;
        let ci = class.0 as usize;

        let si = shard_of(new_item.key, self.n_shards);
        if indexed {
            let stamp = || tick(&mut self.lru_clock);
            // A class change removed the old copy; the new one lands below.
            match self.shards[si].update(class.0, id, &new_item, stamp) {
                Resident::Updated => {
                    self.class_meta[ci].version += 1;
                    self.stats.sets += 1;
                    return Ok(());
                }
                Resident::Removed(old) => self.uncount(old),
                Resident::Absent => {}
            }
        }

        // A free chunk or page, else the class's LRU victim's chunk
        // (Memcached semantics: eviction never crosses classes).
        if !self.secure_chunk(class) && self.evict_tail(class, indexed).is_none() {
            self.class_meta[ci].pressure += 1;
            return Err(ElmemError::OutOfMemory);
        }
        let seq = tick(&mut self.lru_clock);
        let meta = &mut self.class_meta[ci];
        meta.len += 1;
        meta.version += 1;
        self.shards[si].insert::<true>(class.0, id, &new_item, seq, indexed);
        self.stats.sets += 1;
        Ok(())
    }

    /// A [`Fill`] of this store: lanes only if the store is empty now.
    pub fn fill(&mut self) -> Fill<'_> {
        let lanes_only = self.is_empty();
        Fill {
            store: self,
            lanes_only,
        }
    }

    /// Removes a key; returns whether it was present.
    pub fn delete(&mut self, key: KeyId) -> bool {
        let removed = self.remove_entry(key).is_some();
        if removed {
            self.stats.deletes += 1;
        }
        removed
    }

    fn remove_entry(&mut self, key: KeyId) -> Option<ItemMeta> {
        let sh = &mut self.shards[shard_of(key, self.n_shards)];
        let (class, idx) = sh.locate(key)?;
        let item = sh.vacate(class, idx, true);
        self.uncount(class);
        Some(item)
    }

    /// Counts one item out of `class`.
    fn uncount(&mut self, class: u16) {
        let meta = &mut self.class_meta[class as usize];
        meta.len -= 1;
        meta.version += 1;
    }

    /// Evicts the LRU tail of `class` — the globally coldest item, i.e.
    /// the minimum stamp across the shard tails. Returns the evicted item,
    /// or `None` if the class is empty.
    pub fn evict_lru(&mut self, class: ClassId) -> Option<ItemMeta> {
        self.evict_tail(class, true)
    }

    /// [`evict_lru`](Self::evict_lru), unlinking the victim by its slot;
    /// only if `indexed` is its key also dropped from the index.
    fn evict_tail(&mut self, class: ClassId, indexed: bool) -> Option<ItemMeta> {
        let ci = class.0 as usize;
        let shard_tails = self.shards.iter().enumerate();
        let tails = shard_tails.filter_map(|(si, sh)| Some((sh.tail_stamp(class.0)?, si)));
        let (_, si) = tails.min()?;
        let item = self.shards[si].evict_tail(class.0, indexed)?;
        let meta = &mut self.class_meta[ci];
        meta.len -= 1;
        meta.version += 1;
        meta.pressure += 1;
        self.stats.evictions += 1;
        Some(item)
    }

    /// Secures capacity for one more chunk in `class` without evicting:
    /// true if the class is under its capacity (a freed chunk exists
    /// somewhere) or a fresh page could be granted.
    fn secure_chunk(&mut self, class: ClassId) -> bool {
        let meta = &mut self.class_meta[class.0 as usize];
        if meta.len >= meta.capacity() && self.pages_used < self.pages_total {
            meta.pages += 1;
            self.pages_used += 1;
        }
        meta.len < meta.capacity()
    }

    /// Free chunks currently available in a class (capacity not yet
    /// occupied).
    pub fn free_chunks_of_class(&self, id: ClassId) -> u64 {
        let meta = &self.class_meta[id.0 as usize];
        meta.capacity() - meta.len
    }

    /// Eviction/allocation-failure pressure accumulated by a class since
    /// the counters were last reset (see the `rebalance` module).
    pub fn eviction_pressure(&self, id: ClassId) -> u64 {
        self.class_meta[id.0 as usize].pressure
    }

    /// Resets all per-class pressure counters.
    pub fn reset_eviction_pressure(&mut self) {
        for meta in &mut self.class_meta {
            meta.pressure = 0;
        }
    }

    /// Moves one page of chunk *capacity* from class `from` to class `to`
    /// (Memcached's slab rebalancer). The donor evicts its coldest items
    /// until it fits in one page less; the recipient's budget grows by a
    /// page. Chunks are virtual (DESIGN.md §14), so no physical compaction
    /// happens.
    ///
    /// Returns the number of items evicted from the donor.
    ///
    /// # Errors
    ///
    /// [`ElmemError::InvalidConfig`] if `from == to`;
    /// [`ElmemError::InvalidScaling`] if the donor has no page to give.
    pub fn reassign_page(&mut self, from: ClassId, to: ClassId) -> Result<u64, ElmemError> {
        if from == to {
            return Err(ElmemError::InvalidConfig(
                "cannot reassign a page to the same class".to_string(),
            ));
        }
        let fi = from.0 as usize;
        if self.class_meta[fi].pages == 0 {
            return Err(ElmemError::InvalidScaling(format!(
                "{from} has no page to donate"
            )));
        }
        // Evict the donor's coldest items until one page's worth of its
        // capacity is unoccupied.
        let target = (self.class_meta[fi].pages - 1) * self.class_meta[fi].chunks_per_page;
        let mut evicted = 0u64;
        while self.class_meta[fi].len > target {
            if self.evict_lru(from).is_none() {
                break;
            }
            evicted += 1;
        }
        self.class_meta[fi].pages -= 1;
        self.pages_used -= 1;
        self.class_meta[to.0 as usize].pages += 1;
        self.pages_used += 1;
        Ok(evicted)
    }

    /// Iterates a class's items in MRU (hottest-first) order: the
    /// descending-stamp merge of the shard lists.
    pub fn iter_class_mru(&self, class: ClassId) -> ClassMruIter<'_> {
        let ci = class.0 as usize;
        ClassMruIter {
            lanes: self
                .shards
                .iter()
                .map(|sh| Lane::new(&sh.lists[ci]))
                .collect(),
            remaining: self.class_meta[ci].len as usize,
        }
    }

    /// Iterates all resident items (unspecified order).
    pub fn iter(&self) -> impl Iterator<Item = ItemMeta> + '_ {
        self.shards.iter().flat_map(|sh| {
            let slots = sh.index.values().map(|&h| sh.handles.decode(h));
            slots.map(|(class, idx)| sh.item(class, idx))
        })
    }

    /// The MRU timestamps of a class in MRU order — the paper's
    /// "timestamp dump" Memcached modification (§V-A1).
    pub fn dump_class(&self, class: ClassId) -> ClassDump {
        let items = self.iter_class_mru(class).collect_with(|_, _, item| item);
        ClassDump::new(class, items)
    }

    /// Dumps every non-empty class.
    pub fn dump_metadata(&self) -> MetadataDump {
        let dumps = self
            .classes
            .ids()
            .filter(|id| self.len_of_class(*id) > 0)
            .map(|id| self.dump_class(id))
            .collect();
        MetadataDump::new(dumps)
    }

    /// Median hotness of a class's MRU list (the statistic the Master
    /// compares across nodes when choosing which node to retire, §III-C).
    ///
    /// Returns `None` for an empty class.
    ///
    /// The O(n/2) merged walk is memoized against the class's mutation
    /// version: repeated probes of an unchanged class (the Master scores
    /// every node's every class per decision round) return the cached
    /// median without walking — or locking — anything.
    pub fn median_hotness(&self, class: ClassId) -> Option<Hotness> {
        let meta = &self.class_meta[class.0 as usize];
        if meta.len == 0 {
            return None;
        }
        if let Some(median) = meta.median.get(meta.version) {
            return median;
        }
        let target = (meta.len / 2) as usize;
        let median = self.iter_class_mru(class).nth(target).map(|i| i.hotness());
        meta.median.put(meta.version, median);
        median
    }

    /// Imports migrated items into a class (the paper's batch-import
    /// Memcached modification, §V-A1).
    ///
    /// `incoming` must be sorted hottest-first. Items that collide with a
    /// resident key keep whichever copy is hotter. If the class overflows
    /// its chunk capacity (and no free pages remain), the coldest items of
    /// the merged population are evicted — by FuseCache's construction these
    /// are always colder than the migrated ones.
    ///
    /// Residents that stay resident are relinked in place: the import
    /// costs O(residents of the class) pointer writes plus one index
    /// insert and one slot per item that lands, and frees only what it
    /// evicts.
    ///
    /// Returns the number of items actually resident from `incoming` after
    /// the merge.
    ///
    /// # Errors
    ///
    /// [`ElmemError::InvalidConfig`] if any incoming item does not belong to
    /// `class` under this store's ladder or has a key id past 32 bits.
    pub fn batch_import(
        &mut self,
        class: ClassId,
        incoming: &[ItemMeta],
        mode: ImportMode,
    ) -> Result<u64, ElmemError> {
        let mut ids = Vec::with_capacity(incoming.len());
        for item in incoming {
            if self.classes.class_for(item.footprint()) != Some(class) {
                return Err(ElmemError::InvalidConfig(format!(
                    "item {} (footprint {}) does not belong to {class}",
                    item.key,
                    item.footprint()
                )));
            }
            ids.push(storable(item.key)?);
        }

        let ci = class.0 as usize;

        // Resolve key collisions: drop incoming copies that are colder than
        // a resident copy; remove resident copies that are colder.
        let mut accepted: Vec<(u32, ItemMeta)> = Vec::with_capacity(incoming.len());
        for (&id, item) in ids.iter().zip(incoming) {
            match self.peek(item.key) {
                Some(resident) if resident.hotness() >= item.hotness() => continue,
                Some(_) => {
                    self.remove_entry(item.key);
                    accepted.push((id, *item));
                }
                None => accepted.push((id, *item)),
            }
        }

        // Residents keep their slots and their index entries; only the
        // class's order is rebuilt, in strict hotness order (the MRU list
        // may order same-instant accesses either way; see `ClassDump::new`).
        let mut resident: Vec<(Hotness, Origin)> =
            self.iter_class_mru(class).collect_with(|si, slot, item| {
                let shard = si as u32;
                (item.hotness(), Origin::Resident { shard, slot })
            });
        canonicalize(&mut resident, |r| r.0);

        // The merged population in its final MRU order.
        let n = resident.len() + accepted.len();
        let mut merged: Vec<Origin> = Vec::with_capacity(n);
        match mode {
            ImportMode::Merge => {
                // Both inputs are hottest-first; standard 2-way merge.
                canonicalize(&mut accepted, |a| a.1.hotness());
                let (mut i, mut j) = (0usize, 0usize);
                while i < resident.len() && j < accepted.len() {
                    if resident[i].0 >= accepted[j].1.hotness() {
                        merged.push(resident[i].1);
                        i += 1;
                    } else {
                        merged.push(Origin::Incoming(j));
                        j += 1;
                    }
                }
                merged.extend(resident[i..].iter().map(|r| r.1));
                merged.extend((j..accepted.len()).map(Origin::Incoming));
            }
            ImportMode::Prepend => {
                merged.extend((0..accepted.len()).map(Origin::Incoming));
                merged.extend(resident.iter().map(|r| r.1));
            }
        }

        // Grow the class page by page while the merged population needs
        // it and free pages remain; whatever still does not fit is the
        // overflow — the coldest tail of `merged`. Evict its residents
        // while the lists are still intact; its incoming items simply
        // never land.
        while self.class_meta[ci].capacity() < n as u64 && self.pages_used < self.pages_total {
            self.class_meta[ci].pages += 1;
            self.pages_used += 1;
        }
        let keep = (n as u64).min(self.class_meta[ci].capacity()) as usize;
        for origin in &merged[keep..] {
            if let Origin::Resident { shard, slot } = *origin {
                self.shards[shard as usize].vacate(class.0, slot, true);
            }
        }

        // Relink: detach every shard's list of the class, then append the
        // survivors hottest first — residents by pointer writes alone,
        // incoming items into fresh slots — with descending stamps from a
        // block reserved off the LRU clock.
        for sh in &mut self.shards {
            sh.detach_list(class.0);
        }
        let base = self.lru_clock;
        self.lru_clock += n as u64;
        let mut kept_incoming = 0u64;
        for (i, origin) in merged[..keep].iter().enumerate() {
            let seq = base + (n - i) as u64;
            match *origin {
                Origin::Resident { shard, slot } => {
                    self.shards[shard as usize].relink_back(class.0, slot, seq);
                }
                Origin::Incoming(j) => {
                    let (id, item) = &accepted[j];
                    let si = shard_of(item.key, self.n_shards);
                    self.shards[si].insert::<false>(class.0, *id, item, seq, true);
                    kept_incoming += 1;
                }
            }
        }
        let meta = &mut self.class_meta[ci];
        meta.len = keep as u64;
        meta.version += 1;
        self.stats.imported += kept_incoming;
        // Count the dropped overflow as evictions.
        self.stats.evictions += (n - keep) as u64;
        Ok(kept_incoming)
    }

    /// Exhaustively checks the store's internal invariants: per-shard slot
    /// accounting (every chunk is exactly occupied or free), MRU-list
    /// structure (forward walks agree with prev pointers, length counters,
    /// and strictly descending LRU stamps), byte/page/capacity
    /// conservation, index ↔ slot agreement, and key → shard routing.
    ///
    /// This is the slab/byte-conservation leg of the chaos engine's
    /// invariant checker (DESIGN.md §12); it is O(items) and intended for
    /// post-run audits, not the request path.
    ///
    /// # Errors
    ///
    /// [`ElmemError::InvariantViolation`] naming the first broken invariant
    /// (checked in a deterministic order).
    pub fn audit(&self) -> Result<(), ElmemError> {
        let fail = |msg: String| Err(ElmemError::InvariantViolation(msg));
        for (si, shard) in self.shards.iter().enumerate() {
            shard
                .audit(si, self.n_shards, self.lru_clock)
                .or_else(fail)?;
        }
        let (mut total_len, mut total_pages) = (0u64, 0u64);
        for (ci, meta) in self.class_meta.iter().enumerate() {
            let class_len: u64 = self.shards.iter().map(|sh| sh.lists[ci].len).sum();
            if class_len != meta.len {
                return fail(format!(
                    "class {ci}: len counter {} but shards hold {class_len} items",
                    meta.len
                ));
            }
            if meta.len > meta.capacity() {
                return fail(format!(
                    "class {ci}: {} items over capacity {} ({} pages of {} chunks)",
                    meta.len,
                    meta.capacity(),
                    meta.pages,
                    meta.chunks_per_page
                ));
            }
            total_len += meta.len;
            total_pages += meta.pages;
        }
        if total_pages != self.pages_used {
            return fail(format!(
                "pages_used {} but classes hold {total_pages}",
                self.pages_used
            ));
        }
        if self.pages_used > self.pages_total {
            return fail(format!(
                "pages_used {} exceeds pages_total {}",
                self.pages_used, self.pages_total
            ));
        }
        let indexed: u64 = self.shards.iter().map(|sh| sh.index.len() as u64).sum();
        if indexed != total_len {
            return fail(format!(
                "index holds {indexed} keys but classes hold {total_len} items"
            ));
        }
        Ok(())
    }

    /// Applies `damage` to the first non-empty shard list. The hooks below
    /// exist so cross-crate tests can prove [`SlabStore::audit`] catches
    /// corruption; never call them outside tests.
    fn corrupt(&mut self, damage: impl FnOnce(&mut ShardList)) {
        let mut lists = self.shards.iter_mut().flat_map(|sh| sh.lists.iter_mut());
        if let Some(list) = lists.find(|l| l.len > 0) {
            damage(list);
        }
    }

    /// Breaks the byte accounting.
    #[doc(hidden)]
    pub fn corrupt_bytes_used_for_tests(&mut self) {
        self.corrupt(|list| list.bytes_used += 1);
    }

    /// Adds a copy of the MRU head's slot — live stamp — to the free list.
    #[doc(hidden)]
    pub fn corrupt_free_stamp_for_tests(&mut self) {
        self.corrupt(|list| {
            list.free.push(list.links.len() as u32);
            list.links.push(list.links[list.head as usize]);
            list.slots.push(list.slots[list.head as usize]);
        });
    }

    /// Zeroes the stamp of a linked slot (the MRU head).
    #[doc(hidden)]
    pub fn corrupt_linked_stamp_for_tests(&mut self) {
        self.corrupt(|list| list.links[list.head as usize].seq = 0);
    }

    /// Leaves the link lane one entry short of the item lane.
    #[doc(hidden)]
    pub fn corrupt_lane_length_for_tests(&mut self) {
        self.corrupt(|list| list.slots.push(list.slots[list.head as usize]));
    }
}

/// A bulk load of keys new to the store, from [`SlabStore::fill`]: on a
/// store empty when it began, [`set`](Self::set) is [`SlabStore::set`] on the
/// lanes alone and [`finish`](Self::finish) (or a drop) indexes the survivors
/// once; a key may be set again only after `finish` (DESIGN.md §14).
#[derive(Debug)]
pub struct Fill<'a> {
    store: &'a mut SlabStore,
    /// The index is still to be built.
    lanes_only: bool,
}

impl Fill<'_> {
    /// [`SlabStore::set`], errors included, of a key not yet set in this fill.
    pub fn set(&mut self, key: KeyId, value_size: u32, now: SimTime) -> Result<(), ElmemError> {
        let item = ItemMeta::new(key, value_size, now);
        self.store.set_item(item, !self.lanes_only)
    }

    /// Indexes every shard's occupied slots, into an index sized once for
    /// them; from here on `set` is [`SlabStore::set`]. Idempotent.
    pub fn finish(&mut self) {
        if !std::mem::take(&mut self.lanes_only) {
            return;
        }
        for sh in &mut self.store.shards {
            sh.index_occupied();
        }
    }
}

impl Drop for Fill<'_> {
    fn drop(&mut self) {
        self.finish();
    }
}

/// The next stamp of an LRU clock (strictly increasing).
fn tick(clock: &mut u64) -> u64 {
    *clock += 1;
    *clock
}

/// One shard's lane of a [`ClassMruIter`]: the class's two slot lanes in
/// that shard, resolved once, and a cursor at each end
/// of what is left of the shard's list. Invariant: while `left > 0`, `head`
/// and `tail` are linked slots of the list with `left - 1` links between
/// them and `head_seq` / `tail_seq` are their stamps; at `left == 0` the
/// stamps are the two sentinels and the cursors are dead.
#[derive(Debug)]
struct Lane<'a> {
    links: &'a [Link],
    slots: &'a [Slot],
    /// Items of the lane not yet yielded from either end.
    left: u64,
    /// The hottest slot left and its stamp; once nothing is left the stamp
    /// is 0, below every live stamp (the LRU clock hands them out from 1).
    head: u32,
    head_seq: u64,
    /// The coldest slot left and its stamp; `u64::MAX` once nothing is.
    tail: u32,
    tail_seq: u64,
}

impl<'a> Lane<'a> {
    fn new(list: &'a ShardList) -> Self {
        let mut lane = Lane {
            links: &list.links,
            slots: &list.slots,
            left: list.len,
            head: list.head,
            head_seq: 0,
            tail: list.tail,
            tail_seq: u64::MAX,
        };
        if lane.left > 0 {
            lane.head_seq = lane.links[lane.head as usize].seq;
            lane.tail_seq = lane.links[lane.tail as usize].seq;
        }
        lane
    }

    /// Yields the slot at the hot (`HOT`) or the cold end and moves that
    /// end's cursor one link inwards, loading the one stamp that changed —
    /// on the link lane alone; the item is not read.
    fn take<const HOT: bool>(&mut self) -> u32 {
        let idx = if HOT { self.head } else { self.tail };
        let link = self.links[idx as usize];
        self.left -= 1;
        if self.left == 0 {
            (self.head_seq, self.tail_seq) = (0, u64::MAX);
        } else if HOT {
            self.head = link.next;
            self.head_seq = self.links[link.next as usize].seq;
        } else {
            self.tail = link.prev;
            self.tail_seq = self.links[link.prev as usize].seq;
        }
        idx
    }
}

/// Iterator over a class's items in MRU order — the descending-stamp merge
/// of the shard lists, and the one ordered-walk kernel under the dump, the
/// median, FuseCache's resident list and `batch_import`. A
/// step compares the lanes' cached stamps and touches only the lane that
/// advances, and of that only its links: the chain of dependent loads runs
/// through the 16-byte link lane, and the items it passes are independent
/// loads the caller may overlap or skip ([`nth`](Iterator::nth) does). The
/// walk can be taken from its cold end too. Created by
/// [`SlabStore::iter_class_mru`].
#[derive(Debug)]
pub struct ClassMruIter<'a> {
    lanes: Vec<Lane<'a>>,
    /// Items not yet yielded: the class length, counted down.
    remaining: usize,
}

impl<'a> ClassMruIter<'a> {
    /// Advances one item from the hot end (`HOT`: the next in MRU order)
    /// or from the cold end (the last), returning its position as (shard,
    /// slot); [`item`](Self::item) reads it.
    fn step<const HOT: bool>(&mut self) -> Option<(usize, u32)> {
        let exhausted = if HOT { 0 } else { u64::MAX };
        let (mut si, mut best) = (0, exhausted);
        for (i, lane) in self.lanes.iter().enumerate() {
            let seq = if HOT { lane.head_seq } else { lane.tail_seq };
            if (HOT && seq > best) || (!HOT && seq < best) {
                (si, best) = (i, seq);
            }
        }
        if best == exhausted {
            return None;
        }
        let idx = self.lanes[si].take::<HOT>();
        self.remaining -= 1;
        Some((si, idx))
    }

    /// The item at a position [`step`](Self::step) yielded.
    fn item(&self, si: usize, idx: u32) -> ItemMeta {
        self.lanes[si].slots[idx as usize].meta()
    }

    /// Drains the walk into a vector in MRU order, one item from the hot
    /// end and one from the cold end in turn. A list walk is a chain of
    /// dependent loads, each a likely cache miss; the two ends are two
    /// independent chains, so their misses overlap.
    fn collect_with<T>(mut self, f: impl Fn(usize, u32, ItemMeta) -> T) -> Vec<T> {
        let mut hot = Vec::with_capacity(self.remaining);
        let mut cold = Vec::with_capacity(self.remaining / 2);
        while let Some((si, idx)) = self.step::<true>() {
            hot.push(f(si, idx, self.item(si, idx)));
            if let Some((si, idx)) = self.step::<false>() {
                cold.push(f(si, idx, self.item(si, idx)));
            }
        }
        hot.extend(cold.into_iter().rev());
        hot
    }
}

impl Iterator for ClassMruIter<'_> {
    type Item = ItemMeta;

    fn next(&mut self) -> Option<ItemMeta> {
        let (si, idx) = self.step::<true>()?;
        Some(self.item(si, idx))
    }

    /// Skips on links alone: no item is read before the one asked for.
    fn nth(&mut self, n: usize) -> Option<ItemMeta> {
        for _ in 0..n {
            self.step::<true>()?;
        }
        self.next()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

#[cfg(test)]
mod import_oracle;

#[cfg(test)]
mod walk_oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::item_footprint;

    #[test]
    fn stats_lookups_and_hit_rate() {
        let s = StoreStats {
            hits: 3,
            misses: 1,
            ..StoreStats::default()
        };
        assert_eq!(s.lookups(), 4);
        assert_eq!(s.hit_rate(), 0.75);
        assert_eq!(StoreStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn stats_merge_is_elementwise() {
        let a = StoreStats {
            hits: 1,
            misses: 2,
            sets: 3,
            evictions: 4,
            deletes: 5,
            imported: 6,
        };
        let b = StoreStats {
            hits: 10,
            misses: 20,
            sets: 30,
            evictions: 40,
            deletes: 50,
            imported: 60,
        };
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, ba, "merge is commutative");
        assert_eq!(ab.hits, 11);
        assert_eq!(ab.imported, 66);
        assert_eq!(ab.lookups(), 33);
    }

    #[test]
    fn new_refuses_a_store_its_slot_bits_cannot_address() {
        // The default ladder's 43 classes leave 26 slot bits and its 96 B
        // class takes 10 922 chunks a page: 6 144 pages address, 6 145 do
        // not. Eight classes of 8 B to 1 KiB leave 29 bits over 131 072.
        let default = SizeClasses::memcached_default;
        let small = || SizeClasses::new(8, 2.0, 1024);
        assert_eq!(Handles::for_classes(default().len()).0, 26);
        let stores = [
            (6_144, default(), false),
            (6_145, default(), true),
            (4_096, small(), false),
            (4_097, small(), true),
        ];
        for (mib, classes, refused) in stores {
            let memory = ByteSize::from_mib(mib);
            let config = StoreConfig {
                memory,
                classes,
                shards: 1,
            };
            let built = std::panic::catch_unwind(|| SlabStore::new(config));
            assert_eq!(built.is_err(), refused, "{mib} MiB");
        }
    }

    fn small_store() -> SlabStore {
        SlabStore::new(StoreConfig {
            memory: ByteSize::from_mib(2),
            classes: SizeClasses::new(128, 2.0, 1024),
            shards: default_shard_count(),
        })
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn set_get_roundtrip() {
        let mut s = small_store();
        s.set(KeyId(1), 10, t(1)).unwrap();
        let item = s.get(KeyId(1), t(2)).unwrap();
        assert_eq!(item.key, KeyId(1));
        assert_eq!(item.value_size, 10);
        assert_eq!(item.last_access, t(2));
        assert_eq!(s.stats().hits, 1);
        assert_eq!(s.stats().sets, 1);
    }

    #[test]
    fn miss_counts() {
        let mut s = small_store();
        assert!(s.get(KeyId(404), t(1)).is_none());
        assert_eq!(s.stats().misses, 1);
    }

    #[test]
    fn peek_leaves_order_and_counters_alone() {
        let mut s = small_store();
        s.set(KeyId(1), 10, t(1)).unwrap();
        let before = s.peek(KeyId(1)).unwrap();
        assert_eq!(before.last_access, t(1));
        let hits = s.stats().hits;
        let _ = s.peek(KeyId(1));
        assert_eq!(s.stats().hits, hits);
    }

    #[test]
    fn mru_order_follows_access() {
        let mut s = small_store();
        for k in 0..5 {
            s.set(KeyId(k), 10, t(k)).unwrap();
        }
        // 4 is hottest. Touch 0 → becomes hottest.
        s.get(KeyId(0), t(10)).unwrap();
        let class = s.classes().class_for(item_footprint(10)).unwrap();
        let order: Vec<u64> = s.iter_class_mru(class).map(|i| i.key.0).collect();
        assert_eq!(order, vec![0, 4, 3, 2, 1]);
    }

    #[test]
    fn mru_list_is_hotness_sorted_under_normal_ops() {
        let mut s = small_store();
        for k in 0..20 {
            s.set(KeyId(k), 10, t(k)).unwrap();
        }
        for k in (0..20).step_by(3) {
            s.get(KeyId(k), t(100 + k)).unwrap();
        }
        let class = s.classes().class_for(item_footprint(10)).unwrap();
        let hot: Vec<Hotness> = s.iter_class_mru(class).map(|i| i.hotness()).collect();
        for w in hot.windows(2) {
            assert!(w[0] >= w[1], "MRU list out of order");
        }
    }

    #[test]
    fn update_same_class_updates_in_place() {
        let mut s = small_store();
        s.set(KeyId(1), 10, t(1)).unwrap();
        s.set(KeyId(1), 20, t(2)).unwrap();
        assert_eq!(s.len(), 1);
        let item = s.peek(KeyId(1)).unwrap();
        assert_eq!(item.value_size, 20);
        assert_eq!(item.last_access, t(2));
    }

    #[test]
    fn update_changes_class_when_size_grows() {
        let mut s = small_store();
        s.set(KeyId(1), 10, t(1)).unwrap();
        let small = s.classes().class_for(item_footprint(10)).unwrap();
        s.set(KeyId(1), 500, t(2)).unwrap();
        let large = s.classes().class_for(item_footprint(500)).unwrap();
        assert_ne!(small, large);
        assert_eq!(s.len_of_class(small), 0);
        assert_eq!(s.len_of_class(large), 1);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn delete_removes() {
        let mut s = small_store();
        s.set(KeyId(1), 10, t(1)).unwrap();
        assert!(s.delete(KeyId(1)));
        assert!(!s.delete(KeyId(1)));
        assert!(!s.contains(KeyId(1)));
        assert_eq!(s.len(), 0);
        assert_eq!(s.stats().deletes, 1);
    }

    #[test]
    fn item_too_large_rejected() {
        let mut s = small_store();
        let err = s.set(KeyId(1), 10_000, t(1)).unwrap_err();
        assert!(matches!(err, ElmemError::ItemTooLarge { .. }));
    }

    /// A one-page store (1 MiB / 128 B = 8192 chunks in the smallest
    /// class) at an explicit shard count: the victim of an eviction is the
    /// class's coldest item whichever shard tail holds it.
    fn one_page_store(shards: usize) -> SlabStore {
        SlabStore::new(StoreConfig {
            memory: ByteSize::from_mib(1),
            classes: SizeClasses::new(128, 2.0, 1024),
            shards,
        })
    }

    #[test]
    fn lru_eviction_within_class() {
        for shards in [1, 4] {
            let mut s = one_page_store(shards);
            let cap = ByteSize::PAGE.as_u64() / 128;
            for k in 0..cap + 10 {
                s.set(KeyId(k), 10, t(k)).unwrap();
            }
            assert_eq!(s.len(), cap);
            assert_eq!(s.stats().evictions, 10);
            // The 10 oldest were evicted.
            for k in 0..10 {
                assert!(!s.contains(KeyId(k)), "key {k} should be evicted");
            }
            assert!(s.contains(KeyId(10)));
        }
    }

    #[test]
    fn eviction_victim_is_lru_not_insertion_order() {
        for shards in [1, 4] {
            let mut s = one_page_store(shards);
            let cap = ByteSize::PAGE.as_u64() / 128;
            for k in 0..cap {
                s.set(KeyId(k), 10, t(k)).unwrap();
            }
            // Touch key 0 so key 1 becomes LRU.
            s.get(KeyId(0), t(10_000)).unwrap();
            s.set(KeyId(999_999), 10, t(10_001)).unwrap();
            assert!(s.contains(KeyId(0)));
            assert!(!s.contains(KeyId(1)));
        }
    }

    #[test]
    fn pages_assigned_on_demand_across_classes() {
        let mut s = small_store();
        assert_eq!(s.pages_used(), 0);
        s.set(KeyId(1), 10, t(1)).unwrap(); // small class
        assert_eq!(s.pages_used(), 1);
        s.set(KeyId(2), 900, t(1)).unwrap(); // large class
        assert_eq!(s.pages_used(), 2);
        let weights = s.page_weights();
        let total: f64 = weights.iter().map(|(_, w)| w).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn out_of_memory_when_class_empty_and_no_pages() {
        // 1 page total, used by the small class; large class cannot allocate.
        let mut s = one_page_store(default_shard_count());
        s.set(KeyId(1), 10, t(1)).unwrap();
        let err = s.set(KeyId(2), 900, t(2)).unwrap_err();
        assert_eq!(err, ElmemError::OutOfMemory);
    }

    #[test]
    fn median_hotness_is_middle_of_list() {
        let mut s = small_store();
        for k in 0..5 {
            s.set(KeyId(k), 10, t(k + 1)).unwrap();
        }
        let class = s.classes().class_for(item_footprint(10)).unwrap();
        // MRU order: 4,3,2,1,0 → median (index 2) is key 2 at t=3.
        let med = s.median_hotness(class).unwrap();
        assert_eq!(med.time(), t(3));
    }

    #[test]
    fn median_hotness_empty_class() {
        let s = small_store();
        assert_eq!(s.median_hotness(ClassId(0)), None);
    }

    #[test]
    fn median_cache_tracks_mutations() {
        let mut s = small_store();
        for k in 0..9 {
            s.set(KeyId(k), 10, t(k + 1)).unwrap();
        }
        let class = s.classes().class_for(item_footprint(10)).unwrap();
        let before = s.median_hotness(class).unwrap();
        // A cached re-probe of the unchanged class agrees with itself.
        assert_eq!(s.median_hotness(class), Some(before));
        // Any access moves the list; the cached value must be dropped and
        // the fresh walk must agree with a never-cached store.
        s.get(KeyId(0), t(100)).unwrap();
        let after = s.median_hotness(class).unwrap();
        assert_ne!(after, before, "touching the coldest item moves the median");
        let mut fresh = small_store();
        for k in 0..9 {
            fresh.set(KeyId(k), 10, t(k + 1)).unwrap();
        }
        fresh.get(KeyId(0), t(100)).unwrap();
        assert_eq!(fresh.median_hotness(class), Some(after));
    }

    #[test]
    fn median_cache_survives_clone() {
        let mut s = small_store();
        for k in 0..5 {
            s.set(KeyId(k), 10, t(k + 1)).unwrap();
        }
        let class = s.classes().class_for(item_footprint(10)).unwrap();
        let med = s.median_hotness(class);
        let clone = s.clone();
        assert_eq!(clone.median_hotness(class), med);
        // Mutating the clone must not disturb the original's answer.
        let mut clone = clone;
        clone.get(KeyId(0), t(50)).unwrap();
        assert_eq!(s.median_hotness(class), med);
    }

    #[test]
    fn median_cache_clone_is_independent() {
        // The regression the PR 5 Mutex version would have failed if the
        // lock were shared: mutating the *original* after a clone must not
        // disturb the clone's memoized answer (and vice versa).
        let mut s = small_store();
        for k in 0..9 {
            s.set(KeyId(k), 10, t(k + 1)).unwrap();
        }
        let class = s.classes().class_for(item_footprint(10)).unwrap();
        let med = s.median_hotness(class);
        let clone = s.clone();
        s.get(KeyId(0), t(100)).unwrap();
        let moved = s.median_hotness(class);
        assert_ne!(moved, med, "touching the coldest item moves the median");
        assert_eq!(clone.median_hotness(class), med, "clone state is private");
    }

    #[test]
    fn dump_is_mru_ordered() {
        let mut s = small_store();
        for k in 0..10 {
            s.set(KeyId(k), 10, t(k)).unwrap();
        }
        let class = s.classes().class_for(item_footprint(10)).unwrap();
        let dump = s.dump_class(class);
        assert_eq!(dump.items.len(), 10);
        for w in dump.items.windows(2) {
            assert!(w[0].hotness() >= w[1].hotness());
        }
    }

    #[test]
    fn dump_metadata_skips_empty_classes() {
        let mut s = small_store();
        s.set(KeyId(1), 10, t(1)).unwrap();
        let dump = s.dump_metadata();
        assert_eq!(dump.classes.len(), 1);
    }

    #[test]
    fn shard_dump_reassembly_is_not_quadratic() {
        // One 200k-item class over 8 shard lanes: the walk reassembles it
        // by stamp, and a bulk load that shares one instant leaves that
        // order far from the canonical one, so the dump sorts all of it.
        // Anything quadratic in either step takes minutes here; both the
        // spread a serving node has and the all-one-instant pattern must
        // take milliseconds and read the same as the single list.
        for spread in [true, false] {
            let [one, eight] = [1, 8].map(|shards| {
                let mut s = SlabStore::new(StoreConfig {
                    memory: ByteSize::from_mib(32),
                    classes: SizeClasses::new(128, 2.0, 1024),
                    shards,
                });
                for k in 0..200_000 {
                    s.set(KeyId(k), 10, if spread { t(k) } else { t(7) })
                        .unwrap();
                }
                s.dump_metadata()
            });
            assert_eq!(eight.total_items(), 200_000);
            assert_eq!(eight, one);
        }
    }

    #[test]
    fn batch_import_merge_keeps_sorted() {
        let mut s = small_store();
        for k in 0..10 {
            s.set(KeyId(k), 10, t(2 * k)).unwrap(); // even timestamps
        }
        let class = s.classes().class_for(item_footprint(10)).unwrap();
        let incoming: Vec<ItemMeta> = (0..5)
            .map(|i| ItemMeta {
                key: KeyId(100 + i),
                value_size: 10,
                last_access: t(2 * (9 - i) + 1), // odd, interleaving
            })
            .collect();
        let kept = s.batch_import(class, &incoming, ImportMode::Merge).unwrap();
        assert_eq!(kept, 5);
        let hot: Vec<Hotness> = s.iter_class_mru(class).map(|i| i.hotness()).collect();
        assert_eq!(hot.len(), 15);
        for w in hot.windows(2) {
            assert!(w[0] >= w[1], "merged list out of order");
        }
    }

    #[test]
    fn batch_import_prepend_puts_incoming_first() {
        let mut s = small_store();
        for k in 0..3 {
            s.set(KeyId(k), 10, t(100 + k)).unwrap();
        }
        let class = s.classes().class_for(item_footprint(10)).unwrap();
        let incoming = vec![ItemMeta {
            key: KeyId(50),
            value_size: 10,
            last_access: t(1), // colder, but prepend puts it first anyway
        }];
        s.batch_import(class, &incoming, ImportMode::Prepend)
            .unwrap();
        let first = s.iter_class_mru(class).next().unwrap();
        assert_eq!(first.key, KeyId(50));
    }

    #[test]
    fn batch_import_evicts_overflow_coldest() {
        for shards in [1, 4] {
            let mut s = one_page_store(shards);
            let cap = ByteSize::PAGE.as_u64() / 128;
            for k in 0..cap {
                s.set(KeyId(k), 10, t(k + 1)).unwrap();
            }
            let class = s.classes().class_for(item_footprint(10)).unwrap();
            // Import `cap/2` items hotter than everything resident.
            let incoming: Vec<ItemMeta> = (0..cap / 2)
                .map(|i| ItemMeta {
                    key: KeyId(1_000_000 + i),
                    value_size: 10,
                    last_access: t(10_000 + i),
                })
                .collect();
            let kept = s.batch_import(class, &incoming, ImportMode::Merge).unwrap();
            assert_eq!(kept, cap / 2);
            assert_eq!(s.len(), cap);
            // The coldest resident half is gone; hottest resident half remains.
            assert!(!s.contains(KeyId(0)));
            assert!(s.contains(KeyId(cap - 1)));
        }
    }

    #[test]
    fn batch_import_key_collision_keeps_hotter() {
        let mut s = small_store();
        s.set(KeyId(1), 10, t(100)).unwrap();
        s.set(KeyId(2), 10, t(1)).unwrap();
        let class = s.classes().class_for(item_footprint(10)).unwrap();
        let incoming = vec![
            ItemMeta {
                key: KeyId(1),
                value_size: 10,
                last_access: t(50), // colder than resident copy
            },
            ItemMeta {
                key: KeyId(2),
                value_size: 10,
                last_access: t(200), // hotter than resident copy
            },
        ];
        s.batch_import(class, &incoming, ImportMode::Merge).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.peek(KeyId(1)).unwrap().last_access, t(100));
        assert_eq!(s.peek(KeyId(2)).unwrap().last_access, t(200));
    }

    #[test]
    fn batch_import_rejects_wrong_class() {
        let mut s = small_store();
        let class = s.classes().class_for(item_footprint(10)).unwrap();
        let incoming = vec![ItemMeta {
            key: KeyId(1),
            value_size: 900, // belongs to a larger class
            last_access: t(1),
        }];
        assert!(s.batch_import(class, &incoming, ImportMode::Merge).is_err());
    }

    #[test]
    fn evict_lru_returns_tail() {
        let mut s = small_store();
        for k in 0..3 {
            s.set(KeyId(k), 10, t(k)).unwrap();
        }
        let class = s.classes().class_for(item_footprint(10)).unwrap();
        let evicted = s.evict_lru(class).unwrap();
        assert_eq!(evicted.key, KeyId(0));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn evict_lru_empty_class_is_none() {
        let mut s = small_store();
        assert!(s.evict_lru(ClassId(0)).is_none());
    }

    #[test]
    fn bytes_used_tracks_footprints() {
        let mut s = small_store();
        s.set(KeyId(1), 10, t(1)).unwrap();
        s.set(KeyId(2), 20, t(1)).unwrap();
        assert_eq!(
            s.bytes_used().as_u64(),
            item_footprint(10) + item_footprint(20)
        );
        s.delete(KeyId(1));
        assert_eq!(s.bytes_used().as_u64(), item_footprint(20));
    }

    #[test]
    fn iter_yields_all_items() {
        let mut s = small_store();
        for k in 0..7 {
            s.set(KeyId(k), 10, t(k)).unwrap();
        }
        let mut keys: Vec<u64> = s.iter().map(|i| i.key.0).collect();
        keys.sort_unstable();
        assert_eq!(keys, (0..7).collect::<Vec<u64>>());
    }

    #[test]
    #[should_panic]
    fn zero_memory_store_rejected() {
        let _ = SlabStore::new(StoreConfig::with_memory(ByteSize::from_kib(4)));
    }

    #[test]
    fn shards_env_var_is_the_count_under_test() {
        // `default_shard_count` forgives a value it cannot parse, so a CI
        // leg with a mistyped `ELMEM_SHARDS` would re-run the main job
        // under another leg's name and pass. Whenever the variable is set,
        // it must parse and be the count in force.
        match std::env::var(ELMEM_SHARDS_ENV) {
            Ok(v) => {
                let n: usize = v
                    .trim()
                    .parse()
                    .unwrap_or_else(|e| panic!("{ELMEM_SHARDS_ENV}={v:?} is no shard count: {e}"));
                assert_eq!(default_shard_count(), n.clamp(1, MAX_SHARDS));
            }
            Err(std::env::VarError::NotPresent) => {
                assert_eq!(default_shard_count(), DEFAULT_SHARDS);
            }
            Err(e) => panic!("{ELMEM_SHARDS_ENV} is unreadable: {e}"),
        }
    }

    #[test]
    fn shard_count_is_clamped() {
        let s = SlabStore::new(StoreConfig {
            memory: ByteSize::from_mib(1),
            classes: SizeClasses::new(128, 2.0, 1024),
            shards: 0,
        });
        assert_eq!(s.shard_count(), 1);
        let s = SlabStore::new(StoreConfig {
            memory: ByteSize::from_mib(1),
            classes: SizeClasses::new(128, 2.0, 1024),
            shards: 10_000,
        });
        assert_eq!(s.shard_count(), MAX_SHARDS);
    }

    #[test]
    fn audit_passes_through_store_lifecycle() {
        let mut s = small_store();
        s.audit().unwrap();
        for k in 0..500 {
            // A 2 MiB store has two pages; sets that land in a third class
            // legitimately fail with OutOfMemory, which must still leave
            // the store consistent.
            let _ = s.set(KeyId(k), 50 + (k as u32 % 400), t(k));
            if k % 7 == 0 {
                s.get(KeyId(k / 2), t(k)).map(|_| ()).unwrap_or(());
            }
            if k % 11 == 0 {
                s.delete(KeyId(k / 3));
            }
        }
        s.audit().unwrap();
        // Imports, eviction, deletes: still consistent.
        let class = s.classes().class_for(item_footprint(100)).unwrap();
        let batch: Vec<ItemMeta> = (1000..1020)
            .map(|k| ItemMeta::new(KeyId(k), 100, t(600)))
            .collect();
        s.batch_import(class, &batch, ImportMode::Merge).unwrap();
        s.audit().unwrap();
        s.evict_lru(class);
        s.audit().unwrap();
        for k in 0..1020 {
            s.delete(KeyId(k));
        }
        assert!(s.is_empty());
        s.audit().unwrap();
    }

    #[test]
    fn audit_detects_corruption() {
        let mut s = small_store();
        for k in 0..20 {
            s.set(KeyId(k), 50, t(k)).unwrap();
        }
        // Corrupt a byte counter behind the accessors' backs.
        s.corrupt_bytes_used_for_tests();
        let err = s.audit().unwrap_err();
        assert!(matches!(err, ElmemError::InvariantViolation(_)), "{err}");
        assert!(err.to_string().contains("bytes_used"), "{err}");
    }

    #[test]
    fn audit_detects_lane_corruption() {
        // Each way the two lanes can disagree about a slot is caught, and
        // the report names the class and shard list it found it in.
        type Hook = fn(&mut SlabStore);
        let cases: [(Hook, &str); 3] = [
            (
                SlabStore::corrupt_free_stamp_for_tests,
                "is occupied (stamp",
            ),
            (
                SlabStore::corrupt_linked_stamp_for_tests,
                "is free (stamp 0)",
            ),
            (SlabStore::corrupt_lane_length_for_tests, "links but"),
        ];
        for shards in [1, 4] {
            for (corrupt, what) in cases {
                let mut s = one_page_store(shards);
                for k in 0..20 {
                    s.set(KeyId(k), 50, t(k)).unwrap();
                }
                s.delete(KeyId(3));
                s.audit().unwrap();
                corrupt(&mut s);
                let err = s.audit().unwrap_err();
                assert!(matches!(err, ElmemError::InvariantViolation(_)), "{err}");
                let msg = err.to_string();
                assert!(msg.contains("class 0 shard 0: "), "{msg}");
                assert!(msg.contains(what), "{msg}");
            }
        }
    }

    #[test]
    fn clone_keeps_lane_capacity() {
        // A derived `Clone` trims every `Vec` to its length, so the first
        // insert into a cloned store moved (reallocated and copied) both
        // lanes of the class it landed in.
        for shards in [1, 4] {
            let mut s = one_page_store(shards);
            for k in 0..100 {
                s.set(KeyId(k), 10, t(k)).unwrap();
            }
            s.delete(KeyId(5));
            let mut clone = s.clone();
            clone.audit().unwrap();
            assert_eq!(clone.dump_metadata(), s.dump_metadata());
            for (copy, orig) in clone.shards.iter().zip(&s.shards) {
                let (copy, orig) = (&copy.lists[0], &orig.lists[0]);
                assert!(copy.links.capacity() >= orig.links.capacity());
                assert!(copy.slots.capacity() >= orig.slots.capacity());
                assert!(copy.free.capacity() >= orig.free.capacity());
                assert!(orig.links.len() < orig.links.capacity(), "no room to test");
            }
            // While every lane has room, no set moves one.
            let lanes = |s: &SlabStore| -> Vec<(*const Link, *const Slot)> {
                let lists = s.shards.iter().map(|sh| &sh.lists[0]);
                lists
                    .map(|l| (l.links.as_ptr(), l.slots.as_ptr()))
                    .collect()
            };
            let has_room = |s: &SlabStore| {
                let mut lists = s.shards.iter().map(|sh| &sh.lists[0]);
                lists.all(|l| l.links.len() < l.links.capacity())
            };
            let before = lanes(&clone);
            let mut key = 1_000;
            while has_room(&clone) {
                clone.set(KeyId(key), 10, t(key)).unwrap();
                assert_eq!(lanes(&clone), before, "set {key} moved a lane");
                key += 1;
            }
            assert!(key > 1_001, "only the freed slot was ever filled");
            clone.audit().unwrap();
        }
    }
}
