//! The slab store: pages, chunks, one MRU list per slab class, LRU
//! eviction, and the commands the paper's path issues — `get`, `set`,
//! `delete`, the bulk [`Fill`], the timestamp dump and `batch_import` — and
//! no others. Every ordered walk is one kernel, [`ClassMruIter`]. See
//! DESIGN.md §14.

use std::sync::atomic::{AtomicU64, Ordering::SeqCst};

use elmem_util::hashutil::FastIntMap;
use elmem_util::{ByteSize, ElmemError, KeyId, SimTime};

use crate::classes::{ClassId, SizeClasses};
use crate::dump::{canonicalize, ClassDump, MetadataDump};
use crate::item::{Hotness, ItemMeta};
use crate::list::{storable, ClassList, Handles, Link, Slot, FREE, NIL};

/// The one list per class a store keeps, as a count: 1. Kept, `const`,
/// because `benchmark/src/workloads.rs:163` names it; it goes with
/// [`StoreConfig::shards`].
pub const fn default_shard_count() -> usize {
    1
}

/// Configuration for a [`SlabStore`].
///
/// # Example
///
/// ```
/// use elmem_store::StoreConfig;
/// use elmem_util::ByteSize;
///
/// let cfg = StoreConfig::with_memory(ByteSize::from_mib(64));
/// assert_eq!(cfg.memory, ByteSize::from_mib(64));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StoreConfig {
    /// Total memory dedicated to item storage.
    pub memory: ByteSize,
    /// The slab size-class ladder.
    pub classes: SizeClasses,
    /// Must be 1 ([`default_shard_count`]): a store keeps one MRU list
    /// per class. Kept because `benchmark/src/layers.rs:295` sets it.
    pub shards: usize,
}

impl StoreConfig {
    /// Config with the given memory and Memcached's default class ladder.
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
struct MedianCache {
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
    /// An item already resident in the class, by slot.
    Resident(u32),
    /// An accepted incoming item, by index into the accepted batch.
    Incoming(usize),
}

/// The store's accounting for one size class beside its list.
///
/// Capacity is *virtual*: the store grants pages to a class as a budget
/// (`capacity = pages × chunks_per_page`) and the class's slot lanes grow
/// lazily against it — which physical page a chunk lives on is not
/// modeled (DESIGN.md §14, non-goals).
#[derive(Debug, Clone)]
struct ClassMeta {
    chunks_per_page: u64,
    /// Pages granted to this class; none is ever taken back.
    pages: u64,
    /// Bumped on every MRU-list mutation of this class; a stale version is
    /// proof the class — and its median — is unchanged.
    version: u64,
    /// Version-stamped memo of the class's median hotness.
    median: MedianCache,
}

impl ClassMeta {
    fn new(chunks_per_page: u64) -> Self {
        ClassMeta {
            chunks_per_page,
            pages: 0,
            version: 0,
            median: MedianCache::default(),
        }
    }

    /// Chunks this class may hold under its current page grant.
    fn capacity(&self) -> u64 {
        self.pages * self.chunks_per_page
    }
}

/// A single Memcached node's storage engine.
///
/// See the [crate-level documentation](crate) for the model. All operations
/// take the current simulated time explicitly; the store has no internal
/// clock.
#[derive(Debug, Clone)]
pub struct SlabStore {
    classes: SizeClasses,
    /// One MRU list per class, in class order.
    lists: Vec<ClassList>,
    /// key id → (class, slot) handle for every resident key. The
    /// deterministic integer hasher keeps placement identical across runs
    /// and platforms, and hashes a `u32` id as it hashes the same `u64`.
    index: FastIntMap<u32, u32>,
    handles: Handles,
    class_meta: Vec<ClassMeta>,
    pages_total: u64,
    pages_used: u64,
    stats: StoreStats,
}

impl SlabStore {
    /// Creates an empty store.
    ///
    /// # Panics
    ///
    /// Panics if the configured memory is smaller than one page, if
    /// `config.shards` is not 1, or if its smallest chunk class could hold
    /// more chunks than the slot bits of a key's index handle address
    /// (DESIGN.md §14).
    pub fn new(config: StoreConfig) -> Self {
        let pages_total = config.memory.as_u64() / ByteSize::PAGE.as_u64();
        assert!(pages_total > 0, "store memory below one 1MB page");
        assert_eq!(config.shards, 1, "a store keeps one MRU list per class");
        let n_classes = config.classes.len();
        let handles = Handles::for_classes(n_classes);
        let chunks = pages_total.saturating_mul(config.classes.chunks_per_page(ClassId(0)));
        assert!(
            chunks <= 1 << handles.0,
            "{chunks} chunks, {} slot bits",
            handles.0
        );
        let class_meta = config
            .classes
            .ids()
            .map(|id| ClassMeta::new(config.classes.chunks_per_page(id)))
            .collect();
        SlabStore {
            classes: config.classes,
            lists: vec![ClassList::default(); n_classes],
            index: FastIntMap::default(),
            handles,
            class_meta,
            pages_total,
            pages_used: 0,
            stats: StoreStats::default(),
        }
    }

    /// The size-class ladder in use.
    pub fn classes(&self) -> &SizeClasses {
        &self.classes
    }

    /// Pages currently assigned to classes.
    pub fn pages_used(&self) -> u64 {
        self.pages_used
    }

    /// Number of items resident in one class.
    pub fn len_of_class(&self, id: ClassId) -> u64 {
        self.lists[id.0 as usize].len
    }

    /// Total resident items.
    pub fn len(&self) -> u64 {
        self.lists.iter().map(|l| l.len).sum()
    }

    /// Whether the store holds no items.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes of item payload currently resident (footprints, not chunks).
    pub fn bytes_used(&self) -> ByteSize {
        ByteSize(self.lists.iter().map(|l| l.bytes_used).sum())
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

    /// Where a resident key lives, as (class, slot).
    #[inline]
    fn locate(&self, key: KeyId) -> Option<(u16, u32)> {
        let id = u32::try_from(key.0).ok()?;
        self.index.get(&id).map(|&h| self.handles.decode(h))
    }

    /// Looks up a key, refreshing its MRU position and timestamp on hit.
    pub fn get(&mut self, key: KeyId, now: SimTime) -> Option<ItemMeta> {
        let Some((class, idx)) = self.locate(key) else {
            self.stats.misses += 1;
            return None;
        };
        let list = &mut self.lists[class as usize];
        list.touch(idx);
        let slot = &mut list.slots[idx as usize];
        slot.last_access = now;
        self.stats.hits += 1;
        self.class_meta[class as usize].version += 1;
        Some(slot.meta())
    }

    /// Looks up a key without disturbing MRU order or counters.
    pub fn peek(&self, key: KeyId) -> Option<ItemMeta> {
        let (class, idx) = self.locate(key)?;
        Some(self.lists[class as usize].item(idx))
    }

    /// Whether a key is resident.
    pub fn contains(&self, key: KeyId) -> bool {
        self.locate(key).is_some()
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
        let new_item = ItemMeta::new(key, value_size, now);
        let id = storable(key)?;
        let class = self.classes.class_to_store(new_item.footprint())?;
        let ci = class.0 as usize;
        if let Some(&handle) = self.index.get(&id) {
            let (old, idx) = self.handles.decode(handle);
            if old == class.0 {
                self.lists[ci].rewrite(idx, id, &new_item);
                self.class_meta[ci].version += 1;
                self.stats.sets += 1;
                return Ok(());
            }
            // A class change removes the old copy; the new one lands below.
            self.vacate(old, idx);
        }

        // A free chunk or page, else the class's LRU victim's slot, taken
        // over in place (Memcached semantics: eviction never crosses
        // classes).
        let idx = if self.secure_chunk(class) {
            self.lists[ci].insert::<true>(id, &new_item)
        } else {
            let list = &mut self.lists[ci];
            let tail = list.tail;
            if tail == NIL {
                return Err(ElmemError::OutOfMemory);
            }
            self.index.remove(&list.slots[tail as usize].key);
            list.rewrite(tail, id, &new_item);
            self.stats.evictions += 1;
            tail
        };
        self.class_meta[ci].version += 1;
        self.index.insert(id, self.handles.encode(class.0, idx));
        self.stats.sets += 1;
        Ok(())
    }

    /// A [`Fill`] of this store: a ring if no slot was ever taken.
    pub fn fill(&mut self) -> Fill<'_> {
        let ring = self.lists.iter().all(|l| l.slots.is_empty());
        Fill { store: self, ring }
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
        let (class, idx) = self.locate(key)?;
        Some(self.vacate(class, idx))
    }

    /// Unlinks and frees an occupied slot and its index entry; returns it.
    fn vacate(&mut self, class: u16, idx: u32) -> ItemMeta {
        let item = self.lists[class as usize].vacate(idx);
        self.index.remove(&(item.key.0 as u32));
        self.class_meta[class as usize].version += 1;
        item
    }

    /// Secures capacity for one more chunk in `class` without evicting:
    /// true if the class is under its capacity (a freed chunk exists
    /// somewhere) or a fresh page could be granted.
    fn secure_chunk(&mut self, class: ClassId) -> bool {
        let (len, meta) = (
            self.len_of_class(class),
            &mut self.class_meta[class.0 as usize],
        );
        if len >= meta.capacity() && self.pages_used < self.pages_total {
            meta.pages += 1;
            self.pages_used += 1;
        }
        len < meta.capacity()
    }

    /// Iterates a class's items in MRU (hottest-first) order.
    pub fn iter_class_mru(&self, class: ClassId) -> ClassMruIter<'_> {
        let list = &self.lists[class.0 as usize];
        ClassMruIter {
            links: &list.links,
            slots: &list.slots,
            head: list.head,
            tail: list.tail,
            remaining: list.len as usize,
        }
    }

    /// Iterates all resident items (unspecified order).
    pub fn iter(&self) -> impl Iterator<Item = ItemMeta> + '_ {
        let slots = self.index.values().map(|&h| self.handles.decode(h));
        slots.map(|(class, idx)| self.lists[class as usize].item(idx))
    }

    /// The MRU timestamps of a class in MRU order — the paper's
    /// "timestamp dump" Memcached modification (§V-A1).
    pub fn dump_class(&self, class: ClassId) -> ClassDump {
        let items = self.iter_class_mru(class).collect_with(|_, item| item);
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
    /// The O(n/2) walk is memoized against the class's mutation version:
    /// repeated probes of an unchanged class (the Master scores every
    /// node's every class per decision round) return the cached median
    /// without walking — or locking — anything.
    pub fn median_hotness(&self, class: ClassId) -> Option<Hotness> {
        let (len, meta) = (self.len_of_class(class), &self.class_meta[class.0 as usize]);
        if len == 0 {
            return None;
        }
        if let Some(median) = meta.median.get(meta.version) {
            return median;
        }
        let target = (len / 2) as usize;
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
        let mut resident: Vec<(Hotness, Origin)> = self
            .iter_class_mru(class)
            .collect_with(|slot, item| (item.hotness(), Origin::Resident(slot)));
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
        // while the list is still intact; its incoming items simply never
        // land.
        while self.class_meta[ci].capacity() < n as u64 && self.pages_used < self.pages_total {
            self.class_meta[ci].pages += 1;
            self.pages_used += 1;
        }
        let keep = (n as u64).min(self.class_meta[ci].capacity()) as usize;
        for origin in &merged[keep..] {
            if let Origin::Resident(slot) = *origin {
                self.vacate(class.0, slot);
            }
        }

        // Relink: empty the class's list without touching its slots, then
        // append the survivors hottest first — residents by pointer writes
        // alone, incoming items into fresh slots.
        let list = &mut self.lists[ci];
        (list.head, list.tail) = (NIL, NIL);
        let mut kept_incoming = 0u64;
        for origin in &merged[..keep] {
            match *origin {
                Origin::Resident(slot) => list.push::<false>(slot),
                Origin::Incoming(j) => {
                    let (id, item) = &accepted[j];
                    let slot = list.insert::<false>(*id, item);
                    self.index.insert(*id, self.handles.encode(class.0, slot));
                    kept_incoming += 1;
                }
            }
        }
        self.class_meta[ci].version += 1;
        self.stats.imported += kept_incoming;
        // Count the dropped overflow as evictions.
        self.stats.evictions += (n - keep) as u64;
        Ok(kept_incoming)
    }

    /// Exhaustively checks the store's internal invariants: per-class slot
    /// accounting (every chunk is exactly occupied or free), MRU-list
    /// structure (forward walks agree with prev pointers and length
    /// counters), byte/page/capacity conservation (no page ever leaves a
    /// class, so its lanes never outgrow its grant), and index ↔ slot
    /// agreement.
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
        for (ci, list) in self.lists.iter().enumerate() {
            list.audit().or_else(|e| fail(format!("class {ci}: {e}")))?;
        }
        // The index iterates in hash order, so the smallest offending key
        // is the one reported.
        let misindexed = self.index.iter().filter_map(|(&id, &handle)| {
            let (class, idx) = self.handles.decode(handle);
            let list = self.lists.get(class as usize);
            let at =
                list.and_then(|l| Some((l.links.get(idx as usize)?, l.slots.get(idx as usize)?)));
            let problem = match at {
                None => format!("maps to out-of-range slot {class}/{idx}"),
                Some((link, _)) if link.prev == FREE => format!("maps to free slot {class}/{idx}"),
                Some((_, slot)) if slot.key != id => format!("maps to slot holding k{}", slot.key),
                Some(_) => return None,
            };
            Some((id, format!("index: k{id} {problem}")))
        });
        if let Some((_, msg)) = misindexed.min_by_key(|m| m.0) {
            return fail(msg);
        }
        let (mut total_len, mut total_pages) = (0u64, 0u64);
        for (ci, (meta, list)) in self.class_meta.iter().zip(&self.lists).enumerate() {
            if list.slots.len() as u64 > meta.capacity() {
                return fail(format!(
                    "class {ci}: {} slots over capacity {} ({} pages of {} chunks)",
                    list.slots.len(),
                    meta.capacity(),
                    meta.pages,
                    meta.chunks_per_page
                ));
            }
            total_len += list.len;
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
        let indexed = self.index.len() as u64;
        if indexed != total_len {
            return fail(format!(
                "index holds {indexed} keys but classes hold {total_len} items"
            ));
        }
        Ok(())
    }

    /// Applies `damage` to the first non-empty class list. The hooks below
    /// exist so cross-crate tests can prove [`SlabStore::audit`] catches
    /// corruption; never call them outside tests.
    fn corrupt(&mut self, damage: impl FnOnce(&mut ClassList)) {
        if let Some(list) = self.lists.iter_mut().find(|l| l.len > 0) {
            damage(list);
        }
    }

    /// Breaks the byte accounting.
    #[doc(hidden)]
    pub fn corrupt_bytes_used_for_tests(&mut self) {
        self.corrupt(|list| list.bytes_used += 1);
    }

    /// Puts a live slot, the MRU head, on the free list.
    #[doc(hidden)]
    pub fn corrupt_free_stamp_for_tests(&mut self) {
        self.corrupt(|list| list.free.push(list.head));
    }

    /// Marks a linked slot, the MRU head, free.
    #[doc(hidden)]
    pub fn corrupt_linked_stamp_for_tests(&mut self) {
        self.corrupt(|list| list.links[list.head as usize].prev = FREE);
    }

    /// Leaves the link lane one entry short of the item lane.
    #[doc(hidden)]
    pub fn corrupt_lane_length_for_tests(&mut self) {
        self.corrupt(|list| list.slots.push(list.slots[list.head as usize]));
    }
}

/// A bulk load of keys new to the store, from [`SlabStore::fill`]. On a
/// store no slot was ever taken in, the fill is a *ring*: [`set`](Self::set)
/// is [`SlabStore::set`] on the item lane alone, an evicting set overwriting
/// its class's oldest slot in place, and [`finish`](Self::finish) (or a
/// drop) links each class once and indexes the survivors once; a key may be
/// set again only after `finish` (DESIGN.md §14).
#[derive(Debug)]
pub struct Fill<'a> {
    store: &'a mut SlabStore,
    /// The links and the index are still to be built.
    ring: bool,
}

impl Fill<'_> {
    /// [`SlabStore::set`], errors included, of a key not yet set in this fill.
    pub fn set(&mut self, key: KeyId, value_size: u32, now: SimTime) -> Result<(), ElmemError> {
        if !self.ring {
            return self.store.set(key, value_size, now);
        }
        let item = ItemMeta::new(key, value_size, now);
        let store = &mut *self.store;
        let id = storable(key)?;
        let class = store.classes.class_to_store(item.footprint())?;
        let ci = class.0 as usize;
        let secured = store.secure_chunk(class);
        let (list, meta) = (&mut store.lists[ci], &mut store.class_meta[ci]);
        if secured {
            list.append(id, &item);
            meta.version += 1;
        } else {
            // No page is left and none comes back, so the class's slot
            // count is final: its oldest item's slot takes the new one.
            if list.tail == NIL {
                return Err(ElmemError::OutOfMemory);
            }
            list.overwrite_tail(id, &item);
            meta.version += 1;
            store.stats.evictions += 1;
        }
        store.stats.sets += 1;
        Ok(())
    }

    /// Links each class of a ring, newest slot at the head, and indexes
    /// every slot, into an index sized once for them; from here on `set`
    /// is [`SlabStore::set`]. Idempotent.
    pub fn finish(&mut self) {
        if !std::mem::take(&mut self.ring) {
            return;
        }
        let SlabStore {
            lists,
            index,
            handles,
            ..
        } = &mut *self.store;
        let survivors = lists.iter().map(|l| l.len as usize).sum();
        index.reserve(survivors);
        for (class, list) in lists.iter_mut().enumerate() {
            list.link_ring();
            for (idx, slot) in (0..).zip(&list.slots) {
                index.insert(slot.key, handles.encode(class as u16, idx));
            }
        }
        debug_assert_eq!(index.len(), survivors, "a key set twice in one fill");
    }
}

impl Drop for Fill<'_> {
    fn drop(&mut self) {
        self.finish();
    }
}

/// Iterator over a class's items in MRU order — the one ordered-walk kernel
/// under the dump, the median, FuseCache's resident list and
/// `batch_import`. A step loads one 8-byte link and nothing else: the chain
/// of dependent loads runs through the link lane, and the items it passes
/// are independent loads the caller may overlap or skip
/// ([`nth`](Iterator::nth) does). The walk can be taken from its cold end
/// too. Created by [`SlabStore::iter_class_mru`].
#[derive(Debug)]
pub struct ClassMruIter<'a> {
    links: &'a [Link],
    slots: &'a [Slot],
    /// The hottest and the coldest slot not yet yielded; dead once
    /// `remaining` is 0.
    head: u32,
    tail: u32,
    /// Items not yet yielded from either end: the class length, counted
    /// down.
    remaining: usize,
}

impl ClassMruIter<'_> {
    /// Advances one item from the hot end (`HOT`: the next in MRU order)
    /// or from the cold end (the last), returning its slot;
    /// [`item`](Self::item) reads it.
    fn step<const HOT: bool>(&mut self) -> Option<u32> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let idx = if HOT { self.head } else { self.tail };
        let link = self.links[idx as usize];
        if HOT {
            self.head = link.next;
        } else {
            self.tail = link.prev;
        }
        Some(idx)
    }

    /// The item in a slot [`step`](Self::step) yielded.
    fn item(&self, idx: u32) -> ItemMeta {
        self.slots[idx as usize].meta()
    }

    /// Drains the walk into a vector in MRU order, one item from the hot
    /// end and one from the cold end in turn. A list walk is a chain of
    /// dependent loads, each a likely cache miss; the two ends are two
    /// independent chains, so their misses overlap.
    fn collect_with<T>(mut self, f: impl Fn(u32, ItemMeta) -> T) -> Vec<T> {
        let mut hot = Vec::with_capacity(self.remaining);
        let mut cold = Vec::with_capacity(self.remaining / 2);
        while let Some(idx) = self.step::<true>() {
            hot.push(f(idx, self.item(idx)));
            if let Some(idx) = self.step::<false>() {
                cold.push(f(idx, self.item(idx)));
            }
        }
        hot.extend(cold.into_iter().rev());
        hot
    }
}

impl Iterator for ClassMruIter<'_> {
    type Item = ItemMeta;

    fn next(&mut self) -> Option<ItemMeta> {
        let idx = self.step::<true>()?;
        Some(self.item(idx))
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
            let config = StoreConfig {
                classes,
                ..StoreConfig::with_memory(ByteSize::from_mib(mib))
            };
            let built = std::panic::catch_unwind(|| SlabStore::new(config));
            assert_eq!(built.is_err(), refused, "{mib} MiB");
        }
    }

    #[test]
    fn new_refuses_a_second_list_per_class() {
        for n in [0, 2, 4] {
            let config = StoreConfig {
                shards: n,
                ..StoreConfig::with_memory(ByteSize::from_mib(1))
            };
            let built = std::panic::catch_unwind(|| SlabStore::new(config));
            assert!(built.is_err(), "{n} lists a class");
        }
    }

    /// A store of `mib` MiB over 128 B to 1 KiB chunks.
    fn store_of(mib: u64) -> SlabStore {
        SlabStore::new(StoreConfig {
            classes: SizeClasses::new(128, 2.0, 1024),
            ..StoreConfig::with_memory(ByteSize::from_mib(mib))
        })
    }

    fn small_store() -> SlabStore {
        store_of(2)
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

    /// A one-page store: 1 MiB / 128 B = 8192 chunks in the smallest class.
    fn one_page_store() -> SlabStore {
        store_of(1)
    }

    #[test]
    fn lru_eviction_within_class() {
        let mut s = one_page_store();
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

    #[test]
    fn eviction_victim_is_lru_not_insertion_order() {
        let mut s = one_page_store();
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

    #[test]
    fn an_evicting_set_leaves_what_delete_then_set_leaves_slot_for_slot() {
        // 64 KiB to 1 MiB chunks, 16 to 1 a page, three pages: class 0
        // holds 16 items, class 2 four and class 4 one, its tail its head.
        // Once the pages are gone, `a` evicts through `set` while `b` first
        // deletes the class's LRU key, then sets: the vacate-then-insert an
        // evicting set once was. Gets and rewrites in between keep the LRU
        // order apart from the insertion order.
        let config = StoreConfig {
            classes: SizeClasses::new(64 << 10, 2.0, 1 << 20),
            ..StoreConfig::with_memory(ByteSize::from_mib(3))
        };
        let (mut a, mut b) = (SlabStore::new(config.clone()), SlabStore::new(config));
        let size = |class: u64, i: u64| match class {
            0 => 10_000 + (i * 7_919) % 50_000,
            2 => 140_000 + (i * 7_919) % 110_000,
            _ => 600_000 + (i * 7_919) % 400_000,
        } as u32;
        // Every lane entry, list end and counter, and the index; `b`'s
        // deletes are `a`'s evictions.
        let same = |a: &SlabStore, b: &SlabStore, step: u64| {
            for (c, (la, lb)) in a.lists.iter().zip(&b.lists).enumerate() {
                assert_eq!(la.links, lb.links, "step {step}, class {c}: links");
                assert_eq!(la.slots, lb.slots, "step {step}, class {c}: slots");
                let ends = |l: &ClassList| (l.free.clone(), l.head, l.tail, l.len, l.bytes_used);
                assert_eq!(ends(la), ends(lb), "step {step}, class {c}: free, ends");
            }
            let index = |s: &SlabStore| {
                let mut pairs: Vec<(u32, u32)> = s.index.iter().map(|(&k, &h)| (k, h)).collect();
                pairs.sort_unstable();
                pairs
            };
            assert_eq!(index(a), index(b), "step {step}: index");
            let evicted = StoreStats {
                evictions: b.stats.deletes,
                deletes: 0,
                ..b.stats
            };
            assert_eq!(a.stats, evicted, "step {step}: stats");
        };
        let (mut class_of, mut in_place) = (Vec::new(), 0);
        for i in 0..600u64 {
            let at = t(i + 1);
            if i % 3 == 2 {
                let k = KeyId(i * 7 % i);
                assert_eq!(a.get(k, at), b.get(k, at), "get at step {i}");
            }
            // A new key, or every fifth step a rewrite of an older one.
            let (k, class) = if i % 5 == 4 {
                (i / 2, class_of[(i / 2) as usize])
            } else {
                (i, [0, 0, 2, 4][(i % 4) as usize])
            };
            class_of.push([0, 0, 2, 4][(i % 4) as usize]);
            let ci = class as usize;
            let full = b.lists[ci].len == b.class_meta[ci].capacity();
            if b.contains(KeyId(k)) {
                in_place += 1;
            } else if full && b.pages_used == b.pages_total {
                let victim = b.iter_class_mru(ClassId(class as u16)).last().unwrap();
                assert!(b.delete(victim.key));
            }
            let v = size(class, i);
            assert_eq!(a.set(KeyId(k), v, at), b.set(KeyId(k), v, at), "set {i}");
            same(&a, &b, i);
        }
        // 600 sets: 21 into fresh slots, 3 rewrites in place, the rest evict.
        assert_eq!((a.stats.evictions, in_place), (576, 3));
        a.audit().unwrap();
        b.audit().unwrap();
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
        let mut s = one_page_store();
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
    fn one_instant_dump_is_not_quadratic() {
        // One 200k-item class: a bulk load that shares one instant leaves
        // the list far from the canonical order, so the dump sorts all of
        // it. Anything quadratic takes minutes here; both the spread a
        // serving node has and the all-one-instant pattern must take
        // milliseconds and read as the full sort.
        for spread in [true, false] {
            let mut s = store_of(32);
            for k in 0..200_000 {
                s.set(KeyId(k), 10, if spread { t(k) } else { t(7) })
                    .unwrap();
            }
            let class = s.classes().class_for(item_footprint(10)).unwrap();
            let mut want: Vec<ItemMeta> = s.iter_class_mru(class).collect();
            want.sort_by_key(|i| std::cmp::Reverse(i.hotness()));
            let dump = s.dump_metadata();
            assert_eq!(dump.total_items(), 200_000);
            assert_eq!(dump.classes[0].items, want);
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
        let mut s = one_page_store();
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
        s.audit().unwrap();
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
        // Imports and deletes: still consistent.
        let class = s.classes().class_for(item_footprint(100)).unwrap();
        let batch: Vec<ItemMeta> = (1000..1020)
            .map(|k| ItemMeta::new(KeyId(k), 100, t(600)))
            .collect();
        s.batch_import(class, &batch, ImportMode::Merge).unwrap();
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
        // the report names the class it found it in.
        type Hook = fn(&mut SlabStore);
        let cases: [(Hook, &str); 3] = [
            (SlabStore::corrupt_free_stamp_for_tests, "is occupied (prev"),
            (SlabStore::corrupt_linked_stamp_for_tests, "is marked free"),
            (SlabStore::corrupt_lane_length_for_tests, "links but"),
        ];
        for (corrupt, what) in cases {
            let mut s = one_page_store();
            for k in 0..20 {
                s.set(KeyId(k), 50, t(k)).unwrap();
            }
            s.delete(KeyId(3));
            s.audit().unwrap();
            corrupt(&mut s);
            let err = s.audit().unwrap_err();
            assert!(matches!(err, ElmemError::InvariantViolation(_)), "{err}");
            let msg = err.to_string();
            assert!(msg.contains("class 0: "), "{msg}");
            assert!(msg.contains(what), "{msg}");
        }
    }

    #[test]
    fn audit_catches_lanes_past_the_page_grant() {
        // No page ever leaves a class, so its lanes never outgrow its
        // grant: one free slot past it is corruption. Class 3's 1 KiB
        // chunks fill its one page at 1 024.
        let mut s = one_page_store();
        for k in 0..1_024 {
            s.set(KeyId(k), 900, t(k)).unwrap();
        }
        s.audit().unwrap();
        let list = &mut s.lists[3];
        let grant = list.slots.len() as u32;
        list.links.push(Link {
            prev: FREE,
            next: NIL,
        });
        list.slots.push(list.slots[0]);
        list.free.push(grant);
        let err = s.audit().unwrap_err();
        assert!(matches!(err, ElmemError::InvariantViolation(_)), "{err}");
        assert!(
            err.to_string()
                .contains("class 3: 1025 slots over capacity 1024"),
            "{err}"
        );
    }

    #[test]
    fn clone_keeps_lane_capacity() {
        // A derived `Clone` trims every `Vec` to its length, so the first
        // insert into a cloned store moved (reallocated and copied) both
        // lanes of the class it landed in.
        let mut s = one_page_store();
        for k in 0..100 {
            s.set(KeyId(k), 10, t(k)).unwrap();
        }
        s.delete(KeyId(5));
        let mut clone = s.clone();
        clone.audit().unwrap();
        assert_eq!(clone.dump_metadata(), s.dump_metadata());
        let (copy, orig) = (&clone.lists[0], &s.lists[0]);
        assert!(copy.links.capacity() >= orig.links.capacity());
        assert!(copy.slots.capacity() >= orig.slots.capacity());
        assert!(copy.free.capacity() >= orig.free.capacity());
        assert!(orig.links.len() < orig.links.capacity(), "no room to test");
        // While the lanes have room, no set moves one.
        let lanes = |s: &SlabStore| (s.lists[0].links.as_ptr(), s.lists[0].slots.as_ptr());
        let before = lanes(&clone);
        let mut key = 1_000;
        while clone.lists[0].links.len() < clone.lists[0].links.capacity() {
            clone.set(KeyId(key), 10, t(key)).unwrap();
            assert_eq!(lanes(&clone), before, "set {key} moved a lane");
            key += 1;
        }
        assert!(key > 1_001, "only the freed slot was ever filled");
        clone.audit().unwrap();
    }

    #[test]
    fn a_ring_fill_leaves_what_per_key_sets_leave_slot_for_slot() {
        // 64 KiB to 1 MiB chunks, 16 to 1 a page, five pages. Classes 0
        // and 1 take two pages each, interleaved; class 2 the last page
        // and one of its four slots; class 4 finds no page. Then 0 and 1
        // wrap their rings six times over while class 2 still takes fresh
        // slots, until it too evicts, and class 4 is refused again.
        let config = StoreConfig {
            classes: SizeClasses::new(64 << 10, 2.0, 1 << 20),
            ..StoreConfig::with_memory(ByteSize::from_mib(5))
        };
        let size = |class: u64, i: u64| match class {
            0 => 10_000 + (i * 7_919) % 50_000,
            1 => 70_000 + (i * 7_919) % 55_000,
            2 => 140_000 + (i * 7_919) % 110_000,
            _ => 600_000 + (i * 7_919) % 400_000,
        } as u32;
        let mut stream: Vec<u64> = Vec::new();
        for i in 0..32 {
            stream.extend(if i % 2 == 0 { &[0, 1][..] } else { &[0] });
        }
        stream.extend([2, 4]);
        for i in 0..300 {
            stream.push(if i % 3 == 0 { 1 } else { 0 });
            if i % 50 == 0 {
                stream.push(2);
            }
        }
        stream.push(4);
        let sets = stream.iter().zip(0..).map(|(&c, i)| (KeyId(i), size(c, i)));
        let sets: Vec<(KeyId, u32)> = sets.collect();

        // Every lane entry, list end, counter and class record, and the
        // index, compared; the lanes' capacities too, as the heap sees them.
        let same = |a: &SlabStore, b: &SlabStore, cut: usize| {
            for (c, (la, lb)) in a.lists.iter().zip(&b.lists).enumerate() {
                assert_eq!(la.links, lb.links, "cut {cut}, class {c}: links");
                assert_eq!(la.slots, lb.slots, "cut {cut}, class {c}: slots");
                let ends = |l: &ClassList| (l.free.clone(), l.head, l.tail, l.len, l.bytes_used);
                assert_eq!(
                    ends(la),
                    ends(lb),
                    "cut {cut}, class {c}: free, ends, counts"
                );
                let caps = |l: &ClassList| (l.links.capacity(), l.slots.capacity());
                assert_eq!(caps(la), caps(lb), "cut {cut}, class {c}: capacities");
            }
            let meta = |s: &SlabStore| -> Vec<_> {
                let m = s.class_meta.iter();
                m.map(|m| (m.pages, m.version)).collect()
            };
            assert_eq!(meta(a), meta(b), "cut {cut}: pages, version");
            assert_eq!(
                (a.stats, a.pages_used),
                (b.stats, b.pages_used),
                "cut {cut}"
            );
            let index = |s: &SlabStore| {
                let mut pairs: Vec<(u32, u32)> = s.index.iter().map(|(&k, &h)| (k, h)).collect();
                pairs.sort_unstable();
                pairs
            };
            assert_eq!(index(a), index(b), "cut {cut}: index");
        };
        // A fill dropped after every prefix, so at every ring position.
        let mut filled = SlabStore::new(config.clone());
        for cut in 0..=sets.len() {
            let (mut a, mut b) = (
                SlabStore::new(config.clone()),
                SlabStore::new(config.clone()),
            );
            let mut fill = b.fill();
            for (&(key, v), i) in sets[..cut].iter().zip(1..) {
                let at = SimTime::from_nanos(i);
                assert_eq!(a.set(key, v, at), fill.set(key, v, at), "set {i}");
            }
            drop(fill);
            same(&a, &b, cut);
            filled = b;
        }
        // Evictions: 232 sets into 32 slots, 116 into 16 and 7 into 4.
        assert_eq!(filled.stats.evictions, 200 + 100 + 3);
    }
}
