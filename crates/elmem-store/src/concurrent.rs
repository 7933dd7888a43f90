//! The `Sync` serving facade over the sharded store: the same [`Shard`]s the
//! serial [`SlabStore`] drives, each behind its own `Mutex`, with the facade's
//! accounting (LRU clock, per-class budgets, counters) in atomics. The fast
//! path holds one shard lock; the slow path (page grant or eviction) drops it,
//! takes the global `alloc` lock and re-runs, so no lock cycle can form. Under
//! a serialized driver it is op-for-op identical to [`SlabStore`]
//! (`tests/prop_store_sharding.rs`); under real threads the eviction victim is
//! approximate, as in memcached. Dump, import and planning stay serial
//! ([`into_serial`](ConcurrentSlabStore::into_serial) at a quiesce point;
//! DESIGN.md §14).

use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::Mutex;

use elmem_util::{ElmemError, KeyId, SimTime};

use crate::classes::{ClassId, SizeClasses};
use crate::item::ItemMeta;
use crate::shard::{shard_of, storable, Resident, Shard};
use crate::store::{ClassMeta, MedianCache, SlabStore, StoreConfig, StoreStats};

/// Bound on secure-capacity retries in the slow path: under contention a
/// freed chunk can be claimed by a racing thread before the freeing thread
/// re-claims it, so eviction retries a few times before reporting OOM.
/// Serialized drivers always succeed on the first or second attempt.
const MAX_ALLOC_RETRIES: usize = 8;

/// Facade-level accounting for one class, in atomics. `capacity` is
/// `pages × chunks_per_page`; it only ever grows while the facade is live
/// (page reassignment is serial-only), which is what makes the optimistic
/// chunk claim sound.
#[derive(Debug)]
struct ClassAtomics {
    chunks_per_page: u64,
    pages: AtomicU64,
    len: AtomicU64,
    pressure: AtomicU64,
    version: AtomicU64,
}

#[derive(Debug, Default)]
struct StatsAtomics {
    hits: AtomicU64,
    misses: AtomicU64,
    sets: AtomicU64,
    evictions: AtomicU64,
    deletes: AtomicU64,
    imported: AtomicU64,
}

impl StatsAtomics {
    fn from_stats(s: StoreStats) -> Self {
        StatsAtomics {
            hits: AtomicU64::new(s.hits),
            misses: AtomicU64::new(s.misses),
            sets: AtomicU64::new(s.sets),
            evictions: AtomicU64::new(s.evictions),
            deletes: AtomicU64::new(s.deletes),
            imported: AtomicU64::new(s.imported),
        }
    }

    fn snapshot(&self) -> StoreStats {
        StoreStats {
            hits: self.hits.load(SeqCst),
            misses: self.misses.load(SeqCst),
            sets: self.sets.load(SeqCst),
            evictions: self.evictions.load(SeqCst),
            deletes: self.deletes.load(SeqCst),
            imported: self.imported.load(SeqCst),
        }
    }
}

/// A `Sync` slab store for real-thread serving: the same shards as
/// [`SlabStore`], each behind its own lock. See the module docs for the
/// concurrency model and the serial-equivalence argument.
#[derive(Debug)]
pub struct ConcurrentSlabStore {
    classes: SizeClasses,
    n_shards: u32,
    shards: Vec<Mutex<Shard>>,
    class_state: Vec<ClassAtomics>,
    pages_total: u64,
    pages_used: AtomicU64,
    lru_clock: AtomicU64,
    stats: StatsAtomics,
    /// Serializes page grants and evictions (the slow path).
    alloc: Mutex<()>,
}

impl ConcurrentSlabStore {
    /// Creates an empty concurrent store.
    ///
    /// # Panics
    ///
    /// Panics if the configured memory is smaller than one page.
    pub fn new(config: StoreConfig) -> Self {
        Self::from_serial(SlabStore::new(config))
    }

    /// Wraps a serial store for concurrent serving (takes ownership: the
    /// two facades are views of the same shards, never live aliases).
    pub fn from_serial(store: SlabStore) -> Self {
        let SlabStore {
            classes,
            n_shards,
            shards,
            class_meta,
            pages_total,
            pages_used,
            lru_clock,
            stats,
        } = store;
        ConcurrentSlabStore {
            classes,
            n_shards,
            shards: shards.into_iter().map(Mutex::new).collect(),
            class_state: class_meta
                .iter()
                .map(|m| ClassAtomics {
                    chunks_per_page: m.chunks_per_page,
                    pages: AtomicU64::new(m.pages),
                    len: AtomicU64::new(m.len),
                    pressure: AtomicU64::new(m.pressure),
                    version: AtomicU64::new(m.version),
                })
                .collect(),
            pages_total,
            pages_used: AtomicU64::new(pages_used),
            lru_clock: AtomicU64::new(lru_clock),
            stats: StatsAtomics::from_stats(stats),
            alloc: Mutex::new(()),
        }
    }

    /// Unwraps back into the serial facade (the quiesce point for dumps,
    /// imports, rebalancing, audits, and migration planning).
    pub fn into_serial(self) -> SlabStore {
        SlabStore {
            classes: self.classes,
            n_shards: self.n_shards,
            shards: self
                .shards
                .into_iter()
                // Poisoned only by a panic inside a shard op: a bug already raised.
                .map(|m| m.into_inner().expect("shard lock"))
                .collect(),
            class_meta: self
                .class_state
                .iter()
                .map(|c| ClassMeta {
                    chunks_per_page: c.chunks_per_page,
                    pages: c.pages.load(SeqCst),
                    len: c.len.load(SeqCst),
                    pressure: c.pressure.load(SeqCst),
                    version: c.version.load(SeqCst),
                    median: MedianCache::default(),
                })
                .collect(),
            pages_total: self.pages_total,
            pages_used: self.pages_used.load(SeqCst),
            lru_clock: self.lru_clock.load(SeqCst),
            stats: self.stats.snapshot(),
        }
    }

    /// The size-class ladder in use.
    pub fn classes(&self) -> &SizeClasses {
        &self.classes
    }

    /// Number of shards (= the maximum number of non-contending threads).
    pub fn shard_count(&self) -> usize {
        self.n_shards as usize
    }

    /// Total resident items (a racy-but-consistent sum of the class
    /// counters).
    pub fn len(&self) -> u64 {
        self.class_state.iter().map(|c| c.len.load(SeqCst)).sum()
    }

    /// Whether the store holds no items.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of the operation counters.
    pub fn stats(&self) -> StoreStats {
        self.stats.snapshot()
    }

    fn next_seq(&self) -> u64 {
        // fetch_add's read-modify-write order makes stamps globally unique
        // and increasing; callers draw them *inside* a shard lock, so each
        // shard list stays strictly stamp-descending.
        self.lru_clock.fetch_add(1, SeqCst) + 1
    }

    fn lock_shard(&self, si: usize) -> std::sync::MutexGuard<'_, Shard> {
        // Poisoned only by a panic that may have left the shard half-updated.
        self.shards[si].lock().expect("shard lock")
    }

    /// Looks up a key, refreshing its MRU position and timestamp on hit,
    /// exactly like [`SlabStore::get`].
    pub fn get(&self, key: KeyId, now: SimTime) -> Option<ItemMeta> {
        let mut sh = self.lock_shard(shard_of(key, self.n_shards));
        let Some((class, item)) = sh.access(key, now, || self.next_seq()) else {
            self.stats.misses.fetch_add(1, SeqCst);
            return None;
        };
        self.stats.hits.fetch_add(1, SeqCst);
        self.class(class).version.fetch_add(1, SeqCst);
        Some(item)
    }

    /// Looks up a key without disturbing MRU order or counters.
    pub fn peek(&self, key: KeyId) -> Option<ItemMeta> {
        let sh = self.lock_shard(shard_of(key, self.n_shards));
        let (class, idx) = sh.locate(key)?;
        Some(sh.item(class, idx))
    }

    /// Whether a key is resident.
    pub fn contains(&self, key: KeyId) -> bool {
        let si = shard_of(key, self.n_shards);
        self.lock_shard(si).locate(key).is_some()
    }

    /// Inserts or updates a key, moving it to the MRU head.
    ///
    /// # Errors
    ///
    /// Same as [`SlabStore::set`].
    pub fn set(&self, key: KeyId, value_size: u32, now: SimTime) -> Result<(), ElmemError> {
        self.set_item(ItemMeta::new(key, value_size, now))
    }

    /// Removes a key; returns whether it was present.
    pub fn delete(&self, key: KeyId) -> bool {
        let mut sh = self.lock_shard(shard_of(key, self.n_shards));
        let Some((class, idx)) = sh.locate(key) else {
            return false;
        };
        sh.vacate(class, idx, true);
        self.uncount(class);
        self.stats.deletes.fetch_add(1, SeqCst);
        true
    }

    fn class(&self, class: u16) -> &ClassAtomics {
        &self.class_state[class as usize]
    }

    /// Counts one item out of `class`.
    fn uncount(&self, class: u16) {
        self.class(class).len.fetch_sub(1, SeqCst);
        self.class(class).version.fetch_add(1, SeqCst);
    }

    /// Optimistically claims one chunk of `class`'s capacity: increments
    /// the class `len` iff it is below `pages × chunks_per_page`. Sound
    /// because capacity never shrinks while this facade is live.
    fn try_claim_chunk(&self, ci: usize) -> bool {
        let cs = &self.class_state[ci];
        let capacity = cs.pages.load(SeqCst) * cs.chunks_per_page;
        cs.len
            .fetch_update(SeqCst, SeqCst, |l| (l < capacity).then_some(l + 1))
            .is_ok()
    }

    fn set_item(&self, new_item: ItemMeta) -> Result<(), ElmemError> {
        let id = storable(new_item.key)?;
        let footprint = new_item.footprint();
        let class = self
            .classes
            .class_for(footprint)
            .ok_or(ElmemError::ItemTooLarge {
                item_bytes: footprint,
                max_chunk_bytes: self.classes.max_chunk(),
            })?;
        let si = shard_of(new_item.key, self.n_shards);
        // Fast path: one shard lock, no global coordination.
        {
            let mut sh = self.lock_shard(si);
            if self.try_update(&mut sh, class, id, &new_item) {
                return Ok(());
            }
            if self.try_claim_chunk(class.0 as usize) {
                self.insert_claimed(&mut sh, class, id, &new_item);
                return Ok(());
            }
        }
        // Slow path: drop the shard lock (see module docs), serialize on
        // the alloc lock, re-lock, and re-run — the key may have been
        // inserted or capacity freed in the window.
        // Guards no data; poisoned only by a panic that poisoned a shard too.
        let _alloc = self.alloc.lock().expect("alloc lock");
        let mut sh = self.lock_shard(si);
        if self.try_update(&mut sh, class, id, &new_item) {
            return Ok(());
        }
        self.secure_chunk_locked(class, si, &mut sh)?;
        self.insert_claimed(&mut sh, class, id, &new_item);
        Ok(())
    }

    /// Handles the key-already-resident cases. Returns `true` if the set
    /// completed (same-class in-place update); on a size-class change the
    /// old entry is removed (exactly the serial facade's order) and `false`
    /// is returned so the caller inserts fresh.
    fn try_update(&self, sh: &mut Shard, class: ClassId, id: u32, item: &ItemMeta) -> bool {
        let resident = sh.update(class.0, id, item, || self.next_seq());
        match resident {
            Resident::Updated => {
                self.class(class.0).version.fetch_add(1, SeqCst);
                self.stats.sets.fetch_add(1, SeqCst);
            }
            Resident::Removed(old) => self.uncount(old),
            Resident::Absent => {}
        }
        matches!(resident, Resident::Updated)
    }

    /// Inserts a new item whose chunk has already been claimed.
    fn insert_claimed(&self, sh: &mut Shard, class: ClassId, id: u32, item: &ItemMeta) {
        let seq = self.next_seq();
        self.class(class.0).version.fetch_add(1, SeqCst);
        sh.insert::<true>(class.0, id, item, seq, true);
        self.stats.sets.fetch_add(1, SeqCst);
    }

    /// Under the alloc lock: secures one claimed chunk of `class`, granting
    /// a fresh page or evicting the globally coldest item of the class.
    /// `own` is the caller's already-locked shard (never re-locked).
    fn secure_chunk_locked(
        &self,
        class: ClassId,
        si: usize,
        own: &mut Shard,
    ) -> Result<(), ElmemError> {
        let ci = class.0 as usize;
        for _ in 0..MAX_ALLOC_RETRIES {
            if self.try_claim_chunk(ci) {
                return Ok(());
            }
            // Grant a fresh page if the store has one to give.
            if self
                .pages_used
                .fetch_update(SeqCst, SeqCst, |p| (p < self.pages_total).then_some(p + 1))
                .is_ok()
            {
                self.class_state[ci].pages.fetch_add(1, SeqCst);
                continue; // capacity grew by ≥ 1 chunk; re-claim
            }
            // Evict the globally coldest item of the class: scan the shard
            // tails (locking peers one at a time), then evict the victim
            // shard's current tail. Exact when ops are serialized;
            // approximate under contention (Memcached's LRU is too).
            let mut coldest: Option<(usize, u64)> = None;
            for sj in 0..self.shards.len() {
                let tail = if sj == si {
                    own.tail_stamp(class.0)
                } else {
                    self.lock_shard(sj).tail_stamp(class.0)
                };
                if let Some(seq) = tail {
                    if coldest.is_none_or(|(_, s)| seq < s) {
                        coldest = Some((sj, seq));
                    }
                }
            }
            let Some((sj, _)) = coldest else {
                self.class_state[ci].pressure.fetch_add(1, SeqCst);
                return Err(ElmemError::OutOfMemory);
            };
            let evicted = if sj == si {
                own.evict_tail(class.0, true)
            } else {
                self.lock_shard(sj).evict_tail(class.0, true)
            };
            if evicted.is_some() {
                self.uncount(class.0);
                self.class_state[ci].pressure.fetch_add(1, SeqCst);
                self.stats.evictions.fetch_add(1, SeqCst);
            }
        }
        self.class_state[ci].pressure.fetch_add(1, SeqCst);
        Err(ElmemError::OutOfMemory)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classes::SizeClasses;
    use elmem_util::ByteSize;

    fn config() -> StoreConfig {
        StoreConfig {
            memory: ByteSize::from_mib(2),
            classes: SizeClasses::new(128, 2.0, 1024),
            shards: 4,
        }
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn serving_ops_roundtrip() {
        let s = ConcurrentSlabStore::new(config());
        s.set(KeyId(1), 10, t(1)).unwrap();
        s.set(KeyId(2), 10, t(1)).unwrap();
        assert_eq!(s.len(), 2);
        assert!(s.contains(KeyId(1)));
        let item = s.get(KeyId(1), t(2)).unwrap();
        assert_eq!(item.last_access, t(2));
        assert!(s.get(KeyId(3), t(3)).is_none());
        assert_eq!((s.stats().hits, s.stats().misses), (1, 1));
        assert!(s.delete(KeyId(1)));
        assert!(!s.delete(KeyId(1)));
        assert!(s.delete(KeyId(2)));
        assert!(s.is_empty());
        s.into_serial().audit().unwrap();
    }

    #[test]
    fn serialized_ops_match_serial_facade() {
        // The one-op-at-a-time equivalence the proptest pins, in miniature.
        let mut serial = SlabStore::new(config());
        let conc = ConcurrentSlabStore::new(config());
        // Sizes span two classes; the 2-page store can give each a page.
        for k in 0..300u64 {
            let size = 10 + (k as u32 % 150);
            serial.set(KeyId(k), size, t(k + 1)).unwrap();
            conc.set(KeyId(k), size, t(k + 1)).unwrap();
            if k % 3 == 0 {
                assert_eq!(
                    serial.get(KeyId(k / 2), t(k + 1)).is_some(),
                    conc.get(KeyId(k / 2), t(k + 1)).is_some()
                );
            }
            if k % 7 == 0 {
                assert_eq!(serial.delete(KeyId(k / 3)), conc.delete(KeyId(k / 3)));
            }
        }
        let conc = conc.into_serial();
        assert_eq!(serial.stats(), conc.stats());
        assert_eq!(serial.len(), conc.len());
        assert_eq!(
            format!("{:?}", serial.dump_metadata()),
            format!("{:?}", conc.dump_metadata())
        );
        conc.audit().unwrap();
    }

    #[test]
    fn eviction_under_pressure_conserves_accounting() {
        // One-page store: force the slow path (grant, then evictions).
        let s = ConcurrentSlabStore::new(StoreConfig {
            memory: ByteSize::from_mib(1),
            classes: SizeClasses::new(128, 2.0, 1024),
            shards: 4,
        });
        let cap = ByteSize::PAGE.as_u64() / 128;
        for k in 0..cap + 50 {
            s.set(KeyId(k), 10, t(k + 1)).unwrap();
        }
        assert_eq!(s.len(), cap);
        assert_eq!(s.stats().evictions, 50);
        s.into_serial().audit().unwrap();
    }

    #[test]
    fn real_threads_conserve_items_and_bytes() {
        let s = std::sync::Arc::new(ConcurrentSlabStore::new(config()));
        let threads = 4;
        let mut handles = Vec::new();
        for th in 0..threads {
            let s = std::sync::Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                // Disjoint range per thread plus a shared contended range.
                for i in 0..2000u64 {
                    let own = 10_000 * (th + 1) + i;
                    // One size class: the store fits every key, so no
                    // thread can see a transient OOM under contention.
                    s.set(KeyId(own), 10 + (i as u32 % 50), t(i + 1)).unwrap();
                    s.set(KeyId(i % 64), 10, t(i + 1)).unwrap(); // shared
                    if i % 3 == 0 {
                        s.get(KeyId(own.saturating_sub(1)), t(i + 1));
                    }
                    if i % 5 == 0 {
                        s.delete(KeyId(own.saturating_sub(2)));
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let serial = std::sync::Arc::try_unwrap(s)
            .expect("all threads joined")
            .into_serial();
        serial.audit().unwrap();
    }
}
