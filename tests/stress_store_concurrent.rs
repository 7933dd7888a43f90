//! Real-thread stress harness for [`ConcurrentSlabStore`]: 4–8 OS threads
//! hammer disjoint *and* overlapping key ranges, then the store must pass
//! a full [`SlabStore::audit`] — exact item/byte conservation, no lost
//! updates, no double-frees — and the op counters must reconcile exactly
//! against what the threads report they did.
//!
//! The default test is CI-sized (seconds). The `#[ignore]`-gated full mode
//! (`cargo test --test stress_store_concurrent -- --ignored`) runs 8
//! threads against a store small enough to keep the eviction slow path
//! (page grants + global-LRU scans under the alloc lock) continuously hot.

use std::sync::Arc;
use std::thread;

use elmem_store::{ConcurrentSlabStore, SizeClasses, SlabStore, StoreConfig};
use elmem_util::{ByteSize, DetRng, KeyId, SimTime};

/// What one worker claims it did; reconciled against `StoreStats`.
#[derive(Debug, Default)]
struct WorkerTally {
    lookups: u64,
    hits: u64,
    sets_ok: u64,
    deletes_hit: u64,
}

/// Runs `threads` workers over a shared store. Each worker owns a disjoint
/// key range (its writes there are uncontended and fully deterministic) and
/// also fights every other worker over a small shared range.
fn hammer(store: &Arc<ConcurrentSlabStore>, threads: u64, ops_per_thread: u64) -> WorkerTally {
    let mut handles = Vec::new();
    for t in 0..threads {
        let store = Arc::clone(store);
        handles.push(thread::spawn(move || {
            let mut rng = DetRng::seed(0xE1_5E_ED).split(&format!("worker {t}"));
            let mut tally = WorkerTally::default();
            let own_base = 1_000_000 * (t + 1);
            // Small enough that the CI store conserves everything, large
            // enough that the full-mode store must evict.
            let own_keys = ops_per_thread / 10 + 1;
            for i in 0..ops_per_thread {
                let now = SimTime::from_millis(i + 1);
                match rng.next_below(10) {
                    // 50%: write own range (sizes span two classes).
                    0..=4 => {
                        let key = KeyId(own_base + rng.next_below(own_keys));
                        let size = 10 + (rng.next_below(3000)) as u32;
                        if store.set(key, size, now).is_ok() {
                            tally.sets_ok += 1;
                        }
                    }
                    // 20%: read own range.
                    5 | 6 => {
                        let key = KeyId(own_base + rng.next_below(own_keys));
                        tally.lookups += 1;
                        if store.get(key, now).is_some() {
                            tally.hits += 1;
                        }
                    }
                    // 20%: fight over the shared range.
                    7 | 8 => {
                        let key = KeyId(rng.next_below(64));
                        if rng.next_below(2) == 0 {
                            if store.set(key, 10, now).is_ok() {
                                tally.sets_ok += 1;
                            }
                        } else {
                            tally.lookups += 1;
                            if store.get(key, now).is_some() {
                                tally.hits += 1;
                            }
                        }
                    }
                    // 10%: delete from either range.
                    _ => {
                        let key = if rng.next_below(2) == 0 {
                            KeyId(own_base + rng.next_below(own_keys))
                        } else {
                            KeyId(rng.next_below(64))
                        };
                        if store.delete(key) {
                            tally.deletes_hit += 1;
                        }
                    }
                }
            }
            tally
        }));
    }
    let mut total = WorkerTally::default();
    for h in handles {
        let t = h.join().expect("worker panicked");
        total.lookups += t.lookups;
        total.hits += t.hits;
        total.sets_ok += t.sets_ok;
        total.deletes_hit += t.deletes_hit;
    }
    total
}

/// Full conservation check: internal audit plus exact reconciliation of
/// the op counters against the workers' own tallies.
fn check_conservation(store: Arc<ConcurrentSlabStore>, tally: &WorkerTally) -> SlabStore {
    let stats = store.stats();
    assert_eq!(stats.sets, tally.sets_ok, "a successful set was lost");
    assert_eq!(stats.deletes, tally.deletes_hit, "a delete hit was lost");
    assert_eq!(
        stats.hits + stats.misses,
        tally.lookups,
        "a lookup was double-counted or dropped"
    );
    assert_eq!(stats.hits, tally.hits, "hit counts diverge");
    let serial = Arc::try_unwrap(store)
        .expect("all workers joined")
        .into_serial();
    // The audit walks every shard list and the index: item counts, byte
    // sums, free-list integrity, stamp monotonicity, page accounting.
    serial.audit().expect("post-stress audit");
    assert_eq!(serial.len(), serial.iter().count() as u64);
    serial
}

#[test]
fn stress_ci_four_threads() {
    // Big enough that nothing evicts: every conserved item is accounted.
    let store = Arc::new(ConcurrentSlabStore::new(StoreConfig {
        memory: ByteSize::from_mib(64),
        classes: SizeClasses::new(2048, 2.0, 8192),
        shards: 8,
    }));
    let tally = hammer(&store, 4, 20_000);
    let serial = check_conservation(store, &tally);
    assert_eq!(serial.stats().evictions, 0, "sized to never evict");
}

#[test]
#[ignore = "full-size stress: run with -- --ignored"]
fn stress_full_eight_threads_under_eviction() {
    // 4 pages for ~400k writes across two classes: the alloc slow path
    // (grants, then global-LRU evictions) runs for almost every insert.
    let store = Arc::new(ConcurrentSlabStore::new(StoreConfig {
        memory: ByteSize::from_mib(4),
        classes: SizeClasses::new(2048, 2.0, 8192),
        shards: 8,
    }));
    let tally = hammer(&store, 8, 100_000);
    let serial = check_conservation(store, &tally);
    assert!(
        serial.stats().evictions > 0,
        "sized to evict continuously; the slow path never ran"
    );
}
