//! Sharding-equivalence harness (the tentpole's correctness argument,
//! DESIGN.md §14): the sharded [`SlabStore`] at *any* shard count is
//! observationally byte-identical to the unsharded store, and the `Sync`
//! [`ConcurrentSlabStore`] facade, driven one op at a time under a seeded
//! thread interleaving, matches the serial facade exactly.
//!
//! Op sequences cover set / get / delete / eviction (the stores are sized
//! so hot classes overflow their pages) / batch_import.

use elmem_store::{ConcurrentSlabStore, ImportMode, ItemMeta, SizeClasses, SlabStore, StoreConfig};
use elmem_util::{ByteSize, DetRng, KeyId, SimTime};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Set { key: u64, size: u32 },
    Get { key: u64 },
    Delete { key: u64 },
    Import { base: u64, n: u64 },
}

/// Sizes land in the ladder's three classes (2048/4096/8192); the store
/// below holds 3 pages, so a busy class fills its page and evicts.
fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..150, 1u32..6000).prop_map(|(key, size)| Op::Set { key, size }),
        (0u64..150).prop_map(|key| Op::Get { key }),
        (0u64..150).prop_map(|key| Op::Delete { key }),
        (0u64..20, 1u64..30).prop_map(|(base, n)| Op::Import { base, n }),
    ]
}

fn store(shards: usize) -> SlabStore {
    SlabStore::new(StoreConfig {
        memory: ByteSize::from_mib(3),
        classes: SizeClasses::new(2048, 2.0, 8192),
        shards,
    })
}

/// The batch an `Import` op carries: fresh hot keys (disjoint from the
/// set/get key range), hottest first, all in the smallest class. Derived
/// purely from the op and the clock so every store sees the same batch.
fn import_batch(base: u64, n: u64, now: SimTime) -> Vec<ItemMeta> {
    (0..n)
        .map(|i| {
            let at = now.checked_add(SimTime::from_millis(n - i)).unwrap();
            ItemMeta::new(KeyId(10_000 + base * 100 + i), 10, at)
        })
        .collect()
}

fn apply(s: &mut SlabStore, op: &Op, now: SimTime) {
    match *op {
        Op::Set { key, size } => {
            let _ = s.set(KeyId(key), size, now);
        }
        Op::Get { key } => {
            let _ = s.get(KeyId(key), now);
        }
        Op::Delete { key } => {
            let _ = s.delete(KeyId(key));
        }
        Op::Import { base, n } => {
            let batch = import_batch(base, n, now);
            let class = s.classes().class_for(batch[0].footprint()).unwrap();
            let _ = s.batch_import(class, &batch, ImportMode::Merge);
        }
    }
}

/// Every item the store reports — iterated, walked, dumped — is what a
/// peek of its key reads.
fn check_reads(s: &SlabStore) {
    let dumped = s.dump_metadata().classes.into_iter().flat_map(|c| c.items);
    let walked = s.classes().ids().flat_map(|c| s.iter_class_mru(c));
    for item in s.iter().chain(dumped).chain(walked) {
        assert_eq!(s.peek(item.key), Some(item));
    }
}

/// Everything the store exposes, as one comparable string: the canonical
/// dump, op counters, per-class occupancy/pressure/median, and the page
/// accounting.
fn fingerprint(s: &SlabStore) -> String {
    let per_class: Vec<_> = s
        .classes()
        .ids()
        .map(|c| {
            (
                c,
                s.len_of_class(c),
                s.pages_of_class(c),
                s.free_chunks_of_class(c),
                s.eviction_pressure(c),
                s.median_hotness(c),
            )
        })
        .collect();
    format!(
        "{:?}|{:?}|{:?}|{}|{}|{}|{:?}",
        s.dump_metadata(),
        s.stats(),
        per_class,
        s.len(),
        s.bytes_used(),
        s.pages_used(),
        s.page_weights(),
    )
}

proptest! {
    /// Tentpole claim: sharded(N) == unsharded for N ∈ {1, 2, 4, 8}, for
    /// arbitrary op sequences — dumps, stats, audits, medians, page
    /// accounting, all byte-identical.
    #[test]
    fn sharded_store_matches_unsharded_reference(
        ops in prop::collection::vec(op_strategy(), 1..300),
    ) {
        let mut reference = store(1);
        for (i, op) in ops.iter().enumerate() {
            apply(&mut reference, op, SimTime::from_millis(7 * (i as u64 + 1)));
        }
        reference.audit().unwrap();
        check_reads(&reference);
        let want = fingerprint(&reference);
        for shards in [2usize, 4, 8] {
            let mut s = store(shards);
            for (i, op) in ops.iter().enumerate() {
                apply(&mut s, op, SimTime::from_millis(7 * (i as u64 + 1)));
            }
            s.audit().unwrap();
            check_reads(&s);
            prop_assert_eq!(
                &fingerprint(&s),
                &want,
                "sharded({}) diverged from the unsharded store",
                shards
            );
        }
    }

    /// Concurrent-facade claim: under a seeded interleaving of per-thread
    /// op streams, applied one op at a time (every thread order is a legal
    /// schedule of the real facade), the concurrent store returns the same
    /// results as the serial facade and converges to the identical state.
    #[test]
    fn concurrent_facade_matches_serial_under_seeded_interleaving(
        streams in prop::collection::vec(
            prop::collection::vec(op_strategy(), 1..60),
            1..5,
        ),
        seed in any::<u64>(),
    ) {
        let mut serial = store(4);
        let conc = ConcurrentSlabStore::from_serial(store(4));
        let mut rng = DetRng::seed(seed);
        let mut cursors = vec![0usize; streams.len()];
        let mut step = 0u64;
        loop {
            let live: Vec<usize> = (0..streams.len())
                .filter(|&t| cursors[t] < streams[t].len())
                .collect();
            let Some(&t) = live.get(rng.next_below(live.len().max(1) as u64) as usize)
            else {
                break;
            };
            let op = &streams[t][cursors[t]];
            cursors[t] += 1;
            step += 1;
            let now = SimTime::from_millis(7 * step);
            match *op {
                Op::Set { key, size } => {
                    prop_assert_eq!(
                        serial.set(KeyId(key), size, now).is_ok(),
                        conc.set(KeyId(key), size, now).is_ok()
                    );
                }
                Op::Get { key } => {
                    prop_assert_eq!(serial.get(KeyId(key), now), conc.get(KeyId(key), now));
                }
                Op::Delete { key } => {
                    prop_assert_eq!(serial.delete(KeyId(key)), conc.delete(KeyId(key)));
                }
                // Batch-import is serial-only surface (a quiesce-point op,
                // DESIGN.md §14): a no-op here.
                Op::Import { .. } => {}
            }
        }
        let conc = conc.into_serial();
        serial.audit().unwrap();
        conc.audit().unwrap();
        check_reads(&conc);
        prop_assert_eq!(serial.stats(), conc.stats());
        prop_assert_eq!(&fingerprint(&conc), &fingerprint(&serial));
    }
}
