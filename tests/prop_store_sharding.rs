//! Sharding-equivalence harness (the tentpole's correctness argument,
//! DESIGN.md §14): the sharded [`SlabStore`] at *any* shard count is
//! observationally byte-identical to the unsharded store, and the `Sync`
//! [`ConcurrentSlabStore`] facade, driven one op at a time under a seeded
//! thread interleaving, matches the serial facade exactly.
//!
//! Op sequences cover set / get / delete / TTL-expiry / eviction (the
//! stores are sized so hot classes overflow their pages) / batch_import,
//! and every store reports the expiries a model of the ops gives.

use std::collections::HashMap;

use elmem_store::{ConcurrentSlabStore, ImportMode, ItemMeta, SizeClasses, SlabStore, StoreConfig};
use elmem_util::{ByteSize, DetRng, KeyId, SimTime};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Set { key: u64, size: u32 },
    SetTtl { key: u64, size: u32, ttl: u64 },
    Get { key: u64 },
    Touch { key: u64, ttl: u64 },
    Delete { key: u64 },
    Crawl { budget: u64 },
    Import { base: u64, n: u64 },
}

/// Sizes land in the ladder's three classes (2048/4096/8192); the store
/// below holds 3 pages, so a busy class fills its page and evicts.
fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..150, 1u32..6000).prop_map(|(key, size)| Op::Set { key, size }),
        (0u64..150, 1u32..6000, 1u64..400).prop_map(|(key, size, ttl)| Op::SetTtl {
            key,
            size,
            ttl
        }),
        (0u64..150).prop_map(|key| Op::Get { key }),
        (0u64..150, 1u64..400).prop_map(|(key, ttl)| Op::Touch { key, ttl }),
        (0u64..150).prop_map(|key| Op::Delete { key }),
        (1u64..40).prop_map(|budget| Op::Crawl { budget }),
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
/// set/get key range), hottest first, all in the smallest class, every
/// third with a TTL. Derived purely from the op and the clock so every
/// store sees the same batch.
fn import_batch(base: u64, n: u64, now: SimTime) -> Vec<ItemMeta> {
    (0..n)
        .map(|i| ItemMeta {
            key: KeyId(10_000 + base * 100 + i),
            value_size: 10,
            last_access: now.checked_add(SimTime::from_millis(n - i)).unwrap(),
            expires: match i % 3 {
                0 => now + SimTime::from_millis(50 + i),
                _ => SimTime::MAX,
            },
        })
        .collect()
}

/// The expiry each key last landed with; absent is never. Only resident
/// keys are read, and a key that lands again overwrites its entry.
type Ttls = HashMap<KeyId, SimTime>;

fn land(ttls: &mut Ttls, key: KeyId, expires: SimTime) {
    match expires {
        SimTime::MAX => ttls.remove(&key),
        at => ttls.insert(key, at),
    };
}

/// Whether `item` reports the expiry `ttls` gives its key.
fn modeled(ttls: &Ttls, item: &ItemMeta) -> bool {
    item.expires == ttls.get(&item.key).copied().unwrap_or(SimTime::MAX)
}

fn apply(s: &mut SlabStore, op: &Op, now: SimTime, ttls: &mut Ttls) {
    let ms = SimTime::from_millis;
    match *op {
        Op::Set { key, size } => {
            if s.set(KeyId(key), size, now).is_ok() {
                land(ttls, KeyId(key), SimTime::MAX);
            }
        }
        Op::SetTtl { key, size, ttl } => {
            if s.set_with_ttl(KeyId(key), size, now, ms(ttl)).is_ok() {
                land(ttls, KeyId(key), now + ms(ttl));
            }
        }
        Op::Get { key } => {
            let got = s.get(KeyId(key), now);
            assert!(got.is_none_or(|item| modeled(ttls, &item)), "{got:?}");
        }
        Op::Touch { key, ttl } => {
            if s.touch(KeyId(key), now, ms(ttl)).is_some() {
                land(ttls, KeyId(key), now + ms(ttl));
            }
        }
        Op::Delete { key } => {
            let _ = s.delete(KeyId(key));
        }
        Op::Crawl { budget } => {
            let _ = s.crawl_expired(now, budget);
        }
        Op::Import { base, n } => {
            let batch = import_batch(base, n, now);
            let class = s.classes().class_for(batch[0].footprint()).unwrap();
            // An incoming copy lands unless a resident one is as hot.
            let landing: Vec<ItemMeta> = batch
                .iter()
                .filter(|i| s.peek(i.key).is_none_or(|r| r.hotness() < i.hotness()))
                .copied()
                .collect();
            let _ = s.batch_import(class, &batch, ImportMode::Merge);
            for item in landing {
                land(ttls, item.key, item.expires);
            }
        }
    }
}

/// Every item the store reports — iterated, peeked, walked, dumped —
/// carries its modeled expiry.
fn check_expiries(s: &SlabStore, ttls: &Ttls) {
    let dumped = s.dump_metadata().classes.into_iter().flat_map(|c| c.items);
    let walked = s.classes().ids().flat_map(|c| s.iter_class_mru(c));
    for item in s.iter().chain(dumped).chain(walked) {
        assert!(modeled(ttls, &item), "{item:?}");
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
        let mut ttls = Ttls::new();
        for (i, op) in ops.iter().enumerate() {
            apply(&mut reference, op, SimTime::from_millis(7 * (i as u64 + 1)), &mut ttls);
        }
        reference.audit().unwrap();
        check_expiries(&reference, &ttls);
        let want = fingerprint(&reference);
        for shards in [2usize, 4, 8] {
            let mut s = store(shards);
            let mut ttls = Ttls::new();
            for (i, op) in ops.iter().enumerate() {
                apply(&mut s, op, SimTime::from_millis(7 * (i as u64 + 1)), &mut ttls);
            }
            s.audit().unwrap();
            check_expiries(&s, &ttls);
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
        let mut ttls = Ttls::new();
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
                    if serial.contains(KeyId(key)) {
                        land(&mut ttls, KeyId(key), SimTime::MAX);
                    }
                }
                Op::SetTtl { key, size, ttl } => {
                    let ttl = SimTime::from_millis(ttl);
                    prop_assert_eq!(
                        serial.set_with_ttl(KeyId(key), size, now, ttl).is_ok(),
                        conc.set_with_ttl(KeyId(key), size, now, ttl).is_ok()
                    );
                    if serial.contains(KeyId(key)) {
                        land(&mut ttls, KeyId(key), now + ttl);
                    }
                }
                Op::Get { key } => {
                    let got = serial.get(KeyId(key), now);
                    prop_assert_eq!(got, conc.get(KeyId(key), now));
                    prop_assert!(got.is_none_or(|item| modeled(&ttls, &item)));
                }
                Op::Touch { key, ttl } => {
                    let ttl = SimTime::from_millis(ttl);
                    let touched = serial.touch(KeyId(key), now, ttl);
                    prop_assert_eq!(touched, conc.touch(KeyId(key), now, ttl));
                    if touched.is_some() {
                        land(&mut ttls, KeyId(key), now + ttl);
                    }
                }
                Op::Delete { key } => {
                    prop_assert_eq!(serial.delete(KeyId(key)), conc.delete(KeyId(key)));
                }
                // Crawl and batch-import are serial-only surface
                // (quiesce-point ops, DESIGN.md §14): no-ops here.
                Op::Crawl { .. } | Op::Import { .. } => {}
            }
        }
        let conc = conc.into_serial();
        serial.audit().unwrap();
        conc.audit().unwrap();
        check_expiries(&conc, &ttls);
        prop_assert_eq!(serial.stats(), conc.stats());
        prop_assert_eq!(&fingerprint(&conc), &fingerprint(&serial));
    }
}
