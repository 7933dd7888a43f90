//! Memcached command-surface tests: `add`, `replace`, `cas`, `peek_live`,
//! and every entry point at the edge of the store's 32-bit key ids.

use elmem_store::{
    default_shard_count, ConcurrentSlabStore, ImportMode, ItemMeta, SizeClasses, SlabStore,
    StoreConfig,
};
use elmem_util::{ByteSize, ElmemError, KeyId, SimTime};

fn config() -> StoreConfig {
    StoreConfig {
        memory: ByteSize::from_mib(2),
        classes: SizeClasses::new(128, 2.0, 1024),
        shards: default_shard_count(),
    }
}

fn store() -> SlabStore {
    SlabStore::new(config())
}

fn t(s: u64) -> SimTime {
    SimTime::from_secs(s)
}

#[test]
fn add_stores_only_when_absent() {
    let mut s = store();
    assert!(s.add(KeyId(1), 10, t(1)).unwrap());
    assert!(!s.add(KeyId(1), 99, t(2)).unwrap(), "second add must fail");
    assert_eq!(s.peek(KeyId(1)).unwrap().value_size, 10);
}

#[test]
fn add_succeeds_over_expired_item() {
    let mut s = store();
    s.set_with_ttl(KeyId(1), 10, t(0), SimTime::from_secs(5))
        .unwrap();
    assert!(s.add(KeyId(1), 20, t(10)).unwrap(), "expired = absent");
    assert_eq!(s.peek(KeyId(1)).unwrap().value_size, 20);
}

#[test]
fn replace_stores_only_when_present() {
    let mut s = store();
    assert!(
        !s.replace(KeyId(1), 10, t(1)).unwrap(),
        "nothing to replace"
    );
    s.set(KeyId(1), 10, t(1)).unwrap();
    assert!(s.replace(KeyId(1), 20, t(2)).unwrap());
    assert_eq!(s.peek(KeyId(1)).unwrap().value_size, 20);
}

#[test]
fn replace_fails_on_expired_item() {
    let mut s = store();
    s.set_with_ttl(KeyId(1), 10, t(0), SimTime::from_secs(5))
        .unwrap();
    assert!(!s.replace(KeyId(1), 20, t(10)).unwrap());
}

#[test]
fn cas_succeeds_only_with_current_token() {
    let mut s = store();
    s.set(KeyId(1), 10, t(1)).unwrap();
    let token = s.peek(KeyId(1)).unwrap().last_access;
    // Stale token: another writer got in between.
    s.set(KeyId(1), 15, t(2)).unwrap();
    assert!(!s.cas(KeyId(1), 99, t(3), token).unwrap(), "stale CAS");
    // Fresh token works.
    let token = s.peek(KeyId(1)).unwrap().last_access;
    assert!(s.cas(KeyId(1), 20, t(4), token).unwrap());
    assert_eq!(s.peek(KeyId(1)).unwrap().value_size, 20);
}

#[test]
fn cas_on_missing_key_fails() {
    let mut s = store();
    assert!(!s.cas(KeyId(404), 10, t(1), t(0)).unwrap());
}

#[test]
fn cas_token_invalidated_by_get() {
    // A get refreshes last_access, so it also invalidates outstanding CAS
    // tokens (our token *is* the MRU timestamp).
    let mut s = store();
    s.set(KeyId(1), 10, t(1)).unwrap();
    let token = s.peek(KeyId(1)).unwrap().last_access;
    s.get(KeyId(1), t(2)).unwrap();
    assert!(!s.cas(KeyId(1), 20, t(3), token).unwrap());
}

#[test]
fn peek_live_respects_expiry_without_reclaiming() {
    let mut s = store();
    s.set_with_ttl(KeyId(1), 10, t(0), SimTime::from_secs(5))
        .unwrap();
    assert!(s.peek_live(KeyId(1), t(4)).is_some());
    assert!(s.peek_live(KeyId(1), t(6)).is_none());
    // The raw slot still exists until a get/crawl reclaims it.
    assert!(s.peek(KeyId(1)).is_some());
    assert_eq!(s.stats().expired, 0);
}

#[test]
fn command_mix_keeps_counters_consistent() {
    let mut s = store();
    for k in 0..50u64 {
        assert!(s.add(KeyId(k), 10, t(k)).unwrap());
    }
    for k in 0..25u64 {
        assert!(s.replace(KeyId(k), 20, t(100 + k)).unwrap());
    }
    assert_eq!(s.len(), 50);
    assert_eq!(s.stats().sets, 75);
}

/// A slot holds a 32-bit key id. An id that fits is stored and found like
/// any other; a wider one is refused by every write of both facades with
/// `InvalidConfig` before anything changes, and is absent to every read —
/// never truncated onto the key its low 32 bits name, never a panic.
#[test]
fn key_ids_past_32_bits_are_refused_not_truncated() {
    type Write = (
        &'static str,
        fn(&mut SlabStore, KeyId) -> Result<bool, ElmemError>,
    );
    type Read = (&'static str, fn(&mut SlabStore, KeyId) -> bool);
    type ConcWrite = (
        &'static str,
        fn(&ConcurrentSlabStore, KeyId) -> Result<(), ElmemError>,
    );
    type ConcRead = (&'static str, fn(&ConcurrentSlabStore, KeyId) -> bool);
    let writes: [Write; 7] = [
        ("fill", |s, k| s.fill().set(k, 10, t(1)).map(|()| true)),
        ("set", |s, k| s.set(k, 10, t(2)).map(|()| true)),
        ("set_with_ttl", |s, k| {
            s.set_with_ttl(k, 10, t(3), t(60)).map(|()| true)
        }),
        ("add", |s, k| s.add(k, 10, t(4)).map(|added| !added)),
        ("replace", |s, k| s.replace(k, 10, t(5))),
        ("cas", |s, k| s.cas(k, 10, t(6), t(5))),
        ("batch_import", |s, k| {
            let item = ItemMeta::new(k, 10, t(7));
            let class = s.classes().class_for(item.footprint()).unwrap();
            s.batch_import(class, &[item], ImportMode::Merge)
                .map(|kept| kept == 1)
        }),
    ];
    let reads: [Read; 6] = [
        ("peek", |s, k| s.peek(k).is_some()),
        ("peek_live", |s, k| s.peek_live(k, t(8)).is_some()),
        ("contains", |s, k| s.contains(k)),
        ("get", |s, k| s.get(k, t(8)).is_some()),
        ("touch", |s, k| s.touch(k, t(9), t(60)).is_some()),
        ("delete", |s, k| s.delete(k)),
    ];
    let conc_writes: [ConcWrite; 2] = [
        ("set", |c, k| c.set(k, 10, t(2))),
        ("set_with_ttl", |c, k| c.set_with_ttl(k, 10, t(3), t(60))),
    ];
    let conc_reads: [ConcRead; 5] = [
        ("peek", |c, k| c.peek(k).is_some()),
        ("contains", |c, k| c.contains(k)),
        ("get", |c, k| c.get(k, t(8)).is_some()),
        ("touch", |c, k| c.touch(k, t(9), t(60)).is_some()),
        ("delete", |c, k| c.delete(k)),
    ];
    let max = u64::from(u32::MAX);
    for id in [max - 1, max, max + 1, u64::MAX] {
        let (key, fits) = (KeyId(id), id <= max);
        let (mut s, c) = (store(), ConcurrentSlabStore::new(config()));
        // The key a truncating store would land on, resident beforehand.
        let alias = KeyId(id & max);
        if !fits {
            s.set(alias, 20, t(0)).unwrap();
            c.set(alias, 20, t(0)).unwrap();
        }
        let before = s.dump_metadata();
        for (name, write) in writes {
            match write(&mut s, key) {
                Ok(done) => assert!(fits && done, "{name} of {key}"),
                Err(e) => assert!(
                    !fits && matches!(e, ElmemError::InvalidConfig(_)),
                    "{name} of {key}: {e}"
                ),
            }
        }
        for (name, write) in conc_writes {
            match write(&c, key) {
                Ok(()) => assert!(fits, "concurrent {name} of {key}"),
                Err(e) => assert!(
                    !fits && matches!(e, ElmemError::InvalidConfig(_)),
                    "concurrent {name} of {key}: {e}"
                ),
            }
        }
        if !fits {
            assert_eq!(
                s.dump_metadata(),
                before,
                "a refused write changed the store"
            );
        }
        for (name, read) in reads {
            assert_eq!(read(&mut s, key), fits, "{name} of {key}");
        }
        for (name, read) in conc_reads {
            assert_eq!(read(&c, key), fits, "concurrent {name} of {key}");
        }
        let c = c.into_serial();
        for s in [&s, &c] {
            assert_eq!(s.len(), u64::from(!fits), "{key}");
            if !fits {
                let kept = s.peek(alias).unwrap();
                assert_eq!((kept.value_size, kept.last_access), (20, t(0)), "{alias}");
            }
            assert_eq!(s.audit(), Ok(()));
        }
    }
}
