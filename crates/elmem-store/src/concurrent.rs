//! A `Sync` wrapper of one [`SlabStore`] behind a `Mutex`. Nothing in the
//! product serves a store from several threads; this is kept because
//! `benchmark/src/layers.rs:396` times [`get`](ConcurrentSlabStore::get)
//! through it at one and two threads (DESIGN.md §10, §14).

use std::sync::Mutex;

use elmem_util::{KeyId, SimTime};

use crate::item::ItemMeta;
use crate::store::SlabStore;

/// A [`SlabStore`] behind one lock.
#[derive(Debug)]
pub struct ConcurrentSlabStore(Mutex<SlabStore>);

impl ConcurrentSlabStore {
    /// Wraps a store; `benchmark/src/layers.rs:396` builds one so.
    pub fn from_serial(store: SlabStore) -> Self {
        ConcurrentSlabStore(Mutex::new(store))
    }

    /// [`SlabStore::get`] under the lock; `benchmark/src/layers.rs:409`
    /// times it.
    pub fn get(&self, key: KeyId, now: SimTime) -> Option<ItemMeta> {
        // Poisoned only by a panic inside a store op: a bug already raised.
        self.0.lock().expect("store lock").get(key, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classes::SizeClasses;
    use crate::store::StoreConfig;
    use elmem_util::ByteSize;

    fn store() -> SlabStore {
        let mut s = SlabStore::new(StoreConfig {
            classes: SizeClasses::new(128, 2.0, 1024),
            ..StoreConfig::with_memory(ByteSize::from_mib(2))
        });
        for k in 0..300u64 {
            s.set(KeyId(k), 10 + (k as u32 % 150), t(k + 1)).unwrap();
        }
        s
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn serving_ops_roundtrip() {
        let c = ConcurrentSlabStore::from_serial(store());
        let item = c.get(KeyId(1), t(500)).unwrap();
        assert_eq!((item.key, item.last_access), (KeyId(1), t(500)));
        assert!(c.get(KeyId(300), t(501)).is_none());
        let s = c.0.into_inner().unwrap();
        assert_eq!((s.stats().hits, s.stats().misses), (1, 1));
        s.audit().unwrap();
    }

    #[test]
    fn serialized_ops_match_serial_facade() {
        let (mut serial, conc) = (store(), ConcurrentSlabStore::from_serial(store()));
        for k in (0..400u64).step_by(3) {
            assert_eq!(
                serial.get(KeyId(k), t(k + 400)),
                conc.get(KeyId(k), t(k + 400))
            );
        }
        let conc = conc.0.into_inner().unwrap();
        assert_eq!(serial.stats(), conc.stats());
        assert_eq!(serial.dump_metadata(), conc.dump_metadata());
        conc.audit().unwrap();
    }

    #[test]
    fn real_threads_conserve_items_and_bytes() {
        let serial = store();
        let (len, bytes) = (serial.len(), serial.bytes_used());
        let c = ConcurrentSlabStore::from_serial(serial);
        std::thread::scope(|scope| {
            for th in 0..4u64 {
                let c = &c;
                scope.spawn(move || {
                    for i in 0..2_000u64 {
                        c.get(KeyId((i * 7 + th) % 350), t(1_000 + i));
                    }
                });
            }
        });
        let s = c.0.into_inner().unwrap();
        assert_eq!((s.len(), s.bytes_used()), (len, bytes));
        assert_eq!(s.stats().lookups(), 8_000);
        s.audit().unwrap();
    }
}
