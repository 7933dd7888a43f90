//! Every entry point of the store at the edge of its 32-bit key ids.

use elmem_store::{ImportMode, ItemMeta, SizeClasses, SlabStore, StoreConfig};
use elmem_util::{ByteSize, ElmemError, KeyId, SimTime};

fn config() -> StoreConfig {
    StoreConfig {
        classes: SizeClasses::new(128, 2.0, 1024),
        ..StoreConfig::with_memory(ByteSize::from_mib(2))
    }
}

fn t(s: u64) -> SimTime {
    SimTime::from_secs(s)
}

/// A slot holds a 32-bit key id. An id that fits is stored and found like
/// any other; a wider one is refused by every write with
/// `InvalidConfig` before anything changes, and is absent to every read —
/// never truncated onto the key its low 32 bits name, never a panic.
#[test]
fn key_ids_past_32_bits_are_refused_not_truncated() {
    type Write = (
        &'static str,
        fn(&mut SlabStore, KeyId) -> Result<bool, ElmemError>,
    );
    type Read = (&'static str, fn(&mut SlabStore, KeyId) -> bool);
    let writes: [Write; 3] = [
        ("fill", |s, k| s.fill().set(k, 10, t(1)).map(|()| true)),
        ("set", |s, k| s.set(k, 10, t(2)).map(|()| true)),
        ("batch_import", |s, k| {
            let item = ItemMeta::new(k, 10, t(3));
            let class = s.classes().class_for(item.footprint()).unwrap();
            s.batch_import(class, &[item], ImportMode::Merge)
                .map(|kept| kept == 1)
        }),
    ];
    let reads: [Read; 4] = [
        ("peek", |s, k| s.peek(k).is_some()),
        ("contains", |s, k| s.contains(k)),
        ("get", |s, k| s.get(k, t(4)).is_some()),
        ("delete", |s, k| s.delete(k)),
    ];
    let max = u64::from(u32::MAX);
    for id in [max - 1, max, max + 1, u64::MAX] {
        let (key, fits) = (KeyId(id), id <= max);
        let mut s = SlabStore::new(config());
        // The key a truncating store would land on, resident beforehand.
        let alias = KeyId(id & max);
        if !fits {
            s.set(alias, 20, t(0)).unwrap();
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
        assert_eq!(s.len(), u64::from(!fits), "{key}");
        if !fits {
            let kept = s.peek(alias).unwrap();
            assert_eq!((kept.value_size, kept.last_access), (20, t(0)), "{alias}");
        }
        assert_eq!(s.audit(), Ok(()));
    }
}
