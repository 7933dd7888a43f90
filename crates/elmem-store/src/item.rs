//! Item metadata and the hotness ordering used throughout ElMem.

use elmem_util::hashutil::mix64;
use elmem_util::{KeyId, SimTime};

/// Fixed key size on the wire, bytes. The paper's workload fixes keys at
/// 11 bytes (§V-A2); Facebook's keys are "usually small, about 10s of bytes".
pub const KEY_BYTES: u64 = 11;

/// Per-item metadata overhead modeled after Memcached's item header
/// (LRU pointers, flags, CAS and the other header words), bytes.
pub const ITEM_OVERHEAD_BYTES: u64 = 48;

/// Size of a serialized MRU timestamp in the metadata-transfer phase, bytes
/// (§III-D1: "timestamps (10 bytes)").
pub const TIMESTAMP_BYTES: u64 = 10;

/// Recency-of-access hotness: the MRU timestamp plus a deterministic
/// tie-break so that hotness is a *total* order even when two items on
/// different nodes were touched in the same instant.
///
/// Greater is hotter. The tie-break is a stable mix of the key id, so
/// comparisons agree across nodes and across runs.
///
/// # Example
///
/// ```
/// use elmem_store::Hotness;
/// use elmem_util::{KeyId, SimTime};
///
/// let older = Hotness::new(SimTime::from_secs(1), KeyId(9));
/// let newer = Hotness::new(SimTime::from_secs(2), KeyId(3));
/// assert!(newer > older);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Hotness {
    /// Last-access time (nanoseconds of simulated time).
    pub ts: u64,
    /// Deterministic tie-break derived from the key.
    pub tiebreak: u64,
}

impl Hotness {
    /// Creates the hotness of an item last accessed at `ts`.
    pub fn new(ts: SimTime, key: KeyId) -> Self {
        Hotness {
            ts: ts.as_nanos(),
            tiebreak: mix64(key.0),
        }
    }

    /// The coldest possible hotness.
    pub const MIN: Hotness = Hotness { ts: 0, tiebreak: 0 };

    /// The hottest possible hotness.
    pub const MAX: Hotness = Hotness {
        ts: u64::MAX,
        tiebreak: u64::MAX,
    };

    /// The access instant as [`SimTime`].
    pub fn time(self) -> SimTime {
        SimTime::from_nanos(self.ts)
    }
}

/// Metadata for one cached item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ItemMeta {
    /// The item's key.
    pub key: KeyId,
    /// Size of the value in bytes (values range 1–10^4ish bytes in the
    /// paper's Generalized-Pareto workload).
    pub value_size: u32,
    /// Last access (MRU) timestamp.
    pub last_access: SimTime,
}

// Every dump, FuseCache list and shipment carries one per item.
const _: () = assert!(size_of::<ItemMeta>() == 24);

impl ItemMeta {
    /// An item last accessed at `now`.
    pub fn new(key: KeyId, value_size: u32, now: SimTime) -> Self {
        ItemMeta {
            key,
            value_size,
            last_access: now,
        }
    }

    /// Total memory footprint this item needs in a chunk:
    /// key + value + header overhead.
    ///
    /// ```
    /// use elmem_store::{ItemMeta, ITEM_OVERHEAD_BYTES, KEY_BYTES};
    /// use elmem_util::{KeyId, SimTime};
    /// let m = ItemMeta::new(KeyId(0), 100, SimTime::ZERO);
    /// assert_eq!(m.footprint(), 100 + KEY_BYTES + ITEM_OVERHEAD_BYTES);
    /// ```
    pub fn footprint(&self) -> u64 {
        item_footprint(self.value_size)
    }

    /// The item's hotness (see [`Hotness`]).
    pub fn hotness(&self) -> Hotness {
        Hotness::new(self.last_access, self.key)
    }
}

/// Memory footprint of an item with the given value size.
pub fn item_footprint(value_size: u32) -> u64 {
    u64::from(value_size) + KEY_BYTES + ITEM_OVERHEAD_BYTES
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hotness_orders_by_time_first() {
        let a = Hotness::new(SimTime::from_secs(1), KeyId(1000));
        let b = Hotness::new(SimTime::from_secs(2), KeyId(1));
        assert!(b > a);
    }

    #[test]
    fn hotness_ties_broken_by_key_deterministically() {
        let a = Hotness::new(SimTime::from_secs(1), KeyId(1));
        let b = Hotness::new(SimTime::from_secs(1), KeyId(2));
        assert_ne!(a, b);
        // Stable across construction.
        assert_eq!(a, Hotness::new(SimTime::from_secs(1), KeyId(1)));
    }

    #[test]
    fn hotness_extremes() {
        let h = Hotness::new(SimTime::from_secs(5), KeyId(7));
        assert!(h > Hotness::MIN);
        assert!(h < Hotness::MAX);
    }

    #[test]
    fn footprint_includes_overheads() {
        assert_eq!(item_footprint(0), KEY_BYTES + ITEM_OVERHEAD_BYTES);
        assert_eq!(item_footprint(1000), 1000 + KEY_BYTES + ITEM_OVERHEAD_BYTES);
    }

    #[test]
    fn hotness_time_round_trips() {
        let t = SimTime::from_millis(123_456);
        assert_eq!(Hotness::new(t, KeyId(0)).time(), t);
    }
}
