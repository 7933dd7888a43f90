//! Stable, seedable 64-bit hashing.
//!
//! Consistent hashing and key→node placement must be *stable across runs and
//! platforms* (std's `DefaultHasher` is explicitly not), so we use our own
//! small implementations: a 64-bit FNV-1a for short byte strings and a
//! SplitMix-style integer finalizer for numeric ids.

/// 64-bit FNV-1a hash of a byte string.
///
/// # Example
///
/// ```
/// use elmem_util::hashutil::fnv1a64;
/// assert_eq!(fnv1a64(b"abc"), fnv1a64(b"abc"));
/// assert_ne!(fnv1a64(b"abc"), fnv1a64(b"abd"));
/// ```
#[inline]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Mixes a 64-bit integer into a well-distributed 64-bit hash
/// (SplitMix64 finalizer).
///
/// # Example
///
/// ```
/// use elmem_util::hashutil::mix64;
/// assert_ne!(mix64(1), mix64(2));
/// assert_eq!(mix64(7), mix64(7));
/// ```
#[inline]
pub fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Combines two hashes (e.g. a key hash and a seed) into one.
#[inline]
pub fn combine(a: u64, b: u64) -> u64 {
    mix64(a ^ b.rotate_left(32))
}

/// A [`std::hash::Hasher`] for integer keys, built on [`mix64`].
///
/// Std's default `HashMap` hasher (SipHash with a random per-process key)
/// costs tens of cycles per lookup and varies across runs; for hot maps
/// keyed by `KeyId`/`NodeId` — plain newtypes over `u64`/`u32` that feed
/// the hasher one integer write — the SplitMix64 finalizer is both several
/// times cheaper and *deterministic across runs and platforms*, matching
/// the rest of this module. Not DoS-resistant, which is fine: keys come
/// from the workload generator, not an adversary.
///
/// # Example
///
/// ```
/// use elmem_util::hashutil::FastIntMap;
/// let mut m: FastIntMap<u64, &str> = FastIntMap::default();
/// m.insert(7, "seven");
/// assert_eq!(m.get(&7), Some(&"seven"));
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct FastIntHasher {
    state: u64,
}

impl std::hash::Hasher for FastIntHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    /// Fallback for non-integer writes (tuple keys, byte strings): FNV-1a
    /// folded into the running state, so compound keys still hash soundly.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        self.state = mix64(self.state ^ fnv1a64(bytes));
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.write_u64(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.write_u64(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.write_u64(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.state = mix64(self.state ^ i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }
}

/// `BuildHasher` for [`FastIntHasher`]: stateless, so every map starts
/// from the same (deterministic) hash function.
#[derive(Clone, Copy, Debug, Default)]
pub struct FastIntBuildHasher;

impl std::hash::BuildHasher for FastIntBuildHasher {
    type Hasher = FastIntHasher;

    #[inline]
    fn build_hasher(&self) -> FastIntHasher {
        FastIntHasher::default()
    }
}

/// A `HashMap` keyed by small integer ids, using [`FastIntHasher`].
pub type FastIntMap<K, V> = std::collections::HashMap<K, V, FastIntBuildHasher>;

/// A `HashSet` of small integer ids, using [`FastIntHasher`].
pub type FastIntSet<K> = std::collections::HashSet<K, FastIntBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn fnv_known_vector() {
        // FNV-1a of empty input is the offset basis.
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
    }

    #[test]
    fn fnv_distinguishes_prefixes() {
        assert_ne!(fnv1a64(b"a"), fnv1a64(b"aa"));
    }

    #[test]
    fn mix64_is_injective_on_small_range() {
        let set: HashSet<u64> = (0..10_000u64).map(mix64).collect();
        assert_eq!(set.len(), 10_000);
    }

    #[test]
    fn mix64_distributes_low_bits() {
        // Count low-bit balance over sequential inputs.
        let ones = (0..10_000u64).filter(|&i| mix64(i) & 1 == 1).count();
        assert!((4_500..5_500).contains(&ones), "ones = {ones}");
    }

    #[test]
    fn combine_depends_on_both_inputs() {
        assert_ne!(combine(1, 2), combine(1, 3));
        assert_ne!(combine(1, 2), combine(2, 2));
        assert_ne!(combine(1, 2), combine(2, 1));
    }

    #[test]
    fn fast_map_matches_default_hashmap_semantics() {
        // Drive a FastIntMap and a std-hasher HashMap through an identical
        // deterministic insert/remove/lookup schedule; contents must agree
        // at every step. Keys collide on purpose (mod 64).
        let mut fast: FastIntMap<u64, u64> = FastIntMap::default();
        let mut base: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
        let mut x: u64 = 0x243F6A8885A308D3;
        for step in 0..10_000u64 {
            x = mix64(x ^ step);
            let key = x % 64;
            match x % 3 {
                0 => {
                    assert_eq!(fast.insert(key, step), base.insert(key, step));
                }
                1 => {
                    assert_eq!(fast.remove(&key), base.remove(&key));
                }
                _ => {
                    assert_eq!(fast.get(&key), base.get(&key));
                }
            }
            assert_eq!(fast.len(), base.len());
        }
        let mut f: Vec<_> = fast.into_iter().collect();
        let mut b: Vec<_> = base.into_iter().collect();
        f.sort_unstable();
        b.sort_unstable();
        assert_eq!(f, b);
    }

    #[test]
    fn fast_hasher_distinguishes_sequential_ids() {
        use std::hash::BuildHasher;
        let bh = FastIntBuildHasher;
        let set: HashSet<u64> = (0..100_000u64).map(|k| bh.hash_one(k)).collect();
        assert_eq!(set.len(), 100_000);
    }

    #[test]
    fn fast_hasher_is_deterministic_across_builders() {
        use std::hash::BuildHasher;
        let hash_of = |k: u32| FastIntBuildHasher.hash_one(k);
        // Two independently built hashers agree (no per-instance state),
        // so map placement is reproducible run to run.
        for k in [0u32, 1, 7, 0xFFFF_FFFF] {
            assert_eq!(hash_of(k), hash_of(k));
        }
    }

    #[test]
    fn fast_hasher_byte_writes_are_sound() {
        use std::hash::Hasher;
        let mut a = FastIntHasher::default();
        let mut b = FastIntHasher::default();
        a.write(b"abc");
        b.write(b"abd");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn a_u32_id_hashes_and_iterates_as_the_same_u64_id() {
        // The store indexes 32-bit key ids: a map keyed by them must place,
        // and so iterate, its keys as a map keyed by the same ids as u64.
        use std::hash::BuildHasher;
        for id in [0u32, 1, 7, 1 << 20, u32::MAX] {
            let (narrow, wide) = (
                FastIntBuildHasher.hash_one(id),
                FastIntBuildHasher.hash_one(u64::from(id)),
            );
            assert_eq!(narrow, wide, "{id}");
        }
        let narrow: FastIntMap<u32, u32> = (0..1_000u32).map(|i| (i * 7, i)).collect();
        let wide: FastIntMap<u64, u32> = (0..1_000u32).map(|i| (u64::from(i * 7), i)).collect();
        let narrow = narrow.iter().map(|(&k, &v)| (u64::from(k), v));
        assert!(narrow.eq(wide.iter().map(|(&k, &v)| (k, v))));
    }
}
