//! Exact byte-weighted stack distances via a Fenwick (binary indexed) tree.
//!
//! Classic single-pass algorithm: keep, for every key, the position of its
//! last access; a Fenwick tree over positions holds the byte footprint of
//! each key *at its most recent access only*. The stack distance of a new
//! access to key `k` is then the sum of footprints at positions after `k`'s
//! previous access — i.e. the unique bytes touched in between.

use elmem_util::hashutil::FastIntMap;
use elmem_util::KeyId;

/// Fenwick tree over u64 weights.
#[derive(Debug, Clone, Default)]
struct Fenwick {
    tree: Vec<u64>,
}

impl Fenwick {
    fn with_capacity(n: usize) -> Self {
        Fenwick {
            tree: vec![0; n + 1],
        }
    }

    /// Builds a tree of capacity `n` whose first positions hold `weights`,
    /// in O(n) (the in-place construction), instead of `weights.len()`
    /// O(log n) point inserts.
    fn from_weights(n: usize, weights: impl Iterator<Item = u64>) -> Self {
        let mut tree = vec![0u64; n + 1];
        for (slot, w) in tree[1..].iter_mut().zip(weights) {
            *slot = w;
        }
        for i in 1..=n {
            let parent = i + (i & i.wrapping_neg());
            if parent <= n {
                tree[parent] += tree[i];
            }
        }
        Fenwick { tree }
    }

    fn len(&self) -> usize {
        self.tree.len() - 1
    }

    /// Adds `delta` at 0-based position `i` (delta may be "negative" via
    /// wrapping — callers only ever remove what they added).
    fn add(&mut self, i: usize, delta: i128) {
        let mut i = i + 1;
        while i < self.tree.len() {
            self.tree[i] = (self.tree[i] as i128 + delta) as u64;
            i += i & i.wrapping_neg();
        }
    }

    /// Sum of positions `0..=i` (0-based, inclusive).
    fn prefix(&self, i: usize) -> u64 {
        let mut i = i + 1;
        let mut s = 0u64;
        while i > 0 {
            s += self.tree[i];
            i -= i & i.wrapping_neg();
        }
        s
    }

    fn grow(&mut self) {
        // Rebuild at double capacity, preserving point values, in O(n):
        // run the classic in-place Fenwick construction *backwards* to
        // recover point values (descending: `tree[i]` is final when its
        // parent's contribution is removed), resize, then re-run it
        // forwards over the widened array. The old approach recovered each
        // value via two prefix sums and re-inserted with `add` — O(n log n)
        // on every doubling.
        let old_n = self.len();
        for i in (1..=old_n).rev() {
            let parent = i + (i & i.wrapping_neg());
            if parent <= old_n {
                self.tree[parent] -= self.tree[i];
            }
        }
        // tree[1..=old_n] now holds point values; positions past old_n are 0.
        let new_n = (old_n * 2).max(1024);
        self.tree.resize(new_n + 1, 0);
        for i in 1..=new_n {
            let parent = i + (i & i.wrapping_neg());
            if parent <= new_n {
                self.tree[parent] += self.tree[i];
            }
        }
    }
}

/// Exact stack-distance engine (byte-weighted).
///
/// [`record`](Self::record) returns the distance of each access:
/// `None` for a cold (first-ever) access, otherwise the number of unique
/// bytes accessed since the key's previous access — the smallest LRU cache
/// size (in bytes of item footprint) at which this access would hit.
///
/// # Example
///
/// ```
/// use elmem_stackdist::ExactStackDistance;
/// use elmem_util::KeyId;
///
/// let mut e = ExactStackDistance::new();
/// assert_eq!(e.record(KeyId(1), 100), None);      // cold
/// assert_eq!(e.record(KeyId(2), 50), None);       // cold
/// assert_eq!(e.record(KeyId(1), 100), Some(150)); // k2 + k1 itself
/// assert_eq!(e.record(KeyId(1), 100), Some(100)); // immediate reuse
/// ```
#[derive(Debug, Clone)]
pub struct ExactStackDistance {
    fenwick: Fenwick,
    /// key → `(footprint << 32) | last_position`, one deterministic-hash
    /// probe per record instead of two `HashMap` lookups. Footprints and
    /// positions both fit u32: item footprints are capped far below 4 GB,
    /// and positions are bounded by the tree capacity, which compaction
    /// keeps near the live-key count.
    slots: FastIntMap<KeyId, u64>,
    time: usize,
    /// Sum of every tracked key's footprint — the tree's total, kept here
    /// so a warm access walks the tree three times, not four. Exact, so
    /// compaction and growth leave it unchanged.
    total: u64,
    /// Reusable compaction scratch (position, key), kept across
    /// compactions so steady-state recording never allocates.
    scratch: Vec<(u32, KeyId)>,
}

impl Default for ExactStackDistance {
    fn default() -> Self {
        Self::new()
    }
}

impl ExactStackDistance {
    /// Creates an empty engine.
    pub fn new() -> Self {
        ExactStackDistance {
            fenwick: Fenwick::with_capacity(1024),
            slots: FastIntMap::default(),
            time: 0,
            total: 0,
            scratch: Vec::new(),
        }
    }

    /// Number of accesses recorded.
    pub fn accesses(&self) -> usize {
        self.time
    }

    /// Number of distinct keys seen.
    pub fn unique_keys(&self) -> usize {
        self.slots.len()
    }

    /// Records an access to `key` whose item footprint is `bytes`; returns
    /// the byte-weighted stack distance (`None` = cold access).
    ///
    /// The distance *includes* the key's own footprint, so a distance `d`
    /// means the access hits in any LRU cache of capacity `>= d` bytes.
    pub fn record(&mut self, key: KeyId, bytes: u64) -> Option<u64> {
        debug_assert!(bytes <= u64::from(u32::MAX), "footprint exceeds u32");
        if self.time >= self.fenwick.len() {
            self.compact_or_grow();
        }
        let pos = self.time;
        debug_assert!(pos <= u32::MAX as usize, "position exceeds u32");
        let result = match self.slots.insert(key, (bytes << 32) | pos as u64) {
            Some(old) => {
                // Unique bytes of *other* keys accessed strictly after
                // `prev`: the prefix through `prev` includes this key's own
                // weight, so the suffix beyond it is exactly the others.
                // Add the item's own (new) footprint — it must itself fit
                // in the cache for the access to hit.
                let prev = (old & 0xffff_ffff) as usize;
                let own = old >> 32;
                let others = self.total - self.fenwick.prefix(prev);
                self.fenwick.add(prev, -(own as i128));
                self.total -= own;
                Some(others + bytes)
            }
            None => None,
        };
        self.fenwick.add(pos, bytes as i128);
        self.total += bytes;
        self.time += 1;
        result
    }

    /// The tracked keys oldest-first (by recency of last access), with
    /// their footprints — the hand-off order when an adaptive profile
    /// replays its exact history into a MIMIR estimator.
    pub fn entries_by_recency(&self) -> Vec<(KeyId, u64)> {
        let mut order: Vec<(u32, KeyId, u64)> = self
            .slots
            .iter()
            .map(|(k, &packed)| ((packed & 0xffff_ffff) as u32, *k, packed >> 32))
            .collect();
        order.sort_unstable_by_key(|&(pos, _, _)| pos);
        order.into_iter().map(|(_, k, b)| (k, b)).collect()
    }

    /// When positions run out: if many positions are dead (keys re-accessed),
    /// compact live positions to the front; otherwise grow the tree.
    fn compact_or_grow(&mut self) {
        let live = self.slots.len();
        if live * 2 <= self.time {
            // Compact: renumber live keys by their current position order.
            // The rebuilt tree is sized to the live population (plus
            // doubling headroom), *not* the old capacity — the previous
            // full-capacity preallocation meant one burst of unique keys
            // pinned the high-water tree size forever.
            self.scratch.clear();
            self.scratch.extend(
                self.slots
                    .iter()
                    .map(|(k, &packed)| ((packed & 0xffff_ffff) as u32, *k)),
            );
            self.scratch.sort_unstable();
            let cap = (live * 2).max(1024);
            for (new_pos, &(_, key)) in self.scratch.iter().enumerate() {
                let packed = self.slots.get_mut(&key).expect("scratch key is live");
                *packed = (*packed & !0xffff_ffffu64) | new_pos as u64;
            }
            let slots = &self.slots;
            self.fenwick =
                Fenwick::from_weights(cap, self.scratch.iter().map(|(_, key)| slots[key] >> 32));
            self.time = live;
        } else {
            self.fenwick.grow();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// Brute-force reference: unique bytes between successive accesses.
    fn brute_force(trace: &[(u64, u64)]) -> Vec<Option<u64>> {
        let mut out = Vec::new();
        for (i, &(key, bytes)) in trace.iter().enumerate() {
            let prev = trace[..i].iter().rposition(|&(k, _)| k == key);
            match prev {
                None => out.push(None),
                Some(p) => {
                    // Each intervening key occupies its *latest* footprint
                    // at the time of the re-access: scan in reverse and
                    // count the first (most recent) occurrence.
                    let mut seen: HashSet<u64> = HashSet::new();
                    let mut sum = 0u64;
                    for &(k, b) in trace[p + 1..i].iter().rev() {
                        if k != key && seen.insert(k) {
                            sum += b;
                        }
                    }
                    out.push(Some(sum + bytes));
                }
            }
        }
        out
    }

    #[test]
    fn matches_brute_force_small() {
        let trace = vec![
            (1, 100),
            (2, 50),
            (1, 100),
            (3, 10),
            (2, 50),
            (1, 100),
            (1, 100),
        ];
        let mut e = ExactStackDistance::new();
        let got: Vec<Option<u64>> = trace.iter().map(|&(k, b)| e.record(KeyId(k), b)).collect();
        assert_eq!(got, brute_force(&trace));
    }

    #[test]
    fn matches_brute_force_with_duplicate_interleavings() {
        // Repeated accesses to the same intervening key must count once.
        let trace = vec![(1, 10), (2, 20), (2, 20), (2, 20), (1, 10)];
        let mut e = ExactStackDistance::new();
        let got: Vec<Option<u64>> = trace.iter().map(|&(k, b)| e.record(KeyId(k), b)).collect();
        assert_eq!(got, brute_force(&trace));
        assert_eq!(got[4], Some(30)); // 20 (key2 once) + own 10
    }

    #[test]
    fn immediate_reuse_distance_is_own_size() {
        let mut e = ExactStackDistance::new();
        e.record(KeyId(7), 64);
        assert_eq!(e.record(KeyId(7), 64), Some(64));
    }

    #[test]
    fn cold_accesses_are_none() {
        let mut e = ExactStackDistance::new();
        for k in 0..100 {
            assert_eq!(e.record(KeyId(k), 8), None);
        }
        assert_eq!(e.unique_keys(), 100);
        assert_eq!(e.accesses(), 100);
    }

    #[test]
    fn compaction_preserves_distances() {
        // Force many dead positions by cycling a small key set many times.
        let mut e = ExactStackDistance::new();
        let keys = 16u64;
        let mut expected_after_warm = Vec::new();
        for round in 0..2000u64 {
            for k in 0..keys {
                let d = e.record(KeyId(k), 10);
                if round > 0 {
                    expected_after_warm.push(d);
                }
            }
        }
        // Every warm access cycles through all other keys once: 16 * 10.
        assert!(expected_after_warm.iter().all(|&d| d == Some(keys * 10)));
    }

    #[test]
    fn growth_preserves_distances() {
        // All-unique keys force tree growth without compaction opportunity.
        let mut e = ExactStackDistance::new();
        for k in 0..5000u64 {
            assert_eq!(e.record(KeyId(k), 1), None);
        }
        // Re-access the first key: distance = all 5000 keys' bytes.
        assert_eq!(e.record(KeyId(0), 1), Some(5000));
    }

    #[test]
    fn growth_mid_stream_matches_brute_force() {
        use elmem_util::DetRng;
        // Enough distinct positions to force doublings past the initial
        // 1024 capacity while live weights are scattered across the tree —
        // the case `grow` must carry over exactly.
        let mut rng = DetRng::seed(7);
        let trace: Vec<(u64, u64)> = (0..2600)
            .map(|_| (rng.next_below(900), 1 + rng.next_below(64)))
            .collect();
        let mut e = ExactStackDistance::new();
        let got: Vec<Option<u64>> = trace.iter().map(|&(k, b)| e.record(KeyId(k), b)).collect();
        assert_eq!(got, brute_force(&trace));
    }

    #[test]
    fn randomized_against_brute_force() {
        use elmem_util::DetRng;
        let mut rng = DetRng::seed(42);
        let uniform: Vec<(u64, u64)> = (0..300)
            .map(|_| (rng.next_below(30), 1 + rng.next_below(100)))
            .collect();
        // A hot core over a cold tail: positions both die (compaction) and
        // accumulate (growth) in one run, and the tree grows again after it
        // was compacted.
        let mut rng = DetRng::seed(11);
        let hot_cold: Vec<(u64, u64)> = (0..8_000u64)
            .map(|i| {
                let key = if i % 3 == 0 {
                    rng.next_below(40)
                } else {
                    rng.next_below(1_500)
                };
                (key, 1 + rng.next_below(4096))
            })
            .collect();
        for (trace, crosses_rebuilds) in [(uniform, false), (hot_cold, true)] {
            let mut e = ExactStackDistance::new();
            let (mut compactions, mut growths) = (0, 0);
            let got: Vec<Option<u64>> = trace
                .iter()
                .map(|&(k, b)| {
                    let (capacity, time) = (e.fenwick.len(), e.time);
                    let d = e.record(KeyId(k), b);
                    // A compaction renumbers time down to the live count
                    // and never widens the tree; a growth only widens it.
                    compactions += usize::from(e.time <= time);
                    growths += usize::from(e.fenwick.len() > capacity);
                    d
                })
                .collect();
            assert_eq!(got, brute_force(&trace));
            if crosses_rebuilds {
                assert!(
                    compactions >= 1 && growths >= 1,
                    "{compactions} compactions, {growths} growths"
                );
            }
        }
    }

    #[test]
    fn compaction_rightsizes_the_tree() {
        let mut e = ExactStackDistance::new();
        for k in 0..5000u64 {
            e.record(KeyId(k), 1);
        }
        let grown = e.fenwick.len();
        assert!(grown >= 8192, "unique burst should have doubled the tree");
        // Cycle the same keys: positions die, compaction fires, and the
        // rebuilt tree must be sized to the live population — not the old
        // capacity (the pre-fix code pinned the high-water size forever).
        for _round in 0..10 {
            for k in 0..5000u64 {
                e.record(KeyId(k), 1);
            }
        }
        assert!(
            e.fenwick.len() <= 2 * 5000,
            "tree kept high-water capacity {}",
            e.fenwick.len()
        );
        assert_eq!(e.record(KeyId(0), 1), Some(5000));
    }

    #[test]
    fn entries_by_recency_is_oldest_first() {
        let mut e = ExactStackDistance::new();
        e.record(KeyId(3), 30);
        e.record(KeyId(1), 10);
        e.record(KeyId(2), 20);
        e.record(KeyId(3), 31); // key 3 becomes most recent
        assert_eq!(
            e.entries_by_recency(),
            vec![(KeyId(1), 10), (KeyId(2), 20), (KeyId(3), 31)]
        );
    }

    #[test]
    fn changing_item_size_uses_new_size() {
        let trace = vec![(1, 10), (2, 5), (1, 99)];
        let mut e = ExactStackDistance::new();
        let got: Vec<Option<u64>> = trace.iter().map(|&(k, b)| e.record(KeyId(k), b)).collect();
        // Distance counts key2 (5) + the *new* footprint (99).
        assert_eq!(got[2], Some(104));
        assert_eq!(got, brute_force(&trace));
    }
}
