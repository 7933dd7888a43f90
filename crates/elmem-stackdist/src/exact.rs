//! Exact byte-weighted stack distances over flat arrays.
//!
//! Classic single-pass algorithm: keep, for every key, the position of its
//! last access, and at every position the footprint of the key last accessed
//! there (zero once that key moved on). The stack distance of an access to
//! key `k` is the sum of footprints after `k`'s previous position — the
//! unique bytes touched in between.
//!
//! Key ids are dense (a keyspace's `0..n_keys`), so a key's last position is
//! one load from an array indexed by its id, not a hash probe. A Fenwick tree
//! holds one sum per sealed block of [`BLOCK`] positions, and a partial block
//! is summed directly: the tree is four levels shorter than one over
//! positions and stays in cache. The open block at the head of time enters
//! it once, when its last position is written.

use elmem_util::KeyId;

/// Positions per block of the position array.
const BLOCK: usize = 16;

/// `last` entry of a key never seen.
const NONE: u32 = u32::MAX;

/// Fewest positions the engine holds, a multiple of [`BLOCK`].
const MIN_CAPACITY: usize = 1024;

/// Fenwick tree over u64 block sums.
#[derive(Debug, Clone)]
struct Fenwick {
    tree: Vec<u64>,
}

impl Fenwick {
    /// Builds a tree over `n` entries whose first ones are `sums`, in O(n)
    /// (the in-place construction), instead of O(log n) point inserts.
    fn from_sums(n: usize, sums: impl Iterator<Item = u64>) -> Self {
        let padded = sums.chain(std::iter::repeat(0));
        let mut tree: Vec<u64> = std::iter::once(0).chain(padded).take(n + 1).collect();
        for i in 1..=n {
            let parent = i + (i & i.wrapping_neg());
            if parent <= n {
                tree[parent] += tree[i];
            }
        }
        Fenwick { tree }
    }

    /// Adds `delta` (wrapping: a removal passes its negation) at entry `i`.
    fn add(&mut self, i: usize, delta: u64) {
        let mut i = i + 1;
        while i < self.tree.len() {
            self.tree[i] = self.tree[i].wrapping_add(delta);
            i += i & i.wrapping_neg();
        }
    }

    /// Sum of entries `0..i`.
    fn prefix(&self, mut i: usize) -> u64 {
        let mut s = 0u64;
        while i > 0 {
            s = s.wrapping_add(self.tree[i]);
            i &= i - 1;
        }
        s
    }
}

fn sum(weights: &[u32]) -> u64 {
    weights.iter().map(|&w| u64::from(w)).sum()
}

/// Exact stack-distance engine (byte-weighted).
///
/// [`record`](Self::record) returns the distance of each access:
/// `None` for a cold (first-ever) access, otherwise the number of unique
/// bytes accessed since the key's previous access — the smallest LRU cache
/// size (in bytes of item footprint) at which this access would hit.
///
/// Key ids index an array, so the engine holds four bytes for every id up
/// to the largest it has recorded: feed it a keyspace's dense ids.
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
    /// Key id → position of its last access, [`NONE`] for a key never seen.
    last: Vec<u32>,
    /// Position → footprint of the key last accessed there, zero once that
    /// key moved on. Its length, a multiple of [`BLOCK`], is the capacity
    /// in positions; compaction keeps it near twice the live-key count.
    weights: Vec<u32>,
    /// One sum per block of `weights`; the open block, `time / BLOCK`, and
    /// those after it are held as zero.
    blocks: Fenwick,
    time: usize,
    /// Distinct keys seen.
    live: usize,
    /// Sum of every tracked key's footprint, so a warm access walks the
    /// tree for the bytes *before* its previous position only.
    total: u64,
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
            last: Vec::new(),
            weights: vec![0; MIN_CAPACITY],
            blocks: Fenwick::from_sums(MIN_CAPACITY / BLOCK, std::iter::empty()),
            time: 0,
            live: 0,
            total: 0,
        }
    }

    /// Number of accesses recorded.
    pub fn accesses(&self) -> usize {
        self.time
    }

    /// Number of distinct keys seen.
    pub fn unique_keys(&self) -> usize {
        self.live
    }

    /// Records an access to `key` whose item footprint is `bytes`; returns
    /// the byte-weighted stack distance (`None` = cold access).
    ///
    /// The distance *includes* the key's own footprint, so a distance `d`
    /// means the access hits in any LRU cache of capacity `>= d` bytes.
    ///
    /// # Panics
    ///
    /// Panics if the key's id is `u32::MAX` or more.
    pub fn record(&mut self, key: KeyId, bytes: u64) -> Option<u64> {
        debug_assert!(bytes <= u64::from(u32::MAX), "footprint exceeds u32");
        assert!(key.0 < u64::from(NONE), "key id {} is not dense", key.0);
        let id = key.0 as usize;
        if id >= self.last.len() {
            self.last.resize(id + 1, NONE);
        }
        if self.time == self.weights.len() {
            self.compact_or_grow();
        }
        let pos = self.time;
        let prev = std::mem::replace(&mut self.last[id], pos as u32);
        let result = if prev == NONE {
            self.live += 1;
            None
        } else {
            let prev = prev as usize;
            let own = u64::from(std::mem::take(&mut self.weights[prev]));
            let block = prev / BLOCK;
            if block < pos / BLOCK {
                self.blocks.add(block, own.wrapping_neg());
            }
            self.total -= own;
            // Bytes of other keys accessed after `prev` (all tracked minus
            // those before it), plus the item's own new footprint.
            let before = self.blocks.prefix(block) + sum(&self.weights[block * BLOCK..prev]);
            Some(self.total - before + bytes)
        };
        self.weights[pos] = bytes as u32;
        self.total += bytes;
        self.time = pos + 1;
        if self.time.is_multiple_of(BLOCK) {
            let block = pos / BLOCK;
            let sealed = sum(&self.weights[block * BLOCK..self.time]);
            self.blocks.add(block, sealed);
        }
        result
    }

    /// The tracked keys oldest-first (by recency of last access), with
    /// their footprints — the hand-off order when an adaptive profile
    /// replays its exact history into a MIMIR estimator.
    pub fn entries_by_recency(&self) -> Vec<(KeyId, u64)> {
        self.live_positions()
            .map(|(pos, id)| (KeyId(u64::from(id)), u64::from(self.weights[pos])))
            .collect()
    }

    /// The live positions in time order, each with its key's id: one pass
    /// over the keys, no sort.
    fn live_positions(&self) -> impl Iterator<Item = (usize, u32)> {
        let mut owners = vec![NONE; self.time];
        for (id, &pos) in self.last.iter().enumerate() {
            if pos != NONE {
                owners[pos as usize] = id as u32;
            }
        }
        owners.into_iter().enumerate().filter(|&(_, id)| id != NONE)
    }

    /// When positions run out: if many positions are dead (keys re-accessed),
    /// compact live positions to the front; otherwise double the capacity.
    fn compact_or_grow(&mut self) {
        if self.live * 2 <= self.time {
            // Renumber live keys in their position order. The array is
            // sized to the live population (plus doubling headroom), not
            // the old capacity, so one burst of unique keys does not pin
            // the high-water size forever.
            let mut compacted = vec![0; (self.live * 2).max(MIN_CAPACITY).next_multiple_of(BLOCK)];
            for (next, (pos, id)) in self.live_positions().enumerate() {
                self.last[id as usize] = next as u32;
                compacted[next] = self.weights[pos];
            }
            self.weights = compacted;
            self.time = self.live;
        } else {
            self.weights.resize(self.weights.len() * 2, 0);
        }
        let sealed = self.weights[..self.time - self.time % BLOCK].chunks_exact(BLOCK);
        self.blocks = Fenwick::from_sums(self.weights.len() / BLOCK, sealed.map(sum));
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
                    let (capacity, time) = (e.weights.len(), e.time);
                    let d = e.record(KeyId(k), b);
                    // A compaction renumbers time down to the live count
                    // and never widens the array; a growth only widens it.
                    compactions += usize::from(e.time <= time);
                    growths += usize::from(e.weights.len() > capacity);
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
        let grown = e.weights.len();
        assert!(grown >= 8192, "unique burst should have doubled the array");
        // Cycle the same keys: positions die, compaction fires, and the
        // rebuilt array must be sized to the live population, not the old
        // capacity, or one burst pins the high-water size forever.
        for _round in 0..10 {
            for k in 0..5000u64 {
                e.record(KeyId(k), 1);
            }
        }
        assert!(
            e.weights.len() <= 2 * 5000,
            "array kept high-water capacity {}",
            e.weights.len()
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

    #[test]
    fn ids_index_the_array_directly() {
        // Ids far apart and out of order: the array grows to the largest,
        // and a never-seen id below it reads as cold.
        let trace = vec![(900_000, 8), (3, 5), (70_000, 2), (3, 5), (900_000, 8)];
        let mut e = ExactStackDistance::new();
        let got: Vec<Option<u64>> = trace.iter().map(|&(k, b)| e.record(KeyId(k), b)).collect();
        assert_eq!(got, brute_force(&trace));
        assert_eq!(e.last.len(), 900_001);
        assert_eq!(e.record(KeyId(4), 1), None);
        assert_eq!(e.unique_keys(), 4);
    }

    #[test]
    #[should_panic(expected = "not dense")]
    fn an_id_past_the_position_width_is_refused() {
        ExactStackDistance::new().record(KeyId(u64::from(u32::MAX)), 1);
    }

    #[test]
    fn a_tracked_key_costs_at_most_18_bytes_of_positions() {
        use elmem_util::DetRng;
        // A hot core over a dense tail, as a keyspace's Zipf stream reads.
        // The position array holds at most four positions per live key
        // (4 B each) and the block tree one u64 per 16 positions; the id
        // array is 4 B per id up to the largest seen, tracked or not.
        let mut rng = DetRng::seed(5);
        let mut e = ExactStackDistance::new();
        let mut largest = 0;
        for i in 0..400_000u64 {
            let key = if i % 2 == 0 {
                rng.next_below(2_000)
            } else {
                rng.next_below(60_000)
            };
            largest = largest.max(key);
            e.record(KeyId(key), 64 + rng.next_below(1_000));
            assert_eq!(e.last.len() as u64, largest + 1);
            if e.unique_keys() >= 10_000 {
                let bytes = 4 * e.weights.capacity() + 8 * e.blocks.tree.capacity();
                let per_key = bytes as f64 / e.unique_keys() as f64;
                assert!(per_key <= 18.0, "{per_key:.1} B a key at access {i}");
            }
        }
    }
}
