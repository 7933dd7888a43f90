//! Ketama-style consistent hash ring with virtual nodes.

use elmem_util::hashutil::{combine, mix64};
use elmem_util::{KeyId, NodeId};

/// A consistent hash ring mapping keys to nodes.
///
/// Each member contributes `vnodes` points on a 64-bit ring; a key maps to
/// the owner of the first point clockwise from the key's hash. Placement
/// depends only on the membership *set* (not insertion order), so any two
/// clients — or agents hashing against a hypothetical future membership —
/// agree on placement.
///
/// # Example
///
/// ```
/// use elmem_hash::HashRing;
/// use elmem_util::{KeyId, NodeId};
///
/// let ring = HashRing::new([NodeId(0), NodeId(1)].into_iter(), 64);
/// assert_eq!(ring.len(), 2);
/// let n = ring.node_for(KeyId(7)).unwrap();
/// assert!(n == NodeId(0) || n == NodeId(1));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HashRing {
    /// (point, node) sorted by point.
    points: Vec<(u64, NodeId)>,
    /// Prefix-bucket index over `points`: `starts[b]` is the index of the
    /// first point whose top bits (`point >> shift`) are at least `b`
    /// (`points.len()` when there is none). About two buckets per point,
    /// so a lookup scans less than one point past its bucket's start on
    /// average. A pure function of `points`; empty for an empty ring.
    starts: Vec<u32>,
    /// `64 − log2(starts.len())`: maps a hash to its bucket.
    shift: u32,
    members: Vec<NodeId>,
    vnodes: u32,
}

impl HashRing {
    /// Builds a ring over `members`, with `vnodes` virtual points each.
    ///
    /// Duplicate member ids are ignored. `vnodes` of 100–200 gives load
    /// imbalance of a few percent, comparable to libmemcached's ketama.
    ///
    /// # Panics
    ///
    /// Panics if `vnodes == 0`.
    pub fn new(members: impl Iterator<Item = NodeId>, vnodes: u32) -> Self {
        assert!(vnodes > 0, "vnodes must be positive");
        let mut uniq: Vec<NodeId> = members.collect();
        uniq.sort_unstable();
        uniq.dedup();
        let mut points = Vec::with_capacity(uniq.len() * vnodes as usize);
        for &node in &uniq {
            let node_hash = mix64(0x6e6f_6465 ^ u64::from(node.0));
            for replica in 0..vnodes {
                points.push((combine(node_hash, u64::from(replica)), node));
            }
        }
        points.sort_unstable();
        // Resolve (astronomically unlikely) point collisions deterministically
        // in favour of the smaller node id (sort already did: tuples).
        points.dedup_by_key(|p| p.0);
        let (starts, shift) = bucket_index(&points);
        HashRing {
            points,
            starts,
            shift,
            members: uniq,
            vnodes,
        }
    }

    /// The node responsible for `key`, or `None` if the ring is empty.
    #[inline]
    pub fn node_for(&self, key: KeyId) -> Option<NodeId> {
        self.node_for_hash(mix64(key.0))
    }

    /// Placement by precomputed key hash: the owner of the first point at
    /// or clockwise from `hash`, wrapping to the first point of the ring.
    ///
    /// Every point before `starts[bucket]` has a smaller prefix than
    /// `hash` and is therefore smaller than `hash`, so the first point
    /// `>= hash` — what a binary search over all points would return —
    /// is the first such point at or after `starts[bucket]`.
    #[inline]
    pub fn node_for_hash(&self, hash: u64) -> Option<NodeId> {
        // An empty ring has no buckets.
        let &start = self.starts.get((hash >> self.shift) as usize)?;
        let owner = match self.points[start as usize..]
            .iter()
            .find(|&&(point, _)| point >= hash)
        {
            Some(&(_, node)) => node,
            None => self.points[0].1,
        };
        Some(owner)
    }

    /// Members of the ring, sorted by id.
    pub fn members(&self) -> &[NodeId] {
        &self.members
    }

    /// Number of member nodes.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the ring has no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Virtual points per member.
    pub fn vnodes(&self) -> u32 {
        self.vnodes
    }

    /// A ring over the same members minus `removed` (used when hashing
    /// against the retained membership in migration phase 1).
    pub fn without(&self, removed: &[NodeId]) -> HashRing {
        HashRing::new(
            self.members
                .iter()
                .copied()
                .filter(|n| !removed.contains(n)),
            self.vnodes,
        )
    }

    /// A ring over the same members plus `added` (scale-out membership).
    pub fn with(&self, added: &[NodeId]) -> HashRing {
        HashRing::new(
            self.members.iter().copied().chain(added.iter().copied()),
            self.vnodes,
        )
    }
}

/// Builds the prefix-bucket index of a point list: `(starts, shift)` as
/// documented on [`HashRing`]. Branch-free — count the points of each
/// bucket one slot to the right, then a running sum turns the counts into
/// "points in earlier buckets", which is the index of the bucket's first
/// point — because a loop that walks buckets and points together
/// mispredicts on most buckets and cost more than the sort it follows.
fn bucket_index(points: &[(u64, NodeId)]) -> (Vec<u32>, u32) {
    if points.is_empty() {
        return (Vec::new(), 0);
    }
    assert!(
        u32::try_from(points.len()).is_ok(),
        "a ring holds fewer than 2^32 points"
    );
    // A power of two in [2·len, 4·len), at least 2, so 1 <= shift <= 63.
    let buckets = (points.len() * 2).next_power_of_two();
    let shift = 64 - buckets.trailing_zeros();
    let mut starts = vec![0u32; buckets + 1];
    for &(point, _) in points {
        starts[(point >> shift) as usize + 1] += 1;
    }
    starts.pop(); // the last bucket's count: no bucket starts after it
    let mut earlier = 0;
    for start in &mut starts {
        earlier += *start;
        *start = earlier;
    }
    (starts, shift)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    fn ring(n: u32) -> HashRing {
        HashRing::new((0..n).map(NodeId), 128)
    }

    #[test]
    fn placement_is_deterministic() {
        let a = ring(10);
        let b = ring(10);
        for k in 0..1000 {
            assert_eq!(a.node_for(KeyId(k)), b.node_for(KeyId(k)));
        }
    }

    #[test]
    fn placement_independent_of_member_order() {
        let a = HashRing::new([NodeId(0), NodeId(1), NodeId(2)].into_iter(), 64);
        let b = HashRing::new([NodeId(2), NodeId(0), NodeId(1)].into_iter(), 64);
        for k in 0..1000 {
            assert_eq!(a.node_for(KeyId(k)), b.node_for(KeyId(k)));
        }
    }

    #[test]
    fn empty_ring_returns_none() {
        let r = HashRing::new(std::iter::empty(), 8);
        assert_eq!(r.node_for(KeyId(1)), None);
        assert!(r.is_empty());
    }

    #[test]
    fn duplicates_ignored() {
        let r = HashRing::new([NodeId(1), NodeId(1), NodeId(2)].into_iter(), 8);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn load_is_roughly_balanced() {
        let r = ring(10);
        let mut counts: HashMap<NodeId, u64> = HashMap::new();
        let n_keys = 100_000u64;
        for k in 0..n_keys {
            *counts.entry(r.node_for(KeyId(k)).unwrap()).or_default() += 1;
        }
        let expect = n_keys as f64 / 10.0;
        for (&node, &c) in &counts {
            let dev = (c as f64 - expect).abs() / expect;
            assert!(dev < 0.35, "{node} holds {c} keys ({dev:.2} deviation)");
        }
        assert_eq!(counts.len(), 10);
    }

    #[test]
    fn removal_only_moves_keys_of_removed_node() {
        let full = ring(10);
        let smaller = full.without(&[NodeId(3)]);
        for k in 0..10_000 {
            let before = full.node_for(KeyId(k)).unwrap();
            let after = smaller.node_for(KeyId(k)).unwrap();
            if before != NodeId(3) {
                assert_eq!(before, after, "key {k} moved unnecessarily");
            } else {
                assert_ne!(after, NodeId(3));
            }
        }
    }

    #[test]
    fn addition_moves_about_one_over_k_plus_one() {
        let k = 9u32;
        let before = ring(k);
        let after = before.with(&[NodeId(k)]);
        let n_keys = 50_000u64;
        let moved = (0..n_keys)
            .filter(|&key| before.node_for(KeyId(key)) != after.node_for(KeyId(key)))
            .count() as f64;
        let frac = moved / n_keys as f64;
        let ideal = 1.0 / f64::from(k + 1);
        assert!(
            (frac - ideal).abs() < 0.05,
            "moved fraction {frac:.3}, ideal {ideal:.3}"
        );
        // Everything that moved went to the new node.
        for key in 0..n_keys {
            let b = before.node_for(KeyId(key)).unwrap();
            let a = after.node_for(KeyId(key)).unwrap();
            if b != a {
                assert_eq!(a, NodeId(k));
            }
        }
    }

    #[test]
    fn without_then_with_round_trips() {
        let r = ring(5);
        let same = r.without(&[NodeId(2)]).with(&[NodeId(2)]);
        for k in 0..1000 {
            assert_eq!(r.node_for(KeyId(k)), same.node_for(KeyId(k)));
        }
    }

    #[test]
    #[should_panic]
    fn zero_vnodes_rejected() {
        let _ = HashRing::new([NodeId(0)].into_iter(), 0);
    }

    /// The pre-index form of `node_for_hash`, kept as the oracle: a
    /// binary search over all points.
    fn node_for_hash_by_binary_search(ring: &HashRing, hash: u64) -> Option<NodeId> {
        if ring.points.is_empty() {
            return None;
        }
        let idx = ring.points.partition_point(|&(p, _)| p < hash);
        let idx = if idx == ring.points.len() { 0 } else { idx };
        Some(ring.points[idx].1)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn index_lookup_matches_partition_point(
            nodes in prop_oneof![Just(0u32), Just(1u32), Just(3u32), Just(100u32)],
            vnodes in prop_oneof![Just(1u32), Just(128u32), Just(1_024u32)],
            first in 0u32..10_000,
            stride in 1u32..7,
            seed in any::<u64>(),
        ) {
            let ring = HashRing::new((0..nodes).map(|i| NodeId(first + i * stride)), vnodes);
            // The index is consistent with the points it was built from.
            prop_assert_eq!(ring.starts.is_empty(), ring.points.is_empty());
            prop_assert!(ring.starts.windows(2).all(|w| w[0] <= w[1]));
            prop_assert!(ring.starts.iter().all(|&s| s as usize <= ring.points.len()));

            let mut hashes = vec![0, 1, u64::MAX - 1, u64::MAX];
            for &(p, _) in &ring.points {
                hashes.extend([p.wrapping_sub(1), p, p.wrapping_add(1)]);
            }
            let mut state = seed;
            hashes.extend((0..2_000).map(|_| {
                state = mix64(state);
                state
            }));
            // Bucket edges: the first and last hash of a few buckets.
            if !ring.starts.is_empty() {
                for b in [0, 1, ring.starts.len() as u64 / 2, ring.starts.len() as u64 - 1] {
                    let lo = b << ring.shift;
                    hashes.extend([lo, lo | ((1u64 << ring.shift) - 1)]);
                }
            }
            for hash in hashes {
                prop_assert_eq!(
                    ring.node_for_hash(hash),
                    node_for_hash_by_binary_search(&ring, hash),
                    "hash {:#x}", hash
                );
            }
        }
    }

    #[test]
    fn index_has_about_two_buckets_per_point() {
        for (nodes, vnodes) in [(1u32, 1u32), (4, 128), (5, 1_024), (100, 128)] {
            let r = HashRing::new((0..nodes).map(NodeId), vnodes);
            let (points, buckets) = (r.points.len(), r.starts.len());
            assert!(buckets.is_power_of_two());
            assert!(
                (2 * points..4 * points).contains(&buckets),
                "{points} points, {buckets} buckets"
            );
            assert_eq!(1u64 << (64 - r.shift), buckets as u64);
        }
    }

    #[test]
    fn node_for_hash_agrees_with_node_for() {
        let r = ring(4);
        for k in 0..100 {
            assert_eq!(
                r.node_for(KeyId(k)),
                r.node_for_hash(elmem_util::hashutil::mix64(k))
            );
        }
    }
}
