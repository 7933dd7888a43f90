//! [`NodeMap`]: a node-id-indexed slot map for per-node state.
//!
//! Node ids in this workspace are small, dense `u32`s — the tier boots
//! ids `0..n` and provisioning hands out `max+1` onward, so even a
//! cluster that scales in and out for days stays within a few hundred
//! ids. The serving path resolves per-node state (the cache node, its
//! circuit breaker, its telemetry counters) on *every* lookup, and a
//! `BTreeMap<NodeId, T>` walk there is pointer-chasing the hot path can
//! feel: at 100+ nodes each walk is ~7 cache-cold comparisons, and the
//! lookup path does several per key.
//!
//! `NodeMap` stores `Vec<Option<T>>` indexed by the id itself: `get` is
//! one bounds check and one slot read. Iteration is in ascending id
//! order — exactly the order `BTreeMap` iterates — so swapping one for
//! the other is invisible to golden traces, dumps, and any code that
//! relies on deterministic per-node ordering.

use crate::NodeId;

/// A map from [`NodeId`] to `T`, laid out as an id-indexed slot vector.
///
/// # Example
///
/// ```
/// use elmem_util::{nodemap::NodeMap, NodeId};
///
/// let mut m = NodeMap::new();
/// m.insert(NodeId(2), "b");
/// m.insert(NodeId(0), "a");
/// assert_eq!(m.len(), 2);
/// assert_eq!(m.get(NodeId(2)), Some(&"b"));
/// // Ascending id order, like a BTreeMap.
/// assert_eq!(m.keys().collect::<Vec<_>>(), vec![NodeId(0), NodeId(2)]);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NodeMap<T> {
    slots: Vec<Option<T>>,
    len: usize,
}

impl<T> NodeMap<T> {
    /// Creates an empty map.
    pub fn new() -> Self {
        NodeMap {
            slots: Vec::new(),
            len: 0,
        }
    }

    /// Number of nodes present.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The value for `id`, if present.
    #[inline]
    pub fn get(&self, id: NodeId) -> Option<&T> {
        self.slots.get(id.0 as usize)?.as_ref()
    }

    /// Mutable access to the value for `id`, if present.
    #[inline]
    pub fn get_mut(&mut self, id: NodeId) -> Option<&mut T> {
        self.slots.get_mut(id.0 as usize)?.as_mut()
    }

    /// Whether `id` is present.
    #[inline]
    pub fn contains(&self, id: NodeId) -> bool {
        self.get(id).is_some()
    }

    /// Inserts a value, returning the previous one if any.
    pub fn insert(&mut self, id: NodeId, value: T) -> Option<T> {
        let idx = id.0 as usize;
        if idx >= self.slots.len() {
            self.slots.resize_with(idx + 1, || None);
        }
        let old = self.slots[idx].replace(value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Removes and returns the value for `id`, if present.
    pub fn remove(&mut self, id: NodeId) -> Option<T> {
        let old = self.slots.get_mut(id.0 as usize)?.take();
        if old.is_some() {
            self.len -= 1;
        }
        old
    }

    /// Mutable access to `id`, inserting `default()` first if absent.
    #[inline]
    pub fn get_or_insert_with(&mut self, id: NodeId, default: impl FnOnce() -> T) -> &mut T {
        let idx = id.0 as usize;
        if idx >= self.slots.len() {
            self.slots.resize_with(idx + 1, || None);
        }
        let slot = &mut self.slots[idx];
        if slot.is_none() {
            *slot = Some(default());
            self.len += 1;
        }
        slot.as_mut().expect("slot filled above")
    }

    /// Present ids in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.iter().map(|(id, _)| id)
    }

    /// Present values in ascending id order.
    pub fn values(&self) -> impl Iterator<Item = &T> {
        self.slots.iter().filter_map(|s| s.as_ref())
    }

    /// Present values mutably, in ascending id order. The borrows are
    /// disjoint, so they can be handed to different threads.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.slots.iter_mut().filter_map(|s| s.as_mut())
    }

    /// Present `(id, value)` pairs in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &T)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|v| (NodeId(i as u32), v)))
    }

    /// Two distinct values mutably at once (e.g. a migration's source and
    /// destination nodes). `None` if either id is absent or `a == b`.
    pub fn get_pair_mut(&mut self, a: NodeId, b: NodeId) -> Option<(&mut T, &mut T)> {
        if a == b || !self.contains(a) || !self.contains(b) {
            return None;
        }
        let (lo, hi) = (a.0.min(b.0) as usize, a.0.max(b.0) as usize);
        let (left, right) = self.slots.split_at_mut(hi);
        let lo_ref = left[lo].as_mut().expect("checked above");
        let hi_ref = right[0].as_mut().expect("checked above");
        if a.0 < b.0 {
            Some((lo_ref, hi_ref))
        } else {
            Some((hi_ref, lo_ref))
        }
    }
}

impl<T> FromIterator<(NodeId, T)> for NodeMap<T> {
    fn from_iter<I: IntoIterator<Item = (NodeId, T)>>(iter: I) -> Self {
        let mut m = NodeMap::new();
        for (id, v) in iter {
            m.insert(id, v);
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut m = NodeMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(NodeId(5), 50), None);
        assert_eq!(m.insert(NodeId(5), 55), Some(50));
        assert_eq!(m.len(), 1);
        assert_eq!(m.get(NodeId(5)), Some(&55));
        assert_eq!(m.get(NodeId(4)), None);
        assert_eq!(m.remove(NodeId(5)), Some(55));
        assert_eq!(m.remove(NodeId(5)), None);
        assert!(m.is_empty());
    }

    #[test]
    fn iterates_in_ascending_id_order_like_btreemap() {
        use std::collections::BTreeMap;
        let pairs = [(NodeId(9), 'c'), (NodeId(1), 'a'), (NodeId(4), 'b')];
        let m: NodeMap<char> = pairs.iter().copied().collect();
        let b: BTreeMap<NodeId, char> = pairs.iter().copied().collect();
        assert_eq!(
            m.iter().map(|(id, &v)| (id, v)).collect::<Vec<_>>(),
            b.iter().map(|(&id, &v)| (id, v)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn get_or_insert_with_inserts_once() {
        let mut m = NodeMap::new();
        *m.get_or_insert_with(NodeId(3), || 1) += 10;
        *m.get_or_insert_with(NodeId(3), || 1) += 10;
        assert_eq!(m.get(NodeId(3)), Some(&21));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn pair_mut_returns_in_argument_order() {
        let mut m: NodeMap<u32> = [(NodeId(2), 20), (NodeId(7), 70)].into_iter().collect();
        let (a, b) = m.get_pair_mut(NodeId(7), NodeId(2)).unwrap();
        assert_eq!((*a, *b), (70, 20));
        *a += 1;
        *b += 2;
        assert_eq!(m.get(NodeId(7)), Some(&71));
        assert_eq!(m.get(NodeId(2)), Some(&22));
    }

    #[test]
    fn values_mut_visits_present_slots_in_id_order() {
        let mut m: NodeMap<u32> = [(NodeId(7), 70), (NodeId(2), 20)].into_iter().collect();
        for (i, v) in m.values_mut().enumerate() {
            *v += i as u32;
        }
        assert_eq!(m.values().copied().collect::<Vec<_>>(), vec![20, 71]);
    }

    #[test]
    fn pair_mut_rejects_same_or_missing() {
        let mut m: NodeMap<u32> = [(NodeId(2), 20)].into_iter().collect();
        assert!(m.get_pair_mut(NodeId(2), NodeId(2)).is_none());
        assert!(m.get_pair_mut(NodeId(2), NodeId(9)).is_none());
    }

    #[test]
    fn sparse_ids_do_not_inflate_len() {
        let mut m = NodeMap::new();
        m.insert(NodeId(100), ());
        assert_eq!(m.len(), 1);
        assert_eq!(m.keys().collect::<Vec<_>>(), vec![NodeId(100)]);
    }
}
