//! The Memcached tier: nodes plus the client-visible membership.

use elmem_hash::Membership;
use elmem_store::StoreConfig;
use elmem_util::{ElmemError, NodeId, NodeMap};

use crate::config::ClusterConfig;
use crate::node::CacheNode;

/// The cache tier: the node fleet and the membership the web servers'
/// client library hashes against.
///
/// Nodes can exist *outside* the membership in two situations that the
/// ElMem control plane creates deliberately (§III-A):
///
/// * a **retiring** node stays in the membership (still serving) while its
///   hot data migrates, and is powered off only after the membership flip;
/// * a **new** node is provisioned and filled by migration *before* being
///   added to the membership.
#[derive(Debug, Clone)]
pub struct CacheTier {
    // Id-indexed: the serving path resolves the owner node on every
    // lookup, so this must be a slot read, not a tree walk.
    nodes: NodeMap<CacheNode>,
    membership: Membership,
    config: ClusterConfig,
}

impl CacheTier {
    /// Boots `config.initial_nodes` nodes, all in the membership.
    pub fn new(config: ClusterConfig) -> Self {
        let ids: Vec<NodeId> = (0..config.initial_nodes).map(NodeId).collect();
        let nodes = ids
            .iter()
            .map(|&id| {
                (
                    id,
                    CacheNode::new(
                        id,
                        StoreConfig {
                            memory: config.node_memory,
                            classes: config.slab_classes.clone(),
                            shards: config.store_shards,
                        },
                        config.nic_bandwidth,
                        config.nic_latency,
                    ),
                )
            })
            .collect();
        CacheTier {
            nodes,
            membership: Membership::new(ids.into_iter(), config.vnodes),
            config,
        }
    }

    /// The client-visible membership.
    pub fn membership(&self) -> &Membership {
        &self.membership
    }

    /// Ids of all *online* nodes (member or not).
    pub fn online_nodes(&self) -> Vec<NodeId> {
        self.nodes
            .values()
            .filter(|n| n.is_online())
            .map(|n| n.id())
            .collect()
    }

    /// Immutable node access.
    ///
    /// # Errors
    ///
    /// [`ElmemError::UnknownNode`] for an unknown id.
    #[inline]
    pub fn node(&self, id: NodeId) -> Result<&CacheNode, ElmemError> {
        self.nodes.get(id).ok_or(ElmemError::UnknownNode(id.0))
    }

    /// Mutable node access.
    ///
    /// # Errors
    ///
    /// [`ElmemError::UnknownNode`] for an unknown id.
    #[inline]
    pub fn node_mut(&mut self, id: NodeId) -> Result<&mut CacheNode, ElmemError> {
        self.nodes.get_mut(id).ok_or(ElmemError::UnknownNode(id.0))
    }

    /// Provisions `count` fresh nodes *outside* the membership (scale-out
    /// step 1); returns their ids.
    pub fn provision_nodes(&mut self, count: usize) -> Vec<NodeId> {
        let start = self.nodes.keys().map(|n| n.0 + 1).max().unwrap_or(0).max(
            self.membership
                .members()
                .iter()
                .map(|n| n.0 + 1)
                .max()
                .unwrap_or(0),
        );
        let ids: Vec<NodeId> = (0..count as u32).map(|i| NodeId(start + i)).collect();
        for &id in &ids {
            self.nodes.insert(
                id,
                CacheNode::new(
                    id,
                    StoreConfig {
                        memory: self.config.node_memory,
                        classes: self.config.slab_classes.clone(),
                        shards: self.config.store_shards,
                    },
                    self.config.nic_bandwidth,
                    self.config.nic_latency,
                ),
            );
        }
        ids
    }

    /// Flips membership to include `ids` (scale-out commit: clients start
    /// hashing to the new nodes).
    ///
    /// # Errors
    ///
    /// Propagates membership errors (already a member / unknown node).
    pub fn commit_add(&mut self, ids: &[NodeId]) -> Result<(), ElmemError> {
        for id in ids {
            if !self.nodes.contains(*id) {
                return Err(ElmemError::UnknownNode(id.0));
            }
        }
        self.membership.add(ids)
    }

    /// Flips membership to exclude `ids` and powers them off (scale-in
    /// commit).
    ///
    /// # Errors
    ///
    /// Propagates membership errors (unknown node / emptying the tier).
    pub fn commit_remove(&mut self, ids: &[NodeId]) -> Result<(), ElmemError> {
        self.membership.remove(ids)?;
        for id in ids {
            if let Some(n) = self.nodes.get_mut(*id) {
                n.power_off();
            }
        }
        Ok(())
    }

    /// Baseline-style *immediate* scale-in: drop from membership and power
    /// off with no migration (the paper's `baseline` comparator).
    ///
    /// # Errors
    ///
    /// Propagates membership errors.
    pub fn immediate_scale_in(&mut self, ids: &[NodeId]) -> Result<(), ElmemError> {
        self.commit_remove(ids)
    }

    /// Removes nodes from the membership but keeps them powered on —
    /// CacheScale's "secondary cache" arrangement, where retiring nodes
    /// keep serving retried misses until they are discarded (§V-B4).
    ///
    /// # Errors
    ///
    /// Propagates membership errors.
    pub fn membership_remove_keep_online(&mut self, ids: &[NodeId]) -> Result<(), ElmemError> {
        self.membership.remove(ids)
    }

    /// Powers off nodes without touching the membership (CacheScale's
    /// final discard of the secondary cache).
    pub fn power_off(&mut self, ids: &[NodeId]) {
        for id in ids {
            if let Some(n) = self.nodes.get_mut(*id) {
                n.power_off();
            }
        }
    }

    /// Crashes a node (fault injection): contents lost, unreachable.
    /// The node *stays in the membership* until the control plane evicts
    /// it — clients keep hashing to it and observe misses, exactly like a
    /// real Memcached fleet with no automatic failover. Idempotent.
    ///
    /// # Errors
    ///
    /// [`ElmemError::UnknownNode`] for an unknown id.
    pub fn crash(&mut self, id: NodeId) -> Result<(), ElmemError> {
        self.node_mut(id)?.crash();
        Ok(())
    }

    /// Members that are crashed — corpses clients still hash to — in
    /// membership order.
    pub fn crashed_members(&self) -> Vec<NodeId> {
        let crashed = |id: &NodeId| self.nodes.get(*id).is_some_and(|n| n.is_crashed());
        let members = self.membership.members().iter().copied();
        members.filter(crashed).collect()
    }

    /// Removes every crashed node from the membership (the control plane's
    /// failure response), returning the ids actually evicted. Idempotent;
    /// refuses to empty the membership — if every member has crashed, the
    /// last one is kept so clients still have a (missing) place to hash to.
    pub fn evict_crashed(&mut self) -> Vec<NodeId> {
        let mut evictable = self.crashed_members();
        let members = self.membership.len();
        if evictable.len() >= members {
            evictable.truncate(members.saturating_sub(1));
        }
        if !evictable.is_empty() {
            let _ = self.membership.remove(&evictable);
        }
        evictable
    }

    /// Resolves which member node serves `key` at the current membership.
    pub fn node_for_key(&self, key: elmem_util::KeyId) -> Option<NodeId> {
        self.membership.ring().node_for(key)
    }

    /// The tier configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Sum of items across online nodes.
    pub fn total_items(&self) -> u64 {
        self.nodes
            .values()
            .filter(|n| n.is_online())
            .map(|n| n.store.len())
            .sum()
    }

    /// Iterates over all nodes.
    pub fn iter_nodes(&self) -> impl Iterator<Item = &CacheNode> {
        self.nodes.values()
    }

    /// The membership beside every node mutably (disjoint fields), so a
    /// fill can route keys on the ring while its workers each hold their
    /// own nodes' stores.
    pub(crate) fn membership_and_nodes_mut(
        &mut self,
    ) -> (&Membership, impl Iterator<Item = &mut CacheNode>) {
        (&self.membership, self.nodes.values_mut())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elmem_util::{KeyId, SimTime};

    fn tier() -> CacheTier {
        CacheTier::new(ClusterConfig::small_test())
    }

    #[test]
    fn boots_initial_membership() {
        let t = tier();
        assert_eq!(t.membership().len(), 4);
        assert_eq!(t.online_nodes().len(), 4);
    }

    #[test]
    fn provision_outside_membership() {
        let mut t = tier();
        let ids = t.provision_nodes(2);
        assert_eq!(ids, vec![NodeId(4), NodeId(5)]);
        assert_eq!(t.membership().len(), 4); // unchanged until commit
        assert_eq!(t.online_nodes().len(), 6);
        t.commit_add(&ids).unwrap();
        assert_eq!(t.membership().len(), 6);
    }

    #[test]
    fn commit_remove_powers_off() {
        let mut t = tier();
        t.node_mut(NodeId(0))
            .unwrap()
            .store
            .set(KeyId(1), 10, SimTime::from_secs(1))
            .unwrap();
        t.commit_remove(&[NodeId(0)]).unwrap();
        assert_eq!(t.membership().len(), 3);
        assert!(!t.node(NodeId(0)).unwrap().is_online());
        assert_eq!(t.node(NodeId(0)).unwrap().store.len(), 0);
    }

    #[test]
    fn key_routing_stays_in_membership() {
        let t = tier();
        for k in 0..100 {
            let n = t.node_for_key(KeyId(k)).unwrap();
            assert!(t.membership().members().contains(&n));
        }
    }

    #[test]
    fn commit_add_unknown_node_rejected() {
        let mut t = tier();
        assert!(t.commit_add(&[NodeId(42)]).is_err());
    }

    #[test]
    fn crash_keeps_membership_until_eviction() {
        let mut t = tier();
        t.crash(NodeId(1)).unwrap();
        assert!(t.node(NodeId(1)).unwrap().is_crashed());
        assert_eq!(t.membership().len(), 4, "crash does not flip membership");
        assert_eq!(t.crashed_members(), vec![NodeId(1)]);
        let evicted = t.evict_crashed();
        assert_eq!(evicted, vec![NodeId(1)]);
        assert_eq!(t.membership().len(), 3);
        // Idempotent: nothing left to evict.
        assert!(t.evict_crashed().is_empty());
    }

    #[test]
    fn evict_crashed_never_empties_membership() {
        let mut t = tier();
        for id in 0..4 {
            t.crash(NodeId(id)).unwrap();
        }
        let evicted = t.evict_crashed();
        assert_eq!(evicted.len(), 3);
        assert_eq!(t.membership().len(), 1);
        // The kept corpse is the one crashed *member*; the rest are only
        // crashed nodes.
        assert_eq!(t.crashed_members(), t.membership().members());
        assert_eq!(t.iter_nodes().filter(|n| n.is_crashed()).count(), 4);
    }

    #[test]
    fn crash_unknown_node_rejected() {
        let mut t = tier();
        assert!(matches!(
            t.crash(NodeId(99)),
            Err(ElmemError::UnknownNode(99))
        ));
    }
}
