//! Tier membership: [`Membership`] tracks the evolving set of cache nodes
//! and builds rings on demand.

use elmem_util::{ElmemError, NodeId};

use crate::ring::HashRing;

/// The evolving membership of the Memcached tier.
///
/// # Example
///
/// ```
/// use elmem_hash::Membership;
/// use elmem_util::NodeId;
///
/// let mut m = Membership::new((0..4).map(NodeId), 64);
/// m.remove(&[NodeId(3)]).unwrap();
/// assert_eq!(m.ring().len(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct Membership {
    ring: HashRing,
}

impl Membership {
    /// Creates a membership over initial nodes.
    pub fn new(members: impl Iterator<Item = NodeId>, vnodes: u32) -> Self {
        Membership {
            ring: HashRing::new(members, vnodes),
        }
    }

    /// The current ring.
    pub fn ring(&self) -> &HashRing {
        &self.ring
    }

    /// Current member list (sorted).
    pub fn members(&self) -> &[NodeId] {
        self.ring.members()
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether the tier has no members.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Removes nodes (scale-in commit).
    ///
    /// # Errors
    ///
    /// [`ElmemError::UnknownNode`] if a node is not a member;
    /// [`ElmemError::InvalidScaling`] if the removal would empty the tier.
    pub fn remove(&mut self, nodes: &[NodeId]) -> Result<(), ElmemError> {
        for n in nodes {
            if !self.ring.members().contains(n) {
                return Err(ElmemError::UnknownNode(n.0));
            }
        }
        if self.ring.len() <= nodes.len() {
            return Err(ElmemError::InvalidScaling(
                "cannot scale in to zero nodes".to_string(),
            ));
        }
        self.ring = self.ring.without(nodes);
        Ok(())
    }

    /// Adds specific nodes back (e.g. re-adding a kept node).
    ///
    /// # Errors
    ///
    /// [`ElmemError::InvalidScaling`] if any node is already a member.
    pub fn add(&mut self, nodes: &[NodeId]) -> Result<(), ElmemError> {
        for n in nodes {
            if self.ring.members().contains(n) {
                return Err(ElmemError::InvalidScaling(format!(
                    "{n} is already a member"
                )));
            }
        }
        self.ring = self.ring.with(nodes);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn members(n: u32) -> Membership {
        Membership::new((0..n).map(NodeId), 64)
    }

    #[test]
    fn remove_unknown_node_fails() {
        let mut m = members(3);
        assert!(matches!(
            m.remove(&[NodeId(9)]),
            Err(ElmemError::UnknownNode(9))
        ));
    }

    #[test]
    fn remove_to_empty_fails() {
        let mut m = members(2);
        assert!(m.remove(&[NodeId(0), NodeId(1)]).is_err());
    }

    #[test]
    fn add_existing_fails() {
        let mut m = members(3);
        assert!(m.add(&[NodeId(1)]).is_err());
    }
}
