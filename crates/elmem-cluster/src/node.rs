//! One Memcached node: slab store + NIC link + the Agent's migration
//! import ledger.

use std::collections::BTreeMap;

use elmem_sim::Link;
use elmem_store::{ClassId, ImportMode, ItemMeta, SlabStore, StoreConfig};
use elmem_util::{ElmemError, NodeId, SimTime};

/// The Agent's dedup ledger for journaled migration imports: which
/// `(migration id, shipment seq)` pairs this node has already applied,
/// and the content checksum each arrived with.
///
/// A crash-recovering Master re-delivers every shipment the journal never
/// durably acked; the ledger makes `batch_import` idempotent under that
/// re-delivery — a shipment already applied is suppressed (and its
/// checksum cross-checked) instead of imported twice. Volatile like the
/// store itself: a crash or power-off clears it along with the DRAM.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ImportLedger {
    entries: BTreeMap<(u64, u64), u64>,
    duplicates_suppressed: u64,
}

impl ImportLedger {
    /// The applied `(migration id, seq) → checksum` entries, in order.
    pub fn entries(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.entries.iter().map(|(&(id, seq), &sum)| (id, seq, sum))
    }

    /// How many re-delivered shipments the ledger suppressed.
    pub fn duplicates_suppressed(&self) -> u64 {
        self.duplicates_suppressed
    }

    /// Number of distinct shipments applied.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no shipment was ever applied through the ledger.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// A cache node in the Memcached tier.
///
/// Holds the storage engine and the NIC [`Link`] that the node's ElMem
/// Agent uses for migration traffic. Whether the node is *in the client
/// membership* is tracked by the tier, not the node — mirroring the paper's
/// design where "Memcached nodes are not aware of the key range that they
/// … are responsible for storing" (§II-A).
#[derive(Debug, Clone)]
pub struct CacheNode {
    id: NodeId,
    /// The storage engine (public: agents operate on it directly, like the
    /// paper's Agents do via the patched Memcached commands).
    pub store: SlabStore,
    /// NIC used for migration transfers.
    pub link: Link,
    store_config: StoreConfig,
    online: bool,
    /// Distinct from `online`: a node the Master powered off deliberately
    /// is offline but not crashed (it shut down cleanly and could be
    /// re-provisioned); a crashed node died under it — its DRAM is gone,
    /// it cannot serve, and control-plane directives to it (power-off,
    /// discard) are no-ops.
    crashed: bool,
    ledger: ImportLedger,
}

impl CacheNode {
    /// Boots a node with the given storage and NIC parameters.
    pub fn new(
        id: NodeId,
        store_config: StoreConfig,
        nic_bandwidth: f64,
        nic_latency: SimTime,
    ) -> Self {
        CacheNode {
            id,
            store: SlabStore::new(store_config.clone()),
            link: Link::new(nic_bandwidth, nic_latency),
            store_config,
            online: true,
            crashed: false,
            ledger: ImportLedger::default(),
        }
    }

    /// The Agent's migration import ledger.
    pub fn import_ledger(&self) -> &ImportLedger {
        &self.ledger
    }

    /// Applies a journaled migration shipment idempotently.
    ///
    /// Returns `Ok(true)` if the import applied, `Ok(false)` if the
    /// ledger already held `(migration_id, seq)` and the re-delivery was
    /// suppressed.
    ///
    /// # Errors
    ///
    /// [`ElmemError::InvariantViolation`] if a re-delivered shipment
    /// carries a different checksum than the applied one (the world
    /// changed between deliveries — never silently re-import); any error
    /// `batch_import` raises.
    pub fn import_shipment(
        &mut self,
        migration_id: u64,
        seq: u64,
        checksum: u64,
        class: ClassId,
        items: &[ItemMeta],
        mode: ImportMode,
    ) -> Result<bool, ElmemError> {
        if let Some(&applied) = self.ledger.entries.get(&(migration_id, seq)) {
            if applied != checksum {
                return Err(ElmemError::InvariantViolation(format!(
                    "node {}: re-delivered shipment (migration {migration_id}, seq {seq}) \
                     checksum {checksum:#018x} != applied {applied:#018x}",
                    self.id
                )));
            }
            self.ledger.duplicates_suppressed += 1;
            return Ok(false);
        }
        self.store.batch_import(class, items, mode)?;
        self.ledger.entries.insert((migration_id, seq), checksum);
        Ok(true)
    }

    /// The node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Whether the node is powered on.
    pub fn is_online(&self) -> bool {
        self.online
    }

    /// Whether the node has crashed.
    pub fn is_crashed(&self) -> bool {
        self.crashed
    }

    /// Whether a client request can reach the node at `now`: powered on,
    /// not crashed, and its NIC not inside an injected partition window.
    /// An unreachable node costs the client its full timeout.
    pub fn is_reachable(&self, now: SimTime) -> bool {
        self.online && !self.link.is_partitioned(now)
    }

    /// Powers the node off (scale-in directive from the Master). The store
    /// contents are dropped — a turned-off cache node's DRAM is gone.
    ///
    /// A **no-op for a crashed node**: the Master's directive cannot reach
    /// it, and its contents are already lost.
    pub fn power_off(&mut self) {
        if self.is_crashed() {
            return;
        }
        self.online = false;
        self.store = SlabStore::new(self.store_config.clone());
        self.ledger = ImportLedger::default();
    }

    /// Crashes the node (fault injection): contents lost, unreachable.
    /// Idempotent.
    pub fn crash(&mut self) {
        self.online = false;
        self.crashed = true;
        self.store = SlabStore::new(self.store_config.clone());
        self.ledger = ImportLedger::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elmem_util::KeyId;

    #[test]
    fn power_off_drops_contents() {
        let mut n = CacheNode::new(
            NodeId(1),
            StoreConfig::with_memory(elmem_util::ByteSize::from_mib(4)),
            1e9,
            SimTime::from_micros(10),
        );
        n.store.set(KeyId(1), 100, SimTime::from_secs(1)).unwrap();
        assert_eq!(n.store.len(), 1);
        n.power_off();
        assert!(!n.is_online());
        assert_eq!(n.store.len(), 0);
    }

    #[test]
    fn crash_is_terminal_and_idempotent() {
        let mut n = CacheNode::new(
            NodeId(2),
            StoreConfig::with_memory(elmem_util::ByteSize::from_mib(4)),
            1e9,
            SimTime::from_micros(10),
        );
        n.store.set(KeyId(7), 100, SimTime::from_secs(1)).unwrap();
        n.crash();
        assert!(!n.is_online());
        assert!(n.is_crashed());
        assert_eq!(n.store.len(), 0);
        n.crash();
        assert!(n.is_crashed());
    }

    #[test]
    fn power_off_is_noop_on_crashed_node() {
        let mut n = CacheNode::new(
            NodeId(3),
            StoreConfig::with_memory(elmem_util::ByteSize::from_mib(4)),
            1e9,
            SimTime::from_micros(10),
        );
        n.crash();
        n.power_off();
        // Still reported crashed, not cleanly powered off.
        assert!(n.is_crashed());
        assert!(!n.is_online());
    }

    #[test]
    fn partition_makes_node_unreachable_until_heal() {
        let mut n = CacheNode::new(
            NodeId(4),
            StoreConfig::with_memory(elmem_util::ByteSize::from_mib(4)),
            1e9,
            SimTime::from_micros(10),
        );
        assert!(n.is_reachable(SimTime::ZERO));
        n.link.partition_until(SimTime::from_secs(5));
        assert!(!n.is_reachable(SimTime::from_secs(2)));
        assert!(n.is_reachable(SimTime::from_secs(5)), "partition healed");
        // The store itself is intact: only reachability was lost.
        assert!(n.is_online());
    }

    #[test]
    fn import_ledger_suppresses_redelivery_and_rejects_checksum_drift() {
        let mut n = CacheNode::new(
            NodeId(5),
            StoreConfig::with_memory(elmem_util::ByteSize::from_mib(4)),
            1e9,
            SimTime::from_micros(10),
        );
        let items = vec![ItemMeta {
            key: KeyId(11),
            value_size: 100,
            last_access: SimTime::from_secs(1),
        }];
        let class = n.store.classes().class_for(items[0].footprint()).unwrap();
        assert!(n
            .import_shipment(7, 0, 0xfeed, class, &items, ImportMode::Merge)
            .unwrap());
        let len = n.store.len();
        // Same (migration, seq): suppressed, store untouched.
        assert!(!n
            .import_shipment(7, 0, 0xfeed, class, &items, ImportMode::Merge)
            .unwrap());
        assert_eq!(n.store.len(), len);
        assert_eq!(n.import_ledger().duplicates_suppressed(), 1);
        assert_eq!(n.import_ledger().len(), 1);
        // Same identity, different checksum: an invariant violation.
        assert!(n
            .import_shipment(7, 0, 0xdead, class, &items, ImportMode::Merge)
            .is_err());
        // A different seq applies normally.
        assert!(n
            .import_shipment(7, 1, 0xfeed, class, &items, ImportMode::Merge)
            .unwrap());
        assert_eq!(n.import_ledger().len(), 2);
    }

    #[test]
    fn crash_and_power_off_clear_the_ledger() {
        let mut n = CacheNode::new(
            NodeId(6),
            StoreConfig::with_memory(elmem_util::ByteSize::from_mib(4)),
            1e9,
            SimTime::from_micros(10),
        );
        let items = vec![ItemMeta {
            key: KeyId(3),
            value_size: 64,
            last_access: SimTime::from_secs(1),
        }];
        let class = n.store.classes().class_for(items[0].footprint()).unwrap();
        n.import_shipment(1, 0, 1, class, &items, ImportMode::Merge)
            .unwrap();
        assert!(!n.import_ledger().is_empty());
        n.crash();
        assert!(n.import_ledger().is_empty());
    }

    #[test]
    fn new_node_is_online_and_empty() {
        let n = CacheNode::new(
            NodeId(0),
            StoreConfig::with_memory(elmem_util::ByteSize::from_mib(4)),
            1e9,
            SimTime::from_micros(10),
        );
        assert!(n.is_online());
        assert!(n.store.is_empty());
        assert_eq!(n.id(), NodeId(0));
    }
}
