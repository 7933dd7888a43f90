//! Cluster configuration.

use elmem_store::SizeClasses;
use elmem_util::{ByteSize, SimTime};

use crate::breaker::BreakerConfig;

/// Parameters of the simulated deployment.
///
/// `elmem_bench::exp::cluster_preset` is the one definition of a scale:
/// `Preset::Paper` runs the paper's ETC workload (§V-A), and
/// `Preset::Laptop` shrinks it, preserving every ratio that matters
/// (cache-to-dataset size, r_DB-to-demand, migration bandwidth to bytes
/// moved) while running in seconds.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Initial number of cache nodes.
    pub initial_nodes: u32,
    /// Memory per cache node.
    pub node_memory: ByteSize,
    /// Virtual points per node on the hash ring.
    pub vnodes: u32,
    /// Database servers (cores).
    pub db_servers: usize,
    /// Database per-fetch service time. Capacity r_DB =
    /// `db_servers / service_time`.
    pub db_service: SimTime,
    /// Database admission bound: fetches arriving when the backlog exceeds
    /// this are shed (client-observed timeout, no data). Bounds the tail
    /// latency during overload, as real databases do.
    pub db_shed_delay: SimTime,
    /// Mean Memcached get latency on a hit.
    pub mc_latency: SimTime,
    /// Client-side cache timeout: what a lookup against a dead or
    /// partitioned node costs before the client falls back to the
    /// database (real Memcached clients block for their socket timeout on
    /// an unreachable server; see §V-A's client library).
    pub client_timeout: SimTime,
    /// Per-node circuit breaker tripped by `client_timeout` failures;
    /// while open, lookups fail over to the database immediately.
    pub breaker: BreakerConfig,
    /// Fixed web-tier processing overhead added to each request's RT
    /// (PHP parse + response assembly in the paper's stack).
    pub web_overhead: SimTime,
    /// NIC bandwidth per node, bytes/s (migration traffic).
    pub nic_bandwidth: f64,
    /// NIC per-transfer latency.
    pub nic_latency: SimTime,
    /// Slab size-class ladder for every node's store. Must be coarse
    /// enough that the node's page count comfortably exceeds the number of
    /// classes, or most classes can never obtain a page ("slab
    /// calcification") and sets fail.
    pub slab_classes: SizeClasses,
    /// [`StoreConfig::shards`](elmem_store::StoreConfig::shards) of every
    /// node's store: must be 1. Kept because `benchmark/src/workloads.rs:163`
    /// sets it.
    pub store_shards: usize,
}

impl ClusterConfig {
    /// A tiny 4-node × 4 MB config for unit tests.
    pub fn small_test() -> Self {
        ClusterConfig {
            initial_nodes: 4,
            node_memory: ByteSize::from_mib(4),
            vnodes: 32,
            db_servers: 2,
            db_service: SimTime::from_millis(4),
            db_shed_delay: SimTime::from_secs(2),
            mc_latency: SimTime::from_micros(200),
            client_timeout: SimTime::from_millis(250),
            breaker: BreakerConfig::default(),
            web_overhead: SimTime::from_millis(4),
            nic_bandwidth: 125_000_000.0,
            nic_latency: SimTime::from_micros(100),
            // 4 pages per node: keep the ladder tiny (~8 classes).
            slab_classes: SizeClasses::new(96, 4.0, ByteSize::PAGE.as_u64()),
            store_shards: elmem_store::default_shard_count(),
        }
    }

    /// The database capacity r_DB implied by this config, req/s.
    pub fn r_db(&self) -> f64 {
        self.db_servers as f64 / self.db_service.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_test_is_small() {
        let c = ClusterConfig::small_test();
        assert!(c.initial_nodes <= 4);
        assert!(c.node_memory <= ByteSize::from_mib(8));
    }
}
