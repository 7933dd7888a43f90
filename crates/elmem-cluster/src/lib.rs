//! The multi-tier Memcached-backed web application (Fig. 1 of the paper).
//!
//! Load generator → load balancer → web servers → **Memcached tier** →
//! database. This crate models the serving path:
//!
//! * [`node::CacheNode`] — one Memcached node: a slab store plus the NIC
//!   link its Agent uses for migration traffic;
//! * [`tier::CacheTier`] — the node set plus the *client-visible*
//!   membership (the ring the web servers hash against);
//! * [`db::DbModel`] — the database as a saturating multi-server queue
//!   with capacity `r_DB` (§V-A: ~4,000 req/s before latency "rises
//!   abruptly");
//! * [`Cluster`] (in [`frontend`]) — the web tier: multi-get against the ring,
//!   miss → database fetch → cache fill, response time as the weighted
//!   average of per-item latencies (§V-A).
//!
//! The scaling *control plane* (AutoScaler, Master, Agents, FuseCache) is
//! in `elmem-core`; this crate only serves requests.
//!
//! # Example
//!
//! ```
//! use elmem_cluster::{Cluster, ClusterConfig};
//! use elmem_util::{DetRng, SimTime};
//! use elmem_workload::{Keyspace, WebRequest};
//! use elmem_util::KeyId;
//!
//! let cfg = ClusterConfig::small_test();
//! let mut cluster = Cluster::new(cfg, Keyspace::new(10_000, 0), DetRng::seed(1));
//! let req = WebRequest { arrival: SimTime::ZERO, keys: vec![KeyId(1), KeyId(2)] };
//! let outcome = cluster.handle(&req);
//! assert_eq!(outcome.lookups, 2);
//! ```

pub mod breaker;
pub mod config;
pub mod db;
pub mod frontend;
pub mod node;
pub mod telemetry;
pub mod tier;

pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker};
pub use config::ClusterConfig;
pub use db::DbModel;
pub use frontend::{Cluster, RequestOutcome};
pub use node::{CacheNode, ImportLedger};
pub use telemetry::{ClusterTelemetry, LookupClass, NodeCounters};
pub use tier::CacheTier;
