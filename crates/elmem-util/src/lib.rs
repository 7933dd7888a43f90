//! Shared foundation types for the ElMem reproduction.
//!
//! This crate holds the small vocabulary types used by every other crate in
//! the workspace: identifier newtypes ([`KeyId`], [`NodeId`]), simulated time
//! ([`time::SimTime`]), byte quantities ([`bytesize::ByteSize`]), a
//! deterministic splittable RNG ([`rng::DetRng`]), percentiles and timelines
//! ([`stats`]) and the static cost/energy model from §II-B of the paper
//! ([`costmodel`]).
//!
//! # Example
//!
//! ```
//! use elmem_util::{KeyId, NodeId, time::SimTime};
//!
//! let key = KeyId(42);
//! let node = NodeId(3);
//! let t = SimTime::from_secs(2) + SimTime::from_millis(500);
//! assert_eq!(t, SimTime::from_millis(2_500));
//! assert_ne!(key.0, u64::from(node.0));
//! ```

pub mod bytesize;
pub mod costmodel;
pub mod error;
pub mod hashutil;
pub mod json;
pub mod nodemap;
pub mod par;
pub mod rng;
pub mod stage;
pub mod stats;
pub mod telemetry;
pub mod time;

pub use bytesize::ByteSize;
pub use error::ElmemError;
pub use nodemap::NodeMap;
pub use rng::{DetRng, ExpDraws};
pub use telemetry::{EventTrace, LatencyHistogram, TelemetryConfig};
pub use time::SimTime;

/// Identifier of a key in the keyspace.
///
/// The paper's workload uses 11-byte string keys; in the simulation we
/// identify keys by a dense integer id and derive their hash and value size
/// deterministically from it. The *wire* size of a key is still accounted as
/// 11 bytes (see `elmem-workload`).
///
/// ```
/// use elmem_util::KeyId;
/// let k = KeyId(7);
/// assert_eq!(k.0, 7);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct KeyId(pub u64);

impl std::fmt::Display for KeyId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "k{}", self.0)
    }
}

/// Identifier of a cache node in the Memcached tier.
///
/// ```
/// use elmem_util::NodeId;
/// assert!(NodeId(1) < NodeId(2));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_id_display() {
        assert_eq!(KeyId(5).to_string(), "k5");
    }

    #[test]
    fn node_id_display_and_order() {
        assert_eq!(NodeId(2).to_string(), "node2");
        assert!(NodeId(0) < NodeId(9));
    }

    #[test]
    fn ids_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<KeyId>();
        assert_send_sync::<NodeId>();
    }
}
