//! Consistent hashing for the Memcached tier.
//!
//! The paper's client library (libmemcached-style) hashes each key onto one
//! node; consistent hashing is "typically employed to minimize the change in
//! key membership upon node failures" (§II-A), and ElMem's migration phases
//! hash keys against the *retained* membership to find migration targets
//! (§III-D1). Scale-out relies on the ketama property that growing from `k`
//! to `k+1` nodes remaps only ~`1/(k+1)` of the keys (§III-D4).
//!
//! [`HashRing`] is a ketama-style ring with virtual nodes; placement is a
//! pure function of the membership list, exactly like the client-side hash
//! in libmemcached — nodes never know their own key ranges.
//!
//! # Example
//!
//! ```
//! use elmem_hash::HashRing;
//! use elmem_util::{KeyId, NodeId};
//!
//! let ring = HashRing::new((0..10).map(NodeId), 100);
//! let node = ring.node_for(KeyId(42)).unwrap();
//! assert!(ring.members().contains(&node));
//!
//! // Removing the key's own node necessarily moves the key.
//! let smaller: Vec<NodeId> = ring.members().iter().copied()
//!     .filter(|n| *n != node).collect();
//! let ring2 = HashRing::new(smaller.into_iter(), 100);
//! assert_ne!(ring2.node_for(KeyId(42)), Some(node));
//! ```

pub mod membership;
pub mod ring;

pub use membership::{Membership, RemapStats};
pub use ring::HashRing;
