//! Stack-distance analysis and hit-rate curves.
//!
//! ElMem's AutoScaler sizes the Memcached tier by computing, from the recent
//! request trace, "the amount of memory required for every integer hit rate
//! percentage (in a single pass)" (§III-B). That computation rests on the
//! *stack distance* (reuse distance): the number of unique items — here,
//! unique *bytes* — referenced between successive accesses to the same key.
//! Under LRU, a request hits in a cache of capacity `C` iff its stack
//! distance is at most `C`, so one pass yields the full hit-rate-vs-capacity
//! curve (Mattson et al.; MIMIR \[38\]).
//!
//! Two engines are provided:
//!
//! * [`exact::ExactStackDistance`] — exact distances over arrays indexed by
//!   key id and position, `O(log W)` per request over a window of `W`
//!   requests (a Fenwick tree over 16-position blocks);
//! * [`mimir::Mimir`] — the MIMIR bucket approximation the paper uses,
//!   `O(1)` amortized per request with bounded relative error.
//!
//! [`hrc::HitRateCurve`] turns either engine's distances into the
//! memory-for-hit-rate query the AutoScaler needs.
//!
//! # Example
//!
//! ```
//! use elmem_stackdist::exact::ExactStackDistance;
//! use elmem_stackdist::hrc::HitRateCurve;
//! use elmem_util::KeyId;
//!
//! let mut engine = ExactStackDistance::new();
//! let mut distances = Vec::new();
//! // Cyclic access over 3 keys of 100 B each.
//! for _round in 0..4u64 {
//!     for k in 0..3u64 {
//!         distances.push(engine.record(KeyId(k), 100));
//!     }
//! }
//! let curve = HitRateCurve::from_distances(&distances);
//! // With capacity for all 3 keys, only the 3 cold misses remain.
//! assert!(curve.hit_rate_at(300) > 0.7);
//! ```

pub mod adaptive;
pub mod exact;
pub mod hrc;
pub mod mimir;

pub use adaptive::AdaptiveStackDistance;
pub use exact::ExactStackDistance;
pub use hrc::HitRateCurve;
pub use mimir::Mimir;

/// Distinct-key count at which [`AdaptiveStackDistance::new`] hands off
/// from the exact engine to MIMIR. Above every laptop-scale keyspace
/// (≤ 1.4M keys) so pinned golden traces keep their exact distances;
/// comfortably below the paper's ~19M-key ETC population.
pub const ADAPTIVE_SWITCH_KEYS: u64 = 2_000_000;
