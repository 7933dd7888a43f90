//! Discrete-event simulation substrate.
//!
//! The paper evaluates ElMem on a 10-VM OpenStack testbed; this crate is the
//! substitute substrate (see DESIGN.md §2): a deterministic virtual clock
//! with an [`events::EventQueue`], a bandwidth/latency [`network::Link`]
//! model for migration traffic, and a multi-server FIFO
//! [`queueing::ServerPool`] used to model the database bottleneck.
//!
//! Everything is deterministic: same seed, same event order, same results.
//!
//! # Example
//!
//! ```
//! use elmem_sim::events::EventQueue;
//! use elmem_util::SimTime;
//!
//! let mut q: EventQueue<&str> = EventQueue::new();
//! q.schedule(SimTime::from_secs(2), "later");
//! q.schedule(SimTime::from_secs(1), "sooner");
//! let (t, e) = q.pop().unwrap();
//! assert_eq!((t, e), (SimTime::from_secs(1), "sooner"));
//! ```

pub mod chaos;
pub mod events;
pub mod fault;
pub mod network;
pub mod queueing;

pub use chaos::{ChaosAction, ChaosLimits, ChaosPlan, ScheduledChaosAction};
pub use events::EventQueue;
pub use fault::{FaultAction, FaultInjector, FaultKind, FaultPlan, ScheduledFault};
pub use network::Link;
pub use queueing::ServerPool;
