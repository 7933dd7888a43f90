//! Workload generation: keyspaces, popularity and value-size distributions,
//! demand traces, and the request generator (§V-A2/§V-A3 of the paper).
//!
//! The paper drives its testbed with:
//!
//! * **keys** fixed at 11 bytes, **values** following a Generalized Pareto
//!   distribution with scale σ = 214.476 and shape κ = 0.348238 (the
//!   Facebook ETC distribution), ~19 M KV pairs;
//! * **popularity** skewed (Facebook-like), here Zipf with configurable
//!   exponent;
//! * **arrivals** with exponential interarrival times whose mean rate
//!   follows one of five demand traces (Fig. 5): Facebook SYS and ETC,
//!   SAP, NLANR, and Microsoft storage traces;
//! * each web request fetches a fixed number of random KV pairs
//!   (multi-get).
//!
//! # Example
//!
//! ```
//! use elmem_workload::{Keyspace, RequestGenerator, TraceKind, WorkloadConfig};
//! use elmem_util::DetRng;
//!
//! let cfg = WorkloadConfig {
//!     keyspace: Keyspace::new(100_000, 42),
//!     zipf_exponent: 0.9,
//!     items_per_request: 4,
//!     peak_rate: 1000.0,
//!     trace: TraceKind::FacebookEtc.demand_trace(),
//! };
//! let mut gen = RequestGenerator::new(cfg, DetRng::seed(7));
//! let req = gen.next_request().unwrap();
//! assert_eq!(req.keys.len(), 4);
//! ```

pub mod alias;
pub mod gpareto;
pub mod keyspace;
pub mod reqgen;
pub mod traces;
pub mod zipf;

pub use alias::ZipfAlias;
pub use gpareto::GeneralizedPareto;
pub use keyspace::Keyspace;
pub use reqgen::{RequestGenerator, WebRequest, WorkloadConfig};
pub use traces::{DemandTrace, TraceKind};
pub use zipf::ZipfPopularity;
