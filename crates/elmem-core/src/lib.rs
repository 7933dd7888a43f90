//! ElMem: the elastic Memcached control plane (the paper's contribution).
//!
//! * [`mod@fusecache`] — the FuseCache algorithm (§IV): select the hottest `n`
//!   items across `k` MRU-sorted lists in `O(k·log²n)` via recursive
//!   median-of-medians, plus the k-way-merge and sort-merge baselines it is
//!   compared against;
//! * [`scoring`] — which node(s) to retire (§III-C): weighted median-hotness
//!   scores;
//! * [`autoscaler`] — when and how much to scale (§III-B): Eq. (1)
//!   `p_min > 1 − r_DB/r` plus stack-distance memory sizing;
//! * [`migration`] — the 3-phase migration (§III-D): metadata transfer,
//!   hotness comparison (FuseCache), data migration, with modeled network
//!   and CPU costs producing the paper's ~2-minute overhead breakdown —
//!   one engine ([`migration::migrate`]) for scale-in, scale-out and the
//!   Naive comparator, runnable under [`migration::Supervision`]
//!   (shipment-drop retries, crash aborts) against an `elmem_sim::FaultPlan`;
//! * [`policies`] — the comparators of §V: `baseline` (no migration),
//!   `Naive`, and `CacheScale`;
//! * [`elasticity`] — the end-to-end driver tying the control plane to the
//!   serving stack in `elmem-cluster`; the AutoScaler runs beside its
//!   serving loop as a batch-fed stage (a thread, or a direct call when
//!   `elmem_util::par::par_jobs()` is 1) with bit-identical results.
//!
//! # Example
//!
//! ```
//! use elmem_core::fusecache::{fusecache, sort_merge_top_n};
//! use elmem_store::Hotness;
//! use elmem_util::{KeyId, SimTime};
//!
//! let h = |s: u64, k: u64| Hotness::new(SimTime::from_secs(s), KeyId(k));
//! let a = vec![h(9, 1), h(5, 2), h(1, 3)];
//! let b = vec![h(8, 4), h(2, 5)];
//! let picks = fusecache(&[&a, &b], 3);
//! assert_eq!(picks, vec![2, 1]); // 9,5 from a; 8 from b
//! assert_eq!(picks, sort_merge_top_n(&[&a, &b], 3));
//! ```

pub mod autoscaler;
pub mod chaos;
pub mod elasticity;
pub mod fusecache;
pub mod healing;
pub mod journal;
pub mod master;
pub mod migration;
pub mod policies;
pub mod predictive;
mod scaler_stage;
pub mod scoring;
pub mod telemetry;

pub use autoscaler::{AutoScaler, AutoScalerConfig, ScalingHint};
pub use chaos::{check_invariants, experiment_for_plan, run_chaos, ChaosReport};
pub use elasticity::{
    run_experiment, run_experiment_capture, ExperimentConfig, ExperimentResult, ScaleAction,
    ScalingEvent,
};
pub use fusecache::{
    fusecache, fusecache_instrumented, kway_top_n, sort_merge_top_n, SelectionStats,
};
pub use healing::{
    ConfirmedDeath, FailureDetector, HealingConfig, NodeState, ProbeObservation, ProbeOutcome,
    RecoveryEvent,
};
pub use journal::{
    JournalRecord, MasterPlan, MasterRecovery, MigrationJournal, MigrationKind, ReplayState,
    ShipmentManifest, ACK_DURABILITY_LAG,
};
pub use master::{Admission, DeferredAction, DeferredKind, Master, Orchestration};
pub use migration::{
    migrate, plan_scale_in_shipments, AbortCause, MigrateJob, MigrationCosts, MigrationOutcome,
    MigrationPhase, MigrationReport, PhaseBreakdown, PlanStats, ResumePoint, Shipment, Supervision,
};
pub use predictive::PredictiveAutoScaler;
pub use telemetry::{
    record_migration_events, NodeDumpRow, SeriesPoint, SeriesRecorder, TelemetryDump, TierSnapshot,
};
// Re-exported so experiment configs can name their fault plan without
// depending on `elmem-sim` directly.
pub use elmem_sim::fault::{FaultKind, FaultPlan, ScheduledFault};
pub use policies::MigrationPolicy;
pub use scoring::{choose_retiring, node_score};
