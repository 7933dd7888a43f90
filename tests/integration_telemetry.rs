//! Event-ordering invariants over real end-to-end traces: the telemetry
//! stream of a crash-recovery run (the `integration_recovery` scenario)
//! and of a scheduled scale-in must be causally well-formed — every
//! migration phase end or abort follows its matching start, breaker
//! transitions walk only legal edges of the closed/open/half-open
//! automaton, a node is suspected before it is confirmed dead, and the
//! dumped stream is sorted by time.

use elmem::cluster::ClusterConfig;
use elmem::core::migration::MigrationCosts;
use elmem::core::{
    run_experiment_with_telemetry, ExperimentConfig, ExperimentResult, FaultPlan, HealingConfig,
    MigrationPolicy, ScaleAction,
};
use elmem::util::telemetry::{BreakerState, Event, EventKind, MigrationPhase};
use elmem::util::{NodeId, SimTime, TelemetryConfig};
use elmem::workload::{DemandTrace, Keyspace, WorkloadConfig};
use std::collections::BTreeMap;

const CRASH_S: u64 = 30;
const RUN_SECS: usize = 13; // 13 × 10 s segments = 130 s

/// The `integration_recovery` scenario: one crash on the tiny warm tier.
fn crash_config(healing: Option<HealingConfig>) -> ExperimentConfig {
    ExperimentConfig {
        cluster: ClusterConfig::small_test(),
        workload: WorkloadConfig {
            keyspace: Keyspace::new(30_000, 2),
            zipf_exponent: 1.0,
            items_per_request: 3,
            peak_rate: 250.0,
            trace: DemandTrace::new(vec![1.0; RUN_SECS], SimTime::from_secs(10)),
        },
        policy: MigrationPolicy::elmem(),
        autoscaler: None,
        scheduled: vec![],
        prefill_top_ranks: 15_000,
        costs: MigrationCosts::default(),
        faults: FaultPlan::new().crash(SimTime::from_secs(CRASH_S), NodeId(1)),
        healing,
        master: Default::default(),
        seed: 2,
    }
}

fn run(cfg: ExperimentConfig) -> ExperimentResult {
    run_experiment_with_telemetry(cfg, TelemetryConfig::default())
}

/// The dumped stream is sorted by `(t_ns, seq)` with no dropped events
/// (these runs stay far under the default ring capacity).
fn assert_stream_well_formed(events: &[Event]) {
    for w in events.windows(2) {
        assert!(
            (w[0].at, w[0].seq) <= (w[1].at, w[1].seq),
            "events out of order: {:?} then {:?}",
            w[0],
            w[1]
        );
    }
}

/// Every `MigrationPhaseEnd` / `MigrationAborted` must follow a still-open
/// matching `MigrationPhaseStart`, and phases of one kind never nest.
fn assert_phases_bracketed(events: &[Event]) -> usize {
    let mut open: BTreeMap<MigrationPhase, u64> = BTreeMap::new();
    let mut pairs = 0;
    for e in events {
        match e.kind {
            EventKind::MigrationPhaseStart { phase } => {
                let slot = open.entry(phase).or_insert(0);
                assert_eq!(*slot, 0, "phase {phase:?} started twice without an end");
                *slot = 1;
            }
            EventKind::MigrationPhaseEnd { phase } => {
                let slot = open.entry(phase).or_insert(0);
                assert_eq!(*slot, 1, "phase {phase:?} ended without a start");
                *slot = 0;
                pairs += 1;
            }
            EventKind::MigrationAborted { phase, .. } => {
                let slot = open.entry(phase).or_insert(0);
                assert_eq!(*slot, 1, "abort inside phase {phase:?} that never started");
                *slot = 0;
            }
            _ => {}
        }
    }
    assert!(
        open.values().all(|&v| v == 0),
        "phases left open at end of run: {open:?}"
    );
    pairs
}

/// Breaker transitions must chain per node (each `from` equals the node's
/// previous `to`, starting closed) and walk only legal automaton edges.
fn assert_breaker_edges_legal(events: &[Event]) -> usize {
    let legal = |from: BreakerState, to: BreakerState| {
        matches!(
            (from, to),
            (BreakerState::Closed, BreakerState::Open)
                | (BreakerState::Open, BreakerState::HalfOpen)
                | (BreakerState::HalfOpen, BreakerState::Closed)
                | (BreakerState::HalfOpen, BreakerState::Open)
        )
    };
    let mut state: BTreeMap<NodeId, BreakerState> = BTreeMap::new();
    let mut seen = 0;
    for e in events {
        if let EventKind::BreakerTransition { from, to } = e.kind {
            let node = e.node.expect("breaker events carry their node");
            let prev = *state.entry(node).or_insert(BreakerState::Closed);
            assert_eq!(
                prev, from,
                "breaker chain broken on {node}: {prev:?} then {e:?}"
            );
            assert!(legal(from, to), "illegal breaker edge {from:?} -> {to:?}");
            state.insert(node, to);
            seen += 1;
        }
    }
    seen
}

#[test]
fn unhealed_crash_trace_has_legal_breaker_edges() {
    let r = run(crash_config(None));
    let events = &r.telemetry.events;
    assert_stream_well_formed(events);
    let flips = assert_breaker_edges_legal(events);
    assert_eq!(
        flips as u64, r.breaker_transitions,
        "the trace must carry every breaker transition the run counted"
    );
    assert!(
        flips >= 2,
        "the dead node's breaker must open and probe half-open"
    );
    // No detector, no control plane: the trace must not invent them.
    assert!(events.iter().all(|e| !matches!(
        e.kind,
        EventKind::Probe { .. }
            | EventKind::NodeSuspected
            | EventKind::NodeConfirmedDead
            | EventKind::MigrationPhaseStart { .. }
    )));
    // The crash itself is on the record, at the scheduled instant.
    let crash = events
        .iter()
        .find(|e| matches!(e.kind, EventKind::NodeCrashed))
        .expect("fault injection must be traced");
    assert_eq!(crash.at, SimTime::from_secs(CRASH_S));
    assert_eq!(crash.node, Some(NodeId(1)));
}

#[test]
fn warm_recovery_trace_orders_detection_before_recovery() {
    let r = run(crash_config(Some(HealingConfig::warm_replacement())));
    let events = &r.telemetry.events;
    assert_stream_well_formed(events);
    assert_breaker_edges_legal(events);
    let pairs = assert_phases_bracketed(events);
    assert_eq!(pairs, 3, "the warmup migration runs all three phases");

    // Causal chain: crash -> suspicion -> confirmation -> warmup phases ->
    // recovery, in trace order on the victim.
    let pos = |pred: &dyn Fn(&Event) -> bool| {
        events
            .iter()
            .position(pred)
            .expect("expected event missing from trace")
    };
    let crashed = pos(&|e| matches!(e.kind, EventKind::NodeCrashed));
    let confirmed =
        pos(&|e| matches!(e.kind, EventKind::NodeConfirmedDead) && e.node == Some(NodeId(1)));
    let warm_start = pos(&|e| matches!(e.kind, EventKind::MigrationPhaseStart { .. }));
    let recovered = pos(&|e| matches!(e.kind, EventKind::RecoveryCompleted { .. }));
    assert!(crashed < confirmed, "the crash precedes its confirmation");
    // A clean crash loses every probe, so the death streak crosses the
    // threshold in one round: any NodeSuspected in the stream sits between
    // crash and confirmation, but a straight Alive -> ConfirmedDead jump
    // is legal.
    for (i, e) in events.iter().enumerate() {
        if matches!(e.kind, EventKind::NodeSuspected) && e.node == Some(NodeId(1)) {
            assert!(crashed < i && i < confirmed, "suspicion outside its window");
        }
    }
    assert!(
        confirmed < warm_start && warm_start < recovered,
        "warmup runs between confirmation and recovery"
    );
    // Lost probes against the corpse are on the record before confirmation.
    assert!(events[..confirmed]
        .iter()
        .any(|e| matches!(e.kind, EventKind::Probe { .. }) && e.node == Some(NodeId(1))));
}

#[test]
fn scheduled_scale_in_trace_brackets_migration_between_decision_and_commit() {
    let mut cfg = crash_config(None);
    cfg.faults = FaultPlan::new();
    cfg.scheduled = vec![(SimTime::from_secs(CRASH_S), ScaleAction::In { count: 1 })];
    let r = run(cfg);
    let events = &r.telemetry.events;
    assert_stream_well_formed(events);
    assert_eq!(assert_phases_bracketed(events), 3);

    let decided = events
        .iter()
        .position(|e| matches!(e.kind, EventKind::ScalingDecided { .. }))
        .expect("scaling decision traced");
    let committed = events
        .iter()
        .position(|e| matches!(e.kind, EventKind::MembershipCommitted { .. }))
        .expect("membership flip traced");
    assert!(decided < committed, "decision precedes the flip");
    assert!(
        events[decided..committed]
            .iter()
            .filter(|e| matches!(e.kind, EventKind::MigrationPhaseEnd { .. }))
            .count()
            == 3,
        "all three migration phases complete between decision and commit"
    );
    if let EventKind::MembershipCommitted { members } = events[committed].kind {
        assert_eq!(members, 3, "4-node tier scales in to 3");
    }
}
