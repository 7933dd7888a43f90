//! End-to-end fault injection: crashes landing in specific migration
//! phases must abort cleanly — no panic, a correct
//! `MigrationOutcome::Aborted`, and a consistent committed membership.
//! Also pinned here: the order in which the driver lets faults and control
//! events land when they share an instant, and where a run's clock ends.

use elmem::cluster::ClusterConfig;
use elmem::core::migration::MigrationCosts;
use elmem::core::{
    run_experiment, run_experiment_capture, AbortCause, ExperimentConfig, ExperimentResult,
    FaultPlan, MigrationOutcome, MigrationPhase, MigrationPolicy, ScaleAction,
};
use elmem::util::telemetry::EventKind;
use elmem::util::{NodeId, SimTime, TelemetryConfig};
use elmem::workload::{DemandTrace, Keyspace, WorkloadConfig};

fn config(faults: FaultPlan) -> ExperimentConfig {
    ExperimentConfig {
        cluster: ClusterConfig::small_test(),
        workload: WorkloadConfig {
            keyspace: Keyspace::new(30_000, 2),
            zipf_exponent: 1.0,
            items_per_request: 3,
            peak_rate: 250.0,
            trace: DemandTrace::new(vec![1.0; 13], SimTime::from_secs(10)),
        },
        policy: MigrationPolicy::elmem(),
        autoscaler: None,
        scheduled: vec![(SimTime::from_secs(40), ScaleAction::In { count: 1 })],
        prefill_top_ranks: 15_000,
        costs: MigrationCosts::default(),
        faults,
        healing: None,
        master: Default::default(),
        seed: 2,
    }
}

/// Fault-free probe: learns when the migration is decided, who retires,
/// and how long each phase lasts — so the fault tests can aim a crash
/// into a specific phase window.
fn probe() -> (ExperimentResult, SimTime, NodeId, SimTime, SimTime) {
    let result = run_experiment(config(FaultPlan::new()));
    assert_eq!(result.events.len(), 1);
    let ev = &result.events[0];
    let report = ev.report.clone().expect("elmem migrates");
    assert!(report.outcome.is_completed());
    let victim = ev.nodes[0];
    let phase1_end = ev.decided_at
        + report.phases.scoring
        + report.phases.dump
        + report.phases.metadata_transfer;
    let phase2_end = phase1_end + report.phases.fusecache;
    assert!(
        report.phases.data_transfer > SimTime::ZERO,
        "probe must exercise phase 3"
    );
    let decided_at = ev.decided_at;
    (result, decided_at, victim, phase1_end, phase2_end)
}

#[test]
fn source_crash_in_phase1_aborts_and_commits_consistently() {
    let (_, decided_at, victim, phase1_end, _) = probe();
    // Land the crash halfway into the metadata window.
    let crash_at = decided_at + (phase1_end - decided_at).mul_f64(0.5);
    let result = run_experiment(config(FaultPlan::new().crash(crash_at, victim)));

    assert_eq!(result.events.len(), 1);
    let ev = &result.events[0];
    let report = ev.report.as_ref().expect("report present on abort");
    assert_eq!(
        report.outcome,
        MigrationOutcome::Aborted {
            phase: MigrationPhase::MetadataTransfer,
            cause: AbortCause::SourceCrashed(victim),
        }
    );
    // Nothing was imported before the abort; the scaling committed at the
    // crash instant by evicting the dead source.
    assert_eq!(report.items_migrated, 0);
    assert_eq!(ev.committed_at, crash_at);
    assert_eq!(ev.to_nodes, 3);
    assert_eq!(result.final_members, 3);
}

#[test]
fn destination_crash_in_phase3_aborts_and_commits_consistently() {
    let (_, decided_at, victim, _, phase2_end) = probe();
    // A retained destination: the highest node id that is not retiring
    // (moves are applied in ascending destination order, so earlier
    // destinations get their imports before the abort).
    let dest = (0..4u32).rev().map(NodeId).find(|&n| n != victim).unwrap();
    // Land the crash just inside the data-migration window.
    let crash_at = phase2_end + SimTime::from_nanos(1);
    assert!(crash_at > decided_at);
    let result = run_experiment(config(FaultPlan::new().crash(crash_at, dest)));

    assert_eq!(result.events.len(), 1);
    let ev = &result.events[0];
    let report = ev.report.as_ref().expect("report present on abort");
    assert_eq!(
        report.outcome,
        MigrationOutcome::Aborted {
            phase: MigrationPhase::DataMigration,
            cause: AbortCause::DestinationCrashed(dest),
        }
    );
    // Partial imports to healthy destinations are kept.
    assert!(report.items_migrated > 0);
    assert_eq!(ev.committed_at, crash_at);
    // Both the retiring source and the dead destination leave: 4 → 2.
    assert_eq!(ev.to_nodes, 2);
    assert_eq!(result.final_members, 2);
}

#[test]
fn identical_seeds_give_bit_identical_faulty_timelines() {
    let (_, decided_at, victim, phase1_end, _) = probe();
    let crash_at = decided_at + (phase1_end - decided_at).mul_f64(0.5);
    let plan = FaultPlan::new()
        .crash(crash_at, victim)
        .slow_link(
            SimTime::from_secs(10),
            NodeId(1),
            4.0,
            SimTime::from_secs(30),
        )
        .drop_transfers_with_prob(0.2);
    let a = run_experiment(config(plan.clone()));
    let b = run_experiment(config(plan));
    assert_eq!(a.timeline, b.timeline);
    assert_eq!(a.events, b.events);
    assert_eq!(a.final_members, b.final_members);
    assert_eq!(a.total_requests, b.total_requests);
}

#[test]
fn crashed_node_degrades_service_but_run_survives() {
    // Crash a node with no scaling scheduled at all: the tier keeps the
    // dead member (its gets become misses) and the run completes.
    let mut cfg = config(FaultPlan::new().crash(SimTime::from_secs(30), NodeId(1)));
    cfg.scheduled = vec![];
    let faulty = run_experiment(cfg);
    let mut clean_cfg = config(FaultPlan::new());
    clean_cfg.scheduled = vec![];
    let clean = run_experiment(clean_cfg);

    assert_eq!(faulty.final_members, 4, "no control action: no eviction");
    let post_miss = |r: &ExperimentResult| {
        let pts: Vec<_> = r
            .timeline
            .iter()
            .filter(|p| p.second >= 35 && p.requests > 0)
            .collect();
        1.0 - pts.iter().map(|p| p.hit_rate).sum::<f64>() / pts.len().max(1) as f64
    };
    assert!(
        post_miss(&faulty) > post_miss(&clean),
        "a dead node's keyspace slice must miss"
    );
}

#[test]
fn link_slowdown_stretches_migration() {
    let (clean, decided_at, victim, _, _) = probe();
    // Slow the retiring source's NIC 8x across the whole migration.
    let plan =
        FaultPlan::new().slow_link(SimTime::from_secs(35), victim, 8.0, SimTime::from_secs(200));
    let slow = run_experiment(config(plan));
    assert_eq!(slow.events.len(), 1);
    let slow_ev = &slow.events[0];
    let clean_ev = &clean.events[0];
    assert_eq!(slow_ev.decided_at, decided_at);
    assert!(
        slow_ev.committed_at > clean_ev.committed_at,
        "slowdown must delay the commit: {} vs {}",
        slow_ev.committed_at,
        clean_ev.committed_at
    );
    assert!(slow_ev.report.as_ref().unwrap().outcome.is_completed());
    assert_eq!(slow.final_members, 3);
}

/// Schedules the scale-in at `scale_at`, learns its victim and commit
/// instant from a fault-free run, then crashes the victim at *exactly* that
/// instant. The driver promises that a fault due at the same instant as a
/// control event lands first, so the crash must beat the commit: the trace
/// shows `NodeCrashed` before `MembershipCommitted` at the same `at`, and
/// the victim leaves by eviction (crashed, never cleanly powered off).
/// Returns the commit instant and the second of the last served request.
fn crash_at_the_commit_instant_lands_first(scale_at: SimTime) -> (SimTime, u64) {
    let scaled = |faults| {
        let mut cfg = config(faults);
        cfg.scheduled = vec![(scale_at, ScaleAction::In { count: 1 })];
        cfg
    };
    let clean = run_experiment(scaled(FaultPlan::new()));
    let (victim, commit) = (clean.events[0].nodes[0], clean.events[0].committed_at);

    let (result, cluster) = run_experiment_capture(
        scaled(FaultPlan::new().crash(commit, victim)),
        TelemetryConfig::default(),
    );
    let ev = &result.events[0];
    // The supervisor only sees crashes strictly before the commit: this
    // one is the driver's to order, and the migration completes.
    assert!(ev.report.as_ref().unwrap().outcome.is_completed());
    assert_eq!((ev.nodes[0], ev.committed_at), (victim, commit));

    let seq_of = |want: fn(&EventKind) -> bool| {
        let hit = result.telemetry.events.iter().find(|e| want(&e.kind));
        let hit = hit.expect("event traced");
        assert_eq!(hit.at, commit);
        hit.seq
    };
    let crashed = seq_of(|k| matches!(k, EventKind::NodeCrashed));
    let committed = seq_of(|k| matches!(k, EventKind::MembershipCommitted { .. }));
    assert!(crashed < committed, "the crash must land before the commit");

    assert!(cluster.tier.node(victim).unwrap().is_crashed());
    assert!(!cluster.tier.membership().members().contains(&victim));
    assert_eq!((result.final_members, result.final_crashed_members), (3, 0));
    (commit, result.timeline.last().unwrap().second)
}

#[test]
fn crash_at_the_commit_instant_lands_first_when_a_request_drives_the_drain() {
    let (commit, last_second) = crash_at_the_commit_instant_lands_first(SimTime::from_secs(40));
    assert!(commit.as_secs() < last_second, "requests follow the commit");
}

#[test]
fn crash_at_the_commit_instant_lands_first_in_the_post_run_drain() {
    // The last request arrives just before 120 s; the migration takes a
    // third of a second, so its commit is left to the post-run drain.
    let (commit, last_second) =
        crash_at_the_commit_instant_lands_first(SimTime::from_millis(119_900));
    assert!(commit.as_secs() > last_second, "the run ended first");
}

#[test]
fn fault_after_the_last_control_event_is_never_applied() {
    // Simulated time is driven by requests and, once they stop, by the
    // control events still queued: the run's clock ends at the last of
    // them. A fault scheduled later lies outside the simulated span — the
    // post-run drain must not reach forward and apply it.
    let late = SimTime::from_secs(10_000);
    let (result, cluster) = run_experiment_capture(
        config(FaultPlan::new().crash(late, NodeId(0))),
        TelemetryConfig::default(),
    );
    assert_eq!(result.events.len(), 1, "the scale-in still commits");
    assert!(!cluster.tier.node(NodeId(0)).unwrap().is_crashed());
    assert_eq!(result.final_crashed_members, 0);
    let traced = |k: &EventKind| matches!(k, EventKind::NodeCrashed);
    assert!(!result.telemetry.events.iter().any(|e| traced(&e.kind)));
}

#[test]
fn a_slowdown_the_plan_accepts_never_panics_the_driver() {
    let (at, span) = (SimTime::from_secs(35), SimTime::from_secs(20));
    for factor in [0.5, -1.0, f64::NAN, f64::INFINITY, 1.0, 8.0, 1e9, f64::MAX] {
        let fluent =
            std::panic::catch_unwind(|| FaultPlan::new().slow_link(at, NodeId(1), factor, span));
        // A bad factor is refused where the plan is built (`from_parts`
        // refuses the same set: `fault.rs`'s unit test), not inside the run.
        let Ok(plan) = fluent else {
            assert!(!(factor >= 1.0 && factor.is_finite()), "{factor} refused");
            continue;
        };
        assert_eq!(
            FaultPlan::from_parts(plan.scheduled().to_vec(), 0.0, 0.0),
            plan
        );
        let result = run_experiment(config(plan));
        assert_eq!(result.final_members, 3, "factor {factor}");
    }
}
