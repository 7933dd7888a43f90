//! The chaos engine's driver and end-to-end invariant checker.
//!
//! [`ChaosPlan`]s (generated in `elmem-sim` from a seed) describe a full
//! experiment — tier size, workload, fault schedule, scripted scaling
//! actions, and which subsystems run. [`run_chaos`] materializes the plan
//! into an [`ExperimentConfig`], runs it with the captured-cluster driver,
//! and then checks **integrity invariants** that must hold no matter what
//! the schedule did:
//!
//! 1. every surviving store passes its internal [`SlabStore::audit`]
//!    (slot/byte/MRU/index conservation);
//! 2. every resident item's value size matches the keyspace — migrations
//!    and recoveries never corrupt content (shipment checksums catch this
//!    in-flight; this catches it at rest);
//! 3. no stale copy is served: once the control plane goes quiet, only
//!    ring owners receive traffic, so a non-owned replica whose MRU
//!    timestamp postdates the last control-plane event proves a lookup was
//!    answered from a stale copy;
//! 4. circuit breakers only take legal edges (closed→open, open→half-open,
//!    half-open→closed, half-open→open) starting from closed;
//! 5. the failure detector never confirms a death without probe evidence
//!    (a recorded lost probe), and never recovers a node it did not
//!    confirm;
//! 6. the telemetry trace is well-ordered (strict canonical `(time, seq)`
//!    order, globally unique sequence numbers, conserved drop accounting);
//! 7. migration phases pair up: per phase kind, `starts == ends + aborts`;
//! 8. with healing enabled, the run converges — no crashed node is left in
//!    the ring at the end;
//! 9. the migration journal is coherent: every `Started` job reaches
//!    exactly one terminal record, resumes only happen before it, and
//!    shipment acks only after the plan sealed;
//! 10. every durable ack names a sealed shipment, and no shipment is acked
//!     twice;
//! 11. a `Committed` job acked its entire sealed manifest — no shipment
//!     lost across Master crashes;
//! 12. surviving import ledgers reference only sealed shipments, with the
//!     sealed checksums — no duplicate or forged import survived;
//! 13. duplicate-import suppression only occurs when some migration
//!     actually resumed (re-delivery is the only legal duplicate source);
//! 14. no half-joined node: every node a fill provisioned ends either a
//!     ring member that was alive when its fill ended, or out of the ring
//!     and offline.
//!
//! A violation is a `String` naming the invariant and the smallest
//! offending key/node, so reports are deterministic even where the
//! underlying maps iterate in arbitrary order.
//!
//! [`SlabStore::audit`]: elmem_store::SlabStore::audit

use crate::autoscaler::AutoScalerConfig;
use crate::elasticity::{run_experiment_capture, ExperimentConfig, ExperimentResult, ScaleAction};
use crate::healing::HealingConfig;
use crate::journal::{JournalRecord, MasterPlan, MigrationKind};
use crate::migration::MigrationCosts;
use crate::policies::MigrationPolicy;
use elmem_cluster::{Cluster, ClusterConfig};
use elmem_sim::chaos::{ChaosAction, ChaosPlan};
use elmem_sim::fault::FaultKind;
use elmem_util::telemetry::{BreakerState, EventKind, MigrationPhase, ProbeOutcome};
use elmem_util::{KeyId, NodeId, SimTime, TelemetryConfig};
use elmem_workload::{DemandTrace, Keyspace, WorkloadConfig};

/// Outcome of one chaos run: the violations found (empty = the schedule
/// was survived cleanly) plus the full experiment result for debugging.
#[derive(Debug)]
pub struct ChaosReport {
    /// Human-readable invariant violations, deterministic for a given
    /// plan; empty when every invariant held.
    pub violations: Vec<String>,
    /// The underlying experiment output (telemetry included).
    pub result: ExperimentResult,
}

impl ChaosReport {
    /// True when no invariant was violated.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Chaos runs keep a deep event ring: with faults landing mid-run the
/// serving path emits a timeout/failover event per affected lookup, and
/// the order-sensitive checks (breaker edges, detector legality) need the
/// *complete* stream.
const CHAOS_TRACE_CAPACITY: usize = 1 << 18;

/// Materializes a [`ChaosPlan`] into a runnable experiment. The mapping
/// is fixed (small test cluster, Zipf(1.0) workload at 250 req/s, ElMem
/// migration policy) so that a plan fully determines a run.
pub fn experiment_for_plan(plan: &ChaosPlan) -> ExperimentConfig {
    let mut cluster = ClusterConfig::small_test();
    cluster.initial_nodes = plan.nodes;
    let windows = (plan.duration_secs / 10).max(1) as usize;
    let workload = WorkloadConfig {
        keyspace: Keyspace::new(plan.keys, plan.seed),
        zipf_exponent: 1.0,
        items_per_request: 3,
        peak_rate: 250.0,
        trace: DemandTrace::new(vec![1.0; windows], SimTime::from_secs(10)),
    };
    let autoscaler = plan.autoscaler.then(|| {
        let mut cfg = AutoScalerConfig::new(cluster.r_db(), cluster.node_memory);
        // Chaos runs last minutes, not hours: shorten the epoch and lower
        // the observation floor so the scaler actually acts mid-run.
        cfg.epoch = SimTime::from_secs(20);
        cfg.min_nodes = 2;
        cfg.max_nodes = 12;
        cfg.min_observations = 20_000;
        cfg
    });
    let scheduled = plan
        .actions
        .iter()
        .map(|a| {
            let action = match a.action {
                ChaosAction::ScaleIn { count } => ScaleAction::In { count },
                ChaosAction::ScaleOut { count } => ScaleAction::Out { count },
            };
            (a.at, action)
        })
        .collect();
    ExperimentConfig {
        cluster,
        workload,
        policy: MigrationPolicy::elmem(),
        autoscaler,
        scheduled,
        prefill_top_ranks: plan.keys / 2,
        costs: MigrationCosts::default(),
        faults: plan.faults.clone(),
        healing: plan.healing.then(HealingConfig::warm_replacement),
        master: MasterPlan {
            crashes: plan.master_crashes.clone(),
            ..MasterPlan::default()
        },
        seed: plan.seed,
    }
}

/// Runs one chaos schedule end to end and checks every invariant against
/// the final cluster state and the full telemetry trace.
pub fn run_chaos(plan: &ChaosPlan) -> ChaosReport {
    let config = experiment_for_plan(plan);
    let keyspace = config.workload.keyspace.clone();
    let tcfg = TelemetryConfig {
        trace_capacity: CHAOS_TRACE_CAPACITY,
    };
    let (result, cluster) = run_experiment_capture(config, tcfg);
    let violations = check_invariants(plan, &result, &cluster, &keyspace);
    ChaosReport { violations, result }
}

/// Checks every chaos invariant; returns the violations found (empty =
/// clean). Public so tests can aim it at hand-corrupted state.
pub fn check_invariants(
    plan: &ChaosPlan,
    result: &ExperimentResult,
    cluster: &Cluster,
    keyspace: &Keyspace,
) -> Vec<String> {
    let mut v = Vec::new();
    check_store_audits(cluster, &mut v);
    check_content_fidelity(cluster, keyspace, &mut v);
    check_trace_order(result, &mut v);
    // The order-sensitive checks need the complete stream; a dropped
    // prefix is itself a violation (raise CHAOS_TRACE_CAPACITY).
    if result.telemetry.dropped_events == 0 {
        check_no_stale_serves(result, cluster, &mut v);
        check_breaker_edges(result, &mut v);
        check_detector_legality(result, &mut v);
        check_migration_pairing(result, &mut v);
    } else {
        v.push(format!(
            "trace ring overflowed: {} events dropped, order-sensitive checks impossible",
            result.telemetry.dropped_events
        ));
    }
    check_journal(result, cluster, &mut v);
    check_no_half_joined(plan, result, cluster, &mut v);
    if plan.healing && result.final_crashed_members > 0 {
        v.push(format!(
            "healing enabled but {} crashed member(s) left in the ring at end of run",
            result.final_crashed_members
        ));
    }
    v
}

/// Invariant 1: every store's internal accounting is conserved.
fn check_store_audits(cluster: &Cluster, v: &mut Vec<String>) {
    let mut nodes: Vec<&elmem_cluster::CacheNode> = cluster.tier.iter_nodes().collect();
    nodes.sort_by_key(|n| n.id());
    for node in nodes {
        if let Err(e) = node.store.audit() {
            v.push(format!("node {}: store audit failed: {e}", node.id().0));
        }
    }
}

/// Invariant 2: resident items carry exactly the keyspace's sizes.
fn check_content_fidelity(cluster: &Cluster, keyspace: &Keyspace, v: &mut Vec<String>) {
    let mut nodes: Vec<&elmem_cluster::CacheNode> = cluster.tier.iter_nodes().collect();
    nodes.sort_by_key(|n| n.id());
    for node in nodes {
        let mut bad = 0u64;
        let mut smallest: Option<KeyId> = None;
        for item in node.store.iter() {
            let ok =
                keyspace.contains(item.key) && item.value_size == keyspace.value_size(item.key);
            if !ok {
                bad += 1;
                if smallest.is_none_or(|k| item.key < k) {
                    smallest = Some(item.key);
                }
            }
        }
        if let Some(key) = smallest {
            v.push(format!(
                "node {}: {bad} item(s) with corrupted content, smallest key {}",
                node.id().0,
                key.0
            ));
        }
    }
}

/// Invariant 3: no stale copy served. Lookups route by the ring, so once
/// the control plane's last event has passed, only ring owners can have
/// their MRU timestamps refreshed. A fresher timestamp on a non-owned
/// replica means a request was answered from a copy that ownership had
/// moved away from.
fn check_no_stale_serves(result: &ExperimentResult, cluster: &Cluster, v: &mut Vec<String>) {
    let bound = result
        .telemetry
        .events
        .iter()
        .filter(|e| {
            matches!(
                e.kind,
                EventKind::NodeCrashed
                    | EventKind::LinkDegraded
                    | EventKind::LinkRestored
                    | EventKind::LinkPartitioned
                    | EventKind::ScalingDecided { .. }
                    | EventKind::MembershipCommitted { .. }
                    | EventKind::MigrationPhaseStart { .. }
                    | EventKind::MigrationPhaseEnd { .. }
                    | EventKind::MigrationAborted { .. }
                    | EventKind::NodeSuspected
                    | EventKind::NodeConfirmedDead
                    | EventKind::RecoveryCompleted { .. }
                    | EventKind::MasterCrashed
                    | EventKind::MigrationResumed { .. }
                    | EventKind::ScalingDeferred { .. }
            )
        })
        .map(|e| e.at)
        .max()
        .unwrap_or(SimTime::ZERO);
    let members = cluster.tier.membership().members().to_vec();
    for id in members {
        let Ok(node) = cluster.tier.node(id) else {
            v.push(format!("member node {} missing from tier", id.0));
            continue;
        };
        let mut stale = 0u64;
        let mut smallest: Option<KeyId> = None;
        for item in node.store.iter() {
            let owned = cluster.tier.node_for_key(item.key) == Some(id);
            if !owned && item.last_access > bound {
                stale += 1;
                if smallest.is_none_or(|k| item.key < k) {
                    smallest = Some(item.key);
                }
            }
        }
        if let Some(key) = smallest {
            v.push(format!(
                "node {}: {stale} non-owned item(s) served after last control-plane \
                 event at {}ns, smallest key {}",
                id.0,
                bound.as_nanos(),
                key.0
            ));
        }
    }
}

/// Invariant 4: breaker state machines only take legal edges.
fn check_breaker_edges(result: &ExperimentResult, v: &mut Vec<String>) {
    use std::collections::BTreeMap;
    let mut phase: BTreeMap<NodeId, BreakerState> = BTreeMap::new();
    for e in &result.telemetry.events {
        let EventKind::BreakerTransition { from, to } = e.kind else {
            continue;
        };
        let Some(node) = e.node else {
            v.push(format!(
                "breaker transition without a node at seq {}",
                e.seq
            ));
            continue;
        };
        let current = *phase.entry(node).or_insert(BreakerState::Closed);
        if from != current {
            v.push(format!(
                "node {}: breaker claims {} -> {} but tracked state was {} (seq {})",
                node.0,
                from.label(),
                to.label(),
                current.label(),
                e.seq
            ));
        }
        let legal = matches!(
            (from, to),
            (BreakerState::Closed, BreakerState::Open)
                | (BreakerState::Open, BreakerState::HalfOpen)
                | (BreakerState::HalfOpen, BreakerState::Closed)
                | (BreakerState::HalfOpen, BreakerState::Open)
        );
        if !legal {
            v.push(format!(
                "node {}: illegal breaker edge {} -> {} (seq {})",
                node.0,
                from.label(),
                to.label(),
                e.seq
            ));
        }
        phase.insert(node, to);
    }
}

/// Invariant 5: a confirmed death needs evidence — at least one recorded
/// `Lost` probe for that node since its last recovery (the detector's
/// death streak is built from lost probes, and every non-ack probe is
/// traced) — and recoveries follow confirmations.
fn check_detector_legality(result: &ExperimentResult, v: &mut Vec<String>) {
    use std::collections::BTreeSet;
    let mut lost_probed: BTreeSet<NodeId> = BTreeSet::new();
    let mut confirmed: BTreeSet<NodeId> = BTreeSet::new();
    for e in &result.telemetry.events {
        match e.kind {
            EventKind::Probe {
                outcome: ProbeOutcome::Lost,
            } => {
                if let Some(n) = e.node {
                    lost_probed.insert(n);
                }
            }
            EventKind::NodeConfirmedDead => {
                let Some(n) = e.node else { continue };
                if !lost_probed.contains(&n) {
                    v.push(format!(
                        "node {}: confirmed dead without any lost probe (seq {})",
                        n.0, e.seq
                    ));
                }
                confirmed.insert(n);
            }
            EventKind::RecoveryCompleted { .. } => {
                let Some(n) = e.node else { continue };
                if !confirmed.remove(&n) {
                    v.push(format!(
                        "node {}: recovery without prior confirmed death (seq {})",
                        n.0, e.seq
                    ));
                }
                // The slot can die and recover again; a fresh death needs
                // fresh evidence.
                lost_probed.remove(&n);
            }
            _ => {}
        }
    }
}

/// Invariant 6: the trace is in strict canonical `(time, seq)` order,
/// sequence numbers are globally unique, and drop accounting conserves.
/// (Global seq monotonicity is *not* the contract: the migration
/// supervisor back-dates phase events to their reconstructed span times,
/// so a high-seq event can legitimately sort before a low-seq one.)
fn check_trace_order(result: &ExperimentResult, v: &mut Vec<String>) {
    let t = &result.telemetry;
    let mut last: Option<(SimTime, u64)> = None;
    for e in &t.events {
        if let Some(prev) = last {
            if (e.at, e.seq) <= prev {
                v.push(format!(
                    "trace not in strict (time, seq) order: ({}ns, {}) after ({}ns, {})",
                    e.at.as_nanos(),
                    e.seq,
                    prev.0.as_nanos(),
                    prev.1
                ));
            }
        }
        last = Some((e.at, e.seq));
    }
    let mut seqs: Vec<u64> = t.events.iter().map(|e| e.seq).collect();
    seqs.sort_unstable();
    if seqs.windows(2).any(|w| w[0] == w[1]) {
        v.push("trace contains duplicate sequence numbers".to_string());
    }
    let retained = t.events.len() as u64;
    if t.recorded_events != retained + t.dropped_events {
        v.push(format!(
            "trace accounting broken: recorded {} != retained {} + dropped {}",
            t.recorded_events, retained, t.dropped_events
        ));
    }
}

/// Invariant 7: per phase kind, every started migration phase either
/// ended or was aborted inside it.
fn check_migration_pairing(result: &ExperimentResult, v: &mut Vec<String>) {
    let kinds = [
        MigrationPhase::MetadataTransfer,
        MigrationPhase::HotnessComparison,
        MigrationPhase::DataMigration,
    ];
    for kind in kinds {
        let mut starts = 0u64;
        let mut ends = 0u64;
        let mut aborts = 0u64;
        for e in &result.telemetry.events {
            match e.kind {
                EventKind::MigrationPhaseStart { phase } if phase == kind => starts += 1,
                EventKind::MigrationPhaseEnd { phase } if phase == kind => ends += 1,
                EventKind::MigrationAborted { phase, .. } if phase == kind => aborts += 1,
                _ => {}
            }
        }
        if starts != ends + aborts {
            v.push(format!(
                "{} phases unbalanced: {starts} starts != {ends} ends + {aborts} aborts",
                kind.label()
            ));
        }
    }
}

/// Invariants 9–13: the migration journal tells a coherent, loss-free
/// story (DESIGN.md §13). Every `Started` job reaches exactly one terminal
/// record with resumes strictly before it; acks are post-seal, sealed,
/// and unique; a committed job lost no shipment; the surviving Agents'
/// import ledgers carry only sealed shipments with sealed checksums; and
/// duplicate suppression implies a resume happened.
fn check_journal(result: &ExperimentResult, cluster: &Cluster, v: &mut Vec<String>) {
    use std::collections::{BTreeMap, BTreeSet};
    let entries = result.journal.entries();

    let mut ids: Vec<u64> = entries.iter().map(|e| e.record.id()).collect();
    ids.sort_unstable();
    ids.dedup();
    for id in &ids {
        let id = *id;
        let st = result.journal.replay(id);
        if st.kind.is_none() {
            v.push(format!("journal job {id}: records without a started"));
            continue;
        }
        let terminals = entries
            .iter()
            .filter(|e| {
                e.record.id() == id
                    && matches!(
                        e.record,
                        JournalRecord::Committed { .. } | JournalRecord::Aborted { .. }
                    )
            })
            .count();
        if terminals != 1 {
            v.push(format!(
                "journal job {id}: {terminals} terminal record(s), want exactly 1"
            ));
        }
        let mut sealed = false;
        let mut terminal_seen = false;
        let mut acked_seqs: BTreeSet<u64> = BTreeSet::new();
        for e in entries.iter().filter(|e| e.record.id() == id) {
            match &e.record {
                JournalRecord::PlanSealed { .. } => sealed = true,
                JournalRecord::ShipmentAcked { seq, .. } => {
                    if !sealed {
                        v.push(format!(
                            "journal job {id}: shipment {seq} acked before the plan sealed"
                        ));
                    }
                    if !acked_seqs.insert(*seq) {
                        v.push(format!("journal job {id}: shipment {seq} acked twice"));
                    }
                }
                JournalRecord::Resumed { .. } if terminal_seen => {
                    v.push(format!(
                        "journal job {id}: resumed after its terminal record"
                    ));
                }
                JournalRecord::Committed { .. } | JournalRecord::Aborted { .. } => {
                    terminal_seen = true;
                }
                _ => {}
            }
        }
        match &st.manifest {
            Some(manifest) => {
                let sealed_seqs: BTreeSet<u64> = manifest.iter().map(|m| m.seq).collect();
                for seq in &st.acked {
                    if !sealed_seqs.contains(seq) {
                        v.push(format!(
                            "journal job {id}: acked shipment {seq} absent from the sealed manifest"
                        ));
                    }
                }
                if st.committed && st.acked != sealed_seqs {
                    v.push(format!(
                        "journal job {id}: committed with {} of {} sealed shipment(s) acked",
                        st.acked.len(),
                        sealed_seqs.len()
                    ));
                }
            }
            None if !st.acked.is_empty() => {
                v.push(format!(
                    "journal job {id}: {} ack(s) without a sealed manifest",
                    st.acked.len()
                ));
            }
            None => {}
        }
    }

    let mut sealed: BTreeMap<(u64, u64), u64> = BTreeMap::new();
    for e in entries {
        if let JournalRecord::PlanSealed { id, manifest, .. } = &e.record {
            for m in manifest {
                sealed.insert((*id, m.seq), m.checksum);
            }
        }
    }
    let any_resume = entries
        .iter()
        .any(|e| matches!(e.record, JournalRecord::Resumed { .. }));
    let mut nodes: Vec<&elmem_cluster::CacheNode> = cluster.tier.iter_nodes().collect();
    nodes.sort_by_key(|n| n.id());
    let mut suppressed = 0u64;
    for node in nodes {
        suppressed += node.import_ledger().duplicates_suppressed();
        for (mid, seq, sum) in node.import_ledger().entries() {
            match sealed.get(&(mid, seq)) {
                None => v.push(format!(
                    "node {}: ledger holds shipment (migration {mid}, seq {seq}) \
                     the journal never sealed",
                    node.id().0
                )),
                Some(&expected) if expected != sum => v.push(format!(
                    "node {}: ledger checksum {sum:#018x} != sealed {expected:#018x} \
                     for (migration {mid}, seq {seq})",
                    node.id().0
                )),
                Some(_) => {}
            }
        }
    }
    if suppressed > 0 && !any_resume {
        v.push(format!(
            "{suppressed} duplicate import(s) suppressed but no migration ever resumed"
        ));
    }
}

/// Invariant 14: no half-joined node. Every node a fill provisioned — a
/// scale-out or recovery job's own nodes, from its `Started` record — ends
/// the settled run either as a ring member that had not crashed when its
/// fill ended, or out of the ring and offline: a fill, aborted or not,
/// commits no node that died before its commit instant, and leaves none
/// filled and running outside the ring.
fn check_no_half_joined(
    plan: &ChaosPlan,
    result: &ExperimentResult,
    cluster: &Cluster,
    v: &mut Vec<String>,
) {
    let entries = result.journal.entries();
    let members = cluster.tier.membership().members();
    let faults = plan.faults.scheduled();
    for e in entries {
        let JournalRecord::Started {
            id,
            kind: MigrationKind::ScaleOut,
            nodes,
            ..
        } = &e.record
        else {
            continue;
        };
        // A job without a terminal record is invariant 9's to report.
        let Some(ended) = entries.iter().find_map(|t| match t.record {
            JournalRecord::Committed { id: i, at } | JournalRecord::Aborted { id: i, at }
                if i == *id =>
            {
                Some(at)
            }
            _ => None,
        }) else {
            continue;
        };
        for &node in nodes {
            let crash = FaultKind::NodeCrash { node };
            let dead = faults.iter().any(|f| f.kind == crash && f.at < ended);
            let online = cluster.tier.node(node).is_ok_and(|n| n.is_online());
            let half = match members.contains(&node) {
                true if dead => "a ring member that crashed before its fill ended",
                false if online => "filled and running outside the ring",
                _ => continue,
            };
            v.push(format!(
                "journal job {id}: node {} half-joined, {half}",
                node.0
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elmem_sim::chaos::ScheduledChaosAction;

    #[test]
    fn quiet_plan_passes_all_invariants() {
        // A schedule with no faults and no actions must trivially pass.
        let plan = ChaosPlan {
            seed: 7,
            nodes: 4,
            keys: 6_000,
            duration_secs: 60,
            healing: false,
            autoscaler: false,
            faults: elmem_sim::FaultPlan::new(),
            actions: Vec::new(),
            master_crashes: Vec::new(),
        };
        let report = run_chaos(&plan);
        assert!(report.passed(), "violations: {:?}", report.violations);
        assert!(report.result.total_requests > 0);
    }

    #[test]
    fn master_crash_during_scripted_scaling_resumes_clean() {
        let scale_at = SimTime::from_secs(20);
        let plan = ChaosPlan {
            seed: 19,
            nodes: 4,
            keys: 6_000,
            duration_secs: 60,
            healing: false,
            autoscaler: false,
            faults: elmem_sim::FaultPlan::new(),
            actions: vec![ScheduledChaosAction {
                at: scale_at,
                action: ChaosAction::ScaleIn { count: 1 },
            }],
            master_crashes: vec![scale_at + SimTime::from_millis(200)],
        };
        let report = run_chaos(&plan);
        assert!(report.passed(), "violations: {:?}", report.violations);
        assert!(
            report
                .result
                .journal
                .entries()
                .iter()
                .any(|e| e.record.label() == "resumed"),
            "the crash should interrupt the migration and the journal should resume it"
        );
    }

    #[test]
    fn generated_plan_runs_clean() {
        let plan = ChaosPlan::generate(42);
        let report = run_chaos(&plan);
        assert!(report.passed(), "violations: {:?}", report.violations);
    }

    #[test]
    fn chaos_runs_are_deterministic() {
        let plan = ChaosPlan::generate(3);
        let a = run_chaos(&plan);
        let b = run_chaos(&plan);
        assert_eq!(a.violations, b.violations);
        assert_eq!(a.result.total_requests, b.result.total_requests);
        assert_eq!(
            a.result.telemetry.to_json(),
            b.result.telemetry.to_json(),
            "same plan must produce a byte-identical telemetry dump"
        );
    }

    #[test]
    fn checker_flags_a_half_joined_node() {
        let plan = ChaosPlan {
            seed: 11,
            nodes: 4,
            keys: 6_000,
            duration_secs: 60,
            healing: false,
            autoscaler: false,
            faults: elmem_sim::FaultPlan::new(),
            actions: vec![ScheduledChaosAction {
                at: SimTime::from_secs(20),
                action: ChaosAction::ScaleOut { count: 1 },
            }],
            master_crashes: Vec::new(),
        };
        let config = experiment_for_plan(&plan);
        let keyspace = config.workload.keyspace.clone();
        let (result, cluster) = run_experiment_capture(
            config,
            TelemetryConfig {
                trace_capacity: CHAOS_TRACE_CAPACITY,
            },
        );
        let check = |plan: &ChaosPlan, cluster: &Cluster| {
            let violations = check_invariants(plan, &result, cluster, &keyspace);
            violations.iter().any(|m| m.contains("half-joined"))
        };
        let new = NodeId(4);
        assert!(cluster.tier.membership().members().contains(&new));
        assert!(!check(&plan, &cluster), "the clean fill joined whole");

        // Out of the ring but still running: filled, never committed.
        let mut outside = cluster.clone();
        outside.tier.membership_remove_keep_online(&[new]).unwrap();
        assert!(check(&plan, &outside));

        // In the ring, though it crashed before its fill ended.
        let mut dead = plan.clone();
        dead.faults = elmem_sim::FaultPlan::new().crash(SimTime::from_secs(20), new);
        assert!(check(&dead, &cluster));
    }

    #[test]
    fn checker_flags_corrupted_store() {
        let plan = ChaosPlan {
            seed: 11,
            nodes: 4,
            keys: 6_000,
            duration_secs: 60,
            healing: false,
            autoscaler: false,
            faults: elmem_sim::FaultPlan::new(),
            actions: Vec::new(),
            master_crashes: Vec::new(),
        };
        let config = experiment_for_plan(&plan);
        let keyspace = config.workload.keyspace.clone();
        let (result, cluster) = run_experiment_capture(
            config,
            TelemetryConfig {
                trace_capacity: CHAOS_TRACE_CAPACITY,
            },
        );
        // Hand-corrupt one store — its byte accounting, then each way its
        // two slot lanes can disagree; the audit must see every one.
        type Store = elmem_store::SlabStore;
        let id = cluster.tier.membership().members()[0];
        for corrupt in [
            Store::corrupt_bytes_used_for_tests,
            Store::corrupt_free_stamp_for_tests,
            Store::corrupt_linked_stamp_for_tests,
            Store::corrupt_lane_length_for_tests,
        ] {
            let mut cluster = cluster.clone();
            corrupt(&mut cluster.tier.node_mut(id).unwrap().store);
            let violations = check_invariants(&plan, &result, &cluster, &keyspace);
            assert!(
                violations
                    .iter()
                    .any(|m| m.contains("store audit failed") && m.contains(": class ")),
                "violations: {violations:?}"
            );
        }
    }
}
