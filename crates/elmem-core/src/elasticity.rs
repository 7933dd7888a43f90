//! End-to-end elastic experiments: the driver that ties the workload, the
//! serving stack (`elmem-cluster`) and the scaling control plane together.
//!
//! This is the programmatic equivalent of the paper's testbed runs
//! (Figs. 2, 6, 8): a request stream is served while the AutoScaler (or a
//! scheduled script) triggers scaling actions executed under a chosen
//! [`MigrationPolicy`]; the result is the per-second hit-rate / p95-RT
//! timeline plus a log of scaling events with their migration reports.

use elmem_cluster::{Cluster, ClusterConfig};
use elmem_sim::fault::{FaultAction, FaultInjector, FaultPlan};
use elmem_sim::EventQueue;
use elmem_util::stats::{TimelinePoint, TimelineRecorder};
use elmem_util::telemetry::EventKind;
use elmem_util::{DetRng, NodeId, SimTime, TelemetryConfig};
use elmem_workload::{RequestGenerator, WebRequest, WorkloadConfig};

use crate::autoscaler::AutoScalerConfig;
use crate::healing::{
    ConfirmedDeath, FailureDetector, HealingConfig, NodeState, ProbeObservation, ProbeOutcome,
    RecoveryEvent, PROBE_INTERVAL, PROBE_JITTER, SUSPICION_THRESHOLD,
};
use crate::journal::{MasterPlan, MigrationJournal};
use crate::master::{Admission, DeferredKind, JobKind, Master, Orchestration};
use crate::migration::{MigrationCosts, MigrationReport, Supervision};
use crate::policies::MigrationPolicy;
use crate::scaler_stage::ScalerStage;
use crate::telemetry::{record_migration_events, SeriesRecorder, TelemetryDump, TierSnapshot};

/// A scripted scaling action (used when experiments pin the scaling moment
/// instead of running the AutoScaler).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleAction {
    /// Remove `count` nodes.
    In {
        /// Number of nodes to retire.
        count: u32,
    },
    /// Add `count` nodes.
    Out {
        /// Number of nodes to add.
        count: u32,
    },
}

/// One scaling event as executed.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalingEvent {
    /// When the decision was made (migration starts here).
    pub decided_at: SimTime,
    /// When the membership actually flipped.
    pub committed_at: SimTime,
    /// Member count before.
    pub from_nodes: u32,
    /// Member count after.
    pub to_nodes: u32,
    /// Nodes retired (scale-in) or added (scale-out).
    pub nodes: Vec<NodeId>,
    /// The migration report, when the policy migrates.
    pub report: Option<MigrationReport>,
}

/// Experiment configuration.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Deployment parameters.
    pub cluster: ClusterConfig,
    /// Workload parameters.
    pub workload: WorkloadConfig,
    /// How scaling actions move data (Q3).
    pub policy: MigrationPolicy,
    /// Q1 automation; `None` runs only the scripted actions.
    pub autoscaler: Option<AutoScalerConfig>,
    /// Scripted actions (applied at the given times), in addition to or
    /// instead of the AutoScaler.
    pub scheduled: Vec<(SimTime, ScaleAction)>,
    /// Pre-fill the caches with the top-`prefill_top_ranks` most popular
    /// keys before the run (0 = start cold).
    pub prefill_top_ranks: u64,
    /// Migration cost model.
    pub costs: MigrationCosts,
    /// Faults to inject (crashes, link degradation, shipment drops);
    /// [`FaultPlan::new`] injects nothing.
    pub faults: FaultPlan,
    /// Self-healing: heartbeat failure detection plus automatic recovery.
    /// `None` leaves crashed nodes in the ring (every lookup against them
    /// pays the client timeout until the breaker opens).
    pub healing: Option<HealingConfig>,
    /// Scheduled Master crashes plus the restart/recovery policy applied
    /// to journaled scalings (DESIGN.md §13). [`MasterPlan::default`]
    /// never crashes.
    pub master: MasterPlan,
    /// Master seed.
    pub seed: u64,
}

/// Experiment output.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Per-second hit rate and tail RT (the paper's Fig. 6 panels).
    pub timeline: Vec<TimelinePoint>,
    /// Scaling events in execution order.
    pub events: Vec<ScalingEvent>,
    /// Member count at the end.
    pub final_members: u32,
    /// Members still crashed-but-in-the-ring at the end (0 whenever the
    /// self-healing loop ran and converged).
    pub final_crashed_members: u32,
    /// Web requests served.
    pub total_requests: u64,
    /// Recoveries executed by the self-healing loop, in confirmation order.
    pub recoveries: Vec<RecoveryEvent>,
    /// Lookups that paid the full client timeout against an unreachable
    /// node.
    pub client_timeouts: u64,
    /// Lookups that failed over to the database immediately on an open
    /// breaker.
    pub fast_failovers: u64,
    /// Circuit-breaker state transitions across all nodes.
    pub breaker_transitions: u64,
    /// Heartbeat probes the failure detector sent (0 without healing).
    pub probes_sent: u64,
    /// Distinct keys the autoscaler's stack-distance engine still tracked
    /// when the run ended (0 without an autoscaler). The adaptive engine
    /// caps this at the exact→MIMIR switch threshold (MIMIR evicts as its
    /// buckets retire); `elmem-bench`'s `paper_scale` test asserts the
    /// bound at the paper's keyspace.
    pub profiler_tracked_keys: usize,
    /// The run's full telemetry story: event trace, latency histograms,
    /// counter time series, per-node rows. Byte-identical (via
    /// [`TelemetryDump::to_json`]) across same-seed runs.
    pub telemetry: TelemetryDump,
    /// The Master's migration journal at the end of the run: every durable
    /// record the journaled scalings wrote, in append order. Empty when no
    /// scaling migrated under the journal.
    pub journal: MigrationJournal,
}

impl ExperimentResult {
    /// The second of the first membership flip, if any (the reference point
    /// for post-scaling degradation summaries).
    pub fn first_commit_second(&self) -> Option<u64> {
        self.events.iter().map(|e| e.committed_at.as_secs()).min()
    }
}

/// An event on the driver's control queue: a deferred Master action, a
/// heartbeat round of the failure detector, or a scaling the admission
/// check deferred behind a conflicting in-flight job (retried when that
/// job's commit window closes).
#[derive(Debug, Clone)]
enum ControlEvent {
    Deferred(DeferredKind),
    Heartbeat,
    RetryScaling(ScaleAction),
}

/// The control plane of one run: everything that changes the tier other
/// than serving a request. The request loop only tells it how far
/// simulated time has come ([`Driver::advance`]) and which scalings were
/// asked for ([`Driver::trigger`]); faults, deferred commits, heartbeats,
/// retries and recoveries are ordered and executed here (DESIGN.md §13).
struct Driver {
    cluster: Cluster,
    master: Master,
    /// Master crashes scheduled against journaled scalings.
    master_plan: MasterPlan,
    /// Self-healing: the recovery policy and the failure detector feeding
    /// it. Heartbeats are only ever scheduled when this is set.
    healing: Option<(HealingConfig, FailureDetector)>,
    injector: FaultInjector,
    control: EventQueue<ControlEvent>,
    /// A heartbeat due after this instant is dropped instead of run. No
    /// bound while requests arrive; once they stop, [`Driver::settle`]
    /// sets the end of the settle window, which is what lets the queue
    /// run empty.
    heartbeats_until: SimTime,
    /// Deaths confirmed but not yet recovered (the Master was busy).
    pending_dead: Vec<ConfirmedDeath>,
    recoveries: Vec<RecoveryEvent>,
    events: Vec<ScalingEvent>,
    bytes_migrated: u64,
    /// The latest instant the control plane acted at.
    clock: SimTime,
}

impl Driver {
    fn new(config: &ExperimentConfig, tcfg: &TelemetryConfig, rng: &DetRng) -> Self {
        let mut cluster = Cluster::new(
            config.cluster.clone(),
            config.workload.keyspace.clone(),
            rng.split("cluster"),
        );
        cluster.set_telemetry_config(tcfg);
        let mut control = EventQueue::new();
        let healing = config.healing.map(|healing| {
            let mut detector = FailureDetector::new(rng.split("heartbeat"));
            control.schedule(
                detector.next_round_after(SimTime::ZERO),
                ControlEvent::Heartbeat,
            );
            (healing, detector)
        });
        Driver {
            cluster,
            master: Master::new(config.policy, config.costs, config.seed),
            master_plan: config.master.clone(),
            healing,
            injector: FaultInjector::new(config.faults.clone(), rng.split("faults")),
            control,
            heartbeats_until: SimTime::MAX,
            pending_dead: Vec::new(),
            recoveries: Vec::new(),
            events: Vec::new(),
            bytes_migrated: 0,
            clock: SimTime::ZERO,
        }
    }

    fn members(&self) -> u32 {
        self.cluster.tier.membership().len() as u32
    }

    fn trace(&mut self, at: SimTime, node: Option<NodeId>, kind: EventKind) {
        self.cluster.telemetry_mut().trace.record(at, node, kind);
    }

    /// Traces the membership flip since there were `before` members, if
    /// there was one.
    fn trace_flip(&mut self, before: u32, at: SimTime) {
        let members = self.members();
        if members != before {
            self.trace(at, None, EventKind::MembershipCommitted { members });
        }
    }

    /// Brings the control plane to `until` (`None`: until the control
    /// queue is empty). The one place the injector's timeline and the
    /// control queue are merged: both run in time order, and before a
    /// control event at `t` every fault up to `t` has landed — at a tie the
    /// fault goes first, so a crash beats the commit (or the probe) racing
    /// it.
    fn advance(&mut self, until: Option<SimTime>) {
        loop {
            let in_reach = |t: &SimTime| until.is_none_or(|u| *t <= u);
            let control_t = self.control.peek_time().filter(in_reach);
            // While requests drive the clock every fault up to `until`
            // lands. After the last request the clock only moves to the
            // control events still queued, so a fault later than the last
            // of them lies outside the run and is never applied.
            let horizon = until.or(control_t);
            let landing = |t: &SimTime| horizon.is_some_and(|h| *t <= h);
            let fault_t = self.injector.peek_time().filter(landing);
            match (fault_t, control_t) {
                (None, None) => break,
                (Some(tf), tc) if tc.is_none_or(|tc| tf <= tc) => {
                    for (at, action) in self.injector.due(tf) {
                        self.apply_fault(at, action);
                    }
                }
                _ => {
                    // The peek above guarantees an event is due; an empty
                    // queue here just ends the drain (no panic on a
                    // driver-invariant slip).
                    let Some((at, event)) = self.control.pop() else {
                        break;
                    };
                    self.dispatch(at, event);
                }
            }
        }
    }

    /// Runs one control event. Every drain — while requests arrive and
    /// after the last one — comes through here (DESIGN.md §13 has the
    /// table of what each event may schedule and trace).
    fn dispatch(&mut self, at: SimTime, event: ControlEvent) {
        self.clock = self.clock.max(at);
        match event {
            ControlEvent::Deferred(kind) => {
                let before = self.members();
                Master::apply(&mut self.cluster, &kind);
                self.trace_flip(before, at);
            }
            ControlEvent::RetryScaling(action) => self.trigger(action, at),
            ControlEvent::Heartbeat => {
                let Some((_, detector)) = self.healing.as_mut() else {
                    return;
                };
                if at > self.heartbeats_until {
                    return;
                }
                let (confirmed, observed) = detector.probe_round(&self.cluster, at);
                let next_round = detector.next_round_after(at);
                self.pending_dead.extend(confirmed);
                self.trace_probes(at, &observed);
                self.control.schedule(next_round, ControlEvent::Heartbeat);
                self.try_recover(at);
            }
        }
    }

    /// After the last request: drains the control queue so the membership
    /// reflects every decision. With healing, the detector keeps probing
    /// for a bounded settle window past the last request, so a crash near
    /// the end is still confirmed and recovered rather than left as a
    /// corpse in the final membership.
    fn settle(&mut self, last_request: SimTime) {
        self.clock = self.clock.max(last_request);
        if self.healing.is_some() {
            let round = PROBE_INTERVAL + PROBE_JITTER;
            self.heartbeats_until = last_request + round * u64::from(SUSPICION_THRESHOLD + 2);
        }
        self.advance(None);
        // Deaths confirmed but still queued behind a busy Master when the
        // run ended: finish the recovery so the final membership is clean.
        let idle_at = self.master.busy_until().max(self.clock);
        self.try_recover(idle_at);
        self.advance(None);
    }

    /// Applies one fault action to the serving stack and traces it. An
    /// action against a node the tier does not know is ignored (and not
    /// traced).
    fn apply_fault(&mut self, at: SimTime, action: FaultAction) {
        let (FaultAction::Crash(n)
        | FaultAction::SlowLink(n, _)
        | FaultAction::RestoreLink(n)
        | FaultAction::PartitionLink(n, _)) = action;
        let Ok(node) = self.cluster.tier.node_mut(n) else {
            return;
        };
        let kind = match action {
            FaultAction::Crash(_) => {
                node.crash();
                EventKind::NodeCrashed
            }
            FaultAction::SlowLink(_, factor) => {
                node.link.apply_slowdown(factor);
                EventKind::LinkDegraded
            }
            FaultAction::RestoreLink(_) => {
                node.link.restore_bandwidth();
                EventKind::LinkRestored
            }
            FaultAction::PartitionLink(_, until) => {
                node.link.partition_until(until);
                EventKind::LinkPartitioned
            }
        };
        self.trace(at, Some(n), kind);
    }

    /// Traces one heartbeat round's observations: every non-ack probe
    /// outcome, plus the suspicion/death edges it caused.
    fn trace_probes(&mut self, at: SimTime, observations: &[ProbeObservation]) {
        for &ProbeObservation {
            node,
            outcome,
            before,
            after,
        } in observations
        {
            if outcome != ProbeOutcome::Ack {
                self.trace(at, Some(node), EventKind::Probe { outcome });
            }
            if before != after {
                match after {
                    NodeState::Suspected => self.trace(at, Some(node), EventKind::NodeSuspected),
                    NodeState::ConfirmedDead => {
                        self.trace(at, Some(node), EventKind::NodeConfirmedDead)
                    }
                    NodeState::Alive => {}
                }
            }
        }
    }

    /// What every orchestration leaves the driver to do: account and trace
    /// the migration it ran, and queue the actions it deferred.
    fn absorb(&mut self, orch: &Orchestration) {
        if let Some(report) = &orch.report {
            self.bytes_migrated += report.bytes_migrated.as_u64();
            record_migration_events(&mut self.cluster.telemetry_mut().trace, report);
        }
        for deferred in &orch.deferred {
            self.control
                .schedule(deferred.at, ControlEvent::Deferred(deferred.kind.clone()));
        }
    }

    /// Executes a scaling action decided at `now` (scripted, from the
    /// AutoScaler, or a retry).
    fn trigger(&mut self, action: ScaleAction, now: SimTime) {
        // Per-job admission (DESIGN.md §13): a fill may overlap a drain, but a
        // job conflicting with one still in flight is deferred — re-enqueued
        // for when the conflicting commit window closes — not dropped.
        let kind = match action {
            ScaleAction::In { .. } => JobKind::ScaleIn,
            ScaleAction::Out { .. } => JobKind::ScaleOut,
        };
        if let Admission::Deferred { until, .. } = self.master.admit(kind, now) {
            self.trace(now, None, EventKind::ScalingDeferred { until });
            self.control
                .schedule(until, ControlEvent::RetryScaling(action));
            return;
        }
        let members = self.members();
        let mut supervision = Supervision::with_faults(&mut self.injector);
        supervision.master = self.master_plan.clone();
        let cluster = &mut self.cluster;
        let orch = match action {
            // Never the last node; what is left of the request may be
            // nothing, which the Master refuses like any invalid count.
            ScaleAction::In { count } => self.master.scale_in_supervised(
                cluster,
                count.min(members.saturating_sub(1)),
                now,
                &mut supervision,
            ),
            ScaleAction::Out { count } => {
                self.master
                    .scale_out_supervised(cluster, count, now, &mut supervision)
            }
        };
        // A scaling the Master refuses is dropped, not retried.
        let Ok(orch) = orch else { return };
        // Member count after every deferred action lands. Inline policies have
        // already flipped the membership; deferred removals/evictions only
        // count for nodes still in it (an evicted scale-out node never joined).
        let membership = self.cluster.tier.membership().members();
        let delta: i64 = orch
            .deferred
            .iter()
            .map(|d| match &d.kind {
                DeferredKind::CommitRemove(v) | DeferredKind::EvictCrashed(v) => {
                    -(v.iter().filter(|id| membership.contains(id)).count() as i64)
                }
                DeferredKind::CommitAdd(v) => {
                    v.iter().filter(|id| !membership.contains(id)).count() as i64
                }
                DeferredKind::DiscardSecondary(_) => 0,
            })
            .sum();
        let to_nodes = (membership.len() as i64 + delta).max(1) as u32;
        let decided = EventKind::ScalingDecided {
            from_nodes: members,
            to_nodes,
        };
        self.trace(now, None, decided);
        self.absorb(&orch);
        // Inline policies flip membership inside the scale call itself;
        // deferred commits are traced when they land.
        self.trace_flip(members, orch.committed_at);
        self.events.push(ScalingEvent {
            decided_at: now,
            committed_at: orch.committed_at,
            from_nodes: members,
            to_nodes,
            nodes: orch.nodes,
            report: orch.report,
        });
    }

    /// Runs any recovery owed for confirmed deaths, unless the Master is mid
    /// scaling — a recovery never races an in-flight supervised migration; it
    /// waits for the next control tick after `busy_until`. (A crash *inside*
    /// such a migration is already handled by the migration's own abort path.)
    fn try_recover(&mut self, now: SimTime) {
        let Some(&(healing, _)) = self.healing.as_ref() else {
            return;
        };
        if self.pending_dead.is_empty() || !self.master.is_idle(now) {
            return;
        }
        self.clock = self.clock.max(now);
        let deaths = std::mem::take(&mut self.pending_dead);
        let dead: Vec<NodeId> = deaths.iter().map(|d| d.node).collect();
        let members_before = self.members();
        let mut supervision = Supervision::with_faults(&mut self.injector);
        let orch = self
            .master
            .recover_supervised(&mut self.cluster, &dead, now, &healing, &mut supervision)
            // Recovery could not admit replacements (e.g. nothing left to
            // migrate from); the eviction still happened, record it as such.
            .unwrap_or_else(|_| Orchestration::immediate(vec![], now));
        // The eviction flips the membership inline; replacements join later
        // via deferred commits (traced when they land).
        self.trace_flip(members_before, now);
        self.absorb(&orch);
        // One replacement per death, paired in order (empty for evict-only).
        for (i, death) in deaths.iter().enumerate() {
            let replacement = orch.nodes.get(i).copied();
            // Every replacement is warmed before it joins.
            let warmed = replacement.is_some();
            let completed = EventKind::RecoveryCompleted {
                replacement,
                warmed,
            };
            self.trace(orch.committed_at, Some(death.node), completed);
            self.recoveries.push(RecoveryEvent {
                node: death.node,
                crashed_at: self.injector.crash_time(death.node),
                suspected_at: death.suspected_at,
                confirmed_at: death.confirmed_at,
                replacement,
                recovered_at: orch.committed_at,
                warmed,
            });
        }
    }
}

/// Runs one experiment to completion. Deterministic in `config.seed`.
/// The event trace holds [`TelemetryConfig::default`]'s capacity.
pub fn run_experiment(config: ExperimentConfig) -> ExperimentResult {
    run_experiment_capture(config, TelemetryConfig::default()).0
}

/// [`run_experiment`] with an explicit trace capacity, additionally
/// returning the final [`Cluster`] so callers can audit end-of-run state —
/// the chaos engine's post-run invariant checker inspects every surviving
/// store directly instead of trusting the aggregated telemetry.
pub fn run_experiment_capture(
    config: ExperimentConfig,
    tcfg: TelemetryConfig,
) -> (ExperimentResult, Cluster) {
    let rng = DetRng::seed(config.seed);
    let mut driver = Driver::new(&config, &tcfg, &rng);
    let mut gen = RequestGenerator::new(config.workload.clone(), rng.split("workload"));

    // Pre-fill hottest keys, coldest rank first so rank 1 ends up hottest.
    if config.prefill_top_ranks > 0 {
        let ranks = config.prefill_top_ranks.min(gen.config().keyspace.n_keys());
        let zipf = gen.zipf().clone();
        driver.cluster.prefill(
            (1..=ranks).rev().map(|r| zipf.key_for_rank(r)),
            SimTime::ZERO,
        );
    }

    // The AutoScaler runs beside this loop (DESIGN.md §10): the loop only
    // queues the keys it served and asks for a decision once per epoch.
    let mut autoscaler = config
        .autoscaler
        .as_ref()
        .map(|c| ScalerStage::start(c, driver.cluster.keyspace().clone()));
    let mut scheduled = config.scheduled.clone();
    scheduled.sort_by_key(|(t, _)| *t);
    let mut scheduled = scheduled.into_iter().peekable();

    let mut recorder = TimelineRecorder::new();
    let mut series = SeriesRecorder::default();
    let mut lookups_since = 0u64;
    let mut rate_anchor = SimTime::ZERO;
    let mut last_now = SimTime::ZERO;

    // One scratch request reused across the whole run: the generator
    // refills its key buffer in place instead of allocating a fresh
    // multi-get vector per request (the loop below runs hundreds of
    // thousands of times per experiment).
    let mut req = WebRequest {
        arrival: SimTime::ZERO,
        keys: Vec::with_capacity(config.workload.items_per_request),
    };
    while gen.next_request_into(&mut req) {
        let now = req.arrival;
        last_now = now;

        // 1. The control plane catches up: injected faults, deferred
        // Master actions, retries and heartbeat rounds, in time order.
        driver.advance(Some(now));

        // 2. Scripted actions.
        while let Some((at, action)) = scheduled.next_if(|(at, _)| *at <= now) {
            driver.trigger(action, at.max(now));
        }

        // 3. AutoScaler decision (when idle and an epoch has elapsed).
        if let Some(scaler) = autoscaler.as_mut() {
            if scaler.epoch_elapsed(now) && driver.master.is_idle(now) {
                let elapsed = now.saturating_sub(rate_anchor).as_secs_f64();
                let rate = if elapsed > 0.0 {
                    lookups_since as f64 / elapsed
                } else {
                    0.0
                };
                let members = driver.members();
                if let Some(hint) = scaler.decide(now, rate, members) {
                    let action = if hint.target_nodes < members {
                        ScaleAction::In {
                            count: hint.scale_in_count(),
                        }
                    } else {
                        ScaleAction::Out {
                            count: hint.scale_out_count(),
                        }
                    };
                    driver.trigger(action, now);
                }
                lookups_since = 0;
                rate_anchor = now;
            }
        }

        // 4. Serve the request.
        let snap = TierSnapshot::take(&driver.cluster, driver.bytes_migrated);
        series.advance(now, &snap);
        let outcome = driver.cluster.handle(&req);
        series.record_request(outcome.hits, outcome.lookups);
        if let Some(scaler) = autoscaler.as_mut() {
            scaler.observe(&req.keys);
        }
        lookups_since += outcome.lookups;
        recorder.record_request(
            outcome.completion,
            outcome.rt_ms(),
            outcome.hits,
            outcome.lookups,
        );
    }
    driver.settle(last_now);

    let Driver {
        cluster,
        master,
        healing,
        recoveries,
        events,
        bytes_migrated,
        clock,
        ..
    } = driver;
    let final_snap = TierSnapshot::take(&cluster, bytes_migrated);
    let series = series.finish(clock, &final_snap);
    let telemetry = TelemetryDump::assemble(config.seed, &cluster, series);

    let result = ExperimentResult {
        timeline: recorder.finish(),
        events,
        final_members: cluster.tier.membership().len() as u32,
        final_crashed_members: cluster.tier.crashed_members().len() as u32,
        total_requests: gen.generated(),
        recoveries,
        client_timeouts: cluster.client_timeouts(),
        fast_failovers: cluster.fast_failovers(),
        breaker_transitions: cluster.breaker_transitions(),
        probes_sent: healing.map_or(0, |(_, d)| d.probes_sent()),
        profiler_tracked_keys: autoscaler.map_or(0, ScalerStage::finish),
        telemetry,
        journal: master.journal().clone(),
    };
    (result, cluster)
}

#[cfg(test)]
mod tests {
    use super::*;
    use elmem_workload::{Keyspace, TraceKind};

    fn base_config(policy: MigrationPolicy) -> ExperimentConfig {
        ExperimentConfig {
            cluster: ClusterConfig::small_test(),
            workload: WorkloadConfig {
                keyspace: Keyspace::new(20_000, 1),
                zipf_exponent: 1.0,
                items_per_request: 3,
                peak_rate: 300.0,
                trace: elmem_workload::DemandTrace::new(vec![1.0; 7], SimTime::from_secs(10)),
            },
            policy,
            autoscaler: None,
            scheduled: vec![(SimTime::from_secs(30), ScaleAction::In { count: 1 })],
            prefill_top_ranks: 10_000,
            costs: MigrationCosts::default(),
            faults: FaultPlan::new(),
            healing: None,
            master: MasterPlan::default(),
            seed: 7,
        }
    }

    #[test]
    fn baseline_commits_immediately() {
        let result = run_experiment(base_config(MigrationPolicy::Baseline));
        assert_eq!(result.events.len(), 1);
        let ev = &result.events[0];
        assert_eq!(ev.decided_at, ev.committed_at);
        assert!(ev.report.is_none());
        assert_eq!(result.final_members, 3);
        assert!(result.total_requests > 1000);
    }

    #[test]
    fn elmem_commits_after_migration() {
        let result = run_experiment(base_config(MigrationPolicy::elmem()));
        assert_eq!(result.events.len(), 1);
        let ev = &result.events[0];
        assert!(ev.committed_at > ev.decided_at);
        let report = ev.report.as_ref().expect("elmem migrates");
        assert!(report.items_migrated > 0);
        assert_eq!(result.final_members, 3);
    }

    #[test]
    fn elmem_degrades_less_than_baseline() {
        let base = run_experiment(base_config(MigrationPolicy::Baseline));
        let elmem = run_experiment(base_config(MigrationPolicy::elmem()));
        let commit_b = base.events[0].committed_at.as_secs();
        let commit_e = elmem.events[0].committed_at.as_secs();
        let post_miss = |tl: &[TimelinePoint], s: u64| -> f64 {
            let pts: Vec<&TimelinePoint> = tl
                .iter()
                .filter(|p| p.second >= s && p.requests > 0)
                .collect();
            1.0 - pts.iter().map(|p| p.hit_rate).sum::<f64>() / pts.len().max(1) as f64
        };
        let miss_b = post_miss(&base.timeline, commit_b);
        let miss_e = post_miss(&elmem.timeline, commit_e);
        assert!(
            miss_e < miss_b,
            "elmem post-scaling miss {miss_e} should beat baseline {miss_b}"
        );
    }

    #[test]
    fn naive_runs_and_commits() {
        let result = run_experiment(base_config(MigrationPolicy::Naive));
        assert_eq!(result.events.len(), 1);
        assert!(result.events[0].report.is_some());
        assert_eq!(result.final_members, 3);
    }

    #[test]
    fn cachescale_discards_secondary() {
        let mut cfg = base_config(MigrationPolicy::CacheScale {
            window: SimTime::from_secs(10),
        });
        cfg.scheduled = vec![(SimTime::from_secs(20), ScaleAction::In { count: 1 })];
        let result = run_experiment(cfg);
        assert_eq!(result.events.len(), 1);
        assert_eq!(result.final_members, 3);
    }

    #[test]
    fn scale_out_grows_membership() {
        let mut cfg = base_config(MigrationPolicy::elmem());
        cfg.scheduled = vec![(SimTime::from_secs(30), ScaleAction::Out { count: 2 })];
        let result = run_experiment(cfg);
        assert_eq!(result.final_members, 6);
        assert!(result.events[0].report.is_some());
    }

    #[test]
    fn fill_overlaps_in_flight_drain() {
        let mut cfg = base_config(MigrationPolicy::elmem());
        cfg.scheduled = vec![
            (SimTime::from_secs(30), ScaleAction::In { count: 1 }),
            (SimTime::from_secs(30), ScaleAction::Out { count: 1 }),
        ];
        let result = run_experiment(cfg);
        // Both admitted at the same instant: a fill does not conflict with
        // a drain, so the scale-out starts while the scale-in's commit
        // window is still open.
        assert_eq!(result.events.len(), 2);
        assert_eq!(result.events[0].decided_at, result.events[1].decided_at);
        assert!(!result.telemetry.to_json().contains("scaling_deferred"));
        assert_eq!(result.final_members, 4);
    }

    #[test]
    fn conflicting_drains_defer_then_retry() {
        let mut cfg = base_config(MigrationPolicy::elmem());
        cfg.scheduled = vec![
            (SimTime::from_secs(30), ScaleAction::In { count: 1 }),
            (SimTime::from_secs(30), ScaleAction::In { count: 1 }),
        ];
        let result = run_experiment(cfg);
        // The second drain conflicts with the first; it is deferred to the
        // first's commit and retried there, not dropped.
        assert_eq!(result.events.len(), 2);
        assert!(
            result.events[1].decided_at >= result.events[0].committed_at,
            "deferred drain must wait out the first's commit window"
        );
        assert!(result.telemetry.to_json().contains("scaling_deferred"));
        assert_eq!(result.final_members, 2);
    }

    #[test]
    fn master_crash_mid_migration_resumes_and_journals() {
        let mut cfg = base_config(MigrationPolicy::elmem());
        cfg.master.crashes = vec![SimTime::from_secs(30) + SimTime::from_millis(200)];
        let result = run_experiment(cfg);
        assert_eq!(result.events.len(), 1);
        let report = result.events[0].report.as_ref().expect("elmem migrates");
        assert_eq!(report.resumes.len(), 1, "the crash interrupted the run");
        assert!(report.items_migrated > 0);
        assert_eq!(result.final_members, 3);
        let labels: Vec<&str> = result
            .journal
            .entries()
            .iter()
            .map(|e| e.record.label())
            .collect();
        assert!(labels.contains(&"resumed"));
        assert_eq!(labels.last(), Some(&"committed"));
        assert!(result.telemetry.to_json().contains("migration_resumed"));
    }

    #[test]
    fn deterministic_runs() {
        let a = run_experiment(base_config(MigrationPolicy::elmem()));
        let b = run_experiment(base_config(MigrationPolicy::elmem()));
        assert_eq!(a.timeline, b.timeline);
        assert_eq!(a.total_requests, b.total_requests);
        assert_eq!(a.events.len(), b.events.len());
    }

    #[test]
    fn autoscaler_scales_in_on_demand_drop() {
        let mut cfg = base_config(MigrationPolicy::Baseline);
        cfg.scheduled = vec![];
        // Demand drops to near zero halfway.
        cfg.workload.trace = elmem_workload::DemandTrace::new(
            vec![1.0, 1.0, 1.0, 0.05, 0.05, 0.05, 0.05],
            SimTime::from_secs(30),
        );
        cfg.workload.peak_rate = 400.0;
        cfg.autoscaler = Some({
            let mut a = AutoScalerConfig::new(cfg.cluster.r_db(), cfg.cluster.node_memory);
            a.epoch = SimTime::from_secs(30);
            a.max_nodes = 4;
            a.min_observations = 5_000;
            a
        });
        let result = run_experiment(cfg);
        assert!(
            !result.events.is_empty(),
            "autoscaler should have scaled in"
        );
        assert!(result.final_members < 4);
    }

    #[test]
    fn trace_kinds_run_end_to_end() {
        // Smoke: a short slice of a real trace shape with the autoscaler.
        let mut cfg = base_config(MigrationPolicy::elmem());
        cfg.scheduled = vec![];
        cfg.workload.trace = TraceKind::FacebookSys.demand_trace();
        cfg.workload.peak_rate = 120.0;
        let result = run_experiment(cfg);
        assert!(result.total_requests > 1000);
        assert!(!result.timeline.is_empty());
    }
}
