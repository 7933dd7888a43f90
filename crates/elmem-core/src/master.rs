//! The Master: ElMem's lightweight central controller (§III-A).
//!
//! The Master receives scaling hints from the AutoScaler, chooses which
//! nodes to scale (Q2, via the §III-C scoring), orchestrates the 3-phase
//! migration between Agents (Q3), and only after migration completes
//! informs the web servers of the membership change and directs retiring
//! nodes to power off. This module is the programmatic form of that
//! orchestration: given a cluster and a policy, it mutates the data plane
//! immediately (migration) and returns the *deferred actions* — membership
//! flips and node shutdowns — with the simulated times at which they occur.

use elmem_cluster::Cluster;
use elmem_util::{DetRng, ElmemError, NodeId, SimTime};

use crate::healing::HealingConfig;
use crate::journal::{MigrationJournal, MigrationKind};
use crate::migration::{migrate, MigrateJob, MigrationCosts, MigrationReport, Supervision};
use crate::policies::MigrationPolicy;
use crate::scoring::choose_retiring;

/// A deferred control action the caller must apply when simulated time
/// reaches `at` (the driver schedules these on its event queue).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeferredAction {
    /// When the action takes effect.
    pub at: SimTime,
    /// What happens.
    pub kind: DeferredKind,
}

/// The kinds of deferred control-plane actions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeferredKind {
    /// Flip membership to exclude these nodes and power them off.
    CommitRemove(Vec<NodeId>),
    /// Flip membership to include these (already filled) nodes.
    CommitAdd(Vec<NodeId>),
    /// CacheScale: disarm the secondary ring and power these nodes off.
    DiscardSecondary(Vec<NodeId>),
    /// Remove crashed nodes from the membership (abort fallback): mark
    /// them crashed and drop them from the ring. No power-off — they are
    /// already gone.
    EvictCrashed(Vec<NodeId>),
}

/// The Master's answer to "may this scaling start at `now`?".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// No in-flight job conflicts; start immediately.
    Granted,
    /// A conflicting job is draining; retry at `until`.
    Deferred {
        /// Earliest instant the conflict is gone (strictly after now).
        until: SimTime,
        /// Human-readable conflict class, for the trace.
        reason: &'static str,
    },
}

/// What one orchestration call did.
#[derive(Debug, Clone, PartialEq)]
pub struct Orchestration {
    /// Nodes being retired or added.
    pub nodes: Vec<NodeId>,
    /// The migration report, when the policy migrates data.
    pub report: Option<MigrationReport>,
    /// Actions the driver must apply later (possibly empty for policies
    /// that commit immediately).
    pub deferred: Vec<DeferredAction>,
    /// When the scaling is fully committed (now, for immediate policies).
    pub committed_at: SimTime,
}

impl Orchestration {
    /// An orchestration that was over the instant it was asked for: the
    /// membership (if it changed at all) flipped inline at `now`, nothing
    /// migrated and nothing is left for the driver to apply.
    pub fn immediate(nodes: Vec<NodeId>, now: SimTime) -> Self {
        Orchestration {
            nodes,
            report: None,
            deferred: vec![],
            committed_at: now,
        }
    }
}

/// The Master controller.
///
/// # Example
///
/// ```
/// use elmem_core::master::Master;
/// use elmem_core::MigrationPolicy;
/// use elmem_cluster::{Cluster, ClusterConfig};
/// use elmem_util::{DetRng, KeyId, SimTime};
/// use elmem_workload::{GeneralizedPareto, Keyspace};
///
/// let mut cluster = Cluster::new(
///     ClusterConfig::small_test(),
///     Keyspace::with_distribution(1_000, 0, GeneralizedPareto::facebook_etc(), 4_000),
///     DetRng::seed(1),
/// );
/// for k in 0..500u64 {
///     let owner = cluster.tier.node_for_key(KeyId(k)).unwrap();
///     let size = cluster.keyspace().value_size(KeyId(k));
///     cluster.tier.node_mut(owner).unwrap().store
///         .set(KeyId(k), size, SimTime::from_secs(k)).unwrap();
/// }
/// let mut master = Master::new(MigrationPolicy::elmem(), Default::default(), 7);
/// let orch = master
///     .scale_in(&mut cluster, 1, SimTime::from_secs(1_000))
///     .unwrap();
/// assert_eq!(orch.nodes.len(), 1);
/// assert!(orch.report.is_some());
/// ```
#[derive(Debug)]
pub struct Master {
    policy: MigrationPolicy,
    costs: MigrationCosts,
    /// Victim selection randomness for the Naive comparator.
    rng: DetRng,
    /// The Master is busy until this instant (conservative global gate;
    /// [`Master::admit`] offers the finer per-job answer).
    busy_until: SimTime,
    /// The simulated durable WAL every migration job writes to (DESIGN.md
    /// §13).
    journal: MigrationJournal,
    /// In-flight (or not-yet-pruned) migration jobs, tracked per job rather
    /// than as one busy flag so non-conflicting jobs can overlap: each
    /// one's kind (a warm-recovery fill is a scale-out) and the instant its
    /// commit window closes.
    jobs: Vec<(MigrationKind, SimTime)>,
    /// Next journal job id.
    next_job_id: u64,
}

impl Master {
    /// Creates a Master executing scalings under `policy` with the given
    /// migration cost model; `seed` feeds the Naive comparator's random
    /// victim choice.
    pub fn new(policy: MigrationPolicy, costs: MigrationCosts, seed: u64) -> Self {
        Master {
            policy,
            costs,
            rng: DetRng::seed(seed).split("naive-victims"),
            busy_until: SimTime::ZERO,
            journal: MigrationJournal::new(),
            jobs: Vec::new(),
            next_job_id: 0,
        }
    }

    /// Until when the Master is occupied by an in-flight scaling.
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// Whether the Master can accept a new scaling decision at `now`.
    pub fn is_idle(&self, now: SimTime) -> bool {
        now >= self.busy_until
    }

    /// The migration journal: every migration job's durable records.
    pub fn journal(&self) -> &MigrationJournal {
        &self.journal
    }

    /// Answers whether a `kind` scaling may start at `now`, per the
    /// overlap rules (DESIGN.md §13): two jobs conflict iff their kinds are
    /// equal. Two drains contend for the same survivor capacity (as do two
    /// fills for the same donor dumps), and the later one is deferred until
    /// the earlier's commit window closes; a drain may overlap a fill — the
    /// drain moves data *onto* the retained ring, the fill *off* it onto
    /// nodes that are not yet members. Advisory: the driver asks before
    /// triggering; the scale paths themselves stay callable directly
    /// (tests, benches).
    pub fn admit(&mut self, kind: MigrationKind, now: SimTime) -> Admission {
        self.jobs.retain(|&(_, window_end)| window_end > now);
        let conflicting = self.jobs.iter().filter(|&&(k, _)| k == kind);
        match conflicting.map(|&(_, window_end)| window_end).max() {
            Some(until) => Admission::Deferred {
                until,
                reason: match kind {
                    MigrationKind::ScaleIn => "concurrent drain in flight",
                    MigrationKind::ScaleOut => "concurrent fill in flight",
                },
            },
            None => Admission::Granted,
        }
    }

    /// The one job lifecycle: `job` migrates under the caller's
    /// `supervision`, journaled under the next job id, and is tracked until
    /// its commit window closes at the instant it ended.
    fn run_job(
        &mut self,
        cluster: &mut Cluster,
        job: &MigrateJob<'_>,
        now: SimTime,
        supervision: &mut Supervision<'_>,
    ) -> Result<MigrationReport, ElmemError> {
        let id = self.next_job_id;
        self.next_job_id += 1;
        let journal = (&mut self.journal, id);
        let report = migrate(
            &mut cluster.tier,
            job,
            now,
            &self.costs,
            supervision,
            journal,
        )?;
        self.jobs.push((job.identity().0, report.completed));
        Ok(report)
    }

    /// The drain both migrating policies share: `job` retires its nodes,
    /// and the scaling commits at the instant it ended. An abort falls back
    /// to committing without further migration: the node whose crash caused
    /// it (source or destination) leaves via eviction, never via
    /// CommitRemove; a completed run has no such node and removes every
    /// victim.
    fn drain(
        &mut self,
        cluster: &mut Cluster,
        job: &MigrateJob<'_>,
        now: SimTime,
        supervision: &mut Supervision<'_>,
    ) -> Result<Orchestration, ElmemError> {
        let report = self.run_job(cluster, job, now, supervision)?;
        let (_, victims) = job.identity();
        let crashed = report.outcome.crashed_node();
        let survivors: Vec<NodeId> = victims
            .iter()
            .copied()
            .filter(|v| Some(*v) != crashed)
            .collect();
        let evict = crashed.map(|x| DeferredKind::EvictCrashed(vec![x]));
        let remove = (!survivors.is_empty()).then_some(DeferredKind::CommitRemove(survivors));
        Ok(Orchestration {
            deferred: plan_at(report.completed, evict.into_iter().chain(remove)),
            nodes: victims.to_vec(),
            committed_at: report.completed,
            report: Some(report),
        })
    }

    /// Orchestrates a scale-in of `count` nodes at `now`.
    ///
    /// # Errors
    ///
    /// [`ElmemError::InvalidScaling`] if `count` is zero or would empty the
    /// tier; migration errors propagate.
    pub fn scale_in(
        &mut self,
        cluster: &mut Cluster,
        count: u32,
        now: SimTime,
    ) -> Result<Orchestration, ElmemError> {
        self.scale_in_supervised(cluster, count, now, &mut Supervision::none())
    }

    /// [`Master::scale_in`] under supervision: the ElMem and Naive drains
    /// run with shipment-drop retries, crash-abort handling and the
    /// Master-crash plan, and write the journal (Baseline and CacheScale
    /// migrate nothing).
    ///
    /// On [`MigrationOutcome::Aborted`] the Master does not panic and does
    /// not roll back: partial imports stay, and the scaling is committed
    /// without further migration at the abort instant. A crashed node —
    /// whether a retiring source or a retained destination — is evicted
    /// from the membership via [`DeferredKind::EvictCrashed`]; the
    /// surviving victims go through the usual
    /// [`DeferredKind::CommitRemove`], which never targets a crashed node.
    ///
    /// [`MigrationOutcome::Aborted`]: crate::migration::MigrationOutcome::Aborted
    ///
    /// # Errors
    ///
    /// Same as [`Master::scale_in`].
    pub fn scale_in_supervised(
        &mut self,
        cluster: &mut Cluster,
        count: u32,
        now: SimTime,
        supervision: &mut Supervision<'_>,
    ) -> Result<Orchestration, ElmemError> {
        let members = cluster.tier.membership().len() as u32;
        if count == 0 || count >= members {
            return Err(ElmemError::InvalidScaling(format!(
                "cannot retire {count} of {members} nodes"
            )));
        }
        let orch = match self.policy {
            MigrationPolicy::Baseline => {
                let (victims, _) = choose_retiring(&cluster.tier, count as usize)?;
                cluster.tier.commit_remove(&victims)?;
                Orchestration::immediate(victims, now)
            }
            MigrationPolicy::ElMem { import } => {
                let (victims, _) = choose_retiring(&cluster.tier, count as usize)?;
                let job = MigrateJob::ScaleIn {
                    retiring: &victims,
                    import_mode: import,
                };
                self.drain(cluster, &job, now, supervision)?
            }
            MigrationPolicy::Naive => {
                let mut pool = cluster.tier.membership().members().to_vec();
                let mut victims = Vec::with_capacity(count as usize);
                for _ in 0..count {
                    let i = self.rng.next_below(pool.len() as u64) as usize;
                    victims.push(pool.swap_remove(i));
                }
                victims.sort_unstable();
                let job = MigrateJob::NaiveScaleIn {
                    retiring: &victims,
                    fraction: f64::from(members - count) / f64::from(members),
                };
                self.drain(cluster, &job, now, supervision)?
            }
            MigrationPolicy::CacheScale { window } => {
                let (victims, _) = choose_retiring(&cluster.tier, count as usize)?;
                let old_ring = cluster.tier.membership().ring().clone();
                cluster.tier.membership_remove_keep_online(&victims)?;
                cluster.arm_secondary(old_ring);
                Orchestration {
                    deferred: plan_at(
                        now + window,
                        [DeferredKind::DiscardSecondary(victims.clone())],
                    ),
                    ..Orchestration::immediate(victims, now)
                }
            }
        };
        Ok(self.occupied_by(orch))
    }

    /// Orchestrates a scale-out of `count` new nodes at `now`.
    ///
    /// # Errors
    ///
    /// [`ElmemError::InvalidScaling`] if `count` is zero; migration errors
    /// propagate.
    pub fn scale_out(
        &mut self,
        cluster: &mut Cluster,
        count: u32,
        now: SimTime,
    ) -> Result<Orchestration, ElmemError> {
        self.scale_out_supervised(cluster, count, now, &mut Supervision::none())
    }

    /// [`Master::scale_out`] under supervision: the ElMem fill runs with
    /// the drain's retries, crash aborts and Master-crash plan, and writes
    /// the journal. A freshly provisioned node that crashes before the
    /// membership flip is filtered out of [`DeferredKind::CommitAdd`] and
    /// evicted instead — the cluster never commits a dead node into the
    /// ring.
    ///
    /// # Errors
    ///
    /// Same as [`Master::scale_out`].
    pub fn scale_out_supervised(
        &mut self,
        cluster: &mut Cluster,
        count: u32,
        now: SimTime,
        supervision: &mut Supervision<'_>,
    ) -> Result<Orchestration, ElmemError> {
        if count == 0 {
            return Err(ElmemError::InvalidScaling("zero new nodes".to_string()));
        }
        let ids = cluster.tier.provision_nodes(count as usize);
        let orch = match self.policy {
            MigrationPolicy::ElMem { .. } => self.fill(cluster, ids, now, supervision, vec![])?,
            // The comparators add cold nodes immediately.
            _ => {
                cluster.tier.commit_add(&ids)?;
                Orchestration::immediate(ids, now)
            }
        };
        Ok(self.occupied_by(orch))
    }

    /// The one fill arm, shared by ElMem scale-out and warm recovery: every
    /// member ships what hashes to the not-yet-member `new_nodes` through
    /// the same job lifecycle a drain runs, and the membership flip is
    /// deferred to the instant the fill ended. An abort falls back as a
    /// drain's does: the fill commits at the abort instant, and the node
    /// whose crash caused it leaves via eviction. A new node that crashes
    /// before that instant is evicted instead of committed — the cluster
    /// never commits a dead node into the ring. `corpses` (crashed members
    /// recovery had to keep) leave once a live new node has joined, not
    /// before.
    fn fill(
        &mut self,
        cluster: &mut Cluster,
        new_nodes: Vec<NodeId>,
        now: SimTime,
        supervision: &mut Supervision<'_>,
        corpses: Vec<NodeId>,
    ) -> Result<Orchestration, ElmemError> {
        let job = MigrateJob::ScaleOut {
            new_nodes: &new_nodes,
        };
        let report = self.run_job(cluster, &job, now, supervision)?;
        let committed_at = report.completed;
        let crashed = report.outcome.crashed_node();
        let (mut dead, alive): (Vec<NodeId>, Vec<NodeId>) =
            new_nodes.iter().copied().partition(|&n| {
                Some(n) == crashed || supervision.crash_before(n, committed_at).is_some()
            });
        // A member whose crash aborted the fill leaves with the dead new
        // nodes (a corpse recovery kept leaves after the join instead).
        dead.extend(crashed.filter(|c| !new_nodes.contains(c) && !corpses.contains(c)));
        let joined = !alive.is_empty();
        let steps = [
            (!dead.is_empty()).then_some(DeferredKind::EvictCrashed(dead)),
            joined.then_some(DeferredKind::CommitAdd(alive)),
            (joined && !corpses.is_empty()).then_some(DeferredKind::EvictCrashed(corpses)),
        ];
        Ok(Orchestration {
            deferred: plan_at(committed_at, steps.into_iter().flatten()),
            nodes: new_nodes,
            report: Some(report),
            committed_at,
        })
    }

    /// Recovers from confirmed node deaths (the self-healing loop's action
    /// arm; see [`crate::healing`]).
    ///
    /// Eviction is immediate: a corpse serves nothing, and every instant it
    /// stays in the ring is client timeouts — so the dead nodes (and any
    /// other crashed members) leave the membership before this returns.
    /// With [`HealingConfig::replace`] the Master then admits one
    /// replacement per death, filled by a scale-out job — every survivor
    /// ships what hashes to the replacement — before the deferred
    /// [`DeferredKind::CommitAdd`]. Recovery runs regardless of
    /// the experiment's comparator policy: re-admitting capacity is the
    /// control plane's job, not the migration policy's.
    ///
    /// The returned [`Orchestration::nodes`] are the *replacements* (empty
    /// for evict-only). The fill is the one [`Master::scale_out_supervised`]
    /// runs: supervised by `supervision`, journaled, resumed after a Master
    /// crash, and falling back on an abort the same way; a replacement that
    /// itself crashes before its commit is filtered into
    /// [`DeferredKind::EvictCrashed`].
    ///
    /// # Errors
    ///
    /// Migration errors propagate; eviction itself cannot fail.
    pub fn recover_supervised(
        &mut self,
        cluster: &mut Cluster,
        dead: &[NodeId],
        now: SimTime,
        healing: &HealingConfig,
        supervision: &mut Supervision<'_>,
    ) -> Result<Orchestration, ElmemError> {
        for &id in dead {
            let _ = cluster.tier.crash(id); // idempotent; confirms the state
        }
        let _ = cluster.tier.evict_crashed();
        // If *every* member was dead, eviction keeps one corpse so clients
        // still have somewhere to hash to; it can only leave once the
        // replacements are in.
        let leftover = cluster.tier.crashed_members();
        let orch = if !healing.replace || dead.is_empty() {
            Orchestration::immediate(vec![], now)
        } else {
            let ids = cluster.tier.provision_nodes(dead.len());
            self.fill(cluster, ids, now, supervision, leftover)?
        };
        Ok(self.occupied_by(orch))
    }

    /// The one `busy_until` update: the Master stays occupied until the
    /// orchestration's last action lands (CacheScale's discard lands a
    /// whole window after its commit).
    fn occupied_by(&mut self, orch: Orchestration) -> Orchestration {
        let ends = orch.deferred.iter().map(|d| d.at);
        let last = ends.fold(orch.committed_at, SimTime::max);
        self.busy_until = self.busy_until.max(last);
        orch
    }

    /// Applies a deferred action (the driver calls this when simulated time
    /// reaches `action.at`).
    pub fn apply(cluster: &mut Cluster, kind: &DeferredKind) {
        match kind {
            DeferredKind::CommitRemove(victims) => {
                // A victim that crashed between orchestration and commit
                // (or is no longer a member) cannot be removed cleanly —
                // the evict path owns crashed nodes. CommitRemove never
                // targets them.
                let crashed = cluster.tier.crashed_members();
                let members = cluster.tier.membership().members();
                let live: Vec<NodeId> = victims
                    .iter()
                    .copied()
                    .filter(|v| members.contains(v) && !crashed.contains(v))
                    .collect();
                if !live.is_empty() {
                    let _ = cluster.tier.commit_remove(&live);
                }
                // A victim that crashed after migration finished (no abort)
                // still has to leave the membership — via eviction, since
                // the power-off directive cannot reach it.
                if victims.iter().any(|v| crashed.contains(v)) {
                    let _ = cluster.tier.evict_crashed();
                }
            }
            DeferredKind::CommitAdd(ids) => {
                let _ = cluster.tier.commit_add(ids);
            }
            DeferredKind::DiscardSecondary(victims) => {
                cluster.disarm_secondary();
                // power_off is a per-node no-op for crashed secondaries.
                cluster.tier.power_off(victims);
            }
            DeferredKind::EvictCrashed(ids) => {
                for &id in ids {
                    let _ = cluster.tier.crash(id); // idempotent
                }
                let _ = cluster.tier.evict_crashed();
            }
        }
    }
}

/// One commit plan: every step lands at the same instant, in this order.
fn plan_at(at: SimTime, steps: impl IntoIterator<Item = DeferredKind>) -> Vec<DeferredAction> {
    let defer = |kind| DeferredAction { at, kind };
    steps.into_iter().map(defer).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::migration::MigrationOutcome;
    use elmem_cluster::ClusterConfig;
    use elmem_util::KeyId;
    use elmem_workload::{GeneralizedPareto, Keyspace};

    fn warmed_cluster() -> Cluster {
        let mut cluster = Cluster::new(
            ClusterConfig::small_test(),
            Keyspace::with_distribution(10_000, 0, GeneralizedPareto::facebook_etc(), 4_000),
            DetRng::seed(5),
        );
        for k in 0..2000u64 {
            let key = KeyId(k);
            let owner = cluster.tier.node_for_key(key).unwrap();
            let size = cluster.keyspace().value_size(key);
            cluster
                .tier
                .node_mut(owner)
                .unwrap()
                .store
                .set(key, size, SimTime::from_secs(1 + k))
                .unwrap();
        }
        cluster
    }

    #[test]
    fn baseline_commits_inline() {
        let mut c = warmed_cluster();
        let mut m = Master::new(MigrationPolicy::Baseline, MigrationCosts::default(), 1);
        let now = SimTime::from_secs(10_000);
        let orch = m.scale_in(&mut c, 1, now).unwrap();
        assert!(orch.deferred.is_empty());
        assert_eq!(orch.committed_at, now);
        assert_eq!(c.tier.membership().len(), 3);
        assert!(m.is_idle(now));
    }

    #[test]
    fn elmem_defers_commit_until_migration_done() {
        let mut c = warmed_cluster();
        let mut m = Master::new(MigrationPolicy::elmem(), MigrationCosts::default(), 1);
        let now = SimTime::from_secs(10_000);
        let orch = m.scale_in(&mut c, 1, now).unwrap();
        assert_eq!(orch.deferred.len(), 1);
        assert!(orch.committed_at > now);
        // Membership unchanged until the deferred action is applied.
        assert_eq!(c.tier.membership().len(), 4);
        assert!(!m.is_idle(now));
        assert!(m.is_idle(orch.committed_at));
        Master::apply(&mut c, &orch.deferred[0].kind);
        assert_eq!(c.tier.membership().len(), 3);
    }

    #[test]
    fn cachescale_defers_discard() {
        let mut c = warmed_cluster();
        let mut m = Master::new(MigrationPolicy::cachescale(), MigrationCosts::default(), 1);
        let now = SimTime::from_secs(10_000);
        let orch = m.scale_in(&mut c, 1, now).unwrap();
        // Membership flipped immediately, secondary armed.
        assert_eq!(c.tier.membership().len(), 3);
        assert!(c.secondary_armed());
        assert_eq!(orch.deferred.len(), 1);
        assert_eq!(orch.deferred[0].at, now + SimTime::from_secs(120));
        Master::apply(&mut c, &orch.deferred[0].kind);
        assert!(!c.secondary_armed());
        assert!(!c.tier.node(orch.nodes[0]).unwrap().is_online());
    }

    #[test]
    fn scale_out_elmem_fills_before_commit() {
        let mut c = warmed_cluster();
        let mut m = Master::new(MigrationPolicy::elmem(), MigrationCosts::default(), 1);
        let now = SimTime::from_secs(10_000);
        let orch = m.scale_out(&mut c, 1, now).unwrap();
        assert_eq!(c.tier.membership().len(), 4, "not yet a member");
        let new_store = &c.tier.node(orch.nodes[0]).unwrap().store;
        assert!(!new_store.is_empty(), "filled before the flip");
        Master::apply(&mut c, &orch.deferred[0].kind);
        assert_eq!(c.tier.membership().len(), 5);
    }

    #[test]
    fn invalid_counts_rejected() {
        let mut c = warmed_cluster();
        let mut m = Master::new(MigrationPolicy::elmem(), MigrationCosts::default(), 1);
        assert!(m.scale_in(&mut c, 0, SimTime::ZERO).is_err());
        assert!(m.scale_in(&mut c, 4, SimTime::ZERO).is_err());
        assert!(m.scale_out(&mut c, 0, SimTime::ZERO).is_err());
    }

    #[test]
    fn crashed_victim_never_in_commit_remove() {
        use crate::migration::{AbortCause, MigrationPhase};
        use elmem_sim::fault::{FaultInjector, FaultPlan};

        let mut c = warmed_cluster();
        let now = SimTime::from_secs(10_000);
        // Learn who the Master will retire, then crash exactly that node
        // early in phase 1.
        let (victims, _) = crate::scoring::choose_retiring(&c.tier, 1).unwrap();
        let victim = victims[0];
        let mut inj = FaultInjector::new(
            FaultPlan::new().crash(now + SimTime::from_millis(1), victim),
            DetRng::seed(3).split("faults"),
        );
        let mut m = Master::new(MigrationPolicy::elmem(), MigrationCosts::default(), 1);
        let orch = m
            .scale_in_supervised(&mut c, 1, now, &mut Supervision::with_faults(&mut inj))
            .unwrap();
        let report = orch.report.as_ref().unwrap();
        assert_eq!(
            report.outcome,
            MigrationOutcome::Aborted {
                phase: MigrationPhase::MetadataTransfer,
                cause: AbortCause::SourceCrashed(victim),
            }
        );
        // The crashed victim leaves via eviction, never via CommitRemove.
        for d in &orch.deferred {
            if let DeferredKind::CommitRemove(targets) = &d.kind {
                assert!(!targets.contains(&victim));
            }
        }
        assert!(orch
            .deferred
            .iter()
            .any(|d| d.kind == DeferredKind::EvictCrashed(vec![victim])));
        // Applying the fallback yields a consistent 3-node membership
        // without the dead node.
        c.tier.crash(victim).unwrap();
        for d in &orch.deferred {
            Master::apply(&mut c, &d.kind);
        }
        assert_eq!(c.tier.membership().len(), 3);
        assert!(!c.tier.membership().members().contains(&victim));
    }

    #[test]
    fn apply_commit_remove_skips_crashed_nodes() {
        let mut c = warmed_cluster();
        let victims = vec![NodeId(0), NodeId(1)];
        c.tier.crash(NodeId(0)).unwrap();
        Master::apply(&mut c, &DeferredKind::CommitRemove(victims));
        // Both victims leave the membership, but through different doors:
        // the healthy one is cleanly removed and powered off, the crashed
        // one is evicted (its power-off would be undeliverable).
        assert!(!c.tier.membership().members().contains(&NodeId(1)));
        assert!(!c.tier.membership().members().contains(&NodeId(0)));
        assert_eq!(c.tier.membership().len(), 2);
        assert!(!c.tier.node(NodeId(1)).unwrap().is_online());
        assert!(c.tier.node(NodeId(0)).unwrap().is_crashed());
    }

    #[test]
    fn discard_secondary_is_noop_for_crashed_node() {
        let mut c = warmed_cluster();
        let mut m = Master::new(MigrationPolicy::cachescale(), MigrationCosts::default(), 1);
        let now = SimTime::from_secs(10_000);
        let orch = m.scale_in(&mut c, 1, now).unwrap();
        let victim = orch.nodes[0];
        // The secondary crashes inside the CacheScale window.
        c.tier.crash(victim).unwrap();
        Master::apply(&mut c, &orch.deferred[0].kind);
        assert!(!c.secondary_armed());
        // The power-off directive could not reach the dead node: it stays
        // crashed (not cleanly powered off), and nothing panicked.
        assert!(c.tier.node(victim).unwrap().is_crashed());
        assert!(!c.tier.node(victim).unwrap().is_online());
    }

    #[test]
    fn recover_evict_only_shrinks_membership() {
        use crate::healing::HealingConfig;
        let mut c = warmed_cluster();
        let mut m = Master::new(MigrationPolicy::elmem(), MigrationCosts::default(), 1);
        let now = SimTime::from_secs(10_000);
        c.tier.crash(NodeId(2)).unwrap();
        let orch = m
            .recover_supervised(
                &mut c,
                &[NodeId(2)],
                now,
                &HealingConfig::evict_only(),
                &mut Supervision::none(),
            )
            .unwrap();
        assert!(orch.nodes.is_empty(), "no replacement admitted");
        assert!(orch.deferred.is_empty());
        assert_eq!(c.tier.membership().len(), 3);
        assert!(!c.tier.membership().members().contains(&NodeId(2)));
    }

    #[test]
    fn recover_warm_replacement_fills_before_commit() {
        use crate::healing::HealingConfig;
        let mut c = warmed_cluster();
        let mut m = Master::new(MigrationPolicy::elmem(), MigrationCosts::default(), 1);
        let now = SimTime::from_secs(10_000);
        c.tier.crash(NodeId(2)).unwrap();
        let orch = m
            .recover_supervised(
                &mut c,
                &[NodeId(2)],
                now,
                &HealingConfig::warm_replacement(),
                &mut Supervision::none(),
            )
            .unwrap();
        assert_eq!(orch.nodes.len(), 1, "one replacement per death");
        let replacement = orch.nodes[0];
        // Corpse already evicted; replacement filled but not yet a member.
        assert_eq!(c.tier.membership().len(), 3);
        assert!(!c.tier.node(replacement).unwrap().store.is_empty());
        assert!(orch.committed_at > now, "warmup takes time");
        assert!(!m.is_idle(now));
        for d in &orch.deferred {
            Master::apply(&mut c, &d.kind);
        }
        assert_eq!(c.tier.membership().len(), 4, "capacity restored");
        assert!(c.tier.membership().members().contains(&replacement));
    }

    #[test]
    fn fill_arm_splits_new_nodes_by_crash_before_commit() {
        use crate::healing::HealingConfig;
        use elmem_sim::fault::{FaultInjector, FaultPlan};

        let now = SimTime::from_secs(10_000);
        // The one provisioned node is always the next free id. In the
        // recovery rows every member has crashed (one death is confirmed,
        // so one replacement): eviction has to keep a corpse — the last
        // member — for the replacement to displace.
        let new = NodeId(4);
        let corpse = NodeId(3);
        let original: Vec<NodeId> = (0..4).map(NodeId).collect();
        for (recovery, new_crashes) in [(false, false), (false, true), (true, false), (true, true)]
        {
            let mut c = warmed_cluster();
            let mut m = Master::new(MigrationPolicy::elmem(), MigrationCosts::default(), 1);
            // An all-dead tier has nothing to ship, and a dead new node
            // aborts the fill, so those rows commit the instant they start:
            // the one "before the commit" all rows share is just before
            // `now`.
            let plan = match new_crashes {
                true => FaultPlan::new().crash(now - SimTime::from_nanos(1), new),
                false => FaultPlan::new(),
            };
            let mut inj = FaultInjector::new(plan, DetRng::seed(3).split("faults"));
            let mut sup = Supervision::with_faults(&mut inj);
            let orch = if recovery {
                for &id in &original {
                    c.tier.crash(id).unwrap();
                }
                let healing = HealingConfig::warm_replacement();
                m.recover_supervised(&mut c, &[corpse], now, &healing, &mut sup)
            } else {
                m.scale_out_supervised(&mut c, 1, now, &mut sup)
            }
            .unwrap();
            assert_eq!(orch.nodes, vec![new], "recovery={recovery}");
            assert!(orch.report.is_some());
            assert_eq!(orch.committed_at > now, !recovery && !new_crashes);

            let steps: Vec<&DeferredKind> = orch.deferred.iter().map(|d| &d.kind).collect();
            let expected = match (recovery, new_crashes) {
                (_, true) => vec![DeferredKind::EvictCrashed(vec![new])],
                (true, false) => vec![
                    DeferredKind::CommitAdd(vec![new]),
                    DeferredKind::EvictCrashed(vec![corpse]),
                ],
                (_, false) => vec![DeferredKind::CommitAdd(vec![new])],
            };
            assert_eq!(
                steps,
                expected.iter().collect::<Vec<_>>(),
                "recovery={recovery}"
            );
            assert!(orch.deferred.iter().all(|d| d.at == orch.committed_at));

            // Same tracking for both callers: the job defers a second
            // fill until its commit window closes.
            assert_eq!(
                m.admit(MigrationKind::ScaleOut, SimTime::ZERO),
                Admission::Deferred {
                    until: orch.committed_at,
                    reason: "concurrent fill in flight"
                }
            );
            assert_eq!(m.busy_until(), orch.committed_at);

            // The plan applies to a consistent membership: the dead new
            // node never joins, and the corpse only leaves when a live
            // replacement took its place.
            if new_crashes {
                c.tier.crash(new).unwrap();
            }
            for d in &orch.deferred {
                Master::apply(&mut c, &d.kind);
            }
            let members = c.tier.membership().members();
            let want: Vec<NodeId> = match (recovery, new_crashes) {
                (true, true) => vec![corpse],
                (true, false) => vec![new],
                (false, true) => original.clone(),
                (false, false) => original.iter().copied().chain([new]).collect(),
            };
            assert_eq!(members, want, "recovery={recovery} crashes={new_crashes}");
        }
    }

    #[test]
    fn every_job_runs_one_supervised_journaled_lifecycle() {
        use crate::healing::HealingConfig;
        use crate::journal::JournalRecord;
        use crate::migration::AbortCause;
        use elmem_sim::fault::{FaultInjector, FaultPlan};

        let now = SimTime::from_secs(10_000);
        let at = now + SimTime::from_nanos(1);
        let run = |row: &str, plan: FaultPlan| {
            let mut c = warmed_cluster();
            let policy = match row {
                "naive scale-in" => MigrationPolicy::Naive,
                _ => MigrationPolicy::elmem(),
            };
            let mut m = Master::new(policy, MigrationCosts::default(), 1);
            let mut inj = FaultInjector::new(plan, DetRng::seed(3).split("faults"));
            let sup = &mut Supervision::with_faults(&mut inj);
            let orch = match row {
                "scale-out fill" => m.scale_out_supervised(&mut c, 1, now, sup),
                "recovery fill" => {
                    c.tier.crash(NodeId(2)).unwrap();
                    let healing = HealingConfig::warm_replacement();
                    m.recover_supervised(&mut c, &[NodeId(2)], now, &healing, sup)
                }
                _ => m.scale_in_supervised(&mut c, 1, now, sup),
            };
            (c, m, orch.unwrap())
        };
        for row in [
            "elmem scale-in",
            "naive scale-in",
            "scale-out fill",
            "recovery fill",
        ] {
            // A fault-free probe names the job's own nodes; a drain's source
            // is its victim and a fill's destination its new node.
            let (probe_c, _, probe) = run(row, FaultPlan::new());
            let job = probe.nodes[0];
            let (source, destination) = match row.ends_with("fill") {
                true => (NodeId(0), job),
                false => {
                    let members = probe_c.tier.membership().members();
                    (job, *members.iter().find(|&&n| n != job).unwrap())
                }
            };
            let columns = [
                ("completes", FaultPlan::new()),
                ("source crash", FaultPlan::new().crash(at, source)),
                ("destination crash", FaultPlan::new().crash(at, destination)),
                ("drops", FaultPlan::new().drop_transfers_with_prob(1.0)),
            ];
            for (column, plan) in columns {
                let case = format!("{row} / {column}");
                let (mut c, m, orch) = run(row, plan);
                let report = orch.report.as_ref().unwrap();
                let crashed = report.outcome.crashed_node();
                match (column, report.outcome) {
                    ("completes", MigrationOutcome::Completed) => {}
                    ("source crash", MigrationOutcome::Aborted { cause, .. }) => {
                        assert_eq!(cause, AbortCause::SourceCrashed(source), "{case}")
                    }
                    ("destination crash", MigrationOutcome::Aborted { cause, .. }) => {
                        assert_eq!(cause, AbortCause::DestinationCrashed(destination), "{case}")
                    }
                    ("drops", MigrationOutcome::Aborted { cause, .. }) => assert!(
                        matches!(cause, AbortCause::TransferRetriesExhausted { .. }),
                        "{case}"
                    ),
                    (_, outcome) => panic!("{case}: {outcome:?}"),
                }

                // Exactly one Started and one terminal record, which says
                // how the job ended.
                let records = m.journal().entries().iter().map(|e| &e.record);
                let started = records.clone().filter(|r| r.label() == "started");
                assert_eq!(started.count(), 1, "{case}");
                let terminal: Vec<&JournalRecord> = records
                    .filter(|r| matches!(r.label(), "committed" | "aborted"))
                    .collect();
                let want = match column {
                    "completes" => "committed",
                    _ => "aborted",
                };
                assert_eq!(terminal.len(), 1, "{case}");
                assert_eq!(terminal[0].label(), want, "{case}");

                // The job commits the instant it ended — an abort's instant
                // for a crash — and its crashed node leaves by eviction,
                // never by a commit.
                assert_eq!(orch.committed_at, report.completed, "{case}");
                assert!(orch.deferred.iter().all(|d| d.at == orch.committed_at));
                if column.ends_with("crash") {
                    assert_eq!(report.completed, at, "{case}");
                }
                if let Some(x) = crashed {
                    let evicted = orch.deferred.iter().any(|d| match &d.kind {
                        DeferredKind::EvictCrashed(v) => v.contains(&x),
                        DeferredKind::CommitAdd(v) | DeferredKind::CommitRemove(v) => {
                            panic!("{case}: crashed {x} in a commit {v:?}")
                        }
                        DeferredKind::DiscardSecondary(_) => false,
                    });
                    assert!(evicted, "{case}");
                    c.tier.crash(x).unwrap();
                }
                for d in &orch.deferred {
                    Master::apply(&mut c, &d.kind);
                }
                assert!(c.tier.crashed_members().is_empty(), "{case}");
            }
        }
    }

    #[test]
    fn admission_allows_a_fill_to_overlap_a_drain() {
        let mut c = warmed_cluster();
        let mut m = Master::new(MigrationPolicy::elmem(), MigrationCosts::default(), 1);
        let now = SimTime::from_secs(10_000);
        let orch = m.scale_in(&mut c, 1, now).unwrap();
        let mid = now + SimTime::from_millis(1);
        assert!(mid < orch.committed_at, "the drain is still in flight");
        // A second drain conflicts and is deferred to the commit window's
        // end; a fill moves disjoint ownership and is granted.
        assert_eq!(
            m.admit(MigrationKind::ScaleIn, mid),
            Admission::Deferred {
                until: orch.committed_at,
                reason: "concurrent drain in flight",
            }
        );
        assert_eq!(m.admit(MigrationKind::ScaleOut, mid), Admission::Granted);
        // Once the window closes the job is pruned and drains flow again.
        assert_eq!(
            m.admit(MigrationKind::ScaleIn, orch.committed_at),
            Admission::Granted
        );
    }

    #[test]
    fn admission_defers_conflicting_fills() {
        let mut c = warmed_cluster();
        let mut m = Master::new(MigrationPolicy::elmem(), MigrationCosts::default(), 1);
        let now = SimTime::from_secs(10_000);
        let orch = m.scale_out(&mut c, 1, now).unwrap();
        let mid = now + SimTime::from_millis(1);
        assert!(mid < orch.committed_at);
        assert!(matches!(
            m.admit(MigrationKind::ScaleOut, mid),
            Admission::Deferred { .. }
        ));
        assert_eq!(m.admit(MigrationKind::ScaleIn, mid), Admission::Granted);
    }

    #[test]
    fn journaled_scalings_commit_into_the_journal() {
        let mut c = warmed_cluster();
        let mut m = Master::new(MigrationPolicy::elmem(), MigrationCosts::default(), 1);
        let now = SimTime::from_secs(10_000);
        m.scale_in(&mut c, 1, now).unwrap();
        let later = m.busy_until() + SimTime::from_secs(1);
        m.scale_out(&mut c, 1, later).unwrap();
        // Two jobs, two terminal Committed records, distinct ids.
        let committed: Vec<u64> = m
            .journal()
            .entries()
            .iter()
            .filter_map(|e| match e.record {
                crate::journal::JournalRecord::Committed { id, .. } => Some(id),
                _ => None,
            })
            .collect();
        assert_eq!(committed, vec![0, 1]);
        assert!(m.journal().replay(0).committed);
        assert!(m.journal().replay(1).committed);
    }

    #[test]
    fn naive_uses_random_victims_deterministically() {
        let mut c1 = warmed_cluster();
        let mut c2 = warmed_cluster();
        let mut m1 = Master::new(MigrationPolicy::Naive, MigrationCosts::default(), 9);
        let mut m2 = Master::new(MigrationPolicy::Naive, MigrationCosts::default(), 9);
        let now = SimTime::from_secs(10_000);
        let o1 = m1.scale_in(&mut c1, 1, now).unwrap();
        let o2 = m2.scale_in(&mut c2, 1, now).unwrap();
        assert_eq!(o1.nodes, o2.nodes, "same seed, same victims");
    }
}
