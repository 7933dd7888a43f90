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

use crate::healing::{HealingConfig, ReplacementPolicy};
use crate::journal::MigrationJournal;
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

/// The direction of a migration job, for conflict detection: two drains
/// contend for the same survivor capacity (as do two fills for the same
/// donor dumps), but a drain and a fill touch disjoint ownership — the
/// drain moves data *onto* the retained ring, the fill *off* it onto
/// nodes that are not yet members.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// A scale-in drain (retiring nodes push onto survivors).
    ScaleIn,
    /// A scale-out fill (members push onto not-yet-member nodes).
    ScaleOut,
    /// A healing warm-replacement fill (scale-out shaped).
    Recovery,
}

impl JobKind {
    /// Whether two jobs contend for the same ownership ranges.
    fn conflicts_with(self, other: JobKind) -> bool {
        self.is_drain() == other.is_drain()
    }

    fn is_drain(self) -> bool {
        matches!(self, JobKind::ScaleIn)
    }

    /// Healing runs its fill unjournaled: a warm replacement is already
    /// the recovery action for a failure, and stacking a Master-crash
    /// resume inside it buys nothing — a crashed-out warmup just re-runs
    /// (DESIGN.md §13). Scalings write the journal.
    fn is_journaled(self) -> bool {
        !matches!(self, JobKind::Recovery)
    }
}

/// One in-flight migration's state, tracked per job rather than as a
/// single global busy flag so non-conflicting operations can overlap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MigrationJob {
    /// The journal's job id.
    pub id: u64,
    /// Which direction the job moves data.
    pub kind: JobKind,
    /// The nodes being retired or added.
    pub nodes: Vec<NodeId>,
    /// When the job was admitted.
    pub started: SimTime,
    /// When its last deferred commit lands (the job is done after this).
    pub window_end: SimTime,
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
    /// The simulated durable WAL every journaled migration writes to
    /// (DESIGN.md §13).
    journal: MigrationJournal,
    /// In-flight (or not-yet-pruned) migration jobs.
    jobs: Vec<MigrationJob>,
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

    /// The migration journal (every journaled scaling's durable records).
    pub fn journal(&self) -> &MigrationJournal {
        &self.journal
    }

    /// Answers whether a `kind` scaling may start at `now`, per the
    /// overlap rules (DESIGN.md §13): a drain may overlap a fill (they
    /// move disjoint ownership ranges), but two drains — or two fills —
    /// contend and the later one is deferred until the earlier's commit
    /// window closes. Advisory: the driver asks before triggering; the
    /// scale paths themselves stay callable directly (tests, benches).
    pub fn admit(&mut self, kind: JobKind, now: SimTime) -> Admission {
        self.jobs.retain(|j| j.window_end > now);
        let until = self
            .jobs
            .iter()
            .filter(|j| j.kind.conflicts_with(kind))
            .map(|j| j.window_end)
            .max();
        match until {
            Some(until) => Admission::Deferred {
                until,
                reason: if kind.is_drain() {
                    "concurrent drain in flight"
                } else {
                    "concurrent fill in flight"
                },
            },
            None => Admission::Granted,
        }
    }

    /// Allocates the next journal job id.
    fn next_id(&mut self) -> u64 {
        let id = self.next_job_id;
        self.next_job_id += 1;
        id
    }

    /// Records a finished orchestration as a tracked job.
    fn track_job(
        &mut self,
        id: u64,
        kind: JobKind,
        nodes: &[NodeId],
        started: SimTime,
        window_end: SimTime,
    ) {
        self.jobs.push(MigrationJob {
            id,
            kind,
            nodes: nodes.to_vec(),
            started,
            window_end,
        });
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

    /// [`Master::scale_in`] under supervision: the ElMem migration runs
    /// with shipment-drop retries and crash-abort handling (the
    /// comparators have no supervised path and behave as usual).
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
                let id = self.next_id();
                let report = migrate(
                    &mut cluster.tier,
                    &MigrateJob::ScaleIn {
                        retiring: &victims,
                        import_mode: import,
                    },
                    now,
                    &self.costs,
                    supervision,
                    Some((&mut self.journal, id)),
                )?;
                let committed_at = report.completed;
                self.track_job(id, JobKind::ScaleIn, &victims, now, committed_at);
                // An abort falls back to committing the scaling without
                // further migration. The node whose crash caused it (source
                // or destination) leaves via eviction, never via
                // CommitRemove; a completed run has no such node and
                // removes every victim.
                let crashed = report.outcome.crashed_node();
                let survivors: Vec<NodeId> = victims
                    .iter()
                    .copied()
                    .filter(|v| Some(*v) != crashed)
                    .collect();
                let evict = crashed.map(|x| DeferredKind::EvictCrashed(vec![x]));
                let remove =
                    (!survivors.is_empty()).then_some(DeferredKind::CommitRemove(survivors));
                Orchestration {
                    deferred: plan_at(committed_at, evict.into_iter().chain(remove)),
                    nodes: victims,
                    report: Some(report),
                    committed_at,
                }
            }
            MigrationPolicy::Naive => {
                let mut pool = cluster.tier.membership().members().to_vec();
                let mut victims = Vec::with_capacity(count as usize);
                for _ in 0..count {
                    let i = self.rng.next_below(pool.len() as u64) as usize;
                    victims.push(pool.swap_remove(i));
                }
                victims.sort_unstable();
                let fraction = f64::from(members - count) / f64::from(members);
                let report = migrate(
                    &mut cluster.tier,
                    &MigrateJob::NaiveScaleIn {
                        retiring: &victims,
                        fraction,
                    },
                    now,
                    &self.costs,
                    &mut Supervision::none(),
                    None,
                )?;
                let committed_at = report.completed;
                Orchestration {
                    deferred: plan_at(committed_at, [DeferredKind::CommitRemove(victims.clone())]),
                    nodes: victims,
                    report: Some(report),
                    committed_at,
                }
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

    /// [`Master::scale_out`] under supervision: a freshly provisioned node
    /// that crashes before the membership flip is filtered out of
    /// [`DeferredKind::CommitAdd`] and evicted instead — the cluster never
    /// commits a dead node into the ring.
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
            MigrationPolicy::ElMem { .. } => {
                self.fill(cluster, JobKind::ScaleOut, ids, now, supervision, vec![])?
            }
            // The comparators add cold nodes immediately.
            _ => {
                cluster.tier.commit_add(&ids)?;
                Orchestration::immediate(ids, now)
            }
        };
        Ok(self.occupied_by(orch))
    }

    /// The one fill arm, shared by ElMem scale-out and warm recovery: every
    /// member ships what hashes to the not-yet-member `new_nodes`, the job
    /// is tracked, and the membership flip is deferred to the instant the
    /// fill completes. A new node that crashes before that instant is
    /// evicted instead of committed — the cluster never commits a dead node
    /// into the ring. `corpses` (crashed members recovery had to keep) leave
    /// once a live new node has joined, not before.
    ///
    /// A fill is not fault-supervised yet: of the caller's supervision only
    /// the Master-crash plan carries over (read by a journaled fill only),
    /// and its fault timeline is consulted after the fill, for the split.
    fn fill(
        &mut self,
        cluster: &mut Cluster,
        kind: JobKind,
        new_nodes: Vec<NodeId>,
        now: SimTime,
        supervision: &Supervision<'_>,
        corpses: Vec<NodeId>,
    ) -> Result<Orchestration, ElmemError> {
        let id = self.next_id();
        let mut master_only = Supervision::none();
        master_only.master = supervision.master.clone();
        let report = migrate(
            &mut cluster.tier,
            &MigrateJob::ScaleOut {
                new_nodes: &new_nodes,
            },
            now,
            &self.costs,
            &mut master_only,
            kind.is_journaled().then_some((&mut self.journal, id)),
        )?;
        let committed_at = report.completed;
        self.track_job(id, kind, &new_nodes, now, committed_at);
        let (crashed, alive): (Vec<NodeId>, Vec<NodeId>) = new_nodes
            .iter()
            .copied()
            .partition(|&n| supervision.crash_before(n, committed_at).is_some());
        let joined = !alive.is_empty();
        let steps = [
            (!crashed.is_empty()).then_some(DeferredKind::EvictCrashed(crashed)),
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
    /// Per [`HealingConfig::replacement`] the Master then admits one
    /// replacement per death: cold (committed immediately) or, with
    /// [`HealingConfig::warmup`], filled by a scale-out job — every
    /// survivor ships what hashes to the replacement; the job itself runs
    /// unsupervised and unjournaled — before the deferred
    /// [`DeferredKind::CommitAdd`]. Recovery runs regardless of
    /// the experiment's comparator policy: re-admitting capacity is the
    /// control plane's job, not the migration policy's.
    ///
    /// The returned [`Orchestration::nodes`] are the *replacements* (empty
    /// for evict-only). `supervision` is consulted only after the fill: a
    /// replacement that itself crashes before its commit is filtered into
    /// [`DeferredKind::EvictCrashed`], as in
    /// [`Master::scale_out_supervised`].
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
        let orch = if healing.replacement == ReplacementPolicy::None || dead.is_empty() {
            Orchestration::immediate(vec![], now)
        } else {
            let ids = cluster.tier.provision_nodes(dead.len());
            if healing.warmup {
                self.fill(cluster, JobKind::Recovery, ids, now, supervision, leftover)?
            } else {
                cluster.tier.commit_add(&ids)?;
                if !leftover.is_empty() {
                    let _ = cluster.tier.evict_crashed();
                }
                Orchestration::immediate(ids, now)
            }
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
        for (kind, new_crashes) in [
            (JobKind::ScaleOut, false),
            (JobKind::ScaleOut, true),
            (JobKind::Recovery, false),
            (JobKind::Recovery, true),
        ] {
            let mut c = warmed_cluster();
            let mut m = Master::new(MigrationPolicy::elmem(), MigrationCosts::default(), 1);
            // An all-dead tier has nothing to ship, so the recovery rows'
            // fill commits the instant it starts: the one "before the
            // commit" all rows share is just before `now`.
            let plan = match new_crashes {
                true => FaultPlan::new().crash(now - SimTime::from_nanos(1), new),
                false => FaultPlan::new(),
            };
            let mut inj = FaultInjector::new(plan, DetRng::seed(3).split("faults"));
            let mut sup = Supervision::with_faults(&mut inj);
            let orch = if kind == JobKind::Recovery {
                for &id in &original {
                    c.tier.crash(id).unwrap();
                }
                let healing = HealingConfig::warm_replacement();
                m.recover_supervised(&mut c, &[corpse], now, &healing, &mut sup)
            } else {
                m.scale_out_supervised(&mut c, 1, now, &mut sup)
            }
            .unwrap();
            assert_eq!(orch.nodes, vec![new], "{kind:?}");
            assert!(orch.report.is_some());
            assert_eq!(orch.committed_at > now, kind == JobKind::ScaleOut);

            let steps: Vec<&DeferredKind> = orch.deferred.iter().map(|d| &d.kind).collect();
            let expected = match (kind, new_crashes) {
                (_, true) => vec![DeferredKind::EvictCrashed(vec![new])],
                (JobKind::Recovery, false) => vec![
                    DeferredKind::CommitAdd(vec![new]),
                    DeferredKind::EvictCrashed(vec![corpse]),
                ],
                (_, false) => vec![DeferredKind::CommitAdd(vec![new])],
            };
            assert_eq!(steps, expected.iter().collect::<Vec<_>>(), "{kind:?}");
            assert!(orch.deferred.iter().all(|d| d.at == orch.committed_at));

            // Same tracking for both callers: the job defers a second
            // fill until its commit window closes. Only scalings journal.
            assert_eq!(
                m.admit(kind, SimTime::ZERO),
                Admission::Deferred {
                    until: orch.committed_at,
                    reason: "concurrent fill in flight"
                }
            );
            assert_eq!(m.busy_until(), orch.committed_at);
            assert_eq!(m.journal().entries().is_empty(), kind == JobKind::Recovery);

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
            let want: Vec<NodeId> = match (kind, new_crashes) {
                (JobKind::Recovery, true) => vec![corpse],
                (JobKind::Recovery, false) => vec![new],
                (_, true) => original.clone(),
                (_, false) => original.iter().copied().chain([new]).collect(),
            };
            assert_eq!(members, want, "{kind:?} crashes={new_crashes}");
        }
    }

    #[test]
    fn recover_cold_replacement_commits_immediately() {
        use crate::healing::HealingConfig;
        let mut c = warmed_cluster();
        let mut m = Master::new(MigrationPolicy::Baseline, MigrationCosts::default(), 1);
        let now = SimTime::from_secs(10_000);
        c.tier.crash(NodeId(1)).unwrap();
        let orch = m
            .recover_supervised(
                &mut c,
                &[NodeId(1)],
                now,
                &HealingConfig::cold_replacement(),
                &mut Supervision::none(),
            )
            .unwrap();
        assert_eq!(orch.committed_at, now);
        assert_eq!(c.tier.membership().len(), 4);
        assert!(c.tier.node(orch.nodes[0]).unwrap().store.is_empty(), "cold");
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
            m.admit(JobKind::ScaleIn, mid),
            Admission::Deferred {
                until: orch.committed_at,
                reason: "concurrent drain in flight",
            }
        );
        assert_eq!(m.admit(JobKind::ScaleOut, mid), Admission::Granted);
        // Once the window closes the job is pruned and drains flow again.
        assert_eq!(
            m.admit(JobKind::ScaleIn, orch.committed_at),
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
            m.admit(JobKind::ScaleOut, mid),
            Admission::Deferred { .. }
        ));
        // Recovery's warm replacement is fill-shaped: it conflicts too.
        assert!(matches!(
            m.admit(JobKind::Recovery, mid),
            Admission::Deferred { .. }
        ));
        assert_eq!(m.admit(JobKind::ScaleIn, mid), Admission::Granted);
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
