//! Failure detection and automatic recovery (the self-healing tier).
//!
//! The paper's Master assumes its Memcached VMs stay up; a real elastic
//! tier loses them. This module gives the Master a heartbeat *failure
//! detector* and a *recovery* policy:
//!
//! * [`FailureDetector`] probes every member every [`PROBE_INTERVAL`]
//!   (jittered from a dedicated `DetRng` stream, so runs stay
//!   bit-reproducible). A probe returns a [`ProbeOutcome`]: `Ack` from a
//!   healthy node, `Degraded` from a node behind a partitioned or badly
//!   slowed NIC (the simulated partition *queues* traffic rather than
//!   dropping it, so the ack arrives — late), and `Lost` only from a node
//!   that is actually gone (crashed or powered off).
//! * Suspicion is graded: consecutive non-acks make a node
//!   [`NodeState::Suspected`], but only a streak of `Lost` probes reaches
//!   [`NodeState::ConfirmedDead`]. A partitioned or slow-linked node flaps
//!   between `Alive` and `Suspected` and is **never** confirmed dead — the
//!   safety property the property tests pin down.
//! * On confirmation the driver asks the Master to recover
//!   ([`crate::Master::recover_supervised`]): evict the corpse from the
//!   membership and — when [`HealingConfig::replace`] is set — admit a
//!   replacement filled with the FuseCache-selected hottest items from the
//!   survivors before the membership flip, exactly like a supervised
//!   scale-out.
//!
//! Everything here is driven by the simulated clock; there is no
//! wall-clock time and no hidden randomness.

use std::collections::BTreeMap;

use elmem_cluster::Cluster;
pub use elmem_util::telemetry::ProbeOutcome;
use elmem_util::{DetRng, NodeId, SimTime};

/// Time between probe rounds.
pub const PROBE_INTERVAL: SimTime = SimTime::from_secs(1);

/// Round-trip budget for one probe; a reachable node whose link would
/// stretch the ack past this is counted as degraded, not dead.
pub const PROBE_TIMEOUT: SimTime = SimTime::from_millis(100);

/// Consecutive `Lost` probes before a node is confirmed dead (and
/// consecutive non-acks before it is suspected).
pub const SUSPICION_THRESHOLD: u32 = 3;

/// Maximum deterministic jitter added to each round's schedule (avoids
/// probes synchronizing with other periodic events).
pub const PROBE_JITTER: SimTime = SimTime::from_millis(50);

/// The detector's opinion of one member.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeState {
    /// Answering probes.
    Alive,
    /// Missing probes (degraded or lost) but not yet past the death
    /// threshold, or degraded-only (which can never pass it).
    Suspected,
    /// A full threshold of consecutive lost probes: the node is gone.
    ConfirmedDead,
}

#[derive(Debug, Clone, Copy)]
struct MemberTrack {
    state: NodeState,
    /// Consecutive probes that were not `Ack`.
    missed: u32,
    /// Consecutive probes that were `Lost` (subset of `missed`).
    lost: u32,
    /// When the current non-ack streak started.
    first_miss_at: SimTime,
}

impl MemberTrack {
    fn new() -> Self {
        MemberTrack {
            state: NodeState::Alive,
            missed: 0,
            lost: 0,
            first_miss_at: SimTime::ZERO,
        }
    }
}

/// A newly confirmed death, as reported by one probe round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConfirmedDeath {
    /// The dead member.
    pub node: NodeId,
    /// When its final non-ack streak began (first missed probe).
    pub suspected_at: SimTime,
    /// When the threshold was crossed (this probe round).
    pub confirmed_at: SimTime,
}

/// What one probe in a round saw and what it did to the detector's
/// opinion — returned to the driver so it can trace probe outcomes and
/// suspicion/death edges without holding a borrow on the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeObservation {
    /// The probed member.
    pub node: NodeId,
    /// What the probe saw.
    pub outcome: ProbeOutcome,
    /// The detector's opinion before this probe.
    pub before: NodeState,
    /// The detector's opinion after this probe.
    pub after: NodeState,
}

/// The Master's heartbeat failure detector.
///
/// Tracks every *member* of the client-visible ring; nodes that leave the
/// membership (scale-in, eviction) are forgotten and start fresh if they
/// ever rejoin.
#[derive(Debug)]
pub struct FailureDetector {
    rng: DetRng,
    tracks: BTreeMap<NodeId, MemberTrack>,
    probes_sent: u64,
}

impl FailureDetector {
    /// A detector with its own jitter stream (split from the experiment
    /// RNG as `"heartbeat"` by the driver).
    pub fn new(rng: DetRng) -> Self {
        FailureDetector {
            rng,
            tracks: BTreeMap::new(),
            probes_sent: 0,
        }
    }

    /// When the round after one at `now` should run: interval plus a
    /// deterministic jitter draw.
    pub fn next_round_after(&mut self, now: SimTime) -> SimTime {
        let jitter = PROBE_JITTER.mul_f64(self.rng.next_f64());
        now + PROBE_INTERVAL + jitter
    }

    /// What a probe of `node` observes at `now`. Pure: no state update.
    pub fn probe(&self, cluster: &Cluster, node: NodeId, now: SimTime) -> ProbeOutcome {
        let Ok(n) = cluster.tier.node(node) else {
            return ProbeOutcome::Lost;
        };
        if !n.is_online() {
            // Crashed or powered off: no NIC, no ack, ever.
            return ProbeOutcome::Lost;
        }
        if n.link.is_partitioned(now) {
            // The sim's partition queues traffic behind the heal instant:
            // the ack arrives, late. The node is wedged, not dead.
            return ProbeOutcome::Degraded;
        }
        // Round trip over a possibly degraded link vs the probe budget.
        let rtt = (n.link.latency() * 2).mul_f64(n.link.slowdown_factor());
        if rtt > PROBE_TIMEOUT {
            ProbeOutcome::Degraded
        } else {
            ProbeOutcome::Ack
        }
    }

    /// Probes every current member at `now` and returns the deaths this
    /// round confirmed, beside what every probe saw and how it moved the
    /// detector's opinion (for the event trace). Tracks for departed
    /// members are dropped.
    pub fn probe_round(
        &mut self,
        cluster: &Cluster,
        now: SimTime,
    ) -> (Vec<ConfirmedDeath>, Vec<ProbeObservation>) {
        let members = cluster.tier.membership().members().to_vec();
        self.tracks.retain(|id, _| members.contains(id));
        let mut confirmed = Vec::new();
        let mut observations = Vec::with_capacity(members.len());
        // Probed here, one member after another: a probe is a handful of
        // loads, and a whole round (5 µs at 100 members, 222 µs at 1 000)
        // costs less than forking it out (82 and 425 µs over 2 workers;
        // EXPERIMENTS.md E24).
        for &id in &members {
            let outcome = self.probe(cluster, id, now);
            self.probes_sent += 1;
            let track = self.tracks.entry(id).or_insert_with(MemberTrack::new);
            let before = track.state;
            match outcome {
                ProbeOutcome::Ack => {
                    track.missed = 0;
                    track.lost = 0;
                    track.state = NodeState::Alive;
                }
                ProbeOutcome::Degraded | ProbeOutcome::Lost => {
                    if track.missed == 0 {
                        track.first_miss_at = now;
                    }
                    track.missed += 1;
                    if outcome == ProbeOutcome::Lost {
                        track.lost += 1;
                    } else {
                        // A late ack proves the node is alive: the death
                        // streak restarts, only suspicion persists.
                        track.lost = 0;
                    }
                    if track.lost >= SUSPICION_THRESHOLD {
                        if track.state != NodeState::ConfirmedDead {
                            track.state = NodeState::ConfirmedDead;
                            confirmed.push(ConfirmedDeath {
                                node: id,
                                suspected_at: track.first_miss_at,
                                confirmed_at: now,
                            });
                        }
                    } else if track.missed >= SUSPICION_THRESHOLD {
                        track.state = NodeState::Suspected;
                    }
                }
            }
            observations.push(ProbeObservation {
                node: id,
                outcome,
                before,
                after: track.state,
            });
        }
        (confirmed, observations)
    }

    /// The detector's current opinion of a member (None if untracked).
    pub fn state(&self, node: NodeId) -> Option<NodeState> {
        self.tracks.get(&node).map(|t| t.state)
    }

    /// Total probes sent (a cost metric).
    pub fn probes_sent(&self) -> u64 {
        self.probes_sent
    }
}

/// Self-healing configuration: the recovery policy applied when the
/// detector confirms a death.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealingConfig {
    /// Admit one replacement per confirmed death, filled with
    /// FuseCache-selected hot items from the survivors before the
    /// membership flip (a supervised scale-out); `false` only evicts, and
    /// the tier shrinks by one per death.
    pub replace: bool,
}

impl HealingConfig {
    /// Detect and evict, no replacement: the tier shrinks on every death.
    pub fn evict_only() -> Self {
        HealingConfig { replace: false }
    }

    /// The full self-healing loop: detect, evict, and admit a replacement
    /// warmed via FuseCache before it joins the ring.
    pub fn warm_replacement() -> Self {
        HealingConfig { replace: true }
    }
}

/// One completed recovery, as recorded by the experiment driver.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryEvent {
    /// The node that died.
    pub node: NodeId,
    /// When the fault plan actually crashed it (None when the death came
    /// from something other than a scheduled crash).
    pub crashed_at: Option<SimTime>,
    /// When the detector first missed it.
    pub suspected_at: SimTime,
    /// When the detector confirmed the death.
    pub confirmed_at: SimTime,
    /// The replacement admitted for it, if the policy admits one.
    pub replacement: Option<NodeId>,
    /// When recovery finished: the eviction for evict-only, the
    /// replacement's membership commit otherwise.
    pub recovered_at: SimTime,
    /// Whether the replacement was warmed before the flip.
    pub warmed: bool,
}

impl RecoveryEvent {
    /// Crash-to-confirmation latency, when the crash time is known.
    pub fn detection_latency(&self) -> Option<SimTime> {
        self.crashed_at.map(|t| self.confirmed_at.saturating_sub(t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elmem_cluster::ClusterConfig;
    use elmem_workload::Keyspace;

    fn cluster() -> Cluster {
        Cluster::new(
            ClusterConfig::small_test(),
            Keyspace::new(10_000, 0),
            DetRng::seed(1),
        )
    }

    fn detector() -> FailureDetector {
        FailureDetector::new(DetRng::seed(2).split("heartbeat"))
    }

    #[test]
    fn healthy_members_stay_alive() {
        let c = cluster();
        let mut d = detector();
        for s in 0..10 {
            let (confirmed, observed) = d.probe_round(&c, SimTime::from_secs(s));
            assert!(confirmed.is_empty());
            assert!(observed
                .iter()
                .all(|o| o.before == NodeState::Alive && o.after == NodeState::Alive));
        }
        for &m in c.tier.membership().members() {
            assert_eq!(d.state(m), Some(NodeState::Alive));
        }
    }

    #[test]
    fn crash_is_confirmed_after_threshold_lost_probes() {
        let mut c = cluster();
        let mut d = detector();
        d.probe_round(&c, SimTime::from_secs(0));
        c.tier.crash(NodeId(1)).unwrap();
        let mut confirmed_at = None;
        for s in 1..=5 {
            let confirmed = d.probe_round(&c, SimTime::from_secs(s)).0;
            if let Some(death) = confirmed.first() {
                assert_eq!(death.node, NodeId(1));
                confirmed_at = Some(death.confirmed_at);
            }
        }
        // Threshold 3: rounds at 1,2,3 s miss; confirmation on round 3.
        assert_eq!(confirmed_at, Some(SimTime::from_secs(3)));
        assert_eq!(d.state(NodeId(1)), Some(NodeState::ConfirmedDead));
        // Confirmed once, not re-reported every round.
        assert!(d.probe_round(&c, SimTime::from_secs(6)).0.is_empty());
    }

    #[test]
    fn partition_suspects_but_never_confirms() {
        let mut c = cluster();
        let mut d = detector();
        c.tier
            .node_mut(NodeId(2))
            .unwrap()
            .link
            .partition_until(SimTime::from_secs(100));
        for s in 0..50 {
            let confirmed = d.probe_round(&c, SimTime::from_secs(s)).0;
            assert!(confirmed.is_empty(), "a partition must never confirm death");
        }
        assert_eq!(d.state(NodeId(2)), Some(NodeState::Suspected));
        // Heal: the node flaps back to alive.
        d.probe_round(&c, SimTime::from_secs(100));
        assert_eq!(d.state(NodeId(2)), Some(NodeState::Alive));
    }

    #[test]
    fn slow_link_within_budget_still_acks() {
        let mut c = cluster();
        let mut d = detector();
        // 2x slowdown: rtt 2 * 100 µs * 2 = 400 µs, well under 100 ms.
        c.tier.node_mut(NodeId(0)).unwrap().link.apply_slowdown(2.0);
        d.probe_round(&c, SimTime::from_secs(1));
        assert_eq!(d.state(NodeId(0)), Some(NodeState::Alive));
        // 1000x slowdown blows the budget: degraded, hence suspicion only.
        c.tier
            .node_mut(NodeId(0))
            .unwrap()
            .link
            .apply_slowdown(1000.0);
        for s in 2..10 {
            assert!(d.probe_round(&c, SimTime::from_secs(s)).0.is_empty());
        }
        assert_eq!(d.state(NodeId(0)), Some(NodeState::Suspected));
    }

    #[test]
    fn partition_before_crash_needs_a_fresh_lost_streak() {
        let mut c = cluster();
        let mut d = detector();
        // Long-suspected behind a partition: missed count is high...
        c.tier
            .node_mut(NodeId(3))
            .unwrap()
            .link
            .partition_until(SimTime::from_secs(100));
        for s in 0..10 {
            assert!(d.probe_round(&c, SimTime::from_secs(s)).0.is_empty());
        }
        assert_eq!(d.state(NodeId(3)), Some(NodeState::Suspected));
        // ...but when the node then actually dies, confirmation still
        // takes a full threshold of *lost* probes: degraded probes never
        // pre-paid the death streak.
        c.tier.crash(NodeId(3)).unwrap();
        assert!(d.probe_round(&c, SimTime::from_secs(10)).0.is_empty());
        assert!(d.probe_round(&c, SimTime::from_secs(11)).0.is_empty());
        let confirmed = d.probe_round(&c, SimTime::from_secs(12)).0;
        assert_eq!(confirmed.len(), 1);
        assert_eq!(confirmed[0].node, NodeId(3));
    }

    #[test]
    fn probe_round_observed_reports_outcomes_and_edges() {
        let mut c = cluster();
        let mut d = detector();
        c.tier.crash(NodeId(1)).unwrap();
        let (confirmed, obs) = d.probe_round(&c, SimTime::from_secs(1));
        assert!(confirmed.is_empty());
        assert_eq!(obs.len(), c.tier.membership().len());
        let dead = obs.iter().find(|o| o.node == NodeId(1)).unwrap();
        assert_eq!(dead.outcome, ProbeOutcome::Lost);
        assert_eq!(dead.after, NodeState::Alive, "one lost probe is not death");
        d.probe_round(&c, SimTime::from_secs(2));
        // The third lost probe crosses the threshold: the edge is visible
        // in the observation, not just in the confirmation list.
        let (confirmed, obs) = d.probe_round(&c, SimTime::from_secs(3));
        assert_eq!(confirmed.len(), 1);
        let dead = obs.iter().find(|o| o.node == NodeId(1)).unwrap();
        assert_ne!(dead.before, NodeState::ConfirmedDead);
        assert_eq!(dead.after, NodeState::ConfirmedDead);
        let alive = obs.iter().find(|o| o.node == NodeId(0)).unwrap();
        assert_eq!(alive.outcome, ProbeOutcome::Ack);
        assert_eq!(alive.before, alive.after);
    }

    #[test]
    fn departed_members_are_forgotten() {
        let mut c = cluster();
        let mut d = detector();
        c.tier.crash(NodeId(1)).unwrap();
        for s in 1..=3 {
            d.probe_round(&c, SimTime::from_secs(s));
        }
        assert_eq!(d.state(NodeId(1)), Some(NodeState::ConfirmedDead));
        // Evict: the track disappears with the membership entry.
        let evicted = c.tier.evict_crashed();
        assert_eq!(evicted, vec![NodeId(1)]);
        d.probe_round(&c, SimTime::from_secs(4));
        assert_eq!(d.state(NodeId(1)), None);
    }

    #[test]
    fn probe_schedule_is_jittered_and_deterministic() {
        let mut a = detector();
        let mut b = detector();
        let mut t_a = SimTime::ZERO;
        let mut t_b = SimTime::ZERO;
        for _ in 0..5 {
            t_a = a.next_round_after(t_a);
            t_b = b.next_round_after(t_b);
        }
        assert_eq!(t_a, t_b, "same seed, same schedule");
        assert!(t_a > SimTime::from_secs(5), "interval plus jitter");
        assert!(t_a < SimTime::from_secs(6), "jitter bounded");
    }
}
