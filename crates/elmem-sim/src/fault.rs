//! Deterministic fault injection.
//!
//! The paper's testbed never loses a VM mid-migration; a real elastic tier
//! does. This module lets an experiment script failures against the
//! simulated deployment — node crashes, NIC slowdowns and partitions, and
//! probabilistic drops of the migration control/data streams — while
//! keeping runs bit-reproducible: every probabilistic decision is drawn
//! from a [`DetRng`] stream owned by the [`FaultInjector`], so two runs
//! with the same seed and the same [`FaultPlan`] produce identical
//! timelines.
//!
//! The plan is *declarative* (times and kinds); the [`FaultInjector`]
//! turns it into ordered, atomic [`FaultAction`]s for the driver to apply
//! (`LinkSlowdown` expands into an apply/restore pair, for example) and
//! answers analytic queries such as [`FaultInjector::crash_time`], which
//! the migration supervisor uses to detect that a source or destination
//! dies inside a computed phase window.
//!
//! # Example
//!
//! ```
//! use elmem_sim::fault::{FaultAction, FaultInjector, FaultPlan};
//! use elmem_util::{DetRng, NodeId, SimTime};
//!
//! let plan = FaultPlan::new()
//!     .crash(SimTime::from_secs(30), NodeId(2))
//!     .slow_link(SimTime::from_secs(10), NodeId(1), 4.0, SimTime::from_secs(5));
//! let mut inj = FaultInjector::new(plan, DetRng::seed(7).split("faults"));
//! assert_eq!(inj.crash_time(NodeId(2)), Some(SimTime::from_secs(30)));
//! let due = inj.due(SimTime::from_secs(15));
//! // Slowdown applied at 10 s, restored at 15 s; the crash is still pending.
//! assert_eq!(due.len(), 2);
//! assert!(matches!(due[0].1, FaultAction::SlowLink(NodeId(1), _)));
//! assert!(matches!(due[1].1, FaultAction::RestoreLink(NodeId(1))));
//! ```

use crate::network::valid_slowdown;
use elmem_util::json::JsonValue;
use elmem_util::{DetRng, NodeId, SimTime};

/// One scheduled failure in a [`FaultPlan`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The node loses power at the scheduled time: its DRAM contents are
    /// gone, and every request routed to it misses until the membership
    /// excludes it.
    NodeCrash {
        /// The crashing node.
        node: NodeId,
    },
    /// The node's NIC degrades to `1/factor` of its bandwidth for
    /// `duration` (a congested or flapping uplink).
    LinkSlowdown {
        /// The affected node.
        node: NodeId,
        /// Bandwidth divisor (≥ 1).
        factor: f64,
        /// How long the slowdown lasts.
        duration: SimTime,
    },
    /// The node's NIC passes no traffic for `duration`; transfers queued
    /// meanwhile start only after the partition heals.
    LinkPartition {
        /// The affected node.
        node: NodeId,
        /// How long the partition lasts.
        duration: SimTime,
    },
}

/// A [`FaultKind`] pinned to its injection time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduledFault {
    /// When the fault strikes.
    pub at: SimTime,
    /// What happens.
    pub kind: FaultKind,
}

/// A declarative failure schedule for one experiment.
///
/// Built fluently; an empty plan (the default) injects nothing, so every
/// existing experiment runs unchanged.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    scheduled: Vec<ScheduledFault>,
    /// Probability that one source's metadata shipment (migration phase 1)
    /// is dropped in transit and must be retried.
    pub metadata_drop_prob: f64,
    /// Probability that one source's data shipment (migration phase 3) is
    /// dropped in transit and must be retried.
    pub transfer_drop_prob: f64,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Whether the plan injects nothing at all.
    pub fn is_empty(&self) -> bool {
        self.scheduled.is_empty()
            && self.metadata_drop_prob == 0.0
            && self.transfer_drop_prob == 0.0
    }

    /// The scheduled faults, in insertion order.
    pub fn scheduled(&self) -> &[ScheduledFault] {
        &self.scheduled
    }

    /// Schedules a node crash.
    pub fn crash(mut self, at: SimTime, node: NodeId) -> Self {
        self.scheduled.push(ScheduledFault {
            at,
            kind: FaultKind::NodeCrash { node },
        });
        self
    }

    /// Schedules a NIC slowdown (`factor` ≥ 1 divides the bandwidth).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is below 1, NaN or infinite.
    pub fn slow_link(mut self, at: SimTime, node: NodeId, factor: f64, duration: SimTime) -> Self {
        assert!(valid_slowdown(factor), "invalid slowdown factor {factor}");
        self.scheduled.push(ScheduledFault {
            at,
            kind: FaultKind::LinkSlowdown {
                node,
                factor,
                duration,
            },
        });
        self
    }

    /// Schedules a NIC partition.
    pub fn partition(mut self, at: SimTime, node: NodeId, duration: SimTime) -> Self {
        self.scheduled.push(ScheduledFault {
            at,
            kind: FaultKind::LinkPartition { node, duration },
        });
        self
    }

    /// Sets the phase-1 metadata-shipment drop probability.
    pub fn drop_metadata_with_prob(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.metadata_drop_prob = p;
        self
    }

    /// Sets the phase-3 data-shipment drop probability.
    pub fn drop_transfers_with_prob(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.transfer_drop_prob = p;
        self
    }

    /// Rebuilds a plan from its parts (the chaos shrinker edits schedules
    /// wholesale rather than through the fluent builders).
    ///
    /// # Panics
    ///
    /// Panics if either probability is outside `[0, 1]` or a scheduled
    /// slowdown's factor is below 1, NaN or infinite.
    pub fn from_parts(
        scheduled: Vec<ScheduledFault>,
        metadata_drop_prob: f64,
        transfer_drop_prob: f64,
    ) -> Self {
        assert!(
            (0.0..=1.0).contains(&metadata_drop_prob),
            "probability out of range"
        );
        assert!(
            (0.0..=1.0).contains(&transfer_drop_prob),
            "probability out of range"
        );
        for fault in &scheduled {
            if let FaultKind::LinkSlowdown { factor, .. } = fault.kind {
                assert!(valid_slowdown(factor), "invalid slowdown factor {factor}");
            }
        }
        FaultPlan {
            scheduled,
            metadata_drop_prob,
            transfer_drop_prob,
        }
    }

    /// Appends the plan's canonical JSON encoding to `out`.
    ///
    /// The encoding is byte-stable: field order is fixed, times are integer
    /// nanoseconds, and floats use Rust's shortest-round-trip formatting,
    /// so parse → reserialize reproduces the input byte for byte.
    pub fn write_json(&self, out: &mut String) {
        use std::fmt::Write;
        let _ = write!(
            out,
            "{{\"metadata_drop_prob\":{},\"transfer_drop_prob\":{},\"scheduled\":[",
            self.metadata_drop_prob, self.transfer_drop_prob
        );
        for (i, fault) in self.scheduled.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"at_ns\":{}", fault.at.as_nanos());
            match fault.kind {
                FaultKind::NodeCrash { node } => {
                    let _ = write!(out, ",\"kind\":\"crash\",\"node\":{}", node.0);
                }
                FaultKind::LinkSlowdown {
                    node,
                    factor,
                    duration,
                } => {
                    let _ = write!(
                        out,
                        ",\"kind\":\"slow_link\",\"node\":{},\"factor\":{},\"duration_ns\":{}",
                        node.0,
                        factor,
                        duration.as_nanos()
                    );
                }
                FaultKind::LinkPartition { node, duration } => {
                    let _ = write!(
                        out,
                        ",\"kind\":\"partition\",\"node\":{},\"duration_ns\":{}",
                        node.0,
                        duration.as_nanos()
                    );
                }
            }
            out.push('}');
        }
        out.push_str("]}");
    }

    /// The plan's canonical JSON encoding.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    /// Reconstructs a plan from a value produced by [`Self::write_json`].
    ///
    /// # Errors
    ///
    /// A message naming the missing or malformed field.
    pub fn from_json(value: &JsonValue) -> Result<FaultPlan, String> {
        let prob = |key: &str| -> Result<f64, String> {
            let p = value
                .get(key)
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("fault plan missing '{key}'"))?;
            if (0.0..=1.0).contains(&p) {
                Ok(p)
            } else {
                Err(format!("'{key}' out of range: {p}"))
            }
        };
        let metadata_drop_prob = prob("metadata_drop_prob")?;
        let transfer_drop_prob = prob("transfer_drop_prob")?;
        let entries = value
            .get("scheduled")
            .and_then(JsonValue::as_array)
            .ok_or("fault plan missing 'scheduled'")?;
        fn field<T: TryFrom<u64>>(entry: &JsonValue, key: &str) -> Result<T, String> {
            entry
                .get(key)
                .and_then(JsonValue::as_uint)
                .ok_or_else(|| format!("scheduled fault '{key}' missing or out of range"))
        }
        let mut scheduled = Vec::with_capacity(entries.len());
        for entry in entries {
            let at = SimTime::from_nanos(field(entry, "at_ns")?);
            let node = NodeId(field(entry, "node")?);
            let kind = match entry.get("kind").and_then(JsonValue::as_str) {
                Some("crash") => FaultKind::NodeCrash { node },
                Some("slow_link") => {
                    let factor = entry
                        .get("factor")
                        .and_then(JsonValue::as_f64)
                        .ok_or("scheduled fault missing 'factor'")?;
                    if !valid_slowdown(factor) {
                        return Err(format!("invalid slowdown factor {factor}"));
                    }
                    FaultKind::LinkSlowdown {
                        node,
                        factor,
                        duration: SimTime::from_nanos(field(entry, "duration_ns")?),
                    }
                }
                Some("partition") => FaultKind::LinkPartition {
                    node,
                    duration: SimTime::from_nanos(field(entry, "duration_ns")?),
                },
                other => return Err(format!("unknown fault kind {other:?}")),
            };
            scheduled.push(ScheduledFault { at, kind });
        }
        Ok(FaultPlan {
            scheduled,
            metadata_drop_prob,
            transfer_drop_prob,
        })
    }
}

/// An atomic state change the driver applies to the tier at a given time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultAction {
    /// Power the node off, losing its contents.
    Crash(NodeId),
    /// Divide the node's NIC bandwidth by the factor.
    SlowLink(NodeId, f64),
    /// Restore the node's NIC to its base bandwidth.
    RestoreLink(NodeId),
    /// Block the node's NIC until the instant.
    PartitionLink(NodeId, SimTime),
}

/// Replays a [`FaultPlan`] deterministically.
///
/// Durationed faults are expanded into apply/restore action pairs at
/// construction, sorted by time (ties broken by plan order), and handed
/// out by [`due`](FaultInjector::due) as simulated time advances.
/// Probabilistic message drops are sampled from the injector's own
/// [`DetRng`] stream in call order, which the supervised migration fixes
/// deterministically.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    actions: Vec<(SimTime, FaultAction)>,
    cursor: usize,
    metadata_drop_prob: f64,
    transfer_drop_prob: f64,
    rng: DetRng,
}

impl FaultInjector {
    /// Compiles `plan` into an injector drawing randomness from `rng`.
    pub fn new(plan: FaultPlan, rng: DetRng) -> Self {
        let mut actions: Vec<(SimTime, FaultAction)> = Vec::new();
        for fault in &plan.scheduled {
            match fault.kind {
                FaultKind::NodeCrash { node } => {
                    actions.push((fault.at, FaultAction::Crash(node)));
                }
                FaultKind::LinkSlowdown {
                    node,
                    factor,
                    duration,
                } => {
                    assert!(valid_slowdown(factor), "invalid slowdown factor");
                    actions.push((fault.at, FaultAction::SlowLink(node, factor)));
                    actions.push((fault.at + duration, FaultAction::RestoreLink(node)));
                }
                FaultKind::LinkPartition { node, duration } => {
                    actions.push((
                        fault.at,
                        FaultAction::PartitionLink(node, fault.at + duration),
                    ));
                }
            }
        }
        // Stable sort: simultaneous faults keep their plan order.
        actions.sort_by_key(|(at, _)| *at);
        FaultInjector {
            actions,
            cursor: 0,
            metadata_drop_prob: plan.metadata_drop_prob,
            transfer_drop_prob: plan.transfer_drop_prob,
            rng,
        }
    }

    /// Actions whose time has come (at ≤ `now`), in order; each is
    /// returned exactly once.
    pub fn due(&mut self, now: SimTime) -> Vec<(SimTime, FaultAction)> {
        let start = self.cursor;
        while self.cursor < self.actions.len() && self.actions[self.cursor].0 <= now {
            self.cursor += 1;
        }
        self.actions[start..self.cursor].to_vec()
    }

    /// When `node` is scheduled to crash, if ever. Pure query — does not
    /// consume the action; the migration supervisor peeks at this to
    /// detect crashes landing inside computed phase windows while the
    /// driver still applies the crash at its scheduled time.
    pub fn crash_time(&self, node: NodeId) -> Option<SimTime> {
        self.actions.iter().find_map(|(at, action)| match action {
            FaultAction::Crash(n) if *n == node => Some(*at),
            _ => None,
        })
    }

    /// Time of the next pending action, if any (the driver merges fault
    /// application with its control events in time order).
    pub fn peek_time(&self) -> Option<SimTime> {
        self.actions.get(self.cursor).map(|(at, _)| *at)
    }

    /// Samples whether one phase-1 metadata shipment is dropped.
    pub fn sample_metadata_drop(&mut self) -> bool {
        self.metadata_drop_prob > 0.0 && self.rng.next_f64() < self.metadata_drop_prob
    }

    /// Samples whether one phase-3 data shipment is dropped.
    pub fn sample_transfer_drop(&mut self) -> bool {
        self.transfer_drop_prob > 0.0 && self.rng.next_f64() < self.transfer_drop_prob
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn empty_plan_is_inert() {
        let plan = FaultPlan::new();
        assert!(plan.is_empty());
        let mut inj = FaultInjector::new(plan, DetRng::seed(1));
        assert!(inj.due(secs(1_000_000)).is_empty());
        assert_eq!(inj.peek_time(), None);
        assert!(!inj.sample_metadata_drop());
        assert!(!inj.sample_transfer_drop());
    }

    #[test]
    fn due_returns_each_action_once_in_order() {
        let plan = FaultPlan::new()
            .crash(secs(20), NodeId(3))
            .crash(secs(10), NodeId(1));
        let mut inj = FaultInjector::new(plan, DetRng::seed(1));
        let first = inj.due(secs(15));
        assert_eq!(first, vec![(secs(10), FaultAction::Crash(NodeId(1)))]);
        assert!(inj.due(secs(15)).is_empty(), "not re-delivered");
        let second = inj.due(secs(100));
        assert_eq!(second, vec![(secs(20), FaultAction::Crash(NodeId(3)))]);
        assert_eq!(inj.peek_time(), None);
    }

    #[test]
    fn slowdown_expands_to_apply_restore_pair() {
        let plan = FaultPlan::new().slow_link(secs(5), NodeId(0), 2.0, secs(3));
        let mut inj = FaultInjector::new(plan, DetRng::seed(1));
        let due = inj.due(secs(100));
        assert_eq!(
            due,
            vec![
                (secs(5), FaultAction::SlowLink(NodeId(0), 2.0)),
                (secs(8), FaultAction::RestoreLink(NodeId(0))),
            ]
        );
    }

    #[test]
    fn partition_carries_heal_time() {
        let plan = FaultPlan::new().partition(secs(4), NodeId(2), secs(6));
        let mut inj = FaultInjector::new(plan, DetRng::seed(1));
        assert_eq!(
            inj.due(secs(4)),
            vec![(secs(4), FaultAction::PartitionLink(NodeId(2), secs(10)))]
        );
    }

    #[test]
    fn crash_time_peeks_without_consuming() {
        let plan = FaultPlan::new().crash(secs(42), NodeId(7));
        let mut inj = FaultInjector::new(plan, DetRng::seed(1));
        assert_eq!(inj.crash_time(NodeId(7)), Some(secs(42)));
        assert_eq!(inj.crash_time(NodeId(8)), None);
        // Peeking did not consume the action.
        assert_eq!(inj.due(secs(50)).len(), 1);
    }

    #[test]
    fn drop_sampling_is_deterministic_per_seed() {
        let plan = || FaultPlan::new().drop_transfers_with_prob(0.5);
        let mut a = FaultInjector::new(plan(), DetRng::seed(9));
        let mut b = FaultInjector::new(plan(), DetRng::seed(9));
        let sa: Vec<bool> = (0..64).map(|_| a.sample_transfer_drop()).collect();
        let sb: Vec<bool> = (0..64).map(|_| b.sample_transfer_drop()).collect();
        assert_eq!(sa, sb);
        assert!(sa.iter().any(|&d| d) && sa.iter().any(|&d| !d));
    }

    #[test]
    #[should_panic(expected = "invalid slowdown factor")]
    fn slowdown_factor_below_one_rejected() {
        let _ = FaultPlan::new().slow_link(secs(1), NodeId(0), 0.5, secs(1));
    }

    #[test]
    fn from_parts_rejects_what_slow_link_rejects() {
        for factor in [0.5, 0.0, -2.0, f64::NAN, f64::INFINITY] {
            let fault = ScheduledFault {
                at: secs(1),
                kind: FaultKind::LinkSlowdown {
                    node: NodeId(0),
                    factor,
                    duration: secs(1),
                },
            };
            let built = std::panic::catch_unwind(|| FaultPlan::from_parts(vec![fault], 0.0, 0.0));
            assert!(built.is_err(), "factor {factor} must be refused");
        }
    }

    #[test]
    #[should_panic]
    fn drop_probability_out_of_range_rejected() {
        let _ = FaultPlan::new().drop_metadata_with_prob(1.5);
    }

    #[test]
    fn json_round_trip_is_byte_identical() {
        let plan = FaultPlan::new()
            .crash(secs(30), NodeId(2))
            .slow_link(secs(10), NodeId(1), 4.0, secs(5))
            .partition(SimTime::from_millis(1500), NodeId(0), secs(6))
            .drop_metadata_with_prob(0.25)
            .drop_transfers_with_prob(0.1);
        let json = plan.to_json();
        let parsed = FaultPlan::from_json(&JsonValue::parse(&json).unwrap()).unwrap();
        assert_eq!(parsed, plan);
        assert_eq!(parsed.to_json(), json, "reserialization is byte-identical");
    }

    #[test]
    fn json_rejects_malformed_plans() {
        let bad = |s: &str| FaultPlan::from_json(&JsonValue::parse(s).unwrap()).is_err();
        assert!(bad("{}"));
        assert!(bad(
            "{\"metadata_drop_prob\":2.0,\"transfer_drop_prob\":0,\"scheduled\":[]}"
        ));
        assert!(bad(concat!(
            "{\"metadata_drop_prob\":0,\"transfer_drop_prob\":0,",
            "\"scheduled\":[{\"at_ns\":1,\"kind\":\"melt\",\"node\":0}]}"
        )));
        assert!(bad(concat!(
            "{\"metadata_drop_prob\":0,\"transfer_drop_prob\":0,\"scheduled\":",
            "[{\"at_ns\":1,\"kind\":\"slow_link\",\"node\":0,\"factor\":0.5,\"duration_ns\":1}]}"
        )));
    }

    #[test]
    fn json_refuses_a_node_id_past_u32() {
        // Truncated, this would be node 1.
        let wide = concat!(
            "{\"metadata_drop_prob\":0,\"transfer_drop_prob\":0,",
            "\"scheduled\":[{\"at_ns\":1,\"kind\":\"crash\",\"node\":4294967297}]}"
        );
        let err = FaultPlan::from_json(&JsonValue::parse(wide).unwrap()).unwrap_err();
        assert!(err.contains("'node'"), "{err}");
    }
}
