//! Deterministic chaos schedules: seeded generation and failing-schedule
//! shrinking.
//!
//! A [`ChaosPlan`] bundles everything one adversarial experiment needs —
//! tier shape, workload size, a [`FaultPlan`] drawn from the existing fault
//! vocabulary, and a schedule of concurrent scaling actions — all derived
//! from a single seed. The driver (in `elmem-core`) turns a plan into an
//! experiment and checks the integrity invariants; this module stays
//! dependency-free so plans can be generated, serialized, and shrunk
//! without pulling in the control plane.
//!
//! Two runs of [`ChaosPlan::generate`] with the same seed produce the same
//! plan, two runs of the same plan produce the same simulation (DESIGN.md
//! §12), and [`shrink`] is a greedy deterministic fixpoint — so a failing
//! seed minimizes to the *same* smallest plan on every machine and at any
//! worker count.
//!
//! # Example
//!
//! ```
//! use elmem_sim::chaos::ChaosPlan;
//!
//! let plan = ChaosPlan::generate(7);
//! assert_eq!(plan, ChaosPlan::generate(7));
//! let json = plan.to_json();
//! let back = ChaosPlan::parse_json(&json).unwrap();
//! assert_eq!(back, plan);
//! assert_eq!(back.to_json(), json);
//! ```

use std::fmt::Write;

use elmem_util::json::JsonValue;
use elmem_util::{DetRng, NodeId, SimTime};

use crate::fault::{FaultKind, FaultPlan, ScheduledFault};

/// One scaling decision in a chaos schedule.
///
/// Counts are requests, not guarantees: the driver clamps them against the
/// live membership at execution time, exactly as an operator's request
/// would be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosAction {
    /// Retire this many nodes (ElMem 3-phase migration off the victims).
    ScaleIn {
        /// Requested number of nodes to remove.
        count: u32,
    },
    /// Provision this many new nodes (warm-up migration onto them).
    ScaleOut {
        /// Requested number of nodes to add.
        count: u32,
    },
}

/// A [`ChaosAction`] pinned to its decision time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledChaosAction {
    /// When the Master is asked to act.
    pub at: SimTime,
    /// What is requested.
    pub action: ChaosAction,
}

/// A complete seeded chaos schedule.
///
/// Every field that shapes the run is explicit so a serialized plan replays
/// byte-identically even if the generator's sampling changes later.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosPlan {
    /// Seed for every RNG stream of the run (workload, faults, latencies).
    pub seed: u64,
    /// Initial tier size.
    pub nodes: u32,
    /// Keyspace size.
    pub keys: u64,
    /// Simulated run length.
    pub duration_secs: u64,
    /// Whether the self-healing pipeline (detector + recovery) is active.
    pub healing: bool,
    /// Whether the reactive autoscaler may issue its own decisions on top
    /// of the scripted ones.
    pub autoscaler: bool,
    /// The fault schedule.
    pub faults: FaultPlan,
    /// Scripted scaling actions, in generation order.
    pub actions: Vec<ScheduledChaosAction>,
    /// Scheduled Master crash instants. Each lands shortly after some
    /// scripted action so it interrupts the migration that action
    /// triggered; the Master restarts and resumes from its journal.
    pub master_crashes: Vec<SimTime>,
}

// Bounds for `ChaosPlan::generate`'s sampling, all inclusive.
const MIN_NODES: u32 = 4;
const MAX_NODES: u32 = 8;
const MIN_KEYS: u64 = 6_000;
const MAX_KEYS: u64 = 20_000;
const MIN_DURATION_SECS: u64 = 60;
const MAX_DURATION_SECS: u64 = 150;
/// Most scheduled faults per plan.
const MAX_FAULTS: usize = 4;
/// Most scripted scaling actions per plan.
const MAX_ACTIONS: usize = 3;
/// Most scheduled Master crashes per plan.
const MAX_MASTER_CRASHES: usize = 2;

impl ChaosPlan {
    /// Generates the plan for `seed`.
    ///
    /// Deterministic: the plan is a pure function of `seed`. The sampler
    /// keeps at least two nodes crash-free so the tier always has a
    /// survivor to serve from and a recovery quorum to heal toward.
    pub fn generate(seed: u64) -> ChaosPlan {
        let mut rng = DetRng::seed(seed).split("chaos-gen");
        let nodes = MIN_NODES + rng.next_below(u64::from(MAX_NODES - MIN_NODES) + 1) as u32;
        let keys = MIN_KEYS + rng.next_below(MAX_KEYS - MIN_KEYS + 1);
        let duration_secs =
            MIN_DURATION_SECS + rng.next_below(MAX_DURATION_SECS - MIN_DURATION_SECS + 1);
        let healing = rng.next_below(2) == 1;
        let autoscaler = rng.next_below(4) == 0;

        // Faults land in the middle of the run so migrations and recoveries
        // they trigger still fit before the drain window.
        let fault_window = duration_secs.saturating_sub(30).max(1);
        let n_faults = rng.next_below(MAX_FAULTS as u64 + 1) as usize;
        let mut plan = FaultPlan::new();
        let mut crashed: Vec<u32> = Vec::new();
        // Keep at least two nodes unscathed: one to serve, one to heal from.
        let crash_budget = nodes.saturating_sub(2);
        for _ in 0..n_faults {
            let at = SimTime::from_secs(10 + rng.next_below(fault_window));
            let node = NodeId(rng.next_below(u64::from(nodes)) as u32);
            let kind = rng.next_below(3);
            let wants_crash = kind == 0;
            if wants_crash && !crashed.contains(&node.0) && (crashed.len() as u32) < crash_budget {
                crashed.push(node.0);
                plan = plan.crash(at, node);
            } else if kind <= 1 {
                // Flapping or congested uplink.
                let factor = 2.0 + rng.next_f64() * 6.0;
                let duration = SimTime::from_secs(2 + rng.next_below(15));
                plan = plan.slow_link(at, node, factor, duration);
            } else {
                let duration = SimTime::from_secs(2 + rng.next_below(12));
                plan = plan.partition(at, node, duration);
            }
        }
        if rng.next_below(3) == 0 {
            plan = plan.drop_metadata_with_prob(rng.next_below(25) as f64 / 100.0);
        }
        if rng.next_below(3) == 0 {
            plan = plan.drop_transfers_with_prob(rng.next_below(30) as f64 / 100.0);
        }

        // Scripted scalings overlap the fault window on purpose.
        let action_window = duration_secs.saturating_sub(40).max(1);
        let n_actions = 1 + rng.next_below(MAX_ACTIONS as u64) as usize;
        let mut actions = Vec::with_capacity(n_actions);
        for _ in 0..n_actions {
            let at = SimTime::from_secs(5 + rng.next_below(action_window));
            let count = 1 + rng.next_below(2) as u32;
            let action = if rng.next_below(2) == 0 {
                ChaosAction::ScaleIn { count }
            } else {
                ChaosAction::ScaleOut { count }
            };
            actions.push(ScheduledChaosAction { at, action });
        }

        // Master crashes land shortly after some scripted action's decision
        // time, so they tend to interrupt the migration it triggered and
        // exercise the journal's restart-and-resume path.
        let n_crashes = rng.next_below(MAX_MASTER_CRASHES as u64 + 1) as usize;
        let mut master_crashes = Vec::with_capacity(n_crashes);
        for _ in 0..n_crashes {
            let idx = rng.next_below(actions.len() as u64) as usize;
            let offset = SimTime::from_millis(500 + rng.next_below(30_000));
            master_crashes.push(actions[idx].at + offset);
        }

        ChaosPlan {
            seed,
            nodes,
            keys,
            duration_secs,
            healing,
            autoscaler,
            faults: plan,
            actions,
            master_crashes,
        }
    }

    /// A rough size measure used to report shrink progress: scheduled
    /// faults + actions + active knobs.
    pub fn weight(&self) -> usize {
        self.faults.scheduled().len()
            + self.actions.len()
            + self.master_crashes.len()
            + usize::from(self.faults.metadata_drop_prob > 0.0)
            + usize::from(self.faults.transfer_drop_prob > 0.0)
            + usize::from(self.healing)
            + usize::from(self.autoscaler)
    }

    /// Appends the plan's canonical JSON encoding to `out`.
    ///
    /// Byte-stable for the same reasons as [`FaultPlan::write_json`].
    pub fn write_json(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"seed\":{},\"nodes\":{},\"keys\":{},\"duration_secs\":{},\"healing\":{},\"autoscaler\":{},\"faults\":",
            self.seed, self.nodes, self.keys, self.duration_secs, self.healing, self.autoscaler
        );
        self.faults.write_json(out);
        out.push_str(",\"actions\":[");
        for (i, scheduled) in self.actions.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let (kind, count) = match scheduled.action {
                ChaosAction::ScaleIn { count } => ("scale_in", count),
                ChaosAction::ScaleOut { count } => ("scale_out", count),
            };
            let _ = write!(
                out,
                "{{\"at_ns\":{},\"kind\":\"{kind}\",\"count\":{count}}}",
                scheduled.at.as_nanos()
            );
        }
        out.push_str("],\"master_crashes\":[");
        for (i, at) in self.master_crashes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}", at.as_nanos());
        }
        out.push_str("]}");
    }

    /// The plan's canonical JSON encoding.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    /// Reconstructs a plan from a parsed JSON value.
    ///
    /// # Errors
    ///
    /// A message naming the missing or malformed field.
    pub fn from_json(value: &JsonValue) -> Result<ChaosPlan, String> {
        fn field<T: TryFrom<u64>>(obj: &JsonValue, key: &str) -> Result<T, String> {
            obj.get(key)
                .and_then(JsonValue::as_uint)
                .ok_or_else(|| format!("chaos plan '{key}' missing or out of range"))
        }
        let field_bool = |key: &str| -> Result<bool, String> {
            value
                .get(key)
                .and_then(JsonValue::as_bool)
                .ok_or_else(|| format!("chaos plan missing '{key}'"))
        };
        let faults =
            FaultPlan::from_json(value.get("faults").ok_or("chaos plan missing 'faults'")?)?;
        let entries = value
            .get("actions")
            .and_then(JsonValue::as_array)
            .ok_or("chaos plan missing 'actions'")?;
        let mut actions = Vec::with_capacity(entries.len());
        for entry in entries {
            let at = SimTime::from_nanos(field(entry, "at_ns")?);
            let count = field(entry, "count")?;
            let action = match entry.get("kind").and_then(JsonValue::as_str) {
                Some("scale_in") => ChaosAction::ScaleIn { count },
                Some("scale_out") => ChaosAction::ScaleOut { count },
                other => return Err(format!("unknown chaos action kind {other:?}")),
            };
            actions.push(ScheduledChaosAction { at, action });
        }
        // Absent in plans serialized before the journal existed: an old
        // committed reproduction still parses (and crashes no Master).
        let master_crashes = match value.get("master_crashes").and_then(JsonValue::as_array) {
            Some(entries) => entries
                .iter()
                .map(|entry| {
                    entry
                        .as_u64()
                        .map(SimTime::from_nanos)
                        .ok_or_else(|| "malformed 'master_crashes' entry".to_string())
                })
                .collect::<Result<Vec<SimTime>, String>>()?,
            None => Vec::new(),
        };
        Ok(ChaosPlan {
            seed: field(value, "seed")?,
            nodes: field(value, "nodes")?,
            keys: field(value, "keys")?,
            duration_secs: field(value, "duration_secs")?,
            healing: field_bool("healing")?,
            autoscaler: field_bool("autoscaler")?,
            faults,
            actions,
            master_crashes,
        })
    }

    /// Convenience: parse a JSON document straight into a plan.
    ///
    /// # Errors
    ///
    /// Propagates JSON syntax errors and schema mismatches.
    pub fn parse_json(text: &str) -> Result<ChaosPlan, String> {
        ChaosPlan::from_json(&JsonValue::parse(text)?)
    }
}

/// Minimizes a failing chaos plan.
///
/// `still_failing` must return `true` when the candidate plan still
/// reproduces the failure. The shrinker walks a fixed list of candidate
/// edits — drop one fault, drop one action, zero a drop probability,
/// disable healing or the autoscaler, halve a fault duration, halve the
/// run length, remove a node, halve the keyspace — accepting the first
/// edit that keeps the plan failing and restarting from the top, until a
/// full pass accepts nothing (a greedy delta-debugging fixpoint).
///
/// Every accepted edit strictly shrinks the plan under a well-founded
/// measure, so the loop terminates; and because the candidate order is
/// fixed and `still_failing` is expected to be deterministic (it replays
/// the simulation), the minimized plan is the same on every run.
pub fn shrink<F>(plan: &ChaosPlan, mut still_failing: F) -> ChaosPlan
where
    F: FnMut(&ChaosPlan) -> bool,
{
    let mut current = plan.clone();
    loop {
        let mut accepted = false;
        for candidate in candidates(&current) {
            if still_failing(&candidate) {
                current = candidate;
                accepted = true;
                break;
            }
        }
        if !accepted {
            return current;
        }
    }
}

/// The ordered candidate edits for one shrink step. Structural removals
/// come before parameter reductions so the minimized plan is small before
/// it is short.
fn candidates(plan: &ChaosPlan) -> Vec<ChaosPlan> {
    let mut out = Vec::new();
    let scheduled = plan.faults.scheduled();

    // 1. Drop one scheduled fault.
    for drop_at in 0..scheduled.len() {
        let kept: Vec<ScheduledFault> = scheduled
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != drop_at)
            .map(|(_, f)| *f)
            .collect();
        let mut candidate = plan.clone();
        candidate.faults = FaultPlan::from_parts(
            kept,
            plan.faults.metadata_drop_prob,
            plan.faults.transfer_drop_prob,
        );
        out.push(candidate);
    }

    // 2. Drop one scripted action.
    for drop_at in 0..plan.actions.len() {
        let mut candidate = plan.clone();
        candidate.actions.remove(drop_at);
        out.push(candidate);
    }

    // 2b. Drop one Master crash.
    for drop_at in 0..plan.master_crashes.len() {
        let mut candidate = plan.clone();
        candidate.master_crashes.remove(drop_at);
        out.push(candidate);
    }

    // 3. Zero the probabilistic drops.
    if plan.faults.metadata_drop_prob > 0.0 {
        let mut candidate = plan.clone();
        candidate.faults =
            FaultPlan::from_parts(scheduled.to_vec(), 0.0, plan.faults.transfer_drop_prob);
        out.push(candidate);
    }
    if plan.faults.transfer_drop_prob > 0.0 {
        let mut candidate = plan.clone();
        candidate.faults =
            FaultPlan::from_parts(scheduled.to_vec(), plan.faults.metadata_drop_prob, 0.0);
        out.push(candidate);
    }

    // 4. Turn off whole subsystems.
    if plan.healing {
        let mut candidate = plan.clone();
        candidate.healing = false;
        out.push(candidate);
    }
    if plan.autoscaler {
        let mut candidate = plan.clone();
        candidate.autoscaler = false;
        out.push(candidate);
    }

    // 5. Halve one fault's duration (only when it actually shrinks).
    for (i, fault) in scheduled.iter().enumerate() {
        let halved = match fault.kind {
            FaultKind::LinkSlowdown {
                node,
                factor,
                duration,
            } if duration.as_nanos() >= 2 => Some(FaultKind::LinkSlowdown {
                node,
                factor,
                duration: SimTime::from_nanos(duration.as_nanos() / 2),
            }),
            FaultKind::LinkPartition { node, duration } if duration.as_nanos() >= 2 => {
                Some(FaultKind::LinkPartition {
                    node,
                    duration: SimTime::from_nanos(duration.as_nanos() / 2),
                })
            }
            _ => None,
        };
        if let Some(kind) = halved {
            let mut kept = scheduled.to_vec();
            kept[i] = ScheduledFault { at: fault.at, kind };
            let mut candidate = plan.clone();
            candidate.faults = FaultPlan::from_parts(
                kept,
                plan.faults.metadata_drop_prob,
                plan.faults.transfer_drop_prob,
            );
            out.push(candidate);
        }
    }

    // 6. Shorten the run.
    if plan.duration_secs >= 40 {
        let mut candidate = plan.clone();
        candidate.duration_secs = plan.duration_secs / 2;
        out.push(candidate);
    }

    // 7. Shrink the tier.
    if plan.nodes > 3 {
        let mut candidate = plan.clone();
        candidate.nodes = plan.nodes - 1;
        out.push(candidate);
    }

    // 8. Shrink the keyspace.
    if plan.keys >= 2_000 {
        let mut candidate = plan.clone();
        candidate.keys = plan.keys / 2;
        out.push(candidate);
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_per_seed() {
        for seed in 0..32 {
            assert_eq!(ChaosPlan::generate(seed), ChaosPlan::generate(seed));
        }
        assert_ne!(ChaosPlan::generate(1), ChaosPlan::generate(2));
    }

    #[test]
    fn generation_respects_limits() {
        for seed in 0..64 {
            let plan = ChaosPlan::generate(seed);
            assert!((MIN_NODES..=MAX_NODES).contains(&plan.nodes));
            assert!((MIN_KEYS..=MAX_KEYS).contains(&plan.keys));
            assert!((MIN_DURATION_SECS..=MAX_DURATION_SECS).contains(&plan.duration_secs));
            assert!(plan.faults.scheduled().len() <= MAX_FAULTS);
            assert!(!plan.actions.is_empty() && plan.actions.len() <= MAX_ACTIONS);
            assert!(plan.master_crashes.len() <= MAX_MASTER_CRASHES);
            // At least two nodes stay crash-free.
            let crashes = plan
                .faults
                .scheduled()
                .iter()
                .filter(|f| matches!(f.kind, FaultKind::NodeCrash { .. }))
                .count();
            assert!(crashes as u32 <= plan.nodes - 2, "seed {seed}");
        }
    }

    #[test]
    fn json_round_trip_is_byte_identical() {
        for seed in 0..64 {
            let plan = ChaosPlan::generate(seed);
            let json = plan.to_json();
            let back = ChaosPlan::parse_json(&json).unwrap();
            assert_eq!(back, plan, "seed {seed}");
            assert_eq!(back.to_json(), json, "seed {seed}");
        }
    }

    #[test]
    fn json_refuses_counts_past_u32() {
        let plan = ChaosPlan::generate(1);
        let (ChaosAction::ScaleIn { count } | ChaosAction::ScaleOut { count }) =
            plan.actions[0].action;
        let json = plan.to_json();
        for (field, n) in [("nodes", plan.nodes), ("count", count)] {
            // Truncated, the wide value would read back as `n`.
            let narrow = format!("\"{field}\":{n}");
            let wide = format!("\"{field}\":{}", u64::from(n) + (1 << 32));
            assert!(json.contains(&narrow), "{narrow}");
            let err = ChaosPlan::parse_json(&json.replacen(&narrow, &wide, 1)).unwrap_err();
            assert!(err.contains(&format!("'{field}'")), "{err}");
        }
    }

    #[test]
    fn shrink_reaches_fixpoint_and_keeps_failure() {
        // Failure: "the plan contains a crash of node 1". The minimal
        // reproduction keeps exactly that crash and nothing else.
        let fails = |p: &ChaosPlan| {
            p.faults
                .scheduled()
                .iter()
                .any(|f| matches!(f.kind, FaultKind::NodeCrash { node } if node == NodeId(1)))
        };
        let mut seed_plan = None;
        for seed in 0..256 {
            let p = ChaosPlan::generate(seed);
            if fails(&p) && p.weight() > 2 {
                seed_plan = Some(p);
                break;
            }
        }
        let plan = seed_plan.expect("some seed crashes node 1");
        let small = shrink(&plan, fails);
        assert!(fails(&small), "shrunk plan still fails");
        assert_eq!(small.faults.scheduled().len(), 1, "only the crash remains");
        assert!(small.actions.is_empty());
        assert!(small.master_crashes.is_empty());
        assert!(!small.healing && !small.autoscaler);
        assert_eq!(small.faults.metadata_drop_prob, 0.0);
        assert_eq!(small.faults.transfer_drop_prob, 0.0);
        assert_eq!(small.nodes, 3);
        assert!(small.keys < 2_000);
        assert!(small.duration_secs < 40);
        // Deterministic: shrinking again yields the identical plan.
        assert_eq!(shrink(&plan, fails), small);
        // And a shrunk plan is already a fixpoint.
        assert_eq!(shrink(&small, fails), small);
    }

    #[test]
    fn shrink_of_passing_plan_is_identity_only_if_it_fails() {
        // If the predicate never fires, shrink returns the input unchanged
        // (no candidate is ever accepted).
        let plan = ChaosPlan::generate(3);
        let same = shrink(&plan, |_| false);
        assert_eq!(same, plan);
    }
}
