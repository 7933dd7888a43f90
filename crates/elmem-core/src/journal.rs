//! Crash-recoverable migration control plane: the Master's simulated
//! durable write-ahead journal (DESIGN.md §13).
//!
//! The Master appends a [`JournalRecord`] at every phase boundary, when a
//! migration plan is sealed, and per shipment ack. Each record carries the
//! simulated instant it became *durable*; a Master crash at time `t`
//! truncates everything not yet durable ([`MigrationJournal::discard_after`])
//! and the restarted Master [`replays`](MigrationJournal::replay) the
//! surviving prefix to resume the migration from the last durable point
//! instead of aborting it.
//!
//! Determinism: the journal is an append-only vector mutated only by the
//! (deterministic) migration executors, serialized with the same
//! hand-rolled fixed-field-order JSON the fault and chaos plans use, so
//! same-seed runs produce byte-identical journal dumps.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use elmem_store::ClassId;
use elmem_util::{NodeId, SimTime};

use crate::migration::MigrationPhase;

/// Simulated lag between a shipment's import applying on the destination
/// and its ack record becoming durable in the Master's journal. A Master
/// crash inside this window loses the ack but not the import — the resumed
/// migration re-delivers the shipment and the destination's
/// [`import ledger`](elmem_cluster::ImportLedger) suppresses the duplicate.
pub const ACK_DURABILITY_LAG: SimTime = SimTime::from_millis(10);

/// What kind of migration a journaled job is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationKind {
    /// Retiring nodes drain into the retained membership (§III-D1–3).
    ScaleIn,
    /// Existing members fill freshly provisioned nodes (§III-D4).
    ScaleOut,
}

impl MigrationKind {
    /// Stable lowercase label used in JSON dumps.
    pub fn label(self) -> &'static str {
        match self {
            MigrationKind::ScaleIn => "scale_in",
            MigrationKind::ScaleOut => "scale_out",
        }
    }
}

/// One sealed shipment, as the journal records it: enough to reconstruct
/// the shipment from a fresh source dump (the `take`-prefix of what the
/// source routes to `(target, class)`) and to verify the reconstruction
/// against the per-field FNV-1a checksum sealed at plan time, which any one
/// changed item field moves ([`crate::migration::shipment_checksum`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShipmentManifest {
    /// Monotone sequence number within the migration.
    pub seq: u64,
    /// The node shipping the items.
    pub source: NodeId,
    /// The node importing them.
    pub target: NodeId,
    /// The slab class they belong to.
    pub class: ClassId,
    /// How many items of the routed (hotness-ordered) list are shipped.
    pub take: usize,
    /// Per-field FNV-1a checksum of the chosen prefix (one change moves it).
    pub checksum: u64,
}

impl ShipmentManifest {
    fn write_json(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"seq\":{},\"source\":{},\"target\":{},\"class\":{},\"take\":{},\"checksum\":{}}}",
            self.seq, self.source.0, self.target.0, self.class.0, self.take, self.checksum
        );
    }
}

/// One durable journal record.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalRecord {
    /// A migration job was admitted and started.
    Started {
        /// Job id (monotone per Master).
        id: u64,
        /// Scale-in or scale-out.
        kind: MigrationKind,
        /// The retiring (scale-in) or joining (scale-out) nodes.
        nodes: Vec<NodeId>,
        /// When it started.
        at: SimTime,
    },
    /// A migration phase ran to its boundary.
    PhaseDone {
        /// The job.
        id: u64,
        /// The phase that finished.
        phase: MigrationPhase,
        /// The boundary instant.
        at: SimTime,
    },
    /// The shipment plan was sealed: from here on the migration is
    /// manifest-driven and a resume reconstructs shipments instead of
    /// replanning (partial imports have already mutated the destinations).
    PlanSealed {
        /// The job.
        id: u64,
        /// When the plan sealed.
        at: SimTime,
        /// Every planned shipment, in sequence order.
        manifest: Vec<ShipmentManifest>,
    },
    /// A shipment was imported on its destination and acknowledged.
    ShipmentAcked {
        /// The job.
        id: u64,
        /// The shipment.
        seq: u64,
        /// When the import applied (the record is durable
        /// [`ACK_DURABILITY_LAG`] later).
        at: SimTime,
    },
    /// A restarted Master replayed the journal and resumed the job.
    Resumed {
        /// The job.
        id: u64,
        /// When the resumed attempt started.
        at: SimTime,
        /// The phase the crash interrupted.
        phase: MigrationPhase,
    },
    /// The migration completed; the scaling may commit.
    Committed {
        /// The job.
        id: u64,
        /// Completion instant.
        at: SimTime,
    },
    /// The migration was abandoned (fault abort, or a Master restart
    /// configured to abort instead of resume).
    Aborted {
        /// The job.
        id: u64,
        /// When the Master gave up.
        at: SimTime,
    },
}

impl JournalRecord {
    /// The job the record belongs to.
    pub fn id(&self) -> u64 {
        match *self {
            JournalRecord::Started { id, .. }
            | JournalRecord::PhaseDone { id, .. }
            | JournalRecord::PlanSealed { id, .. }
            | JournalRecord::ShipmentAcked { id, .. }
            | JournalRecord::Resumed { id, .. }
            | JournalRecord::Committed { id, .. }
            | JournalRecord::Aborted { id, .. } => id,
        }
    }

    /// Stable lowercase label used in JSON dumps.
    pub fn label(&self) -> &'static str {
        match self {
            JournalRecord::Started { .. } => "started",
            JournalRecord::PhaseDone { .. } => "phase_done",
            JournalRecord::PlanSealed { .. } => "plan_sealed",
            JournalRecord::ShipmentAcked { .. } => "shipment_acked",
            JournalRecord::Resumed { .. } => "resumed",
            JournalRecord::Committed { .. } => "committed",
            JournalRecord::Aborted { .. } => "aborted",
        }
    }
}

/// One journal entry: a record plus the instant it became durable.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalEntry {
    /// When the record hit stable storage. A Master crash before this
    /// instant loses the record.
    pub durable_at: SimTime,
    /// The record.
    pub record: JournalRecord,
}

/// What a journal replay recovers about one migration job.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReplayState {
    /// The job's kind, if a `Started` record survived.
    pub kind: Option<MigrationKind>,
    /// The furthest phase with a durable `PhaseDone`.
    pub last_phase: Option<MigrationPhase>,
    /// The sealed shipment manifest, when the plan sealed durably.
    pub manifest: Option<Vec<ShipmentManifest>>,
    /// Sequence numbers with durable acks: these shipments are complete
    /// and must not be re-delivered.
    pub acked: BTreeSet<u64>,
    /// Durable `Resumed` records seen (how often the job already resumed).
    pub resumes: u32,
    /// Whether a `Committed` record survived.
    pub committed: bool,
    /// Whether an `Aborted` record survived.
    pub aborted: bool,
}

/// The Master's append-only migration journal (simulated durable WAL).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MigrationJournal {
    entries: Vec<JournalEntry>,
}

impl MigrationJournal {
    /// An empty journal.
    pub fn new() -> Self {
        MigrationJournal::default()
    }

    /// Appends a record that becomes durable at `durable_at`.
    pub fn append(&mut self, durable_at: SimTime, record: JournalRecord) {
        self.entries.push(JournalEntry { durable_at, record });
    }

    /// Simulates a Master crash at `t`: every record not yet durable is
    /// lost. Returns how many records were dropped.
    pub fn discard_after(&mut self, t: SimTime) -> usize {
        let before = self.entries.len();
        self.entries.retain(|e| e.durable_at <= t);
        before - self.entries.len()
    }

    /// The surviving entries, in append order.
    pub fn entries(&self) -> &[JournalEntry] {
        &self.entries
    }

    /// Number of surviving records.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the journal is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Replays the journal for one job: the state a restarted Master
    /// reconstructs before resuming.
    pub fn replay(&self, id: u64) -> ReplayState {
        let mut st = ReplayState::default();
        for entry in &self.entries {
            match &entry.record {
                JournalRecord::Started { id: i, kind, .. } if *i == id => {
                    st.kind = Some(*kind);
                }
                JournalRecord::PhaseDone { id: i, phase, .. }
                    if *i == id && st.last_phase.is_none_or(|p| *phase > p) =>
                {
                    st.last_phase = Some(*phase);
                }
                JournalRecord::PlanSealed {
                    id: i, manifest, ..
                } if *i == id => {
                    st.manifest = Some(manifest.clone());
                }
                JournalRecord::ShipmentAcked { id: i, seq, .. } if *i == id => {
                    st.acked.insert(*seq);
                }
                JournalRecord::Resumed { id: i, .. } if *i == id => {
                    st.resumes += 1;
                }
                JournalRecord::Committed { id: i, .. } if *i == id => {
                    st.committed = true;
                }
                JournalRecord::Aborted { id: i, .. } if *i == id => {
                    st.aborted = true;
                }
                _ => {}
            }
        }
        st
    }

    /// Appends the canonical JSON encoding: fixed field order,
    /// byte-identical for equal journals.
    pub fn write_json(&self, out: &mut String) {
        out.push_str("{\"records\":[");
        for (i, entry) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"durable_at_ns\":{},\"type\":\"{}\",\"id\":{}",
                entry.durable_at.as_nanos(),
                entry.record.label(),
                entry.record.id()
            );
            match &entry.record {
                JournalRecord::Started {
                    kind, nodes, at, ..
                } => {
                    let _ = write!(out, ",\"kind\":\"{}\",\"nodes\":[", kind.label());
                    for (j, n) in nodes.iter().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        let _ = write!(out, "{}", n.0);
                    }
                    let _ = write!(out, "],\"at_ns\":{}", at.as_nanos());
                }
                JournalRecord::PhaseDone { phase, at, .. } => {
                    let _ = write!(
                        out,
                        ",\"phase\":\"{}\",\"at_ns\":{}",
                        phase.label(),
                        at.as_nanos()
                    );
                }
                JournalRecord::PlanSealed { at, manifest, .. } => {
                    let _ = write!(out, ",\"at_ns\":{},\"manifest\":[", at.as_nanos());
                    for (j, m) in manifest.iter().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        m.write_json(out);
                    }
                    out.push(']');
                }
                JournalRecord::ShipmentAcked { seq, at, .. } => {
                    let _ = write!(out, ",\"seq\":{},\"at_ns\":{}", seq, at.as_nanos());
                }
                JournalRecord::Resumed { at, phase, .. } => {
                    let _ = write!(
                        out,
                        ",\"at_ns\":{},\"phase\":\"{}\"",
                        at.as_nanos(),
                        phase.label()
                    );
                }
                JournalRecord::Committed { at, .. } | JournalRecord::Aborted { at, .. } => {
                    let _ = write!(out, ",\"at_ns\":{}", at.as_nanos());
                }
            }
            out.push('}');
        }
        out.push_str("]}");
    }

    /// The canonical JSON encoding as a string.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(256);
        self.write_json(&mut s);
        s
    }
}

/// How a restarted Master treats an interrupted migration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MasterRecovery {
    /// Replay the journal and resume from the last durable point (the
    /// crash-recoverable control plane this module exists for).
    #[default]
    Resume,
    /// Abandon the migration and fall back to committing the scaling
    /// without it — the pre-journal behavior, kept as the baseline the
    /// downtime experiments (EXPERIMENTS.md E18) compare against.
    Abort,
}

/// Downtime between a Master crash and the restarted Master taking over.
pub const MASTER_RESTART_DELAY: SimTime = SimTime::from_millis(500);

/// Scheduled Master failures for one experiment: when the Master process
/// crashes, and whether the restarted Master resumes or aborts interrupted
/// migrations. A restart takes [`MASTER_RESTART_DELAY`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MasterPlan {
    /// Absolute instants the Master crashes. A crash only matters while a
    /// migration is in flight — an idle Master restarts invisibly.
    pub crashes: Vec<SimTime>,
    /// Resume or abort interrupted migrations.
    pub recovery: MasterRecovery,
}

impl MasterPlan {
    /// The earliest scheduled crash strictly after `t`, if any.
    pub fn next_crash_after(&self, t: SimTime) -> Option<SimTime> {
        self.crashes.iter().copied().filter(|&c| c > t).min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elmem_util::json::JsonValue;

    fn sample_journal() -> MigrationJournal {
        let mut j = MigrationJournal::new();
        let t = SimTime::from_secs;
        j.append(
            t(1),
            JournalRecord::Started {
                id: 0,
                kind: MigrationKind::ScaleIn,
                nodes: vec![NodeId(3)],
                at: t(1),
            },
        );
        j.append(
            t(2),
            JournalRecord::PhaseDone {
                id: 0,
                phase: MigrationPhase::MetadataTransfer,
                at: t(2),
            },
        );
        j.append(
            t(3),
            JournalRecord::PlanSealed {
                id: 0,
                at: t(3),
                manifest: vec![ShipmentManifest {
                    seq: 0,
                    source: NodeId(3),
                    target: NodeId(1),
                    class: ClassId(2),
                    take: 17,
                    checksum: 0xdeadbeef,
                }],
            },
        );
        j.append(
            t(4) + ACK_DURABILITY_LAG,
            JournalRecord::ShipmentAcked {
                id: 0,
                seq: 0,
                at: t(4),
            },
        );
        j.append(t(5), JournalRecord::Committed { id: 0, at: t(5) });
        j
    }

    #[test]
    fn json_dump_lists_each_record_by_type_in_order() {
        let mut j = sample_journal();
        let t = SimTime::from_secs;
        j.append(
            t(6),
            JournalRecord::Resumed {
                id: 1,
                at: t(6),
                phase: MigrationPhase::DataMigration,
            },
        );
        j.append(t(7), JournalRecord::Aborted { id: 1, at: t(7) });
        let dump = JsonValue::parse(&j.to_json()).expect("the dump is JSON");
        let types: Vec<&str> = dump
            .get("records")
            .and_then(JsonValue::as_array)
            .expect("a records array")
            .iter()
            .map(|r| r.get("type").and_then(JsonValue::as_str).expect("a type"))
            .collect();
        let labels: Vec<&str> = j.entries().iter().map(|e| e.record.label()).collect();
        assert_eq!(types, labels);
        assert_eq!(
            types,
            [
                "started",
                "phase_done",
                "plan_sealed",
                "shipment_acked",
                "committed",
                "resumed",
                "aborted"
            ]
        );
    }

    #[test]
    fn discard_after_truncates_not_yet_durable_records() {
        let mut j = sample_journal();
        // Crash just after the plan sealed: the ack (durable at 4 s + lag)
        // and the commit are lost.
        let dropped = j.discard_after(SimTime::from_secs(3));
        assert_eq!(dropped, 2);
        let st = j.replay(0);
        assert!(st.manifest.is_some());
        assert!(st.acked.is_empty());
        assert!(!st.committed);
    }

    #[test]
    fn replay_reconstructs_job_state() {
        let st = sample_journal().replay(0);
        assert_eq!(st.kind, Some(MigrationKind::ScaleIn));
        assert_eq!(st.last_phase, Some(MigrationPhase::MetadataTransfer));
        assert_eq!(st.manifest.as_ref().map(|m| m.len()), Some(1));
        assert!(st.acked.contains(&0));
        assert!(st.committed);
        assert!(!st.aborted);
        assert_eq!(st.resumes, 0);
        // Replay of an unknown job is empty.
        assert_eq!(sample_journal().replay(9), ReplayState::default());
    }

    #[test]
    fn ack_durability_lag_window_loses_the_ack_but_not_earlier_records() {
        let mut j = sample_journal();
        // Crash inside (done, done + lag): the import applied but the ack
        // never became durable.
        j.discard_after(SimTime::from_secs(4) + SimTime::from_millis(5));
        let st = j.replay(0);
        assert!(st.manifest.is_some());
        assert!(st.acked.is_empty(), "ack inside the lag window is lost");
    }

    #[test]
    fn next_crash_after_is_strict() {
        let plan = MasterPlan {
            crashes: vec![SimTime::from_secs(10), SimTime::from_secs(5)],
            ..MasterPlan::default()
        };
        assert_eq!(
            plan.next_crash_after(SimTime::ZERO),
            Some(SimTime::from_secs(5))
        );
        assert_eq!(
            plan.next_crash_after(SimTime::from_secs(5)),
            Some(SimTime::from_secs(10))
        );
        assert_eq!(plan.next_crash_after(SimTime::from_secs(10)), None);
    }
}
