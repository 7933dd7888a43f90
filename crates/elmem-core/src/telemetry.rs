//! Experiment-level telemetry: the windowed counter time series, the
//! migration-phase event synthesis, and the deterministic dump.
//!
//! The primitives (histograms, the event trace, the event taxonomy) live
//! in [`elmem_util::telemetry`]; the serving-path sink lives in
//! [`elmem_cluster::telemetry`]. This module is the aggregation layer the
//! driver ([`crate::elasticity::run_experiment`]) uses:
//!
//! * [`SeriesRecorder`] samples tier-wide counters (hit rate, DB load,
//!   timeouts, members, bytes migrated) every [`SERIES_WINDOW`] into
//!   [`SeriesPoint`]s — the data behind the paper's Fig. 2 recovery
//!   curves;
//! * [`record_migration_events`] synthesizes `MigrationPhaseStart` /
//!   `End` / `Aborted` events from a [`MigrationReport`]'s phase
//!   breakdown, so the trace shows *when* each §III-D phase ran;
//! * [`TelemetryDump`] is the whole story — events, histograms, series,
//!   per-node rows — with a canonical JSON encoding that is byte-identical
//!   across same-seed runs (the property the golden tests pin).

use std::fmt::Write as _;

use elmem_cluster::telemetry::NodeCounters;
use elmem_cluster::Cluster;
use elmem_store::StoreStats;
use elmem_util::telemetry::{
    write_events_json, AbortClass, Event, EventKind, EventTrace, MigrationPhase,
};
use elmem_util::{LatencyHistogram, NodeId, SimTime};

use crate::migration::{AbortCause, MigrationOutcome, MigrationReport};

/// One window of the tier-wide counter time series. Counters are *deltas*
/// over the window (except `members` and `bytes_migrated`, which are the
/// level at the window's close).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SeriesPoint {
    /// Window start.
    pub window_start: SimTime,
    /// Web requests completed in the window.
    pub requests: u64,
    /// Cache lookups in the window.
    pub lookups: u64,
    /// Lookups that hit in the window.
    pub hits: u64,
    /// Database fetches submitted in the window (DB load).
    pub db_fetches: u64,
    /// Client timeouts paid in the window.
    pub client_timeouts: u64,
    /// Instant failovers on open breakers in the window.
    pub fast_failovers: u64,
    /// Client-visible member count when the window closed.
    pub members: u32,
    /// Cumulative bytes moved by migrations up to the window's close.
    pub bytes_migrated: u64,
}

impl SeriesPoint {
    /// Hit rate over the window; 1.0 when no lookups landed (idle windows
    /// should not read as outages).
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            1.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }

    /// Appends the canonical JSON encoding (integers only; hit rate is
    /// derived by consumers from `hits`/`lookups`).
    pub fn write_json(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"t_ns\":{},\"requests\":{},\"lookups\":{},\"hits\":{},\
             \"db_fetches\":{},\"client_timeouts\":{},\"fast_failovers\":{},\
             \"members\":{},\"bytes_migrated\":{}}}",
            self.window_start.as_nanos(),
            self.requests,
            self.lookups,
            self.hits,
            self.db_fetches,
            self.client_timeouts,
            self.fast_failovers,
            self.members,
            self.bytes_migrated
        );
    }
}

/// A reading of the tier's cumulative counters, taken by the driver when
/// a series window closes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierSnapshot {
    /// Client-visible member count.
    pub members: u32,
    /// Cumulative database fetches submitted.
    pub db_fetches: u64,
    /// Cumulative client timeouts paid.
    pub client_timeouts: u64,
    /// Cumulative instant failovers on open breakers.
    pub fast_failovers: u64,
    /// Cumulative bytes moved by migrations.
    pub bytes_migrated: u64,
}

impl TierSnapshot {
    /// Reads the tier's cumulative counters off the serving stack.
    pub fn take(cluster: &Cluster, bytes_migrated: u64) -> Self {
        TierSnapshot {
            members: cluster.tier.membership().len() as u32,
            db_fetches: cluster.db.fetches(),
            client_timeouts: cluster.client_timeouts(),
            fast_failovers: cluster.fast_failovers(),
            bytes_migrated,
        }
    }
}

/// Window length of the counter time series (hit rate, DB load, bytes
/// migrated per window).
pub const SERIES_WINDOW: SimTime = SimTime::from_secs(1);

/// Accumulates the tier-wide counter time series in [`SERIES_WINDOW`]s.
///
/// The driver calls [`advance`](Self::advance) with the current time and a
/// fresh [`TierSnapshot`] before serving each request (closing any windows
/// the clock has passed — traffic gaps produce explicit zero windows, so
/// the series has no holes), [`record_request`](Self::record_request)
/// after serving it, and [`finish`](Self::finish) once at the end.
#[derive(Debug, Clone, Default)]
pub struct SeriesRecorder {
    window_start: SimTime,
    requests: u64,
    lookups: u64,
    hits: u64,
    last: TierSnapshot,
    points: Vec<SeriesPoint>,
}

impl SeriesRecorder {
    /// Closes every window that ends at or before `now`. The cumulative
    /// deltas since the previous close land in the first window closed
    /// here; the rest (idle gaps) close empty.
    pub fn advance(&mut self, now: SimTime, snap: &TierSnapshot) {
        while self.window_start + SERIES_WINDOW <= now {
            let point = SeriesPoint {
                window_start: self.window_start,
                requests: self.requests,
                lookups: self.lookups,
                hits: self.hits,
                db_fetches: snap.db_fetches - self.last.db_fetches,
                client_timeouts: snap.client_timeouts - self.last.client_timeouts,
                fast_failovers: snap.fast_failovers - self.last.fast_failovers,
                members: snap.members,
                bytes_migrated: snap.bytes_migrated,
            };
            self.points.push(point);
            self.last = *snap;
            self.window_start += SERIES_WINDOW;
            self.requests = 0;
            self.lookups = 0;
            self.hits = 0;
        }
    }

    /// Adds one served request's lookups to the open window.
    pub fn record_request(&mut self, hits: u64, lookups: u64) {
        self.requests += 1;
        self.lookups += lookups;
        self.hits += hits;
    }

    /// Closes the final (partial) window and returns the series.
    pub fn finish(mut self, now: SimTime, snap: &TierSnapshot) -> Vec<SeriesPoint> {
        self.advance(now, snap);
        if self.requests > 0
            || snap.db_fetches > self.last.db_fetches
            || snap.client_timeouts > self.last.client_timeouts
        {
            self.points.push(SeriesPoint {
                window_start: self.window_start,
                requests: self.requests,
                lookups: self.lookups,
                hits: self.hits,
                db_fetches: snap.db_fetches - self.last.db_fetches,
                client_timeouts: snap.client_timeouts - self.last.client_timeouts,
                fast_failovers: snap.fast_failovers - self.last.fast_failovers,
                members: snap.members,
                bytes_migrated: snap.bytes_migrated,
            });
        }
        self.points
    }
}

/// Projects an abort cause onto the trace vocabulary without its payload:
/// the node involved, if any, travels in [`Event::node`].
pub fn abort_class(cause: &AbortCause) -> AbortClass {
    match cause {
        AbortCause::SourceCrashed(_) => AbortClass::SourceCrashed,
        AbortCause::DestinationCrashed(_) => AbortClass::DestinationCrashed,
        AbortCause::TransferRetriesExhausted { .. } => AbortClass::RetriesExhausted,
        AbortCause::MasterCrashed => AbortClass::MasterCrashed,
    }
}

/// Synthesizes the §III-D phase events a migration report implies: a
/// `Start`/`End` pair per completed phase (boundaries from the report's
/// sequential [`PhaseBreakdown`](crate::migration::PhaseBreakdown)), and
/// for an aborted run a `Start` for the phase the fault landed in followed
/// by a `MigrationAborted` at the moment the Master gave up.
pub fn record_migration_events(trace: &mut EventTrace, report: &MigrationReport) {
    // Phase spans, in §III-D order. Scoring and dump are preliminaries of
    // the metadata phase, as the supervisor attributes them.
    let spans = [
        (
            MigrationPhase::MetadataTransfer,
            report.phases.scoring + report.phases.dump + report.phases.metadata_transfer,
        ),
        (MigrationPhase::HotnessComparison, report.phases.fusecache),
        (
            MigrationPhase::DataMigration,
            report.phases.data_transfer + report.phases.import,
        ),
    ];
    let aborted = match report.outcome {
        MigrationOutcome::Completed => None,
        MigrationOutcome::Aborted { phase, cause } => Some((phase, cause)),
    };
    // A journaled migration the Master crashed out of and resumed: one
    // `MasterCrashed` per crash, one `MigrationResumed` per restart that
    // actually resumed (under an abort-on-crash policy the final restart
    // gave up instead — the `MigrationAborted` below tells that story).
    let gave_up = matches!(
        report.outcome,
        MigrationOutcome::Aborted {
            cause: AbortCause::MasterCrashed,
            ..
        }
    );
    for (i, r) in report.resumes.iter().enumerate() {
        trace.record(r.crashed_at, None, EventKind::MasterCrashed);
        if !(gave_up && i + 1 == report.resumes.len()) {
            trace.record(
                r.resumed_at,
                None,
                EventKind::MigrationResumed { phase: r.phase },
            );
        }
    }
    // The phase spans describe the final attempt, which started at the
    // last resume point (or at the trigger, if the Master never crashed).
    let mut t = report
        .resumes
        .last()
        .map_or(report.started, |r| r.resumed_at);
    for (kind, span) in spans {
        // An aborted run stops inside the failing phase: its Start is
        // real, its End never happened.
        trace.record(
            t.min(report.completed),
            None,
            EventKind::MigrationPhaseStart { phase: kind },
        );
        if aborted.is_some_and(|(failing, _)| failing == kind) {
            break;
        }
        t = (t + span).min(report.completed);
        trace.record(t, None, EventKind::MigrationPhaseEnd { phase: kind });
    }
    if let Some((phase, cause)) = aborted {
        trace.record(
            report.completed,
            cause.crashed_node(),
            EventKind::MigrationAborted {
                phase,
                cause: abort_class(&cause),
            },
        );
    }
}

/// One node's row in the dump: serving counters plus its store's own
/// operation counters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeDumpRow {
    /// The node.
    pub node: NodeId,
    /// Serving-path counters (lookups, hits, timeouts, failovers).
    pub counters: NodeCounters,
    /// The slab store's cumulative operation counters.
    pub stats: StoreStats,
}

/// The full telemetry story of one experiment run.
///
/// Two runs with the same [`crate::ExperimentConfig`] produce equal dumps
/// — and equal [`to_json`](Self::to_json) bytes; that guarantee is what
/// `tests/golden_telemetry.rs` locks in.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetryDump {
    /// The experiment seed, stamped for fixture self-description.
    pub seed: u64,
    /// The series window length, nanoseconds.
    pub sample_every_ns: u64,
    /// Events ever recorded (retained + dropped by the ring).
    pub recorded_events: u64,
    /// Events the ring dropped (oldest first).
    pub dropped_events: u64,
    /// Retained events in canonical order: by time, then emission order.
    pub events: Vec<Event>,
    /// Response time of whole web requests.
    pub request_rt: LatencyHistogram,
    /// Latency of lookups answered from cache.
    pub get_hit: LatencyHistogram,
    /// Latency of lookups that missed to the database.
    pub get_miss: LatencyHistogram,
    /// Latency of lookups whose owner was unreachable.
    pub timeout_path: LatencyHistogram,
    /// The tier-wide counter time series.
    pub series: Vec<SeriesPoint>,
    /// Per-node rows, in node-id order.
    pub nodes: Vec<NodeDumpRow>,
}

impl TelemetryDump {
    /// Assembles the dump from the cluster's telemetry state and the
    /// driver's series. Events are put into canonical `(time, seq)` order
    /// — emission order already breaks ties deterministically.
    pub fn assemble(seed: u64, cluster: &Cluster, series: Vec<SeriesPoint>) -> Self {
        let telemetry = cluster.telemetry();
        let mut events = telemetry.trace.to_vec();
        events.sort_by_key(|e| (e.at, e.seq));
        let nodes = cluster
            .tier
            .iter_nodes()
            .map(|n| NodeDumpRow {
                node: n.id(),
                counters: telemetry.node_counters(n.id()),
                stats: n.store.stats(),
            })
            .collect();
        TelemetryDump {
            seed,
            sample_every_ns: SERIES_WINDOW.as_nanos(),
            recorded_events: telemetry.trace.recorded(),
            dropped_events: telemetry.trace.dropped(),
            events,
            request_rt: telemetry.request_rt.clone(),
            get_hit: telemetry.get_hit.clone(),
            get_miss: telemetry.get_miss.clone(),
            timeout_path: telemetry.timeout_path.clone(),
            series,
            nodes,
        }
    }

    /// The canonical JSON encoding: fixed field order, integers only,
    /// byte-identical for equal dumps.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        let _ = write!(
            out,
            "{{\"seed\":{},\"sample_every_ns\":{},\"recorded_events\":{},\"dropped_events\":{},",
            self.seed, self.sample_every_ns, self.recorded_events, self.dropped_events
        );
        out.push_str("\"events\":");
        write_events_json(&mut out, &self.events);
        out.push_str(",\"histograms\":{\"request_rt\":");
        self.request_rt.write_json(&mut out);
        out.push_str(",\"get_hit\":");
        self.get_hit.write_json(&mut out);
        out.push_str(",\"get_miss\":");
        self.get_miss.write_json(&mut out);
        out.push_str(",\"timeout_path\":");
        self.timeout_path.write_json(&mut out);
        out.push_str("},\"series\":[");
        for (i, p) in self.series.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            p.write_json(&mut out);
        }
        out.push_str("],\"nodes\":[");
        for (i, row) in self.nodes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"node\":{},\"lookups\":{},\"hits\":{},\"timeouts\":{},\
                 \"fast_failovers\":{},\"store\":{{\"hits\":{},\"misses\":{},\
                 \"sets\":{},\"evictions\":{},\"deletes\":{},\"imported\":{}}}}}",
                row.node.0,
                row.counters.lookups,
                row.counters.hits,
                row.counters.timeouts,
                row.counters.fast_failovers,
                row.stats.hits,
                row.stats.misses,
                row.stats.sets,
                row.stats.evictions,
                row.stats.deletes,
                row.stats.imported
            );
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::migration::PhaseBreakdown;
    use elmem_util::ByteSize;

    fn snap(members: u32, db: u64, timeouts: u64) -> TierSnapshot {
        TierSnapshot {
            members,
            db_fetches: db,
            client_timeouts: timeouts,
            fast_failovers: 0,
            bytes_migrated: 0,
        }
    }

    #[test]
    fn series_windows_close_in_order_with_gaps_explicit() {
        let mut rec = SeriesRecorder::default();
        rec.advance(SimTime::from_millis(100), &snap(4, 0, 0));
        rec.record_request(2, 3);
        // The clock jumps 3 windows: one carries the traffic, two close
        // empty.
        rec.advance(SimTime::from_millis(3500), &snap(4, 5, 0));
        let points = rec.finish(SimTime::from_millis(3500), &snap(4, 5, 0));
        assert_eq!(points.len(), 3);
        assert_eq!(points[0].requests, 1);
        assert_eq!(points[0].hits, 2);
        assert_eq!(points[0].db_fetches, 5, "delta lands in the first close");
        assert_eq!(points[1].requests, 0);
        assert_eq!(points[1].db_fetches, 0);
        assert_eq!(points[2].window_start, SimTime::from_secs(2));
    }

    #[test]
    fn series_final_partial_window_is_kept() {
        let mut rec = SeriesRecorder::default();
        rec.record_request(1, 1);
        let points = rec.finish(SimTime::from_millis(500), &snap(4, 1, 0));
        assert_eq!(points.len(), 1);
        assert_eq!(points[0].requests, 1);
    }

    #[test]
    fn idle_window_hit_rate_is_one() {
        let p = SeriesPoint::default();
        assert_eq!(p.hit_rate(), 1.0);
    }

    fn report(outcome: MigrationOutcome) -> MigrationReport {
        MigrationReport {
            started: SimTime::from_secs(10),
            completed: SimTime::from_secs(130),
            phases: PhaseBreakdown {
                scoring: SimTime::from_secs(1),
                dump: SimTime::from_secs(4),
                metadata_transfer: SimTime::from_secs(25),
                fusecache: SimTime::from_secs(10),
                data_transfer: SimTime::from_secs(70),
                import: SimTime::from_secs(10),
            },
            items_migrated: 100,
            bytes_migrated: ByteSize::from_mib(64),
            metadata_bytes: ByteSize::from_mib(2),
            items_considered: 500,
            outcome,
            transfer_retries: 0,
            resumes: Vec::new(),
        }
    }

    #[test]
    fn resumed_migration_records_crash_and_resume_events() {
        let mut trace = EventTrace::with_capacity(64);
        let mut report = report(MigrationOutcome::Completed);
        report.resumes = vec![crate::migration::ResumePoint {
            crashed_at: SimTime::from_secs(11),
            resumed_at: SimTime::from_millis(11_500),
            phase: MigrationPhase::DataMigration,
        }];
        record_migration_events(&mut trace, &report);
        let kinds: Vec<&str> = trace.events().map(|e| e.kind.label()).collect();
        assert!(kinds.contains(&"master_crashed"));
        assert!(kinds.contains(&"migration_resumed"));
        // Phase spans replay from the resume point, not the trigger.
        let first_start = trace
            .events()
            .find(|e| matches!(e.kind, EventKind::MigrationPhaseStart { .. }))
            .unwrap();
        assert_eq!(first_start.at, SimTime::from_millis(11_500));
    }

    #[test]
    fn master_crash_abort_skips_the_final_resume_event() {
        let mut trace = EventTrace::with_capacity(64);
        let mut report = report(MigrationOutcome::Aborted {
            phase: MigrationPhase::DataMigration,
            cause: AbortCause::MasterCrashed,
        });
        report.resumes = vec![crate::migration::ResumePoint {
            crashed_at: SimTime::from_secs(11),
            resumed_at: SimTime::from_millis(11_500),
            phase: MigrationPhase::DataMigration,
        }];
        record_migration_events(&mut trace, &report);
        let kinds: Vec<&str> = trace.events().map(|e| e.kind.label()).collect();
        assert!(kinds.contains(&"master_crashed"));
        assert!(
            !kinds.contains(&"migration_resumed"),
            "the give-up restart is not a resume"
        );
        assert!(kinds.contains(&"migration_aborted"));
    }

    #[test]
    fn completed_migration_yields_three_phase_pairs() {
        let mut trace = EventTrace::with_capacity(64);
        record_migration_events(&mut trace, &report(MigrationOutcome::Completed));
        let kinds: Vec<&'static str> = trace.events().map(|e| e.kind.label()).collect();
        assert_eq!(
            kinds,
            vec![
                "migration_phase_start",
                "migration_phase_end",
                "migration_phase_start",
                "migration_phase_end",
                "migration_phase_start",
                "migration_phase_end",
            ]
        );
        let times: Vec<u64> = trace.events().map(|e| e.at.as_secs()).collect();
        assert_eq!(times, vec![10, 40, 40, 50, 50, 130]);
    }

    #[test]
    fn aborted_migration_stops_inside_the_failing_phase() {
        let outcome = MigrationOutcome::Aborted {
            phase: MigrationPhase::DataMigration,
            cause: AbortCause::SourceCrashed(NodeId(2)),
        };
        let mut trace = EventTrace::with_capacity(64);
        let mut r = report(outcome);
        r.completed = SimTime::from_secs(60); // gave up mid-phase-3
        record_migration_events(&mut trace, &r);
        let kinds: Vec<&'static str> = trace.events().map(|e| e.kind.label()).collect();
        assert_eq!(
            kinds,
            vec![
                "migration_phase_start",
                "migration_phase_end",
                "migration_phase_start",
                "migration_phase_end",
                "migration_phase_start",
                "migration_aborted",
            ]
        );
        let last = trace.events().last().unwrap();
        assert_eq!(last.at, SimTime::from_secs(60));
        assert_eq!(last.node, Some(NodeId(2)));
    }

    #[test]
    fn dump_json_is_stable_for_equal_dumps() {
        let a = TelemetryDump::default();
        let b = TelemetryDump::default();
        assert_eq!(a, b);
        assert_eq!(a.to_json(), b.to_json());
        assert!(a.to_json().starts_with("{\"seed\":0,"));
    }
}
