//! Telemetry primitives: mergeable log-bucketed latency histograms and a
//! ring-buffered structured event trace.
//!
//! The paper's whole argument rests on *time-series* evidence (Fig. 2's
//! post-scaling 95%ile spike, the >30-minute hit-rate recovery), so the
//! reproduction needs observability that is as deterministic as the
//! simulator itself: identical seeds must yield **byte-identical** dumps.
//! That drives every design choice here:
//!
//! * [`LatencyHistogram`] uses a *fixed* HDR-style bucket layout
//!   ([`SUB_BITS`] sub-buckets per power of two, values in nanoseconds),
//!   so merges are exact element-wise adds — associative and commutative —
//!   and quantile estimates depend only on the recorded multiset, never on
//!   arrival order;
//! * [`EventTrace`] is a bounded ring buffer of [`Event`]s with a
//!   monotone sequence number, so a capacity overflow drops the *oldest*
//!   events deterministically and the retained tail is stable;
//! * the JSON dump helpers emit integers wherever possible and a single
//!   canonical field order, so golden-file comparisons are `==` on bytes.
//!
//! The event *taxonomy* ([`EventKind`]) lives here, in the vocabulary
//! crate, because events are emitted from every layer: the serving stack
//! (`elmem-cluster`: request served/missed/timeout, breaker transitions),
//! the control plane (`elmem-core`: probe outcomes, migration phases,
//! scaling decisions), and the fault injector (`elmem-sim` actions,
//! recorded by the experiment driver). The aggregation into one dump is
//! `elmem_core::telemetry`'s job.

use std::collections::VecDeque;
use std::fmt::Write as _;

use crate::{NodeId, SimTime};

/// Sub-bucket resolution: each power-of-two octave is split into
/// `2^SUB_BITS` equal-width buckets, bounding the relative quantile error
/// at `2^-SUB_BITS` (≈ 3.1%) — "within one bucket width".
pub const SUB_BITS: u32 = 5;

const SUBS: u64 = 1 << SUB_BITS;

/// Total number of buckets in the fixed layout: a linear segment of width-1
/// buckets below `2^SUB_BITS`, then 32 sub-buckets for every octave (values
/// with most-significant bit 5 through 63) up to `u64::MAX` nanoseconds. The
/// layout is a constant of the format — two histograms always merge
/// bucket-by-bucket.
pub const NUM_BUCKETS: usize = (SUBS + (64 - SUB_BITS as u64) * SUBS) as usize;

/// Maps a value (nanoseconds) to its bucket index in the fixed layout.
///
/// Branch-free: OR-ing in `SUBS` pins the most-significant bit to at least
/// `SUB_BITS`, which folds the linear segment (`v < SUBS` → index `v`,
/// octave 0) into the general octave formula — one `leading_zeros`
/// (a single instruction on every target we run on), a shift and a
/// multiply, with no data-dependent branch for values that straddle the
/// segment boundary. This sits on the per-request latency-record path.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    let octave = u64::from(63 - (v | SUBS).leading_zeros()) - u64::from(SUB_BITS);
    (octave * SUBS + (v >> octave)) as usize
}

/// The smallest value mapping into bucket `i`.
#[inline]
pub fn bucket_lower(i: usize) -> u64 {
    let i = i as u64;
    if i < SUBS {
        i
    } else {
        let octave = (i - SUBS) / SUBS;
        let sub = (i - SUBS) % SUBS;
        (SUBS + sub) << octave
    }
}

/// The width of bucket `i` (1 in the linear segment, `2^octave` above it).
#[inline]
pub fn bucket_width(i: usize) -> u64 {
    let i = i as u64;
    if i < SUBS {
        1
    } else {
        1u64 << ((i - SUBS) / SUBS)
    }
}

/// The largest value mapping into bucket `i`.
#[inline]
pub fn bucket_upper(i: usize) -> u64 {
    bucket_lower(i).saturating_add(bucket_width(i) - 1)
}

/// A mergeable log-bucketed latency histogram with a fixed bucket layout.
///
/// Values are recorded in nanoseconds. Because the layout is a constant,
/// [`merge`](LatencyHistogram::merge) is an exact element-wise add:
/// associative, commutative, and loss-free — `merge(a, b)` reports exactly
/// the quantiles of the combined multiset (to within one bucket width).
/// `min`/`max`/`sum`/`count` are tracked exactly.
///
/// # Example
///
/// ```
/// use elmem_util::telemetry::LatencyHistogram;
///
/// let mut h = LatencyHistogram::new();
/// for v in [100, 200, 300, 400, 1_000_000] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 5);
/// assert_eq!(h.max(), 1_000_000);
/// let p50 = h.value_at_quantile(0.5); // nearest rank: the 3rd value, 300
/// assert!((300..=303).contains(&p50), "p50 within one bucket: {p50}");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            counts: vec![0; NUM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one value (nanoseconds).
    #[inline]
    pub fn record(&mut self, nanos: u64) {
        self.counts[bucket_index(nanos)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(nanos);
        self.min = self.min.min(nanos);
        self.max = self.max.max(nanos);
    }

    /// Records a [`SimTime`] span.
    #[inline]
    pub fn record_time(&mut self, t: SimTime) {
        self.record(t.as_nanos());
    }

    /// Adds every bucket of `other` into `self`. Exact: the result is
    /// indistinguishable from having recorded both value streams into one
    /// histogram, in any order.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of recorded values (saturating), nanoseconds.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Exact smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Exact largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The `q`-quantile (nearest-rank over buckets), reported as the upper
    /// bound of the bucket holding the rank — an overestimate by at most
    /// one bucket width, and monotone in `q`.
    ///
    /// Returns 0 for an empty histogram.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]` or NaN.
    pub fn value_at_quantile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Never report past the exact max (the top bucket's upper
                // bound can overshoot it).
                return bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    /// Median (p50), nanoseconds.
    pub fn p50(&self) -> u64 {
        self.value_at_quantile(0.50)
    }

    /// 95th percentile, nanoseconds.
    pub fn p95(&self) -> u64 {
        self.value_at_quantile(0.95)
    }

    /// 99th percentile, nanoseconds.
    pub fn p99(&self) -> u64 {
        self.value_at_quantile(0.99)
    }

    /// Non-empty buckets as `(index, count)` pairs, in index order.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
    }

    /// Appends the canonical JSON encoding: exact integer summary fields
    /// plus the sparse `(index, count)` bucket list. Byte-stable for a
    /// given recorded multiset.
    pub fn write_json(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"count\":{},\"sum_ns\":{},\"min_ns\":{},\"max_ns\":{},\
             \"p50_ns\":{},\"p95_ns\":{},\"p99_ns\":{},\"buckets\":[",
            self.count,
            self.sum,
            self.min(),
            self.max,
            self.p50(),
            self.p95(),
            self.p99()
        );
        for (n, (i, c)) in self.nonzero_buckets().enumerate() {
            if n > 0 {
                out.push(',');
            }
            let _ = write!(out, "[{i},{c}]");
        }
        out.push_str("]}");
    }

    /// The canonical JSON encoding as a string.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        self.write_json(&mut s);
        s
    }
}

/// The circuit-breaker automaton's state (`elmem_cluster::breaker`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Requests flow to the node normally.
    Closed,
    /// Requests fail over to the database without contacting the node.
    Open,
    /// The cooldown elapsed: the next request is a probe.
    HalfOpen,
}

impl BreakerState {
    /// Stable lowercase label used in JSON dumps.
    pub fn label(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
        }
    }
}

/// What one heartbeat probe observed (`elmem_core::healing`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeOutcome {
    /// The node answered within the probe budget.
    Ack,
    /// The node is reachable in principle but the ack blew the budget
    /// (partitioned NIC queueing the probe, or a heavy slowdown). Counts
    /// toward suspicion, never toward death.
    Degraded,
    /// Nothing came back at all: the node is crashed or powered off.
    Lost,
}

impl ProbeOutcome {
    /// Stable lowercase label used in JSON dumps.
    pub fn label(self) -> &'static str {
        match self {
            ProbeOutcome::Ack => "ack",
            ProbeOutcome::Degraded => "degraded",
            ProbeOutcome::Lost => "lost",
        }
    }
}

/// The three migration phases of §III-D, as the supervisor attributes
/// faults to them (`elmem_core::migration`). The preliminary scoring + dump
/// work is folded into [`MigrationPhase::MetadataTransfer`]. The order is
/// §III-D's, so the furthest phase a journal reached is a `max`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MigrationPhase {
    /// §III-D1: dumping `(key, timestamp)` metadata and shipping it.
    MetadataTransfer,
    /// §III-D2: FuseCache on the destinations.
    HotnessComparison,
    /// §III-D3: shipping and importing the chosen KV pairs.
    DataMigration,
}

impl MigrationPhase {
    /// Stable lowercase label used in JSON dumps and the journal.
    pub fn label(self) -> &'static str {
        match self {
            MigrationPhase::MetadataTransfer => "metadata_transfer",
            MigrationPhase::HotnessComparison => "hotness_comparison",
            MigrationPhase::DataMigration => "data_migration",
        }
    }
}

/// Why a migration aborted, as the event stream names it: the payload-free
/// projection of `elmem_core::migration::AbortCause`, because the involved
/// node travels in [`Event::node`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbortClass {
    /// A retiring source died mid-flight.
    SourceCrashed,
    /// A retained or new destination died mid-flight.
    DestinationCrashed,
    /// The shipment retry budget ran out.
    RetriesExhausted,
    /// The Master died mid-migration and its recovery policy gave up
    /// instead of resuming.
    MasterCrashed,
}

impl AbortClass {
    /// Stable lowercase label used in JSON dumps.
    pub fn label(self) -> &'static str {
        match self {
            AbortClass::SourceCrashed => "source_crashed",
            AbortClass::DestinationCrashed => "destination_crashed",
            AbortClass::RetriesExhausted => "retries_exhausted",
            AbortClass::MasterCrashed => "master_crashed",
        }
    }
}

/// One structured event in the trace.
///
/// The taxonomy covers the serving path (request served/timeout/failover,
/// breaker transitions), the failure detector (probe outcomes, suspicion,
/// confirmed deaths, recoveries), the migration pipeline (phase
/// start/end/abort), scaling decisions and membership commits, and
/// injected faults.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// One web request completed (only recorded when
    /// [`TelemetryConfig::trace_requests`] is set — the highest-volume
    /// event kind by far).
    RequestServed {
        /// Cache lookups that hit.
        hits: u32,
        /// Total cache lookups in the multi-get batch.
        lookups: u32,
    },
    /// A lookup paid the full client timeout against an unreachable node.
    RequestTimeout,
    /// A lookup failed over to the database immediately (open breaker).
    FastFailover,
    /// A circuit breaker changed state.
    BreakerTransition {
        /// State before.
        from: BreakerState,
        /// State after.
        to: BreakerState,
    },
    /// A heartbeat probe observed something other than a timely ack
    /// (timely acks are elided to keep the stream proportional to
    /// *trouble*, not to uptime).
    Probe {
        /// What the probe saw.
        outcome: ProbeOutcome,
    },
    /// The failure detector moved a node to `Suspected`.
    NodeSuspected,
    /// The failure detector confirmed a death.
    NodeConfirmedDead,
    /// A fault-plan crash landed.
    NodeCrashed,
    /// A fault-plan NIC slowdown landed.
    LinkDegraded,
    /// A fault-plan link restore landed.
    LinkRestored,
    /// A fault-plan partition landed.
    LinkPartitioned,
    /// The Master accepted a scaling decision (scripted or AutoScaler).
    ScalingDecided {
        /// Members before.
        from_nodes: u32,
        /// Members after every deferred commit lands.
        to_nodes: u32,
    },
    /// The client-visible membership changed (commit applied).
    MembershipCommitted {
        /// Members after the flip.
        members: u32,
    },
    /// A migration phase began.
    MigrationPhaseStart {
        /// Which phase.
        phase: MigrationPhase,
    },
    /// A migration phase finished.
    MigrationPhaseEnd {
        /// Which phase.
        phase: MigrationPhase,
    },
    /// The supervisor aborted the migration inside a phase.
    MigrationAborted {
        /// The phase the abort landed in.
        phase: MigrationPhase,
        /// Why.
        cause: AbortClass,
    },
    /// The self-healing loop finished recovering a confirmed death
    /// ([`Event::node`] is the dead node).
    RecoveryCompleted {
        /// The admitted replacement, if the policy admits one.
        replacement: Option<NodeId>,
        /// Whether the replacement was warmed before the flip.
        warmed: bool,
    },
    /// The Master process crashed mid-migration (simulated control-plane
    /// fault, distinct from a cache-node [`EventKind::NodeCrashed`]).
    MasterCrashed,
    /// A restarted Master replayed its journal and resumed an in-flight
    /// migration inside `phase` (DESIGN.md §13).
    MigrationResumed {
        /// The phase the interrupting crash landed in.
        phase: MigrationPhase,
    },
    /// The Master deferred a conflicting scaling request until the job it
    /// conflicts with drains.
    ScalingDeferred {
        /// When the deferred request is retried.
        until: SimTime,
    },
}

impl EventKind {
    /// Stable snake_case label used in JSON dumps.
    pub fn label(&self) -> &'static str {
        match self {
            EventKind::RequestServed { .. } => "request_served",
            EventKind::RequestTimeout => "request_timeout",
            EventKind::FastFailover => "fast_failover",
            EventKind::BreakerTransition { .. } => "breaker_transition",
            EventKind::Probe { .. } => "probe",
            EventKind::NodeSuspected => "node_suspected",
            EventKind::NodeConfirmedDead => "node_confirmed_dead",
            EventKind::NodeCrashed => "node_crashed",
            EventKind::LinkDegraded => "link_degraded",
            EventKind::LinkRestored => "link_restored",
            EventKind::LinkPartitioned => "link_partitioned",
            EventKind::ScalingDecided { .. } => "scaling_decided",
            EventKind::MembershipCommitted { .. } => "membership_committed",
            EventKind::MigrationPhaseStart { .. } => "migration_phase_start",
            EventKind::MigrationPhaseEnd { .. } => "migration_phase_end",
            EventKind::MigrationAborted { .. } => "migration_aborted",
            EventKind::RecoveryCompleted { .. } => "recovery_completed",
            EventKind::MasterCrashed => "master_crashed",
            EventKind::MigrationResumed { .. } => "migration_resumed",
            EventKind::ScalingDeferred { .. } => "scaling_deferred",
        }
    }
}

/// One traced event: when, which node (if any), what.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Monotone sequence number, in emission order.
    pub seq: u64,
    /// Simulated time of the event.
    pub at: SimTime,
    /// The node the event concerns, when it concerns one.
    pub node: Option<NodeId>,
    /// What happened.
    pub kind: EventKind,
}

impl Event {
    /// Appends the canonical flat-object JSON encoding. Field order is
    /// fixed: `seq`, `t_ns`, `node`, `kind`, then kind-specific payload
    /// fields in declaration order.
    pub fn write_json(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"seq\":{},\"t_ns\":{},\"node\":",
            self.seq,
            self.at.as_nanos()
        );
        match self.node {
            Some(n) => {
                let _ = write!(out, "{}", n.0);
            }
            None => out.push_str("null"),
        }
        let _ = write!(out, ",\"kind\":\"{}\"", self.kind.label());
        match self.kind {
            EventKind::RequestServed { hits, lookups } => {
                let _ = write!(out, ",\"hits\":{hits},\"lookups\":{lookups}");
            }
            EventKind::BreakerTransition { from, to } => {
                let _ = write!(
                    out,
                    ",\"from\":\"{}\",\"to\":\"{}\"",
                    from.label(),
                    to.label()
                );
            }
            EventKind::Probe { outcome } => {
                let _ = write!(out, ",\"outcome\":\"{}\"", outcome.label());
            }
            EventKind::ScalingDecided {
                from_nodes,
                to_nodes,
            } => {
                let _ = write!(out, ",\"from_nodes\":{from_nodes},\"to_nodes\":{to_nodes}");
            }
            EventKind::MembershipCommitted { members } => {
                let _ = write!(out, ",\"members\":{members}");
            }
            EventKind::MigrationPhaseStart { phase } | EventKind::MigrationPhaseEnd { phase } => {
                let _ = write!(out, ",\"phase\":\"{}\"", phase.label());
            }
            EventKind::MigrationAborted { phase, cause } => {
                let _ = write!(
                    out,
                    ",\"phase\":\"{}\",\"cause\":\"{}\"",
                    phase.label(),
                    cause.label()
                );
            }
            EventKind::RecoveryCompleted {
                replacement,
                warmed,
            } => {
                out.push_str(",\"replacement\":");
                match replacement {
                    Some(n) => {
                        let _ = write!(out, "{}", n.0);
                    }
                    None => out.push_str("null"),
                }
                let _ = write!(out, ",\"warmed\":{warmed}");
            }
            EventKind::MigrationResumed { phase } => {
                let _ = write!(out, ",\"phase\":\"{}\"", phase.label());
            }
            EventKind::ScalingDeferred { until } => {
                let _ = write!(out, ",\"until_ns\":{}", until.as_nanos());
            }
            _ => {}
        }
        out.push('}');
    }
}

/// Telemetry knobs for one experiment run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TelemetryConfig {
    /// Ring-buffer capacity of the event trace; when full, the *oldest*
    /// events are dropped (and counted). 0 disables tracing entirely.
    pub trace_capacity: usize,
    /// Record a [`EventKind::RequestServed`] event per web request. Off by
    /// default: at experiment scale these dominate the ring and evict the
    /// control-plane events the trace exists for.
    pub trace_requests: bool,
    /// Window length of the counter time series (hit rate, DB load, bytes
    /// migrated per window).
    pub sample_every: SimTime,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            trace_capacity: 65_536,
            trace_requests: false,
            sample_every: SimTime::from_secs(1),
        }
    }
}

/// A bounded ring buffer of [`Event`]s with monotone sequence numbers.
///
/// # Example
///
/// ```
/// use elmem_util::telemetry::{EventKind, EventTrace};
/// use elmem_util::{NodeId, SimTime};
///
/// let mut t = EventTrace::with_capacity(2);
/// t.record(SimTime::from_secs(1), Some(NodeId(0)), EventKind::RequestTimeout);
/// t.record(SimTime::from_secs(2), Some(NodeId(0)), EventKind::FastFailover);
/// t.record(SimTime::from_secs(3), None, EventKind::MembershipCommitted { members: 3 });
/// assert_eq!(t.len(), 2, "capacity 2: oldest dropped");
/// assert_eq!(t.dropped(), 1);
/// assert_eq!(t.recorded(), 3);
/// assert_eq!(t.events().next().unwrap().seq, 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct EventTrace {
    capacity: usize,
    next_seq: u64,
    dropped: u64,
    events: VecDeque<Event>,
}

impl EventTrace {
    /// A trace holding at most `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        EventTrace {
            capacity,
            next_seq: 0,
            dropped: 0,
            events: VecDeque::with_capacity(capacity.min(4096)),
        }
    }

    /// Records one event. When the ring is full the oldest event is
    /// dropped; with capacity 0 nothing is ever retained.
    pub fn record(&mut self, at: SimTime, node: Option<NodeId>, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(Event {
            seq,
            at,
            node,
            kind,
        });
    }

    /// Retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.events.iter()
    }

    /// Retained events as a vector, oldest first.
    pub fn to_vec(&self) -> Vec<Event> {
        self.events.iter().copied().collect()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events dropped by the ring (recorded − retained).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total events ever recorded (the next sequence number).
    pub fn recorded(&self) -> u64 {
        self.next_seq
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

/// Appends a JSON array of events (one flat object each) to `out`.
pub fn write_events_json(out: &mut String, events: &[Event]) {
    out.push('[');
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        e.write_json(out);
    }
    out.push(']');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_layout_is_exhaustive_and_ordered() {
        // Every index round-trips: lower(i) maps back to i, bounds nest.
        for i in 0..NUM_BUCKETS {
            let lo = bucket_lower(i);
            let hi = bucket_upper(i);
            assert_eq!(bucket_index(lo), i, "lower bound of bucket {i}");
            assert_eq!(bucket_index(hi), i, "upper bound of bucket {i}");
            assert!(lo <= hi);
            if i + 1 < NUM_BUCKETS {
                assert_eq!(
                    bucket_lower(i + 1),
                    hi.checked_add(1).unwrap(),
                    "buckets {i},{} must tile without gaps",
                    i + 1
                );
            }
        }
        assert_eq!(bucket_upper(NUM_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn bucket_relative_error_is_bounded() {
        for v in [1u64, 31, 32, 33, 1_000, 123_456_789, u64::MAX / 3] {
            let i = bucket_index(v);
            let width = bucket_width(i);
            assert!(
                width == 1 || width <= v / (SUBS - 1) + 1,
                "bucket width {width} too coarse for {v}"
            );
        }
    }

    #[test]
    fn histogram_records_and_reports_quantiles() {
        let mut h = LatencyHistogram::new();
        for v in 1..=1000u64 {
            h.record(v * 1000);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.min(), 1000);
        assert_eq!(h.max(), 1_000_000);
        let p50 = h.p50();
        let exact = 500_000u64;
        assert!(p50 >= exact && p50 - exact <= bucket_width(bucket_index(p50)));
        assert!(h.p95() >= 950_000);
        assert!(h.p99() >= 990_000);
        assert_eq!(h.value_at_quantile(1.0), 1_000_000);
    }

    #[test]
    fn histogram_empty_is_all_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.p95(), 0);
    }

    #[test]
    fn merge_is_exact() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut both = LatencyHistogram::new();
        for v in [5u64, 100, 10_000, 77] {
            a.record(v);
            both.record(v);
        }
        for v in [9u64, 1_000_000, 42] {
            b.record(v);
            both.record(v);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged, both, "merge must equal recording the union");
    }

    #[test]
    fn quantile_is_monotone() {
        let mut h = LatencyHistogram::new();
        for v in [3u64, 9, 27, 81, 243, 729, 2187] {
            h.record(v);
        }
        let mut last = 0u64;
        for i in 0..=20 {
            let q = i as f64 / 20.0;
            let v = h.value_at_quantile(q);
            assert!(v >= last, "quantile must be monotone ({q}: {v} < {last})");
            last = v;
        }
    }

    #[test]
    fn trace_ring_drops_oldest() {
        let mut t = EventTrace::with_capacity(3);
        for s in 0..5 {
            t.record(SimTime::from_secs(s), None, EventKind::RequestTimeout);
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.dropped(), 2);
        assert_eq!(t.recorded(), 5);
        let seqs: Vec<u64> = t.events().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
    }

    #[test]
    fn zero_capacity_trace_retains_nothing() {
        let mut t = EventTrace::with_capacity(0);
        t.record(SimTime::ZERO, None, EventKind::RequestTimeout);
        assert!(t.is_empty());
        assert_eq!(t.dropped(), 1);
        assert_eq!(t.recorded(), 1);
    }

    #[test]
    fn event_json_is_flat_and_stable() {
        let e = Event {
            seq: 7,
            at: SimTime::from_millis(1500),
            node: Some(NodeId(3)),
            kind: EventKind::BreakerTransition {
                from: BreakerState::Closed,
                to: BreakerState::Open,
            },
        };
        let mut s = String::new();
        e.write_json(&mut s);
        assert_eq!(
            s,
            "{\"seq\":7,\"t_ns\":1500000000,\"node\":3,\
             \"kind\":\"breaker_transition\",\"from\":\"closed\",\"to\":\"open\"}"
        );
    }

    #[test]
    fn state_labels_are_pinned_and_phases_parse_in_paper_order() {
        // Every label a dump or the journal writes: changing one breaks
        // the goldens and every journal written before.
        let labels = [
            (BreakerState::Closed.label(), "closed"),
            (BreakerState::Open.label(), "open"),
            (BreakerState::HalfOpen.label(), "half_open"),
            (ProbeOutcome::Ack.label(), "ack"),
            (ProbeOutcome::Degraded.label(), "degraded"),
            (ProbeOutcome::Lost.label(), "lost"),
            (
                MigrationPhase::MetadataTransfer.label(),
                "metadata_transfer",
            ),
            (
                MigrationPhase::HotnessComparison.label(),
                "hotness_comparison",
            ),
            (MigrationPhase::DataMigration.label(), "data_migration"),
        ];
        for (got, want) in labels {
            assert_eq!(got, want);
        }
        let phases = [
            MigrationPhase::MetadataTransfer,
            MigrationPhase::HotnessComparison,
            MigrationPhase::DataMigration,
        ];
        // §III-D order: a journal's furthest phase is the maximum.
        assert!(phases.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn histogram_json_contains_summary_and_sparse_buckets() {
        let mut h = LatencyHistogram::new();
        h.record(10);
        h.record(10);
        h.record(1000);
        let json = h.to_json();
        assert!(json.starts_with("{\"count\":3,\"sum_ns\":1020,\"min_ns\":10,\"max_ns\":1000"));
        assert!(
            json.contains("[10,2]"),
            "bucket 10 holds two values: {json}"
        );
        assert!(json.ends_with("]}"));
    }

    #[test]
    fn events_json_array() {
        let events = vec![
            Event {
                seq: 0,
                at: SimTime::ZERO,
                node: None,
                kind: EventKind::MembershipCommitted { members: 4 },
            },
            Event {
                seq: 1,
                at: SimTime::from_secs(1),
                node: Some(NodeId(1)),
                kind: EventKind::Probe {
                    outcome: ProbeOutcome::Lost,
                },
            },
        ];
        let mut s = String::new();
        write_events_json(&mut s, &events);
        assert!(s.starts_with('['));
        assert!(s.ends_with(']'));
        assert!(s.contains("\"members\":4"));
        assert!(s.contains("\"outcome\":\"lost\""));
    }
}
