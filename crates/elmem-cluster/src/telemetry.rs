//! Serving-path telemetry: per-command latency histograms, per-node
//! counters, and serving-path events feeding the shared [`EventTrace`].
//!
//! The [`Cluster`](crate::Cluster) owns one [`ClusterTelemetry`] and feeds
//! it from the lookup path: every `get` lands in exactly one of the
//! `get_hit` / `get_miss` / `timeout_path` histograms, every request's
//! response time lands in `request_rt`, and per-node counters track where
//! hits and failures concentrate. Serving-path *events* — client timeouts,
//! fast failovers and circuit-breaker transitions — go into the same trace
//! the control plane writes to, so a dump interleaves "breaker opened on
//! node 1" with "migration phase 2 started" on one clock.
//!
//! Histograms are always recorded (they are cheap and deterministic);
//! events respect [`TelemetryConfig::trace_capacity`], with capacity 0 —
//! the default for a bare `Cluster::new` — tracing nothing.

use elmem_util::telemetry::{BreakerState, EventKind, EventTrace};
use elmem_util::{LatencyHistogram, NodeId, NodeMap, SimTime, TelemetryConfig};

/// Where one cache lookup ended up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LookupClass {
    /// Answered from cache (primary or promoted secondary).
    Hit,
    /// Missed and fetched from the database.
    Miss,
    /// The owner was unreachable: timeout-and-failover path.
    Failover,
}

/// Per-node serving counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeCounters {
    /// Cache lookups routed to the node.
    pub lookups: u64,
    /// Lookups answered from cache.
    pub hits: u64,
    /// Lookups that paid the full client timeout.
    pub timeouts: u64,
    /// Lookups that failed over instantly on an open breaker.
    pub fast_failovers: u64,
}

/// The serving path's telemetry sink.
#[derive(Debug, Clone, Default)]
pub struct ClusterTelemetry {
    /// The shared event trace (serving path + control plane).
    pub trace: EventTrace,
    /// Response time of whole web requests (overhead + mean item latency).
    pub request_rt: LatencyHistogram,
    /// Latency of lookups answered from cache.
    pub get_hit: LatencyHistogram,
    /// Latency of lookups that missed and fetched from the database.
    pub get_miss: LatencyHistogram,
    /// Latency of lookups whose owner was unreachable (timeout/failover).
    pub timeout_path: LatencyHistogram,
    /// Per-node counters, id-indexed (ascending-id iteration, exactly
    /// like the `BTreeMap` this replaced; bumped on every lookup).
    pub per_node: NodeMap<NodeCounters>,
}

impl ClusterTelemetry {
    /// Re-arms the trace with the given capacity. Existing histogram
    /// contents are kept; the trace restarts empty.
    pub fn configure(&mut self, config: &TelemetryConfig) {
        self.trace = EventTrace::with_capacity(config.trace_capacity);
    }

    /// Counters for one node (zeroes if it never served a lookup).
    pub fn node_counters(&self, node: NodeId) -> NodeCounters {
        self.per_node.get(node).copied().unwrap_or_default()
    }

    #[inline]
    fn node_mut(&mut self, node: NodeId) -> &mut NodeCounters {
        self.per_node
            .get_or_insert_with(node, NodeCounters::default)
    }

    /// Records one classified lookup: its latency into the matching
    /// histogram and, when it was routed to a node, that node's counters.
    #[inline]
    pub fn on_lookup(&mut self, node: Option<NodeId>, class: LookupClass, latency: SimTime) {
        match class {
            LookupClass::Hit => self.get_hit.record_time(latency),
            LookupClass::Miss => self.get_miss.record_time(latency),
            LookupClass::Failover => self.timeout_path.record_time(latency),
        }
        if let Some(node) = node {
            let c = self.node_mut(node);
            c.lookups += 1;
            if class == LookupClass::Hit {
                c.hits += 1;
            }
        }
    }

    /// Records a lookup that paid the full client timeout against `node`.
    pub fn on_client_timeout(&mut self, at: SimTime, node: NodeId) {
        self.node_mut(node).timeouts += 1;
        self.trace.record(at, Some(node), EventKind::RequestTimeout);
    }

    /// Records a lookup that failed over instantly on an open breaker.
    pub fn on_fast_failover(&mut self, at: SimTime, node: NodeId) {
        self.node_mut(node).fast_failovers += 1;
        self.trace.record(at, Some(node), EventKind::FastFailover);
    }

    /// Records one served web request's response time.
    #[inline]
    pub fn on_request(&mut self, rt: SimTime) {
        self.request_rt.record_time(rt);
    }

    /// Records a breaker state change as an event (no-op when unchanged).
    pub fn on_breaker(&mut self, at: SimTime, node: NodeId, from: BreakerState, to: BreakerState) {
        if from != to {
            self.trace
                .record(at, Some(node), EventKind::BreakerTransition { from, to });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookups_land_in_exactly_one_histogram() {
        let mut t = ClusterTelemetry::default();
        t.on_lookup(Some(NodeId(0)), LookupClass::Hit, SimTime::from_micros(100));
        t.on_lookup(Some(NodeId(0)), LookupClass::Miss, SimTime::from_millis(5));
        t.on_lookup(
            Some(NodeId(1)),
            LookupClass::Failover,
            SimTime::from_millis(50),
        );
        assert_eq!(t.get_hit.count(), 1);
        assert_eq!(t.get_miss.count(), 1);
        assert_eq!(t.timeout_path.count(), 1);
        assert_eq!(t.node_counters(NodeId(0)).lookups, 2);
        assert_eq!(t.node_counters(NodeId(0)).hits, 1);
        assert_eq!(t.node_counters(NodeId(1)).lookups, 1);
    }

    #[test]
    fn breaker_event_only_on_change() {
        let mut t = ClusterTelemetry::default();
        t.configure(&TelemetryConfig::default());
        t.on_breaker(
            SimTime::ZERO,
            NodeId(0),
            BreakerState::Closed,
            BreakerState::Closed,
        );
        assert!(t.trace.is_empty());
        t.on_breaker(
            SimTime::ZERO,
            NodeId(0),
            BreakerState::Closed,
            BreakerState::Open,
        );
        assert_eq!(t.trace.len(), 1);
    }

    #[test]
    fn default_trace_capacity_is_zero() {
        let mut t = ClusterTelemetry::default();
        t.on_client_timeout(SimTime::ZERO, NodeId(0));
        assert!(t.trace.is_empty(), "untraced cluster retains no events");
        assert_eq!(
            t.node_counters(NodeId(0)).timeouts,
            1,
            "counters still count"
        );
    }
}
