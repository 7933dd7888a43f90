//! Chaos-engine integration: schedule serialization, the committed
//! regression fixture, shrinker determinism, and breaker legality under a
//! flapping link (DESIGN.md §12).

use elmem_cluster::{Cluster, ClusterConfig};
use elmem_core::chaos::run_chaos;
use elmem_sim::chaos::{shrink, ChaosPlan};
use elmem_sim::FaultPlan;
use elmem_util::par::with_par_jobs;
use elmem_util::telemetry::{BreakerState, EventKind};
use elmem_util::{DetRng, KeyId, NodeId, SimTime};
use elmem_workload::Keyspace;

fn fixture_text() -> String {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/fixtures/chaos_regression.json"
    );
    std::fs::read_to_string(path).expect("read chaos regression fixture")
}

fn fixture_plan() -> ChaosPlan {
    ChaosPlan::parse_json(fixture_text().trim_end()).expect("fixture parses")
}

/// The fixture is the canonical serialization of its own seed: parsing
/// and reserializing it is byte-identical, and the generator still
/// produces exactly this plan. (Regenerate the fixture deliberately if
/// the generator or the JSON format changes.)
#[test]
fn fixture_round_trips_byte_identically() {
    let text = fixture_text();
    let trimmed = text.trim_end();
    let plan = ChaosPlan::parse_json(trimmed).expect("fixture parses");
    assert_eq!(
        plan.to_json(),
        trimmed,
        "reserialization must be byte-identical"
    );
    assert_eq!(
        ChaosPlan::generate(plan.seed).to_json(),
        trimmed,
        "generator drifted from the committed fixture"
    );
}

/// Replaying the committed schedule violates no invariant, and the replay
/// is deterministic down to the telemetry bytes.
#[test]
fn fixture_replays_clean_and_deterministically() {
    let plan = fixture_plan();
    let a = run_chaos(&plan);
    assert!(a.passed(), "violations: {:?}", a.violations);
    let b = run_chaos(&plan);
    assert_eq!(
        a.result.telemetry.to_json(),
        b.result.telemetry.to_json(),
        "same schedule must replay byte-identically"
    );
}

/// Feeding the shrinker a deliberately "failing" predicate (the run pays
/// at least one client timeout — true for the fixture, whose schedule
/// crashes nodes) minimizes to the same plan on every run and at every
/// worker count.
#[test]
fn shrinker_is_deterministic_across_worker_counts() {
    let plan = fixture_plan();
    let fails = |p: &ChaosPlan| run_chaos(p).result.client_timeouts > 0;
    assert!(fails(&plan), "predicate must hold for the full schedule");

    let serial = with_par_jobs(1, || shrink(&plan, fails));
    let serial_again = with_par_jobs(1, || shrink(&plan, fails));
    let parallel = with_par_jobs(4, || shrink(&plan, fails));

    assert!(fails(&serial), "minimal plan must still fail");
    assert_eq!(
        serial.to_json(),
        serial_again.to_json(),
        "shrinking must be run-to-run deterministic"
    );
    assert_eq!(
        serial.to_json(),
        parallel.to_json(),
        "shrinking must not depend on the planner worker count"
    );
    // It genuinely minimized: a single fault explains a client timeout.
    assert_eq!(serial.faults.scheduled().len(), 1);
    assert!(serial.actions.is_empty());
}

/// A flapping link walks the breaker through every legal edge —
/// closed→open on the timeout streak, open→half-open at each cooldown,
/// half-open→open when the probe fails into the second outage,
/// half-open→closed when the probe finally lands — and nothing else.
#[test]
fn breaker_survives_flapping_link_through_legal_edges() {
    let mut c = Cluster::new(
        ClusterConfig::small_test(),
        Keyspace::new(10_000, 0),
        DetRng::seed(1),
    );
    // Raw clusters start with tracing off; the edge assertions need it.
    c.set_telemetry_config(&elmem_util::TelemetryConfig::default());
    let victim = NodeId(0);
    let key = (0..10_000)
        .map(KeyId)
        .find(|&k| c.tier.node_for_key(k) == Some(victim))
        .expect("some key hashes to the victim");

    // Outage 1: three timeouts trip the breaker (threshold 3).
    c.tier
        .node_mut(victim)
        .unwrap()
        .link
        .partition_until(SimTime::from_secs(4));
    for s in 0..3 {
        c.lookup_and_fill(key, SimTime::from_secs(s));
    }
    // Open breaker fails fast inside the cooldown.
    c.lookup_and_fill(key, SimTime::from_secs(3));
    assert_eq!(c.fast_failovers(), 1);
    // Outage 2 begins before the cooldown's half-open probe, which
    // therefore fails and re-opens the breaker.
    c.tier
        .node_mut(victim)
        .unwrap()
        .link
        .partition_until(SimTime::from_secs(12));
    c.lookup_and_fill(key, SimTime::from_secs(8));
    // The link has healed when the next cooldown is over: the probe
    // succeeds and the breaker closes.
    c.lookup_and_fill(key, SimTime::from_secs(14));

    let edges: Vec<(BreakerState, BreakerState)> = c
        .telemetry()
        .trace
        .events()
        .filter(|e| e.node == Some(victim))
        .filter_map(|e| match e.kind {
            EventKind::BreakerTransition { from, to } => Some((from, to)),
            _ => None,
        })
        .collect();
    assert_eq!(
        edges,
        vec![
            (BreakerState::Closed, BreakerState::Open),
            (BreakerState::Open, BreakerState::HalfOpen),
            (BreakerState::HalfOpen, BreakerState::Open),
            (BreakerState::Open, BreakerState::HalfOpen),
            (BreakerState::HalfOpen, BreakerState::Closed),
        ],
        "flapping link must walk exactly the legal breaker edges"
    );
    // The chain is well-formed: each edge leaves where the next picks up.
    for w in edges.windows(2) {
        assert_eq!(w[0].1, w[1].0);
    }
}

/// An empty fault plan serializes and parses back to itself — the
/// degenerate end of the schedule-JSON space the shrinker drives toward.
#[test]
fn empty_fault_plan_round_trips() {
    let plan = FaultPlan::new();
    let json = plan.to_json();
    let back = FaultPlan::from_json(
        &elmem_util::json::JsonValue::parse(&json).expect("serialized plan parses"),
    )
    .expect("empty plan converts");
    assert_eq!(back.to_json(), json);
}
