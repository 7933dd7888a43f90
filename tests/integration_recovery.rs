//! End-to-end self-healing: a crash mid-run must be detected within the
//! suspicion window, the corpse evicted, and — with a warmed replacement —
//! the hit rate restored measurably faster than with eviction alone.
//! Without healing, the dead node stays in the ring and its keyspace slice
//! pays client timeouts (bounded by the circuit breaker) forever.

use elmem::cluster::ClusterConfig;
use elmem::core::healing::{PROBE_INTERVAL, PROBE_JITTER, SUSPICION_THRESHOLD};
use elmem::core::migration::MigrationCosts;
use elmem::core::{
    run_experiment, ExperimentConfig, ExperimentResult, FaultPlan, HealingConfig, MigrationPolicy,
};
use elmem::util::{NodeId, SimTime};
use elmem::workload::{DemandTrace, Keyspace, WorkloadConfig};

const CRASH_S: u64 = 30;
const RUN_SECS: usize = 13; // 13 × 10 s segments = 130 s

fn config(healing: Option<HealingConfig>) -> ExperimentConfig {
    ExperimentConfig {
        cluster: ClusterConfig::small_test(),
        workload: WorkloadConfig {
            // ~30 k ETC-sized keys against 4 × 4 MiB nodes: the working
            // set needs all four nodes, so the capacity a replacement
            // restores is visible in the steady-state hit rate.
            keyspace: Keyspace::new(30_000, 2),
            zipf_exponent: 1.0,
            items_per_request: 3,
            peak_rate: 250.0,
            trace: DemandTrace::new(vec![1.0; RUN_SECS], SimTime::from_secs(10)),
        },
        policy: MigrationPolicy::elmem(),
        autoscaler: None,
        scheduled: vec![],
        prefill_top_ranks: 15_000,
        costs: MigrationCosts::default(),
        faults: FaultPlan::new().crash(SimTime::from_secs(CRASH_S), NodeId(1)),
        healing,
        master: Default::default(),
        seed: 2,
    }
}

/// Mean hit rate over `[from, to)` seconds of the timeline.
fn hit_rate(r: &ExperimentResult, from: u64, to: u64) -> f64 {
    let pts: Vec<_> = r
        .timeline
        .iter()
        .filter(|p| p.second >= from && p.second < to && p.requests > 0)
        .collect();
    pts.iter().map(|p| p.hit_rate).sum::<f64>() / pts.len().max(1) as f64
}

#[test]
fn without_healing_the_corpse_stays_and_clients_pay_timeouts() {
    let r = run_experiment(config(None));
    assert!(r.recoveries.is_empty());
    assert_eq!(r.final_members, 4, "nobody evicts the dead node");
    assert!(r.client_timeouts > 0, "dead-node lookups cost the timeout");
    assert!(
        r.fast_failovers > r.client_timeouts,
        "the breaker must absorb most of the failures ({} timeouts, {} fast)",
        r.client_timeouts,
        r.fast_failovers
    );
    assert!(
        r.breaker_transitions >= 2,
        "closed -> open, then half-open probes"
    );
    assert_eq!(r.probes_sent, 0, "no detector configured");
}

#[test]
fn crash_is_detected_within_the_suspicion_window_and_evicted() {
    let healing = HealingConfig::evict_only();
    let r = run_experiment(config(Some(healing)));
    assert_eq!(r.recoveries.len(), 1);
    let rec = &r.recoveries[0];
    assert_eq!(rec.node, NodeId(1));
    assert_eq!(rec.crashed_at, Some(SimTime::from_secs(CRASH_S)));
    // Threshold lost probes at interval+jitter each, plus one round of
    // phase alignment: the suspicion window.
    let window = (PROBE_INTERVAL + PROBE_JITTER) * u64::from(SUSPICION_THRESHOLD + 1);
    let latency = rec.detection_latency().expect("crash time known");
    assert!(
        latency <= window,
        "detection took {latency}, window is {window}"
    );
    assert!(rec.replacement.is_none());
    assert!(!rec.warmed);
    assert_eq!(r.final_members, 3, "evicted, not replaced");
    assert!(r.probes_sent > 0);
    // Eviction caps the timeout bill: far fewer than the unhealed run.
    let unhealed = run_experiment(config(None));
    assert!(
        r.client_timeouts < unhealed.client_timeouts,
        "eviction must stop the timeout bleed ({} vs {})",
        r.client_timeouts,
        unhealed.client_timeouts
    );
}

#[test]
fn warm_replacement_restores_capacity_and_beats_evict_only() {
    let warm = run_experiment(config(Some(HealingConfig::warm_replacement())));
    assert_eq!(warm.recoveries.len(), 1);
    let rec = &warm.recoveries[0];
    let replacement = rec.replacement.expect("one-for-one replacement");
    assert!(rec.warmed);
    assert!(
        rec.recovered_at > rec.confirmed_at,
        "warmup takes time before the membership flip"
    );
    assert_eq!(warm.final_members, 4, "capacity restored");
    assert_ne!(replacement, NodeId(1), "a fresh node, not the corpse");

    let evict = run_experiment(config(Some(HealingConfig::evict_only())));
    let none = run_experiment(config(None));
    // Steady state after every recovery settled: the warmed tier serves
    // more from cache than the shrunken one, which beats the unhealed one.
    let tail = |r: &ExperimentResult| hit_rate(r, 70, 130);
    assert!(
        tail(&warm) > tail(&evict),
        "restored capacity must show in the tail hit rate ({} vs {})",
        tail(&warm),
        tail(&evict)
    );
    assert!(
        tail(&evict) > tail(&none),
        "evicting the corpse must beat leaving it ({} vs {})",
        tail(&evict),
        tail(&none)
    );
}

#[test]
fn healing_timelines_are_bit_reproducible() {
    let a = run_experiment(config(Some(HealingConfig::warm_replacement())));
    let b = run_experiment(config(Some(HealingConfig::warm_replacement())));
    assert_eq!(a.timeline, b.timeline);
    assert_eq!(a.recoveries, b.recoveries);
    assert_eq!(a.client_timeouts, b.client_timeouts);
    assert_eq!(a.fast_failovers, b.fast_failovers);
    assert_eq!(a.breaker_transitions, b.breaker_transitions);
    assert_eq!(a.probes_sent, b.probes_sent);
    assert_eq!(a.total_requests, b.total_requests);
}
