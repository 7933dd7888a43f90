//! Property tests for the telemetry primitives: the log-bucketed latency
//! histogram's merge is associative and commutative (merging dumps from
//! different nodes in any order gives the same tier-wide histogram), its
//! quantiles are monotone, the reported quantile overshoots the exact
//! nearest-rank value by at most one bucket width, and an end-to-end run
//! records exactly one request-latency sample per request served.

use elmem::cluster::ClusterConfig;
use elmem::core::migration::MigrationCosts;
use elmem::core::{run_experiment, ExperimentConfig, FaultPlan, MigrationPolicy, ScaleAction};
use elmem::util::telemetry::{bucket_index, bucket_width};
use elmem::util::{LatencyHistogram, SimTime};
use elmem::workload::{DemandTrace, Keyspace, WorkloadConfig};
use proptest::collection::vec;
use proptest::prelude::*;

fn histogram(values: &[u64]) -> LatencyHistogram {
    let mut h = LatencyHistogram::new();
    for &v in values {
        h.record(v);
    }
    h
}

/// Latency-like values spanning the whole bucket layout: sub-microsecond
/// to ~18 s, plus the u64 extremes.
fn value() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..64,
        1_000u64..1_000_000,
        1_000_000u64..60_000_000_000,
        Just(u64::MAX),
    ]
}

proptest! {
    #[test]
    fn merge_is_commutative(a in vec(value(), 0..200), b in vec(value(), 0..200)) {
        let (ha, hb) = (histogram(&a), histogram(&b));
        let mut ab = ha.clone();
        ab.merge(&hb);
        let mut ba = hb.clone();
        ba.merge(&ha);
        prop_assert_eq!(&ab, &ba);
        prop_assert_eq!(ab.to_json(), ba.to_json());
    }

    #[test]
    fn merge_is_associative(
        a in vec(value(), 0..150),
        b in vec(value(), 0..150),
        c in vec(value(), 0..150),
    ) {
        let (ha, hb, hc) = (histogram(&a), histogram(&b), histogram(&c));
        // (a ∪ b) ∪ c
        let mut left = ha.clone();
        left.merge(&hb);
        left.merge(&hc);
        // a ∪ (b ∪ c)
        let mut bc = hb.clone();
        bc.merge(&hc);
        let mut right = ha.clone();
        right.merge(&bc);
        prop_assert_eq!(&left, &right);
        // And both equal recording the concatenation directly.
        let mut all = a.clone();
        all.extend(&b);
        all.extend(&c);
        prop_assert_eq!(&left, &histogram(&all));
    }

    #[test]
    fn quantiles_are_monotone(values in vec(value(), 1..300)) {
        let h = histogram(&values);
        let qs: Vec<u64> = (0..=20).map(|i| h.value_at_quantile(i as f64 / 20.0)).collect();
        for w in qs.windows(2) {
            prop_assert!(w[0] <= w[1], "quantiles must be monotone: {:?}", qs);
        }
        prop_assert!(h.p50() <= h.p95() && h.p95() <= h.p99());
        prop_assert!(h.p99() <= h.max());
    }

    #[test]
    fn merged_quantile_error_is_within_one_bucket(
        a in vec(value(), 1..200),
        b in vec(value(), 1..200),
        q_milli in 0u64..=1000,
    ) {
        let q = q_milli as f64 / 1000.0;
        let mut merged = histogram(&a);
        merged.merge(&histogram(&b));
        // Exact nearest-rank quantile over the combined samples.
        let mut all: Vec<u64> = a.iter().chain(&b).copied().collect();
        all.sort_unstable();
        let rank = ((q * all.len() as f64).ceil() as usize).clamp(1, all.len());
        let exact = all[rank - 1];
        let approx = merged.value_at_quantile(q);
        prop_assert!(
            approx >= exact,
            "bucket upper bound must not undershoot: approx {approx} < exact {exact}"
        );
        prop_assert!(
            approx - exact <= bucket_width(bucket_index(exact)),
            "overshoot {} exceeds one bucket width {} at value {exact}",
            approx - exact,
            bucket_width(bucket_index(exact))
        );
    }
}

fn tiny_config(seed: u64) -> ExperimentConfig {
    ExperimentConfig {
        cluster: ClusterConfig::small_test(),
        workload: WorkloadConfig {
            keyspace: Keyspace::new(5_000, 3),
            zipf_exponent: 1.0,
            items_per_request: 2,
            peak_rate: 100.0,
            trace: DemandTrace::new(vec![1.0; 3], SimTime::from_secs(5)),
        },
        policy: MigrationPolicy::elmem(),
        autoscaler: None,
        scheduled: vec![(SimTime::from_secs(8), ScaleAction::In { count: 1 })],
        prefill_top_ranks: 2_000,
        costs: MigrationCosts::default(),
        faults: FaultPlan::new(),
        healing: None,
        master: Default::default(),
        seed,
    }
}

proptest! {
    // End-to-end runs are comparatively slow; a handful of seeds suffices
    // for a bookkeeping identity.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn request_histogram_count_equals_requests_issued(seed in 0u64..1_000) {
        let r = run_experiment(tiny_config(seed));
        prop_assert_eq!(r.telemetry.request_rt.count(), r.total_requests);
        // Every lookup lands in exactly one per-command histogram.
        let lookups: u64 = r.telemetry.series.iter().map(|p| p.lookups).sum();
        prop_assert_eq!(
            r.telemetry.get_hit.count()
                + r.telemetry.get_miss.count()
                + r.telemetry.timeout_path.count(),
            lookups
        );
        let requests: u64 = r.telemetry.series.iter().map(|p| p.requests).sum();
        prop_assert_eq!(requests, r.total_requests);
    }
}
