//! Property tests: the exact engine matches a brute-force reference and a
//! literal LRU stack, and hit-rate curves are sane.

use std::collections::HashSet;

use elmem_stackdist::{ExactStackDistance, HitRateCurve};
use elmem_util::KeyId;
use proptest::prelude::*;

fn brute_force(trace: &[(u64, u64)]) -> Vec<Option<u64>> {
    let mut out = Vec::new();
    for (i, &(key, bytes)) in trace.iter().enumerate() {
        match trace[..i].iter().rposition(|&(k, _)| k == key) {
            None => out.push(None),
            Some(p) => {
                let mut seen: HashSet<u64> = HashSet::new();
                let mut sum = 0u64;
                for &(k, b) in trace[p + 1..i].iter().rev() {
                    if k != key && seen.insert(k) {
                        sum += b;
                    }
                }
                out.push(Some(sum + bytes));
            }
        }
    }
    out
}

/// Mattson's LRU stack, literally: keys most recent last, a re-access's
/// distance the bytes above it plus its new size. Returns the distances and
/// the final stack, which is the recency hand-off order.
fn lru_stack(trace: &[(u64, u64)]) -> (Vec<Option<u64>>, Vec<(KeyId, u64)>) {
    let mut stack: Vec<(KeyId, u64)> = Vec::new();
    let distances = trace
        .iter()
        .map(|&(key, bytes)| {
            let key = KeyId(key);
            let d = stack.iter().rposition(|&(k, _)| k == key).map(|i| {
                stack.remove(i);
                stack[i..].iter().map(|&(_, b)| b).sum::<u64>() + bytes
            });
            stack.push((key, bytes));
            d
        })
        .collect();
    (distances, stack)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    /// Traces long enough to compact and grow the position array, over a
    /// hot core and a tail of sparse ids: every distance and the recency
    /// hand-off equal the LRU stack's.
    #[test]
    fn exact_matches_the_lru_stack_across_rebuilds(
        trace in prop::collection::vec((any::<bool>(), 0u64..1_500, 1u64..5_000), 1_500..4_000),
        stride in 1u64..1_000,
    ) {
        let trace: Vec<(u64, u64)> = trace
            .into_iter()
            .map(|(hot, k, b)| (if hot { k % 40 } else { k } * stride, b))
            .collect();
        let (distances, stack) = lru_stack(&trace);
        let mut e = ExactStackDistance::new();
        let got: Vec<Option<u64>> =
            trace.iter().map(|&(k, b)| e.record(KeyId(k), b)).collect();
        prop_assert_eq!(got, distances);
        prop_assert_eq!(e.unique_keys(), stack.len());
        prop_assert_eq!(e.entries_by_recency(), stack);
    }
}

proptest! {
    /// Exact engine agrees with the quadratic reference on arbitrary traces.
    #[test]
    fn exact_matches_reference(
        trace in prop::collection::vec((0u64..40, 1u64..500), 0..250)
    ) {
        let mut e = ExactStackDistance::new();
        let got: Vec<Option<u64>> =
            trace.iter().map(|&(k, b)| e.record(KeyId(k), b)).collect();
        prop_assert_eq!(got, brute_force(&trace));
    }

    /// Hit rate is monotone non-decreasing in capacity and bounded by the
    /// warm fraction.
    #[test]
    fn curve_monotone_and_bounded(
        trace in prop::collection::vec((0u64..40, 1u64..500), 1..250)
    ) {
        let mut e = ExactStackDistance::new();
        let dists: Vec<Option<u64>> =
            trace.iter().map(|&(k, b)| e.record(KeyId(k), b)).collect();
        let curve = HitRateCurve::from_distances(&dists);
        let mut prev = -1.0f64;
        for cap in (0..30_000).step_by(997) {
            let h = curve.hit_rate_at(cap);
            prop_assert!(h >= prev);
            prop_assert!(h <= curve.max_hit_rate() + 1e-12);
            prev = h;
        }
    }

    /// memory_for_hit_rate returns the *smallest* sufficient capacity.
    #[test]
    fn memory_query_is_tight(
        trace in prop::collection::vec((0u64..20, 1u64..100), 2..200),
        pct in 1u32..=100,
    ) {
        let mut e = ExactStackDistance::new();
        let dists: Vec<Option<u64>> =
            trace.iter().map(|&(k, b)| e.record(KeyId(k), b)).collect();
        let curve = HitRateCurve::from_distances(&dists);
        let p = f64::from(pct) / 100.0;
        if let Some(mem) = curve.memory_for_hit_rate(p) {
            prop_assert!(curve.hit_rate_at(mem.as_u64()) >= p);
            if mem.as_u64() > 0 {
                prop_assert!(curve.hit_rate_at(mem.as_u64() - 1) < p);
            }
        } else {
            prop_assert!(curve.max_hit_rate() < p);
        }
    }
}
