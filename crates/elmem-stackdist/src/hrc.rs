//! Hit-rate curves: from stack distances to "memory needed for hit rate p".

use elmem_util::ByteSize;
use serde::{Deserialize, Serialize};

/// A monotone hit-rate-vs-capacity curve built from observed stack
/// distances (§III-B: ElMem "uses the stack distance measure to derive the
/// memory capacity that achieves p_min").
///
/// For a trace of `N` requests of which `d_i` are the finite distances,
/// `hit_rate_at(C) = |{i : d_i <= C}| / N`; cold misses (infinite
/// distances) can never hit at any capacity.
///
/// # Example
///
/// ```
/// use elmem_stackdist::HitRateCurve;
///
/// let curve = HitRateCurve::from_distances(&[None, None, Some(100), Some(300)]);
/// assert_eq!(curve.hit_rate_at(99), 0.0);
/// assert_eq!(curve.hit_rate_at(100), 0.25);
/// assert_eq!(curve.hit_rate_at(300), 0.5);
/// assert_eq!(curve.max_hit_rate(), 0.5);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HitRateCurve {
    /// Sorted finite distances, bytes.
    distances: Vec<u64>,
    /// Total requests including cold misses.
    total: u64,
}

impl HitRateCurve {
    /// Builds a curve from per-request distances (`None` = cold miss).
    pub fn from_distances(distances: &[Option<u64>]) -> Self {
        let total = distances.len() as u64;
        let mut finite: Vec<u64> = distances.iter().filter_map(|d| *d).collect();
        finite.sort_unstable();
        HitRateCurve {
            distances: finite,
            total,
        }
    }

    /// Number of requests the curve was built from.
    pub fn total_requests(&self) -> u64 {
        self.total
    }

    /// Hit rate achievable with an LRU cache of `capacity_bytes`.
    pub fn hit_rate_at(&self, capacity_bytes: u64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let hits = self.distances.partition_point(|&d| d <= capacity_bytes);
        hits as f64 / self.total as f64
    }

    /// The best hit rate any capacity can achieve on this trace
    /// (1 − cold-miss fraction).
    pub fn max_hit_rate(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.distances.len() as f64 / self.total as f64
        }
    }

    /// The smallest capacity achieving hit rate `p`, or `None` if even an
    /// infinite cache cannot reach `p` on this trace.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `[0, 1]`.
    pub fn memory_for_hit_rate(&self, p: f64) -> Option<ByteSize> {
        assert!((0.0..=1.0).contains(&p), "hit rate out of range: {p}");
        if p <= 0.0 || self.total == 0 {
            return Some(ByteSize::ZERO);
        }
        let needed_hits = smallest_sufficient_rank(p, self.total);
        if needed_hits > self.distances.len() {
            return None;
        }
        Some(ByteSize(self.distances[needed_hits - 1]))
    }

    /// The paper's single-pass MIMIR-style output: memory needed for every
    /// integer hit-rate percentage `1..=100` (`None` where unreachable).
    pub fn memory_per_percent(&self) -> Vec<Option<ByteSize>> {
        (1..=100)
            .map(|pct| self.memory_for_hit_rate(f64::from(pct) / 100.0))
            .collect()
    }
}

/// The smallest `h` with `h / total >= p`, robust to floating-point noise
/// in `p * total` (e.g. `0.28 * 100` evaluating to `28.000…004`).
fn smallest_sufficient_rank(p: f64, total: u64) -> usize {
    let mut h = (p * total as f64).ceil() as usize;
    while h > 1 && (h - 1) as f64 / total as f64 >= p {
        h -= 1;
    }
    h.max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_curve() {
        let c = HitRateCurve::from_distances(&[]);
        assert_eq!(c.hit_rate_at(1_000_000), 0.0);
        assert_eq!(c.max_hit_rate(), 0.0);
        assert_eq!(c.memory_for_hit_rate(0.0), Some(ByteSize::ZERO));
    }

    #[test]
    fn all_cold_curve() {
        let c = HitRateCurve::from_distances(&[None, None, None]);
        assert_eq!(c.max_hit_rate(), 0.0);
        assert_eq!(c.memory_for_hit_rate(0.5), None);
    }

    #[test]
    fn monotone_in_capacity() {
        let dists: Vec<Option<u64>> = (0..100).map(|i| Some(i * 10)).collect();
        let c = HitRateCurve::from_distances(&dists);
        let mut prev = 0.0;
        for cap in (0..1200).step_by(50) {
            let h = c.hit_rate_at(cap);
            assert!(h >= prev);
            prev = h;
        }
    }

    #[test]
    fn memory_for_hit_rate_inverts_hit_rate_at() {
        let dists: Vec<Option<u64>> = (1..=100).map(|i| Some(i * 7)).collect();
        let c = HitRateCurve::from_distances(&dists);
        for pct in [1, 25, 50, 75, 100] {
            let p = f64::from(pct) / 100.0;
            let mem = c.memory_for_hit_rate(p).unwrap();
            assert!(c.hit_rate_at(mem.as_u64()) >= p);
            if mem.as_u64() > 0 {
                assert!(c.hit_rate_at(mem.as_u64() - 1) < p);
            }
        }
    }

    #[test]
    fn memory_per_percent_is_monotone() {
        let dists: Vec<Option<u64>> = (0..1000)
            .map(|i| if i % 10 == 0 { None } else { Some(i) })
            .collect();
        let c = HitRateCurve::from_distances(&dists);
        let per = c.memory_per_percent();
        assert_eq!(per.len(), 100);
        let mut prev = ByteSize::ZERO;
        for m in per.into_iter().flatten() {
            assert!(m >= prev);
            prev = m;
        }
    }

    #[test]
    #[should_panic]
    fn out_of_range_hit_rate_panics() {
        let c = HitRateCurve::from_distances(&[Some(1)]);
        let _ = c.memory_for_hit_rate(1.5);
    }
}
