//! Order statistics for repetition times and calibration tables.
//!
//! Two conventions live here on purpose. Repetition times use the
//! nearest-rank quantile (every reported value is a repetition that
//! actually ran). The calibration table uses the quartiles of Python's
//! `statistics.quantiles(values, n=4)`, because that is what the pipeline
//! computes when it judges the benchmark's spread.

/// Nearest-rank `q`-quantile of an ascending-sorted slice: the value at
/// rank `ceil(q * n)`, clamped to `1..=n`. `None` for an empty slice.
pub fn nearest_rank(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// Quantiles of one run's repetition (or probe, or build) times.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p10: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Summary {
    /// Nearest-rank p10 / q1 / median / q3 of `values` (any order).
    ///
    /// # Panics
    ///
    /// Panics on an empty slice: every caller times at least one repetition.
    pub fn of(values: &[f64]) -> Summary {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let q = |q| nearest_rank(&sorted, q).expect("summary of no samples");
        Summary {
            n: sorted.len(),
            p10: q(0.10),
            q1: q(0.25),
            median: q(0.50),
            q3: q(0.75),
        }
    }

    /// Interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median
    }
}

/// `(q1, median, q3)` as Python's `statistics.quantiles(values, n=4)`
/// (the default "exclusive" method) and `statistics.median` give them.
/// `None` below two values, where Python raises.
pub fn python_quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    let median = if n % 2 == 1 {
        data[n / 2]
    } else {
        (data[n / 2 - 1] + data[n / 2]) / 2.0
    };
    Some((cut(1), median, cut(3)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_hand_cases() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 0.10), Some(1.0));
        assert_eq!(nearest_rank(&v, 0.11), Some(2.0));
        assert_eq!(nearest_rank(&v, 0.50), Some(5.0));
        assert_eq!(nearest_rank(&v, 0.95), Some(10.0));
        assert_eq!(nearest_rank(&v, 0.0), Some(1.0));
        assert_eq!(nearest_rank(&v, 1.0), Some(10.0));
        assert_eq!(nearest_rank(&[7.5], 0.10), Some(7.5));
        assert_eq!(nearest_rank(&[], 0.5), None);
    }

    #[test]
    fn summary_sorts_and_picks_low_quantile() {
        // 20 values: p10 is the 2nd smallest, median the 10th, q3 the 15th.
        let v: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!(
            (s.n, s.p10, s.q1, s.median, s.q3),
            (20, 2.0, 5.0, 10.0, 15.0)
        );
        assert!((s.spread() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn p10_ignores_one_sided_interference() {
        // Nine clean repetitions and eleven slowed ones: the median moves,
        // the low quantile does not.
        let mut v = vec![1.0; 9];
        v.extend(vec![1.4; 11]);
        let s = Summary::of(&v);
        assert_eq!(s.p10, 1.0);
        assert_eq!(s.median, 1.4);
    }

    #[test]
    fn python_quartiles_match_cpython() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(python_quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(
            python_quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]),
            Some((1.5, 4.0, 12.0))
        );
        // statistics.quantiles([3, 5], n=4) == [2.5, 4.0, 5.5]
        assert_eq!(python_quartiles(&[3.0, 5.0]), Some((2.5, 4.0, 5.5)));
        assert_eq!(python_quartiles(&[3.0]), None);
    }
}
