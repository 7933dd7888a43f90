//! Generalized Pareto value-size distribution.
//!
//! §V-A2: "value sizes follow a Generalized Pareto distribution with scale
//! (σ) of 214.476 and shape (κ) of 0.348238, similar to the distribution
//! reported by Facebook \[12\]", with values ranging from 1 byte up to
//! ~1 MB (the slab cap).

/// Generalized Pareto distribution (location 0) sampled by inverse CDF.
///
/// `F⁻¹(u) = σ/κ · ((1-u)^{-κ} − 1)` for shape `κ ≠ 0`.
///
/// # Example
///
/// ```
/// use elmem_workload::GeneralizedPareto;
///
/// let gp = GeneralizedPareto::facebook_etc();
/// let size = gp.quantile(0.5);
/// assert!(size > 0.0 && size < 1000.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeneralizedPareto {
    /// Scale parameter σ > 0.
    pub scale: f64,
    /// Shape parameter κ.
    pub shape: f64,
}

impl GeneralizedPareto {
    /// The paper's Facebook-ETC parameters: σ = 214.476, κ = 0.348238.
    pub fn facebook_etc() -> Self {
        GeneralizedPareto {
            scale: 214.476,
            shape: 0.348238,
        }
    }

    /// Creates a distribution.
    ///
    /// # Panics
    ///
    /// Panics if `scale <= 0` or parameters are not finite.
    pub fn new(scale: f64, shape: f64) -> Self {
        assert!(scale > 0.0 && scale.is_finite(), "invalid scale {scale}");
        assert!(shape.is_finite(), "invalid shape {shape}");
        GeneralizedPareto { scale, shape }
    }

    /// The `u`-quantile (inverse CDF), `u ∈ [0, 1)`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is outside `[0, 1)`.
    pub fn quantile(&self, u: f64) -> f64 {
        assert!((0.0..1.0).contains(&u), "quantile arg out of range: {u}");
        if self.shape.abs() < 1e-12 {
            // κ → 0 limit: exponential with mean σ.
            -self.scale * (1.0 - u).ln()
        } else {
            self.scale / self.shape * ((1.0 - u).powf(-self.shape) - 1.0)
        }
    }

    /// Theoretical mean, `σ / (1 − κ)` for `κ < 1`, else `None` (infinite).
    pub fn mean(&self) -> Option<f64> {
        (self.shape < 1.0).then(|| self.scale / (1.0 - self.shape))
    }

    /// Draws a value-size in bytes, clamped to `[1, max_bytes]`.
    pub fn sample_bytes(&self, u: f64, max_bytes: u32) -> u32 {
        to_bytes(self.quantile(u), max_bytes)
    }
}

/// `(v.round() as u32).clamp(1, max_bytes)` without a libm call: for `v ≥ ½`
/// rounding `v + ½` never crosses an integer, and below ½ both give 1.
pub(crate) fn to_bytes(v: f64, max_bytes: u32) -> u32 {
    ((v + 0.5) as u32).clamp(1, max_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use elmem_util::DetRng;

    #[test]
    fn facebook_parameters() {
        let gp = GeneralizedPareto::facebook_etc();
        assert!((gp.scale - 214.476).abs() < 1e-9);
        assert!((gp.shape - 0.348238).abs() < 1e-9);
    }

    #[test]
    fn quantile_is_monotone() {
        let gp = GeneralizedPareto::facebook_etc();
        let mut prev = -1.0;
        for i in 0..100 {
            let q = gp.quantile(f64::from(i) / 100.0);
            assert!(q > prev);
            prev = q;
        }
    }

    #[test]
    fn quantile_zero_is_zero() {
        let gp = GeneralizedPareto::facebook_etc();
        assert_eq!(gp.quantile(0.0), 0.0);
    }

    #[test]
    fn empirical_mean_matches_theory() {
        let gp = GeneralizedPareto::facebook_etc();
        let mut rng = DetRng::seed(3);
        let n = 500_000;
        let sum: f64 = (0..n).map(|_| gp.quantile(rng.next_f64())).sum();
        let mean = sum / f64::from(n);
        let theory = gp.mean().unwrap(); // ≈ 329
        assert!(
            (mean - theory).abs() / theory < 0.05,
            "mean {mean}, theory {theory}"
        );
    }

    #[test]
    fn exponential_limit_at_zero_shape() {
        let gp = GeneralizedPareto::new(100.0, 0.0);
        // Median of Exp(1/100) is 100·ln2 ≈ 69.3.
        assert!((gp.quantile(0.5) - 69.31).abs() < 0.1);
    }

    #[test]
    fn heavy_tail_mean_is_none_for_large_shape() {
        assert!(GeneralizedPareto::new(1.0, 1.5).mean().is_none());
    }

    #[test]
    fn sample_bytes_clamped() {
        let gp = GeneralizedPareto::facebook_etc();
        assert_eq!(gp.sample_bytes(0.0, 10_000), 1);
        assert_eq!(gp.sample_bytes(0.999999, 500), 500);
    }

    #[test]
    fn to_bytes_is_round_then_clamp() {
        let bits = |v: f64, d: i64| f64::from_bits(v.to_bits().wrapping_add_signed(d));
        let mut rng = DetRng::seed(5);
        let mut values = vec![
            f64::NAN,
            f64::INFINITY,
            -f64::INFINITY,
            0.0,
            -0.5,
            2f64.powi(52),
        ];
        values.extend((0..5_000).flat_map(|n| {
            let half = f64::from(n) + 0.5;
            [bits(half, -1), half, bits(half, 1), -half]
        }));
        values.extend((0..100_000).map(|_| rng.next_f64() * 1e6));
        for v in values {
            for max in [1, 4_000, u32::MAX] {
                assert_eq!(to_bytes(v, max), (v.round() as u32).clamp(1, max), "{v}");
            }
        }
    }

    #[test]
    #[should_panic]
    fn quantile_one_rejected() {
        let _ = GeneralizedPareto::facebook_etc().quantile(1.0);
    }

    #[test]
    #[should_panic]
    fn non_positive_scale_rejected() {
        let _ = GeneralizedPareto::new(0.0, 0.3);
    }
}
