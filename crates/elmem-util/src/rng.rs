//! Deterministic random number generation.
//!
//! Every stochastic component of the simulation (arrivals, popularity
//! sampling, service times) draws from a [`DetRng`]: a SplitMix64-seeded
//! xoshiro256**-style generator that can be *split* into independent named
//! streams. Splitting gives each component its own stream so that adding a
//! new consumer of randomness does not perturb the draws seen by existing
//! components — a standard trick for reproducible discrete-event simulation.
//!
//! `DetRng` is the workspace's only random-number API: its inherent methods
//! (`next_u64`, `next_f64`, `next_below`, `next_exp`) are every draw any
//! crate makes; [`ExpDraws`] batches `next_exp`'s values for the serving path.

use crate::SimTime;

/// Deterministic, splittable PRNG (xoshiro256** core, SplitMix64 seeding).
///
/// # Example
///
/// ```
/// use elmem_util::DetRng;
///
/// let mut a = DetRng::seed(42);
/// let mut b = DetRng::seed(42);
/// assert_eq!(a.next_u64(), b.next_u64());
///
/// // Named sub-streams are independent of the parent's future draws.
/// let mut arrivals = a.split("arrivals");
/// let mut sizes = a.split("sizes");
/// assert_ne!(arrivals.next_u64(), sizes.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct DetRng {
    s: [u64; 4],
}

/// SplitMix64 step; used for seeding and stream derivation.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

impl DetRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        DetRng { s }
    }

    /// Derives an independent sub-stream identified by `name`.
    ///
    /// The derivation hashes the stream name together with the parent state
    /// *without advancing* the parent, so the set of split streams is stable
    /// under reordering of subsequent draws from the parent.
    pub fn split(&self, name: &str) -> DetRng {
        let mut h: u64 = 0xcbf29ce484222325; // FNV offset basis
        for b in name.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x100000001b3);
        }
        // Mix the parent state in so different parents give different streams.
        let mut sm = h ^ self.s[0].rotate_left(17) ^ self.s[2].rotate_left(43);
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        DetRng { s }
    }

    /// The next 64 uniformly random bits (one xoshiro256** step).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        // xoshiro256**
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)` using Lemire's method.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Multiply-shift with rejection for exact uniformity.
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            let l = m as u64;
            if l >= bound || l >= l.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Exponential variate with the given rate (events per unit).
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not strictly positive and finite.
    #[inline]
    pub fn next_exp(&mut self, rate: f64) -> f64 {
        assert!(rate > 0.0 && rate.is_finite(), "invalid rate: {rate}");
        let u = 1.0 - self.next_f64(); // in (0, 1]
        -u.ln() / rate
    }
}

const EXP_BATCH: usize = 64;
/// `y + 2⁵²` rounds a `y ∈ [0, 2⁵¹)` to the integer in its low mantissa bits.
const TWO_POW_52: f64 = 4_503_599_627_370_496.0;
const SQRT_HALF_BITS: u64 = 0x3fe6_a09e_667f_3bcd;
/// Added to `u`'s bits, carries into the exponent iff the mantissa is ≥ √½.
const SPLIT: u64 = 0x3ff0_0000_0000_0000 - SQRT_HALF_BITS;
/// A lane is kept only farther than `10⁻¹¹·y + 10⁻⁹` ns from a rounding
/// half: thousands of times the kernel's error (DESIGN.md §5). Past
/// 5·10¹⁰ ns the margin exceeds ½, so nothing near 2⁵¹ is ever kept.
const MARGIN_REL: f64 = 1e-11;
const MARGIN_ABS: f64 = 1e-9;
const UNCERTIFIED: u64 = u64::MAX;

/// Exponential durations at a fixed rate, computed 64 at a time.
///
/// [`ExpDraws::draw`] returns exactly `SimTime::from_secs_f64(rng.next_exp(rate))`
/// of the same stream, in order: a refill takes 64 uniforms in stream
/// order, evaluates `ln` with a branch-free kernel the compiler vectorises,
/// keeps each value only where it provably rounds as libm's would, and
/// recomputes the rest by the old expression (DESIGN.md §5). The buffer
/// fills at the first draw, so constructing one draws nothing.
#[derive(Debug, Clone)]
pub struct ExpDraws {
    rng: DetRng,
    rate: f64,
    /// Nanoseconds; `draw` hands out `ns[pos..]`.
    ns: [u64; EXP_BATCH],
    pos: usize,
}

impl ExpDraws {
    /// Draws from `rng` at `rate` events per second. Like `next_exp`, a rate
    /// that is not strictly positive and finite panics at the first draw.
    pub fn new(rng: DetRng, rate: f64) -> Self {
        let (ns, pos) = ([0; EXP_BATCH], EXP_BATCH);
        ExpDraws { rng, rate, ns, pos }
    }

    /// The next duration: `SimTime::from_secs_f64(rng.next_exp(rate))`.
    #[inline]
    pub fn draw(&mut self) -> SimTime {
        let ns = match self.ns.get(self.pos) {
            Some(&ns) => ns,
            None => self.refill(),
        };
        self.pos += 1;
        SimTime::from_nanos(ns)
    }

    /// Computes the next 64 draws in stream order (`from_fn` walks forward).
    fn refill(&mut self) -> u64 {
        let rate = self.rate;
        assert!(rate > 0.0 && rate.is_finite(), "invalid rate: {rate}");
        let u: [f64; EXP_BATCH] = std::array::from_fn(|_| 1.0 - self.rng.next_f64());
        exp_ns(&u, rate, &mut self.ns);
        self.pos = 0;
        self.ns[0]
    }
}

/// `ns[i] = SimTime::from_secs_f64(-u[i].ln() / rate)` in nanoseconds.
fn exp_ns(u: &[f64; EXP_BATCH], rate: f64, ns: &mut [u64; EXP_BATCH]) {
    for (ns, &u) in ns.iter_mut().zip(u) {
        *ns = certified_ns(u, -1e9 / rate);
    }
    for (ns, &u) in ns.iter_mut().zip(u) {
        if *ns == UNCERTIFIED {
            *ns = SimTime::from_secs_f64(-u.ln() / rate).as_nanos();
        }
    }
}

/// `ln(u)·scale` rounded, where the kernel's `y ≥ 0` is farther than the
/// margin from a half, else [`UNCERTIFIED`]. Branch-free, so it vectorises.
#[inline(always)]
fn certified_ns(u: f64, scale: f64) -> u64 {
    let y = ln_series(u) * scale;
    let shifted = y + TWO_POW_52;
    let off_half = 0.5 - (y - (shifted - TWO_POW_52)).abs();
    let n = shifted.to_bits().wrapping_sub(TWO_POW_52.to_bits());
    if off_half > MARGIN_REL * y + MARGIN_ABS {
        n
    } else {
        UNCERTIFIED
    }
}

/// `ln u` for `u ∈ (0, 1]` within `2·10⁻¹⁵·|ln u|` (DESIGN.md §5): `u = 2^e·m`
/// with `m ∈ [√½, √2)` and `ln m = 2s(1 + s²/3 + … + s¹⁶/17)`,
/// `s = (m − 1)/(m + 1)`; Estrin's scheme keeps the dependent chain short.
#[inline(always)]
fn ln_series(u: f64) -> f64 {
    let bits = u.to_bits().wrapping_add(SPLIT);
    let m = f64::from_bits((bits & ((1 << 52) - 1)) + SQRT_HALF_BITS);
    let e = f64::from_bits(TWO_POW_52.to_bits() | (bits >> 52)) - (TWO_POW_52 + 1023.0);
    let s = (m - 1.0) / (m + 1.0);
    let (z, two_s) = (s * s, s + s);
    let z2 = z * z;
    let z4 = z2 * z2;
    let p = (1.0 / 3.0 + z * (1.0 / 5.0))
        + z2 * (1.0 / 7.0 + z * (1.0 / 9.0))
        + z4 * ((1.0 / 11.0 + z * (1.0 / 13.0)) + z2 * (1.0 / 15.0 + z * (1.0 / 17.0)));
    e * std::f64::consts::LN_2 + (two_s + two_s * (z * p))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = DetRng::seed(7);
        let mut b = DetRng::seed(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DetRng::seed(1);
        let mut b = DetRng::seed(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn split_is_stable_and_independent() {
        let parent = DetRng::seed(99);
        let mut s1 = parent.split("arrivals");
        let mut s2 = parent.split("arrivals");
        assert_eq!(s1.next_u64(), s2.next_u64());
        let mut other = parent.split("sizes");
        assert_ne!(s1.next_u64(), other.next_u64());
    }

    #[test]
    fn split_does_not_advance_parent() {
        let mut p1 = DetRng::seed(3);
        let mut p2 = DetRng::seed(3);
        let _ = p1.split("x");
        assert_eq!(p1.next_u64(), p2.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = DetRng::seed(11);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn f64_mean_is_near_half() {
        let mut r = DetRng::seed(13);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| r.next_f64()).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn next_below_is_in_range_and_covers() {
        let mut r = DetRng::seed(17);
        let mut seen = [false; 10];
        for _ in 0..10_000 {
            let x = r.next_below(10);
            assert!(x < 10);
            seen[x as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic]
    fn next_below_zero_panics() {
        DetRng::seed(0).next_below(0);
    }

    #[test]
    fn exponential_mean_matches_rate() {
        let mut r = DetRng::seed(19);
        let rate = 4.0;
        let n = 200_000;
        let sum: f64 = (0..n).map(|_| r.next_exp(rate)).sum();
        let mean = sum / n as f64;
        assert!((mean - 1.0 / rate).abs() < 0.01, "mean {mean}");
    }

    /// `ExpDraws`' contract: the old expression on the same stream.
    fn assert_matches_next_exp(seed: u64, rate: f64, n: usize) {
        let mut draws = ExpDraws::new(DetRng::seed(seed), rate);
        let mut rng = DetRng::seed(seed);
        for i in 0..n {
            let want = SimTime::from_secs_f64(rng.next_exp(rate));
            assert_eq!(draws.draw(), want, "draw {i} at {rate} /s");
        }
    }

    #[test]
    fn exp_draws_match_next_exp_at_every_configured_rate() {
        // `mc_latency` and each `db_service` the configs and experiments
        // set, as rates the way `Cluster` and `DbModel` derive them.
        let means = [200, 2_000, 4_000, 6_000, 8_000, 10_000].map(SimTime::from_micros);
        std::thread::scope(|s| {
            for (i, mean) in means.into_iter().enumerate() {
                let rate = 1.0 / mean.as_secs_f64();
                s.spawn(move || assert_matches_next_exp(i as u64, rate, 10_000_000));
            }
        });
    }

    #[test]
    fn exp_draws_match_next_exp_at_log_uniform_rates() {
        // 10⁻³ to 10⁹ /s, then rates whose draws pass 2⁵¹ ns, where the
        // kernel's rounding stops being exact and every draw falls back.
        let mut pick = DetRng::seed(23);
        for i in 0..1_000 {
            let rate = 10f64.powf(-3.0 + 12.0 * pick.next_f64());
            assert_matches_next_exp(i, rate, 1_000);
        }
        for rate in [1e-6, 1e-7] {
            assert_matches_next_exp(1, rate, 10_000);
        }
    }

    #[test]
    fn draws_near_a_rounding_half_fall_back_and_match() {
        // For each rate, uniforms whose reference lands within 10⁻⁷ ns of
        // `n + ½`, at half to four means (the margin there is ≥ 10⁻⁶ ns):
        // the kernel must not certify them, and the batch must still hold
        // the reference value.
        for mean_us in [200, 2_000, 4_000, 6_000, 8_000, 10_000] {
            let rate = 1.0 / SimTime::from_micros(mean_us).as_secs_f64();
            let reference = |u: f64| SimTime::from_secs_f64(-u.ln() / rate).as_nanos();
            let mut near = Vec::new();
            let mean_ns = mean_us * 1_000;
            for n in (0..).map(|k| mean_ns / 2 + k * 997 % (7 * mean_ns / 2)) {
                let half = n as f64 + 0.5;
                let centre = (-half * rate / 1e9).exp().to_bits();
                for u in (centre - 8..=centre + 8).map(f64::from_bits) {
                    let x = -u.ln() / rate * 1e9;
                    if u <= 1.0 && (x - half).abs() <= 1e-7 {
                        assert_eq!(certified_ns(u, -1e9 / rate), UNCERTIFIED, "u = {u:e}");
                        near.push(u);
                    }
                }
                if near.len() >= 4 * EXP_BATCH {
                    break;
                }
            }
            let mut ns = [0; EXP_BATCH];
            for batch in near.chunks_exact(EXP_BATCH) {
                exp_ns(batch.try_into().unwrap(), rate, &mut ns);
                for (&u, &ns) in batch.iter().zip(&ns) {
                    assert_eq!(ns, reference(u), "u = {u:e} at {rate} /s");
                }
            }
        }
    }

    #[test]
    fn ln_series_is_within_its_bound() {
        // The documented 2·10⁻¹⁵, plus libm's own ≤ 1 ulp. Random uniforms,
        // and both sides of every √½·2⁻ᵏ split, where |s| is largest.
        let within = |u: f64| {
            let (got, want) = (ln_series(u), u.ln());
            assert!(
                (got - want).abs() <= (2e-15 + f64::EPSILON) * want.abs(),
                "u = {u:e}: {got:e} against {want:e}"
            );
        };
        let mut rng = DetRng::seed(29);
        for _ in 0..1_000_000 {
            within(1.0 - rng.next_f64());
        }
        for k in 0..=53 {
            let split = (std::f64::consts::FRAC_1_SQRT_2 * 0.5f64.powi(k)).to_bits();
            for d in 0..2_000 {
                within(f64::from_bits(split - d));
                within(f64::from_bits((split + d).min(1.0f64.to_bits())));
            }
        }
        assert_eq!(ln_series(1.0), 0.0);
        within(0.5f64.powi(53));
    }

    #[test]
    fn exp_draws_fill_lazily_and_clone_mid_batch() {
        let mut draws = ExpDraws::new(DetRng::seed(31), 5_000.0);
        assert_eq!(draws.pos, EXP_BATCH);
        for _ in 0..37 {
            draws.draw();
        }
        assert_eq!(draws.pos, 37);
        let mut clone = draws.clone();
        for _ in 0..10_000 {
            assert_eq!(clone.draw(), draws.draw());
        }
    }

    #[test]
    #[should_panic(expected = "invalid rate")]
    fn exp_draws_reject_a_bad_rate_at_the_first_draw() {
        let mut draws = ExpDraws::new(DetRng::seed(0), f64::INFINITY);
        draws.draw();
    }
}
