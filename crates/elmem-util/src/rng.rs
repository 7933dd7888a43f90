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
//! crate makes.

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

    /// Derives an independent sub-stream identified by an integer (e.g. a
    /// node id), for when streams are created in a loop.
    pub fn split_index(&self, index: u64) -> DetRng {
        let mut sm = index.wrapping_mul(0x9E3779B97F4A7C15).rotate_left(31)
            ^ self.s[1]
            ^ self.s[3].rotate_left(13);
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
    fn split_index_streams_differ() {
        let parent = DetRng::seed(5);
        let mut a = parent.split_index(0);
        let mut b = parent.split_index(1);
        assert_ne!(a.next_u64(), b.next_u64());
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
}
