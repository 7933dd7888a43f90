//! Zipf popularity over a keyspace.
//!
//! Facebook's Memcached traces are highly skewed; we model popularity as
//! Zipf(s) over `n` ranks, with a seeded rank→key bijection
//! ([`ZipfPopularity::key_for_rank`]).
//!
//! The bijection is *not* a pseudorandom permutation: every round of its
//! swap-or-not network maps `x` to `x` or to its mirror `n−1−x`, so rank
//! `r` lands on key `r−1` or key `n−r` and nowhere else — the hot keys
//! *are* the lowest and highest key ids (a unit test pins this so the
//! docs cannot drift from the code again). Placement is spread all the
//! same, because nothing downstream uses key ids raw: the hash ring and
//! `Keyspace::value_size` both run them through `mix64` first. A real
//! permutation would change every generated stream; it belongs to the
//! one-sampler change (ROADMAP item 1), not here.

use elmem_util::hashutil::mix64;
use elmem_util::{DetRng, KeyId};

/// Zipf sampler with O(1) sampling via rejection-inversion
/// (Hörmann & Derflinger, as in Apache Commons' `ZipfDistribution`),
/// plus a stable, seeded rank→key bijection.
///
/// # Example
///
/// ```
/// use elmem_workload::ZipfPopularity;
/// use elmem_util::DetRng;
///
/// let zipf = ZipfPopularity::new(1_000, 0.9, 42);
/// let mut rng = DetRng::seed(1);
/// let key = zipf.sample(&mut rng);
/// assert!(key.0 < 1_000);
/// ```
#[derive(Debug, Clone)]
pub struct ZipfPopularity {
    n: u64,
    s: f64,
    /// Seed of each swap-or-not round of the rank→key bijection:
    /// `perm_seed ^ mix64(round)`.
    round_seeds: [u64; SWAP_ROUNDS],
    // Precomputed rejection-inversion constants.
    h_integral_x1: f64,
    h_integral_n: f64,
    threshold: f64,
}

impl ZipfPopularity {
    /// Creates a Zipf(s) sampler over keys `0..n` with the rank→key
    /// bijection determined by `perm_seed`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, or `s` is negative or not finite.
    pub fn new(n: u64, s: f64, perm_seed: u64) -> Self {
        assert!(n > 0, "empty keyspace");
        assert!(s >= 0.0 && s.is_finite(), "invalid exponent {s}");
        let h_integral_x1 = h_integral(1.5, s) - 1.0; // h(1) = 1
        let h_integral_n = h_integral(n as f64 + 0.5, s);
        let threshold = 2.0 - h_integral_inverse(h_integral(2.5, s) - h(2.0, s), s);
        ZipfPopularity {
            n,
            s,
            round_seeds: std::array::from_fn(|round| perm_seed ^ mix64(round as u64)),
            h_integral_x1,
            h_integral_n,
            threshold,
        }
    }

    /// Number of keys.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Zipf exponent.
    pub fn exponent(&self) -> f64 {
        self.s
    }

    /// Draws a key (the sampled rank's [`Self::key_for_rank`]).
    pub fn sample(&self, rng: &mut DetRng) -> KeyId {
        self.key_for_rank(self.sample_rank(rng))
    }

    /// Draws a popularity rank in `1..=n` (1 = most popular).
    pub fn sample_rank(&self, rng: &mut DetRng) -> u64 {
        if self.s < 1e-9 {
            // Uniform special case.
            return 1 + rng.next_below(self.n);
        }
        loop {
            let u = self.h_integral_n + rng.next_f64() * (self.h_integral_x1 - self.h_integral_n);
            let x = h_integral_inverse(u, self.s);
            let k = x.round().clamp(1.0, self.n as f64);
            if k - x <= self.threshold || u >= h_integral(k + 0.5, self.s) - h(k, self.s) {
                return k as u64;
            }
        }
    }

    /// The key assigned to a rank: a stable bijection of `1..=n` onto
    /// `0..n` that sends rank `r` to key `r−1` or to its mirror `n−r`,
    /// chosen by a seeded hash of the pair (see the module docs for what
    /// that does and does not spread).
    ///
    /// Eight "swap-or-not" rounds, each of which swaps `x` with its mirror
    /// `n−1−x` when a hash of the *unordered pair* `{x, mirror}` and the
    /// round's seed is odd — a bijection on `[0, n)` for any round count.
    /// A swap maps the pair onto itself, so every round hashes the same
    /// pair word and only the round seed differs; where `x` ends up
    /// depends only on whether the number of swaps is odd. So the pair
    /// word is computed once and the eight hashes are independent
    /// (pipelined) rather than an eight-deep dependent chain — the same
    /// key, bit for bit, as applying the rounds one after another.
    #[inline]
    pub fn key_for_rank(&self, rank: u64) -> KeyId {
        debug_assert!(rank >= 1 && rank <= self.n);
        let x = rank - 1;
        let mirror = self.n - 1 - x;
        let pair = x.min(mirror) ^ x.max(mirror).rotate_left(32);
        let swaps = self
            .round_seeds
            .iter()
            .fold(0, |parity, &seed| parity ^ mix64(pair ^ seed));
        KeyId(if swaps & 1 == 1 { mirror } else { x })
    }
}

/// Rounds of the rank→key swap-or-not network.
const SWAP_ROUNDS: usize = 8;

/// `H(x) = (x^{1-s} − 1)/(1−s)` (→ `ln x` as `s → 1`).
fn h_integral(x: f64, s: f64) -> f64 {
    if (s - 1.0).abs() < 1e-12 {
        x.ln()
    } else {
        (x.powf(1.0 - s) - 1.0) / (1.0 - s)
    }
}

/// `h(x) = x^{-s}` — the unnormalized Zipf density.
fn h(x: f64, s: f64) -> f64 {
    x.powf(-s)
}

/// Inverse of [`h_integral`].
fn h_integral_inverse(u: f64, s: f64) -> f64 {
    if (s - 1.0).abs() < 1e-12 {
        u.exp()
    } else {
        // Guard the radicand against tiny negative rounding error.
        (1.0 + u * (1.0 - s))
            .max(f64::MIN_POSITIVE)
            .powf(1.0 / (1.0 - s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashMap, HashSet};

    #[test]
    fn samples_in_range() {
        let z = ZipfPopularity::new(100, 0.99, 7);
        let mut rng = DetRng::seed(1);
        for _ in 0..10_000 {
            let k = z.sample(&mut rng);
            assert!(k.0 < 100);
        }
    }

    #[test]
    fn rank_frequencies_follow_power_law() {
        let z = ZipfPopularity::new(1000, 1.0, 7);
        let mut rng = DetRng::seed(2);
        let mut counts: HashMap<u64, u64> = HashMap::new();
        let n = 200_000;
        for _ in 0..n {
            *counts.entry(z.sample_rank(&mut rng)).or_default() += 1;
        }
        let c1 = counts.get(&1).copied().unwrap_or(0);
        let c10 = counts.get(&10).copied().unwrap_or(0);
        let c100 = counts.get(&100).copied().unwrap_or(0);
        assert!(c1 > c10 && c10 > c100, "c1={c1} c10={c10} c100={c100}");
        // Zipf(1): p(1)/p(10) = 10 exactly; allow sampling noise.
        let ratio = c1 as f64 / c10.max(1) as f64;
        assert!((7.0..14.0).contains(&ratio), "ratio {ratio}");
        let ratio100 = c1 as f64 / c100.max(1) as f64;
        assert!((60.0..160.0).contains(&ratio100), "ratio100 {ratio100}");
    }

    #[test]
    fn rank_one_probability_matches_harmonic() {
        // Zipf(1.0) over 100: p(1) = 1/H_100 ≈ 1/5.187 ≈ 0.1928.
        let z = ZipfPopularity::new(100, 1.0, 3);
        let mut rng = DetRng::seed(8);
        let n = 200_000;
        let ones = (0..n).filter(|_| z.sample_rank(&mut rng) == 1).count();
        let p = ones as f64 / n as f64;
        assert!((p - 0.1928).abs() < 0.01, "p(1) = {p}");
    }

    #[test]
    fn permutation_is_bijective() {
        let z = ZipfPopularity::new(1000, 0.9, 99);
        let keys: HashSet<u64> = (1..=1000).map(|r| z.key_for_rank(r).0).collect();
        assert_eq!(keys.len(), 1000);
        assert!(keys.iter().all(|&k| k < 1000));
    }

    #[test]
    fn permutation_is_bijective_odd_n() {
        let z = ZipfPopularity::new(997, 0.9, 5);
        let keys: HashSet<u64> = (1..=997).map(|r| z.key_for_rank(r).0).collect();
        assert_eq!(keys.len(), 997);
    }

    #[test]
    fn rank_lands_on_its_own_slot_or_the_mirror() {
        // What the module docs promise (and all they promise): the image
        // of rank r is key r-1 or key n-r. A real permutation would fail
        // this — and would move every pinned stream.
        for n in [1u64, 2, 7, 1_000] {
            for seed in [0u64, 5, u64::MAX] {
                let z = ZipfPopularity::new(n, 1.0, seed);
                for r in 1..=n {
                    let k = z.key_for_rank(r).0;
                    assert!(k == r - 1 || k == n - r, "n={n} rank {r} -> key {k}");
                }
            }
        }
    }

    /// One swap-or-not round as `key_for_rank` applied it before the
    /// parity form: x ↦ possibly its mirror in [0, n).
    fn swap_or_not_round(x: u64, n: u64, seed: u64) -> u64 {
        let partner = n - 1 - x;
        let lo = x.min(partner);
        let hi = x.max(partner);
        if mix64(lo ^ hi.rotate_left(32) ^ seed) & 1 == 1 {
            partner
        } else {
            x
        }
    }

    /// The oracle for the parity form: the eight rounds chained, each
    /// feeding the next, seeds derived from `perm_seed` on the spot.
    fn chained_key_for_rank(n: u64, perm_seed: u64, rank: u64) -> KeyId {
        let mut x = rank - 1;
        for round in 0..8u64 {
            x = swap_or_not_round(x, n, perm_seed ^ mix64(round));
        }
        KeyId(x)
    }

    const PERM_SEEDS: [u64; 4] = [0, 7, 0x9E37_79B9_7F4A_7C15, u64::MAX];

    #[test]
    fn parity_form_matches_chained_rounds_for_every_rank() {
        // Degenerate sizes, and an even/odd pair at the benchmark's scale
        // (odd n has a self-mirrored middle slot).
        for n in [1u64, 2, 3, 40_000, 40_001] {
            for seed in PERM_SEEDS {
                let z = ZipfPopularity::new(n, 1.0, seed);
                for r in 1..=n {
                    assert_eq!(
                        z.key_for_rank(r),
                        chained_key_for_rank(n, seed, r),
                        "n={n} seed={seed:#x} rank={r}"
                    );
                }
            }
        }
    }

    #[test]
    fn parity_form_matches_chained_rounds_at_paper_scale() {
        let n = 19_000_000u64;
        for seed in PERM_SEEDS {
            let z = ZipfPopularity::new(n, 0.99, seed);
            let mut rng = DetRng::seed(seed ^ 1);
            // The ends, then ranks drawn the way the workload draws them
            // and uniformly (Zipf alone would rarely leave the head).
            let edges = [1, 2, n / 2, n / 2 + 1, n - 1, n];
            let zipf_draws = (0..50_000)
                .map(|_| z.sample_rank(&mut rng))
                .collect::<Vec<_>>();
            let mut rng = DetRng::seed(seed ^ 2);
            let uniform_draws = (0..50_000).map(|_| 1 + rng.next_below(n));
            for r in edges.into_iter().chain(zipf_draws).chain(uniform_draws) {
                assert_eq!(
                    z.key_for_rank(r),
                    chained_key_for_rank(n, seed, r),
                    "seed={seed:#x} rank={r}"
                );
            }
        }
    }

    #[test]
    fn permutation_depends_on_seed() {
        let a = ZipfPopularity::new(1000, 0.9, 1);
        let b = ZipfPopularity::new(1000, 0.9, 2);
        let diffs = (1..=1000)
            .filter(|&r| a.key_for_rank(r) != b.key_for_rank(r))
            .count();
        assert!(diffs > 100, "only {diffs} ranks remapped");
    }

    #[test]
    fn zero_exponent_is_uniform() {
        let z = ZipfPopularity::new(10, 0.0, 3);
        let mut rng = DetRng::seed(5);
        let mut counts = [0u64; 10];
        for _ in 0..100_000 {
            counts[z.sample(&mut rng).0 as usize] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "count {c}");
        }
    }

    #[test]
    fn exponent_one_sampler_valid() {
        let z = ZipfPopularity::new(50, 1.0, 11);
        let mut rng = DetRng::seed(6);
        for _ in 0..1000 {
            let r = z.sample_rank(&mut rng);
            assert!((1..=50).contains(&r));
        }
    }

    #[test]
    fn deterministic_across_instances() {
        let z1 = ZipfPopularity::new(500, 0.8, 4);
        let z2 = ZipfPopularity::new(500, 0.8, 4);
        let mut r1 = DetRng::seed(9);
        let mut r2 = DetRng::seed(9);
        for _ in 0..100 {
            assert_eq!(z1.sample(&mut r1), z2.sample(&mut r2));
        }
    }

    #[test]
    fn single_key_always_sampled() {
        let z = ZipfPopularity::new(1, 1.2, 0);
        let mut rng = DetRng::seed(10);
        for _ in 0..100 {
            assert_eq!(z.sample(&mut rng), KeyId(0));
        }
    }

    #[test]
    #[should_panic]
    fn empty_keyspace_rejected() {
        let _ = ZipfPopularity::new(0, 1.0, 0);
    }
}
