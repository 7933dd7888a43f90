//! Zipf popularity: Facebook's Memcached traces are highly skewed; we model
//! them as Zipf(s) over `n` ranks plus a seeded rank→key bijection.
//!
//! # The sampler
//!
//! One Walker/Vose alias table over *columns* at every keyspace size: O(1)
//! per draw, 10–12 KB, so it stays in L1 where a table with a column per
//! rank (`alias.rs`) is a cache miss per draw. The first `min(HEAD, n)`
//! ranks are a column each, weight `r^-s`; the ranks above are cut into
//! geometric blocks `[lo, lo + max(1, lo/16))`, a column each, weight
//! `len · lo^-s` — an envelope of the block's mass, since `k^-s ≤ lo^-s`.
//!
//! One `next_u64` picks a column (high 32 bits, multiply-shift) and flips
//! the alias coin (low 32 bits). A head column returns its rank. A block
//! draws a uniform offset and accepts `k = lo + offset` with probability
//! `(k/lo)^-s`, else the draw starts over; rank `k` therefore comes out
//! with probability ∝ `len · lo^-s · (1/len) · (k/lo)^-s = k^-s` — exactly
//! Zipf, up to the table's `2^-32` quantisation of column pick and coin
//! (DESIGN.md §5). `x^-s` is convex, so `v ≤ 1 − s·offset/lo`, its tangent
//! at 1, already proves acceptance; only the draws that leaves open (every
//! rejection and the gap under the curve, ≈ `s/32` of block attempts)
//! evaluate a `powf`.
//!
//! Draws per call are the determinism contract: one `next_u64` for a head
//! rank, three per block attempt (column + coin, offset, acceptance).
//!
//! # The rank→key map
//!
//! Not a pseudorandom permutation: rank `r` lands on key `r−1` or on its
//! mirror `n−r`, by one seeded coin per unordered pair — the hot keys *are*
//! the lowest and highest key ids (a unit test pins this). Placement is
//! spread all the same, because nothing downstream uses key ids raw: the
//! hash ring and `Keyspace::value_size` run them through `mix64` first.

use elmem_util::hashutil::mix64;
use elmem_util::{DetRng, KeyId};
use rand::RngCore;

/// Ranks with an alias column of their own (DESIGN.md §5 has the readings
/// that chose this and the block ratio; both are constants, not knobs).
const HEAD: u64 = 1024;
/// A block starting at rank `lo` spans `max(1, lo >> BLOCK_SHIFT)` ranks.
const BLOCK_SHIFT: u32 = 4;

/// O(1) Zipf sampler (see the module docs) plus a stable, seeded rank→key
/// bijection.
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
    /// Seed of the per-pair coin of the rank→key bijection.
    perm_seed: u64,
    /// Ranks `1..=head` own columns `0..head`.
    head: u64,
    /// Per-column `(alias << 32) | threshold`, head columns first, then
    /// one per block; empty for the uniform (`s ≈ 0`) case.
    table: Vec<u64>,
    /// `(lo, len)`: tail ranks `lo..lo + len` share column `head + index`.
    blocks: Vec<(u64, u64)>,
}

impl ZipfPopularity {
    /// Creates a Zipf(s) sampler over keys `0..n` with the rank→key
    /// bijection determined by `perm_seed`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, or `s` is negative or not finite.
    pub fn new(n: u64, s: f64, perm_seed: u64) -> Self {
        Self::with_head(n, s, perm_seed, HEAD)
    }

    /// [`Self::new`] at a given head size (tests shrink it to load the blocks).
    fn with_head(n: u64, s: f64, perm_seed: u64, head: u64) -> Self {
        assert!(n > 0, "empty keyspace");
        assert!(s >= 0.0 && s.is_finite(), "invalid exponent {s}");
        let head = head.min(n);
        let (mut weights, mut blocks) = (Vec::new(), Vec::new());
        // Below 1e-9 the draw is uniform and `sample_rank` needs no table.
        if s >= 1e-9 {
            weights.extend((1..=head).map(|r| (r as f64).powf(-s)));
            let mut lo = head + 1;
            while lo <= n {
                let len = (lo >> BLOCK_SHIFT).max(1).min(n - lo + 1);
                weights.push(len as f64 * (lo as f64).powf(-s));
                blocks.push((lo, len));
                lo += len;
            }
        }
        ZipfPopularity {
            n,
            s,
            perm_seed,
            head,
            table: alias_table(weights),
            blocks,
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

    /// Bytes the sampler's tables occupy — a few KiB at any `n`.
    pub fn table_bytes(&self) -> usize {
        std::mem::size_of_val(&self.table[..]) + std::mem::size_of_val(&self.blocks[..])
    }

    /// Draws a key (the sampled rank's [`Self::key_for_rank`]).
    #[inline]
    pub fn sample(&self, rng: &mut DetRng) -> KeyId {
        self.key_for_rank(self.sample_rank(rng))
    }

    /// Draws a popularity rank in `1..=n` (1 = most popular).
    #[inline]
    pub fn sample_rank(&self, rng: &mut DetRng) -> u64 {
        if self.table.is_empty() {
            return 1 + rng.next_below(self.n);
        }
        let columns = self.table.len() as u64;
        loop {
            let x = rng.next_u64();
            let column = ((x >> 32) * columns) >> 32;
            let packed = self.table[column as usize];
            let keep = x & 0xffff_ffff < packed & 0xffff_ffff;
            let pick = if keep { column } else { packed >> 32 };
            if pick < self.head {
                return pick + 1;
            }
            let (lo, len) = self.blocks[(pick - self.head) as usize];
            let offset = ((u128::from(rng.next_u64()) * u128::from(len)) >> 64) as u64;
            let v = rng.next_f64();
            if squeeze_accepts(self.s, lo, offset, v)
                || v <= ((lo + offset) as f64 / lo as f64).powf(-self.s)
            {
                return lo + offset;
            }
        }
    }

    /// The key assigned to a rank: rank `r` goes to key `r−1` or to its
    /// mirror `n−r`, by one seeded coin per unordered pair `{r−1, n−r}`.
    /// Both members of a pair hash the same word, so they swap together or
    /// not at all — a bijection of `1..=n` onto `0..n` for any `n`.
    #[inline]
    pub fn key_for_rank(&self, rank: u64) -> KeyId {
        debug_assert!(rank >= 1 && rank <= self.n);
        let x = rank - 1;
        let mirror = self.n - 1 - x;
        let pair = x.min(mirror) ^ x.max(mirror).rotate_left(32);
        let swap = mix64(pair ^ self.perm_seed) & 1 == 1;
        KeyId(if swap { mirror } else { x })
    }
}

/// The tangent squeeze: whether `v ≤ 1 − s·offset/lo`, which by convexity
/// implies `v ≤ ((lo + offset)/lo)^-s`. `false` decides nothing.
#[inline]
fn squeeze_accepts(s: f64, lo: u64, offset: u64, v: f64) -> bool {
    (1.0 - v) * lo as f64 >= s * offset as f64
}

/// Vose's alias construction: column `i` packs `(alias << 32) | threshold`
/// and keeps itself when a 32-bit coin is below the threshold. Worklists
/// fill in index order, so the table is a pure function of the weights.
fn alias_table(mut scaled: Vec<f64>) -> Vec<u64> {
    let scale = scaled.len() as f64 / scaled.iter().sum::<f64>();
    scaled.iter_mut().for_each(|w| *w *= scale);
    let (mut small, mut large): (Vec<u32>, Vec<u32>) =
        (0..scaled.len() as u32).partition(|&i| scaled[i as usize] < 1.0);
    // Float slop leaves some columns unpaired: probability 1, alias = self.
    let mut table: Vec<u64> = (0..scaled.len() as u64)
        .map(|i| (i << 32) | u64::from(u32::MAX))
        .collect();
    while let (Some(&s_i), Some(&l_i)) = (small.last(), large.last()) {
        small.pop();
        let p = scaled[s_i as usize];
        let threshold = ((p * (1u64 << 32) as f64).round() as u64).min(u64::from(u32::MAX));
        table[s_i as usize] = (u64::from(l_i) << 32) | threshold;
        scaled[l_i as usize] = (scaled[l_i as usize] + p) - 1.0;
        if scaled[l_i as usize] < 1.0 {
            large.pop();
            small.push(l_i);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alias::ZipfAlias;
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

    /// Pearson's χ² of `draws` sampled ranks against the analytic pmf
    /// `k^-s / Σ j^-s`, consecutive ranks pooled until a bin expects at
    /// least 20 draws. Returns `(χ², degrees of freedom)`.
    fn chi_square(z: &ZipfPopularity, seed: u64, draws: u64) -> (f64, f64) {
        let n = z.n() as usize;
        let mut observed = vec![0u64; n + 1];
        let mut rng = DetRng::seed(seed);
        for _ in 0..draws {
            observed[z.sample_rank(&mut rng) as usize] += 1;
        }
        let weight = |k: usize| (k as f64).powf(-z.exponent());
        let per_weight = draws as f64 / (1..=n).map(weight).sum::<f64>();
        let mut bins: Vec<(f64, f64)> = Vec::new(); // (expected, observed)
        let mut open = (0.0, 0.0);
        for (k, &seen) in observed.iter().enumerate().skip(1) {
            open.0 += weight(k) * per_weight;
            open.1 += seen as f64;
            if open.0 >= 20.0 {
                bins.push(std::mem::take(&mut open));
            }
        }
        let last = bins.last_mut().expect("at least one full bin");
        *last = (last.0 + open.0, last.1 + open.1);
        let chi2 = bins.iter().map(|(e, o)| (o - e) * (o - e) / e).sum();
        (chi2, (bins.len() - 1) as f64)
    }

    #[test]
    fn chi_square_against_the_analytic_pmf() {
        // A head of 16 leaves most of the mass to the blocks: widths from
        // one rank to a few hundred, the last one cut short by n.
        for (i, s) in [0.5, 0.8, 1.0, 1.2, 3.0].into_iter().enumerate() {
            let z = ZipfPopularity::with_head(5_000, s, 1, 16);
            let (chi2, dof) = chi_square(&z, 100 + i as u64, 2_000_000);
            let bound = dof + 5.0 * (2.0 * dof).sqrt();
            assert!(
                chi2 <= bound,
                "s={s}: χ² {chi2:.0} on {dof} dof > {bound:.0}"
            );
        }
        // And the shipped head size, on a keyspace that reaches past it.
        let z = ZipfPopularity::new(5_000, 1.0, 1);
        let (chi2, dof) = chi_square(&z, 105, 2_000_000);
        assert!(
            chi2 <= dof + 5.0 * (2.0 * dof).sqrt(),
            "χ² {chi2:.0} on {dof} dof"
        );
    }

    #[test]
    fn marginals_match_the_full_alias_table() {
        // `ZipfAlias` holds one column per rank: the reference this
        // sampler's columns-and-blocks table is a compression of.
        for head in [HEAD, 4] {
            let zipf = ZipfPopularity::with_head(50, 0.9, 5, head);
            let alias = ZipfAlias::from_zipf(&zipf);
            let n = 400_000;
            let mut rng_a = DetRng::seed(3);
            let mut rng_b = DetRng::seed(4);
            let mut ca = [0u64; 51];
            let mut cb = [0u64; 51];
            for _ in 0..n {
                ca[alias.sample_rank(&mut rng_a) as usize] += 1;
                cb[zipf.sample_rank(&mut rng_b) as usize] += 1;
            }
            for r in 1..=50usize {
                let pa = ca[r] as f64 / n as f64;
                let pb = cb[r] as f64 / n as f64;
                assert!(
                    (pa - pb).abs() < 0.005,
                    "head {head} rank {r}: full table {pa:.4} vs blocks {pb:.4}"
                );
            }
        }
    }

    #[test]
    fn blocks_tile_the_tail_at_every_edge() {
        // (n, head, expected block count): no tail, a one-rank tail, a
        // block cut short by n, and the sizes the benchmark and the paper
        // run at.
        let cases = [
            (1, HEAD, Some(0)),
            (HEAD, HEAD, Some(0)),
            (HEAD + 1, HEAD, Some(1)),
            (HEAD + 64 + 10, HEAD, Some(2)),
            (40, 1, None),
            (40_000, HEAD, None),
            (19_000_000, HEAD, None),
        ];
        for (n, head, n_blocks) in cases {
            let z = ZipfPopularity::with_head(n, 1.0, 9, head);
            assert_eq!(z.head, head.min(n));
            assert_eq!(z.table.len() as u64, z.head + z.blocks.len() as u64);
            if let Some(expected) = n_blocks {
                assert_eq!(z.blocks.len(), expected, "n={n}");
            }
            let mut next = z.head + 1;
            for &(lo, len) in &z.blocks {
                assert_eq!(lo, next, "n={n}: gap or overlap");
                assert!(len >= 1 && len <= (lo >> BLOCK_SHIFT).max(1));
                next += len;
            }
            assert_eq!(next, n + 1, "n={n}: blocks must end at the last rank");
            let mut rng = DetRng::seed(n);
            for _ in 0..20_000 {
                assert!((1..=n).contains(&z.sample_rank(&mut rng)));
            }
        }
        let cut = ZipfPopularity::new(HEAD + 64 + 10, 1.0, 9);
        assert_eq!(cut.blocks[1], (HEAD + 65, 10));
    }

    #[test]
    fn last_rank_of_a_truncated_block_is_reachable() {
        let n = 16 + 1 + 1 + 1; // head 16, three one-rank blocks
        let z = ZipfPopularity::with_head(n, 0.5, 2, 16);
        let mut rng = DetRng::seed(4);
        let seen: HashSet<u64> = (0..10_000).map(|_| z.sample_rank(&mut rng)).collect();
        assert_eq!(seen.len() as u64, n);
    }

    #[test]
    fn table_is_small_and_reproducible_at_paper_scale() {
        let a = ZipfPopularity::new(19_000_000, 0.99, 1);
        let b = ZipfPopularity::new(19_000_000, 0.99, 2);
        assert!(a.table_bytes() <= 16 << 10, "{} bytes", a.table_bytes());
        assert_eq!(a.table, b.table);
        assert_eq!(a.blocks, b.blocks);
    }

    #[test]
    fn uniform_switch_sits_at_1e_9() {
        for (s, uniform) in [(0.0, true), (9e-10, true), (1e-9, false), (1e-8, false)] {
            let z = ZipfPopularity::new(10, s, 3);
            assert_eq!(z.table.is_empty(), uniform, "s={s}");
            assert_eq!(z.table_bytes() == 0, uniform);
            // Either side of the switch the ten keys are equally likely.
            let mut rng = DetRng::seed(5);
            let mut counts = [0u64; 10];
            for _ in 0..100_000 {
                counts[z.sample(&mut rng).0 as usize] += 1;
            }
            for &c in &counts {
                assert!((9_000..11_000).contains(&c), "s={s}: count {c}");
            }
        }
    }

    #[test]
    fn squeeze_never_accepts_what_the_power_rejects() {
        let mut rng = DetRng::seed(6);
        for s in [1e-9, 0.5, 0.99, 1.0, 1.2, 3.0, 20.0] {
            for lo in [17u64, 1_025, 40_000, 19_000_000] {
                for _ in 0..20_000 {
                    let offset = rng.next_below((lo >> BLOCK_SHIFT).max(1));
                    let v = rng.next_f64();
                    if squeeze_accepts(s, lo, offset, v) {
                        let p = ((lo + offset) as f64 / lo as f64).powf(-s);
                        assert!(v <= p, "s={s} lo={lo} offset={offset} v={v} p={p}");
                    }
                }
            }
        }
        // s = 20: past offset/lo = 1/20 the tangent is negative, so the
        // squeeze decides nothing and the power always does.
        assert!(!squeeze_accepts(20.0, 1_600, 81, 0.0));
        assert!(squeeze_accepts(20.0, 1_600, 0, 0.999));
        let z = ZipfPopularity::with_head(100, 20.0, 0, 2);
        let mut rng = DetRng::seed(7);
        assert!((0..10_000).all(|_| z.sample_rank(&mut rng) == 1));
    }

    /// What decided one `sample_rank` call, replayed step by step.
    #[derive(Default)]
    struct Replay {
        head_draws: u64,
        block_attempts: u64,
        power_evaluations: u64,
    }

    /// `sample_rank` spelled out on `rng`, counting as it goes. The tests
    /// below hold it to the product's ranks and RNG state, so the counts
    /// describe the product.
    fn replay_rank(z: &ZipfPopularity, rng: &mut DetRng, tally: &mut Replay) -> u64 {
        loop {
            let x = rng.next_u64();
            let column = ((x >> 32) * z.table.len() as u64) >> 32;
            let packed = z.table[column as usize];
            let pick = if (x as u32) < (packed as u32) {
                column
            } else {
                packed >> 32
            };
            if pick < z.head {
                tally.head_draws += 1;
                return pick + 1;
            }
            tally.block_attempts += 1;
            let (lo, len) = z.blocks[(pick - z.head) as usize];
            let offset = ((u128::from(rng.next_u64()) * u128::from(len)) >> 64) as u64;
            let v = rng.next_f64();
            if squeeze_accepts(z.s, lo, offset, v) {
                return lo + offset;
            }
            tally.power_evaluations += 1;
            if v <= ((lo + offset) as f64 / lo as f64).powf(-z.s) {
                return lo + offset;
            }
        }
    }

    #[test]
    fn draw_pattern_is_one_word_for_the_head_and_three_per_block_attempt() {
        // The draws a call consumes are the determinism contract: every
        // pinned stream moves if this pattern does.
        for (n, s) in [(40_000, 1.0), (350_000, 0.8), (19_000_000, 1.2)] {
            let z = ZipfPopularity::new(n, s, 11);
            let mut product = DetRng::seed(n);
            let mut replayed = product.clone();
            let mut tally = Replay::default();
            for _ in 0..200_000 {
                let mut counted = replayed.clone();
                let before = (tally.head_draws, tally.block_attempts);
                let rank = replay_rank(&z, &mut replayed, &mut tally);
                assert_eq!(z.sample_rank(&mut product), rank);
                let words = (tally.head_draws - before.0) + 3 * (tally.block_attempts - before.1);
                for _ in 0..words {
                    counted.next_u64();
                }
                assert_eq!(format!("{counted:?}"), format!("{product:?}"));
            }
            assert!(tally.head_draws > 0 && tally.block_attempts > 0);
        }
    }

    #[test]
    fn power_is_evaluated_only_where_the_tangent_cannot_decide() {
        // The tangent fails with probability s·offset/lo — every rejection
        // and the gap under the curve — and offsets average under 1/32 of
        // `lo`, so about s/32 of block attempts pay for a `powf`.
        for (n, s) in [
            (40_000, 1.0),
            (350_000, 0.8),
            (19_000_000, 1.2),
            (19_000_000, 0.99),
        ] {
            let z = ZipfPopularity::new(n, s, 11);
            let mut rng = DetRng::seed(12);
            let mut tally = Replay::default();
            for _ in 0..1_000_000 {
                replay_rank(&z, &mut rng, &mut tally);
            }
            assert!(tally.block_attempts > 50_000, "n={n}: blocks barely drawn");
            let share = tally.power_evaluations as f64 / tally.block_attempts as f64;
            assert!(
                share > 0.0 && share < 1.05 * s / 32.0,
                "n={n} s={s}: power on {share:.4} of block attempts"
            );
        }
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
