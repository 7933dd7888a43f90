//! Walker/Vose alias table over Zipf ranks, one column per rank: the
//! full-table reference for [`crate::zipf`]'s sampler, not a product path.
//!
//! [`ZipfPopularity`] samples from an alias table over ~1 200 *columns*;
//! this is the table that construction compresses — 8 bytes a key, an O(n)
//! build, two RNG draws and one load per sample, at 19 M keys a cache miss
//! in 152 MB, which is why it lost. `zipf.rs`'s tests compare marginals
//! against it and the repo benchmark's `workload.alias_sample_ns` times it
//! (ROADMAP item 3 step 0 retires that metric; this file goes with it).
//!
//! The table is a pure function of `(n, s)` — chunk sums reduce in chunk
//! order and Vose's worklists fill in rank order — so it is byte-identical
//! at any build worker count, and sampling draws in a fixed pattern.

use elmem_util::hashutil::mix64;
use elmem_util::par::{par_jobs, par_map_indexed};
use elmem_util::{DetRng, KeyId};
use rand::RngCore;

use crate::zipf::ZipfPopularity;

/// Precomputed alias table for a [`ZipfPopularity`] distribution.
///
/// Each of the `n` columns packs `(alias_rank0 << 32) | accept_threshold`
/// into one `u64` — 8 bytes per key, ~152 MB at 19M keys.
///
/// # Example
///
/// ```
/// use elmem_workload::{ZipfAlias, ZipfPopularity};
/// use elmem_util::DetRng;
///
/// let zipf = ZipfPopularity::new(1_000, 1.0, 42);
/// let alias = ZipfAlias::from_zipf(&zipf);
/// let mut rng = DetRng::seed(1);
/// let key = alias.sample(&mut rng);
/// assert!(key.0 < 1_000);
/// ```
#[derive(Clone)]
pub struct ZipfAlias {
    zipf: ZipfPopularity,
    /// Per-column `(alias << 32) | threshold`; empty for the uniform
    /// (`s ≈ 0`) special case, which needs no table.
    table: Vec<u64>,
}

impl std::fmt::Debug for ZipfAlias {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The table is megabytes at cluster scale — elide it.
        f.debug_struct("ZipfAlias")
            .field("zipf", &self.zipf)
            .field("table_len", &self.table.len())
            .finish()
    }
}

impl ZipfAlias {
    /// Builds the table for `zipf`'s `(n, s)`; the rank→key map is
    /// `zipf`'s own.
    ///
    /// Ranks requiring `n > u32::MAX` are unsupported (the packed layout
    /// stores ranks in 32 bits); the paper's scale is ~19M.
    ///
    /// # Panics
    ///
    /// Panics if `zipf.n()` exceeds `u32::MAX`.
    pub fn from_zipf(zipf: &ZipfPopularity) -> Self {
        let n = zipf.n();
        assert!(n <= u64::from(u32::MAX), "alias table limited to u32 ranks");
        if zipf.exponent() < 1e-9 {
            // Uniform: sample_rank handles it with a single bounded draw.
            return ZipfAlias {
                zipf: zipf.clone(),
                table: Vec::new(),
            };
        }
        let s = zipf.exponent();
        let nu = n as usize;

        // Weights w_r = r^{-s}, computed in parallel chunks. Summation is
        // done per-chunk then reduced in chunk order, so the total — and
        // everything derived from it — is independent of worker count.
        let chunk = 1 << 16;
        let ranges: Vec<(u64, u64)> = (0..n.div_ceil(chunk))
            .map(|c| (c * chunk + 1, ((c + 1) * chunk).min(n)))
            .collect();
        let jobs = par_jobs();
        let chunks: Vec<(Vec<f64>, f64)> = par_map_indexed(jobs, &ranges, |_, &(lo, hi)| {
            let mut w = Vec::with_capacity((hi - lo + 1) as usize);
            let mut sum = 0.0f64;
            for r in lo..=hi {
                let x = (r as f64).powf(-s);
                w.push(x);
                sum += x;
            }
            (w, sum)
        });
        let total: f64 = chunks.iter().map(|(_, s)| s).sum();
        let mut scaled: Vec<f64> = Vec::with_capacity(nu);
        let scale = n as f64 / total;
        for (w, _) in &chunks {
            scaled.extend(w.iter().map(|x| x * scale));
        }

        // Vose's algorithm with index-ordered worklists (deterministic).
        let mut table = vec![0u64; nu];
        let mut small: Vec<u32> = Vec::new();
        let mut large: Vec<u32> = Vec::new();
        for (i, &p) in scaled.iter().enumerate() {
            if p < 1.0 {
                small.push(i as u32);
            } else {
                large.push(i as u32);
            }
        }
        while let (Some(&s_i), Some(&l_i)) = (small.last(), large.last()) {
            small.pop();
            let p = scaled[s_i as usize];
            // threshold = round(p · 2^32), clamped: coin < threshold keeps
            // the column itself, else its alias.
            let thresh = ((p * (1u64 << 32) as f64).round() as u64).min(u64::from(u32::MAX));
            table[s_i as usize] = (u64::from(l_i) << 32) | thresh;
            let rem = (scaled[l_i as usize] + p) - 1.0;
            scaled[l_i as usize] = rem;
            if rem < 1.0 {
                large.pop();
                small.push(l_i);
            }
        }
        // Leftovers (float slop): probability 1, alias = self.
        for &i in small.iter().chain(large.iter()) {
            table[i as usize] = (u64::from(i) << 32) | u64::from(u32::MAX);
        }
        ZipfAlias {
            zipf: zipf.clone(),
            table,
        }
    }

    /// Number of keys.
    pub fn n(&self) -> u64 {
        self.zipf.n()
    }

    /// Draws a popularity rank in `1..=n` — exactly two RNG draws (one
    /// bounded column pick, one 32-bit coin), no rejection loop.
    #[inline]
    pub fn sample_rank(&self, rng: &mut DetRng) -> u64 {
        let n = self.zipf.n();
        if self.table.is_empty() {
            return 1 + rng.next_below(n);
        }
        let col = rng.next_below(n);
        let coin = (rng.next_u64() >> 32) as u32;
        let packed = self.table[col as usize];
        let rank0 = if u64::from(coin) < (packed & 0xffff_ffff) {
            col
        } else {
            packed >> 32
        };
        rank0 + 1
    }

    /// Draws a key (the sampled rank's [`ZipfPopularity::key_for_rank`]).
    #[inline]
    pub fn sample(&self, rng: &mut DetRng) -> KeyId {
        self.zipf.key_for_rank(self.sample_rank(rng))
    }

    /// A structural fingerprint of the packed table (for determinism
    /// tests: two builds of the same `(n, s)` must agree bit-for-bit).
    pub fn fingerprint(&self) -> u64 {
        let mut acc = mix64(self.zipf.n() ^ self.zipf.exponent().to_bits());
        for &w in &self.table {
            acc = mix64(acc ^ w);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn build_is_deterministic_across_worker_counts() {
        let zipf = ZipfPopularity::new(100_000, 1.0, 7);
        let build = |jobs| elmem_util::par::with_par_jobs(jobs, || ZipfAlias::from_zipf(&zipf));
        let (serial, parallel) = (build(1), build(4));
        assert_eq!(serial.table, parallel.table);
        assert_eq!(serial.fingerprint(), parallel.fingerprint());
    }

    #[test]
    fn rank_frequencies_follow_power_law() {
        let zipf = ZipfPopularity::new(1000, 1.0, 7);
        let alias = ZipfAlias::from_zipf(&zipf);
        let mut rng = DetRng::seed(2);
        let mut counts: HashMap<u64, u64> = HashMap::new();
        let n = 200_000;
        for _ in 0..n {
            *counts.entry(alias.sample_rank(&mut rng)).or_default() += 1;
        }
        let c1 = counts.get(&1).copied().unwrap_or(0);
        let c10 = counts.get(&10).copied().unwrap_or(0);
        let c100 = counts.get(&100).copied().unwrap_or(0);
        assert!(c1 > c10 && c10 > c100, "c1={c1} c10={c10} c100={c100}");
        let ratio = c1 as f64 / c10.max(1) as f64;
        assert!((7.0..14.0).contains(&ratio), "ratio {ratio}");
        let ratio100 = c1 as f64 / c100.max(1) as f64;
        assert!((60.0..160.0).contains(&ratio100), "ratio100 {ratio100}");
    }

    #[test]
    fn rank_one_probability_matches_harmonic() {
        // Zipf(1.0) over 100: p(1) = 1/H_100 ≈ 0.1928.
        let zipf = ZipfPopularity::new(100, 1.0, 3);
        let alias = ZipfAlias::from_zipf(&zipf);
        let mut rng = DetRng::seed(8);
        let n = 200_000;
        let ones = (0..n).filter(|_| alias.sample_rank(&mut rng) == 1).count();
        let p = ones as f64 / n as f64;
        assert!((p - 0.1928).abs() < 0.01, "p(1) = {p}");
    }

    #[test]
    fn marginals_match_rejection_sampler() {
        // Same distribution, different draw streams: compare per-rank
        // frequencies between the two samplers.
        let zipf = ZipfPopularity::new(50, 0.9, 5);
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
                (pa - pb).abs() < 0.01,
                "rank {r}: alias {pa:.4} vs rejection {pb:.4}"
            );
        }
    }

    #[test]
    fn keys_share_the_rejection_sampler_permutation() {
        let zipf = ZipfPopularity::new(1000, 1.1, 9);
        let alias = ZipfAlias::from_zipf(&zipf);
        for r in 1..=1000 {
            assert_eq!(alias.zipf.key_for_rank(r), zipf.key_for_rank(r));
        }
        let mut rng = DetRng::seed(12);
        for _ in 0..1000 {
            let k = alias.sample(&mut rng);
            assert!(k.0 < 1000);
        }
    }

    #[test]
    fn uniform_matches_rejection_sampler_stream() {
        // s ≈ 0 short-circuits to the same single bounded draw the
        // rejection sampler makes — streams are identical, not just
        // distributions.
        let zipf = ZipfPopularity::new(64, 0.0, 1);
        let alias = ZipfAlias::from_zipf(&zipf);
        let mut a = DetRng::seed(6);
        let mut b = DetRng::seed(6);
        for _ in 0..1000 {
            assert_eq!(alias.sample_rank(&mut a), zipf.sample_rank(&mut b));
        }
    }

    #[test]
    fn sampling_is_deterministic() {
        let zipf = ZipfPopularity::new(5000, 1.0, 2);
        let alias = ZipfAlias::from_zipf(&zipf);
        let run = |seed| {
            let mut rng = DetRng::seed(seed);
            (0..100).map(|_| alias.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn single_key_always_sampled() {
        let zipf = ZipfPopularity::new(1, 1.2, 0);
        let alias = ZipfAlias::from_zipf(&zipf);
        let mut rng = DetRng::seed(10);
        for _ in 0..50 {
            assert_eq!(alias.sample(&mut rng), KeyId(0));
        }
    }
}
