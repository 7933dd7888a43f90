//! The keyspace: deterministic per-key value sizes.
//!
//! In the paper's workload, each of the ~19 M keys has a fixed value whose
//! size is drawn from the Generalized Pareto distribution (§V-A2). We derive
//! each key's size deterministically from its id, so every component (web
//! tier, database model, migration agents) agrees on sizes without shared
//! state.

use std::sync::Arc;

use elmem_util::hashutil::mix64;
use elmem_util::KeyId;

use crate::gpareto::{to_bytes, GeneralizedPareto};

/// One past the largest 53-bit key hash. A size table keeps each step as a
/// cell of 2²³ hashes, indexed by buckets over the hash's top 12 bits.
const TOP: u64 = 1 << 53;
const CELL: u32 = 23;
const BUCKET_SHIFT: u32 = 41;
const MAX_STEPS: u32 = 5_000;

/// A fixed population of keys with deterministic value sizes.
///
/// # Example
///
/// ```
/// use elmem_workload::Keyspace;
/// use elmem_util::KeyId;
///
/// let ks = Keyspace::new(10_000, 42);
/// let s1 = ks.value_size(KeyId(7));
/// assert_eq!(s1, ks.value_size(KeyId(7))); // stable
/// assert!(s1 >= 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Keyspace {
    /// Number of keys (`KeyId(0)..KeyId(n_keys)`).
    n_keys: u64,
    /// Seed decorrelating sizes from other uses of the key id.
    seed: u64,
    /// Value-size distribution.
    dist: GeneralizedPareto,
    /// Cap on a single value, bytes (paper: values range 1 B – ~1 MB slabs;
    /// ETC's reported sizes run 1 B to ~10 kB).
    max_value: u32,
    /// The certified sizes, built once and shared by clones.
    sizes: Arc<SizeTable>,
}

impl Keyspace {
    /// Default cap on value sizes, matching the paper's ETC range
    /// (1 B – 10 kB dominates the mass).
    pub const DEFAULT_MAX_VALUE: u32 = 100_000;

    /// Creates a keyspace of `n_keys` with Facebook-ETC sizes.
    ///
    /// # Panics
    ///
    /// Panics if `n_keys == 0` or `n_keys > u32::MAX`.
    pub fn new(n_keys: u64, seed: u64) -> Self {
        Self::with_distribution(
            n_keys,
            seed,
            GeneralizedPareto::facebook_etc(),
            Self::DEFAULT_MAX_VALUE,
        )
    }

    /// Creates a keyspace with an explicit size distribution and cap.
    ///
    /// # Panics
    ///
    /// Panics if `n_keys == 0`, `n_keys > u32::MAX` (a store slot and the
    /// exact profiler hold a key id in 32 bits), `max_value == 0`, or
    /// `GeneralizedPareto::new` would refuse `dist`.
    pub fn with_distribution(
        n_keys: u64,
        seed: u64,
        dist: GeneralizedPareto,
        max_value: u32,
    ) -> Self {
        assert!(n_keys > 0, "empty keyspace");
        assert!(n_keys <= u64::from(u32::MAX), "key ids past 32 bits");
        assert!(max_value > 0, "zero max value");
        let dist = GeneralizedPareto::new(dist.scale, dist.shape);
        Keyspace {
            n_keys,
            seed,
            dist,
            max_value,
            sizes: Arc::new(SizeTable::new(&dist, max_value, n_keys)),
        }
    }

    /// Number of keys.
    pub fn n_keys(&self) -> u64 {
        self.n_keys
    }

    /// Whether `key` belongs to this keyspace.
    pub fn contains(&self, key: KeyId) -> bool {
        key.0 < self.n_keys
    }

    /// The (stable) value size of a key, in bytes.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the key is out of range.
    pub fn value_size(&self, key: KeyId) -> u32 {
        debug_assert!(self.contains(key), "key {key} out of range");
        self.size_of_hash(mix64(key.0 ^ self.seed) >> 11)
    }

    /// The size at a 53-bit key hash: the table's, else `sample_bytes`'s.
    fn size_of_hash(&self, h: u64) -> u32 {
        let u = h as f64 / TOP as f64;
        self.sizes
            .size(h)
            .unwrap_or_else(|| self.dist.sample_bytes(u, self.max_value))
    }

    /// Iterates all keys.
    pub fn keys(&self) -> impl Iterator<Item = KeyId> {
        (0..self.n_keys).map(KeyId)
    }
}

/// Where `sample_bytes` steps to the next size, and the ranges between the
/// steps it has certified (DESIGN.md §5): none if κ < −1 or |σ/κ| > 10⁵,
/// else up to a failure, the 5 000th step, or a range under one key.
#[derive(Debug, PartialEq, Eq)]
struct SizeTable {
    /// Range `j`, of size `j + 1`, lies between the cells `bounds[j]` and
    /// `bounds[j + 1]`: −2, the certified steps' cells, the last one thrice.
    bounds: Vec<i32>,
    /// `first[b]`: how many steps lie below bucket `b`'s first hash.
    first: Vec<u16>,
}

impl SizeTable {
    fn new(dist: &GeneralizedPareto, max_value: u32, n_keys: u64) -> Self {
        let (scale, shape) = (dist.scale, dist.shape);
        let mut bounds = vec![-2];
        if shape >= -1.0 && shape.abs() >= 1e-9 && scale <= 1e5 * shape.abs() {
            // y = 1 − CDF(s + ½), stepped along s by series for its log: exact
            // enough for σ ≳ 100, and a smaller σ only certifies fewer steps.
            let mut y = (-(1.5 * shape / scale).ln_1p() / shape).exp();
            for s in 1..max_value.min(MAX_STEPS + 1) {
                bounds.push(((((1.0 - y) * TOP as f64) as u64).min(TOP - 1) >> CELL) as i32);
                let r = 1.0 / (scale + shape * (f64::from(s) + 0.5));
                let d = -(1.0 - shape * r * (0.5 - shape * r * (1.0 / 3.0 - shape * r / 4.0))) * r;
                let next = y + y * d * (1.0 + d * (0.5 + d * (1.0 / 6.0 + d * (1.0 / 24.0))));
                if (y - next) * (n_keys as f64) < 1.0 {
                    break;
                }
                y = next;
            }
            // Range j runs from two cells above step j − 1 to two below step j.
            let start = |j: usize| (i64::from(bounds[j] + 2) << CELL).min(TOP as i64 - 1);
            let v: Vec<f64> = (0..bounds.len())
                .map(|j| dist.quantile(start(j) as f64 / TOP as f64))
                .collect();
            let margin = |v: f64| 1e-9 + 1e-12 * v;
            let certified = (0..bounds.len() - 1).take_while(|&j| {
                let (p, q) = (start(j), start(j + 1));
                let end = (i64::from(bounds[j + 1] - 1) << CELL) - 1;
                let chord = v[j] + (v[j + 1] - v[j]) * ((end - p) as f64 / (q - p) as f64);
                let is = |v| to_bytes(v, max_value) == j as u32 + 1;
                end >= p && is(v[j] - margin(v[j])) && is(chord + margin(v[j + 1]))
            });
            bounds.truncate(certified.count() + 1);
        }
        let mut first = vec![0; (TOP >> BUCKET_SHIFT) as usize + 1];
        for &c in &bounds[1..] {
            first[(c >> (BUCKET_SHIFT - CELL)) as usize + 1] += 1;
        }
        (1..first.len()).for_each(|b| first[b] += first[b - 1]);
        bounds.extend([bounds[bounds.len() - 1]; 3]);
        SizeTable { bounds, first }
    }

    /// The size at hash `h`, if certified. Steps are near-evenly spaced in a
    /// bucket, so `h`'s range is within one of the guess (or takes `powf`).
    #[inline]
    fn size(&self, h: u64) -> Option<u32> {
        let (first, bounds) = (&self.first, &self.bounds);
        let b = (h >> BUCKET_SHIFT) as usize;
        let (from, to) = (u64::from(first[b]), u64::from(first[b + 1]));
        let within = ((h & ((1 << BUCKET_SHIFT) - 1)) * (to - from)) >> BUCKET_SHIFT;
        let i = (from + within).saturating_sub(1) as usize;
        let cell = (h >> CELL) as i32;
        let r = i + usize::from(bounds[i + 1] <= cell) + usize::from(bounds[i + 2] <= cell);
        (cell - bounds[r] >= 2 && bounds[r + 1] - cell >= 2).then_some(r as u32 + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A keyspace of 2⁴⁰ ids, past the 32 bits `with_distribution` admits,
    /// so that no range of the size table is too small to certify.
    fn certify_all(dist: GeneralizedPareto, max_value: u32) -> Keyspace {
        let n_keys = 1 << 40;
        let dist = GeneralizedPareto::new(dist.scale, dist.shape);
        let sizes = Arc::new(SizeTable::new(&dist, max_value, n_keys));
        Keyspace {
            n_keys,
            seed: 0,
            dist,
            max_value,
            sizes,
        }
    }

    #[test]
    #[should_panic(expected = "key ids past 32 bits")]
    fn ids_past_32_bits_are_refused() {
        let _ = Keyspace::new(u64::from(u32::MAX) + 1, 0);
    }

    #[test]
    fn sizes_are_stable_and_positive() {
        let ks = Keyspace::new(1000, 1);
        for k in ks.keys() {
            let s = ks.value_size(k);
            assert!(s >= 1);
            assert_eq!(s, ks.value_size(k));
        }
    }

    #[test]
    fn sizes_vary_across_keys() {
        let ks = Keyspace::new(1000, 1);
        let distinct: std::collections::HashSet<u32> =
            ks.keys().map(|k| ks.value_size(k)).collect();
        assert!(
            distinct.len() > 100,
            "only {} distinct sizes",
            distinct.len()
        );
    }

    #[test]
    fn mean_size_matches_distribution() {
        let ks = Keyspace::new(200_000, 2);
        let sum: u64 = ks.keys().map(|k| u64::from(ks.value_size(k))).sum();
        let mean = sum as f64 / ks.n_keys() as f64;
        // GP(σ=214.476, κ=0.348238) mean ≈ 329; clamping trims the tail a bit.
        assert!((250.0..400.0).contains(&mean), "mean {mean}");
    }

    #[test]
    fn different_seeds_give_different_assignments() {
        let a = Keyspace::new(1000, 1);
        let b = Keyspace::new(1000, 2);
        let diffs = a
            .keys()
            .filter(|&k| a.value_size(k) != b.value_size(k))
            .count();
        assert!(diffs > 500);
    }

    #[test]
    fn contains_bounds() {
        let ks = Keyspace::new(10, 0);
        assert!(ks.contains(KeyId(9)));
        assert!(!ks.contains(KeyId(10)));
    }

    #[test]
    #[should_panic]
    fn empty_rejected() {
        let _ = Keyspace::new(0, 0);
    }

    #[test]
    #[should_panic(expected = "invalid scale")]
    fn a_distribution_new_would_refuse_is_refused() {
        let dist = GeneralizedPareto {
            scale: f64::NAN,
            shape: 0.3,
        };
        let _ = Keyspace::with_distribution(10, 0, dist, 4_000);
    }

    #[test]
    #[should_panic(expected = "invalid shape")]
    fn an_infinite_shape_is_refused() {
        let dist = GeneralizedPareto {
            scale: 1.0,
            shape: f64::INFINITY,
        };
        let _ = Keyspace::with_distribution(10, 0, dist, 4_000);
    }

    #[test]
    fn a_support_that_ends_below_the_cap_is_served() {
        // The CDF reaches 1 before the first step (σ ≪ κ·1.5, a step past
        // the last hash) or inside the table (κ < 0): no step may index
        // past the last bucket, and every size is still `powf`'s.
        let cases = [(1e-4, 1e-9), (1.0, -0.5), (3.0, -1.0), (50.0, -0.3)];
        for (scale, shape) in cases {
            let ks = certify_all(GeneralizedPareto::new(scale, shape), 1 << 20);
            for h in (0..1 << 16).map(|i| mix64(i) >> 11).chain([0, TOP - 1]) {
                assert_eq!(
                    ks.size_of_hash(h),
                    reference(&ks, h),
                    "σ {scale} κ {shape} at {h}"
                );
            }
        }
    }

    /// The `powf` path's size at a 53-bit hash: what the table must equal.
    fn reference(ks: &Keyspace, h: u64) -> u32 {
        ks.dist.sample_bytes(h as f64 / TOP as f64, ks.max_value)
    }

    /// The benchmark's keyspaces: ETC with its scale and cap times `times`.
    fn etc(n_keys: u64, times: f64, seed: u64) -> Keyspace {
        let dist = GeneralizedPareto::facebook_etc();
        Keyspace::with_distribution(
            n_keys,
            seed,
            GeneralizedPareto::new(dist.scale * times, dist.shape),
            (f64::from(Keyspace::DEFAULT_MAX_VALUE) * times) as u32,
        )
    }

    /// The cells the table keeps its steps in.
    fn cells(ks: &Keyspace) -> &[i32] {
        &ks.sizes.bounds[1..ks.sizes.bounds.len() - 3]
    }

    #[test]
    fn every_key_of_the_benchmark_keyspaces_matches_powf() {
        // (ETC times, the most keys that may take the `powf` path)
        for (times, most) in [(1.0, 0.005), (4.0, 0.06)] {
            for seed in [7, 11] {
                let ks = etc(350_000, times, seed);
                let mut answered = 0u64;
                for key in ks.keys() {
                    let h = mix64(key.0 ^ seed) >> 11;
                    answered += u64::from(ks.sizes.size(h).is_some());
                    assert_eq!(ks.value_size(key), reference(&ks, h), "{key} at x{times}");
                }
                let through = 1.0 - answered as f64 / ks.n_keys() as f64;
                println!("ETC x{times}, seed {seed}: {through:.4} take the powf path");
                assert!(through <= most, "x{times}: {through} take the powf path");
            }
        }
    }

    #[test]
    fn hashes_beside_every_step_take_the_powf_size() {
        for times in [1.0, 4.0] {
            let ks = etc(19_000_000, times, 7);
            let (scale, shape) = (ks.dist.scale, ks.dist.shape);
            assert_eq!(cells(&ks).len(), MAX_STEPS as usize);
            let mut beside = 0;
            for (j, &c) in cells(&ks).iter().enumerate() {
                // The step itself, computed afresh: the CDF at j + 1½.
                let x = j as f64 + 1.5;
                let t = ((1.0 - (1.0 + shape * x / scale).powf(-1.0 / shape)) * TOP as f64) as u64;
                assert!(
                    (t >> CELL).abs_diff(c as u64) <= 1,
                    "step {j} lies outside its guard"
                );
                for d in [1, 1 << 20, (1 << 20) + 1] {
                    for h in [t - d, t + d] {
                        assert_eq!(ks.size_of_hash(h), reference(&ks, h), "{d} from step {j}");
                    }
                }
                // The guard's edges: its first and last hash, and one out.
                let (below, above) = (((c as u64) - 1) << CELL, ((c as u64) + 2) << CELL);
                for h in [below, above - 1] {
                    assert_eq!(ks.sizes.size(h), None, "guard of step {j}");
                }
                for h in [below - 1, above] {
                    if let Some(size) = ks.sizes.size(h) {
                        assert_eq!(size, reference(&ks, h), "by step {j}");
                        beside += 1;
                    }
                }
            }
            // Interpolation misses cost a few the `powf` path; a wider
            // guard than three cells would cost all of them.
            assert!(
                beside > 2 * MAX_STEPS * 8 / 10,
                "x{times}: {beside} answered"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn the_table_matches_powf_for_any_distribution(
            log_scale in -3.0..4.0f64,
            shape in prop_oneof![
                Just(0.0),
                Just(1e-13),
                Just(-1e-13),
                -0.5..1.5f64,
                -0.5..1.5f64,
            ],
            log_max in 0.0..6.0f64,
            seed in any::<u64>(),
        ) {
            let dist = GeneralizedPareto::new(10f64.powf(log_scale), shape);
            let ks = certify_all(dist, 10f64.powf(log_max) as u32);
            for i in 0..2_000 {
                let h = mix64(seed ^ i) >> 11;
                prop_assert_eq!(ks.size_of_hash(h), reference(&ks, h), "at {}", h);
            }
            for &c in cells(&ks).iter().step_by(7) {
                let (below, above) = (((c as u64) - 1) << CELL, ((c as u64) + 2) << CELL);
                for h in [below - 1, below, above - 1, above].map(|h| h.min(TOP - 1)) {
                    prop_assert_eq!(ks.size_of_hash(h), reference(&ks, h), "beside cell {}", c);
                }
            }
        }
    }
}
