//! `ZipfAlias`, once a table with an alias column per rank, is the Zipf
//! sampler it is built from: kept only because the repo benchmark's
//! `workload.alias_sample_ns` names it (`benchmark/src/layers.rs:101`).

use elmem_util::{DetRng, KeyId};

use crate::zipf::ZipfPopularity;

/// A [`ZipfPopularity`] under the name the repo benchmark builds.
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
#[derive(Debug, Clone)]
pub struct ZipfAlias(ZipfPopularity);

impl ZipfAlias {
    /// `zipf`, cloned.
    pub fn from_zipf(zipf: &ZipfPopularity) -> Self {
        ZipfAlias(zipf.clone())
    }

    /// A key, drawn as [`ZipfPopularity::sample`] draws it.
    #[inline]
    pub fn sample(&self, rng: &mut DetRng) -> KeyId {
        self.0.sample(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The shim's keys and `zipf`'s, from equal seeds.
    fn both_streams(zipf: &ZipfPopularity, seed: u64) -> (Vec<KeyId>, Vec<KeyId>) {
        let alias = ZipfAlias::from_zipf(zipf);
        let (mut a, mut b) = (DetRng::seed(seed), DetRng::seed(seed));
        (0..1_000)
            .map(|_| (alias.sample(&mut a), zipf.sample(&mut b)))
            .unzip()
    }

    #[test]
    fn keys_share_the_rejection_sampler_permutation() {
        let (shim, zipf) = both_streams(&ZipfPopularity::new(1000, 1.1, 9), 12);
        assert_eq!(shim, zipf);
        assert!(shim.iter().all(|k| k.0 < 1000));
    }

    #[test]
    fn uniform_matches_rejection_sampler_stream() {
        let (shim, zipf) = both_streams(&ZipfPopularity::new(64, 0.0, 1), 6);
        assert_eq!(shim, zipf);
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
