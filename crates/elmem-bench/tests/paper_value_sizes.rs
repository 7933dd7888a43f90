//! Every key of the paper's keyspace gets the size the `powf` path gives
//! it. `Keyspace::value_size` answers most keys from a table it certified
//! when it was built (DESIGN.md §5); this checks all ~19 M of
//! `Preset::Paper`'s keys, at seed 7, against `sample_bytes` itself.
//!
//! `#[ignore]`d — a few seconds in release; CI runs it nightly:
//!
//! ```text
//! cargo test --release -p elmem-bench --test paper_value_sizes -- --ignored
//! ```

use elmem_bench::exp::Preset;
use elmem_util::hashutil::mix64;
use elmem_util::KeyId;
use elmem_workload::{GeneralizedPareto, Keyspace};

const SEED: u64 = 7;

#[test]
#[ignore = "19 M keys against libm's powf; run in release"]
fn every_paper_key_has_its_powf_size() {
    let n = Preset::Paper.keys();
    let keyspace = Keyspace::new(n, SEED);
    let dist = GeneralizedPareto::facebook_etc();
    for k in 0..n {
        // The key's 53-bit hash as a uniform in [0, 1), as `value_size` takes it.
        let u = (mix64(k ^ SEED) >> 11) as f64 / (1u64 << 53) as f64;
        assert_eq!(
            keyspace.value_size(KeyId(k)),
            dist.sample_bytes(u, Keyspace::DEFAULT_MAX_VALUE),
            "key {k}"
        );
    }
}
