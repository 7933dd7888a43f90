//! Cluster-scale determinism (the scale fast path's correctness claims,
//! DESIGN.md §15): a 100-node scenario's [`TelemetryDump`] is
//! **byte-identical** across worker counts (`ELMEM_JOBS` ∈ {1, 4}) and
//! store shard counts (`ELMEM_SHARDS` ∈ {1, 8}), and the alias-capable
//! request generator leaves laptop-preset request streams untouched
//! **key-for-key** relative to the pre-existing rejection sampler.
//!
//! [`TelemetryDump`]: elmem::core::telemetry::TelemetryDump

use elmem::cluster::ClusterConfig;
use elmem::core::migration::MigrationCosts;
use elmem::core::{
    run_experiment_with_telemetry, ExperimentConfig, FaultPlan, MigrationPolicy, ScaleAction,
};
use elmem::store::SizeClasses;
use elmem::util::par::with_par_jobs;
use elmem::util::{ByteSize, DetRng, SimTime, TelemetryConfig};
use elmem::workload::{
    DemandTrace, Keyspace, RequestGenerator, WorkloadConfig, ZipfAlias, ZipfPopularity,
};
use proptest::prelude::*;
use std::sync::Mutex;

/// Serializes tests that flip the process-global worker-count override
/// (the programmatic face of `ELMEM_JOBS`); cargo runs test fns in this
/// binary on concurrent threads.
static JOBS_KNOB: Mutex<()> = Mutex::new(());

/// Laptop-preset workload shape — mirrors `elmem-bench`'s `exp` constants
/// (Zipf(1.0), 5-key multi-gets, 833 req/s peak, 1.4M-key ETC keyspace,
/// comfortably below the alias threshold) — over a short trace so one
/// proptest case stays sub-second.
fn laptop_preset_workload(seed: u64) -> WorkloadConfig {
    WorkloadConfig {
        keyspace: Keyspace::new(1_400_000, seed),
        zipf_exponent: 1.0,
        items_per_request: 5,
        peak_rate: 833.0,
        trace: DemandTrace::new(vec![1.0, 0.8, 0.6, 1.0], SimTime::from_secs(4)),
    }
}

/// A 100-node tier sized for tests: the node count is the paper's scale,
/// the per-node footprint is the unit-test shrink so four full runs fit in
/// one proptest case.
fn hundred_node_cluster(shards: usize) -> ClusterConfig {
    ClusterConfig {
        store_shards: shards,
        initial_nodes: 100,
        node_memory: ByteSize::from_mib(4),
        slab_classes: SizeClasses::new(96, 4.0, ByteSize::PAGE.as_u64()),
        vnodes: 32,
        ..ClusterConfig::small_test()
    }
}

/// The 100-node scenario: prefilled tier, diurnal-ish demand, one scale-in
/// and one scale-out of 10 nodes each — so the run crosses every fan-out
/// path (warm-up fill, migration dump/import, probe rounds).
fn hundred_node_scenario(seed: u64, shards: usize) -> ExperimentConfig {
    ExperimentConfig {
        cluster: hundred_node_cluster(shards),
        workload: WorkloadConfig {
            keyspace: Keyspace::new(60_000, seed),
            zipf_exponent: 1.0,
            items_per_request: 5,
            peak_rate: 1_200.0,
            trace: DemandTrace::new(vec![1.0, 0.7, 0.5, 1.0], SimTime::from_secs(5)),
        },
        policy: MigrationPolicy::elmem(),
        autoscaler: None,
        scheduled: vec![
            (SimTime::from_secs(4), ScaleAction::In { count: 10 }),
            (SimTime::from_secs(9), ScaleAction::Out { count: 10 }),
        ],
        prefill_top_ranks: 60_000,
        costs: MigrationCosts::default(),
        faults: FaultPlan::new(),
        healing: None,
        master: Default::default(),
        seed,
    }
}

fn dump(seed: u64, jobs: usize, shards: usize) -> String {
    let r = with_par_jobs(jobs, || {
        run_experiment_with_telemetry(
            hundred_node_scenario(seed, shards),
            TelemetryConfig::default(),
        )
    });
    r.telemetry.to_json()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The scale claim: the full telemetry dump of a 100-node run —
    /// event stream, histograms, counter series, per-node rows — is
    /// byte-identical at every (jobs, shards) point of the
    /// {1, 4} × {1, 8} grid.
    #[test]
    fn hundred_node_dump_identical_across_jobs_and_shards(seed in 0u64..1_000) {
        let _guard = JOBS_KNOB.lock().unwrap_or_else(|e| e.into_inner());
        let want = dump(seed, 1, 1);
        for (jobs, shards) in [(4, 1), (1, 8), (4, 8)] {
            let got = dump(seed, jobs, shards);
            prop_assert_eq!(
                &got, &want,
                "dump diverged at jobs={} shards={} (seed {})",
                jobs, shards, seed
            );
        }
    }

    /// The laptop-stream claim: at laptop-preset scale (1.4M keys, below
    /// the alias threshold) the alias-capable `RequestGenerator::new` —
    /// the constructor every experiment calls — produces the same request
    /// stream, key for key and arrival for arrival, as the pre-existing
    /// rejection-sampling generator. Pinned goldens rest on this.
    #[test]
    fn laptop_preset_streams_match_rejection_sampler_key_for_key(seed in any::<u64>()) {
        let cfg = laptop_preset_workload(seed);
        let mut auto_gen = RequestGenerator::new(cfg.clone(), DetRng::seed(seed));
        prop_assert!(
            auto_gen.alias().is_none(),
            "laptop preset must sit below the alias threshold"
        );
        let mut rejection =
            RequestGenerator::with_alias_sampling(cfg, DetRng::seed(seed), false);
        let mut n = 0u64;
        loop {
            let a = auto_gen.next_request();
            let b = rejection.next_request();
            prop_assert_eq!(&a, &b, "streams diverged at request {}", n);
            if a.is_none() {
                break;
            }
            n += 1;
        }
        prop_assert!(n > 1_000, "trace produced only {} requests", n);
    }

    /// The alias-table claims that make the post-threshold switch safe:
    /// the table is a pure function of (n, s) — byte-identical across
    /// build worker counts — and the forced-alias generator keeps the
    /// arrival process and the rank→key permutation of the rejection
    /// sampler (keys differ only by which *rank* each draw picks).
    #[test]
    fn alias_generator_preserves_arrivals_and_permutation(seed in any::<u64>()) {
        let _guard = JOBS_KNOB.lock().unwrap_or_else(|e| e.into_inner());
        let zipf = ZipfPopularity::new(200_000, 1.0, seed);
        let serial = with_par_jobs(1, || ZipfAlias::from_zipf(&zipf));
        let parallel = with_par_jobs(4, || ZipfAlias::from_zipf(&zipf));
        prop_assert_eq!(serial.fingerprint(), parallel.fingerprint());
        // Twin RNGs: the rank the alias sampler draws maps to exactly the
        // key the rejection sampler's permutation assigns to that rank.
        let mut rank_rng = DetRng::seed(seed ^ 0x5eed);
        let mut key_rng = DetRng::seed(seed ^ 0x5eed);
        for _ in 0..2_000 {
            let rank = serial.sample_rank(&mut rank_rng);
            prop_assert_eq!(serial.sample(&mut key_rng), zipf.key_for_rank(rank));
        }

        let cfg = laptop_preset_workload(seed);
        let mut rejection =
            RequestGenerator::with_alias_sampling(cfg.clone(), DetRng::seed(seed), false);
        let mut alias = RequestGenerator::with_alias_sampling(cfg, DetRng::seed(seed), true);
        loop {
            match (rejection.next_request(), alias.next_request()) {
                (Some(a), Some(b)) => {
                    prop_assert_eq!(a.arrival, b.arrival);
                    prop_assert_eq!(a.keys.len(), b.keys.len());
                }
                (None, None) => break,
                (a, b) => prop_assert!(false, "lengths diverged: {:?} vs {:?}", a, b),
            }
        }
    }
}
