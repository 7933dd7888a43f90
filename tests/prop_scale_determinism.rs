//! Cluster-scale determinism (the scale fast path's correctness claims,
//! DESIGN.md §15): a 100-node scenario's [`TelemetryDump`] is
//! **byte-identical** across worker counts (`ELMEM_JOBS` ∈ {1, 4}), and
//! the request generator's arrival process does not depend on how keys
//! are sampled.
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
use elmem::workload::{DemandTrace, Keyspace, RequestGenerator, WorkloadConfig};
use proptest::prelude::*;
use std::sync::Mutex;

/// Serializes tests that flip the process-global worker-count override
/// (the programmatic face of `ELMEM_JOBS`); cargo runs test fns in this
/// binary on concurrent threads.
static JOBS_KNOB: Mutex<()> = Mutex::new(());

/// Laptop-preset workload shape — mirrors `elmem-bench`'s `exp` constants
/// (5-key multi-gets, 833 req/s peak, 1.4M-key ETC keyspace) — over a
/// short trace so one proptest case stays sub-second.
fn laptop_preset_workload(seed: u64, zipf_exponent: f64) -> WorkloadConfig {
    WorkloadConfig {
        keyspace: Keyspace::new(1_400_000, seed),
        zipf_exponent,
        items_per_request: 5,
        peak_rate: 833.0,
        trace: DemandTrace::new(vec![1.0, 0.8, 0.6, 1.0], SimTime::from_secs(4)),
    }
}

/// A 100-node tier sized for tests: the node count is the paper's scale,
/// the per-node footprint is the unit-test shrink so four full runs fit in
/// one proptest case.
fn hundred_node_cluster() -> ClusterConfig {
    ClusterConfig {
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
fn hundred_node_scenario(seed: u64) -> ExperimentConfig {
    ExperimentConfig {
        cluster: hundred_node_cluster(),
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

fn dump(seed: u64, jobs: usize) -> String {
    let r = with_par_jobs(jobs, || {
        run_experiment_with_telemetry(hundred_node_scenario(seed), TelemetryConfig::default())
    });
    r.telemetry.to_json()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The scale claim: the full telemetry dump of a 100-node run —
    /// event stream, histograms, counter series, per-node rows — is
    /// byte-identical at one worker and at four.
    #[test]
    fn hundred_node_dump_identical_across_jobs(seed in 0u64..1_000) {
        let _guard = JOBS_KNOB.lock().unwrap_or_else(|e| e.into_inner());
        let want = dump(seed, 1);
        let got = dump(seed, 4);
        prop_assert_eq!(&got, &want, "dump diverged at jobs=4 (seed {})", seed);
    }

    /// Arrivals and keys draw from separate sub-streams of the seed, so a
    /// key sampler that consumes more or fewer words per key — any
    /// exponent, or the uniform case's single bounded draw — leaves every
    /// arrival instant where it was. A sampler change therefore moves key
    /// streams and nothing else (`count.requests` stays bit-identical).
    #[test]
    fn arrivals_do_not_depend_on_the_key_sampler(seed in any::<u64>(), s in 0.1f64..1.5) {
        let mut skewed =
            RequestGenerator::new(laptop_preset_workload(seed, s), DetRng::seed(seed));
        let mut uniform =
            RequestGenerator::new(laptop_preset_workload(seed, 0.0), DetRng::seed(seed));
        let mut n = 0u64;
        loop {
            match (skewed.next_request(), uniform.next_request()) {
                (Some(a), Some(b)) => {
                    prop_assert_eq!(a.arrival, b.arrival);
                    prop_assert_eq!(a.keys.len(), b.keys.len());
                }
                (None, None) => break,
                (a, b) => prop_assert!(false, "lengths diverged: {:?} vs {:?}", a, b),
            }
            n += 1;
        }
        prop_assert!(n > 1_000, "trace produced only {} requests", n);
    }
}
