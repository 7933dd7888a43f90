//! Golden-trace regression suite: fixed-seed scenarios whose full
//! telemetry dumps — event stream, latency histograms, counter series,
//! per-node rows — must stay **byte-identical** to the checked-in
//! fixtures under `tests/golden/`. Any change to request scheduling,
//! breaker behaviour, migration phasing, or the dump encoding shows up
//! here as a diff.
//!
//! To re-bless after an intentional change:
//!
//! ```text
//! BLESS=1 cargo test -p elmem --test golden_telemetry
//! ```

use elmem::cluster::ClusterConfig;
use elmem::core::migration::MigrationCosts;
use elmem::core::{run_experiment, ExperimentConfig, FaultPlan, MigrationPolicy, ScaleAction};
use elmem::util::SimTime;
use elmem::workload::{DemandTrace, Keyspace, WorkloadConfig};
use std::path::{Path, PathBuf};

/// A one-minute steady run on the tiny test tier with one scheduled
/// scaling action at the 30 s mark.
fn config(action: ScaleAction) -> ExperimentConfig {
    ExperimentConfig {
        cluster: ClusterConfig::small_test(),
        workload: WorkloadConfig {
            keyspace: Keyspace::new(20_000, 4),
            zipf_exponent: 1.0,
            items_per_request: 3,
            peak_rate: 200.0,
            trace: DemandTrace::new(vec![1.0; 6], SimTime::from_secs(10)),
        },
        policy: MigrationPolicy::elmem(),
        autoscaler: None,
        scheduled: vec![(SimTime::from_secs(30), action)],
        prefill_top_ranks: 10_000,
        costs: MigrationCosts::default(),
        faults: FaultPlan::new(),
        healing: None,
        master: Default::default(),
        seed: 11,
    }
}

fn fixture_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(name)
}

/// Byte-compares `dump` against the named fixture; `BLESS=1` rewrites the
/// fixture instead. On mismatch the panic shows the first divergence with
/// context rather than both multi-kilobyte strings.
fn check_golden(name: &str, dump: &str) {
    let path = fixture_path(name);
    if std::env::var("BLESS").as_deref() == Ok("1") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, dump).unwrap();
        println!("blessed {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); run `BLESS=1 cargo test -p elmem \
             --test golden_telemetry` to generate it",
            path.display()
        )
    });
    if dump != golden {
        let at = dump
            .bytes()
            .zip(golden.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or(dump.len().min(golden.len()));
        let ctx = |s: &str| {
            let from = at.saturating_sub(60);
            s.get(from..(at + 60).min(s.len()))
                .unwrap_or("")
                .to_string()
        };
        panic!(
            "telemetry dump diverged from {} at byte {at} (got {} bytes, fixture {}):\n  \
             got    ...{}...\n  golden ...{}...\nIf the change is intentional, re-bless with \
             `BLESS=1 cargo test -p elmem --test golden_telemetry`.",
            path.display(),
            dump.len(),
            golden.len(),
            ctx(dump),
            ctx(&golden)
        );
    }
}

fn run_dump(action: ScaleAction) -> String {
    let r = run_experiment(config(action));
    r.telemetry.to_json()
}

#[test]
fn scale_in_dump_matches_golden() {
    check_golden("scale_in.json", &run_dump(ScaleAction::In { count: 1 }));
}

#[test]
fn scale_out_dump_matches_golden() {
    check_golden("scale_out.json", &run_dump(ScaleAction::Out { count: 1 }));
}

#[test]
fn scale_in_resume_dump_matches_golden() {
    // The scale-in scenario with the Master crashing 200 ms into the
    // migration and resuming from the journal — pins the full crash /
    // restart / resume / commit event sequence (`master_crashed`,
    // `migration_resumed`) byte-for-byte.
    let mut cfg = config(ScaleAction::In { count: 1 });
    cfg.master.crashes = vec![SimTime::from_secs(30) + SimTime::from_millis(200)];
    let r = run_experiment(cfg);
    let dump = r.telemetry.to_json();
    assert!(
        dump.contains("\"master_crashed\"") && dump.contains("\"migration_resumed\""),
        "resume scenario must actually crash and resume"
    );
    check_golden("scale_in_resume.json", &dump);
}

#[test]
fn golden_scenarios_are_byte_reproducible() {
    // The fixture comparison only constrains drift across *commits*; this
    // pins the stronger in-process claim the goldens rest on — the same
    // seed yields the same bytes twice in the same build.
    let a = run_dump(ScaleAction::In { count: 1 });
    let b = run_dump(ScaleAction::In { count: 1 });
    assert_eq!(a, b);
}
