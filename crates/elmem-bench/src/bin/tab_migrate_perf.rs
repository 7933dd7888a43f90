//! **E16 / migration perf baseline** — wall-clock cost of the migration
//! *data plane* (scoring → dump → FuseCache planning → import), tracked in
//! `results/BENCH_migration.json` against a committed pre-optimization
//! baseline, mirroring `tab_perf`'s smoke/full-mode discipline.
//!
//! Three measurements:
//!
//! * **end-to-end migration**: one warmed laptop-scale tier, retire the
//!   Master's scoring choice, time `migrate_scale_in` (best of N reps on
//!   cloned tiers). The committed JSON keeps `baseline_migrate_wall_ms`
//!   from the first recorded full run (the pre-optimization baseline) so
//!   `improvement_pct` tracks data-plane work across PRs. Pass
//!   `--rebaseline` to reset it to the current run.
//! * **scoring rounds**: repeated `choose_retiring` passes — the §III-C
//!   crawl whose per-class `median_hotness` probe the store now caches.
//! * **plan construction**: `plan_scale_in_shipments` run serially
//!   (`jobs = 1`) and in parallel (`--jobs` / `ELMEM_JOBS`); the two plans
//!   must be **byte-identical**, and the wall-clock ratio is the speedup.
//!
//! `--smoke` runs a seconds-long version for CI: it always asserts
//! parallel == serial plan identity, additionally asserts speedup
//! ≥ 1.5× when at least 4 cores are available and ≥ 4 jobs requested, and
//! rebuilds the tier at 1 and at 8 store shards to assert that the serial
//! plan is the same plan and costs at most 2× per item at 8 — a same-run
//! ratio that holds on any runner and fails if merging a class's shard
//! lists ever goes super-linear again. A
//! smoke run never reads from — or overwrites — a full-mode results file;
//! its numbers come from a smaller tier and are not comparable.
//! Absolute wall-clock numbers are machine-dependent; the machine-agnostic
//! fields are the byte-identity bit, the speedup ratio, and the item
//! counters.

use std::fmt::Write as _;
use std::time::Instant;

use elmem_bench::exp::{cluster_preset, Preset};
use elmem_bench::sweep;
use elmem_cluster::CacheTier;
use elmem_core::migration::{migrate, MigrateJob, MigrationCosts, Supervision};
use elmem_core::{choose_retiring, plan_scale_in_shipments, Shipment};
use elmem_store::ImportMode;
use elmem_util::{KeyId, SimTime};
use elmem_workload::Keyspace;

const RESULT_PATH: &str = "results/BENCH_migration.json";
const SCHEMA: &str = "elmem-migrate-perf-v1";

/// A warmed laptop-scale tier: `keys` keys spread over `nodes` nodes by
/// the ring, set with Keyspace-drawn value sizes and strictly increasing
/// timestamps, then a re-touch pass over every 7th key — a serving-warm
/// steady state whose MRU lists are hotness-sorted, like the real system
/// just before a scale-in. Every store is split into `shards` shards.
fn warmed_tier(nodes: u32, keys: u64, shards: usize) -> CacheTier {
    let ks = Keyspace::new(keys, 11);
    let mut config = cluster_preset(Preset::from_cli(), nodes);
    config.store_shards = shards;
    let mut tier = CacheTier::new(config);
    for k in 0..keys {
        let key = KeyId(k);
        let owner = tier.node_for_key(key).expect("non-empty membership");
        let t = SimTime::from_nanos(1_000_000_000 + k * 1_000);
        let _ = tier
            .node_mut(owner)
            .expect("member is provisioned")
            .store
            .set(key, ks.value_size(key), t);
    }
    for k in (0..keys).step_by(7) {
        let key = KeyId(k);
        let owner = tier.node_for_key(key).expect("non-empty membership");
        let t = SimTime::from_nanos(10_000_000_000_000 + k * 1_000);
        let _ = tier
            .node_mut(owner)
            .expect("member is provisioned")
            .store
            .get(key, t);
    }
    tier
}

/// FNV-1a digest over every byte of the plan that phase 3 would ship:
/// (source, target, class) routing plus each chosen item's key and
/// timestamp. Two plans with equal digests shipped the same items in the
/// same order.
fn plan_digest(plan: &[Shipment]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mix = |h: &mut u64, v: u64| {
        *h ^= v;
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for s in plan {
        mix(&mut h, u64::from(s.source.0));
        mix(&mut h, u64::from(s.target.0));
        mix(&mut h, u64::from(s.class.0));
        mix(&mut h, s.len() as u64);
        for item in s.items() {
            mix(&mut h, item.key.0);
            mix(&mut h, item.last_access.as_nanos());
        }
    }
    h
}

/// The previously committed baselines, if the results file already records
/// them — and only from a *full*-mode record: smoke runs measure a smaller
/// tier whose numbers are not comparable.
fn read_baseline(field: &str) -> Option<f64> {
    let text = std::fs::read_to_string(RESULT_PATH).ok()?;
    if !text.contains("\"mode\":\"full\"") {
        return None;
    }
    let start = text.find(field)? + field.len();
    let rest = &text[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let rebaseline = args.iter().any(|a| a == "--rebaseline");
    let jobs = sweep::jobs_from_cli();
    let cores = rayon::current_num_threads();
    println!(
        "== tab_migrate_perf: migration data-plane wall-clock{} ==",
        if smoke { " [smoke]" } else { "" }
    );
    println!("cores={cores} jobs={jobs}\n");

    let nodes = 4u32;
    let keys: u64 = if smoke { 120_000 } else { 500_000 };
    let now = SimTime::from_secs(100_000);
    let costs = MigrationCosts::default();

    let t0 = Instant::now();
    let tier = warmed_tier(nodes, keys, elmem_store::default_shard_count());
    println!(
        "warmed tier: {nodes} nodes, {} resident items ({:.2}s to build)",
        tier.membership()
            .members()
            .iter()
            .map(|&id| tier.node(id).unwrap().store.len())
            .sum::<u64>(),
        t0.elapsed().as_secs_f64()
    );

    // -- 1. Scoring rounds: the §III-C crawl the Master runs per decision. --
    let rounds = if smoke { 10 } else { 40 };
    let t0 = Instant::now();
    let mut victims = Vec::new();
    for _ in 0..rounds {
        victims = std::hint::black_box(choose_retiring(&tier, 1).unwrap().0);
    }
    let scoring_wall = t0.elapsed().as_secs_f64();
    println!(
        "scoring: {rounds} choose_retiring rounds in {:.3}s ({:.1} ms/round), victim {:?}",
        scoring_wall,
        scoring_wall * 1000.0 / rounds as f64,
        victims
    );

    // -- 2. End-to-end migration: best of N reps on cloned tiers. ----------
    let reps = if smoke { 1 } else { 3 };
    let mut best_wall = f64::INFINITY;
    let mut report = None;
    for rep in 0..reps {
        let mut t = tier.clone();
        let t0 = Instant::now();
        let r = migrate(
            &mut t,
            &MigrateJob::ScaleIn {
                retiring: &victims,
                import_mode: ImportMode::Merge,
            },
            now,
            &costs,
            &mut Supervision::none(),
            None,
        )
        .expect("migration succeeds");
        let wall = t0.elapsed().as_secs_f64();
        println!(
            "migrate rep {rep}: {} considered, {} migrated in {:.3}s",
            r.items_considered, r.items_migrated, wall
        );
        if wall < best_wall {
            best_wall = wall;
            report = Some(r);
        }
    }
    let report = report.expect("at least one repetition ran");
    let items_per_sec = report.items_considered as f64 / best_wall;

    // The pre-PR baselines ride along in the committed JSON; a smoke run
    // measures a different tier, so it never compares against (or
    // overwrites) the full run's baselines.
    let migrate_wall_ms = best_wall * 1000.0;
    let scoring_wall_ms = scoring_wall * 1000.0;
    let baseline_migrate_ms = if smoke || rebaseline {
        migrate_wall_ms
    } else {
        read_baseline("\"baseline_migrate_wall_ms\":").unwrap_or(migrate_wall_ms)
    };
    let baseline_scoring_ms = if smoke || rebaseline {
        scoring_wall_ms
    } else {
        read_baseline("\"baseline_scoring_wall_ms\":").unwrap_or(scoring_wall_ms)
    };
    let migrate_improvement_pct = (baseline_migrate_ms / migrate_wall_ms - 1.0) * 100.0;
    let scoring_improvement_pct = (baseline_scoring_ms / scoring_wall_ms - 1.0) * 100.0;
    println!(
        "migrate: {migrate_wall_ms:.0} ms (baseline {baseline_migrate_ms:.0} ms, \
         {migrate_improvement_pct:+.1}%), {items_per_sec:.0} items/s considered"
    );
    println!(
        "scoring: {scoring_wall_ms:.0} ms (baseline {baseline_scoring_ms:.0} ms, \
         {scoring_improvement_pct:+.1}%)\n"
    );

    // -- 3. Plan construction: serial vs parallel, byte-identity, speedup. --
    let plan_reps = if smoke { 3 } else { 5 };
    let t0 = Instant::now();
    let mut serial = None;
    for _ in 0..plan_reps {
        serial = Some(std::hint::black_box(
            plan_scale_in_shipments(&tier, &victims, 1).expect("serial planning succeeds"),
        ));
    }
    let plan_serial_wall = t0.elapsed().as_secs_f64() / plan_reps as f64;
    let (serial_plan, serial_stats) = serial.expect("at least one repetition ran");
    let t0 = Instant::now();
    let mut parallel = None;
    for _ in 0..plan_reps {
        parallel = Some(std::hint::black_box(
            plan_scale_in_shipments(&tier, &victims, jobs).expect("parallel planning succeeds"),
        ));
    }
    let plan_parallel_wall = t0.elapsed().as_secs_f64() / plan_reps as f64;
    let (parallel_plan, parallel_stats) = parallel.expect("at least one repetition ran");
    // The determinism contract this benchmark exists to enforce: the
    // parallel plan is byte-identical to the serial one, always.
    assert_eq!(
        serial_plan, parallel_plan,
        "parallel plan must be byte-identical to serial"
    );
    assert_eq!(serial_stats, parallel_stats, "plan stats must match");
    let digest = plan_digest(&serial_plan);
    let plan_speedup = plan_serial_wall / plan_parallel_wall;
    let plan_items_per_sec = serial_stats.items_considered as f64 / plan_parallel_wall;
    println!(
        "plan: serial {:.1} ms, parallel(jobs={jobs}) {:.1} ms, speedup {plan_speedup:.2}x, \
         {} cells, {} comparisons, digest {digest:016x}, plans identical",
        plan_serial_wall * 1000.0,
        plan_parallel_wall * 1000.0,
        serial_stats.cells,
        serial_stats.comparisons,
    );
    if cores >= 4 && jobs >= 4 {
        assert!(
            plan_speedup >= 1.5,
            "parallel planning speedup {plan_speedup:.2}x below 1.5x with \
             {cores} cores and {jobs} jobs"
        );
    } else {
        println!("(speedup floor not asserted: cores={cores}, jobs={jobs})");
    }
    println!();

    // -- 3b. Shard-count scaling of the serial plan (smoke only). ----------
    if smoke {
        let [(ns_1, digest_1), (ns_8, digest_8)] = [1usize, 8].map(|shards| {
            let tier = warmed_tier(nodes, keys, shards);
            let mut best = f64::INFINITY;
            let mut digest = 0;
            for _ in 0..5 {
                let t0 = Instant::now();
                let (plan, stats) = std::hint::black_box(
                    plan_scale_in_shipments(&tier, &victims, 1).expect("planning succeeds"),
                );
                best = best.min(t0.elapsed().as_secs_f64() * 1e9 / stats.items_considered as f64);
                digest = plan_digest(&plan);
            }
            (best, digest)
        });
        println!(
            "plan by shard count: {ns_1:.0} ns/item at 1 shard, {ns_8:.0} ns/item at 8 \
             ({:.2}x)\n",
            ns_8 / ns_1
        );
        assert_eq!(
            digest_1, digest_8,
            "the plan must not depend on the shard count"
        );
        assert!(
            ns_8 <= 2.0 * ns_1,
            "planning costs {ns_8:.0} ns/item at 8 shards, over 2x the {ns_1:.0} ns/item at 1"
        );
    }

    // -- 4. Emit results/BENCH_migration.json. ------------------------------
    let mut doc = String::new();
    let _ = write!(
        doc,
        "{{\"schema\":\"{SCHEMA}\",\"mode\":\"{}\",\"jobs\":{jobs},\"cores\":{cores},\
         \"tier\":{{\"nodes\":{nodes},\"keys\":{keys}}},\
         \"migrate\":{{\"wall_ms\":{migrate_wall_ms:.1},\
         \"baseline_migrate_wall_ms\":{baseline_migrate_ms:.1},\
         \"improvement_pct\":{migrate_improvement_pct:.1},\
         \"items_considered\":{},\"items_migrated\":{},\"items_per_sec\":{items_per_sec:.0}}},\
         \"scoring\":{{\"rounds\":{rounds},\"wall_ms\":{scoring_wall_ms:.1},\
         \"baseline_scoring_wall_ms\":{baseline_scoring_ms:.1},\
         \"improvement_pct\":{scoring_improvement_pct:.1}}},\
         \"plan\":{{\"reps\":{plan_reps},\"serial_wall_ms\":{:.1},\
         \"parallel_wall_ms\":{:.1},\"speedup\":{plan_speedup:.2},\
         \"identical\":true,\"digest\":\"{digest:016x}\",\
         \"cells\":{},\"comparisons\":{},\
         \"items_per_sec\":{plan_items_per_sec:.0}}}}}",
        if smoke { "smoke" } else { "full" },
        report.items_considered,
        report.items_migrated,
        plan_serial_wall * 1000.0,
        plan_parallel_wall * 1000.0,
        serial_stats.cells,
        serial_stats.comparisons,
    );
    // A smoke run never clobbers a committed full-run record: the tracked
    // baseline lives in the full-mode file, and CI's artifact should carry
    // the real trajectory, not a smoke sample from a smaller tier.
    let keep_full = smoke
        && std::fs::read_to_string(RESULT_PATH)
            .map(|t| t.contains("\"mode\":\"full\""))
            .unwrap_or(false);
    if keep_full {
        println!("keeping existing full-mode {RESULT_PATH} (smoke run not recorded)");
    } else {
        std::fs::create_dir_all("results").expect("create results/");
        std::fs::write(RESULT_PATH, &doc).expect("write BENCH_migration.json");
        println!("wrote {RESULT_PATH}");
    }
}
