//! Ablations of ElMem's design choices (beyond the paper's own tables):
//!
//! 1. **Import mode** — Merge (timestamp-preserving, keeps the MRU-sorted
//!    invariant) vs Prepend (the paper's §III-D3 prose verbatim).
//! 2. **CacheScale discard window** — the comparator's one tunable; the
//!    paper fixes it at ≈2 min.
//! 3. **Ring vnodes** — per-node popularity imbalance, which drives both
//!    the Fig. 7 node-choice spread and the Fig. 8 policy gaps.
//! 4. **Reactive vs predictive Q1** — §III-B's "pluggable module" claim,
//!    exercised on a rising-demand trace where prediction pre-provisions.

use elmem_bench::exp::{
    cluster_preset, experiment_preset, print_summary_row, workload_preset, Preset,
};
use elmem_bench::sweep;
use elmem_cluster::Cluster;
use elmem_core::migration::{migrate, MigrateJob, MigrationCosts, Supervision};
use elmem_core::scoring::node_score;
use elmem_core::{
    run_experiment, AutoScalerConfig, MigrationPolicy, PredictiveConfig, ScaleAction,
};
use elmem_store::ImportMode;
use elmem_util::{DetRng, NodeId, SimTime};
use elmem_workload::{RequestGenerator, TraceKind};

fn minutes(m: u64) -> SimTime {
    SimTime::from_secs(m * 60)
}

fn main() {
    let preset = Preset::from_cli();
    ablate_import_mode(preset);
    ablate_cachescale_window(preset);
    ablate_vnodes(preset);
    ablate_predictive();
}

fn ablate_import_mode(preset: Preset) {
    let nodes = preset.scale_nodes(10);
    println!(
        "== Ablation 1: batch-import mode (ETC, {nodes} -> {}) ==\n",
        nodes - 1
    );
    let scheduled = vec![(minutes(25), ScaleAction::In { count: 1 })];
    let cells = [
        ("merge", ImportMode::Merge),
        ("prepend", ImportMode::Prepend),
    ];
    let results = sweep::run_cells(sweep::jobs_from_cli(), &cells, |_, (_, mode)| {
        run_experiment(experiment_preset(
            preset,
            TraceKind::FacebookEtc,
            nodes,
            MigrationPolicy::ElMem { import: *mode },
            scheduled.clone(),
            411,
        ))
    });
    for ((label, _), result) in cells.iter().zip(&results) {
        print_summary_row(label, result);
    }
    println!(
        "(FuseCache guarantees migrated items are hotter than evicted ones,\n so both modes keep the same item set; Merge additionally preserves\n the sorted-list invariant that later FuseCache runs rely on)\n"
    );
}

fn ablate_cachescale_window(preset: Preset) {
    let nodes = preset.scale_nodes(10);
    println!(
        "== Ablation 2: CacheScale discard window (SYS, {nodes} -> {}) ==\n",
        nodes - 3
    );
    let scheduled = vec![(minutes(30), ScaleAction::In { count: 3 })];
    let cells = [30u64, 120, 480];
    let results = sweep::run_cells(sweep::jobs_from_cli(), &cells, |_, &window_s| {
        let mut cfg = experiment_preset(
            preset,
            TraceKind::FacebookSys,
            nodes,
            MigrationPolicy::CacheScale {
                window: SimTime::from_secs(window_s),
            },
            scheduled.clone(),
            412,
        );
        cfg.workload.zipf_exponent = 0.95;
        run_experiment(cfg)
    });
    for (window_s, result) in cells.iter().zip(&results) {
        print_summary_row(&format!("window={window_s}s"), result);
    }
    println!(
        "(longer windows promote more items before the discard but keep the\n retiring nodes powered longer — the elasticity savings erode)\n"
    );
}

fn ablate_vnodes(preset: Preset) {
    println!("== Ablation 3: ring vnodes vs node-choice spread ==\n");
    println!(
        "{:>7} {:>16} {:>16} {:>10}",
        "vnodes", "coldest (items)", "worst (items)", "spread"
    );
    let cells = [8u32, 32, 128];
    let results = sweep::run_cells(sweep::jobs_from_cli(), &cells, |_, &vnodes| {
        let seed = 413;
        let mut cluster_cfg = cluster_preset(preset, preset.scale_nodes(10));
        cluster_cfg.vnodes = vnodes;
        let workload = workload_preset(preset, TraceKind::FacebookEtc, seed);
        let rng = DetRng::seed(seed);
        let mut cluster = Cluster::new(cluster_cfg, workload.keyspace.clone(), rng.split("c"));
        let mut gen = RequestGenerator::new(workload, rng.split("w"));
        let zipf = gen.zipf().clone();
        cluster.prefill(
            (1..=preset.prefill_ranks())
                .rev()
                .map(|r| zipf.key_for_rank(r)),
            SimTime::ZERO,
        );
        while let Some(req) = gen.next_request() {
            if req.arrival > SimTime::from_secs(120) {
                break;
            }
            cluster.handle(&req);
        }
        let mut scored: Vec<(NodeId, f64)> = cluster
            .tier
            .membership()
            .members()
            .iter()
            .map(|&id| (id, node_score(&cluster.tier.node(id).unwrap().store)))
            .collect();
        scored.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
        let migrated_for = |id: NodeId| -> u64 {
            let mut trial = cluster.tier.clone();
            migrate(
                &mut trial,
                &MigrateJob::ScaleIn {
                    retiring: &[id],
                    import_mode: ImportMode::Merge,
                },
                SimTime::from_secs(200),
                &MigrationCosts::default(),
                &mut Supervision::none(),
                None,
            )
            .expect("migration succeeds")
            .items_migrated
        };
        let coldest = migrated_for(scored[0].0);
        let worst = scored
            .iter()
            .map(|&(id, _)| migrated_for(id))
            .max()
            .unwrap();
        (coldest, worst)
    });
    for (vnodes, (coldest, worst)) in cells.iter().zip(&results) {
        println!(
            "{vnodes:>7} {coldest:>16} {worst:>16} {:>9.0}%",
            (*worst as f64 / *coldest as f64 - 1.0) * 100.0
        );
    }
    println!(
        "(fewer vnodes -> more per-node imbalance -> bigger payoff from the\n SS III-C scoring; the paper's testbed behaved like a low-vnode ring)\n"
    );
}

fn ablate_predictive() {
    println!("== Ablation 4: reactive vs predictive Q1 on a demand ramp ==\n");
    // Drive both scalers with identical observations and an arrival-rate
    // ramp: 2,000 -> 10,000 lookups/s over 8 epochs (r_DB = 1,000/s).
    use elmem_core::{AutoScaler, PredictiveAutoScaler};
    use elmem_util::ByteSize;
    use elmem_workload::ZipfPopularity;

    let mut base = AutoScalerConfig::new(1000.0, ByteSize::from_mib(16));
    base.epoch = SimTime::from_secs(60);
    base.min_observations = 100_000;
    base.max_nodes = 32;
    let mut reactive = AutoScaler::new(base.clone());
    let mut predictive = PredictiveAutoScaler::new(PredictiveConfig::new(base));

    // A flat-ish popularity (Zipf 0.8) gives the sizing real dynamic range
    // across the ramp's p_min span.
    let zipf = ZipfPopularity::new(1_000_000, 0.8, 1);
    let mut rng = DetRng::seed(414);
    let mut nodes_r = 4u32;
    let mut nodes_p = 4u32;
    println!(
        "{:>6} {:>10} {:>10} {:>12} {:>12}",
        "epoch", "rate", "forecast", "reactive", "predictive"
    );
    for epoch in 1..=8u64 {
        let rate = 2000.0 + 1000.0 * (epoch - 1) as f64;
        // One epoch's worth of sampled lookups.
        for _ in 0..300_000 {
            let key = zipf.sample(&mut rng);
            reactive.observe(key, 400);
            predictive.observe(key, 400);
        }
        let now = SimTime::from_secs(60 * epoch);
        if let Some(h) = reactive.decide(now, rate, nodes_r) {
            nodes_r = h.target_nodes;
        }
        if let Some(h) = predictive.decide(now, rate, nodes_p) {
            nodes_p = h.target_nodes;
        }
        println!(
            "{epoch:>6} {rate:>10.0} {:>10.0} {nodes_r:>12} {nodes_p:>12}",
            predictive.forecast().unwrap_or(0.0)
        );
    }
    println!("\n(the forecaster sizes for the *predicted* rate, so its node count\n leads the reactive one on the ramp — capacity plus its hot data are\n ready when demand arrives, absorbing the ~2 min migration overhead)");
}
