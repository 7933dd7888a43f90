//! The paper's evaluation as functions: one per figure or table. Each
//! builds its configs, runs its cells through [`par_map_indexed`] at
//! [`par_jobs`] workers and returns numbers — the [`ExperimentResult`]s or
//! small reduced structs, never text. The `fig*` / `tab*` binaries parse
//! their arguments and print what these return; DESIGN.md §4 names each
//! row's function.
//!
//! Every cell seeds its own `DetRng`, so what a function returns is
//! byte-identical at any worker count.

use elmem_cluster::{CacheTier, Cluster, ClusterConfig};
use elmem_core::{
    choose_retiring, migrate, run_chaos, run_experiment, AutoScaler, AutoScalerConfig, ChaosReport,
    ExperimentConfig, ExperimentResult, FaultPlan, HealingConfig, MasterRecovery, MigrateJob,
    MigrationCosts, MigrationJournal, MigrationPolicy, MigrationReport, PredictiveAutoScaler,
    ScaleAction, Supervision,
};
use elmem_sim::chaos::ChaosPlan;
use elmem_store::item::item_footprint;
use elmem_store::ImportMode;
use elmem_util::costmodel::{compare, elastic_savings, CostComparison, PowerModel};
use elmem_util::par::{par_jobs, par_map_indexed};
use elmem_util::stats::window_mean;
use elmem_util::{ByteSize, DetRng, NodeId, SimTime};
use elmem_workload::{DemandTrace, Keyspace, RequestGenerator, TraceKind, ZipfPopularity};

use crate::exp::{
    cluster_preset, experiment_preset, smoke_experiment, workload_preset, Preset, ITEMS_PER_REQUEST,
};

fn minutes(m: u64) -> SimTime {
    SimTime::from_secs(m * 60)
}

/// Runs independent experiment cells on the workers, results in cell order.
fn run_cells<const N: usize>(configs: [ExperimentConfig; N]) -> [ExperimentResult; N] {
    let results = par_map_indexed(par_jobs(), &configs, |_, cfg| run_experiment(cfg.clone()));
    results.try_into().expect("one result per cell")
}

/// The steady-demand deployment the robustness runs share, with the second
/// its one event lands at: the preset's ETC tier at full width for seven
/// minutes (event at 120 s), or under `smoke` [`smoke_experiment`] (event at
/// 30 s), which keeps its own seed.
fn steady(
    preset: Preset,
    smoke: bool,
    policy: MigrationPolicy,
    seed: u64,
) -> (ExperimentConfig, u64) {
    if smoke {
        return (smoke_experiment(policy), 30);
    }
    let trace = TraceKind::FacebookEtc;
    let mut cfg = experiment_preset(preset, trace, preset.scale_nodes(10), policy, vec![], seed);
    cfg.workload.trace = DemandTrace::new(vec![1.0; 7], SimTime::from_secs(60));
    (cfg, 120)
}

/// Builds the preset's ETC deployment on `cluster`, prefills the whole
/// keyspace and serves its requests up to `until`, so per-node recency
/// differs. Returns the warm cluster and the requests it served.
fn warm_cluster(
    preset: Preset,
    cluster: ClusterConfig,
    seed: u64,
    until: SimTime,
) -> (Cluster, u64) {
    let workload = workload_preset(preset, TraceKind::FacebookEtc, seed);
    let rng = DetRng::seed(seed);
    let mut cluster = Cluster::new(cluster, workload.keyspace.clone(), rng.split("c"));
    let mut gen = RequestGenerator::new(workload, rng.split("w"));
    let zipf = gen.zipf().clone();
    let ranks = (1..=preset.prefill_ranks()).rev();
    cluster.prefill(ranks.map(|r| zipf.key_for_rank(r)), SimTime::ZERO);
    let mut served = 0;
    while let Some(req) = gen.next_request() {
        if req.arrival > until {
            break;
        }
        cluster.handle(&req);
        served += 1;
    }
    (cluster, served)
}

/// The members with their §III-C scores, coldest first.
fn scored_members(tier: &CacheTier) -> Vec<(NodeId, f64)> {
    choose_retiring(tier, 1)
        .expect("a warm tier can spare a node")
        .1
}

/// Scales `tier` in by `retiring` with ElMem's migration, at t = 200 s.
fn scale_in(tier: &mut CacheTier, retiring: &[NodeId]) -> MigrationReport {
    let job = MigrateJob::ScaleIn {
        retiring,
        import_mode: ImportMode::Merge,
    };
    let costs = MigrationCosts::default();
    migrate(
        tier,
        &job,
        SimTime::from_secs(200),
        &costs,
        &mut Supervision::none(),
        (&mut MigrationJournal::new(), 0),
    )
    .expect("migration succeeds")
}

/// Items a scale-in retiring `node` alone would migrate, tried on a clone.
fn trial_scale_in(tier: &CacheTier, node: NodeId) -> u64 {
    scale_in(&mut tier.clone(), &[node]).items_migrated
}

/// A run under the baseline against the same run under ElMem.
pub struct VsBaseline {
    pub baseline: ExperimentResult,
    pub elmem: ExperimentResult,
}

/// **Fig. 2 (E1).** The ETC dip drives a 10 → 9 scale-in at minute 25; when
/// demand recovers a 9 → 10 scale-out follows (the paper's Fig. 6(b)
/// trajectory, from which Fig. 2 is drawn).
pub fn fig2(preset: Preset, seed: u64) -> VsBaseline {
    let scheduled = vec![
        (minutes(25), ScaleAction::In { count: 1 }),
        (minutes(45), ScaleAction::Out { count: 1 }),
    ];
    let (trace, nodes) = (TraceKind::FacebookEtc, preset.scale_nodes(10));
    let [baseline, elmem] = run_cells(
        [MigrationPolicy::Baseline, MigrationPolicy::elmem()]
            .map(|policy| experiment_preset(preset, trace, nodes, policy, scheduled.clone(), seed)),
    );
    VsBaseline { baseline, elmem }
}

/// **Fig. 5 (E2).** The five normalized demand traces, by name.
pub fn fig5() -> Vec<(&'static str, DemandTrace)> {
    TraceKind::ALL
        .map(|k| (k.name(), k.demand_trace()))
        .to_vec()
}

/// **Fig. 6 (E3).** Each trace under the paper's scaling actions, labelled
/// by panel; a trace's seed is `seed` plus the length of its name.
pub fn fig6(preset: Preset, seed: u64) -> Vec<(&'static str, VsBaseline)> {
    let (inn, out) = (
        |count| ScaleAction::In { count },
        |count| ScaleAction::Out { count },
    );
    let panels = [
        (
            "(a) SYS: 10 -> 7",
            TraceKind::FacebookSys,
            10,
            vec![(minutes(30), inn(3))],
        ),
        (
            "(b) ETC: 10 -> 9 -> 10",
            TraceKind::FacebookEtc,
            10,
            vec![(minutes(25), inn(1)), (minutes(45), out(1))],
        ),
        (
            "(c) SAP: 10 -> 9 -> 8",
            TraceKind::Sap,
            10,
            vec![(minutes(18), inn(1)), (minutes(35), inn(1))],
        ),
        (
            "(d) NLANR: 8 -> 9 -> 8",
            TraceKind::Nlanr,
            8,
            vec![(minutes(12), out(1)), (minutes(38), inn(1))],
        ),
        (
            "(e) Microsoft: 10 -> 9 -> 8",
            TraceKind::Microsoft,
            10,
            vec![(minutes(20), inn(1)), (minutes(40), inn(1))],
        ),
    ];
    let configs: [ExperimentConfig; 10] = std::array::from_fn(|i| {
        let (_, trace, nodes, scheduled) = &panels[i / 2];
        let policy = [MigrationPolicy::Baseline, MigrationPolicy::elmem()][i % 2];
        let (nodes, seed) = (preset.scale_nodes(*nodes), seed + trace.name().len() as u64);
        experiment_preset(preset, *trace, nodes, policy, scheduled.clone(), seed)
    });
    let mut results = run_cells(configs).into_iter();
    let mut next = || results.next().expect("two cells per panel");
    let panels = panels.map(|(label, ..)| {
        (
            label,
            VsBaseline {
                baseline: next(),
                elmem: next(),
            },
        )
    });
    panels.into()
}

/// **Fig. 7 (E5, E10).** A 600 s warm-up of the full-width ETC tier, then
/// every member, coldest score first, as `(node, score, items a scale-in
/// retiring it alone would migrate)`.
pub struct Fig7 {
    pub served: u64,
    pub candidates: Vec<(NodeId, f64, u64)>,
}

pub fn fig7(preset: Preset, seed: u64) -> Fig7 {
    let cluster = cluster_preset(preset, preset.scale_nodes(10));
    let (cluster, served) = warm_cluster(preset, cluster, seed, SimTime::from_secs(600));
    let scored = scored_members(&cluster.tier);
    let items = par_map_indexed(par_jobs(), &scored, |_, &(id, _)| {
        trial_scale_in(&cluster.tier, id)
    });
    let candidates = scored.into_iter().zip(items);
    Fig7 {
        served,
        candidates: candidates.map(|((id, score), n)| (id, score, n)).collect(),
    }
}

/// **Fig. 8 (E6).** SYS's 10 → 7 scale-in under all four policies.
pub struct Fig8 {
    pub elmem: ExperimentResult,
    pub naive: ExperimentResult,
    pub cachescale: ExperimentResult,
    pub baseline: ExperimentResult,
}

pub fn fig8(preset: Preset, seed: u64) -> Fig8 {
    let config = |policy| {
        let scheduled = vec![(minutes(30), ScaleAction::In { count: 3 })];
        let nodes = preset.scale_nodes(10);
        let trace = TraceKind::FacebookSys;
        let mut cfg = experiment_preset(preset, trace, nodes, policy, scheduled, seed);
        // A slightly flatter popularity (Zipf 0.95) puts real mass in the
        // mid-tail, where the policies' data-placement quality differs,
        // while keeping the post-scaling steady state inside the database's
        // capacity (the paper's regime).
        cfg.workload.zipf_exponent = 0.95;
        // Few virtual nodes per server → realistic ketama imbalance: nodes
        // differ in both key count and popularity. This is where global
        // hotness comparison (FuseCache) beats Naive's per-node fraction:
        // with symmetric nodes the two keep literally the same item set.
        cfg.cluster.vnodes = 8;
        cfg
    };
    let [elmem, naive, cachescale, baseline] = run_cells([
        config(MigrationPolicy::elmem()),
        config(MigrationPolicy::Naive),
        config(MigrationPolicy::cachescale()),
        config(MigrationPolicy::Baseline),
    ]);
    Fig8 {
        elmem,
        naive,
        cachescale,
        baseline,
    }
}

/// **§V-B2 (E4).** A 120 s warm-up, then the scored 10 → 9 migration's
/// report.
pub fn tab_overhead(preset: Preset, seed: u64) -> MigrationReport {
    let cluster = cluster_preset(preset, preset.scale_nodes(10));
    let (mut cluster, _) = warm_cluster(preset, cluster, seed, SimTime::from_secs(120));
    let (victims, _) = choose_retiring(&cluster.tier, 1).expect("a warm tier can spare a node");
    scale_in(&mut cluster.tier, &victims)
}

/// **§II-B / §II-C (E8).** The node comparison, each trace's savings for a
/// perfectly elastic tier as `(trace, savings, peak nodes)`, and the
/// savings over a full diurnal day.
pub struct TabCost {
    pub comparison: CostComparison,
    pub traces: Vec<(&'static str, f64, u32)>,
    pub diurnal_savings: f64,
}

pub fn tab_cost() -> TabCost {
    let traces = TraceKind::ALL.map(|kind| {
        // A perfectly elastic tier sized each minute to ceil(demand * 10).
        let trace = kind.demand_trace();
        let demand: Vec<u32> = trace
            .samples()
            .iter()
            .map(|&d| (d * 10.0).ceil().max(1.0) as u32)
            .collect();
        let peak = demand.iter().copied().max().expect("a trace has samples");
        (kind.name(), elastic_savings(&demand), peak)
    });
    // §II-C's headline numbers come from *full-day* Facebook traces with
    // ~2x diurnal swing plus 2-3x spikes; reconstruct that shape over 24h.
    let day: Vec<u32> = (0..24 * 60)
        .map(|m| {
            let hour = m as f64 / 60.0;
            // Diurnal sinusoid between 0.33 and 1.0 of peak...
            let base = 0.665 - 0.335 * ((hour - 4.0) / 24.0 * std::f64::consts::TAU).cos();
            // ...with a brief 1.5x lunchtime spike.
            let spike = if (12.0..12.5).contains(&hour) {
                1.5
            } else {
                1.0
            };
            ((base * spike).min(1.0) * 10.0).ceil().max(1.0) as u32
        })
        .collect();
    TabCost {
        comparison: compare(&PowerModel::paper_calibrated()),
        traces: traces.to_vec(),
        diurnal_savings: elastic_savings(&day),
    }
}

/// **§III-B (E9), part 1.** An AutoScaler fed 500 000 Zipf lookups over
/// 100 000 keys (r_DB = 125/s, 64 MiB nodes).
pub struct Sizing {
    pub observed: u64,
    pub warm: u64,
    /// Memory for warm hit rates of 50 to 99 %, by percentage.
    pub memory: Vec<(u32, Option<ByteSize>)>,
    /// Eq. (1)'s p_min at 200, 500 and 4 000 requests/s.
    pub p_min: [f64; 3],
}

pub fn autoscaler_sizing(seed: u64) -> Sizing {
    let keyspace = Keyspace::new(100_000, seed);
    let zipf = ZipfPopularity::new(keyspace.n_keys(), 1.0, seed);
    let mut rng = DetRng::seed(seed);
    let mut scaler = AutoScaler::new(AutoScalerConfig::new(125.0, ByteSize::from_mib(64)));
    for _ in 0..500_000 {
        let key = zipf.sample(&mut rng);
        scaler.observe(key, item_footprint(keyspace.value_size(key)));
    }
    let targets = [50u32, 70, 80, 90, 95, 97, 99];
    let memory = targets.map(|pct| (pct, scaler.memory_for(f64::from(pct) / 100.0)));
    Sizing {
        observed: scaler.observed(),
        warm: scaler.warm(),
        memory: memory.to_vec(),
        p_min: [200.0, 500.0, 4000.0].map(|rate| scaler.p_min(rate)),
    }
}

/// **§III-B (E9), part 2.** The AutoScaler end to end on a demand drop
/// (1.0 → 0.3), with the misses per second the database sees once the last
/// scaling has settled for 120 s.
pub struct AutoscaledRun {
    pub result: ExperimentResult,
    pub r_db: f64,
    pub steady_misses_per_sec: Option<f64>,
}

pub fn tab_autoscaler(preset: Preset, seed: u64) -> AutoscaledRun {
    let policy = MigrationPolicy::elmem();
    let nodes = preset.scale_nodes(10);
    let mut cfg = experiment_preset(preset, TraceKind::FacebookEtc, nodes, policy, vec![], seed);
    // This run uses a larger database (laptop: r_DB = 500/s) than the
    // figure experiments: Eq. (1) then asks for p_min ≈ 0.88 at peak, a
    // quantile the stack-distance estimator resolves from minutes of
    // history. The figure experiments' r_DB = 167/s implies p_min ≈ 0.96 —
    // sizing that far into the reuse tail needs hours of observation, which
    // is why the paper (and we) treat the autoscaling policy as a pluggable
    // module and drive the degradation experiments with scripted actions.
    cfg.cluster.db_servers *= 3;
    let r_db = cfg.cluster.r_db();
    let mut scaler = AutoScalerConfig::new(r_db, cfg.cluster.node_memory);
    scaler.epoch = SimTime::from_secs(60);
    scaler.max_nodes = preset.scale_nodes(12);
    scaler.min_observations = 2_000_000;
    cfg.autoscaler = Some(scaler);
    let demand = [vec![1.0; 8], vec![0.3; 7]].concat();
    cfg.workload.trace = DemandTrace::new(demand, SimTime::from_secs(120));
    let result = run_experiment(cfg);
    let steady_misses_per_sec = result.events.last().and_then(|last| {
        let settled = [(last.committed_at.as_secs() + 120, u64::MAX)];
        let lookups_per_sec = window_mean(&result.timeline, &settled, |p| {
            (p.requests * ITEMS_PER_REQUEST as u64) as f64
        })?;
        let hit_rate = window_mean(&result.timeline, &settled, |p| p.hit_rate)?;
        Some((1.0 - hit_rate) * lookups_per_sec)
    });
    AutoscaledRun {
        result,
        r_db,
        steady_misses_per_sec,
    }
}

/// **Ablation 1.** ETC's 10 → 9 scale-in under ElMem with each import mode.
pub fn ablate_import_mode(preset: Preset, seed: u64) -> Vec<(&'static str, ExperimentResult)> {
    let modes = [
        ("merge", ImportMode::Merge),
        ("prepend", ImportMode::Prepend),
    ];
    let results = run_cells(modes.map(|(_, import)| {
        let scheduled = vec![(minutes(25), ScaleAction::In { count: 1 })];
        let (trace, nodes) = (TraceKind::FacebookEtc, preset.scale_nodes(10));
        let policy = MigrationPolicy::ElMem { import };
        experiment_preset(preset, trace, nodes, policy, scheduled, seed)
    }));
    modes
        .map(|(label, _)| label)
        .into_iter()
        .zip(results)
        .collect()
}

/// **Ablation 2.** SYS's 10 → 7 scale-in under CacheScale at each discard
/// window, in seconds.
pub fn ablate_cachescale_window(preset: Preset, seed: u64) -> Vec<(u64, ExperimentResult)> {
    let windows = [30u64, 120, 480];
    let results = run_cells(windows.map(|window_s| {
        let scheduled = vec![(minutes(30), ScaleAction::In { count: 3 })];
        let (trace, nodes) = (TraceKind::FacebookSys, preset.scale_nodes(10));
        let window = SimTime::from_secs(window_s);
        let policy = MigrationPolicy::CacheScale { window };
        let mut cfg = experiment_preset(preset, trace, nodes, policy, scheduled, seed);
        cfg.workload.zipf_exponent = 0.95;
        cfg
    }));
    windows.into_iter().zip(results).collect()
}

/// **Ablation 3.** Per ring vnode count, a 120 s warm-up and then the items
/// a scale-in migrates when it retires the coldest-scored member and when it
/// retires the worst one, as `(vnodes, coldest, worst)`.
pub fn ablate_vnodes(preset: Preset, seed: u64) -> Vec<(u32, u64, u64)> {
    par_map_indexed(par_jobs(), &[8u32, 32, 128], |_, &vnodes| {
        let mut cluster = cluster_preset(preset, preset.scale_nodes(10));
        cluster.vnodes = vnodes;
        let (cluster, _) = warm_cluster(preset, cluster, seed, SimTime::from_secs(120));
        let items: Vec<u64> = scored_members(&cluster.tier)
            .iter()
            .map(|&(id, _)| trial_scale_in(&cluster.tier, id))
            .collect();
        (vnodes, items[0], items.iter().copied().max().unwrap_or(0))
    })
}

/// One epoch of [`ablate_predictive`]'s demand ramp: the arrival rate, the
/// forecaster's prediction, and each scaler's node count after deciding.
pub struct RampEpoch {
    pub epoch: u64,
    pub rate: f64,
    pub forecast: f64,
    pub reactive_nodes: u32,
    pub predictive_nodes: u32,
}

/// **Ablation 4.** A reactive and a predictive AutoScaler fed identical
/// observations on an arrival-rate ramp: 2 000 → 9 000 lookups/s over
/// eight epochs (r_DB = 1 000/s).
pub fn ablate_predictive(seed: u64) -> Vec<RampEpoch> {
    let mut base = AutoScalerConfig::new(1000.0, ByteSize::from_mib(16));
    base.epoch = SimTime::from_secs(60);
    base.min_observations = 100_000;
    base.max_nodes = 32;
    let mut reactive = AutoScaler::new(base.clone());
    let mut predictive = PredictiveAutoScaler::new(base);
    // A flat-ish popularity (Zipf 0.8) gives the sizing real dynamic range
    // across the ramp's p_min span.
    let zipf = ZipfPopularity::new(1_000_000, 0.8, 1);
    let mut rng = DetRng::seed(seed);
    let (mut reactive_nodes, mut predictive_nodes) = (4u32, 4u32);
    (1..=8u64)
        .map(|epoch| {
            let rate = 2000.0 + 1000.0 * (epoch - 1) as f64;
            // One epoch's worth of sampled lookups.
            for _ in 0..300_000 {
                let key = zipf.sample(&mut rng);
                reactive.observe(key, 400);
                predictive.observe(key, 400);
            }
            let now = SimTime::from_secs(60 * epoch);
            if let Some(h) = reactive.decide(now, rate, reactive_nodes) {
                reactive_nodes = h.target_nodes;
            }
            if let Some(h) = predictive.decide(now, rate, predictive_nodes) {
                predictive_nodes = h.target_nodes;
            }
            RampEpoch {
                epoch,
                rate,
                forecast: predictive.forecast().unwrap_or(0.0),
                reactive_nodes,
                predictive_nodes,
            }
        })
        .collect()
}

/// **Robustness: faults during the 3-phase scale-in.** A fault-free 10 → 9
/// scale-in at 120 s on a dipping ETC shape names the victim and the phase
/// windows; the same run is replayed with a crash aimed into phase 1 (the
/// retiring source) and phase 3 (a retained destination), with shipment
/// drops, and with a slow NIC.
pub struct TabFaults {
    pub victim: NodeId,
    pub phase1_end: SimTime,
    pub phase2_end: SimTime,
    pub completed: SimTime,
    pub clean: ExperimentResult,
    pub src_crash: ExperimentResult,
    pub dst_crash: ExperimentResult,
    pub drops: ExperimentResult,
    pub slow_nic: ExperimentResult,
}

pub fn tab_faults(preset: Preset, seed: u64) -> TabFaults {
    let scale_at = SimTime::from_secs(120);
    let experiment = |faults| {
        let (mut cfg, _) = steady(preset, false, MigrationPolicy::elmem(), seed);
        cfg.scheduled = vec![(scale_at, ScaleAction::In { count: 1 })];
        // Steady, a dip justifying the scale-in, a recovery tail long
        // enough to watch the post-scaling episode.
        let demand = vec![1.0, 1.0, 0.6, 0.6, 0.7, 0.9, 0.9];
        cfg.workload.trace = DemandTrace::new(demand, SimTime::from_secs(60));
        cfg.faults = faults;
        cfg
    };
    let clean = run_experiment(experiment(FaultPlan::new()));
    let ev = clean.events.first().expect("scale-in ran");
    let report = ev.report.as_ref().expect("elmem migrates");
    assert!(
        report.outcome.is_completed(),
        "the fault-free probe completes"
    );
    let (victim, decided, phases) = (ev.nodes[0], ev.decided_at, report.phases);
    let phase1_end = decided + phases.scoring + phases.dump + phases.metadata_transfer;
    let phase2_end = phase1_end + phases.fusecache;
    let completed = report.completed;
    let dest = (0..10u32).rev().map(NodeId).find(|&n| n != victim);
    let dest = dest.expect("ten nodes hold one that is not the victim");
    let [src_crash, dst_crash, drops, slow_nic] = run_cells(
        [
            FaultPlan::new().crash(decided + (phase1_end - decided).mul_f64(0.5), victim),
            FaultPlan::new().crash(phase2_end + SimTime::from_millis(1), dest),
            FaultPlan::new()
                .drop_metadata_with_prob(0.3)
                .drop_transfers_with_prob(0.15),
            FaultPlan::new().slow_link(scale_at, victim, 8.0, SimTime::from_secs(300)),
        ]
        .map(experiment),
    );
    TabFaults {
        victim,
        phase1_end,
        phase2_end,
        completed,
        clean,
        src_crash,
        dst_crash,
        drops,
        slow_nic,
    }
}

/// **Robustness: the self-healing tier after a node crash**, and E18's
/// Master crash mid-migration. One node of the steady tier crashes at
/// `crash_s` with no detector, with detection and eviction, and with a
/// warmed replacement. Then, on the same seed, the Master crashes 200 ms
/// into a scale-in scheduled at `crash_s`, once resuming from its journal
/// and once aborting (the scaling commits cold).
pub struct TabRecovery {
    pub crash_s: u64,
    /// Tail window for the steady-state comparison, after every mode has
    /// settled.
    pub tail: (u64, u64),
    pub none: ExperimentResult,
    pub evict: ExperimentResult,
    pub warm: ExperimentResult,
    pub resume: ExperimentResult,
    pub abort: ExperimentResult,
}

pub fn tab_recovery(preset: Preset, smoke: bool, seed: u64) -> TabRecovery {
    let (base, crash_s) = steady(preset, smoke, MigrationPolicy::elmem(), seed);
    let at = SimTime::from_secs(crash_s);
    let crashed = |healing| {
        let mut cfg = base.clone();
        cfg.faults = FaultPlan::new().crash(at, NodeId(if smoke { 1 } else { 3 }));
        cfg.healing = healing;
        cfg
    };
    // The laptop tier retires three of ten nodes (ElMem picks the *least
    // valuable* victims, so a single-node cold commit barely dents the hit
    // rate); the four-node smoke tier can only spare one.
    let mut resume = base.clone();
    let count = if smoke { 1 } else { 3 };
    resume.scheduled = vec![(at, ScaleAction::In { count })];
    resume.master.crashes = vec![at + SimTime::from_millis(200)];
    let mut abort = resume.clone();
    abort.master.recovery = MasterRecovery::Abort;
    let [none, evict, warm, resume, abort] = run_cells([
        crashed(None),
        crashed(Some(HealingConfig::evict_only())),
        crashed(Some(HealingConfig::warm_replacement())),
        resume,
        abort,
    ]);
    TabRecovery {
        crash_s,
        tail: if smoke { (70, 130) } else { (240, 420) },
        none,
        evict,
        warm,
        resume,
        abort,
    }
}

/// **Fig. 2 as a time series.** The steady tier scaled in at `scale_s`
/// under the baseline and under ElMem, and whether a same-seed rerun of the
/// baseline reproduced its telemetry dump byte for byte.
pub struct TabTimeseries {
    pub seed: u64,
    pub scale_s: u64,
    /// Window over which recovery is measured.
    pub tail: (u64, u64),
    pub baseline: ExperimentResult,
    pub elmem: ExperimentResult,
    pub rerun_identical: bool,
}

pub fn tab_timeseries(preset: Preset, smoke: bool, seed: u64) -> TabTimeseries {
    let (cfg, scale_s) = steady(preset, smoke, MigrationPolicy::Baseline, seed);
    let config = |policy| {
        let mut cfg = ExperimentConfig {
            policy,
            ..cfg.clone()
        };
        cfg.scheduled = vec![(SimTime::from_secs(scale_s), ScaleAction::In { count: 1 })];
        cfg
    };
    let [baseline, elmem, rerun] = run_cells([
        config(MigrationPolicy::Baseline),
        config(MigrationPolicy::elmem()),
        config(MigrationPolicy::Baseline),
    ]);
    TabTimeseries {
        seed: cfg.seed,
        scale_s,
        tail: if smoke { (90, 130) } else { (300, 420) },
        rerun_identical: baseline.telemetry.to_json() == rerun.telemetry.to_json(),
        baseline,
        elmem,
    }
}

/// **Chaos sweep.** One generated plan per seed, run against the invariant
/// suite of `elmem_core::chaos`.
pub fn tab_chaos(seeds: &[u64]) -> Vec<(ChaosPlan, ChaosReport)> {
    par_map_indexed(par_jobs(), seeds, |_, &seed| {
        let plan = ChaosPlan::generate(seed);
        let report = run_chaos(&plan);
        (plan, report)
    })
}
