//! Shared experiment scaffolding: the laptop-scale deployment (a 1:8
//! shrink of the paper's testbed that preserves the ratios that drive the
//! dynamics) and result formatting.

use elmem_cluster::{BreakerConfig, ClusterConfig};
use elmem_core::migration::MigrationCosts;
use elmem_core::{ExperimentConfig, ExperimentResult, FaultPlan, MigrationPolicy, ScaleAction};
use elmem_store::SizeClasses;
use elmem_util::stats::{degradation_summary, window_mean, DegradationSummary, TimelinePoint};
use elmem_util::{ByteSize, SimTime};
use elmem_workload::{DemandTrace, Keyspace, TraceKind, WorkloadConfig};

/// Keys in the laptop-scale keyspace. Chosen so the 10-node tier
/// (10 × 64 MB ≈ 1.15 M chunked items) holds ~97% of the popularity mass
/// but *not* the whole keyspace — the paper's regime: a steady-state hit
/// rate just high enough that the database sits close to (but under) its
/// capacity at peak demand, so scaling-induced misses overwhelm it.
pub const LAPTOP_KEYS: u64 = 1_400_000;

/// Keys in the paper-scale keyspace — the full ETC population the paper
/// replays (~19 M distinct keys, §V).
pub const PAPER_KEYS: u64 = 19_000_000;

/// Per-request multi-get fan-out.
pub const ITEMS_PER_REQUEST: usize = 5;

/// Peak request rate, req/s. At 5 lookups/request and r_DB ≈ 167/s the
/// Eq. (1) threshold sits at p_min ≈ 0.96 at peak — the paper's regime:
/// the steady-state cache keeps the database comfortably below capacity,
/// but losing any node's data pushes it well past the knee.
pub const PEAK_RATE: f64 = 833.0;

/// Paper-scale peak request rate, req/s. 20 000 req/s × 5 lookups against
/// r_DB = 4 000/s keeps the same 25:1 peak-lookups-to-database ratio as
/// the laptop shrink, so Eq. (1) lands at the same p_min ≈ 0.96.
pub const PAPER_PEAK_RATE: f64 = 20_000.0;

/// Zipf popularity exponent.
pub const ZIPF: f64 = 1.0;

/// Deployment scale for the `fig*`/`tab*` binaries.
///
/// Every experiment constructor in this module takes (or defaults) a
/// preset. [`Preset::Laptop`] is the 1:8 shrink all pinned golden numbers
/// were recorded on; [`Preset::Paper`] restores the paper's workload scale
/// — the full ~19 M-key ETC population at 20 k req/s on a tier ten times
/// as wide — while preserving the capacity and Eq. (1) ratios that drive
/// the dynamics. Resolution order: `--preset NAME` on the command line,
/// then the `ELMEM_PRESET` environment variable, then [`Preset::Laptop`];
/// an unknown name in either place is an error.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Preset {
    /// Laptop-scale shrink (1.4 M keys, 833 req/s peak, 64 MiB nodes).
    #[default]
    Laptop,
    /// Paper-scale ETC (19 M keys, 20 k req/s peak, 10× node count).
    Paper,
}

/// Environment variable selecting the deployment preset.
pub const PRESET_ENV: &str = "ELMEM_PRESET";

impl Preset {
    /// Parses a preset name (case-insensitive).
    pub fn from_name(name: &str) -> Option<Preset> {
        match name.trim().to_ascii_lowercase().as_str() {
            "laptop" => Some(Preset::Laptop),
            "paper" => Some(Preset::Paper),
            _ => None,
        }
    }

    /// Resolves `--preset NAME` / `--preset=NAME` from `args`, else the
    /// value of [`PRESET_ENV`] passed as `env`, else [`Preset::Laptop`]. A
    /// name that is given but unknown is an error, never the default.
    pub fn resolve<S: AsRef<str>>(args: &[S], env: Option<&str>) -> Result<Preset, String> {
        let named = |name: &str, source: &str| {
            Preset::from_name(name)
                .ok_or_else(|| format!("unknown preset {name:?} in {source}: use laptop or paper"))
        };
        let mut it = args.iter().map(AsRef::as_ref);
        while let Some(arg) = it.next() {
            if arg == "--preset" {
                return named(it.next().unwrap_or_default(), "--preset");
            }
            if let Some(v) = arg.strip_prefix("--preset=") {
                return named(v, "--preset");
            }
        }
        env.map_or(Ok(Preset::Laptop), |v| named(v, PRESET_ENV))
    }

    /// Resolves the preset for this process from its arguments and
    /// environment ([`Preset::resolve`]). An unknown name is reported on
    /// stderr and exits with status 2.
    pub fn from_cli() -> Preset {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let env = std::env::var(PRESET_ENV).ok();
        Preset::resolve(&args, env.as_deref()).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2)
        })
    }

    /// The preset's display name (what `--preset` accepts).
    pub fn name(self) -> &'static str {
        match self {
            Preset::Laptop => "laptop",
            Preset::Paper => "paper",
        }
    }

    /// Keyspace population.
    pub fn keys(self) -> u64 {
        match self {
            Preset::Laptop => LAPTOP_KEYS,
            Preset::Paper => PAPER_KEYS,
        }
    }

    /// Peak request rate, req/s.
    pub fn peak_rate(self) -> f64 {
        match self {
            Preset::Laptop => PEAK_RATE,
            Preset::Paper => PAPER_PEAK_RATE,
        }
    }

    /// Hottest ranks prefilled before each run (the whole keyspace).
    pub fn prefill_ranks(self) -> u64 {
        self.keys()
    }

    /// Scales a laptop-scale node count to this preset's tier width
    /// (the paper tier is 10× as wide: 10 laptop nodes ↔ 100 paper nodes).
    pub fn scale_nodes(self, laptop_nodes: u32) -> u32 {
        match self {
            Preset::Laptop => laptop_nodes,
            Preset::Paper => laptop_nodes.saturating_mul(10),
        }
    }

    /// Model memory per node. The paper preset's 96 MiB keeps the tier's
    /// capacity:popularity-mass ratio at the laptop shrink's operating
    /// point (≈ 97% of mass resident at full width, keyspace > capacity),
    /// so the hit-rate/DB-load dynamics carry over at 13.6× the keys.
    pub fn node_memory(self) -> ByteSize {
        match self {
            Preset::Laptop => ByteSize::from_mib(64),
            Preset::Paper => ByteSize::from_mib(96),
        }
    }

    /// Database capacity knobs: (server count, per-request service time).
    /// Laptop: 1 × 6 ms → r_DB ≈ 167/s. Paper: 8 × 2 ms → r_DB = 4 000/s.
    fn db(self) -> (usize, SimTime) {
        match self {
            Preset::Laptop => (1, SimTime::from_millis(6)),
            Preset::Paper => (8, SimTime::from_millis(2)),
        }
    }
}

/// The deployment at a given preset scale; node count is the *actual*
/// initial tier width (callers scale via [`Preset::scale_nodes`]).
pub fn cluster_preset(preset: Preset, initial_nodes: u32) -> ClusterConfig {
    let (db_servers, db_service) = preset.db();
    ClusterConfig {
        initial_nodes,
        node_memory: preset.node_memory(),
        vnodes: 128,
        db_servers,
        db_service,
        db_shed_delay: SimTime::from_secs(2),
        mc_latency: SimTime::from_micros(200),
        client_timeout: SimTime::from_millis(250),
        breaker: BreakerConfig::default(),
        web_overhead: SimTime::from_millis(4),
        nic_bandwidth: 125_000_000.0,
        nic_latency: SimTime::from_micros(100),
        slab_classes: SizeClasses::new(96, 2.0, ByteSize::PAGE.as_u64()),
        store_shards: elmem_store::default_shard_count(),
    }
}

/// The workload at a given preset scale over a published trace shape.
pub fn workload_preset(preset: Preset, trace: TraceKind, seed: u64) -> WorkloadConfig {
    WorkloadConfig {
        keyspace: Keyspace::new(preset.keys(), seed),
        zipf_exponent: ZIPF,
        items_per_request: ITEMS_PER_REQUEST,
        peak_rate: preset.peak_rate(),
        trace: trace.demand_trace(),
    }
}

/// A full experiment config at a given preset scale with scripted scaling
/// actions. `initial_nodes` is the actual tier width.
pub fn experiment_preset(
    preset: Preset,
    trace: TraceKind,
    initial_nodes: u32,
    policy: MigrationPolicy,
    scheduled: Vec<(SimTime, ScaleAction)>,
    seed: u64,
) -> ExperimentConfig {
    ExperimentConfig {
        cluster: cluster_preset(preset, initial_nodes),
        workload: workload_preset(preset, trace, seed),
        policy,
        autoscaler: None,
        scheduled,
        prefill_top_ranks: preset.prefill_ranks(),
        costs: MigrationCosts::default(),
        faults: FaultPlan::new(),
        healing: None,
        master: Default::default(),
        seed,
    }
}

/// The seconds-long deployment the `--smoke` runs share: the four-node
/// `small_test` tier over 30 000 keys at a steady 250 req/s for 130 s,
/// half the keyspace prefilled. No scaling, fault or healing is scheduled.
pub fn smoke_experiment(policy: MigrationPolicy) -> ExperimentConfig {
    ExperimentConfig {
        cluster: ClusterConfig::small_test(),
        workload: WorkloadConfig {
            keyspace: Keyspace::new(30_000, 2),
            zipf_exponent: 1.0,
            items_per_request: 3,
            peak_rate: 250.0,
            trace: DemandTrace::new(vec![1.0; 13], SimTime::from_secs(10)),
        },
        policy,
        autoscaler: None,
        scheduled: vec![],
        prefill_top_ranks: 15_000,
        costs: MigrationCosts::default(),
        faults: FaultPlan::new(),
        healing: None,
        master: Default::default(),
        seed: 2,
    }
}

/// Restoration threshold used in degradation summaries: "stable" means the
/// per-second p95 is back under this many milliseconds.
pub const RESTORE_THRESHOLD_MS: f64 = 25.0;

/// Summarizes post-scaling degradation relative to the run's first commit.
pub fn summarize(result: &ExperimentResult) -> Option<DegradationSummary> {
    let commit = result.first_commit_second()?;
    Some(degradation_summary(
        &result.timeline,
        commit,
        RESTORE_THRESHOLD_MS,
    ))
}

/// Prints a timeline as `second hit_rate p95_ms` rows, sampled every
/// `every` seconds.
pub fn print_timeline(name: &str, timeline: &[TimelinePoint], every: u64) {
    println!("# {name}: second hit_rate p95_ms requests");
    for p in timeline.iter().filter(|p| p.second % every == 0) {
        println!(
            "{:>6} {:>6.3} {:>9.2} {:>7}",
            p.second, p.hit_rate, p.p95_ms, p.requests
        );
    }
}

/// Prints one summary row of a policy run.
pub fn print_summary_row(label: &str, result: &ExperimentResult) {
    match summarize(result) {
        Some(s) => {
            let restore = s
                .restoration_secs
                .map(|r| format!("{r}s"))
                .unwrap_or_else(|| "never".to_string());
            println!(
                "{label:<12} pre_p95={:>8.2}ms  post_mean_p95={:>9.2}ms  peak_p95={:>9.2}ms  restoration={restore}",
                s.pre_p95_ms, s.mean_p95_ms, s.peak_p95_ms
            );
        }
        None => println!("{label:<12} (no scaling event)"),
    }
}

/// Mean p95 over the `window` seconds after each scaling event (union of
/// per-event windows) — the way the paper's per-figure numbers focus on
/// the post-scaling episode rather than the whole tail of the run.
pub fn post_event_window_p95(result: &ExperimentResult, window: u64) -> f64 {
    let windows: Vec<(u64, u64)> = result
        .events
        .iter()
        .map(|e| (e.committed_at.as_secs(), e.committed_at.as_secs() + window))
        .collect();
    window_mean(&result.timeline, &windows, |p| p.p95_ms).unwrap_or(0.0)
}

/// Percentage reduction of mean post-scaling p95 vs a baseline run.
pub fn degradation_reduction(baseline: &ExperimentResult, other: &ExperimentResult) -> f64 {
    let b = summarize(baseline).map(|s| s.mean_p95_ms).unwrap_or(0.0);
    let o = summarize(other).map(|s| s.mean_p95_ms).unwrap_or(0.0);
    if b <= 0.0 {
        0.0
    } else {
        (b - o) / b * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn laptop_cluster_ratios() {
        let c = cluster_preset(Preset::Laptop, 10);
        assert!((c.r_db() - 166.67).abs() < 0.01);
        assert_eq!(c.initial_nodes, 10);
    }

    #[test]
    fn paper_preset_preserves_the_operating_ratios() {
        let laptop = cluster_preset(Preset::Laptop, 10);
        let paper = cluster_preset(Preset::Paper, Preset::Paper.scale_nodes(10));
        assert_eq!(paper.initial_nodes, 100);
        // Same 25:1 peak-lookups to database-capacity ratio on both scales.
        let ratio = |rate: f64, c: &ClusterConfig| rate * ITEMS_PER_REQUEST as f64 / c.r_db();
        let lr = ratio(PEAK_RATE, &laptop);
        let pr = ratio(PAPER_PEAK_RATE, &paper);
        assert!((lr - pr).abs() < 0.1, "laptop {lr} vs paper {pr}");
        assert!((paper.r_db() - 4000.0).abs() < 1e-9);
    }

    #[test]
    fn preset_resolution_precedence() {
        assert_eq!(Preset::from_name("Paper"), Some(Preset::Paper));
        assert_eq!(Preset::from_name("laptop"), Some(Preset::Laptop));
        assert_eq!(Preset::from_name("desk"), None);
        let resolve = |args: &[&str], env| Preset::resolve(args, env);
        assert_eq!(resolve(&["--preset", "paper"], None), Ok(Preset::Paper));
        assert_eq!(
            resolve(&["--preset=paper"], Some("laptop")),
            Ok(Preset::Paper)
        );
        assert_eq!(resolve(&["--smoke"], Some("paper")), Ok(Preset::Paper));
        assert_eq!(resolve(&["--smoke"], None), Ok(Preset::Laptop));
        assert_eq!(Preset::default(), Preset::Laptop);
    }

    #[test]
    fn an_unknown_preset_is_an_error_and_an_absent_one_the_default() {
        let resolve = |args: &[&str], env| Preset::resolve(args, env);
        assert_eq!(resolve(&[], None), Ok(Preset::Laptop));
        for (args, env) in [
            (&["--preset", "papr"][..], None),
            (&["--preset=papr"], Some("paper")),
            (&["--preset"], None),
            (&[], Some("papr")),
        ] {
            let err = resolve(args, env).expect_err("an unknown name must not run laptop");
            assert!(err.contains("unknown preset"), "{args:?} {env:?}: {err}");
        }
    }

    #[test]
    fn workload_uses_trace_shape() {
        let w = workload_preset(Preset::Laptop, TraceKind::FacebookSys, 1);
        assert_eq!(w.trace.samples().len(), 60);
        assert_eq!(w.items_per_request, ITEMS_PER_REQUEST);
        assert_eq!(Preset::Paper.keys(), PAPER_KEYS);
    }

    fn fake_result(event_second: u64, p95: impl Fn(u64) -> f64) -> ExperimentResult {
        use elmem_core::ScalingEvent;
        ExperimentResult {
            timeline: (0..1000)
                .map(|s| TimelinePoint {
                    second: s,
                    hit_rate: 1.0,
                    p95_ms: p95(s),
                    mean_ms: p95(s) / 2.0,
                    requests: 10,
                })
                .collect(),
            events: vec![ScalingEvent {
                decided_at: SimTime::from_secs(event_second),
                committed_at: SimTime::from_secs(event_second),
                from_nodes: 4,
                to_nodes: 3,
                nodes: vec![],
                report: None,
            }],
            final_members: 3,
            final_crashed_members: 0,
            total_requests: 10_000,
            recoveries: vec![],
            client_timeouts: 0,
            fast_failovers: 0,
            breaker_transitions: 0,
            telemetry: Default::default(),
            probes_sent: 0,
            detector_transitions: 0,
            profiler_tracked_keys: 0,
            journal: Default::default(),
        }
    }

    #[test]
    fn post_event_window_covers_only_the_window() {
        // p95 = 100 inside [300, 360), 5 elsewhere.
        let r = fake_result(300, |s| if (300..360).contains(&s) { 100.0 } else { 5.0 });
        let w60 = post_event_window_p95(&r, 60);
        assert!((w60 - 100.0).abs() < 1e-9, "w60 {w60}");
        // A 600 s window dilutes with the quiet tail.
        let w600 = post_event_window_p95(&r, 600);
        assert!(w600 < 20.0, "w600 {w600}");
    }

    #[test]
    fn degradation_reduction_is_relative() {
        let bad = fake_result(100, |s| if s >= 100 { 100.0 } else { 5.0 });
        let good = fake_result(100, |s| if s >= 100 { 10.0 } else { 5.0 });
        let red = degradation_reduction(&bad, &good);
        assert!((red - 90.0).abs() < 1.0, "reduction {red}");
    }

    #[test]
    fn summarize_none_without_events() {
        let mut r = fake_result(100, |_| 5.0);
        r.events.clear();
        assert!(summarize(&r).is_none());
    }
}
