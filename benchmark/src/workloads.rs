//! The four workloads: what each deployment is, how one repetition runs,
//! and what makes a repetition correct.
//!
//! Every constant here is frozen: it was tuned once during calibration
//! (see `README.md` for the values and why) and a later change that edits
//! one is editing the benchmark, not the program.

use std::hint::black_box;
use std::time::Instant;

use elmem::cluster::{BreakerConfig, Cluster, ClusterConfig, ClusterTelemetry};
use elmem::core::migration::MigrationCosts;
use elmem::core::{
    run_experiment_capture, AutoScalerConfig, ExperimentConfig, FaultPlan, JournalRecord, Master,
    MigrationJournal, MigrationPolicy, MigrationReport, Orchestration,
};
use elmem::store::SizeClasses;
use elmem::util::telemetry::{bucket_lower, bucket_width};
use elmem::util::{ByteSize, DetRng, LatencyHistogram, NodeId, SimTime, TelemetryConfig};
use elmem::workload::{
    DemandTrace, GeneralizedPareto, Keyspace, RequestGenerator, WebRequest, WorkloadConfig,
};

use crate::trace::Tracer;

/// Multi-get fan-out of the serving streams (the repository's laptop
/// preset).
const MULTI_GET: usize = 5;
/// Peak request rate of every request stream, req/s (laptop preset).
const PEAK_RATE: f64 = 833.0;

/// One of the four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ServeHot,
    ServeCold,
    ElasticDay,
    Migrate,
}

/// Frozen sizing of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    /// What one op is (the numerator of `ops_per_s`).
    pub op: &'static str,
    /// Timed repetitions of a run at the reference run length.
    pub reps: usize,
    /// From-scratch builds timed for `setup_s`.
    pub setup_builds: usize,
    /// A drift probe runs before every `probe_every`-th repetition.
    pub probe_every: usize,
    /// The store fingerprint and audit run on every `audit_every`-th
    /// repetition (and the first and last); counts are compared on all.
    pub audit_every: usize,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ServeHot,
        Workload::ServeCold,
        Workload::ElasticDay,
        Workload::Migrate,
    ];

    /// Parses a `--workload` value.
    pub fn parse(name: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.spec().name == name)
            .ok_or_else(|| {
                let names: Vec<&str> = Workload::ALL.iter().map(|w| w.spec().name).collect();
                format!(
                    "unknown workload `{name}` (expected one of {})",
                    names.join(", ")
                )
            })
    }

    pub fn spec(self) -> Spec {
        match self {
            Workload::ServeHot => Spec {
                name: "serve_hot",
                op: "lookups",
                reps: 350,
                setup_builds: 760,
                probe_every: 4,
                audit_every: 10,
            },
            Workload::ServeCold => Spec {
                name: "serve_cold",
                op: "lookups",
                reps: 265,
                setup_builds: 140,
                probe_every: 2,
                audit_every: 8,
            },
            Workload::ElasticDay => Spec {
                name: "elastic_day",
                op: "lookups",
                reps: 60,
                setup_builds: 68,
                probe_every: 1,
                audit_every: 1,
            },
            Workload::Migrate => Spec {
                name: "migrate",
                op: "items_considered",
                reps: 235,
                setup_builds: 78,
                probe_every: 4,
                audit_every: 10,
            },
        }
    }
}

/// A ready-to-serve deployment: what `setup_s` times the construction of,
/// and what every repetition starts from a clone of.
#[derive(Debug, Clone)]
pub struct Deployment {
    pub seed: u64,
    /// The request stream served against the deployment.
    pub workload: WorkloadConfig,
    /// The prefilled (for `migrate`: also warmed) serving stack.
    pub cluster: Cluster,
    /// Hottest ranks the prefill inserted, coldest first.
    pub prefill_ranks: u64,
    /// Simulated instant at which the deployment became ready.
    pub ready_at: SimTime,
    /// Counters the deployment had accumulated when it became ready
    /// (prefill sets, warm-up fetches); repetitions report deltas.
    pub base: Base,
}

/// Cumulative counters of a prepared deployment.
#[derive(Debug, Clone, Default)]
pub struct Base {
    db_fetches: u64,
    db_shed: u64,
    /// `(sets, evictions)` of every node's store, by node id.
    stores: Vec<(NodeId, u64, u64)>,
}

/// The repository's laptop-preset deployment with the given tier shape.
/// `min_chunk` is the smallest slab chunk of a growth-2 ladder; it scales
/// with the workload's value sizes.
fn cluster_config(nodes: u32, node_mib: u64, db_servers: usize, min_chunk: u64) -> ClusterConfig {
    ClusterConfig {
        initial_nodes: nodes,
        node_memory: ByteSize::from_mib(node_mib),
        vnodes: 128,
        db_servers,
        db_service: SimTime::from_millis(6),
        db_shed_delay: SimTime::from_secs(2),
        mc_latency: SimTime::from_micros(200),
        client_timeout: SimTime::from_millis(250),
        breaker: BreakerConfig::default(),
        web_overhead: SimTime::from_millis(4),
        nic_bandwidth: 125_000_000.0,
        nic_latency: SimTime::from_micros(100),
        slab_classes: SizeClasses::new(min_chunk, 2.0, ByteSize::PAGE.as_u64()),
        store_shards: elmem::store::default_shard_count(),
    }
}

/// A request stream over `keys` keys whose value sizes follow the paper's
/// Facebook-ETC Generalized Pareto with its scale (and cap) multiplied by
/// `value_scale`.
fn stream(
    keys: u64,
    value_scale: f64,
    zipf: f64,
    fanout: usize,
    steps: Vec<f64>,
    step_secs: u64,
    seed: u64,
) -> WorkloadConfig {
    let etc = GeneralizedPareto::facebook_etc();
    WorkloadConfig {
        keyspace: Keyspace::with_distribution(
            keys,
            seed,
            GeneralizedPareto::new(etc.scale * value_scale, etc.shape),
            (f64::from(Keyspace::DEFAULT_MAX_VALUE) * value_scale) as u32,
        ),
        zipf_exponent: zipf,
        items_per_request: fanout,
        peak_rate: PEAK_RATE,
        trace: DemandTrace::new(steps, SimTime::from_secs(step_secs)),
    }
}

/// Static description of a workload's deployment.
struct Shape {
    cluster: ClusterConfig,
    workload: WorkloadConfig,
    /// Hottest ranks prefilled, coldest first.
    prefill_ranks: u64,
    /// Requests served after the prefill to skew hotness (0 = none).
    warm_requests: u64,
}

impl Workload {
    fn shape(self, seed: u64) -> Shape {
        match self {
            // Everything fits and is resident: only the read path works.
            Workload::ServeHot => Shape {
                cluster: cluster_config(4, 32, 4, 96),
                workload: stream(40_000, 1.0, 1.0, MULTI_GET, vec![1.0], 72, seed),
                prefill_ranks: 40_000,
                warm_requests: 0,
            },
            // A keyspace 6x what the tier holds; the database is wide
            // enough that no miss is shed, so every miss fetches, sets and
            // evicts. Values 4x ETC keep the resident set at ~58 k items
            // (a set the neighbours evict less) on 32-page nodes.
            Workload::ServeCold => Shape {
                cluster: cluster_config(4, 32, 64, 384),
                workload: stream(350_000, 4.0, 1.0, MULTI_GET, vec![1.0], 72, seed),
                prefill_ranks: 100_000,
                warm_requests: 0,
            },
            Workload::ElasticDay => {
                let exp = elastic_experiment(seed);
                Shape {
                    cluster: exp.cluster,
                    workload: exp.workload,
                    prefill_ranks: exp.prefill_top_ranks,
                    warm_requests: 0,
                }
            }
            // A warmed tier to drain one node of and grow back. 1 024
            // ring points per node keep the nodes the same size, so the
            // drained volume does not depend on which node scores lowest;
            // single-key requests keep the bursts' p95 among the hits.
            Workload::Migrate => Shape {
                cluster: ClusterConfig {
                    vnodes: 1024,
                    ..cluster_config(5, 32, 16, 96)
                },
                workload: stream(100_000, 1.0, 1.2, 1, vec![1.0], 3_600, seed),
                prefill_ranks: 100_000,
                warm_requests: 100_000,
            },
        }
    }

    /// Builds the workload's ready-to-serve deployment from scratch. This
    /// whole function is what `setup_s` times.
    pub fn build(self, seed: u64) -> Deployment {
        let shape = self.shape(seed);
        // Same stream split as `run_experiment`, so `elastic_day`'s set-up
        // is exactly the deployment its repetitions build internally.
        let rng = DetRng::seed(seed);
        let mut gen = RequestGenerator::new(shape.workload.clone(), rng.split("workload"));
        let mut cluster = Cluster::new(
            shape.cluster,
            shape.workload.keyspace.clone(),
            rng.split("cluster"),
        );
        let ranks = shape.prefill_ranks.min(shape.workload.keyspace.n_keys());
        let zipf = gen.zipf().clone();
        cluster.prefill(
            (1..=ranks).rev().map(|r| zipf.key_for_rank(r)),
            SimTime::ZERO,
        );
        let mut req = WebRequest {
            arrival: SimTime::ZERO,
            keys: Vec::with_capacity(shape.workload.items_per_request),
        };
        for _ in 0..shape.warm_requests {
            if !gen.next_request_into(&mut req) {
                break;
            }
            black_box(cluster.handle(&req));
        }
        // Repetitions report their own serving, not the warm-up's.
        *cluster.telemetry_mut() = ClusterTelemetry::default();
        let stores = store_counters(&cluster);
        Deployment {
            seed,
            workload: shape.workload,
            prefill_ranks: ranks,
            ready_at: gen.now() + SimTime::from_secs(1),
            base: Base {
                db_fetches: cluster.db.fetches(),
                db_shed: cluster.db.shed(),
                stores,
            },
            cluster,
        }
    }
}

/// `elastic_day`'s experiment: demand high -> low -> high under the
/// reactive AutoScaler and journaled FuseCache migrations.
pub fn elastic_experiment(seed: u64) -> ExperimentConfig {
    // Values (and chunks) 4x the ETC scale: a node then has 32 pages for
    // the items an 8 MiB node would hold, which takes the page-assignment
    // noise out of the hit rate.
    let cluster = cluster_config(4, 32, 16, 384);
    // The scaler's r_DB is far below the simulated database's capacity
    // (16 servers / 6 ms = 2 667 fetches/s), so no miss is ever shed.
    let mut scaler = AutoScalerConfig::new(125.0, cluster.node_memory);
    scaler.epoch = SimTime::from_secs(12);
    scaler.min_observations = 178_000;
    scaler.min_nodes = 2;
    scaler.max_nodes = 4;
    let steps = vec![1.0, 1.0, 1.0, 0.02, 0.02, 0.02, 0.02, 1.0, 1.0, 1.0];
    ExperimentConfig {
        cluster,
        workload: stream(200_000, 4.0, 0.8, MULTI_GET, steps, 12, seed),
        policy: MigrationPolicy::elmem(),
        autoscaler: Some(scaler.into()),
        scheduled: vec![],
        prefill_top_ranks: 200_000,
        costs: MigrationCosts::default(),
        faults: FaultPlan::new(),
        healing: None,
        master: Default::default(),
        seed,
    }
}

/// The counts one repetition produced. They repeat exactly for a given
/// seed, so later claims may rest on them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub requests: u64,
    pub lookups: u64,
    pub hits: u64,
    pub db_fetches: u64,
    pub db_shed: u64,
    pub client_timeouts: u64,
    pub sets: u64,
    pub evictions: u64,
    pub scaling_events: u64,
    pub items_considered: u64,
    pub items_migrated: u64,
    pub bytes_migrated: u64,
    pub profiler_tracked_keys: u64,
    pub journal_records: u64,
}

impl Counts {
    /// `(metric name, value)` for every count, in reporting order.
    pub fn named(&self) -> [(&'static str, u64); 14] {
        [
            ("count.requests", self.requests),
            ("count.lookups", self.lookups),
            ("count.hits", self.hits),
            ("count.db_fetches", self.db_fetches),
            ("count.db_shed", self.db_shed),
            ("count.client_timeouts", self.client_timeouts),
            ("count.sets", self.sets),
            ("count.evictions", self.evictions),
            ("count.scaling_events", self.scaling_events),
            ("count.items_considered", self.items_considered),
            ("count.items_migrated", self.items_migrated),
            ("count.bytes_migrated", self.bytes_migrated),
            ("count.profiler_tracked_keys", self.profiler_tracked_keys),
            ("count.journal_records", self.journal_records),
        ]
    }
}

/// What one repetition did, beyond its wall time.
#[derive(Debug, Clone, PartialEq)]
pub struct RepResult {
    pub counts: Counts,
    /// Simulated p95 request response time, ms.
    pub rt_p95_ms: f64,
    /// The workload's ops in this repetition.
    pub ops: u64,
    /// Store fingerprint, when this repetition was audited.
    pub fingerprint: Option<u64>,
    /// Violated correctness conditions (empty = correct).
    pub violations: Vec<String>,
}

impl RepResult {
    pub fn hit_rate(&self) -> f64 {
        self.counts.hits as f64 / self.counts.lookups.max(1) as f64
    }

    /// Simulated lookups that returned no data.
    pub fn failed_lookups(&self) -> u64 {
        self.counts.db_shed + self.counts.client_timeouts
    }
}

impl Workload {
    /// Runs one repetition from a clone of `dep` and returns its wall time
    /// in seconds with what it did. Cloning, generator construction and
    /// the digest are outside the timed region. `audit` additionally
    /// fingerprints and audits every member store afterwards.
    pub fn run_rep(self, dep: &Deployment, tracer: &mut Tracer, audit: bool) -> (f64, RepResult) {
        match self {
            Workload::ServeHot | Workload::ServeCold => self.rep_serve(dep, tracer, audit),
            Workload::ElasticDay => rep_elastic(dep, tracer, audit),
            Workload::Migrate => rep_migrate(dep, tracer, audit),
        }
    }

    fn rep_serve(self, dep: &Deployment, tracer: &mut Tracer, audit: bool) -> (f64, RepResult) {
        let mut cluster = dep.cluster.clone();
        let mut gen = RequestGenerator::new(
            dep.workload.clone(),
            DetRng::seed(dep.seed).split("workload"),
        );
        let mut req = WebRequest {
            arrival: SimTime::ZERO,
            keys: Vec::with_capacity(dep.workload.items_per_request),
        };

        let t0 = Instant::now();
        let root = tracer.enter("rep");
        loop {
            let s = tracer.enter("workload.next_request_into");
            let more = gen.next_request_into(&mut req);
            tracer.exit(s);
            if !more {
                break;
            }
            let s = tracer.enter("cluster.handle");
            let outcome = cluster.handle(&req);
            tracer.exit(s);
            black_box(outcome);
        }
        tracer.exit(root);
        let secs = t0.elapsed().as_secs_f64();

        let mut result = finish(&cluster, &dep.base, audit);
        result.ops = result.counts.lookups;
        if self == Workload::ServeHot && result.counts.hits != result.counts.lookups {
            result.violations.push(format!(
                "serve_hot: {} of {} lookups missed a fully prefilled tier",
                result.counts.lookups - result.counts.hits,
                result.counts.lookups
            ));
        }
        if result.counts.db_shed != 0 {
            result.violations.push(format!(
                "{} database fetches were shed",
                result.counts.db_shed
            ));
        }
        (secs, result)
    }
}

fn rep_elastic(dep: &Deployment, tracer: &mut Tracer, audit: bool) -> (f64, RepResult) {
    let config = elastic_experiment(dep.seed);

    let t0 = Instant::now();
    let root = tracer.enter("rep");
    let s = tracer.enter("core.run_experiment");
    // `run_experiment` is this call with the final cluster dropped; the
    // cluster is kept so its stores can be audited.
    let (result, cluster) = run_experiment_capture(config, TelemetryConfig::default());
    tracer.exit(s);
    tracer.exit(root);
    let secs = t0.elapsed().as_secs_f64();

    let mut rep = finish(&cluster, &Base::default(), audit);
    rep.ops = rep.counts.lookups;
    rep.counts.scaling_events = result.events.len() as u64;
    rep.counts.profiler_tracked_keys = result.profiler_tracked_keys as u64;
    rep.counts.journal_records = result.journal.len() as u64;
    for report in result.events.iter().filter_map(|e| e.report.as_ref()) {
        add_report(&mut rep.counts, report);
    }
    if rep.counts.requests != result.total_requests {
        rep.violations.push(format!(
            "request histogram holds {} requests, generator made {}",
            rep.counts.requests, result.total_requests
        ));
    }
    let committed = |grew: bool| {
        result.events.iter().any(|e| {
            (e.to_nodes > e.from_nodes) == grew
                && e.to_nodes != e.from_nodes
                && e.report.as_ref().is_some_and(|r| r.outcome.is_completed())
        })
    };
    if !committed(false) {
        rep.violations.push("no scale-in committed".to_string());
    }
    if !committed(true) {
        rep.violations.push("no scale-out committed".to_string());
    }
    check_journal(&result.journal, result.events.len(), &mut rep.violations);
    (secs, rep)
}

/// Requests in each post-commit burst of `migrate`.
const BURST_REQUESTS: usize = 5_000;
/// Lowest post-commit burst hit rate a correct migration may leave. The
/// bursts hit 0.98-0.99 on every seed tried; a migration that lost one
/// node's items would leave about 0.8.
const MIGRATE_MIN_HIT_RATE: f64 = 0.95;

fn rep_migrate(dep: &Deployment, tracer: &mut Tracer, audit: bool) -> (f64, RepResult) {
    let mut cluster = dep.cluster.clone();
    let mut master = Master::new(
        MigrationPolicy::elmem(),
        MigrationCosts::default(),
        dep.seed,
    );
    let mut gen =
        RequestGenerator::new(dep.workload.clone(), DetRng::seed(dep.seed).split("burst"));
    let mut req = WebRequest {
        arrival: SimTime::ZERO,
        keys: Vec::with_capacity(dep.workload.items_per_request),
    };
    let mut reports: Vec<MigrationReport> = Vec::new();
    let mut violations = Vec::new();

    let t0 = Instant::now();
    let root = tracer.enter("rep");
    let mut now = dep.ready_at;
    for grow in [false, true] {
        let s = tracer.enter(if grow {
            "core.scale_out"
        } else {
            "core.scale_in"
        });
        let orch = if grow {
            master.scale_out(&mut cluster, 1, now)
        } else {
            master.scale_in(&mut cluster, 1, now)
        };
        tracer.exit(s);
        let orch: Orchestration = match orch {
            Ok(orch) => orch,
            Err(e) => {
                violations.push(format!("scaling failed: {e}"));
                break;
            }
        };
        let s = tracer.enter("core.apply");
        for deferred in &orch.deferred {
            Master::apply(&mut cluster, &deferred.kind);
        }
        tracer.exit(s);
        reports.extend(orch.report);
        // The burst arrives after the membership flip.
        for _ in 0..BURST_REQUESTS {
            let s = tracer.enter("workload.next_request_into");
            let more = gen.next_request_into(&mut req);
            tracer.exit(s);
            if !more {
                break;
            }
            req.arrival = orch.committed_at + req.arrival;
            let s = tracer.enter("cluster.handle");
            let outcome = cluster.handle(&req);
            tracer.exit(s);
            black_box(outcome);
            now = req.arrival;
        }
        now += SimTime::from_secs(1);
    }
    tracer.exit(root);
    let secs = t0.elapsed().as_secs_f64();

    let mut rep = finish(&cluster, &dep.base, audit);
    rep.violations.append(&mut violations);
    rep.counts.scaling_events = reports.len() as u64;
    rep.counts.journal_records = master.journal().len() as u64;
    for report in &reports {
        add_report(&mut rep.counts, report);
        if !report.outcome.is_completed() {
            rep.violations
                .push(format!("migration ended {:?}", report.outcome));
        }
    }
    rep.ops = rep.counts.items_considered;
    check_journal(master.journal(), 2, &mut rep.violations);
    if rep.hit_rate() < MIGRATE_MIN_HIT_RATE {
        rep.violations.push(format!(
            "post-commit burst hit rate {:.4} below {MIGRATE_MIN_HIT_RATE}",
            rep.hit_rate()
        ));
    }
    (secs, rep)
}

fn add_report(counts: &mut Counts, report: &MigrationReport) {
    counts.items_considered += report.items_considered;
    counts.items_migrated += report.items_migrated;
    counts.bytes_migrated += report.bytes_migrated.as_u64();
}

/// Every migration the journal saw start must replay as committed, and
/// there must be `expected` of them.
fn check_journal(journal: &MigrationJournal, expected: usize, violations: &mut Vec<String>) {
    let started: Vec<u64> = journal
        .entries()
        .iter()
        .filter(|e| matches!(e.record, JournalRecord::Started { .. }))
        .map(|e| e.record.id())
        .collect();
    if started.len() != expected {
        violations.push(format!(
            "journal holds {} migrations, expected {expected}",
            started.len()
        ));
    }
    for id in started {
        let state = journal.replay(id);
        if !state.committed || state.aborted {
            violations.push(format!("journal of migration {id} does not end committed"));
        }
    }
}

/// `(sets, evictions)` of every node's store.
fn store_counters(cluster: &Cluster) -> Vec<(NodeId, u64, u64)> {
    cluster
        .tier
        .iter_nodes()
        .map(|n| {
            let stats = n.store.stats();
            (n.id(), stats.sets, stats.evictions)
        })
        .collect()
}

/// Sets and evictions since `base`, summed over every node. A node that
/// was powered off got a fresh store: its counters restart from zero.
fn store_deltas(cluster: &Cluster, base: &Base) -> (u64, u64) {
    store_counters(cluster)
        .into_iter()
        .fold((0, 0), |(sets, evictions), (id, s, e)| {
            let (s0, e0) = base
                .stores
                .iter()
                .find(|(b, ..)| *b == id)
                .map_or((0, 0), |&(_, s0, e0)| (s0, e0));
            let since = |now: u64, then: u64| if now >= then { now - then } else { now };
            (sets + since(s, s0), evictions + since(e, e0))
        })
}

/// Reads a finished repetition's counts off its cluster and, when asked,
/// fingerprints and audits every member's store.
fn finish(cluster: &Cluster, base: &Base, audit: bool) -> RepResult {
    let t = cluster.telemetry();
    let (sets, evictions) = store_deltas(cluster, base);
    let counts = Counts {
        requests: t.request_rt.count(),
        lookups: t.get_hit.count() + t.get_miss.count() + t.timeout_path.count(),
        hits: t.get_hit.count(),
        db_fetches: cluster.db.fetches() - base.db_fetches,
        db_shed: cluster.db.shed() - base.db_shed,
        client_timeouts: cluster.client_timeouts(),
        sets,
        evictions,
        ..Counts::default()
    };
    let mut violations = Vec::new();
    let fingerprint = audit.then(|| {
        let mut h = Fnv::new();
        for &id in cluster.tier.membership().members() {
            let Ok(node) = cluster.tier.node(id) else {
                violations.push(format!("member {id} has no node"));
                continue;
            };
            if let Err(e) = node.store.audit() {
                violations.push(format!("{id} fails its audit: {e}"));
            }
            h.word(u64::from(id.0));
            for class in &node.store.dump_metadata().classes {
                h.word(u64::from(class.class.0));
                for item in &class.items {
                    h.word(item.key.0);
                    h.word(u64::from(item.value_size));
                    h.word(item.last_access.as_nanos());
                }
            }
        }
        h.0
    });
    RepResult {
        counts,
        rt_p95_ms: histogram_quantile_ns(&t.request_rt, 0.95) / 1e6,
        ops: 0,
        fingerprint,
        violations,
    }
}

/// The nearest-rank `q`-quantile of a latency histogram, in nanoseconds,
/// placed inside its bucket by linear interpolation on the rank. The
/// histogram's own `value_at_quantile` reports the bucket's upper edge;
/// buckets are 3.1 % wide, wider than the bound on `sim_rt_p95_ms`, so a
/// one-request shift would read as a 3 % step or not at all.
pub fn histogram_quantile_ns(hist: &LatencyHistogram, q: f64) -> f64 {
    let count = hist.count();
    if count == 0 {
        return 0.0;
    }
    let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
    let mut seen = 0u64;
    for (i, c) in hist.nonzero_buckets() {
        if seen + c >= rank {
            let into = (rank - seen) as f64 / c as f64;
            let lower = bucket_lower(i).max(hist.min()) as f64;
            let upper = (bucket_lower(i) + bucket_width(i)).min(hist.max() + 1) as f64;
            return lower + (upper - lower).max(0.0) * into;
        }
        seen += c;
    }
    hist.max() as f64
}

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// The first `n` requests' keys of a workload's stream at `seed`
/// (what `--seed` changes).
#[cfg(test)]
fn key_stream(workload: Workload, seed: u64, n: usize) -> Vec<u64> {
    let shape = workload.shape(seed);
    let mut gen = RequestGenerator::new(shape.workload, DetRng::seed(seed).split("workload"));
    let mut keys = Vec::new();
    for _ in 0..n {
        match gen.next_request() {
            Some(req) => keys.extend(req.keys.iter().map(|k| k.0)),
            None => break,
        }
    }
    keys
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_changes_the_key_stream_and_repeats_it() {
        for w in Workload::ALL {
            let a = key_stream(w, 7, 200);
            assert_eq!(a.len(), 200 * w.shape(7).workload.items_per_request);
            assert_eq!(a, key_stream(w, 7, 200), "{w:?}: same seed, same stream");
            assert_ne!(
                a,
                key_stream(w, 8, 200),
                "{w:?}: another seed, another stream"
            );
        }
    }

    #[test]
    fn unknown_workload_is_an_error() {
        assert_eq!(Workload::parse("serve_hot"), Ok(Workload::ServeHot));
        let err = Workload::parse("serve_warm").unwrap_err();
        assert!(
            err.contains("serve_warm") && err.contains("elastic_day"),
            "{err}"
        );
    }

    #[test]
    fn interpolated_quantile_stays_inside_the_histograms_bucket() {
        let mut h = LatencyHistogram::new();
        for v in 0..1000u64 {
            h.record(4_000_000 + v * 1_000);
        }
        let coarse = h.value_at_quantile(0.95) as f64;
        let fine = histogram_quantile_ns(&h, 0.95);
        assert!(fine <= coarse + 1.0, "{fine} vs bucket edge {coarse}");
        assert!(
            fine >= coarse * (1.0 - 1.0 / 32.0) - 1.0,
            "{fine} vs {coarse}"
        );
        // Exact p95 of the recorded values is 4.949 ms.
        assert!((fine - 4_949_000.0).abs() < 4_949_000.0 * 0.01, "{fine}");
        assert_eq!(histogram_quantile_ns(&LatencyHistogram::new(), 0.95), 0.0);
    }
}
