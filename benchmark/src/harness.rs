//! One run of one workload: set-up timing, the repetition loop with its
//! correctness gate, and the report.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::layers;
use crate::probe::Probe;
use crate::report::{self, Metric, RunReport, END_TO_END, PER_LAYER};
use crate::stats::Summary;
use crate::trace::{self, NameTotal, Span, Tracer};
use crate::workloads::{Deployment, RepResult, Workload};

/// Run length the frozen repetition counts are sized for, seconds.
/// `--seconds N` scales every count by `N / REFERENCE_SECONDS`.
pub const REFERENCE_SECONDS: u64 = 20;
/// Leading repetitions run and checked but not timed into the estimate.
const DISCARDED_REPS: usize = 3;
/// Share of an untraced run's repetitions each pass of a traced run makes.
const TRACED_SHARE: f64 = 0.3;
/// Enter/exit pairs timed for `trace.span_cost_ns`.
const SPAN_COST_PAIRS: u32 = 200_000;
/// Raw spans kept for the trace file (the per-name totals cover all).
const MAX_SAMPLE_SPANS: usize = 100_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// A `Name:   123 kB` field of `/proc/self/status`, in KiB.
pub fn proc_status_kib(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line[field.len()..]
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()
}

/// The timed repetition loop and its correctness gate.
struct Loop {
    times: Vec<f64>,
    first: Option<RepResult>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    /// Per-name span totals over the timed repetitions (empty untraced).
    totals: BTreeMap<&'static str, NameTotal>,
    /// The first raw spans of the timed repetitions, for the trace file.
    sample: Vec<Span>,
}

impl Loop {
    /// Runs `DISCARDED_REPS + reps` repetitions. Every repetition is
    /// checked against repetition 0; only the last `reps` are timed into
    /// `times` and counted in `attempted`.
    fn run(
        workload: Workload,
        dep: &Deployment,
        reps: usize,
        tracer: &mut Tracer,
        probe: &mut Probe,
    ) -> Loop {
        let spec = workload.spec();
        let mut lp = Loop {
            times: Vec::with_capacity(reps),
            first: None,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            totals: BTreeMap::new(),
            sample: Vec::new(),
        };
        let total = DISCARDED_REPS + reps;
        for i in 0..total {
            if i % spec.probe_every == 0 {
                probe.sample();
            }
            let audit = i == 0 || i + 1 == total || i % spec.audit_every == 0;
            tracer.begin_rep(i as u32);
            let (secs, result) = workload.run_rep(dep, tracer, audit);

            let mut bad = !result.violations.is_empty();
            for v in &result.violations {
                lp.note(format!("repetition {i}: {v}"));
            }
            match &lp.first {
                None => lp.first = Some(result.clone()),
                Some(first) => {
                    let same = first.counts == result.counts
                        && first.rt_p95_ms.to_bits() == result.rt_p95_ms.to_bits()
                        && first.ops == result.ops
                        && (result.fingerprint.is_none()
                            || first.fingerprint == result.fingerprint);
                    if !same {
                        bad = true;
                        lp.note(format!("repetition {i}: digest differs from repetition 0"));
                    }
                }
            }
            if i >= DISCARDED_REPS {
                trace::accumulate(&mut lp.totals, tracer.spans());
                let room = MAX_SAMPLE_SPANS.saturating_sub(lp.sample.len());
                lp.sample.extend(tracer.spans().iter().take(room));
                lp.times.push(secs);
                lp.attempted += result.ops;
                lp.failed += if bad {
                    result.ops
                } else {
                    result.failed_lookups()
                };
            } else if bad {
                lp.failed += result.ops;
            }
        }
        lp
    }

    fn note(&mut self, problem: String) {
        // The first few say what is wrong; a broken build would repeat
        // the same line hundreds of times.
        if self.problems.len() < 8 {
            self.problems.push(problem);
        }
    }

    fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }
}

fn print_summary(label: &str, unit: &str, scale: f64, s: &Summary) {
    println!(
        "{label:<24} n={} p10={:.4} q1={:.4} median={:.4} q3={:.4} {unit}  spread={:.4}",
        s.n,
        s.p10 * scale,
        s.q1 * scale,
        s.median * scale,
        s.q3 * scale,
        s.spread()
    );
}

/// What every run prints beside its metrics, traced or not: the loop's
/// health, the machine's drift probes and the repetition's counts.
fn diagnostics(first: &RepResult, times: &Summary, probe: &Probe) -> Vec<Metric> {
    let mut out = vec![
        Metric::new(
            "loop.median_ops_per_s",
            first.ops as f64 / times.median,
            "1/s",
        ),
        Metric::new("loop.rep_spread", times.spread(), "ratio"),
        Metric::new("machine.probe_cpu_ns", Summary::of(&probe.cpu_ns).p10, "ns"),
        Metric::new("machine.probe_mem_ns", Summary::of(&probe.mem_ns).p10, "ns"),
    ];
    out.extend(
        first
            .counts
            .named()
            .map(|(name, v)| Metric::new(name, v as f64, "count")),
    );
    out
}

fn scaled(count: usize, seconds: u64, share: f64) -> usize {
    ((count as f64 * seconds as f64 / REFERENCE_SECONDS as f64 * share).round() as usize).max(1)
}

/// Runs one workload and prints its listing and final JSON line.
/// Returns whether the run was correct.
pub fn run(args: RunArgs) -> bool {
    let spec = args.workload.spec();
    println!(
        "workload={} seed={} seconds={} trace={} driver_threads=1 library_jobs={} nproc={}",
        spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        // Workers the library's own fan-outs resolve to with ELMEM_* scrubbed.
        elmem::util::par::par_jobs(),
        std::thread::available_parallelism().map_or(1, usize::from),
    );
    let report = if args.trace {
        run_traced(args)
    } else {
        run_untraced(args)
    };
    print!("{}", report::listing(&report.metrics));
    // A metric the contract names and the run does not report (or the
    // reverse) is a broken benchmark, not a slow program.
    let complete = if args.trace {
        report.reports_exactly(&PER_LAYER)
    } else {
        report.reports_exactly(&END_TO_END.map(|(name, unit, ..)| (name, unit)))
    };
    if !complete {
        println!("INCORRECT: reported metrics differ from the BENCHMARK.json list");
    }
    let report = RunReport {
        correct: report.correct && complete,
        ..report
    };
    println!(
        "correct={} attempted={} failed={}",
        report.correct, report.attempted, report.failed
    );
    println!("{}", report.to_json_line());
    report.correct
}

fn run_untraced(args: RunArgs) -> RunReport {
    let spec = args.workload.spec();
    let started = Instant::now();

    // Set-up: every build is from scratch; the first is kept to serve.
    let mut build_times = Vec::with_capacity(spec.setup_builds);
    let mut dep = None;
    for _ in 0..spec.setup_builds {
        let t = Instant::now();
        let built = args.workload.build(args.seed);
        build_times.push(t.elapsed().as_secs_f64());
        dep.get_or_insert(built);
    }
    let dep = dep.expect("setup_builds is at least 1");
    let setup = Summary::of(&build_times);
    let setup_wall = started.elapsed().as_secs_f64();

    let mut probe = Probe::new();
    let reps = scaled(spec.reps, args.seconds, 1.0);
    let mut tracer = Tracer::new(false);
    let lp = Loop::run(args.workload, &dep, reps, &mut tracer, &mut probe);
    let times = Summary::of(&lp.times);
    let first = lp.first.as_ref().expect("at least one repetition ran");

    print_summary("setup build time", "s", 1.0, &setup);
    print_summary("repetition time", "ms", 1e3, &times);
    println!(
        "repetitions={} (+{} discarded) ops_per_repetition={} ({}) timed_s={:.2} setup_wall_s={:.2} wall_s={:.2}",
        lp.times.len(),
        DISCARDED_REPS,
        first.ops,
        spec.op,
        lp.times.iter().sum::<f64>(),
        setup_wall,
        started.elapsed().as_secs_f64(),
    );
    for p in &lp.problems {
        println!("INCORRECT: {p}");
    }
    print!("{}", report::listing(&diagnostics(first, &times, &probe)));

    let peak_rss_mib = proc_status_kib("VmHWM:").unwrap_or(0) as f64 / 1024.0;
    RunReport {
        correct: lp.correct(),
        attempted: lp.attempted,
        failed: lp.failed,
        metrics: vec![
            Metric::new("ops_per_s", first.ops as f64 / times.p10, "1/s"),
            Metric::new("setup_s", setup.p10, "s"),
            Metric::new("peak_rss_mib", peak_rss_mib, "MiB"),
            Metric::new("sim_hit_rate", first.hit_rate(), "ratio"),
            Metric::new("sim_rt_p95_ms", first.rt_p95_ms, "ms"),
        ],
    }
}

fn run_traced(args: RunArgs) -> RunReport {
    let spec = args.workload.spec();
    let dep = args.workload.build(args.seed);
    let mut probe = Probe::new();
    let reps = scaled(spec.reps, args.seconds, TRACED_SHARE);

    // The same repetitions twice: spans off, then on. The ratio of the two
    // low quantiles is what tracing costs.
    let mut off = Tracer::new(false);
    let plain = Loop::run(args.workload, &dep, reps, &mut off, &mut probe);
    let mut on = Tracer::new(true);
    let traced = Loop::run(args.workload, &dep, reps, &mut on, &mut probe);
    let totals = &traced.totals;

    let plain_times = Summary::of(&plain.times);
    let traced_times = Summary::of(&traced.times);
    print_summary("repetition time", "ms", 1e3, &plain_times);
    print_summary("traced repetition time", "ms", 1e3, &traced_times);
    for p in plain.problems.iter().chain(&traced.problems) {
        println!("INCORRECT: {p}");
    }

    // Span table: where a repetition's time goes, by the driver's calls.
    let rep_total = totals.get("rep").copied().unwrap_or_default();
    println!("span                             calls   total_ms    self_ms  self_share");
    for (name, t) in totals {
        println!(
            "{name:<30} {:>7} {:>10.3} {:>10.3} {:>10.4}",
            t.calls,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6,
            t.self_ns as f64 / rep_total.total_ns.max(1) as f64
        );
    }
    // What one enter/exit pair costs, on a scratch tracer.
    let mut scratch = Tracer::new(true);
    scratch.begin_rep(0);
    let t = Instant::now();
    for _ in 0..SPAN_COST_PAIRS {
        let id = scratch.enter("scratch");
        scratch.exit(id);
    }
    let span_cost_ns = t.elapsed().as_nanos() as f64 / f64::from(SPAN_COST_PAIRS);

    let out_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = out_dir.join(format!("trace_{}.json", spec.name));
    let written = std::fs::create_dir_all(&out_dir).and_then(|()| {
        std::fs::write(
            &path,
            trace::to_json(
                spec.name,
                args.seed,
                rep_total.calls as usize,
                totals,
                &traced.sample,
            ),
        )
    });
    match &written {
        Ok(()) => println!("trace written to {}", path.display()),
        Err(e) => println!("trace not written to {}: {e}", path.display()),
    }

    let first = plain.first.as_ref().expect("at least one repetition ran");
    let mut metrics = layers::measure(&dep);
    metrics.extend([
        Metric::new(
            "loop.unattributed_share",
            rep_total.self_ns as f64 / rep_total.total_ns.max(1) as f64,
            "ratio",
        ),
        Metric::new(
            "trace.overhead_ratio",
            traced_times.p10 / plain_times.p10,
            "ratio",
        ),
        Metric::new("trace.span_cost_ns", span_cost_ns, "ns"),
    ]);
    metrics.extend(diagnostics(first, &plain_times, &probe));
    RunReport {
        correct: plain.correct() && traced.correct() && written.is_ok(),
        attempted: plain.attempted + traced.attempted,
        failed: plain.failed + traced.failed,
        metrics,
    }
}
