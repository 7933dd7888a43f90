//! **Chaos sweep** — seeded randomized fault/scaling schedules with
//! end-to-end integrity invariants.
//!
//! Each cell generates a [`ChaosPlan`] from its seed — crashes, link
//! degradations, partitions, shipment-drop probabilities, overlapping
//! scripted scale-ins/outs, **Master crashes mid-migration** (restart +
//! journal resume), optionally the autoscaler and the self-healing
//! pipeline — runs it, and checks the invariant suite of
//! `elmem_core::chaos` (DESIGN.md §12–13): store conservation audits,
//! content fidelity, no stale serves, breaker/detector state-machine
//! legality, telemetry ordering, migration phase pairing, healing
//! convergence, and journal coherence (no shipment lost, none applied
//! twice).
//!
//! A failing seed is automatically **shrunk** to a minimal reproducing
//! plan and written to `results/chaos_failing_<seed>.json`, with the
//! minimal run's migration journal next to it as
//! `results/chaos_journal_<seed>.json` (CI uploads both), then the
//! process exits non-zero.
//!
//! `--replay <path>` re-runs one committed reproduction (a
//! `chaos_failing_<seed>.json`) directly instead of sweeping.
//! `--smoke` sweeps 64 seeds (the CI gate); the full run sweeps 256.
//! `ELMEM_JOBS` bounds the worker threads; results are byte-identical at
//! any worker count.

use elmem_bench::figures::tab_chaos;
use elmem_core::chaos::run_chaos;
use elmem_sim::chaos::ChaosPlan;
use elmem_sim::fault::FaultKind;

fn fault_label(kind: &FaultKind) -> &'static str {
    match kind {
        FaultKind::NodeCrash { .. } => "crash",
        FaultKind::LinkSlowdown { .. } => "slow_link",
        FaultKind::LinkPartition { .. } => "partition",
    }
}

fn replay(path: &str) -> ! {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(2);
    });
    let plan = ChaosPlan::parse_json(text.trim_end()).unwrap_or_else(|e| {
        eprintln!("cannot parse {path}: {e}");
        std::process::exit(2);
    });
    println!("== Tab (chaos): replaying {path} ==\n");
    let report = run_chaos(&plan);
    println!(
        "seed={} nodes={} keys={} dur={}s faults={} actions={} master_crashes={} \
         reqs={} members={}",
        plan.seed,
        plan.nodes,
        plan.keys,
        plan.duration_secs,
        plan.faults.scheduled().len(),
        plan.actions.len(),
        plan.master_crashes.len(),
        report.result.total_requests,
        report.result.final_members,
    );
    if report.passed() {
        println!("\nreplay passed every invariant");
        std::process::exit(0);
    }
    for v in &report.violations {
        println!("violation: {v}");
    }
    std::process::exit(1);
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--replay") {
        match args.get(i + 1) {
            Some(path) => replay(path),
            None => {
                eprintln!("--replay requires a path to a chaos plan JSON");
                std::process::exit(2);
            }
        }
    }
    let smoke = args.iter().any(|a| a == "--smoke");
    let seeds: Vec<u64> = if smoke {
        (0..64).collect()
    } else {
        (0..256).collect()
    };
    println!(
        "== Tab (chaos): {} seeded schedules, end-to-end invariants{} ==\n",
        seeds.len(),
        if smoke { " [smoke]" } else { "" }
    );

    let reports = tab_chaos(&seeds);

    let mut failing: Vec<(u64, ChaosPlan)> = Vec::new();
    let mut fault_counts = std::collections::BTreeMap::new();
    let mut action_total = 0usize;
    let mut master_crash_total = 0usize;
    let mut runs_with_healing = 0usize;
    let mut runs_with_autoscaler = 0usize;
    for (plan, report) in &reports {
        for f in plan.faults.scheduled() {
            *fault_counts.entry(fault_label(&f.kind)).or_insert(0usize) += 1;
        }
        action_total += plan.actions.len();
        master_crash_total += plan.master_crashes.len();
        runs_with_healing += usize::from(plan.healing);
        runs_with_autoscaler += usize::from(plan.autoscaler);
        let status = if report.passed() {
            "ok".to_string()
        } else {
            format!("FAIL ({})", report.violations.len())
        };
        println!(
            "seed={:<4} nodes={} keys={:<6} dur={:<4}s faults={} actions={} mcrash={} heal={} \
             scaler={} reqs={:<6} members={} -> {status}",
            plan.seed,
            plan.nodes,
            plan.keys,
            plan.duration_secs,
            plan.faults.scheduled().len(),
            plan.actions.len(),
            plan.master_crashes.len(),
            u8::from(plan.healing),
            u8::from(plan.autoscaler),
            report.result.total_requests,
            report.result.final_members,
        );
        for v in &report.violations {
            println!("    violation: {v}");
        }
        if !report.passed() {
            failing.push((plan.seed, plan.clone()));
        }
    }

    println!(
        "\n{} / {} schedules passed every invariant \
         (faults swept: {:?}; {} scripted actions; {} Master crashes; \
         {} runs with healing, {} with autoscaler)",
        reports.len() - failing.len(),
        reports.len(),
        fault_counts,
        action_total,
        master_crash_total,
        runs_with_healing,
        runs_with_autoscaler,
    );

    if failing.is_empty() {
        return;
    }

    // Shrink each failing schedule to a minimal reproduction and leave it
    // where CI picks artifacts up.
    std::fs::create_dir_all("results").expect("create results/");
    for (seed, plan) in &failing {
        println!("\nshrinking failing seed {seed}...");
        let minimal = elmem_sim::chaos::shrink(plan, |p| !run_chaos(p).passed());
        let report = run_chaos(&minimal);
        let path = format!("results/chaos_failing_{seed}.json");
        std::fs::write(&path, minimal.to_json()).expect("write failing schedule");
        // The minimal run's migration journal, for post-mortem: which
        // migrations started, sealed, acked what, resumed, committed.
        let journal_path = format!("results/chaos_journal_{seed}.json");
        std::fs::write(&journal_path, report.result.journal.to_json())
            .expect("write failing journal");
        println!(
            "  minimal plan ({} faults, {} actions, {} Master crashes) -> {path} \
             (journal: {journal_path})",
            minimal.faults.scheduled().len(),
            minimal.actions.len(),
            minimal.master_crashes.len()
        );
        for v in &report.violations {
            println!("  still violates: {v}");
        }
    }
    std::process::exit(1);
}
