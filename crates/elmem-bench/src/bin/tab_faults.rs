//! **Robustness** — fault injection during the 3-phase scale-in.
//!
//! Runs a fault-free 10 → 9 migration first to learn the victim and the
//! phase windows, then replays the same deterministic run with a crash
//! aimed into phase 1 (retiring source) and phase 3 (retained
//! destination), plus shipment-drop and NIC-slowdown scenarios. Every
//! faulty run must finish without panicking, report the abort phase the
//! crash landed in, and commit a consistent membership; the table compares
//! the post-scaling p95 against the fault-free run.

use elmem_bench::exp::{post_event_window_p95, Preset};
use elmem_bench::figures::tab_faults;
use elmem_core::{ExperimentResult, MigrationOutcome};

const P95_WINDOW_S: u64 = 120;

fn outcome_label(result: &ExperimentResult) -> String {
    match result.events.first().and_then(|e| e.report.as_ref()) {
        Some(r) => match r.outcome {
            MigrationOutcome::Completed => {
                format!("completed ({} retries)", r.transfer_retries)
            }
            MigrationOutcome::Aborted { phase, cause } => {
                format!("ABORTED in {phase:?}: {cause:?}")
            }
        },
        None => "no event".to_string(),
    }
}

fn row(label: &str, result: &ExperimentResult) {
    let committed = result
        .events
        .first()
        .map(|e| format!("{}", e.committed_at))
        .unwrap_or_else(|| "-".to_string());
    println!(
        "{label:<18} members={}  committed={committed:<12}  post_p95={:>8.2}ms  {}",
        result.final_members,
        post_event_window_p95(result, P95_WINDOW_S),
        outcome_label(result),
    );
}

fn main() {
    let preset = Preset::from_cli();
    println!("== Tab (robustness): faults during the 3-phase migration ==\n");

    let tab = tab_faults(preset, 17);
    println!(
        "fault-free probe: victim={}, phase1 ends {}, data phase \
         [{}, {}]\n",
        tab.victim, tab.phase1_end, tab.phase2_end, tab.completed
    );

    row("fault-free", &tab.clean);
    row("src crash (P1)", &tab.src_crash);
    row("dst crash (P3)", &tab.dst_crash);
    row("30%/15% drops", &tab.drops);
    row("8x slow NIC", &tab.slow_nic);

    println!(
        "\nInterpretation: crash aborts keep the run alive — the Master \
         commits the scaling at the abort instant and evicts the dead node. \
         A source crash degrades to a baseline-style scale-in (the victim's \
         hot data is lost). A destination crash is the worst case: the tier \
         drops to {} nodes and loses a retained node's whole cache on top \
         of the victim's, though the partial phase-3 imports already \
         applied to healthy nodes are kept. Drops cost retries/backoff and \
         a slow NIC stretches the migration; both still complete.",
        tab.dst_crash.final_members
    );
}
