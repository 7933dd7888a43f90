//! **Robustness** — the self-healing tier after a node crash.
//!
//! Crashes one node of a warm, steady-state tier and compares three
//! operating modes of the same deterministic run:
//!
//! * `no detector`   — the corpse stays in the ring; its keyspace slice
//!   pays the client timeout until the circuit breaker opens, then fails
//!   over fast to the database. Capacity is never restored.
//! * `detect+evict`  — the heartbeat detector confirms the death within
//!   the suspicion window and the Master evicts the corpse; survivors
//!   absorb the slice but total capacity stays down one node.
//! * `detect+warm`   — after eviction a replacement is warmed through the
//!   supervised FuseCache migration before joining the ring: capacity is
//!   restored and the hit rate climbs back to the pre-crash level.
//!
//! A second table (EXPERIMENTS.md E18) crashes the **Master** mid-way
//! through a scheduled scale-in migration on the same seed and compares
//! the two recovery policies: journal **resume** (the restarted Master
//! replays the WAL and continues from the last durable shipment) vs
//! **abort-and-restart** (the journal is abandoned; the scaling commits
//! cold, so the victims' hot data is lost and refills through misses).
//! Resume must recover the hit rate strictly faster.
//!
//! `--smoke` runs a seconds-long small-tier version of the same comparison
//! for CI; the assertions (detection inside the suspicion window, tail
//! hit-rate ordering warm > evict > none, resume beating abort) hold in
//! both modes.

use elmem_bench::exp::Preset;
use elmem_bench::figures::{tab_recovery, TabRecovery};
use elmem_core::healing::{PROBE_INTERVAL, PROBE_JITTER, SUSPICION_THRESHOLD};
use elmem_core::ExperimentResult;
use elmem_util::stats::{hit_rate_recovery_secs, window_mean};

const SEED: u64 = 7;

/// How long the hit rate must hold the target to count as recovered.
const SUSTAIN_SECS: usize = 20;

/// Recovered = back to this fraction of the pre-crash hit rate.
const RECOVERY_FRACTION: f64 = 0.97;

/// Mean per-second hit rate over `window`, `(from, to)` seconds.
fn mean_hit_rate(r: &ExperimentResult, window: (u64, u64)) -> f64 {
    window_mean(&r.timeline, &[window], |p| p.hit_rate).unwrap_or(0.0)
}

fn row(label: &str, r: &ExperimentResult, t: &TabRecovery) {
    let (detect, recovered) = match r.recoveries.first() {
        Some(rec) => (
            rec.detection_latency()
                .map(|d| format!("{d}"))
                .unwrap_or_else(|| "-".to_string()),
            format!("{}", rec.recovered_at),
        ),
        None => ("-".to_string(), "-".to_string()),
    };
    let pre = mean_hit_rate(r, (t.crash_s / 2, t.crash_s));
    let recovery = hit_rate_recovery_secs(
        &r.timeline,
        t.crash_s,
        pre * RECOVERY_FRACTION,
        SUSTAIN_SECS,
    )
    .map(|v| format!("{v}s"))
    .unwrap_or_else(|| "never".to_string());
    println!(
        "{label:<14} members={}  timeouts={:>6}  fast_fo={:>7}  breaker_flips={:>3}  \
         detect={detect:<9}  recovered_at={recovered:<9}  pre_hit={pre:>6.4}  tail_hit={:>6.4}  \
         hit_restore={recovery}",
        r.final_members,
        r.client_timeouts,
        r.fast_failovers,
        r.breaker_transitions,
        mean_hit_rate(r, t.tail),
    );
}

/// E18: the same scheduled scale-in, same seed, with the Master crashing
/// 200 ms into the migration — once resuming from the journal, once
/// aborting (the scaling commits cold).
fn resume_vs_abort(t: &TabRecovery) {
    let (resume, abort, scale_s) = (&t.resume, &t.abort, t.crash_s);

    // The two runs are byte-identical up to the crash, so the resume run's
    // pre-scaling hit rate is the shared baseline. "Recovered" is measured
    // against the *post-scale* steady state (the resume run's tail) — the
    // smaller tier cannot reach the pre-scale hit rate at all, and the
    // question E18 asks is how long each policy takes to get back to what
    // the shrunk tier can sustain.
    let pre = mean_hit_rate(resume, (scale_s / 2, scale_s));
    let steady = mean_hit_rate(resume, t.tail);
    let restore = |r: &ExperimentResult| {
        hit_rate_recovery_secs(
            &r.timeline,
            scale_s,
            steady * RECOVERY_FRACTION,
            SUSTAIN_SECS,
        )
    };
    let show = |v: Option<u64>| {
        v.map(|s| format!("{s}s"))
            .unwrap_or_else(|| "never".to_string())
    };

    println!("\n== E18: Master crash mid-migration — journal resume vs abort-and-restart ==\n");
    for (label, r) in [("resume", resume), ("abort", abort)] {
        let replay = r.journal.replay(0);
        println!(
            "{label:<8} members={}  resumes={}  committed={}  aborted={}  pre_hit={pre:>6.4}  \
             steady_hit={steady:>6.4}  hit_restore={}",
            r.final_members,
            replay.resumes,
            replay.committed,
            replay.aborted,
            show(restore(r)),
        );
    }

    // The acceptance claims, checked on every run: the crash really
    // interrupted the migration, resume committed it, abort abandoned it,
    // and resume restored the hit rate strictly faster.
    let rr = resume.journal.replay(0);
    assert!(
        rr.committed && rr.resumes >= 1,
        "resume run must crash and resume"
    );
    let ar = abort.journal.replay(0);
    assert!(ar.aborted, "abort run must abandon the journal");
    assert_eq!(resume.final_members, abort.final_members);
    let (r_restore, a_restore) = (restore(resume), restore(abort));
    let r = r_restore.expect("resumed migration restores the hit rate");
    assert!(
        a_restore.is_none_or(|a| r < a),
        "resume must restore the hit rate strictly faster (resume {}, abort {})",
        show(r_restore),
        show(a_restore)
    );

    println!(
        "\nInterpretation: both runs lose the Master 200 ms into the same \
         scale-in migration. The restarted Master that replays its journal \
         resumes shipping from the last durable ack and commits the scaling \
         with the victim's hot items relocated, so the hit rate barely \
         moves. Abort-and-restart abandons the in-flight plan and commits \
         the scaling cold: every key the victims held refills through \
         database misses. Time back to the shrunk tier's steady-state hit \
         rate: {} resumed vs {} aborted.",
        show(r_restore),
        show(a_restore),
    );
}

fn main() {
    let preset = Preset::from_cli();
    let smoke = std::env::args().any(|a| a == "--smoke");
    println!(
        "== Tab (self-healing): crash detection, eviction, warmed replacement{} ==\n",
        if smoke { " [smoke]" } else { "" }
    );

    let t = tab_recovery(preset, smoke, SEED);
    let (none, evict, warm) = (&t.none, &t.evict, &t.warm);
    row("no detector", none, &t);
    row("detect+evict", evict, &t);
    row("detect+warm", warm, &t);

    // The claims the table is built on, checked on every run (CI runs the
    // smoke version): detection lands inside the suspicion window and the
    // tail hit rates order warm > evict > none.
    assert!(none.recoveries.is_empty() && none.probes_sent == 0);
    for r in [evict, warm] {
        let rec = r.recoveries.first().expect("crash detected");
        let window = (PROBE_INTERVAL + PROBE_JITTER) * u64::from(SUSPICION_THRESHOLD + 1);
        let latency = rec.detection_latency().expect("crash time known");
        assert!(
            latency <= window,
            "detection took {latency}, suspicion window is {window}"
        );
    }
    let tail = |r: &ExperimentResult| mean_hit_rate(r, t.tail);
    assert!(
        tail(warm) > tail(evict) && tail(evict) > tail(none),
        "tail hit rates must order warm > evict > none ({:.4} / {:.4} / {:.4})",
        tail(warm),
        tail(evict),
        tail(none)
    );

    println!(
        "\nInterpretation: without a detector the dead node keeps its arc of \
         the ring — every lookup that hashes there pays the client timeout \
         until the breaker opens ({} timeouts, {} fast failovers) and the \
         lost capacity never returns. Detection confirms the crash in \
         {} and eviction stops the timeout bleed, but the tier stays one \
         node short. The warmed replacement refills the hottest keys through \
         FuseCache before joining, so the hit rate is restored toward the \
         pre-crash level while evict-only settles lower and the unhealed \
         tier lower still. The warm-vs-evict gap widens as capacity binds: \
         with a Zipf tail a 10-node tier barely misses one node's worth of \
         mass, while the small smoke tier never reclaims the pre-crash hit \
         rate on eviction alone.",
        none.client_timeouts,
        none.fast_failovers,
        warm.recoveries[0]
            .detection_latency()
            .expect("crash time known"),
    );

    resume_vs_abort(&t);
}
