//! **E9 / §III-B** — AutoScaler sizing accuracy.
//!
//! Part 1: feeds a Zipf window into the stack-distance engine and prints
//! the memory required for each target hit rate (the paper's
//! "memory required for every integer hit rate percentage").
//!
//! Part 2: runs the AutoScaler end-to-end on a demand drop and checks that
//! the post-scaling hit rate stays at or above `p_min` from Eq. (1) — i.e.
//! the database never sees more than `r_DB` misses per second for long.

use elmem_bench::exp::Preset;
use elmem_bench::figures::{autoscaler_sizing, tab_autoscaler};
use elmem_util::ByteSize;

fn main() {
    let preset = Preset::from_cli();
    println!("== Tab (SS III-B): AutoScaler sizing ==\n");

    // Part 1 — memory-for-hit-rate table from a sampled window.
    let sizing = autoscaler_sizing(5);
    println!(
        "observed {} lookups, {} warm ({:.1}%)",
        sizing.observed,
        sizing.warm,
        sizing.warm as f64 / sizing.observed as f64 * 100.0
    );
    println!("target WARM hit rate -> required memory (nodes of 64 MiB)");
    for (pct, memory) in sizing.memory {
        match memory {
            Some(mem) => println!(
                "{pct:>3}% -> {:>12} ({} nodes)",
                mem.to_string(),
                mem.as_u64().div_ceil(ByteSize::from_mib(64).as_u64())
            ),
            None => println!("{pct:>3}% -> no warm accesses observed"),
        }
    }
    let [r200, r500, r4000] = sizing.p_min;
    println!(
        "\nEq. (1) p_min examples (r_DB = 125/s): r=200 -> {r200:.2}, r=500 -> {r500:.2}, r=4000 -> {r4000:.3}"
    );

    // Part 2 — end-to-end: demand drops 1.0 -> 0.3; the AutoScaler should
    // scale in while keeping misses under r_DB.
    println!("\n== end-to-end autoscaled run (demand 1.0 -> 0.3) ==\n");
    let run = tab_autoscaler(preset, 5);
    println!("scaling events:");
    for ev in &run.result.events {
        println!(
            "  t={} {} -> {} nodes (committed t={})",
            ev.decided_at, ev.from_nodes, ev.to_nodes, ev.committed_at
        );
    }
    println!("final members: {}", run.result.final_members);

    if let Some(misses_per_sec) = run.steady_misses_per_sec {
        let r_db = run.r_db;
        println!(
            "steady-state misses/s after scaling: {misses_per_sec:.0} (r_DB = {r_db:.0}/s) -> {}",
            if misses_per_sec <= r_db {
                "within capacity"
            } else if misses_per_sec <= r_db * 1.25 {
                "at the Eq. (1) knee (by design)"
            } else {
                "OVER capacity"
            }
        );
    }
}
