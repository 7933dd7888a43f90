//! **E1 / Fig. 2** — Post-scaling performance degradation for Memcached.
//!
//! The paper's Fig. 2: scaling in under the Facebook ETC trace, baseline
//! (immediate scale-in, cold cache) vs ElMem (FuseCache migration first).
//! Expected shape: baseline p95 spikes by an order of magnitude and takes
//! tens of minutes to restore; ElMem's peak is ~an order of magnitude lower
//! and restoration takes about the migration overhead (~2 min at paper
//! scale).

use elmem_bench::exp::{degradation_reduction, print_summary_row, print_timeline, Preset};
use elmem_bench::figures::fig2;

fn main() {
    let preset = Preset::from_cli();
    let nodes = preset.scale_nodes(10);
    println!(
        "== Fig. 2: post-scaling degradation (ETC, {nodes} -> {} nodes) ==\n",
        nodes - 1
    );
    let fig = fig2(preset, 42);
    let (baseline, elmem) = (&fig.baseline, &fig.elmem);

    print_timeline("baseline", &baseline.timeline, 30);
    println!();
    print_timeline("elmem", &elmem.timeline, 30);
    println!();
    print_summary_row("baseline", baseline);
    print_summary_row("elmem", elmem);
    println!(
        "\npost-scaling degradation reduction (mean p95): {:.1}%  (paper: ~88-96%)",
        degradation_reduction(baseline, elmem)
    );
    if let Some(ev) = elmem.events.first() {
        println!(
            "elmem migration overhead: {} (decided {} -> committed {})",
            ev.committed_at - ev.decided_at,
            ev.decided_at,
            ev.committed_at
        );
    }
}
