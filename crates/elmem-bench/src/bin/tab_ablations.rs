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

use elmem_bench::exp::{print_summary_row, Preset};
use elmem_bench::figures::{
    ablate_cachescale_window, ablate_import_mode, ablate_predictive, ablate_vnodes,
};

fn main() {
    let preset = Preset::from_cli();
    let nodes = preset.scale_nodes(10);

    println!(
        "== Ablation 1: batch-import mode (ETC, {nodes} -> {}) ==\n",
        nodes - 1
    );
    for (label, result) in ablate_import_mode(preset, 411) {
        print_summary_row(label, &result);
    }
    println!(
        "(FuseCache guarantees migrated items are hotter than evicted ones,\n so both modes keep the same item set; Merge additionally preserves\n the sorted-list invariant that later FuseCache runs rely on)\n"
    );

    println!(
        "== Ablation 2: CacheScale discard window (SYS, {nodes} -> {}) ==\n",
        nodes - 3
    );
    for (window_s, result) in ablate_cachescale_window(preset, 412) {
        print_summary_row(&format!("window={window_s}s"), &result);
    }
    println!(
        "(longer windows promote more items before the discard but keep the\n retiring nodes powered longer — the elasticity savings erode)\n"
    );

    println!("== Ablation 3: ring vnodes vs node-choice spread ==\n");
    println!(
        "{:>7} {:>16} {:>16} {:>10}",
        "vnodes", "coldest (items)", "worst (items)", "spread"
    );
    for (vnodes, coldest, worst) in ablate_vnodes(preset, 413) {
        println!(
            "{vnodes:>7} {coldest:>16} {worst:>16} {:>9.0}%",
            (worst as f64 / coldest as f64 - 1.0) * 100.0
        );
    }
    println!(
        "(fewer vnodes -> more per-node imbalance -> bigger payoff from the\n SS III-C scoring; the paper's testbed behaved like a low-vnode ring)\n"
    );

    println!("== Ablation 4: reactive vs predictive Q1 on a demand ramp ==\n");
    println!(
        "{:>6} {:>10} {:>10} {:>12} {:>12}",
        "epoch", "rate", "forecast", "reactive", "predictive"
    );
    for e in ablate_predictive(414) {
        println!(
            "{:>6} {:>10.0} {:>10.0} {:>12} {:>12}",
            e.epoch, e.rate, e.forecast, e.reactive_nodes, e.predictive_nodes
        );
    }
    println!("\n(the forecaster sizes for the *predicted* rate, so its node count\n leads the reactive one on the ramp — capacity plus its hot data are\n ready when demand arrives, absorbing the ~2 min migration overhead)");
}
