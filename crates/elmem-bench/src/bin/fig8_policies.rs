//! **E6 / Fig. 8** — Comparing ElMem's migration with Naive and CacheScale
//! (§V-B4) on the SYS trace's 10 → 7 scale-in.
//!
//! Expected shape: ElMem's tail RT recovers within its ~migration overhead;
//! Naive and CacheScale keep degrading well past the scaling event. Paper:
//! ~70% tail-RT reduction vs Naive and ~64% vs CacheScale.

use elmem_bench::exp::{degradation_reduction, print_summary_row, print_timeline, Preset};
use elmem_bench::figures::fig8;
use elmem_core::ExperimentResult;
use elmem_util::stats::window_mean;

fn main() {
    let preset = Preset::from_cli();
    let nodes = preset.scale_nodes(10);
    println!(
        "== Fig. 8: ElMem vs Naive vs CacheScale (SYS, {nodes} -> {}) ==\n",
        nodes - 3
    );
    let fig = fig8(preset, 88);
    let (elmem, naive, cachescale) = (&fig.elmem, &fig.naive, &fig.cachescale);

    print_summary_row("elmem", elmem);
    print_summary_row("naive", naive);
    print_summary_row("cachescale", cachescale);
    print_summary_row("baseline", &fig.baseline);

    println!(
        "\nelmem tail-RT reduction vs naive:      {:.1}%  (paper ~70%)",
        degradation_reduction(naive, elmem)
    );
    println!(
        "elmem tail-RT reduction vs cachescale: {:.1}%  (paper ~64%)",
        degradation_reduction(cachescale, elmem)
    );
    println!(
        "elmem tail-RT reduction vs baseline:   {:.1}%",
        degradation_reduction(&fig.baseline, elmem)
    );

    // The paper's Fig. 8 zooms into the minutes right after the scaling
    // decision; report the mean p95 over that window too.
    let focus = |r: &ExperimentResult| {
        let s0 = r.events[0].decided_at.as_secs();
        window_mean(&r.timeline, &[(s0, s0 + 300)], |p| p.p95_ms).unwrap_or(0.0)
    };
    println!("\nmean p95 over the first 5 post-scaling minutes:");
    println!("  elmem      {:>9.2} ms", focus(elmem));
    println!("  naive      {:>9.2} ms", focus(naive));
    println!("  cachescale {:>9.2} ms", focus(cachescale));
    println!("  baseline   {:>9.2} ms", focus(&fig.baseline));

    println!();
    print_timeline("elmem", &elmem.timeline, 60);
    println!();
    print_timeline("naive", &naive.timeline, 60);
    println!();
    print_timeline("cachescale", &cachescale.timeline, 60);
}
