//! **E3 / Fig. 6(a–e)** — Hit rate and 95%ile RT for ElMem vs baseline on
//! all five traces, with the paper's scaling actions:
//!
//! * (a) SYS: 10 → 7
//! * (b) ETC: 10 → 9 and 9 → 10
//! * (c) SAP: 10 → 9 and 9 → 8
//! * (d) NLANR: 8 → 9 and 9 → 8
//! * (e) Microsoft: 10 → 9 and 9 → 8
//!
//! Expected shape: ElMem reduces the average post-scaling p95 degradation
//! by ~88–97% on scale-in and ~81% on scale-out.

use elmem_bench::exp::{degradation_reduction, post_event_window_p95, print_summary_row, Preset};
use elmem_bench::figures::fig6;
use elmem_core::ExperimentResult;
use elmem_util::stats::window_mean;

fn main() {
    let preset = Preset::from_cli();
    println!("== Fig. 6: ElMem vs baseline across all traces ==");
    for (label, panel) in fig6(preset, 1000) {
        let (baseline, elmem) = (&panel.baseline, &panel.elmem);
        println!("\n-- {label} --");
        print_summary_row("baseline", baseline);
        print_summary_row("elmem", elmem);
        let mean_hit = |r: &ExperimentResult| {
            window_mean(&r.timeline, &[(0, u64::MAX)], |p| p.hit_rate).unwrap_or(0.0)
        };
        println!(
            "mean hit rate: baseline {:.3}, elmem {:.3}",
            mean_hit(baseline),
            mean_hit(elmem)
        );
        println!(
            "post-scaling degradation reduction: {:.1}%",
            degradation_reduction(baseline, elmem)
        );
        let wb = post_event_window_p95(baseline, 600);
        let we = post_event_window_p95(elmem, 600);
        println!(
            "10-min post-event windows: baseline {wb:.2} ms, elmem {we:.2} ms ({:.1}% reduction)",
            (wb - we) / wb.max(1e-9) * 100.0
        );
    }
    println!("\n(paper: reductions of 88% SYS, 96% ETC, 90% SAP, 92% NLANR, 97% Microsoft)");
}
