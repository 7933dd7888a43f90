//! **E4 / §V-B2** — FuseCache/migration overhead breakdown.
//!
//! Runs a real 10 → 9 migration at laptop scale and prints each phase's
//! modeled time, then extrapolates each phase to the paper's scale (≈4 M
//! items migrated) using the linear cost model. Paper breakdown: scoring
//! ≈20 s, hash+dump ≈50 s, metadata transfer ≈70 s, FuseCache <2 s, data
//! migration ≈45 s, import ≈80 s — about 2 minutes end to end.

use elmem_bench::exp::Preset;
use elmem_bench::figures::tab_overhead;
use elmem_util::SimTime;

fn main() {
    let preset = Preset::from_cli();
    println!("== Tab (SS V-B2): migration overhead breakdown ==\n");
    let report = tab_overhead(preset, 99);

    let p = &report.phases;
    println!("phase                 modeled time   (paper @10x scale)");
    let scale = 4_000_000.0 / report.items_migrated.max(1) as f64;
    let row = |name: &str, t: SimTime, paper: &str| {
        println!(
            "{name:<20} {:>12}   ({paper}; extrapolated {:>8.1}s)",
            t.to_string(),
            t.as_secs_f64() * scale
        );
    };
    row("node scoring", p.scoring, "~20s");
    row("hash + dump", p.dump, "~50s");
    row("metadata transfer", p.metadata_transfer, "~70s");
    row("FuseCache", p.fusecache, "<2s");
    row("data migration", p.data_transfer, "~45s");
    row("batch import", p.import, "~80s");
    println!(
        "{:<20} {:>12}   (paper ~2min)",
        "TOTAL",
        p.total().to_string()
    );
    println!();
    println!(
        "items considered: {}   items migrated: {}   data bytes: {}   metadata bytes: {}",
        report.items_considered,
        report.items_migrated,
        report.bytes_migrated,
        report.metadata_bytes
    );
}
