//! **E5+E10 / Fig. 7** — Choice of which node to scale in (§III-C, §V-B3).
//!
//! Warms a 10-node tier, scores every node by the weighted-median formula,
//! then — for each candidate — measures how many items a 10 → 9 scale-in
//! would migrate if *that* node were retired. Expected shape: nodes sorted
//! by median-hotness score have monotonically growing migration volume;
//! the coldest-median choice moves ~36% fewer items than a random pick and
//! ~45% fewer than the worst pick (paper: 3.97 M best vs 6.23 M random avg
//! vs 7.4 M worst).

use elmem_bench::exp::Preset;
use elmem_bench::figures::fig7;

fn main() {
    let preset = Preset::from_cli();
    let nodes = preset.scale_nodes(10);
    println!(
        "== Fig. 7: node choice for scaling ({nodes} -> {}) ==\n",
        nodes - 1
    );
    // The warm-up prefills the hottest ranks, then serves 600 s of traffic
    // so per-node recency actually differs.
    let fig = fig7(preset, 77);
    println!("warmed with {} requests\n", fig.served);

    println!(
        "{:>5} {:>14} {:>16} {:>14}",
        "rank", "node", "median score", "items migrated"
    );
    for (rank, (id, score, items)) in fig.candidates.iter().enumerate() {
        println!(
            "{:>5} {:>14} {:>16.4} {:>14}",
            rank + 1,
            id.to_string(),
            score,
            items
        );
    }

    let migrated: Vec<u64> = fig.candidates.iter().map(|c| c.2).collect();
    let fewest = *migrated.iter().min().expect("a tier has members");
    let best = migrated[0] as f64;
    let avg = migrated.iter().sum::<u64>() as f64 / migrated.len() as f64;
    let worst = *migrated.iter().max().expect("a tier has members") as f64;
    println!(
        "\ncoldest-median choice: {best:.0} items; random average: {avg:.0} (+{:.0}%); worst: {worst:.0} (+{:.0}%)",
        (avg / best - 1.0) * 100.0,
        (worst / best - 1.0) * 100.0
    );
    println!("(paper: 3.97M best, 6.23M random (+57%), 7.4M worst (+86%))");

    // E10: is the scored choice actually optimal (fewest items migrated)?
    let optimal = migrated[0] == fewest;
    println!(
        "median scoring picked the optimal node: {}",
        if optimal { "yes" } else { "no (near-optimal)" }
    );
}
