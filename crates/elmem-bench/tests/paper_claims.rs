//! The paper's claims asserted on the laptop preset from the same functions
//! the `fig*` binaries print, each over a sweep of seeds and never one.
//! Every band is stated from what the sweep reads.
//!
//! `#[ignore]`d — about a minute and a half in release; CI runs it nightly:
//!
//! ```text
//! cargo test --release -p elmem-bench --test paper_claims -- --ignored
//! ```

use elmem_bench::exp::{degradation_reduction, Preset};
use elmem_bench::figures::{fig2, fig7};

/// Fig. 7 / E10: the coldest-scored member is the cheapest to retire.
///
/// Over seeds 77–88 the first pick migrates the fewest items in 9 of 12
/// (seed 77, the binary's, is one of them). Each tier has one member far
/// cheaper than the rest (≈ 83 k items against 100–111 k). In seeds 82, 87
/// and 88 the scoring ranks that member among its hottest, and the first
/// pick moves 21–26 % more than it. The paper reports the scoring's pick as
/// optimal; at this scale it is optimal in three seeds of four.
#[test]
#[ignore = "12 warm-ups and 120 trial migrations: run in release (nightly CI)"]
fn the_first_pick_migrates_the_fewest_items_in_three_seeds_of_four() {
    let seeds: Vec<u64> = (77..89).collect();
    let mut optimal = 0;
    for &seed in &seeds {
        let items: Vec<u64> = fig7(Preset::Laptop, seed)
            .candidates
            .iter()
            .map(|&(_, _, items)| items)
            .collect();
        let fewest = *items.iter().min().expect("ten candidates");
        optimal += usize::from(items[0] == fewest);
        let excess = items[0] as f64 / fewest as f64 - 1.0;
        assert!(
            excess <= 0.30,
            "seed {seed}: the first pick moves {:.1}% more than the cheapest (sweep reads ≤ 26.4%)",
            excess * 100.0
        );
    }
    assert!(
        optimal >= 9,
        "the first pick is the cheapest in {optimal} of {} seeds (sweep reads 9)",
        seeds.len()
    );
}

/// Fig. 2 / E1: ElMem's reduction of the mean post-scaling p95 against the
/// baseline. Over seeds 42–49 it reads 85.9–87.3 % (seed 42, the binary's:
/// 86.7 %), mean 86.5 %, below the paper's 88–96 %.
#[test]
#[ignore = "16 hour-long runs: run in release (nightly CI)"]
fn elmem_cuts_the_post_scaling_p95_by_about_86_percent() {
    let reductions: Vec<f64> = (42..50)
        .map(|seed| {
            let fig = fig2(Preset::Laptop, seed);
            degradation_reduction(&fig.baseline, &fig.elmem)
        })
        .collect();
    for (seed, r) in (42..).zip(&reductions) {
        assert!(
            *r >= 85.0,
            "seed {seed}: reduction {r:.2}% (sweep reads ≥ 85.94%)"
        );
    }
    let mean = reductions.iter().sum::<f64>() / reductions.len() as f64;
    assert!(
        (86.0..=87.0).contains(&mean),
        "mean reduction {mean:.2}% over seeds 42-49 (sweep reads 86.52%)"
    );
}
