//! Cross-crate integration: the four policies ranked end-to-end, mirroring
//! the orderings of §V-B1 and §V-B4 (ElMem ≺ CacheScale ≺ baseline in
//! post-scaling degradation; ElMem against Naive is a tie at this scale,
//! pinned as one).

use elmem::cluster::ClusterConfig;
use elmem::core::migration::MigrationCosts;
use elmem::core::{run_experiment, ExperimentConfig, FaultPlan, MigrationPolicy, ScaleAction};
use elmem::util::stats::{window_mean, TimelinePoint};
use elmem::util::SimTime;
use elmem::workload::{DemandTrace, Keyspace, WorkloadConfig};

fn config(policy: MigrationPolicy, seed: u64) -> ExperimentConfig {
    ExperimentConfig {
        cluster: ClusterConfig::small_test(),
        workload: WorkloadConfig {
            keyspace: Keyspace::new(30_000, 2),
            zipf_exponent: 1.0,
            items_per_request: 3,
            peak_rate: 250.0,
            trace: DemandTrace::new(vec![1.0; 13], SimTime::from_secs(10)),
        },
        policy,
        autoscaler: None,
        scheduled: vec![(SimTime::from_secs(40), ScaleAction::In { count: 1 })],
        prefill_top_ranks: 15_000,
        costs: MigrationCosts::default(),
        faults: FaultPlan::new(),
        healing: None,
        master: Default::default(),
        seed,
    }
}

/// Mean post-commit miss rate over seconds with traffic.
fn post_miss_rate(timeline: &[TimelinePoint], commit_s: u64) -> f64 {
    1.0 - hit_in_window(timeline, commit_s, u64::MAX)
}

/// Mean post-commit p95 RT.
fn post_p95(timeline: &[TimelinePoint], commit_s: u64) -> f64 {
    window_mean(timeline, &[(commit_s, u64::MAX)], |p| p.p95_ms).unwrap_or(0.0)
}

#[test]
fn elmem_beats_baseline_on_miss_rate_and_tail() {
    let base = run_experiment(config(MigrationPolicy::Baseline, 21));
    let elmem = run_experiment(config(MigrationPolicy::elmem(), 21));
    let cb = base.events[0].committed_at.as_secs();
    let ce = elmem.events[0].committed_at.as_secs();
    assert!(
        post_miss_rate(&elmem.timeline, ce) < post_miss_rate(&base.timeline, cb),
        "miss rate ordering violated"
    );
    assert!(
        post_p95(&elmem.timeline, ce) <= post_p95(&base.timeline, cb),
        "p95 ordering violated"
    );
}

/// Mean hit rate over a window of seconds with traffic.
fn hit_in_window(timeline: &[TimelinePoint], from_s: u64, to_s: u64) -> f64 {
    window_mean(timeline, &[(from_s, to_s)], |p| p.hit_rate).expect("traffic in the window")
}

/// ElMem against Naive against the baseline over a sweep of seeds, on the
/// whole post-commit run and on the ten seconds after the commit, where
/// §V-B4's ordering (ElMem < Naive: Naive imports with fresh stamps and
/// evicts hotter residents) would show first.
///
/// What holds at `small_test` scale, and is asserted: both policies sit far
/// below the baseline's miss rate in nearly every seed. What does not, and
/// is pinned instead: the two are tied. Over seeds 20–43 the mean miss
/// rates read 0.1076 / 0.1067 / 0.1195 (ElMem / Naive / baseline; ElMem
/// ahead in 14 of 24) on the whole run and 0.1003 / 0.1011 / 0.1402 (15 of
/// 24) on the first ten seconds — a difference of ∓0.0009 with a standard
/// error of 0.0007, no ordering. One retired 4 MiB node of four holds too
/// few items for import order to matter (EXPERIMENTS.md E28, DESIGN.md §4);
/// a single-seed `elmem ≤ naive` assertion used to stand here and passed on
/// a margin of 0.0004.
fn assert_elmem_and_naive_tie_far_below_baseline(seeds: std::ops::Range<u64>, tie: f64) {
    // (window length in seconds, how far below the baseline both must be)
    const WINDOWS: [(u64, f64); 2] = [(u64::MAX, 0.004), (10, 0.02)];
    // Per seed and window: [baseline, ElMem, Naive] miss rates.
    let rows: Vec<[[f64; 3]; 2]> = seeds
        .map(|seed| {
            let runs = [
                MigrationPolicy::Baseline,
                MigrationPolicy::elmem(),
                MigrationPolicy::Naive,
            ]
            .map(|policy| run_experiment(config(policy, seed)));
            WINDOWS.map(|(window_s, _)| {
                runs.each_ref().map(|r| {
                    let commit = r.events[0].committed_at.as_secs();
                    1.0 - hit_in_window(&r.timeline, commit, commit.saturating_add(window_s))
                })
            })
        })
        .collect();
    let n = rows.len();
    for (w, (window_s, margin)) in WINDOWS.into_iter().enumerate() {
        let both_below = rows
            .iter()
            .filter(|row| row[w][1].max(row[w][2]) + margin < row[w][0])
            .count();
        assert!(
            both_below >= n - n.div_ceil(12),
            "window {window_s}: ElMem and Naive {margin} below baseline in only {both_below}/{n}"
        );
        let lead = rows.iter().map(|row| row[w][1] - row[w][2]).sum::<f64>() / n as f64;
        assert!(
            lead.abs() <= tie,
            "window {window_s}: mean ElMem − Naive miss rate {lead:+.4} is outside ±{tie}: \
             if ElMem now leads, assert the paper's ordering here instead of a tie"
        );
    }
}

#[test]
fn elmem_and_naive_tie_far_below_baseline() {
    // Eight seeds: the mean of eight differences has √3 the spread of 24.
    assert_elmem_and_naive_tie_far_below_baseline(20..28, 0.0035);
}

#[test]
#[ignore = "24 seeds x 3 policies: the tier-1 test three times over; CI runs it nightly"]
fn elmem_and_naive_tie_far_below_baseline_over_24_seeds() {
    assert_elmem_and_naive_tie_far_below_baseline(20..44, 0.002);
}

#[test]
fn cachescale_beats_baseline_but_not_elmem() {
    // Short discard window so the secondary cache is dropped well inside
    // the run (the paper discards after ~2 min; our run is ~2 min total, so
    // the window scales down with everything else).
    let window_s = 20u64;
    let cachescale = MigrationPolicy::CacheScale {
        window: SimTime::from_secs(window_s),
    };
    let base = run_experiment(config(MigrationPolicy::Baseline, 23));
    let cs = run_experiment(config(cachescale, 23));
    let elmem = run_experiment(config(MigrationPolicy::elmem(), 23));
    let decided = base.events[0].decided_at.as_secs();

    // While the secondary is alive, CacheScale avoids the baseline's
    // transient (its retries hit the retiring node).
    let transient_base = hit_in_window(&base.timeline, decided, decided + window_s);
    let transient_cs = hit_in_window(&cs.timeline, decided, decided + window_s);
    assert!(
        transient_cs > transient_base,
        "cachescale transient {transient_cs} should beat baseline {transient_base}"
    );

    // After the discard, items CacheScale's request-driven promotion never
    // touched are lost; ElMem migrated them, so it hits more (§V-B4: the
    // promotion "is dictated by the request rate and thus may be limited").
    let discard = decided + window_s;
    let post_cs = hit_in_window(&cs.timeline, discard, discard + 25);
    let post_elmem = hit_in_window(&elmem.timeline, discard, discard + 25);
    assert!(
        post_elmem > post_cs,
        "post-discard: elmem {post_elmem} should beat cachescale {post_cs}"
    );
}

#[test]
fn all_policies_converge_to_target_membership() {
    for (policy, seed) in [
        (MigrationPolicy::Baseline, 31),
        (MigrationPolicy::elmem(), 32),
        (MigrationPolicy::Naive, 33),
        (MigrationPolicy::cachescale(), 34),
    ] {
        let result = run_experiment(config(policy, seed));
        assert_eq!(result.final_members, 3, "policy {policy}");
        assert_eq!(result.events.len(), 1, "policy {policy}");
    }
}
