//! The FuseCache algorithm (§IV) and its comparison baselines.
//!
//! **Problem.** Given `k` lists of item hotnesses, each sorted hottest-first
//! (the per-slab MRU dumps of the retained node and the metadata shipped by
//! retiring nodes), pick how many items to take from the top of each list so
//! that together they are the `n` globally hottest items.
//!
//! **FuseCache** solves this in `O(k·(log n)²)` by recursive
//! median-of-medians: each round computes the median of the active window of
//! every list, takes the median-of-medians (MOM), counts via binary search
//! how many items are strictly hotter than the MOM (`countX`), and then
//! either discards everything at-or-colder than the MOM (`countX > n`) or
//! commits the entire hotter-than-MOM set (`countX ≤ n`). The paper shows
//! the theoretical lower bound is `O(k·log n)`, a single `log n` factor
//! away.
//!
//! The baselines it beats (§IV): flatten-and-sort `O(N log N)` and k-way
//! heap merge `O(n log k)`.

use std::collections::BinaryHeap;

use elmem_store::Hotness;

/// Instrumentation counters from a FuseCache run (for the complexity
/// experiment E7).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SelectionStats {
    /// Median-of-medians rounds executed.
    pub rounds: u64,
    /// The cost model's comparison count, not a tally of `Hotness`
    /// comparisons made: each round adds `m·max(log₂m, 1)` for sorting its
    /// `m` medians and `⌈log₂ w⌉ + 1` for each binary search over a window
    /// of `w` items. The migration prices the FuseCache phase from it.
    pub comparisons: u64,
}

/// Selects the `n` hottest items across `k` hottest-first sorted lists.
///
/// Returns `to_pick[i]`: how many items to take from the front of list `i`;
/// the counts sum to `min(n, total_items)`.
///
/// # Panics
///
/// Panics in debug builds if any list is not sorted hottest-first.
///
/// # Example
///
/// ```
/// use elmem_core::fusecache::fusecache;
/// use elmem_store::Hotness;
/// use elmem_util::{KeyId, SimTime};
///
/// let h = |s: u64, k: u64| Hotness::new(SimTime::from_secs(s), KeyId(k));
/// let a = vec![h(10, 0), h(4, 1)];
/// let b = vec![h(7, 2), h(6, 3), h(5, 4)];
/// assert_eq!(fusecache(&[&a, &b], 4), vec![1, 3]);
/// ```
pub fn fusecache(lists: &[&[Hotness]], n: usize) -> Vec<usize> {
    fusecache_instrumented(lists, n).0
}

/// [`fusecache`] with instrumentation counters.
pub fn fusecache_instrumented(lists: &[&[Hotness]], n: usize) -> (Vec<usize>, SelectionStats) {
    let k = lists.len();
    let mut stats = SelectionStats::default();
    let mut picks = vec![0usize; k];
    if k == 0 || n == 0 {
        return (picks, stats);
    }
    #[cfg(debug_assertions)]
    for list in lists {
        debug_assert!(
            list.windows(2).all(|w| w[0] >= w[1]),
            "FuseCache input list not sorted hottest-first"
        );
    }

    let total: usize = lists.iter().map(|l| l.len()).sum();
    let mut remaining = n.min(total);
    // Active windows: [start, end) per list; items before `start` are
    // committed to the answer, items at/after `end` are discarded.
    let mut start = vec![0usize; k];
    let mut end: Vec<usize> = lists.iter().map(|l| l.len()).collect();

    // Scratch buffers reused across rounds: a selection runs O(log N)
    // rounds, and reallocating the per-round medians and insertion-point
    // vectors each time dominated the (otherwise tiny) round cost.
    let mut medians: Vec<Hotness> = Vec::with_capacity(k);
    let mut ins = vec![0usize; k];
    while remaining > 0 {
        // Medians of nonempty windows.
        medians.clear();
        for i in 0..k {
            if start[i] < end[i] {
                medians.push(lists[i][(start[i] + end[i]) / 2]);
            }
        }
        debug_assert!(
            !medians.is_empty(),
            "windows exhausted with {remaining} still to pick"
        );
        stats.rounds += 1;
        stats.comparisons += (medians.len() as f64 * (medians.len() as f64).log2().max(1.0)) as u64;
        medians.sort_unstable_by_key(|h| std::cmp::Reverse(*h));
        let mom = medians[medians.len() / 2];

        // Insertion points: count of window items strictly hotter than MOM.
        let mut count_x = 0usize;
        for i in 0..k {
            let window = &lists[i][start[i]..end[i]];
            // Hottest-first: strictly-hotter items form a prefix.
            let p = window.partition_point(|h| *h > mom);
            stats.comparisons += (window.len().max(1) as f64).log2().ceil() as u64 + 1;
            ins[i] = p;
            count_x += p;
        }

        if count_x > remaining {
            // The answer lies inside X: discard everything at/colder than
            // the MOM. Strictly shrinks the windows (MOM itself goes).
            for i in 0..k {
                end[i] = start[i] + ins[i];
            }
        } else {
            // Commit all of X.
            for i in 0..k {
                picks[i] += ins[i];
                start[i] += ins[i];
            }
            remaining -= count_x;
            if count_x == 0 {
                // MOM is the hottest remaining item; commit it directly to
                // guarantee progress (it sits at the front of its window).
                let j = (0..k)
                    .find(|&i| start[i] < end[i] && lists[i][start[i]] == mom)
                    .expect("MOM fronts one window when countX is 0");
                picks[j] += 1;
                start[j] += 1;
                remaining -= 1;
            }
        }
    }
    (picks, stats)
}

/// Baseline: flatten all lists, sort descending, take the top `n`
/// (`O(N log N)`, §IV's "naive way").
pub fn sort_merge_top_n(lists: &[&[Hotness]], n: usize) -> Vec<usize> {
    let mut all: Vec<(Hotness, usize)> = Vec::new();
    for (i, list) in lists.iter().enumerate() {
        all.extend(list.iter().map(|&h| (h, i)));
    }
    all.sort_unstable_by_key(|&(h, _)| std::cmp::Reverse(h));
    let mut picks = vec![0usize; lists.len()];
    for &(_, i) in all.iter().take(n) {
        picks[i] += 1;
    }
    picks
}

/// Baseline: k-way merge with a heap, popping the hottest `n` times
/// (`O(n log k)`, §IV's "arguably better algorithm").
pub fn kway_top_n(lists: &[&[Hotness]], n: usize) -> Vec<usize> {
    let mut picks = vec![0usize; lists.len()];
    let mut heap: BinaryHeap<(Hotness, usize)> = lists
        .iter()
        .enumerate()
        .filter(|(_, l)| !l.is_empty())
        .map(|(i, l)| (l[0], i))
        .collect();
    let mut taken = 0usize;
    while taken < n {
        let Some((_, i)) = heap.pop() else { break };
        picks[i] += 1;
        taken += 1;
        let next_idx = picks[i];
        if next_idx < lists[i].len() {
            heap.push((lists[i][next_idx], i));
        }
    }
    picks
}

#[cfg(test)]
mod tests {
    use super::*;
    use elmem_util::{DetRng, KeyId, SimTime};

    fn h(s: u64, k: u64) -> Hotness {
        Hotness::new(SimTime::from_nanos(s), KeyId(k))
    }

    /// Builds `k` random sorted lists with unique tie-breaks.
    fn random_lists(rng: &mut DetRng, k: usize, max_len: usize) -> Vec<Vec<Hotness>> {
        let mut key = 0u64;
        (0..k)
            .map(|_| {
                let len = rng.next_below(max_len as u64 + 1) as usize;
                let mut l: Vec<Hotness> = (0..len)
                    .map(|_| {
                        key += 1;
                        h(rng.next_below(1000), key)
                    })
                    .collect();
                l.sort_unstable_by(|a, b| b.cmp(a));
                l
            })
            .collect()
    }

    fn as_refs(lists: &[Vec<Hotness>]) -> Vec<&[Hotness]> {
        lists.iter().map(|l| l.as_slice()).collect()
    }

    /// The canonical correctness check: picks must select exactly the
    /// multiset of the n hottest items.
    fn check_optimal(lists: &[Vec<Hotness>], picks: &[usize], n: usize) {
        let refs = as_refs(lists);
        let expected = sort_merge_top_n(&refs, n);
        // Compare the *hotness multisets*, not the counts: with a total
        // order they coincide, so counts must match.
        assert_eq!(picks, expected.as_slice());
    }

    #[test]
    fn simple_two_lists() {
        let a = vec![h(9, 1), h(5, 2), h(1, 3)];
        let b = vec![h(8, 4), h(2, 5)];
        assert_eq!(fusecache(&[&a, &b], 3), vec![2, 1]);
    }

    #[test]
    fn instrumentation_counters_are_stable() {
        // Pins SelectionStats on a fixed input: the scratch-buffer reuse in
        // the round loop must not change the rounds/comparisons arithmetic.
        let mut rng = DetRng::seed(99);
        let lists = random_lists(&mut rng, 8, 200);
        let refs = as_refs(&lists);
        let total: usize = lists.iter().map(|l| l.len()).sum();
        let n = total / 3;
        let (picks, stats) = fusecache_instrumented(&refs, n);
        check_optimal(&lists, &picks, n);
        let (picks2, stats2) = fusecache_instrumented(&refs, n);
        assert_eq!(picks, picks2);
        assert_eq!(stats.rounds, stats2.rounds);
        assert_eq!(stats.comparisons, stats2.comparisons);
        // O(k log^2 N) regime, not the O(N log N) of sort-merge.
        assert!(stats.rounds > 0);
        assert!(
            (stats.comparisons as usize) < total,
            "comparisons {} should undercut total items {total}",
            stats.comparisons
        );
    }

    #[test]
    fn n_zero_picks_nothing() {
        let a = vec![h(1, 1)];
        assert_eq!(fusecache(&[&a], 0), vec![0]);
    }

    #[test]
    fn n_exceeding_total_takes_all() {
        let a = vec![h(3, 1), h(2, 2)];
        let b = vec![h(1, 3)];
        assert_eq!(fusecache(&[&a, &b], 100), vec![2, 1]);
    }

    #[test]
    fn empty_lists_ok() {
        let a: Vec<Hotness> = vec![];
        let b = vec![h(5, 1)];
        assert_eq!(fusecache(&[&a, &b], 1), vec![0, 1]);
        assert_eq!(fusecache(&[], 5), Vec::<usize>::new());
    }

    #[test]
    fn single_list_takes_prefix() {
        let a: Vec<Hotness> = (0..100).map(|i| h(1000 - i, i)).collect();
        assert_eq!(fusecache(&[&a], 37), vec![37]);
    }

    #[test]
    fn all_items_in_one_hot_list() {
        let a: Vec<Hotness> = (0..50).map(|i| h(10_000 - i, i)).collect();
        let b: Vec<Hotness> = (0..50).map(|i| h(100 - i, 1000 + i)).collect();
        assert_eq!(fusecache(&[&a, &b], 50), vec![50, 0]);
    }

    #[test]
    fn interleaved_lists() {
        // a = 10, 8, 6, ...; b = 9, 7, 5, ...
        let a: Vec<Hotness> = (0..50).map(|i| h(1000 - 2 * i, i)).collect();
        let b: Vec<Hotness> = (0..50).map(|i| h(999 - 2 * i, 100 + i)).collect();
        assert_eq!(fusecache(&[&a, &b], 10), vec![5, 5]);
    }

    #[test]
    fn agrees_with_baselines_randomized() {
        let mut rng = DetRng::seed(42);
        for trial in 0..200 {
            let k = 1 + rng.next_below(8) as usize;
            let lists = random_lists(&mut rng, k, 60);
            let total: usize = lists.iter().map(|l| l.len()).sum();
            let n = rng.next_below(total as u64 + 2) as usize;
            let refs = as_refs(&lists);
            let fc = fusecache(&refs, n);
            let km = kway_top_n(&refs, n);
            assert_eq!(fc, km, "trial {trial}: fusecache != kway (n={n})");
            check_optimal(&lists, &fc, n);
            assert_eq!(fc.iter().sum::<usize>(), n.min(total));
        }
    }

    #[test]
    fn large_skewed_instance() {
        // One big retained list (n items) + small incoming lists, the
        // paper's actual shape: s_i < n for i < k.
        let mut rng = DetRng::seed(7);
        let mut key = 0u64;
        let mut mk = |len: usize| -> Vec<Hotness> {
            let mut l: Vec<Hotness> = (0..len)
                .map(|_| {
                    key += 1;
                    h(rng.next_below(1_000_000), key)
                })
                .collect();
            l.sort_unstable_by(|a, b| b.cmp(a));
            l
        };
        let retained = mk(10_000);
        let in1 = mk(900);
        let in2 = mk(1_200);
        let in3 = mk(400);
        let lists = vec![retained, in1, in2, in3];
        let refs = as_refs(&lists);
        let n = 10_000;
        let fc = fusecache(&refs, n);
        assert_eq!(fc, sort_merge_top_n(&refs, n));
        assert_eq!(fc.iter().sum::<usize>(), n);
    }

    /// E7's inputs: `k` lists of `n_per_list` random stamps below 2⁴⁰, keys
    /// numbered across the lists.
    fn make_lists(k: usize, n_per_list: usize, seed: u64) -> Vec<Vec<Hotness>> {
        let mut rng = DetRng::seed(seed);
        let mut key = 0u64;
        (0..k)
            .map(|_| {
                let mut l: Vec<Hotness> = (0..n_per_list)
                    .map(|_| {
                        key += 1;
                        h(rng.next_below(1 << 40), key)
                    })
                    .collect();
                l.sort_unstable_by(|a, b| b.cmp(a));
                l
            })
            .collect()
    }

    /// Runs FuseCache, checks its picks against the sort, and checks §IV-B's
    /// `O(k·log²n)` as `comparisons ≤ 2·k·log₂²(max(n, 2))`. The factor 2
    /// is needed: k = 8, n = 1 000 reads 799 against k·log₂²n = 795.
    fn counted(lists: &[Vec<Hotness>], n: usize) -> SelectionStats {
        let refs = as_refs(lists);
        let (picks, stats) = fusecache_instrumented(&refs, n);
        assert_eq!(picks, sort_merge_top_n(&refs, n));
        let log = (n.max(2) as f64).log2();
        let bound = 2.0 * lists.len() as f64 * log * log;
        assert!(
            stats.comparisons as f64 <= bound,
            "k {} n {n}: {} comparisons over the bound {bound:.0}",
            lists.len(),
            stats.comparisons
        );
        stats
    }

    #[test]
    fn instrumented_rounds_scale_logarithmically() {
        let mut key = 0u64;
        let mk = |len: usize, key: &mut u64| -> Vec<Hotness> {
            let l: Vec<Hotness> = (0..len)
                .map(|i| {
                    *key += 1;
                    h((len - i) as u64, *key)
                })
                .collect();
            l
        };
        let small: Vec<Vec<Hotness>> = (0..4).map(|_| mk(1 << 8, &mut key)).collect();
        let large: Vec<Vec<Hotness>> = (0..4).map(|_| mk(1 << 14, &mut key)).collect();
        let s_small = counted(&small, 1 << 8);
        let s_large = counted(&large, 1 << 14);
        // 64x more items should cost far fewer than 64x the rounds.
        assert!(
            s_large.rounds < s_small.rounds * 8,
            "rounds {} vs {}",
            s_large.rounds,
            s_small.rounds
        );

        // E7's seven shapes, pinned as (rounds, comparisons): k = 8 taking
        // all of n per list, then 20 k items taking 10 k as k grows.
        for (k, per_list, n, seed, pinned) in [
            (8, 1_000, 1_000, 42, (12, 799)),
            (8, 10_000, 10_000, 42, (16, 1_290)),
            (8, 100_000, 100_000, 42, (19, 1_792)),
            (2, 10_000, 10_000, 7, (14, 267)),
            (8, 2_500, 10_000, 7, (12, 994)),
            (32, 625, 10_000, 7, (15, 3_738)),
            (128, 156, 10_000, 7, (14, 13_160)),
        ] {
            let stats = counted(&make_lists(k, per_list, seed), n);
            assert_eq!((stats.rounds, stats.comparisons), pinned, "k {k} n {n}");
        }

        // ROADMAP 7(b)'s adversarial inputs stay within the same bound:
        // equal stamps, k = 1, n = 0, n > total, and empty lists among full
        // ones.
        let mut tied = make_lists(4, 50, 1);
        for list in &mut tied {
            list.iter_mut().for_each(|item| item.ts = 5);
            list.sort_unstable_by(|a, b| b.cmp(a));
        }
        let one = make_lists(1, 500, 3);
        let mut gaps = make_lists(6, 200, 5);
        gaps[1].clear();
        gaps[4].clear();
        for (lists, n) in [
            (&tied, 120),
            (&one, 300),
            (&one, 0),
            (&one, 501),
            (&gaps, 500),
        ] {
            counted(lists, n);
        }
    }

    #[test]
    fn kway_handles_short_lists() {
        let a = vec![h(5, 1)];
        let b = vec![h(9, 2), h(8, 3), h(7, 4)];
        assert_eq!(kway_top_n(&[&a, &b], 3), vec![0, 3]);
        assert_eq!(kway_top_n(&[&a, &b], 10), vec![1, 3]);
    }

    #[test]
    fn sort_merge_ties_broken_consistently() {
        // Identical timestamps, distinct keys: tiebreak decides, and all
        // three algorithms agree because the order is total.
        let mut a = vec![h(5, 1), h(5, 2)];
        let mut b = vec![h(5, 3), h(5, 4)];
        a.sort_unstable_by(|x, y| y.cmp(x));
        b.sort_unstable_by(|x, y| y.cmp(x));
        let refs: Vec<&[Hotness]> = vec![&a, &b];
        let n = 2;
        assert_eq!(fusecache(&refs, n), sort_merge_top_n(&refs, n));
        assert_eq!(fusecache(&refs, n), kway_top_n(&refs, n));
    }
}
