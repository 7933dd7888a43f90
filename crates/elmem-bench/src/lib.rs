//! Experiment harness shared by the `fig*`/`tab*` binaries that regenerate
//! every table and figure of the paper (see DESIGN.md §4 for the index and
//! EXPERIMENTS.md for recorded results).
//!
//! [`figures`] holds one function per figure or table; each binary parses
//! its arguments and prints what its function returns. The functions run
//! their cells on `ELMEM_JOBS` workers (default: all cores), and what they
//! return is byte-identical to a serial run.

pub mod exp;
pub mod figures;
#[cfg(test)]
/// The sweep every figure function runs its cells through:
/// `par_map_indexed(par_jobs(), ..)`, with the worker count resolved from
/// `ELMEM_JOBS` (pinned here with `with_par_jobs`). Results come back in
/// cell order, each with its own index, whatever that count is.
mod sweep {
    mod tests {
        use elmem_util::par::{par_jobs, par_map_indexed, with_par_jobs};
        use elmem_util::DetRng;

        /// Runs `run` over `cells` exactly as the figures do, at `jobs`
        /// workers. A sibling test may pin another count meanwhile; that
        /// changes only the scheduling, never the returned vector.
        fn sweep<T, R, F>(jobs: usize, cells: &[T], run: F) -> Vec<R>
        where
            T: Sync,
            R: Send,
            F: Fn(usize, &T) -> R + Sync,
        {
            with_par_jobs(jobs, || par_map_indexed(par_jobs(), cells, run))
        }

        /// A deterministic per-cell computation heavy enough that parallel
        /// scheduling would scramble any order-dependent collection.
        fn cell_value(seed: u64) -> u64 {
            let mut rng = DetRng::seed(seed);
            (0..10_000).fold(0u64, |acc, _| acc.wrapping_add(rng.next_below(u64::MAX)))
        }

        #[test]
        fn parallel_matches_serial_in_order() {
            let cells: Vec<u64> = (0..32).collect();
            let serial = sweep(1, &cells, |_, &s| cell_value(s));
            for jobs in [2, 3, 8] {
                let parallel = sweep(jobs, &cells, |_, &s| cell_value(s));
                assert_eq!(serial, parallel, "jobs={jobs} must match serial");
            }
        }

        #[test]
        fn run_gets_matching_index() {
            let cells: Vec<u64> = (100..120).collect();
            let out = sweep(4, &cells, |i, &c| (i, c));
            for (i, (idx, c)) in out.iter().enumerate() {
                assert_eq!(*idx, i);
                assert_eq!(*c, cells[i]);
            }
        }

        #[test]
        fn empty_and_single_cells() {
            let out: Vec<u64> = sweep(8, &[], |_, &c: &u64| c);
            assert!(out.is_empty());
            let out = sweep(8, &[9u64], |_, &c| c * 2);
            assert_eq!(out, vec![18]);
        }
    }
}
