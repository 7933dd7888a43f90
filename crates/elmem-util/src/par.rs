//! Deterministic indexed parallel map — the one concurrency primitive the
//! workspace uses.
//!
//! [`par_map_indexed`] runs a pure function over a slice on up to `jobs`
//! worker threads and returns the results **in input order**: workers pull
//! indices off a shared atomic cursor (so scheduling is nondeterministic),
//! but results are collected keyed by index and reassembled afterwards on
//! one thread. When every call is a pure function of `(index, item)`, the
//! returned vector — and anything formatted from it — is byte-identical
//! whatever `jobs` is. `jobs <= 1` (or a single item) takes a plain serial
//! path with no threads at all: the reference the determinism tests
//! compare against.
//!
//! Both the paper's figures (`elmem-bench::figures`) and the migration
//! planner (`elmem-core::migration`) are built on this, and
//! [`par_jobs`] is the one worker-count knob every library-internal
//! fan-out — the planner's included — resolves through.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Worker count used by library-internal fan-outs (prefill, the scaler
/// stage, migration planning) when the caller doesn't pass one explicitly.
/// `0` = unset.
static PAR_JOBS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Whether this thread is one of [`par_map_indexed`]'s workers. Such a
    /// thread already is one of `jobs` running side by side — a sweep runs
    /// one experiment per core — so a fan-out nested inside it would only
    /// add threads, not cores: [`par_jobs`] answers 1 there.
    static ON_PAR_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Environment variable consulted by [`par_jobs`] when no explicit count
/// has been set. It is read nowhere else.
pub const PAR_JOBS_ENV: &str = "ELMEM_JOBS";

/// Runs `f` with [`par_jobs`] pinned to `jobs`, then restores the count it
/// found — also when `f` panics, so a failing assertion in one test cannot
/// leave the process-wide count pinned for its siblings in the binary, and
/// a nested call cannot un-pin its caller. `jobs = 1` forces every internal
/// fan-out onto the serial reference path (the byte-identity baseline); `0`
/// is the env-var/core-count default. The count is process-wide: threads
/// that pin it side by side must serialize among themselves.
pub fn with_par_jobs<R>(jobs: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            PAR_JOBS.store(self.0, Ordering::Relaxed);
        }
    }
    let _restore = Restore(PAR_JOBS.swap(jobs, Ordering::Relaxed));
    f()
}

/// The worker count for library-internal fan-outs: 1 on a thread that is
/// itself a [`par_map_indexed`] worker (nested fan-outs resolve inline),
/// else the count pinned by [`with_par_jobs`], else `ELMEM_JOBS`, else
/// the machine's available parallelism. Always at least 1.
pub fn par_jobs() -> usize {
    if ON_PAR_WORKER.get() {
        return 1;
    }
    let v = PAR_JOBS.load(Ordering::Relaxed);
    if v != 0 {
        return v;
    }
    if let Ok(s) = std::env::var(PAR_JOBS_ENV) {
        if let Ok(n) = s.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Runs `f` over every item, on up to `jobs` worker threads, returning
/// the results in item order.
///
/// `f` must be a pure function of `(index, item)` for the parallel run to
/// be byte-identical to the serial one; the helper guarantees only the
/// *ordering* (results keyed by index, reassembled in input order).
///
/// # Panics
///
/// Propagates a panic from any item's call.
pub fn par_map_indexed<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    if jobs <= 1 || items.len() <= 1 {
        return items.iter().enumerate().map(|(i, c)| f(i, c)).collect();
    }
    let next = AtomicUsize::new(0);
    let (tx, rx) = std::sync::mpsc::channel::<(usize, R)>();
    std::thread::scope(|s| {
        for _ in 0..jobs.min(items.len()) {
            let tx = tx.clone();
            let next = &next;
            let f = &f;
            s.spawn(move || {
                ON_PAR_WORKER.set(true); // a fresh thread: nothing to restore
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    let r = f(i, &items[i]);
                    tx.send((i, r)).expect("collector outlives workers");
                }
            });
        }
    });
    drop(tx);
    let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    for (i, r) in rx {
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .enumerate()
        .map(|(i, r)| r.unwrap_or_else(|| panic!("item {i} produced no result")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Serializes the tests that pin the process-wide count; cargo runs the
    /// tests of this binary on concurrent threads.
    static PIN: Mutex<()> = Mutex::new(());

    #[test]
    fn parallel_matches_serial_in_order() {
        let items: Vec<u64> = (0..32).collect();
        let work = |_: usize, &s: &u64| {
            (0..5_000u64).fold(s, |acc, i| {
                acc.wrapping_mul(6364136223846793005).wrapping_add(i)
            })
        };
        let serial = par_map_indexed(1, &items, work);
        for jobs in [2, 3, 8] {
            assert_eq!(serial, par_map_indexed(jobs, &items, work), "jobs={jobs}");
        }
    }

    #[test]
    fn call_gets_matching_index() {
        let items: Vec<u64> = (100..120).collect();
        let out = par_map_indexed(4, &items, |i, &c| (i, c));
        for (i, (idx, c)) in out.iter().enumerate() {
            assert_eq!(*idx, i);
            assert_eq!(*c, items[i]);
        }
    }

    #[test]
    fn nested_fanouts_resolve_inline() {
        // On a worker `par_jobs` is 1 whatever is pinned; on the thread
        // that called `par_map_indexed` (and on the serial path, which
        // runs there) the pinned count still applies.
        let _pin = PIN.lock().unwrap_or_else(|e| e.into_inner());
        let seen = with_par_jobs(3, || {
            let nested = par_map_indexed(2, &[(); 4], |_, _| par_jobs());
            let serial = par_map_indexed(1, &[(); 2], |_, _| par_jobs());
            (nested, serial, par_jobs())
        });
        assert_eq!(seen, (vec![1; 4], vec![3; 2], 3));
    }

    #[test]
    fn nested_pin_restores_its_callers_count() {
        let _pin = PIN.lock().unwrap_or_else(|e| e.into_inner());
        let outer = with_par_jobs(4, || {
            assert_eq!(with_par_jobs(1, par_jobs), 1);
            par_jobs()
        });
        assert_eq!(outer, 4);
        // On the panic path too: the inner guard unwinds back to 4.
        let outer = with_par_jobs(4, || {
            let inner = std::panic::catch_unwind(|| with_par_jobs(1, || panic!("inner")));
            assert!(inner.is_err());
            par_jobs()
        });
        assert_eq!(outer, 4);
    }

    #[test]
    fn empty_and_single() {
        let out: Vec<u64> = par_map_indexed(8, &[], |_, &c: &u64| c);
        assert!(out.is_empty());
        assert_eq!(par_map_indexed(8, &[9u64], |_, &c| c * 2), vec![18]);
    }
}
