//! `Cluster::prefill` streams its keys: it holds one block of them at a
//! time, on one worker or several, and one bit per keyspace key per worker,
//! so a paper-scale fill (19 M keys, 152 MB as a `Vec`) costs 2.4 MB per
//! worker beyond its stores. Checked on the process's peak RSS, with keys
//! from a counter — an iterator that itself holds nothing.
//!
//! Alone in its binary on purpose: the high-water mark is per process.
#![cfg(target_os = "linux")]

use std::cell::Cell;

use elmem_cluster::{Cluster, ClusterConfig};
use elmem_util::par::with_par_jobs;
use elmem_util::{DetRng, KeyId, SimTime};
use elmem_workload::Keyspace;

/// The process's peak resident set so far, KiB (`VmHWM`).
fn peak_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .expect("the kernel reports VmHWM");
    let kib = line.trim().trim_end_matches("kB").trim();
    kib.parse().expect("VmHWM is a number of kB")
}

#[test]
fn prefill_buffers_a_block_not_the_key_stream() {
    // 24 MB if collected, 72 MB if also grouped per node.
    const KEYS: u64 = 3_000_000;
    // The stores' own churn reads about 3 MiB here, whatever the key count.
    const ALLOWED_KIB: u64 = 8 * 1024;
    for jobs in [1, 2] {
        // An empty tier fills through lanes-only `Fill`s, one bit per key
        // per worker beside the block; a full one through plain `set`s.
        for warm in [false, true] {
            let mut c = Cluster::new(
                ClusterConfig::small_test(),
                Keyspace::new(KEYS, 0),
                DetRng::seed(1),
            );
            if warm {
                // Fill every page first: from here on a set evicts, and
                // the stores (4 x 4 MiB) stop growing.
                c.prefill((0..200_000).map(KeyId), SimTime::ZERO);
            }

            let before = peak_rss_kib();
            let pulled = Cell::new(0u64);
            let keys = (0..KEYS).map(|k| {
                pulled.set(pulled.get() + 1);
                KeyId(k)
            });
            with_par_jobs(jobs, || c.prefill(keys, SimTime::from_secs(1)));
            let grew = peak_rss_kib() - before;

            assert_eq!(pulled.get(), KEYS, "every key is pulled exactly once");
            assert!(c.tier.total_items() > 0);
            for node in c.tier.iter_nodes() {
                assert_eq!(node.store.audit(), Ok(()));
            }
            assert!(
                grew <= ALLOWED_KIB,
                "prefilling {KEYS} keys into {} tier with {jobs} worker(s) raised peak \
                 RSS by {grew} KiB (a collected key stream alone is {} KiB)",
                if warm { "a full" } else { "an empty" },
                KEYS * 8 / 1024
            );
        }
    }
}
