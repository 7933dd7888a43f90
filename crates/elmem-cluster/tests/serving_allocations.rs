//! The serving path allocates nothing once a tier is warm: after 200 k
//! requests of warm-up, 200 k more through `Cluster::handle` make no heap
//! allocation — on an all-resident tier, where every lookup hits, and on a
//! cold one, where misses fetch from the database, set and evict. The
//! requests are generated before the count starts.
//!
//! Alone in its binary on purpose: the allocator counts every allocation
//! the process makes, and a second test on another thread would add its own.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};

use elmem_cluster::{Cluster, ClusterConfig};
use elmem_store::SizeClasses;
use elmem_util::par::with_par_jobs;
use elmem_util::{ByteSize, DetRng, SimTime};
use elmem_workload::{
    DemandTrace, GeneralizedPareto, Keyspace, RequestGenerator, WebRequest, WorkloadConfig,
};

/// The system allocator, counting its allocations (a reallocation is one).
struct Counting {
    allocations: AtomicU64,
}

// SAFETY: every call forwards to `System` with the caller's own pointer
// and layout, so `System` upholds `GlobalAlloc`'s contract; the counter
// only counts the calls.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.allocations.fetch_add(1, SeqCst);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.allocations.fetch_add(1, SeqCst);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static HEAP: Counting = Counting {
    allocations: AtomicU64::new(0),
};

const WARM: usize = 200_000;
const MEASURED: usize = 200_000;

/// What the measured requests did.
#[derive(Debug, Default)]
struct Served {
    allocations: u64,
    lookups: u64,
    hits: u64,
    db_fetches: u64,
    sets: u64,
    evictions: u64,
}

/// A 4 x 32 MiB tier over `keys` keys whose values are `value_scale` times
/// Facebook ETC's, with its `prefill` hottest ranks set, then [`WARM`]
/// requests of warm-up and [`MEASURED`] counted ones (5-key multi-gets,
/// Zipf 1.0).
fn serve(keys: u64, value_scale: f64, min_chunk: u64, prefill: u64) -> Served {
    let etc = GeneralizedPareto::facebook_etc();
    let keyspace = Keyspace::with_distribution(
        keys,
        7,
        GeneralizedPareto::new(etc.scale * value_scale, etc.shape),
        (f64::from(Keyspace::DEFAULT_MAX_VALUE) * value_scale) as u32,
    );
    let config = ClusterConfig {
        node_memory: ByteSize::from_mib(32),
        vnodes: 128,
        db_servers: 64,
        db_service: SimTime::from_millis(6),
        slab_classes: SizeClasses::new(min_chunk, 2.0, ByteSize::PAGE.as_u64()),
        ..ClusterConfig::small_test()
    };
    let workload = WorkloadConfig {
        keyspace: keyspace.clone(),
        zipf_exponent: 1.0,
        items_per_request: 5,
        peak_rate: 833.0,
        trace: DemandTrace::new(vec![1.0], SimTime::from_secs(600)),
    };
    let rng = DetRng::seed(7);
    let mut cluster = Cluster::new(config, keyspace, rng.split("cluster"));
    // One worker: the generator serves on this thread, and no stage
    // thread is left to allocate while the count runs.
    let measured: Vec<WebRequest> = with_par_jobs(1, || {
        let mut gen = RequestGenerator::new(workload, rng.split("workload"));
        let zipf = gen.zipf().clone();
        cluster.prefill(
            (1..=prefill).rev().map(|r| zipf.key_for_rank(r)),
            SimTime::ZERO,
        );
        for _ in 0..WARM {
            cluster.handle(&gen.next_request().expect("the trace outlasts the warm-up"));
        }
        (0..MEASURED).map_while(|_| gen.next_request()).collect()
    });
    assert_eq!(measured.len(), MEASURED);

    let stores = |c: &Cluster| {
        let stats = c.tier.iter_nodes().map(|n| n.store.stats());
        stats.fold((0, 0), |(s, e), st| (s + st.sets, e + st.evictions))
    };
    let (sets, evictions) = stores(&cluster);
    let db_fetches = cluster.db.fetches();
    let mut served = Served::default();
    let before = HEAP.allocations.load(SeqCst);
    for req in &measured {
        let out = cluster.handle(req);
        served.lookups += out.lookups;
        served.hits += out.hits;
    }
    served.allocations = HEAP.allocations.load(SeqCst) - before;
    let (sets_after, evictions_after) = stores(&cluster);
    served.db_fetches = cluster.db.fetches() - db_fetches;
    served.sets = sets_after - sets;
    served.evictions = evictions_after - evictions;
    served
}

#[test]
fn a_warm_tier_serves_without_allocating() {
    // All 40 k keys resident: every lookup a hit.
    let hot = serve(40_000, 1.0, 96, 40_000);
    assert_eq!(hot.hits, hot.lookups, "{hot:?}");
    assert_eq!(hot.allocations, 0, "hot tier: {hot:?}");

    // 350 k keys at 4x ETC, about 6x what the tier holds, all prefilled:
    // every class is then full, so each miss's set evicts. A class still
    // filling the chunks of its pages grows its slot lanes, which is the
    // store growing, not serving: with 100 k ranks prefilled, 4 of 174 k
    // sets here did, and 2 of them reallocated a lane.
    let cold = serve(350_000, 4.0, 384, 350_000);
    assert!(cold.hits < cold.lookups, "{cold:?}");
    assert!(cold.db_fetches > 0 && cold.sets > 0, "{cold:?}");
    assert_eq!(cold.evictions, cold.sets, "every set evicts: {cold:?}");
    assert_eq!(cold.allocations, 0, "cold tier: {cold:?}");
}
