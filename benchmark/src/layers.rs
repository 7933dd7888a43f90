//! Isolated timings of each layer's public calls, on state taken from the
//! workload's prepared deployment.
//!
//! Every function here times calls from outside the layer, through the
//! `elmem` facade, in a loop short enough (tens of milliseconds) that the
//! whole set fits in a traced run. Each reports the fastest of a few
//! batches: like the low quantile of the repetition times, the minimum is
//! the estimate least moved by the neighbours on a shared machine.

use std::hint::black_box;
use std::time::Instant;

use elmem::cluster::{Cluster, DbModel};
use elmem::core::fusecache::fusecache;
use elmem::core::journal::{JournalRecord, MigrationJournal};
use elmem::core::migration::{MigrationCosts, MigrationPhase};
use elmem::core::{
    choose_retiring, plan_scale_in_shipments, run_experiment, AutoScaler, AutoScalerConfig,
    ExperimentConfig, Master, MigrationPolicy, ScaleAction,
};
use elmem::hash::HashRing;
use elmem::sim::EventQueue;
use elmem::stackdist::{ExactStackDistance, HitRateCurve, Mimir};
use elmem::store::item::item_footprint;
use elmem::store::{ConcurrentSlabStore, Hotness, ImportMode, SlabStore, StoreConfig};
use elmem::util::{ByteSize, DetRng, KeyId, LatencyHistogram, SimTime};
use elmem::workload::{RequestGenerator, WebRequest, ZipfAlias};

use crate::report::Metric;
use crate::workloads::{elastic_experiment, Deployment};

/// Calls `batch` (which performs `ops` operations) `batches` times and
/// returns the fastest batch's nanoseconds per operation.
fn best_ns_per_op(batches: usize, ops: u64, mut batch: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..batches {
        let t = Instant::now();
        batch();
        best = best.min(t.elapsed().as_nanos() as f64 / ops.max(1) as f64);
    }
    best
}

/// Resident set size of this process, bytes (`VmRSS`; 0 where absent).
fn rss_bytes() -> u64 {
    crate::harness::proc_status_kib("VmRSS:").unwrap_or(0) * 1024
}

/// The deployment's request stream, from its first request.
fn generator(dep: &Deployment) -> RequestGenerator {
    RequestGenerator::new(
        dep.workload.clone(),
        DetRng::seed(dep.seed).split("workload"),
    )
}

/// The first `n` requests of the deployment's stream.
fn requests(dep: &Deployment, n: usize) -> Vec<WebRequest> {
    let mut gen = generator(dep);
    (0..n).map_while(|_| gen.next_request()).collect()
}

/// Times every isolated layer call and returns the per-layer metrics in
/// reporting order.
pub fn measure(dep: &Deployment) -> Vec<Metric> {
    let mut out = Vec::new();
    let mut push = |name: &str, value: f64, unit: &str| out.push(Metric::new(name, value, unit));

    let keyspace = dep.workload.keyspace.clone();
    let n_keys = keyspace.n_keys();
    let reqs = requests(dep, 20_000);
    let stream_keys: Vec<KeyId> = reqs.iter().flat_map(|r| r.keys.iter().copied()).collect();

    // ---- elmem-workload ----------------------------------------------
    {
        let mut gen = generator(dep);
        let mut req = WebRequest {
            arrival: SimTime::ZERO,
            keys: Vec::with_capacity(dep.workload.items_per_request),
        };
        push(
            "workload.reqgen_ns",
            best_ns_per_op(5, 10_000, || {
                for _ in 0..10_000 {
                    black_box(gen.next_request_into(&mut req));
                }
            }),
            "ns",
        );
        let zipf = gen.zipf().clone();
        let mut rng = DetRng::seed(dep.seed).split("layer-zipf");
        push(
            "workload.zipf_sample_ns",
            best_ns_per_op(5, 50_000, || {
                for _ in 0..50_000 {
                    black_box(zipf.sample(&mut rng));
                }
            }),
            "ns",
        );
        let alias = ZipfAlias::from_zipf(&zipf);
        push(
            "workload.alias_sample_ns",
            best_ns_per_op(5, 50_000, || {
                for _ in 0..50_000 {
                    black_box(alias.sample(&mut rng));
                }
            }),
            "ns",
        );
        push(
            "workload.value_size_ns",
            best_ns_per_op(5, 50_000, || {
                for k in 0..50_000u64 {
                    black_box(keyspace.value_size(KeyId(k % n_keys)));
                }
            }),
            "ns",
        );
        push(
            "workload.generator_new_ms",
            best_ns_per_op(5, 1, || {
                black_box(generator(dep));
            }) / 1e6,
            "ms",
        );
    }

    // ---- elmem-hash ---------------------------------------------------
    {
        let ring = dep.cluster.tier.membership().ring().clone();
        push(
            "hash.ring_lookup_ns",
            best_ns_per_op(5, 100_000, || {
                for k in 0..100_000u64 {
                    black_box(ring.node_for(KeyId(k)));
                }
            }),
            "ns",
        );
        let members = ring.members().to_vec();
        push(
            "hash.ring_rebuild_us",
            best_ns_per_op(5, 10, || {
                for _ in 0..10 {
                    black_box(HashRing::new(members.iter().copied(), ring.vnodes()));
                }
            }) / 1e3,
            "us",
        );
    }

    // ---- elmem-cluster ------------------------------------------------
    let config = dep.cluster.tier.config().clone();
    {
        push(
            "cluster.handle_ns",
            best_ns_per_op(3, reqs.len() as u64, || {
                let mut cluster = dep.cluster.clone();
                for req in &reqs {
                    black_box(cluster.handle(req));
                }
            }),
            "ns",
        );
        // Single-key requests: resident keys against the prepared tier
        // (hits), then fresh keys against an empty one (miss -> database
        // fetch -> set). Arrivals 10 ms apart keep the database idle.
        let single = |keys: &mut dyn Iterator<Item = KeyId>| -> Vec<WebRequest> {
            keys.enumerate()
                .map(|(i, k)| WebRequest {
                    arrival: dep.ready_at + SimTime::from_millis(10 * i as u64),
                    keys: vec![k],
                })
                .collect()
        };
        let resident: Vec<KeyId> = stream_keys
            .iter()
            .copied()
            .filter(|&k| {
                dep.cluster
                    .tier
                    .node_for_key(k)
                    .and_then(|n| dep.cluster.tier.node(n).ok())
                    .is_some_and(|n| n.store.contains(k))
            })
            .take(20_000)
            .collect();
        let hits = single(&mut resident.iter().copied());
        push(
            "cluster.handle_hit_ns",
            best_ns_per_op(3, hits.len() as u64, || {
                let mut cluster = dep.cluster.clone();
                for req in &hits {
                    black_box(cluster.handle(req));
                }
            }),
            "ns",
        );
        let misses = single(&mut (0..20_000.min(n_keys)).map(KeyId));
        let rng = DetRng::seed(dep.seed).split("cluster");
        push(
            "cluster.handle_miss_ns",
            best_ns_per_op(3, misses.len() as u64, || {
                let mut cluster = Cluster::new(config.clone(), keyspace.clone(), rng.clone());
                for req in &misses {
                    black_box(cluster.handle(req));
                }
            }),
            "ns",
        );
        let mut db = DbModel::new(
            config.db_servers,
            config.db_service,
            config.db_shed_delay,
            rng.split("db"),
        );
        let mut now = SimTime::ZERO;
        push(
            "cluster.db_fetch_ns",
            best_ns_per_op(5, 20_000, || {
                for _ in 0..20_000 {
                    now += SimTime::from_millis(10);
                    black_box(db.fetch(now));
                }
            }),
            "ns",
        );
        push(
            "cluster.new_ms",
            best_ns_per_op(5, 1, || {
                black_box(Cluster::new(config.clone(), keyspace.clone(), rng.clone()));
            }) / 1e6,
            "ms",
        );
        let zipf = generator(dep).zipf().clone();
        push(
            "cluster.prefill_ns_per_key",
            best_ns_per_op(2, dep.prefill_ranks, || {
                let mut cluster = Cluster::new(config.clone(), keyspace.clone(), rng.clone());
                cluster.prefill(
                    (1..=dep.prefill_ranks).rev().map(|r| zipf.key_for_rank(r)),
                    SimTime::ZERO,
                );
                black_box(&cluster);
            }),
            "ns",
        );
        push(
            "cluster.clone_ms",
            best_ns_per_op(5, 1, || {
                black_box(dep.cluster.clone());
            }) / 1e6,
            "ms",
        );
    }

    // ---- elmem-store --------------------------------------------------
    // The fullest member's store stands for the tier's stores.
    let members = dep.cluster.tier.membership().members().to_vec();
    let fullest = members
        .iter()
        .filter_map(|&id| dep.cluster.tier.node(id).ok())
        .max_by_key(|n| n.store.len())
        .expect("a deployment has members");
    let store: &SlabStore = &fullest.store;
    let resident: Vec<KeyId> = store.iter().map(|i| i.key).take(50_000).collect();
    let later = dep.ready_at + SimTime::from_secs(10);
    {
        push(
            "store.get_hit_ns",
            best_ns_per_op(3, resident.len() as u64, || {
                let mut s = store.clone();
                for &k in &resident {
                    black_box(s.get(k, later));
                }
            }),
            "ns",
        );
        let mut s = store.clone();
        push(
            "store.get_miss_ns",
            best_ns_per_op(5, 50_000, || {
                for k in 0..50_000u64 {
                    black_box(s.get(KeyId(n_keys + k), later));
                }
            }),
            "ns",
        );
        // 100 B values share one chunk class, so a 4-page store fills
        // after ~20 k inserts and every later insert evicts one item.
        let small = StoreConfig {
            memory: ByteSize::from_mib(4),
            classes: config.slab_classes.clone(),
            shards: config.store_shards,
        };
        let chunk = small
            .classes
            .class_for(item_footprint(100))
            .map(|c| small.classes.chunk_size(c))
            .unwrap_or(ByteSize::PAGE.as_u64());
        let capacity = 4 * ByteSize::PAGE.as_u64() / chunk;
        let inserts = capacity / 2;
        push(
            "store.set_insert_ns",
            best_ns_per_op(5, inserts, || {
                let mut s = SlabStore::new(small.clone());
                for k in 0..inserts {
                    let _ = black_box(s.set(KeyId(k), 100, later));
                }
            }),
            "ns",
        );
        let mut full = SlabStore::new(small.clone());
        for k in 0..capacity {
            let _ = full.set(KeyId(k), 100, later);
        }
        let mut next_key = capacity;
        push(
            "store.set_evict_ns",
            best_ns_per_op(5, capacity, || {
                for _ in 0..capacity {
                    let _ = black_box(full.set(KeyId(next_key), 100, later));
                    next_key += 1;
                }
            }),
            "ns",
        );
        // One get first, so the cached median is stale and is recomputed.
        let classes: Vec<_> = store
            .classes()
            .ids()
            .filter(|&c| store.len_of_class(c) > 0)
            .collect();
        let mut s = store.clone();
        let poke: Vec<KeyId> = classes
            .iter()
            .filter_map(|&c| s.iter_class_mru(c).next().map(|i| i.key))
            .collect();
        push(
            "store.median_hotness_ns",
            best_ns_per_op(5, classes.len() as u64, || {
                for (&class, &key) in classes.iter().zip(&poke) {
                    black_box(s.get(key, later));
                    black_box(s.median_hotness(class));
                }
            }),
            "ns",
        );
        push(
            "store.dump_ns_per_item",
            best_ns_per_op(5, store.len(), || {
                black_box(store.dump_metadata());
            }),
            "ns",
        );
        // The fullest class of this store, imported into another member.
        let dump = store.dump_metadata();
        let biggest = dump
            .classes
            .iter()
            .max_by_key(|c| c.items.len())
            .expect("a prefilled store has items");
        let other = members
            .iter()
            .filter_map(|&id| dep.cluster.tier.node(id).ok())
            .find(|n| n.id() != fullest.id())
            .map_or(store, |n| &n.store);
        push(
            "store.import_ns_per_item",
            best_ns_per_op(3, biggest.items.len() as u64, || {
                let mut target = other.clone();
                let _ = black_box(target.batch_import(
                    biggest.class,
                    &biggest.items,
                    ImportMode::Merge,
                ));
            }),
            "ns",
        );
        // Resident bytes the process gains per item when the tier is
        // copied: what one cached item costs in real memory.
        let before = rss_bytes();
        let copies: Vec<Cluster> = (0..4).map(|_| dep.cluster.clone()).collect();
        let grown = rss_bytes().saturating_sub(before);
        let items: u64 = copies.iter().map(|c| c.tier.total_items()).sum();
        drop(copies);
        push(
            "store.bytes_per_item",
            grown as f64 / items.max(1) as f64,
            "B",
        );

        // Wall time per get with 1 and 2 threads sharing one facade; with
        // perfect scaling the second is half the first.
        let facade = ConcurrentSlabStore::from_serial(store.clone());
        for (threads, name) in [
            (1usize, "store.concurrent_get_1t_ns"),
            (2, "store.concurrent_get_2t_ns"),
        ] {
            let total = (resident.len() * threads) as u64;
            push(
                name,
                best_ns_per_op(3, total, || {
                    std::thread::scope(|scope| {
                        for _ in 0..threads {
                            scope.spawn(|| {
                                for &k in &resident {
                                    black_box(facade.get(k, later));
                                }
                            });
                        }
                    });
                }),
                "ns",
            );
        }
    }

    // ---- elmem-util ---------------------------------------------------
    {
        let mut hist = LatencyHistogram::new();
        push(
            "util.hist_record_ns",
            best_ns_per_op(5, 200_000, || {
                for v in 0..200_000u64 {
                    hist.record(black_box(4_000_000 + v * 37));
                }
            }),
            "ns",
        );
        let mut rng = DetRng::seed(dep.seed).split("layer-rng");
        push(
            "util.rng_next_ns",
            best_ns_per_op(5, 200_000, || {
                for _ in 0..200_000 {
                    black_box(rng.next_f64());
                }
            }),
            "ns",
        );
    }

    // ---- elmem-stackdist ----------------------------------------------
    let footprints: Vec<u64> = stream_keys
        .iter()
        .map(|&k| item_footprint(keyspace.value_size(k)))
        .collect();
    {
        let mut distances = Vec::new();
        push(
            "stackdist.record_exact_ns",
            best_ns_per_op(3, stream_keys.len() as u64, || {
                let mut engine = ExactStackDistance::new();
                distances = stream_keys
                    .iter()
                    .zip(&footprints)
                    .map(|(&k, &b)| engine.record(k, b))
                    .collect();
            }),
            "ns",
        );
        push(
            "stackdist.record_mimir_ns",
            best_ns_per_op(3, stream_keys.len() as u64, || {
                let mut engine = Mimir::new(128, 1_024);
                for (&k, &b) in stream_keys.iter().zip(&footprints) {
                    black_box(engine.record(k, b));
                }
            }),
            "ns",
        );
        push(
            "stackdist.hrc_build_ms",
            best_ns_per_op(3, 1, || {
                black_box(HitRateCurve::from_distances(&distances));
            }) / 1e6,
            "ms",
        );
    }

    // ---- elmem-sim ----------------------------------------------------
    {
        let mut queue: EventQueue<u64> = EventQueue::new();
        for i in 0..64u64 {
            queue.schedule(SimTime::from_micros(i), i);
        }
        let mut t = 64u64;
        push(
            "sim.eventq_cycle_ns",
            best_ns_per_op(5, 100_000, || {
                for _ in 0..100_000 {
                    let popped = queue.pop();
                    t += 1;
                    queue.schedule(SimTime::from_micros(t), t);
                    black_box(popped);
                }
            }),
            "ns",
        );
    }

    // ---- elmem-core ---------------------------------------------------
    {
        // No warm-up guard: `decide` must size from the distances, not
        // return early.
        let scaler_config = AutoScalerConfig {
            min_observations: 0,
            ..AutoScalerConfig::new(config.r_db(), config.node_memory)
        };
        let mut scaler = AutoScaler::new(scaler_config.clone());
        push(
            "core.autoscaler_observe_ns",
            best_ns_per_op(3, stream_keys.len() as u64, || {
                scaler = AutoScaler::new(scaler_config.clone());
                for (&k, &b) in stream_keys.iter().zip(&footprints) {
                    scaler.observe(k, b);
                }
            }),
            "ns",
        );
        let nodes = members.len() as u32;
        let rate = config.r_db() * 10.0;
        push(
            "core.autoscaler_decide_us",
            best_ns_per_op(5, 1, || {
                black_box(scaler.decide(later, rate, nodes));
            }) / 1e3,
            "us",
        );

        // The experiment is elastic_day's at this seed on every workload:
        // no other workload has one.
        let experiment = elastic_experiment(dep.seed);
        let mut full_events = Vec::new();
        let full_ms = best_ns_per_op(3, 1, || {
            full_events = run_experiment(experiment.clone()).events;
        }) / 1e6;
        // Twin: same scalings at the same instants, no AutoScaler.
        let twin = ExperimentConfig {
            autoscaler: None,
            scheduled: full_events
                .iter()
                .map(|e| {
                    let action = if e.to_nodes < e.from_nodes {
                        ScaleAction::In {
                            count: e.from_nodes - e.to_nodes,
                        }
                    } else {
                        ScaleAction::Out {
                            count: e.to_nodes - e.from_nodes,
                        }
                    };
                    (e.decided_at, action)
                })
                .collect(),
            ..experiment
        };
        let twin_ms = best_ns_per_op(3, 1, || {
            black_box(run_experiment(twin.clone()));
        }) / 1e6;
        push("core.run_experiment_ms", full_ms, "ms");
        push("core.autoscaler_share", 1.0 - twin_ms / full_ms, "ratio");

        let (mut scale_in, mut scale_out, mut apply) =
            (f64::INFINITY, f64::INFINITY, f64::INFINITY);
        for _ in 0..3 {
            let mut cluster = dep.cluster.clone();
            let mut master = Master::new(
                MigrationPolicy::elmem(),
                MigrationCosts::default(),
                dep.seed,
            );
            let t = Instant::now();
            let drained = master.scale_in(&mut cluster, 1, dep.ready_at);
            scale_in = scale_in.min(t.elapsed().as_secs_f64() * 1e3);
            let Ok(drained) = drained else { continue };
            let t = Instant::now();
            for d in &drained.deferred {
                Master::apply(&mut cluster, &d.kind);
            }
            apply = apply.min(t.elapsed().as_secs_f64() * 1e6);
            let t = Instant::now();
            let grown = master.scale_out(
                &mut cluster,
                1,
                drained.committed_at + SimTime::from_secs(1),
            );
            scale_out = scale_out.min(t.elapsed().as_secs_f64() * 1e3);
            black_box(grown.is_ok());
        }
        push("core.scale_in_ms", scale_in, "ms");
        push("core.scale_out_ms", scale_out, "ms");
        push("core.apply_commit_us", apply, "us");

        // A fresh clone each time: scoring caches each class's median.
        push(
            "core.choose_retiring_ms",
            best_ns_per_op(3, 1, || {
                let cluster = dep.cluster.clone();
                let _ = black_box(choose_retiring(&cluster.tier, 1));
            }) / 1e6,
            "ms",
        );
        let victim = choose_retiring(&dep.cluster.tier, 1)
            .ok()
            .and_then(|(v, _)| v.first().copied())
            .unwrap_or(members[0]);
        let considered = dep
            .cluster
            .tier
            .node(victim)
            .map_or(1, |n| n.store.len().max(1));
        push(
            "core.plan_ns_per_item",
            best_ns_per_op(3, considered, || {
                let _ = black_box(plan_scale_in_shipments(&dep.cluster.tier, &[victim], 0));
            }),
            "ns",
        );
        // Every member's hotness list of the tier's fullest class; keep
        // the hottest half.
        let class = store
            .classes()
            .ids()
            .max_by_key(|&c| store.len_of_class(c))
            .expect("a ladder has classes");
        let lists: Vec<Vec<Hotness>> = members
            .iter()
            .filter_map(|&id| dep.cluster.tier.node(id).ok())
            .map(|n| {
                n.store
                    .dump_class(class)
                    .items
                    .iter()
                    .map(|i| i.hotness())
                    .collect()
            })
            .collect();
        let refs: Vec<&[Hotness]> = lists.iter().map(Vec::as_slice).collect();
        let total: usize = lists.iter().map(Vec::len).sum();
        push(
            "core.fusecache_ns_per_item",
            best_ns_per_op(5, total as u64, || {
                black_box(fusecache(&refs, total / 2));
            }),
            "ns",
        );
        push(
            "core.journal_append_ns",
            best_ns_per_op(5, 50_000, || {
                let mut journal = MigrationJournal::new();
                for i in 0..50_000u64 {
                    journal.append(
                        SimTime::from_nanos(i),
                        JournalRecord::PhaseDone {
                            id: i,
                            phase: MigrationPhase::DataMigration,
                            at: SimTime::from_nanos(i),
                        },
                    );
                }
                black_box(journal.len());
            }),
            "ns",
        );
    }

    out
}
