//! **E9 support** — throughput of the stack-distance engines the
//! AutoScaler runs every epoch (§III-B says the computation "takes less
//! than a second"; this bench verifies our engines are comfortably inside
//! that budget for realistic window sizes).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use elmem_stackdist::{ExactStackDistance, HitRateCurve, Mimir};
use elmem_util::{DetRng, KeyId};
use elmem_workload::ZipfPopularity;

fn zipf_trace(n_requests: usize, n_keys: u64, seed: u64) -> Vec<KeyId> {
    let zipf = ZipfPopularity::new(n_keys, 1.0, seed);
    let mut rng = DetRng::seed(seed);
    (0..n_requests).map(|_| zipf.sample(&mut rng)).collect()
}

fn bench_engines(c: &mut Criterion) {
    let mut group = c.benchmark_group("stack_distance");
    for &len in &[10_000usize, 100_000] {
        let trace = zipf_trace(len, 50_000, 3);
        group.throughput(Throughput::Elements(len as u64));
        group.bench_with_input(BenchmarkId::new("exact", len), &len, |b, _| {
            b.iter(|| {
                let mut e = ExactStackDistance::new();
                for &k in &trace {
                    let _ = e.record(k, 100);
                }
                e.accesses()
            })
        });
        group.bench_with_input(BenchmarkId::new("mimir", len), &len, |b, _| {
            b.iter(|| {
                let mut m = Mimir::new(128, 256);
                for &k in &trace {
                    let _ = m.record(k, 100);
                }
                m.tracked_keys()
            })
        });
    }
    group.finish();
}

fn bench_full_epoch_pass(c: &mut Criterion) {
    // The AutoScaler's whole per-epoch job: one pass + the curve queries.
    let trace = zipf_trace(100_000, 50_000, 9);
    c.bench_function("autoscaler_epoch_pass_100k", |b| {
        b.iter(|| {
            let mut e = ExactStackDistance::new();
            let dists: Vec<Option<u64>> = trace.iter().map(|&k| e.record(k, 100)).collect();
            let curve = HitRateCurve::from_distances(&dists);
            curve.memory_per_percent().len()
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_engines, bench_full_epoch_pass
}
criterion_main!(benches);
