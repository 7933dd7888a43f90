//! The request generator: trace-modulated Poisson arrivals of multi-get
//! web requests (the paper's httperf + PHP front end, §V-A).
//!
//! Like the paper's httperf, generation runs ahead of the serving loop: the
//! stream depends only on the seed, the trace and the Zipf table, so a
//! `Core` owning those fills batches on a [`Stage`] thread — the same code
//! in the same order as a direct call, which `par_jobs() == 1` keeps. The
//! first request picks the transport (DESIGN.md §10).

use std::sync::Arc;

use elmem_util::stage::Stage;
use elmem_util::{par, DetRng, KeyId, SimTime};

use crate::keyspace::Keyspace;
use crate::traces::DemandTrace;
use crate::zipf::ZipfPopularity;

/// Requests per batch (40 KiB at five keys): a hand-off's wake-up (a few
/// µs) vanishes against the ≈ 250 µs the serving loop spends on a batch.
const BATCH: usize = 512;

/// Batches in circulation, allocated by the consumer: one being read, the
/// rest being filled or waiting. The pool running dry holds the thread back.
const POOL: usize = 4;

/// Configuration of the synthetic workload.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// The key population (sizes included).
    pub keyspace: Keyspace,
    /// Zipf popularity exponent (0 = uniform; Facebook-like ≈ 0.9–1.1).
    pub zipf_exponent: f64,
    /// KV fetches per web request (the paper fixes a constant multi-get
    /// fan-out per request).
    pub items_per_request: usize,
    /// Peak request rate, req/s, that the trace's `1.0` maps to.
    pub peak_rate: f64,
    /// The demand trace modulating the arrival rate.
    pub trace: DemandTrace,
}

/// One generated web request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WebRequest {
    /// Arrival time at the load balancer.
    pub arrival: SimTime,
    /// Keys fetched by this request (multi-get batch).
    pub keys: Vec<KeyId>,
}

/// Generates [`WebRequest`]s with exponential interarrival times whose rate
/// follows the demand trace (a non-homogeneous Poisson process via
/// thinning), and Zipf-popular multi-get batches.
///
/// The generator ends (returns `None`) when the trace duration is exhausted.
///
/// # Example
///
/// ```
/// use elmem_workload::{Keyspace, RequestGenerator, TraceKind, WorkloadConfig};
/// use elmem_util::DetRng;
///
/// let cfg = WorkloadConfig {
///     keyspace: Keyspace::new(1000, 0),
///     zipf_exponent: 1.0,
///     items_per_request: 3,
///     peak_rate: 100.0,
///     trace: TraceKind::Sap.demand_trace(),
/// };
/// let mut gen = RequestGenerator::new(cfg, DetRng::seed(1));
/// let first = gen.next_request().unwrap();
/// assert_eq!(first.keys.len(), 3);
/// ```
#[derive(Debug)]
pub struct RequestGenerator {
    config: WorkloadConfig,
    zipf: Arc<ZipfPopularity>,
    now: SimTime,
    generated: u64,
    source: Source,
}

/// Where the next request comes from.
#[derive(Debug)]
enum Source {
    /// The core, until the first request picks its transport.
    Pending(Core),
    /// The core, called on this thread one request at a time.
    Direct(Core),
    /// The core's thread, and the batch being read.
    Staged(Batches),
    /// A staged stream past its end, its thread joined.
    Ended,
}

/// The generating half: everything that decides the stream.
#[derive(Debug)]
struct Core {
    config: WorkloadConfig,
    zipf: Arc<ZipfPopularity>,
    arrivals_rng: DetRng,
    keys_rng: DetRng,
    /// The last candidate arrival, accepted or not.
    now: SimTime,
}

impl Core {
    /// The next request into `req`, reusing its key buffer; `false`, `req`
    /// untouched, once past the trace end.
    fn next_into(&mut self, req: &mut WebRequest) -> bool {
        // Thinning (Lewis & Shedler): candidate events at the peak rate,
        // accepted with probability rate(t)/peak.
        let peak = self.config.peak_rate;
        let end = self.config.trace.duration();
        loop {
            let dt = self.arrivals_rng.next_exp(peak);
            self.now = self
                .now
                .checked_add(SimTime::from_secs_f64(dt))
                .unwrap_or(SimTime::MAX);
            if self.now > end {
                return false;
            }
            let accept_p = self.config.trace.normalized_at(self.now);
            if self.arrivals_rng.next_f64() < accept_p {
                break;
            }
        }
        req.arrival = self.now;
        req.keys.clear();
        req.keys.extend(
            (0..self.config.items_per_request).map(|_| self.zipf.sample(&mut self.keys_rng)),
        );
        true
    }

    /// The stage's body: refills the batch in place, shorter only where
    /// the stream ends.
    fn fill(&mut self, mut batch: Vec<WebRequest>) -> Vec<WebRequest> {
        let ended = batch.iter_mut().position(|req| !self.next_into(req));
        batch.truncate(ended.unwrap_or(BATCH));
        batch
    }
}

/// The consumer's side of a core on its own thread.
#[derive(Debug)]
struct Batches {
    stage: Stage<Vec<WebRequest>, Vec<WebRequest>>,
    /// The batch being read, and the next request in it.
    batch: Vec<WebRequest>,
    read: usize,
}

impl Batches {
    fn start(mut core: Core) -> Self {
        let items = core.config.items_per_request;
        // At most POOL buffers are ever out, so `post` never blocks; the
        // thread waits for an empty one instead.
        let mut stage = Stage::new(true, "elmem-reqgen", POOL, move |b| core.fill(b));
        let empty = |_| WebRequest {
            arrival: SimTime::ZERO,
            keys: Vec::with_capacity(items),
        };
        for _ in 0..POOL {
            stage.post((0..BATCH).map(empty).collect());
        }
        let batch = stage.wait();
        Batches {
            stage,
            batch,
            read: 0,
        }
    }

    /// [`Core::next_into`], from the batch being read.
    fn next_into(&mut self, req: &mut WebRequest) -> bool {
        if self.read == self.batch.len() {
            // Only the last batch is short (or empty).
            if self.read < BATCH {
                return false;
            }
            let read = std::mem::take(&mut self.batch);
            self.stage.post(read);
            self.batch = self.stage.wait();
            self.read = 0;
        }
        let Some(next) = self.batch.get(self.read) else {
            return false;
        };
        req.arrival = next.arrival;
        req.keys.clone_from(&next.keys);
        self.read += 1;
        true
    }
}

impl RequestGenerator {
    /// Creates a generator; it generates nothing until asked for a
    /// request.
    ///
    /// # Panics
    ///
    /// Panics if `items_per_request == 0` or `peak_rate <= 0`.
    pub fn new(config: WorkloadConfig, rng: DetRng) -> Self {
        assert!(config.items_per_request > 0, "zero items per request");
        assert!(
            config.peak_rate > 0.0 && config.peak_rate.is_finite(),
            "invalid peak rate"
        );
        let zipf = Arc::new(ZipfPopularity::new(
            config.keyspace.n_keys(),
            config.zipf_exponent,
            rng.split("zipf-perm").next_f64().to_bits(),
        ));
        let core = Core {
            config: config.clone(),
            zipf: Arc::clone(&zipf),
            arrivals_rng: rng.split("arrivals"),
            keys_rng: rng.split("keys"),
            now: SimTime::ZERO,
        };
        RequestGenerator {
            source: Source::Pending(core),
            zipf,
            config,
            now: SimTime::ZERO,
            generated: 0,
        }
    }

    /// The workload configuration.
    pub fn config(&self) -> &WorkloadConfig {
        &self.config
    }

    /// The popularity distribution in use (rank→key mapping included) —
    /// lets experiments prefill caches with the genuinely hottest keys.
    pub fn zipf(&self) -> &ZipfPopularity {
        &self.zipf
    }

    /// Requests generated so far.
    pub fn generated(&self) -> u64 {
        self.generated
    }

    /// The simulated instant of the last generated arrival.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Generates the next request, or `None` once past the trace end.
    pub fn next_request(&mut self) -> Option<WebRequest> {
        let mut req = WebRequest {
            arrival: SimTime::ZERO,
            keys: Vec::new(),
        };
        self.next_request_into(&mut req).then_some(req)
    }

    /// Generates the next request into `req`, reusing its key buffer, and
    /// returns whether one was produced (`false` once past the trace end,
    /// leaving `req` untouched).
    ///
    /// This is the serving loop's entry point: one experiment serves
    /// hundreds of thousands of requests, and regrowing the same
    /// `items_per_request`-element vector each time is pure allocator
    /// traffic. The generated sequence is identical to repeated
    /// [`Self::next_request`] calls, on either transport: the first call
    /// stages the generator when `par_jobs() > 1`.
    pub fn next_request_into(&mut self, req: &mut WebRequest) -> bool {
        if let Source::Pending(_) = self.source {
            if let Source::Pending(core) = std::mem::replace(&mut self.source, Source::Ended) {
                self.source = match par::par_jobs() {
                    1 => Source::Direct(core),
                    _ => Source::Staged(Batches::start(core)),
                };
            }
        }
        let produced = match &mut self.source {
            Source::Direct(core) => core.next_into(req),
            Source::Staged(batches) => batches.next_into(req),
            Source::Pending(_) | Source::Ended => false,
        };
        if !produced {
            if let Source::Staged(_) = self.source {
                self.source = Source::Ended; // joins the stage's thread
            }
            return false;
        }
        self.now = req.arrival;
        self.generated += 1;
        true
    }

    /// Drains the generator into a vector (convenience for offline
    /// analyses; experiments stream instead).
    pub fn collect_all(mut self) -> Vec<WebRequest> {
        let mut out = Vec::new();
        while let Some(r) = self.next_request() {
            out.push(r);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traces::{DemandTrace, TraceKind};

    fn config(peak: f64, trace: DemandTrace) -> WorkloadConfig {
        WorkloadConfig {
            keyspace: Keyspace::new(10_000, 0),
            zipf_exponent: 1.0,
            items_per_request: 5,
            peak_rate: peak,
            trace,
        }
    }

    #[test]
    fn arrivals_are_monotone_and_bounded() {
        let cfg = config(200.0, TraceKind::Sap.demand_trace());
        let end = cfg.trace.duration();
        let mut gen = RequestGenerator::new(cfg, DetRng::seed(1));
        let mut prev = SimTime::ZERO;
        while let Some(r) = gen.next_request() {
            assert!(r.arrival >= prev);
            assert!(r.arrival <= end);
            assert_eq!(r.keys.len(), 5);
            prev = r.arrival;
        }
        assert!(gen.generated() > 100);
    }

    #[test]
    fn rate_tracks_trace() {
        // Constant-rate trace halves → arrival count halves.
        let full = config(
            500.0,
            DemandTrace::new(vec![1.0; 11], SimTime::from_secs(30)),
        );
        let half = config(
            500.0,
            DemandTrace::new(vec![0.5; 11], SimTime::from_secs(30)),
        );
        let n_full = RequestGenerator::new(full, DetRng::seed(3))
            .collect_all()
            .len() as f64;
        let n_half = RequestGenerator::new(half, DetRng::seed(3))
            .collect_all()
            .len() as f64;
        let ratio = n_half / n_full;
        assert!((ratio - 0.5).abs() < 0.05, "ratio {ratio}");
    }

    #[test]
    fn empirical_rate_matches_peak() {
        let cfg = config(
            1000.0,
            DemandTrace::new(vec![1.0; 11], SimTime::from_secs(10)),
        );
        let reqs = RequestGenerator::new(cfg, DetRng::seed(4)).collect_all();
        // 100 seconds at 1000 req/s ≈ 100k arrivals.
        let rate = reqs.len() as f64 / 100.0;
        assert!((rate - 1000.0).abs() < 50.0, "rate {rate}");
    }

    #[test]
    fn deterministic_given_seed() {
        let a = RequestGenerator::new(
            config(100.0, TraceKind::Nlanr.demand_trace()),
            DetRng::seed(9),
        )
        .collect_all();
        let b = RequestGenerator::new(
            config(100.0, TraceKind::Nlanr.demand_trace()),
            DetRng::seed(9),
        )
        .collect_all();
        assert_eq!(a.len(), b.len());
        assert_eq!(a.first(), b.first());
        assert_eq!(a.last(), b.last());
    }

    #[test]
    fn popular_keys_dominate() {
        let cfg = config(
            500.0,
            DemandTrace::new(vec![1.0; 3], SimTime::from_secs(30)),
        );
        let reqs = RequestGenerator::new(cfg, DetRng::seed(5)).collect_all();
        let mut counts: std::collections::HashMap<KeyId, u64> = Default::default();
        for r in &reqs {
            for k in &r.keys {
                *counts.entry(*k).or_default() += 1;
            }
        }
        let mut freq: Vec<u64> = counts.values().copied().collect();
        freq.sort_unstable_by(|a, b| b.cmp(a));
        let total: u64 = freq.iter().sum();
        let top100: u64 = freq.iter().take(100).sum();
        // Zipf(1) over 10k keys: top 100 ranks carry >50% of mass.
        assert!(
            top100 as f64 / total as f64 > 0.4,
            "top-100 share {}",
            top100 as f64 / total as f64
        );
    }

    #[test]
    fn into_variant_matches_allocating_variant() {
        let mk = || {
            RequestGenerator::new(
                config(300.0, TraceKind::Microsoft.demand_trace()),
                DetRng::seed(11),
            )
        };
        let mut a = mk();
        let mut b = mk();
        let mut scratch = WebRequest {
            arrival: SimTime::ZERO,
            keys: Vec::new(),
        };
        loop {
            let fresh = a.next_request();
            let reused = b.next_request_into(&mut scratch);
            assert_eq!(fresh.is_some(), reused);
            match fresh {
                Some(r) => assert_eq!(r, scratch),
                None => break,
            }
        }
        assert_eq!(a.generated(), b.generated());
    }

    /// Serializes the tests that pin the process-wide worker count.
    static PIN: std::sync::Mutex<()> = std::sync::Mutex::new(());

    /// `gen`'s next request, with `par_jobs()` pinned to `jobs`: the first
    /// call picks the transport.
    fn next_pinned(gen: &mut RequestGenerator, req: &mut WebRequest, jobs: usize) -> bool {
        let _pin = PIN.lock().unwrap_or_else(|e| e.into_inner());
        elmem_util::par::with_par_jobs(jobs, || gen.next_request_into(req))
    }

    fn blank() -> WebRequest {
        WebRequest {
            arrival: SimTime::ZERO,
            keys: Vec::new(),
        }
    }

    /// Runs a direct and a staged generator over `cfg` side by side,
    /// comparing them after every call, and returns the stream's length.
    fn transports_agree(cfg: WorkloadConfig, seed: u64) -> u64 {
        let mut direct = RequestGenerator::new(cfg.clone(), DetRng::seed(seed));
        let mut staged = RequestGenerator::new(cfg, DetRng::seed(seed));
        let (mut a, mut b) = (blank(), blank());
        loop {
            let (was_a, was_b) = (a.clone(), b.clone());
            let more = next_pinned(&mut direct, &mut a, 1);
            assert_eq!(next_pinned(&mut staged, &mut b, 2), more);
            assert!(matches!(direct.source, Source::Direct(_)));
            assert_eq!(
                (&a, direct.now(), direct.generated()),
                (&b, staged.now(), staged.generated())
            );
            if !more {
                // The end leaves `req` untouched, and stays the end; `now`
                // is still the last request's arrival.
                assert_eq!((&a, &b), (&was_a, &was_b));
                assert_eq!(direct.now(), a.arrival);
                assert!(!direct.next_request_into(&mut a) && !staged.next_request_into(&mut b));
                assert_eq!((&a, &b), (&was_a, &was_b));
                assert!(matches!(staged.source, Source::Ended));
                assert!(matches!(direct.source, Source::Direct(_)));
                return staged.generated();
            }
        }
    }

    #[test]
    fn staged_and_direct_generators_agree_after_every_call() {
        let constant = config(
            100.0,
            DemandTrace::new(vec![1.0; 11], SimTime::from_secs(30)),
        );
        assert!(transports_agree(constant, 3) > 20 * BATCH as u64);
        let fig5 = config(20.0, TraceKind::Microsoft.demand_trace());
        assert!(transports_agree(fig5, 4) > 20 * BATCH as u64);

        // A stream whose last request ends a batch: the stage hands back
        // one more, empty, batch.
        let edge = config(
            2.0 * BATCH as f64 / 10.0,
            DemandTrace::new(vec![1.0, 1.0], SimTime::from_secs(10)),
        );
        let length = |seed| {
            let mut gen = RequestGenerator::new(edge.clone(), DetRng::seed(seed));
            let mut req = blank();
            while gen.next_request_into(&mut req) {}
            gen.generated()
        };
        let seed = (0..10_000)
            .find(|&seed| length(seed) % BATCH as u64 == 0)
            .expect("a stream of whole batches");
        assert!(transports_agree(edge, seed) >= BATCH as u64);
    }

    #[test]
    fn a_staged_generator_starts_at_its_first_request() {
        let cfg = config(100.0, TraceKind::Sap.demand_trace());
        let mut gen = RequestGenerator::new(cfg, DetRng::seed(1));
        assert!(gen.zipf().n() > 0 && gen.config().items_per_request == 5);
        assert!(matches!(gen.source, Source::Pending(_)), "no thread yet");
        assert!(next_pinned(&mut gen, &mut blank(), 2));
        assert!(matches!(gen.source, Source::Staged(_)));
    }

    #[test]
    fn a_staged_generator_dropped_mid_stream_joins_promptly() {
        // Billions of requests: the stream never ends on its own.
        let cfg = config(1e6, TraceKind::Sap.demand_trace());
        let mut gen = RequestGenerator::new(cfg, DetRng::seed(2));
        assert!(next_pinned(&mut gen, &mut blank(), 2));
        assert!(matches!(gen.source, Source::Staged(_)));
        // Let the stage fill the whole pool and block on it.
        std::thread::sleep(std::time::Duration::from_millis(50));
        let t0 = std::time::Instant::now();
        drop(gen);
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(2),
            "{:?}",
            t0.elapsed()
        );
    }

    #[test]
    #[should_panic]
    fn zero_items_rejected() {
        let mut cfg = config(10.0, TraceKind::Sap.demand_trace());
        cfg.items_per_request = 0;
        let _ = RequestGenerator::new(cfg, DetRng::seed(0));
    }
}
