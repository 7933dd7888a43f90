//! The request generator: trace-modulated Poisson arrivals of multi-get
//! web requests (the paper's httperf + PHP front end, §V-A).

use elmem_util::{DetRng, KeyId, SimTime};

use crate::keyspace::Keyspace;
use crate::traces::DemandTrace;
use crate::zipf::ZipfPopularity;

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
    zipf: ZipfPopularity,
    arrivals_rng: DetRng,
    keys_rng: DetRng,
    now: SimTime,
    generated: u64,
}

impl RequestGenerator {
    /// Creates a generator.
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
        let zipf = ZipfPopularity::new(
            config.keyspace.n_keys(),
            config.zipf_exponent,
            rng.split("zipf-perm").next_f64().to_bits(),
        );
        RequestGenerator {
            arrivals_rng: rng.split("arrivals"),
            keys_rng: rng.split("keys"),
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
    /// [`Self::next_request`] calls.
    pub fn next_request_into(&mut self, req: &mut WebRequest) -> bool {
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

    #[test]
    #[should_panic]
    fn zero_items_rejected() {
        let mut cfg = config(10.0, TraceKind::Sap.demand_trace());
        cfg.items_per_request = 0;
        let _ = RequestGenerator::new(cfg, DetRng::seed(0));
    }
}
