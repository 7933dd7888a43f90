//! When and how much to scale (§III-B).
//!
//! The AutoScaler runs on one web server, sampling the keys requested from
//! Memcached. Every epoch (1 minute in the paper) it:
//!
//! 1. derives the minimum hit rate from Eq. (1):
//!    `r·(1 − p_min) < r_DB  ⇒  p_min > 1 − r_DB/r`;
//! 2. uses a continuous stack-distance estimator over the sampled request
//!    stream to find the memory that achieves `p_min`;
//! 3. converts the memory gap to a node count and relays the hint to the
//!    Master.
//!
//! Two deliberate deviations from naive implementations, both required for
//! correct sizing:
//!
//! * **unbounded reuse horizon** — a fixed request window of `W` lookups
//!   can only observe reuse at horizons up to `W` and silently classifies
//!   slower re-references as compulsory misses, wildly under-sizing the
//!   tier. We therefore run a stack-distance engine *continuously* over
//!   the sampled stream (the paper uses MIMIR for this; we run the
//!   [`AdaptiveStackDistance`] engine — exact distances while the
//!   sampled population is small (laptop scale, where the pinned golden
//!   traces live), handing off to MIMIR's O(1) buckets past the
//!   cluster-scale key threshold);
//! * **warm-up guard** — right after startup the sampled stream has seen
//!   few re-accesses, so distance quantiles are biased toward the hot
//!   core; the AutoScaler abstains until `min_observations` lookups have
//!   been sampled.

use elmem_stackdist::AdaptiveStackDistance;
use elmem_util::{ByteSize, KeyId, SimTime};

/// AutoScaler parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct AutoScalerConfig {
    /// Database capacity r_DB, req/s (obtained by profiling, §III-B).
    pub r_db: f64,
    /// Decision epoch (paper: every minute).
    pub epoch: SimTime,
    /// Memory per cache node.
    pub node_memory: ByteSize,
    /// Never scale below this many nodes.
    pub min_nodes: u32,
    /// Never scale above this many nodes.
    pub max_nodes: u32,
    /// Lookups that must be observed before the first scaling hint (the
    /// warm-up guard; scale-in to `min_nodes` on idle demand is exempt).
    pub min_observations: u64,
}

/// How many recent warm-access distance samples the quantile estimate is
/// computed over.
const DISTANCE_SAMPLES: usize = 200_000;

/// Safety headroom multiplied onto the required memory (>1 leaves slack so
/// the achieved hit rate lands above p_min despite estimation noise).
const HEADROOM: f64 = 1.1;

/// Ratio of slab-chunk bytes to item-footprint bytes: stack distances
/// measure unique *footprint* bytes, but Memcached stores each item in a
/// power-ladder chunk (plus page granularity), so the provisioned memory
/// must be larger by this factor (~1.5 for a growth-2 ladder).
const SLAB_OVERHEAD: f64 = 1.5;

impl AutoScalerConfig {
    /// Paper-style defaults for a given r_DB and node memory.
    pub fn new(r_db: f64, node_memory: ByteSize) -> Self {
        AutoScalerConfig {
            r_db,
            epoch: SimTime::from_secs(60),
            node_memory,
            min_nodes: 1,
            max_nodes: 64,
            min_observations: 500_000,
        }
    }
}

/// Whether a decision epoch has passed at `now`, given when the last
/// decision was made (the first falls due one epoch after the start).
pub(crate) fn epoch_elapsed(last_decision: Option<SimTime>, epoch: SimTime, now: SimTime) -> bool {
    match last_decision {
        Some(last) => now.saturating_sub(last) >= epoch,
        None => now >= epoch,
    }
}

/// A scaling hint relayed to the Master.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScalingHint {
    /// Desired member count after scaling.
    pub target_nodes: u32,
    /// Current member count when the hint was issued.
    pub current_nodes: u32,
    /// When the hint was issued.
    pub at: SimTime,
}

impl ScalingHint {
    /// Nodes to remove (scale-in) — zero when scaling out.
    pub fn scale_in_count(&self) -> u32 {
        self.current_nodes.saturating_sub(self.target_nodes)
    }

    /// Nodes to add (scale-out) — zero when scaling in.
    pub fn scale_out_count(&self) -> u32 {
        self.target_nodes.saturating_sub(self.current_nodes)
    }
}

/// The AutoScaler: continuous stack-distance sampling + Eq. (1) sizing.
///
/// # Example
///
/// ```
/// use elmem_core::{AutoScaler, AutoScalerConfig};
/// use elmem_util::{ByteSize, KeyId, SimTime};
///
/// let mut a = AutoScaler::new(AutoScalerConfig::new(1000.0, ByteSize::from_mib(64)));
/// for round in 0..3u64 {
///     for k in 0..100u64 {
///         a.observe(KeyId(k), 100);
///     }
///     let _ = round;
/// }
/// // Demand of 500 req/s needs no cache at all (r_DB = 1000):
/// let hint = a.decide(SimTime::from_secs(60), 500.0, 10);
/// assert!(hint.is_some());
/// assert!(hint.unwrap().target_nodes < 10);
/// ```
#[derive(Debug, Clone)]
pub struct AutoScaler {
    config: AutoScalerConfig,
    engine: AdaptiveStackDistance,
    /// Ring buffer of recent warm-access distances (bytes).
    distances: Vec<u64>,
    /// The ring's length: [`DISTANCE_SAMPLES`], shorter only in this
    /// module's tests.
    ring_len: usize,
    /// How many of `distances` fall in each [`bucket`]: the first digit of
    /// [`Self::memory_for`]'s radix select, kept as the ring turns.
    bucket_counts: Vec<usize>,
    pos: usize,
    observed: u64,
    warm: u64,
    last_decision: Option<SimTime>,
}

impl AutoScaler {
    /// Creates an AutoScaler.
    ///
    /// # Panics
    ///
    /// Panics if `r_db` is non-positive, or `min_nodes > max_nodes` or
    /// `min_nodes == 0`.
    pub fn new(config: AutoScalerConfig) -> Self {
        assert!(config.r_db > 0.0 && config.r_db.is_finite(), "invalid r_db");
        assert!(config.min_nodes <= config.max_nodes, "min > max nodes");
        assert!(config.min_nodes >= 1, "min_nodes must be >= 1");
        AutoScaler {
            engine: AdaptiveStackDistance::new(),
            distances: Vec::with_capacity(DISTANCE_SAMPLES),
            ring_len: DISTANCE_SAMPLES,
            bucket_counts: vec![0; BUCKETS],
            pos: 0,
            observed: 0,
            warm: 0,
            last_decision: None,
            config,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &AutoScalerConfig {
        &self.config
    }

    /// Records one sampled cache lookup (key + item footprint bytes).
    pub fn observe(&mut self, key: KeyId, footprint: u64) {
        self.observed += 1;
        if let Some(d) = self.engine.record(key, footprint) {
            self.warm += 1;
            self.bucket_counts[bucket(d)] += 1;
            if self.distances.len() < self.ring_len {
                self.distances.push(d);
            } else {
                let old = std::mem::replace(&mut self.distances[self.pos], d);
                self.bucket_counts[bucket(old)] -= 1;
                self.pos = (self.pos + 1) % self.ring_len;
            }
        }
    }

    /// Lookups observed so far.
    pub fn observed(&self) -> u64 {
        self.observed
    }

    /// Observed lookups that were re-accesses (warm).
    pub fn warm(&self) -> u64 {
        self.warm
    }

    /// Distinct keys the stack-distance engine currently tracks. Bounded
    /// by the exact→MIMIR switch threshold.
    pub fn profiler_tracked_keys(&self) -> usize {
        self.engine.tracked_keys()
    }

    /// Eq. (1): the minimum hit rate so that at most r_DB req/s miss.
    pub fn p_min(&self, arrival_rate: f64) -> f64 {
        (1.0 - self.config.r_db / arrival_rate).max(0.0)
    }

    /// Whether an epoch has elapsed since the last decision.
    pub fn epoch_elapsed(&self, now: SimTime) -> bool {
        epoch_elapsed(self.last_decision, self.config.epoch, now)
    }

    /// Memory required for a fraction `p` of warm accesses to hit, before
    /// headroom: the `p`-quantile of the recent distance samples.
    /// Cold (first-ever) accesses are compulsory misses that no amount of
    /// memory fixes, so they are excluded from the sizing.
    ///
    /// `None` until at least one warm access has been observed.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn memory_for(&self, p: f64) -> Option<ByteSize> {
        assert!((0.0..=1.0).contains(&p), "hit rate out of range: {p}");
        let n = self.distances.len();
        if n == 0 {
            return None;
        }
        // One order statistic, read in place: the bucket counts name the
        // bucket that holds it and its rank there, and a selection over
        // that bucket's samples alone finds it.
        let mut rank = ((p * n as f64).ceil() as usize).clamp(1, n) - 1;
        let mut b = 0;
        while rank >= self.bucket_counts[b] {
            rank -= self.bucket_counts[b];
            b += 1;
        }
        // `d` is in the bucket iff `d − floor` wraps below its width: one
        // compare, where a two-sided test mispredicts on every sample.
        let floor = bucket_floor(b);
        let width = bucket_floor(b + 1).wrapping_sub(floor);
        let mut kept = Vec::with_capacity(self.bucket_counts[b]);
        kept.extend(
            self.distances
                .iter()
                .copied()
                .filter(|d| d.wrapping_sub(floor) < width),
        );
        Some(ByteSize(*kept.select_nth_unstable(rank).1))
    }

    /// Runs the §III-B sizing at `now` for the observed `arrival_rate`
    /// (cache lookups per second) against the current member count.
    /// Returns a hint when the target differs from the current size,
    /// `None` otherwise. Marks the epoch as consumed either way.
    pub fn decide(
        &mut self,
        now: SimTime,
        arrival_rate: f64,
        current_nodes: u32,
    ) -> Option<ScalingHint> {
        self.last_decision = Some(now);
        if arrival_rate <= 0.0 {
            return None;
        }
        let p_min = self.p_min(arrival_rate);
        let required = if p_min == 0.0 {
            // No cache needed at all: safe to act even before warm-up.
            ByteSize::ZERO
        } else {
            if self.observed < self.config.min_observations {
                return None; // warm-up guard
            }
            ByteSize::from_bytes(
                (self.memory_for(p_min)?.as_f64() * HEADROOM * SLAB_OVERHEAD) as u64,
            )
        };
        let target = required
            .as_u64()
            .div_ceil(self.config.node_memory.as_u64().max(1))
            .clamp(
                u64::from(self.config.min_nodes),
                u64::from(self.config.max_nodes),
            ) as u32;
        (target != current_nodes).then_some(ScalingHint {
            target_nodes: target,
            current_nodes,
            at: now,
        })
    }
}

/// Buckets of [`bucket`]: 16 exact values, then 16 an octave up to 2⁶⁴.
const BUCKETS: usize = 16 * 61;

/// A distance's bucket, in value order: the value itself below 16, else
/// its leading bit's position and the four bits after that bit.
fn bucket(d: u64) -> usize {
    let lead = 63 - (d | 1).leading_zeros() as usize;
    match lead {
        0..4 => d as usize,
        _ => ((lead - 3) << 4) | ((d >> (lead - 4)) & 15) as usize,
    }
}

/// The least distance in bucket `b`; 0 past the last one.
fn bucket_floor(b: usize) -> u64 {
    let b = b as u64;
    if b < 16 {
        b
    } else {
        (16 | (b & 15)) << ((b >> 4) - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn scaler(r_db: f64) -> AutoScaler {
        let mut cfg = AutoScalerConfig::new(r_db, ByteSize::from_mib(1));
        cfg.min_observations = 100;
        AutoScaler::new(cfg)
    }

    #[test]
    fn p_min_formula() {
        let a = scaler(1000.0);
        assert_eq!(a.p_min(500.0), 0.0); // demand below r_DB
        assert!((a.p_min(2000.0) - 0.5).abs() < 1e-12);
        assert!((a.p_min(10_000.0) - 0.9).abs() < 1e-12);
    }

    #[test]
    fn epoch_gating() {
        let mut a = scaler(100.0);
        assert!(!a.epoch_elapsed(SimTime::from_secs(30)));
        assert!(a.epoch_elapsed(SimTime::from_secs(60)));
        a.observe(KeyId(1), 100);
        a.observe(KeyId(1), 100);
        let _ = a.decide(SimTime::from_secs(60), 50.0, 1);
        assert!(!a.epoch_elapsed(SimTime::from_secs(90)));
        assert!(a.epoch_elapsed(SimTime::from_secs(120)));
    }

    #[test]
    fn low_demand_scales_in_to_min() {
        let mut a = scaler(1000.0);
        for round in 0..20u64 {
            for k in 0..50u64 {
                a.observe(KeyId(k), 100);
            }
            let _ = round;
        }
        let hint = a.decide(SimTime::from_secs(60), 200.0, 10).unwrap();
        assert_eq!(hint.target_nodes, 1);
        assert_eq!(hint.scale_in_count(), 9);
        assert_eq!(hint.scale_out_count(), 0);
    }

    #[test]
    fn high_demand_with_reuse_scales_to_fit_working_set() {
        let mut cfg = AutoScalerConfig::new(100.0, ByteSize::from_kib(64));
        cfg.min_observations = 100;
        let mut a = AutoScaler::new(cfg);
        // Working set: 1000 keys × ~1 KB ≈ 1 MB → 16 nodes of 64 KiB.
        for round in 0..10u64 {
            for k in 0..1000u64 {
                a.observe(KeyId(k), 1024);
            }
            let _ = round;
        }
        let hint = a
            .decide(SimTime::from_secs(60), 10_000.0, 4)
            .expect("needs scaling");
        // p_min = 0.99 → needs the whole ~1 MB working set in memory,
        // times slab overhead and headroom: ~16 × 1.65 ≈ 27 nodes.
        assert!(
            (20..=34).contains(&hint.target_nodes),
            "target {}",
            hint.target_nodes
        );
    }

    #[test]
    fn long_horizon_reuse_is_not_mistaken_for_cold() {
        // Keys reused only every 5000 accesses must still contribute their
        // distance — the failure mode of window-based estimators.
        let mut cfg = AutoScalerConfig::new(100.0, ByteSize::from_kib(64));
        cfg.min_observations = 100;
        let mut a = AutoScaler::new(cfg);
        for round in 0..4u64 {
            for k in 0..5000u64 {
                a.observe(KeyId(k), 100);
            }
            let _ = round;
        }
        // 99% of warm accesses need nearly the whole 5000-key set resident.
        let mem = a.memory_for(0.99).unwrap();
        assert!(
            mem.as_u64() > 5000 * 100 / 2,
            "sized {mem} for a 500 KB working set"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn memory_for_selects_what_a_full_sort_would_read(
            capacity in 1usize..300,
            keys in 1u64..80,
            accesses in 0usize..1_500,
            seed in any::<u64>(),
            ps in proptest::collection::vec(0.0f64..1.0, 0..6),
        ) {
            let mut a = AutoScaler::new(AutoScalerConfig::new(100.0, ByteSize::from_mib(1)));
            a.ring_len = capacity;
            // Few keys, many accesses: the ring fills, wraps, and holds
            // runs of equal distances.
            let mut state = seed;
            for _ in 0..accesses {
                state = elmem_util::hashutil::mix64(state);
                a.observe(KeyId(state % keys), 1 + (state >> 40) % 4_096);
            }
            let ring = a.distances.clone();
            let mut sorted = ring.clone();
            sorted.sort_unstable();
            let len = sorted.len();
            prop_assert!(len <= capacity);
            let edges = [0.0, 1.0 / len.max(1) as f64, 1.0];
            for p in ps.into_iter().chain(edges) {
                // The rule the sort-based version applied, verbatim.
                let expected = (len > 0).then(|| {
                    let idx = ((p * len as f64).ceil() as usize).clamp(1, len) - 1;
                    ByteSize(sorted[idx])
                });
                prop_assert_eq!(a.memory_for(p), expected, "p = {}, {} samples", p, len);
            }
            // Selection rearranges the scratch copy, never the ring (its
            // write position is an index into it).
            prop_assert_eq!(&a.distances, &ring);
        }
    }

    #[test]
    fn buckets_tile_the_values_in_order() {
        // Bucket `b` is exactly [floor(b), floor(b + 1)): both ends map to
        // it, the floors ascend, and the last bucket ends at u64::MAX.
        for b in 0..BUCKETS {
            let (floor, next) = (bucket_floor(b), bucket_floor(b + 1));
            assert_eq!(bucket(floor), b);
            assert_eq!(bucket(next.wrapping_sub(1)), b);
            assert!(b == BUCKETS - 1 || floor < next);
        }
        assert_eq!(bucket_floor(BUCKETS).wrapping_sub(1), u64::MAX);
    }

    #[test]
    fn no_hint_when_size_already_right() {
        let mut a = scaler(1000.0);
        for k in 0..100u64 {
            a.observe(KeyId(k), 100);
        }
        // Demand below capacity → target = min_nodes = 1; current is 1.
        assert!(a.decide(SimTime::from_secs(60), 100.0, 1).is_none());
    }

    #[test]
    fn cold_only_window_gives_no_memory_estimate() {
        let mut a = scaler(100.0);
        for k in 0..1000u64 {
            a.observe(KeyId(k), 100);
        }
        assert_eq!(a.warm(), 0);
        assert!(a.memory_for(0.9).is_none());
        // And decide() abstains rather than guessing.
        assert!(a.decide(SimTime::from_secs(60), 1_000.0, 3).is_none());
    }

    #[test]
    fn decide_with_zero_rate_is_none() {
        let mut a = scaler(100.0);
        a.observe(KeyId(1), 10);
        assert!(a.decide(SimTime::from_secs(60), 0.0, 3).is_none());
    }

    #[test]
    fn counters_track_observations() {
        let mut a = scaler(100.0);
        a.observe(KeyId(1), 10);
        a.observe(KeyId(1), 10);
        a.observe(KeyId(2), 10);
        assert_eq!(a.observed(), 3);
        assert_eq!(a.warm(), 1);
    }

    #[test]
    #[should_panic]
    fn invalid_r_db_rejected() {
        let _ = AutoScaler::new(AutoScalerConfig::new(0.0, ByteSize::from_mib(1)));
    }

    #[test]
    #[should_panic]
    fn memory_for_out_of_range_panics() {
        let a = scaler(100.0);
        let _ = a.memory_for(1.5);
    }
}
