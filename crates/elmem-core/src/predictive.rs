//! Predictive autoscaling (the paper's pluggable Q1 module).
//!
//! §III-B: "the exact autoscaling algorithm is a pluggable module. Thus,
//! the user can input a different autoscaling algorithm, such as a
//! predictive scaling framework \[6\]\[41\], if needed." This module is
//! that plug-in point: a Holt linear-trend (double-exponential) demand
//! forecaster layered on the same Eq. (1) + stack-distance sizing.
//!
//! The operational win of prediction under ElMem: migration takes ~2
//! minutes (§V-B2), so acting on demand forecast `lead_epochs` ahead means
//! capacity (with its hot data!) is ready *when* the demand arrives rather
//! than 2 minutes after. Scale-in remains reactive (`max(current,
//! predicted)`) — scaling down on a forecast risks SLOs for pennies.

use elmem_util::{KeyId, SimTime};

use crate::autoscaler::{AutoScaler, AutoScalerConfig, ScalingHint};

/// Configuration of the predictive wrapper.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictiveConfig {
    /// The underlying reactive sizing.
    pub reactive: AutoScalerConfig,
    /// Smoothing factor for the demand level (0–1; higher = more reactive).
    pub alpha: f64,
    /// Smoothing factor for the demand trend (0–1).
    pub beta: f64,
    /// How many epochs ahead the forecast looks.
    pub lead_epochs: u32,
}

impl PredictiveConfig {
    /// Sensible defaults: Holt(α = 0.5, β = 0.3), two epochs of lead —
    /// enough to cover ElMem's migration overhead at a 1-minute epoch.
    pub fn new(reactive: AutoScalerConfig) -> Self {
        PredictiveConfig {
            reactive,
            alpha: 0.5,
            beta: 0.3,
            lead_epochs: 2,
        }
    }
}

/// A Holt linear-trend forecaster wrapped around the reactive
/// [`AutoScaler`]: sizes for `max(current, forecast)` demand.
///
/// # Example
///
/// ```
/// use elmem_core::{AutoScalerConfig, PredictiveAutoScaler, PredictiveConfig};
/// use elmem_util::{ByteSize, KeyId, SimTime};
///
/// let reactive = AutoScalerConfig::new(1000.0, ByteSize::from_mib(64));
/// let mut p = PredictiveAutoScaler::new(PredictiveConfig::new(reactive));
/// for k in 0..200u64 {
///     p.observe(KeyId(k % 50), 100);
/// }
/// // Rising demand: 500 now, forecast climbs above it.
/// let _ = p.decide(SimTime::from_secs(60), 500.0, 4);
/// let hint = p.decide(SimTime::from_secs(120), 900.0, 4);
/// assert!(hint.is_none() || hint.unwrap().target_nodes >= 1);
/// ```
#[derive(Debug, Clone)]
pub struct PredictiveAutoScaler {
    inner: AutoScaler,
    config: PredictiveConfig,
    level: f64,
    trend: f64,
    initialized: bool,
}

impl PredictiveAutoScaler {
    /// Creates the predictive scaler.
    ///
    /// # Panics
    ///
    /// Panics if `alpha`/`beta` are outside `(0, 1]` or the reactive config
    /// is invalid.
    pub fn new(config: PredictiveConfig) -> Self {
        assert!(
            config.alpha > 0.0 && config.alpha <= 1.0,
            "alpha out of range"
        );
        assert!(config.beta > 0.0 && config.beta <= 1.0, "beta out of range");
        PredictiveAutoScaler {
            inner: AutoScaler::new(config.reactive.clone()),
            config,
            level: 0.0,
            trend: 0.0,
            initialized: false,
        }
    }

    /// Records one sampled cache lookup (delegates to the reactive core).
    pub fn observe(&mut self, key: KeyId, footprint: u64) {
        self.inner.observe(key, footprint);
    }

    /// Whether an epoch has elapsed since the last decision.
    pub fn epoch_elapsed(&self, now: SimTime) -> bool {
        self.inner.epoch_elapsed(now)
    }

    /// Distinct keys the reactive core's stack-distance engine tracks.
    pub fn profiler_tracked_keys(&self) -> usize {
        self.inner.profiler_tracked_keys()
    }

    /// The current demand forecast `lead_epochs` ahead, after at least one
    /// rate observation.
    pub fn forecast(&self) -> Option<f64> {
        self.initialized
            .then(|| (self.level + self.trend * f64::from(self.config.lead_epochs)).max(0.0))
    }

    /// Updates the forecast with the epoch's observed rate and runs the
    /// Eq. (1) sizing on `max(current, forecast)` — scale out ahead of
    /// demand, scale in only on observed demand.
    pub fn decide(
        &mut self,
        now: SimTime,
        arrival_rate: f64,
        current_nodes: u32,
    ) -> Option<ScalingHint> {
        self.update_forecast(arrival_rate);
        let planning_rate = self
            .forecast()
            .map_or(arrival_rate, |f| f.max(arrival_rate));
        self.inner.decide(now, planning_rate, current_nodes)
    }

    fn update_forecast(&mut self, rate: f64) {
        if !self.initialized {
            self.level = rate;
            self.trend = 0.0;
            self.initialized = true;
            return;
        }
        let prev_level = self.level;
        self.level =
            self.config.alpha * rate + (1.0 - self.config.alpha) * (prev_level + self.trend);
        self.trend =
            self.config.beta * (self.level - prev_level) + (1.0 - self.config.beta) * self.trend;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elmem_util::ByteSize;

    fn reactive() -> AutoScalerConfig {
        let mut cfg = AutoScalerConfig::new(1000.0, ByteSize::from_kib(64));
        cfg.min_observations = 50;
        cfg
    }

    fn warmed(cfg: PredictiveConfig) -> PredictiveAutoScaler {
        let mut p = PredictiveAutoScaler::new(cfg);
        for round in 0..5u64 {
            for k in 0..500u64 {
                p.observe(KeyId(k), 1024);
            }
            let _ = round;
        }
        p
    }

    #[test]
    fn steady_demand_matches_reactive() {
        let mut p = warmed(PredictiveConfig::new(reactive()));
        let mut r = AutoScaler::new(reactive());
        for round in 0..5u64 {
            for k in 0..500u64 {
                r.observe(KeyId(k), 1024);
            }
            let _ = round;
        }
        for epoch in 1..6u64 {
            let now = SimTime::from_secs(60 * epoch);
            let hp = p.decide(now, 5000.0, 1);
            let hr = r.decide(now, 5000.0, 1);
            assert_eq!(
                hp.map(|h| h.target_nodes),
                hr.map(|h| h.target_nodes),
                "epoch {epoch}"
            );
        }
    }

    #[test]
    fn rising_demand_provisions_ahead() {
        let mut p = warmed(PredictiveConfig::new(reactive()));
        let mut r = AutoScaler::new(reactive());
        for round in 0..5u64 {
            for k in 0..500u64 {
                r.observe(KeyId(k), 1024);
            }
            let _ = round;
        }
        // Demand ramps 2k, 4k, 6k, 8k per epoch.
        let mut predictive_target = 0;
        let mut reactive_target = 0;
        for (epoch, rate) in [(1u64, 2000.0), (2, 4000.0), (3, 6000.0), (4, 8000.0)] {
            let now = SimTime::from_secs(60 * epoch);
            if let Some(h) = p.decide(now, rate, 1) {
                predictive_target = h.target_nodes;
            }
            if let Some(h) = r.decide(now, rate, 1) {
                reactive_target = h.target_nodes;
            }
        }
        assert!(
            predictive_target >= reactive_target,
            "predictive {predictive_target} < reactive {reactive_target}"
        );
        // The forecast itself must exceed the last observed rate.
        assert!(p.forecast().unwrap() > 8000.0);
    }

    #[test]
    fn falling_demand_never_scales_below_reactive() {
        let mut p = warmed(PredictiveConfig::new(reactive()));
        let mut r = AutoScaler::new(reactive());
        for round in 0..5u64 {
            for k in 0..500u64 {
                r.observe(KeyId(k), 1024);
            }
            let _ = round;
        }
        for (epoch, rate) in [(1u64, 9000.0), (2, 6000.0), (3, 3000.0), (4, 2000.0)] {
            let now = SimTime::from_secs(60 * epoch);
            let hp = p.decide(now, rate, 20).map(|h| h.target_nodes);
            let hr = r.decide(now, rate, 20).map(|h| h.target_nodes);
            if let (Some(tp), Some(tr)) = (hp, hr) {
                assert!(
                    tp >= tr,
                    "epoch {epoch}: predictive scaled in deeper ({tp}) than reactive ({tr})"
                );
            }
        }
    }

    #[test]
    fn forecast_none_before_first_rate() {
        let p = PredictiveAutoScaler::new(PredictiveConfig::new(reactive()));
        assert!(p.forecast().is_none());
    }

    #[test]
    fn forecast_tracks_linear_ramp() {
        let mut p = PredictiveAutoScaler::new(PredictiveConfig::new(reactive()));
        for i in 0..30u64 {
            p.decide(SimTime::from_secs(60 * (i + 1)), 100.0 * i as f64, 1);
        }
        // A converged Holt forecast on a perfect ramp of slope 100/epoch
        // with lead 2 sits ~200 above the last level.
        let f = p.forecast().unwrap();
        assert!(
            (2900.0..3400.0).contains(&f),
            "forecast {f} for ramp ending at 2900"
        );
    }

    #[test]
    #[should_panic]
    fn invalid_alpha_rejected() {
        let mut cfg = PredictiveConfig::new(reactive());
        cfg.alpha = 0.0;
        let _ = PredictiveAutoScaler::new(cfg);
    }
}
