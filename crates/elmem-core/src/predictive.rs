//! Predictive autoscaling: the forecaster Ablation 4 compares against the
//! reactive AutoScaler.
//!
//! §III-B: "the exact autoscaling algorithm is a pluggable module. Thus,
//! the user can input a different autoscaling algorithm, such as a
//! predictive scaling framework \[6\]\[41\], if needed." This module is
//! one such algorithm: a Holt linear-trend (double-exponential) demand
//! forecaster layered on the same Eq. (1) + stack-distance sizing. The
//! experiment driver runs only the reactive scaler; `elmem-bench`'s
//! Ablation 4 drives both side by side.
//!
//! The operational win of prediction under ElMem: migration takes ~2
//! minutes (§V-B2), so acting on demand forecast `LEAD_EPOCHS` ahead
//! means capacity (with its hot data!) is ready *when* the demand arrives
//! rather than 2 minutes after. Scale-in remains reactive (`max(current,
//! predicted)`) — scaling down on a forecast risks SLOs for pennies.

use elmem_util::{KeyId, SimTime};

use crate::autoscaler::{AutoScaler, AutoScalerConfig, ScalingHint};

/// Smoothing factor for the demand level (0–1; higher = more reactive).
const ALPHA: f64 = 0.5;

/// Smoothing factor for the demand trend (0–1).
const BETA: f64 = 0.3;

/// How many epochs ahead the forecast looks: two cover ElMem's migration
/// overhead at a 1-minute epoch.
const LEAD_EPOCHS: f64 = 2.0;

/// A Holt linear-trend forecaster wrapped around the reactive
/// [`AutoScaler`]: sizes for `max(current, forecast)` demand.
///
/// # Example
///
/// ```
/// use elmem_core::{AutoScalerConfig, PredictiveAutoScaler};
/// use elmem_util::{ByteSize, KeyId, SimTime};
///
/// let reactive = AutoScalerConfig::new(1000.0, ByteSize::from_mib(64));
/// let mut p = PredictiveAutoScaler::new(reactive);
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
    level: f64,
    trend: f64,
    initialized: bool,
}

impl PredictiveAutoScaler {
    /// Creates the predictive scaler around a reactive one built from
    /// `reactive`.
    ///
    /// # Panics
    ///
    /// Panics if the reactive config is invalid (see [`AutoScaler::new`]).
    pub fn new(reactive: AutoScalerConfig) -> Self {
        PredictiveAutoScaler {
            inner: AutoScaler::new(reactive),
            level: 0.0,
            trend: 0.0,
            initialized: false,
        }
    }

    /// Records one sampled cache lookup (delegates to the reactive core).
    pub fn observe(&mut self, key: KeyId, footprint: u64) {
        self.inner.observe(key, footprint);
    }

    /// The current demand forecast `LEAD_EPOCHS` ahead, after at least
    /// one rate observation.
    pub fn forecast(&self) -> Option<f64> {
        self.initialized
            .then(|| (self.level + self.trend * LEAD_EPOCHS).max(0.0))
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
        self.level = ALPHA * rate + (1.0 - ALPHA) * (prev_level + self.trend);
        self.trend = BETA * (self.level - prev_level) + (1.0 - BETA) * self.trend;
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

    fn warmed(cfg: AutoScalerConfig) -> PredictiveAutoScaler {
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
        let mut p = warmed(reactive());
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
        let mut p = warmed(reactive());
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
        let mut p = warmed(reactive());
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
        let p = PredictiveAutoScaler::new(reactive());
        assert!(p.forecast().is_none());
    }

    #[test]
    fn forecast_tracks_linear_ramp() {
        let mut p = PredictiveAutoScaler::new(reactive());
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
}
