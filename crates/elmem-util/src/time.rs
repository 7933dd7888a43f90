//! Simulated time.
//!
//! The whole reproduction runs on a virtual clock: [`SimTime`] is a number of
//! nanoseconds since simulation start. Using a newtype (rather than
//! `std::time::Duration`) keeps arithmetic explicit, `Copy`, and trivially
//! serializable, and prevents accidental mixing with wall-clock time.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in (or span of) simulated time, in nanoseconds.
///
/// `SimTime` is used both as an instant (nanoseconds since simulation start)
/// and as a duration; the arithmetic is the same and the simulation never
/// needs negative time.
///
/// # Example
///
/// ```
/// use elmem_util::SimTime;
///
/// let t = SimTime::from_millis(1500);
/// assert_eq!(t.as_secs_f64(), 1.5);
/// assert_eq!(t + SimTime::from_millis(500), SimTime::from_secs(2));
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(pub u64);

impl SimTime {
    /// The zero instant (simulation start).
    pub const ZERO: SimTime = SimTime(0);
    /// The maximum representable instant; used as an "infinitely far" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Creates a time from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Creates a time from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Creates a time from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Creates a time from fractional seconds.
    ///
    /// # Panics
    ///
    /// Panics if `s` is negative or not finite.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s.is_finite() && s >= 0.0, "invalid time: {s}");
        SimTime(round_to_u64(s * 1e9))
    }

    /// Nanoseconds since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole microseconds (truncated).
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Whole milliseconds (truncated).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Whole seconds (truncated).
    pub const fn as_secs(self) -> u64 {
        self.0 / 1_000_000_000
    }

    /// Fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Saturating subtraction: returns `ZERO` instead of underflowing.
    ///
    /// ```
    /// use elmem_util::SimTime;
    /// assert_eq!(SimTime::from_secs(1).saturating_sub(SimTime::from_secs(2)), SimTime::ZERO);
    /// ```
    pub fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }

    /// Checked addition; `None` on overflow.
    pub fn checked_add(self, rhs: SimTime) -> Option<SimTime> {
        self.0.checked_add(rhs.0).map(SimTime)
    }

    /// Multiplies the time span by a non-negative float (for scaling service
    /// times by load factors).
    ///
    /// # Panics
    ///
    /// Panics if `f` is negative or not finite.
    #[inline]
    pub fn mul_f64(self, f: f64) -> SimTime {
        assert!(f.is_finite() && f >= 0.0, "invalid factor: {f}");
        SimTime(round_to_u64(self.0 as f64 * f))
    }
}

/// `x.round() as u64` for a non-negative finite `x`, without the libm call
/// the baseline x86-64 target lowers `f64::round` to (this runs once per
/// generated arrival and once per cache lookup).
///
/// Below 2^52 the truncation `t` and the fraction `x − t` are both exact
/// (the fraction is a multiple of `ulp(x) <= 1/2` below 1), so adding one
/// when the fraction reaches one half *is* round-half-away-from-zero — no
/// `x + 0.5`, which rounds 0.49999999999999994 up. From 2^52 on every
/// `f64` is already an integer and the old expression is kept as is.
#[inline]
fn round_to_u64(x: f64) -> u64 {
    const TWO_POW_52: f64 = 4_503_599_627_370_496.0;
    if x < TWO_POW_52 {
        let t = x as u64;
        t + u64::from(x - t as f64 >= 0.5)
    } else {
        x.round() as u64
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl SubAssign for SimTime {
    fn sub_assign(&mut self, rhs: SimTime) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimTime {
    type Output = SimTime;
    fn mul(self, rhs: u64) -> SimTime {
        SimTime(self.0 * rhs)
    }
}

impl Div<u64> for SimTime {
    type Output = SimTime;
    fn div(self, rhs: u64) -> SimTime {
        SimTime(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(SimTime::from_secs(3).as_secs(), 3);
        assert_eq!(SimTime::from_millis(250).as_millis(), 250);
        assert_eq!(SimTime::from_micros(9).as_micros(), 9);
        assert_eq!(SimTime::from_nanos(17).as_nanos(), 17);
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_secs(2);
        let b = SimTime::from_millis(500);
        assert_eq!((a + b).as_millis(), 2500);
        assert_eq!((a - b).as_millis(), 1500);
        assert_eq!((b * 4).as_secs(), 2);
        assert_eq!((a / 2).as_secs(), 1);
    }

    #[test]
    fn saturating_sub_clamps_to_zero() {
        assert_eq!(
            SimTime::from_millis(1).saturating_sub(SimTime::from_secs(1)),
            SimTime::ZERO
        );
    }

    #[test]
    fn from_secs_f64() {
        assert_eq!(SimTime::from_secs_f64(0.001), SimTime::from_millis(1));
        assert_eq!(SimTime::from_secs_f64(2.5).as_millis(), 2500);
    }

    #[test]
    #[should_panic]
    fn from_secs_f64_rejects_negative() {
        let _ = SimTime::from_secs_f64(-1.0);
    }

    #[test]
    fn mul_f64_scales() {
        assert_eq!(SimTime::from_secs(2).mul_f64(1.5).as_millis(), 3000);
        assert_eq!(SimTime::from_secs(2).mul_f64(0.0), SimTime::ZERO);
    }

    #[test]
    fn round_to_u64_is_f64_round() {
        // The old expression is the oracle. Edge cases: the value that
        // breaks `floor(x + 0.5)`, exact halves (away from zero, not to
        // even), both sides of the 2^52 switch, and past 2^53.
        let two_pow_52 = (1u64 << 52) as f64;
        let edges = [
            0.0,
            -0.0,
            0.499_999_999_999_999_94,
            0.5,
            1.5,
            2.5,
            two_pow_52 - 1.5,
            two_pow_52 - 1.0,
            two_pow_52 - 0.5,
            two_pow_52,
            two_pow_52 + 1.0,
            (1u64 << 53) as f64 + 2.0,
            1e18,
            u64::MAX as f64,
            f64::MAX,
        ];
        for x in edges {
            assert_eq!(round_to_u64(x), x.round() as u64, "x = {x:e}");
        }
        // What the serving path feeds it: exponential jitter in ns, as
        // drawn (`from_secs_f64`) and stretched by a slow link (`mul_f64`).
        let mut rng = crate::DetRng::seed(17);
        for i in 0..200_000 {
            let secs = rng.next_exp(if i % 2 == 0 { 5_000.0 } else { 833.0 });
            let x = secs * 1e9;
            assert_eq!(round_to_u64(x), x.round() as u64, "x = {x:e}");
            assert_eq!(
                SimTime::from_secs_f64(secs).mul_f64(50.0).0,
                ((secs * 1e9).round() as u64 as f64 * 50.0).round() as u64
            );
            // Halves and their neighbours at every magnitude drawn.
            let half = x.floor() + 0.5;
            for y in [
                half,
                f64::from_bits(half.to_bits() - 1),
                f64::from_bits(half.to_bits() + 1),
            ] {
                assert_eq!(round_to_u64(y), y.round() as u64, "y = {y:e}");
            }
        }
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(SimTime::from_secs(1).to_string(), "1.000s");
        assert_eq!(SimTime::from_millis(5).to_string(), "5.000ms");
        assert_eq!(SimTime::from_nanos(7).to_string(), "7ns");
    }

    #[test]
    fn display_nonempty_for_zero() {
        assert!(!SimTime::ZERO.to_string().is_empty());
    }

    #[test]
    fn checked_add_detects_overflow() {
        assert!(SimTime::MAX.checked_add(SimTime(1)).is_none());
        assert_eq!(SimTime(1).checked_add(SimTime(2)), Some(SimTime(3)));
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(SimTime::from_millis(999) < SimTime::from_secs(1));
    }
}
