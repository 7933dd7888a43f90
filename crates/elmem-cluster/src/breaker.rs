//! Per-node circuit breakers on the client serving path.
//!
//! A request routed to a dead or partitioned cache node costs the client
//! its full `client_timeout` before it falls back to the database. The
//! breaker bounds how often that price is paid: after
//! [`BreakerConfig::threshold`] consecutive failures against one node it
//! *opens*, and subsequent requests fail over to the database immediately;
//! once [`BreakerConfig::cooldown`] has elapsed it lets a single
//! *half-open* probe request through, closing again only if that probe
//! reaches the node (the standard closed → open → half-open automaton).
//!
//! Breakers are client-side state: they live in the web tier
//! ([`crate::Cluster`]), one per cache node, and are advanced purely by
//! the deterministic simulated clock — no wall-clock, no randomness.

use elmem_util::SimTime;

/// Circuit-breaker parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerConfig {
    /// Consecutive failures that trip the breaker open.
    pub threshold: u32,
    /// How long the breaker stays open before allowing a half-open probe.
    pub cooldown: SimTime,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            threshold: 3,
            cooldown: SimTime::from_secs(5),
        }
    }
}

/// The breaker automaton's state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Requests flow to the node normally.
    Closed,
    /// Requests fail over to the database without contacting the node.
    Open,
    /// The cooldown elapsed: the next request is a probe.
    HalfOpen,
}

/// One node's circuit breaker.
///
/// # Example
///
/// ```
/// use elmem_cluster::breaker::{BreakerConfig, BreakerState, CircuitBreaker};
/// use elmem_util::SimTime;
///
/// let mut b = CircuitBreaker::new(BreakerConfig {
///     threshold: 2,
///     cooldown: SimTime::from_secs(5),
/// });
/// let t = SimTime::from_secs(1);
/// assert!(b.allows(t));
/// b.record_failure(t);
/// b.record_failure(t);
/// assert_eq!(b.state(), BreakerState::Open);
/// assert!(!b.allows(SimTime::from_secs(2)), "open: fail fast");
/// assert!(b.allows(SimTime::from_secs(7)), "cooldown over: half-open probe");
/// b.record_success(SimTime::from_secs(7));
/// assert_eq!(b.state(), BreakerState::Closed);
/// ```
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    state: BreakerState,
    consecutive_failures: u32,
    opened_at: SimTime,
    transitions: u64,
}

impl CircuitBreaker {
    /// A closed breaker.
    pub fn new(config: BreakerConfig) -> Self {
        CircuitBreaker {
            config,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            opened_at: SimTime::ZERO,
            transitions: 0,
        }
    }

    /// Whether a request may contact the node at `now`. Open breakers
    /// whose cooldown has elapsed move to half-open here (and the request
    /// that asked becomes the probe).
    pub fn allows(&mut self, now: SimTime) -> bool {
        if self.state == BreakerState::Open && now >= self.opened_at + self.config.cooldown {
            self.set_state(BreakerState::HalfOpen);
        }
        self.state != BreakerState::Open
    }

    /// Records a request that reached the node.
    pub fn record_success(&mut self, _now: SimTime) {
        self.consecutive_failures = 0;
        if self.state != BreakerState::Closed {
            self.set_state(BreakerState::Closed);
        }
    }

    /// Records a request the node failed to answer (timeout).
    pub fn record_failure(&mut self, now: SimTime) {
        self.consecutive_failures += 1;
        let trip = match self.state {
            // A failed half-open probe re-opens immediately.
            BreakerState::HalfOpen => true,
            BreakerState::Closed => self.consecutive_failures >= self.config.threshold,
            BreakerState::Open => false,
        };
        if trip {
            self.opened_at = now;
            self.set_state(BreakerState::Open);
        }
    }

    /// The current state (without advancing open → half-open).
    #[inline]
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Whether the breaker is closed with no failure streak running — the
    /// state of every breaker on a healthy node. In it, [`Self::allows`]
    /// returns `true` and [`Self::record_success`] changes nothing, so a
    /// caller about to do exactly those two may skip both.
    #[inline]
    pub fn is_settled(&self) -> bool {
        self.state == BreakerState::Closed && self.consecutive_failures == 0
    }

    /// Total state transitions so far (a flap/instability metric).
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    fn set_state(&mut self, state: BreakerState) {
        self.state = state;
        self.transitions += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn breaker(threshold: u32, cooldown_s: u64) -> CircuitBreaker {
        CircuitBreaker::new(BreakerConfig {
            threshold,
            cooldown: SimTime::from_secs(cooldown_s),
        })
    }

    #[test]
    fn stays_closed_below_threshold() {
        let mut b = breaker(3, 5);
        b.record_failure(SimTime::from_secs(1));
        b.record_failure(SimTime::from_secs(2));
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.allows(SimTime::from_secs(3)));
    }

    #[test]
    fn opens_after_threshold_consecutive_failures() {
        let mut b = breaker(3, 5);
        for s in 1..=3 {
            b.record_failure(SimTime::from_secs(s));
        }
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.allows(SimTime::from_secs(4)));
    }

    #[test]
    fn success_resets_the_failure_streak() {
        let mut b = breaker(3, 5);
        b.record_failure(SimTime::from_secs(1));
        b.record_failure(SimTime::from_secs(2));
        b.record_success(SimTime::from_secs(3));
        b.record_failure(SimTime::from_secs(4));
        b.record_failure(SimTime::from_secs(5));
        assert_eq!(b.state(), BreakerState::Closed, "streak was broken");
    }

    #[test]
    fn half_open_probe_closes_on_success() {
        let mut b = breaker(1, 5);
        b.record_failure(SimTime::from_secs(10));
        assert_eq!(b.state(), BreakerState::Open);
        // Cooldown not over: still open.
        assert!(!b.allows(SimTime::from_secs(14)));
        // Cooldown over: the next request probes.
        assert!(b.allows(SimTime::from_secs(15)));
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.record_success(SimTime::from_secs(15));
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn half_open_probe_reopens_on_failure() {
        let mut b = breaker(1, 5);
        b.record_failure(SimTime::from_secs(10));
        assert!(b.allows(SimTime::from_secs(15)));
        b.record_failure(SimTime::from_secs(15));
        assert_eq!(b.state(), BreakerState::Open);
        // The cooldown restarts from the failed probe.
        assert!(!b.allows(SimTime::from_secs(19)));
        assert!(b.allows(SimTime::from_secs(20)));
    }

    #[test]
    fn settled_is_closed_with_no_streak() {
        let mut b = breaker(2, 5);
        assert!(b.is_settled());
        // Settled: the serving path's two calls change nothing.
        assert!(b.allows(SimTime::from_secs(1)));
        b.record_success(SimTime::from_secs(1));
        assert!(b.is_settled());
        assert_eq!(b.transitions(), 0);
        // A running streak unsettles a closed breaker (the next success
        // has a counter to reset) ...
        b.record_failure(SimTime::from_secs(2));
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(!b.is_settled());
        b.record_success(SimTime::from_secs(3));
        assert!(b.is_settled());
        // ... and so does every state but closed.
        b.record_failure(SimTime::from_secs(4));
        b.record_failure(SimTime::from_secs(4));
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.is_settled());
        assert!(b.allows(SimTime::from_secs(9)));
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(!b.is_settled());
        b.record_success(SimTime::from_secs(9));
        assert!(b.is_settled());
    }

    #[test]
    fn transitions_count_every_state_change() {
        let mut b = breaker(1, 5);
        b.record_failure(SimTime::from_secs(1)); // -> Open
        b.allows(SimTime::from_secs(6)); // -> HalfOpen
        b.record_success(SimTime::from_secs(6)); // -> Closed
        assert_eq!(b.transitions(), 3);
    }
}
