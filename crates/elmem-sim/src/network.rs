//! Network links: latency + serialized bandwidth.
//!
//! ElMem "regulates data movement over the network" (§I); migration phases
//! pipe tarballs of metadata and KV pairs between nodes over ssh (§III-D1).
//! We model each node's NIC as a [`Link`]: transfers are serialized FIFO
//! behind earlier transfers on the same link and take
//! `latency + bytes/bandwidth`.

use elmem_util::{ByteSize, SimTime};

/// A slowdown divides bandwidth: only a finite factor ≥ 1 means anything.
/// [`Link::apply_slowdown`] and every way a factor enters a `FaultPlan`
/// check this one predicate, so a plan refuses a bad factor where it is
/// built, not later inside a running experiment.
pub fn valid_slowdown(factor: f64) -> bool {
    factor >= 1.0 && factor.is_finite()
}

/// A serialized network link (one per node NIC, or one per flow as needed).
///
/// # Example
///
/// ```
/// use elmem_sim::Link;
/// use elmem_util::{ByteSize, SimTime};
///
/// // 1 Gbit/s ≈ 125 MB/s, 0.1 ms latency.
/// let mut link = Link::new(125_000_000.0, SimTime::from_micros(100));
/// let done = link.schedule_transfer(SimTime::ZERO, ByteSize::from_mib(125));
/// // ~1.05 s (125 MiB is a bit more than 125 MB).
/// assert!(done > SimTime::from_secs(1));
/// assert!(done < SimTime::from_millis(1100));
/// ```
#[derive(Debug, Clone)]
pub struct Link {
    /// Bytes per second currently achievable (base divided by any active
    /// slowdown).
    bandwidth: f64,
    /// Nominal bytes per second, restored when a slowdown heals.
    base_bandwidth: f64,
    /// Per-transfer propagation/setup latency.
    latency: SimTime,
    /// The instant the link frees up.
    busy_until: SimTime,
    /// The instant an injected partition heals (`ZERO` when none active).
    partitioned_until: SimTime,
}

impl Link {
    /// Creates a link.
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth_bytes_per_sec` is not strictly positive/finite.
    pub fn new(bandwidth_bytes_per_sec: f64, latency: SimTime) -> Self {
        assert!(
            bandwidth_bytes_per_sec > 0.0 && bandwidth_bytes_per_sec.is_finite(),
            "invalid bandwidth"
        );
        Link {
            bandwidth: bandwidth_bytes_per_sec,
            base_bandwidth: bandwidth_bytes_per_sec,
            latency,
            busy_until: SimTime::ZERO,
            partitioned_until: SimTime::ZERO,
        }
    }

    /// Schedules a FIFO transfer starting no earlier than `now`; returns its
    /// completion time and advances the link's busy horizon.
    pub fn schedule_transfer(&mut self, now: SimTime, bytes: ByteSize) -> SimTime {
        let start = self.busy_until.max(now);
        let duration = SimTime::from_secs_f64(bytes.as_f64() / self.bandwidth) + self.latency;
        self.busy_until = start + duration;
        self.busy_until
    }

    /// When the link next becomes idle.
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// Per-transfer propagation/setup latency.
    pub fn latency(&self) -> SimTime {
        self.latency
    }

    /// Active slowdown factor: 1.0 on a healthy link, > 1 while degraded.
    pub fn slowdown_factor(&self) -> f64 {
        self.base_bandwidth / self.bandwidth
    }

    /// Whether the link is inside an injected partition window at `now`.
    /// While partitioned, no traffic passes: the node is unreachable on
    /// the serving path, and queued transfers wait for the heal instant.
    pub fn is_partitioned(&self, now: SimTime) -> bool {
        now < self.partitioned_until
    }

    /// Degrades the link to `1/factor` of its *base* bandwidth (fault
    /// injection: a congested or flapping uplink). Repeated slowdowns
    /// replace rather than compound each other.
    ///
    /// # Panics
    ///
    /// Panics unless [`valid_slowdown`] accepts `factor`.
    pub fn apply_slowdown(&mut self, factor: f64) {
        assert!(valid_slowdown(factor), "invalid slowdown factor {factor}");
        self.bandwidth = self.base_bandwidth / factor;
    }

    /// Heals any active slowdown, restoring the base bandwidth.
    pub fn restore_bandwidth(&mut self) {
        self.bandwidth = self.base_bandwidth;
    }

    /// Blocks the link until `until` (fault injection: a partition).
    /// Transfers scheduled meanwhile queue behind the heal instant, and
    /// [`Link::is_partitioned`] reports the window to the serving path.
    pub fn partition_until(&mut self, until: SimTime) {
        self.busy_until = self.busy_until.max(until);
        self.partitioned_until = self.partitioned_until.max(until);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 1 Gbit/s link with 0.1 ms latency (a typical cloud-VM NIC).
    fn gigabit() -> Link {
        Link::new(125_000_000.0, SimTime::from_micros(100))
    }

    #[test]
    fn transfer_time_scales_with_bytes() {
        let mut link = Link::new(1000.0, SimTime::ZERO);
        let done = link.schedule_transfer(SimTime::ZERO, ByteSize(500));
        assert_eq!(done, SimTime::from_millis(500));
        let done = link.schedule_transfer(SimTime::from_secs(10), ByteSize(2000));
        assert_eq!(done, SimTime::from_secs(12));
    }

    #[test]
    fn transfers_serialize_fifo() {
        let mut link = Link::new(1000.0, SimTime::ZERO);
        let first = link.schedule_transfer(SimTime::ZERO, ByteSize(1000));
        assert_eq!(first, SimTime::from_secs(1));
        // Second transfer submitted at t=0 must wait for the first.
        let second = link.schedule_transfer(SimTime::ZERO, ByteSize(1000));
        assert_eq!(second, SimTime::from_secs(2));
    }

    #[test]
    fn idle_gap_is_not_accumulated() {
        let mut link = Link::new(1000.0, SimTime::ZERO);
        link.schedule_transfer(SimTime::ZERO, ByteSize(1000));
        // Submit long after the link idles: starts at `now`.
        let done = link.schedule_transfer(SimTime::from_secs(10), ByteSize(1000));
        assert_eq!(done, SimTime::from_secs(11));
    }

    #[test]
    fn latency_added_per_transfer() {
        let mut link = Link::new(1_000_000.0, SimTime::from_millis(5));
        let done = link.schedule_transfer(SimTime::ZERO, ByteSize(0));
        assert_eq!(done, SimTime::from_millis(5));
    }

    #[test]
    #[should_panic]
    fn zero_bandwidth_rejected() {
        let _ = Link::new(0.0, SimTime::ZERO);
    }

    #[test]
    fn slowdown_scales_transfer_time_and_heals() {
        // Each transfer starts on an idle link, so its duration is the
        // completion minus the link's previous busy horizon.
        let mut link = Link::new(1000.0, SimTime::ZERO);
        let duration = |link: &mut Link| {
            let start = link.busy_until();
            link.schedule_transfer(start, ByteSize(1000)) - start
        };
        link.apply_slowdown(4.0);
        assert_eq!(duration(&mut link), SimTime::from_secs(4));
        // A second slowdown replaces (not compounds) the first.
        link.apply_slowdown(2.0);
        assert_eq!(duration(&mut link), SimTime::from_secs(2));
        link.restore_bandwidth();
        assert_eq!(duration(&mut link), SimTime::from_secs(1));
    }

    #[test]
    fn partition_delays_queued_transfers() {
        let mut link = Link::new(1000.0, SimTime::ZERO);
        link.partition_until(SimTime::from_secs(10));
        let done = link.schedule_transfer(SimTime::ZERO, ByteSize(1000));
        assert_eq!(done, SimTime::from_secs(11));
        // Healing is implicit: after the partition instant, new transfers
        // queue normally.
        let later = link.schedule_transfer(SimTime::from_secs(20), ByteSize(1000));
        assert_eq!(later, SimTime::from_secs(21));
    }

    #[test]
    fn partition_window_is_visible_to_the_serving_path() {
        let mut link = gigabit();
        assert!(!link.is_partitioned(SimTime::ZERO));
        link.partition_until(SimTime::from_secs(10));
        assert!(link.is_partitioned(SimTime::from_secs(5)));
        assert!(!link.is_partitioned(SimTime::from_secs(10)), "heal instant");
    }

    #[test]
    fn slowdown_factor_tracks_degradation() {
        let mut link = gigabit();
        assert_eq!(link.slowdown_factor(), 1.0);
        link.apply_slowdown(8.0);
        assert_eq!(link.slowdown_factor(), 8.0);
        link.restore_bandwidth();
        assert_eq!(link.slowdown_factor(), 1.0);
    }

    #[test]
    #[should_panic]
    fn slowdown_below_one_rejected() {
        let mut link = gigabit();
        link.apply_slowdown(0.9);
    }
}
