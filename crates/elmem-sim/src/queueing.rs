//! Multi-server FIFO queueing (the database model).
//!
//! The paper's database "can handle a peak request rate of about 4,000
//! req/s before the latency rises abruptly" (§V-A) — the signature of a
//! server pool saturating. [`ServerPool`] models exactly that: `c` servers,
//! FIFO dispatch to the earliest-free server; below capacity, waiting is
//! near zero; past it, the backlog (and hence latency) grows without bound
//! until load drops — which is what produces the paper's post-scaling
//! latency spikes and multi-minute restoration times.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use elmem_util::SimTime;

/// A pool of identical servers with a shared FIFO queue.
///
/// # Example
///
/// ```
/// use elmem_sim::ServerPool;
/// use elmem_util::SimTime;
///
/// let mut pool = ServerPool::new(1);
/// let s = SimTime::from_millis(10);
/// assert_eq!(pool.submit(SimTime::ZERO, s), SimTime::from_millis(10));
/// // Second job at t=0 queues behind the first.
/// assert_eq!(pool.submit(SimTime::ZERO, s), SimTime::from_millis(20));
/// ```
#[derive(Debug, Clone)]
pub struct ServerPool {
    /// Earliest-free times, one per server (min-heap).
    free_at: BinaryHeap<Reverse<SimTime>>,
}

impl ServerPool {
    /// Creates a pool of `servers` idle servers.
    ///
    /// # Panics
    ///
    /// Panics if `servers == 0`.
    pub fn new(servers: usize) -> Self {
        assert!(servers > 0, "need at least one server");
        let mut free_at = BinaryHeap::with_capacity(servers);
        for _ in 0..servers {
            free_at.push(Reverse(SimTime::ZERO));
        }
        ServerPool { free_at }
    }

    /// Submits a job arriving at `now` needing `service` time; returns its
    /// completion instant (FIFO, earliest-free-server dispatch).
    pub fn submit(&mut self, now: SimTime, service: SimTime) -> SimTime {
        // The earliest-free server takes the job in place: one sift down
        // where a pop and a push took two, over the same multiset.
        let mut free = self.free_at.peek_mut().expect("pool nonempty");
        let done = free.0.max(now) + service;
        *free = Reverse(done);
        done
    }

    /// Current backlog delay an arrival at `now` would see before service
    /// begins (0 when a server is idle).
    pub fn queue_delay(&self, now: SimTime) -> SimTime {
        match self.free_at.peek() {
            Some(Reverse(free)) => free.saturating_sub(now),
            None => SimTime::ZERO,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The pop/push form of [`ServerPool::submit`], kept as its reference.
    fn submit_by_pop_push(pool: &mut ServerPool, now: SimTime, service: SimTime) -> SimTime {
        let Reverse(free) = pool.free_at.pop().expect("pool nonempty");
        let done = free.max(now) + service;
        pool.free_at.push(Reverse(done));
        done
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn submit_matches_pop_and_push(
            servers in 1usize..64,
            ops in proptest::collection::vec((0u64..4, 0u64..5_000, 0u64..20_000), 0..400),
        ) {
            let (mut fast, mut reference) = (ServerPool::new(servers), ServerPool::new(servers));
            let mut now = SimTime::ZERO;
            for (kind, step_us, service_us) in ops {
                // Mostly forward in time, sometimes a late arrival.
                now = if kind == 3 {
                    now.saturating_sub(SimTime::from_micros(step_us))
                } else {
                    now + SimTime::from_micros(step_us)
                };
                if kind == 0 {
                    prop_assert_eq!(fast.queue_delay(now), reference.queue_delay(now));
                } else {
                    let service = SimTime::from_micros(service_us);
                    prop_assert_eq!(
                        fast.submit(now, service),
                        submit_by_pop_push(&mut reference, now, service)
                    );
                }
            }
            prop_assert_eq!(fast.free_at.into_sorted_vec(), reference.free_at.into_sorted_vec());
        }
    }

    #[test]
    fn parallel_servers_run_concurrently() {
        let mut pool = ServerPool::new(2);
        let s = SimTime::from_secs(1);
        assert_eq!(pool.submit(SimTime::ZERO, s), SimTime::from_secs(1));
        assert_eq!(pool.submit(SimTime::ZERO, s), SimTime::from_secs(1));
        // Third queues behind whichever frees first.
        assert_eq!(pool.submit(SimTime::ZERO, s), SimTime::from_secs(2));
    }

    #[test]
    fn idle_pool_serves_immediately() {
        let mut pool = ServerPool::new(4);
        let done = pool.submit(SimTime::from_secs(100), SimTime::from_millis(5));
        assert_eq!(done, SimTime::from_secs(100) + SimTime::from_millis(5));
    }

    #[test]
    fn queue_delay_grows_under_overload() {
        let mut pool = ServerPool::new(1);
        let s = SimTime::from_millis(100);
        // Submit 10 jobs at t=0: 1s of backlog builds.
        for _ in 0..10 {
            pool.submit(SimTime::ZERO, s);
        }
        assert_eq!(pool.queue_delay(SimTime::ZERO), SimTime::from_secs(1));
        // After the backlog drains, delay is zero.
        assert_eq!(pool.queue_delay(SimTime::from_secs(2)), SimTime::ZERO);
    }

    #[test]
    fn overload_latency_rises_abruptly_past_capacity() {
        // 4 servers, 1 ms service → capacity 4000 req/s (the paper's r_DB).
        let service = SimTime::from_millis(1);
        let run = |rate: f64| -> SimTime {
            let mut pool = ServerPool::new(4);
            let mut last_sojourn = SimTime::ZERO;
            let n = 20_000u64;
            for i in 0..n {
                let arrival = SimTime::from_secs_f64(i as f64 / rate);
                let done = pool.submit(arrival, service);
                last_sojourn = done - arrival;
            }
            last_sojourn
        };
        let below = run(3_000.0);
        let above = run(6_000.0);
        assert!(below <= SimTime::from_millis(2), "below: {below}");
        assert!(above > SimTime::from_millis(500), "above: {above}");
    }

    #[test]
    #[should_panic]
    fn zero_servers_rejected() {
        let _ = ServerPool::new(0);
    }
}
