//! The database tier model.

use elmem_sim::ServerPool;
use elmem_util::{DetRng, SimTime};

/// Outcome of one database fetch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DbFetch {
    /// The fetch was served; value available at the instant.
    Served(SimTime),
    /// The database shed the request (queue over the admission bound); the
    /// client observes a timeout at the instant and gets **no data** — so
    /// no cache fill happens.
    ///
    /// Shedding is a *serving-path* outcome, not a failure of the control
    /// plane: during the refill storm that follows a scaling commit, the
    /// database sheds fetches while migration traffic is still settling,
    /// and those sheds do **not** count against the migration supervisor's
    /// transfer retry budget (`RetryPolicy` in `elmem-core`). Only
    /// injected drops of the migration's own metadata/data shipments
    /// consume retries; a shed fetch is simply retried by the client on a
    /// later request, or the key ages back in through the normal miss
    /// path.
    Shed(SimTime),
}

impl DbFetch {
    /// When the client unblocks, served or not.
    pub fn completion(self) -> SimTime {
        match self {
            DbFetch::Served(t) | DbFetch::Shed(t) => t,
        }
    }

    /// Whether data actually arrived.
    pub fn is_served(self) -> bool {
        matches!(self, DbFetch::Served(_))
    }
}

/// The back-end database: a multi-server FIFO queue with exponential
/// service times and bounded admission.
///
/// The paper's ardb/RocksDB database handles ~4,000 req/s before latency
/// "rises abruptly" (§V-A); what matters for post-scaling dynamics is
/// exactly that saturation knee. A real database under sustained overload
/// does not queue unboundedly — requests time out. We model that with an
/// admission bound: a fetch arriving when the backlog exceeds
/// `shed_delay` is rejected and its client observes a timeout of that
/// length. Shed fetches return no data, so cache refills are throttled to
/// roughly the database's capacity — which is what makes the paper's
/// restoration take tens of minutes.
///
/// # Example
///
/// ```
/// use elmem_cluster::DbModel;
/// use elmem_util::{DetRng, SimTime};
///
/// let mut db = DbModel::new(4, SimTime::from_millis(2), SimTime::from_secs(2), DetRng::seed(1));
/// let done = db.fetch(SimTime::ZERO);
/// assert!(done.is_served());
/// ```
#[derive(Debug, Clone)]
pub struct DbModel {
    pool: ServerPool,
    mean_service: SimTime,
    /// `1 / mean_service` in fetches per second: the exponential's rate,
    /// divided once here rather than on every fetch.
    service_rate: f64,
    shed_delay: SimTime,
    rng: DetRng,
    fetches: u64,
    shed: u64,
}

impl DbModel {
    /// Creates a database with `servers` parallel workers, the given mean
    /// per-fetch service time (capacity = `servers / mean_service`), and an
    /// admission bound of `shed_delay` of backlog.
    pub fn new(servers: usize, mean_service: SimTime, shed_delay: SimTime, rng: DetRng) -> Self {
        DbModel {
            pool: ServerPool::new(servers),
            mean_service,
            service_rate: 1.0 / mean_service.as_secs_f64(),
            shed_delay,
            rng,
            fetches: 0,
            shed: 0,
        }
    }

    /// Capacity r_DB in fetches per second.
    pub fn capacity_rps(&self) -> f64 {
        self.pool.servers() as f64 / self.mean_service.as_secs_f64()
    }

    /// Submits a fetch arriving at `now`.
    pub fn fetch(&mut self, now: SimTime) -> DbFetch {
        self.fetches += 1;
        if self.pool.queue_delay(now) > self.shed_delay {
            self.shed += 1;
            return DbFetch::Shed(now + self.shed_delay);
        }
        let service = SimTime::from_secs_f64(self.rng.next_exp(self.service_rate));
        DbFetch::Served(self.pool.submit(now, service))
    }

    /// The backlog delay a fetch arriving at `now` would currently face.
    pub fn queue_delay(&self, now: SimTime) -> SimTime {
        self.pool.queue_delay(now)
    }

    /// Total fetches submitted (served + shed).
    pub fn fetches(&self) -> u64 {
        self.fetches
    }

    /// Fetches rejected by the admission bound.
    pub fn shed(&self) -> u64 {
        self.shed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHED: SimTime = SimTime::from_secs(2);

    #[test]
    fn capacity_formula() {
        let db = DbModel::new(8, SimTime::from_millis(2), SHED, DetRng::seed(0));
        assert!((db.capacity_rps() - 4000.0).abs() < 1e-9);
    }

    #[test]
    fn light_load_is_fast() {
        let mut db = DbModel::new(4, SimTime::from_millis(2), SHED, DetRng::seed(1));
        let mut worst = SimTime::ZERO;
        for i in 0..100u64 {
            // 100 req/s on a 2000 req/s database.
            let at = SimTime::from_millis(i * 10);
            let f = db.fetch(at);
            assert!(f.is_served());
            worst = worst.max(f.completion() - at);
        }
        assert!(worst < SimTime::from_millis(50), "worst {worst}");
        assert_eq!(db.shed(), 0);
    }

    #[test]
    fn overload_builds_backlog_then_sheds() {
        let mut db = DbModel::new(2, SimTime::from_millis(10), SHED, DetRng::seed(2));
        // 2 servers x 100/s = 200/s capacity; offer 2000/s for a second.
        let mut sojourns = Vec::new();
        for i in 0..2000u64 {
            let at = SimTime::from_micros(i * 500);
            sojourns.push(db.fetch(at).completion() - at);
        }
        // Latency climbs past the knee, then is capped by shedding.
        let max = sojourns.iter().copied().max().unwrap();
        assert!(max >= SimTime::from_secs(2), "max {max}");
        assert!(max <= SHED + SimTime::from_secs(1), "max {max}");
        assert!(db.shed() > 0);
        assert!(db.queue_delay(SimTime::from_secs(1)) > SimTime::ZERO);
    }

    #[test]
    fn shed_fetches_return_no_data() {
        let mut db = DbModel::new(
            1,
            SimTime::from_millis(100),
            SimTime::from_millis(50),
            DetRng::seed(4),
        );
        let first = db.fetch(SimTime::ZERO);
        assert!(first.is_served());
        // Backlog now ~100ms > 50ms bound: next fetch is shed.
        let mut saw_shed = false;
        for _ in 0..5 {
            if !db.fetch(SimTime::ZERO).is_served() {
                saw_shed = true;
            }
        }
        assert!(saw_shed);
    }

    #[test]
    fn shed_is_an_outcome_not_an_error() {
        // Sheds are tracked by the db's own counter and surfaced as a
        // normal DbFetch value — nothing in the serving path treats them
        // as control-plane failures (see the `Shed` docs: migration retry
        // budgets are consumed only by injected shipment drops, which are
        // accounted in MigrationReport::transfer_retries, not here).
        let mut db = DbModel::new(
            1,
            SimTime::from_millis(100),
            SimTime::from_millis(10),
            DetRng::seed(5),
        );
        let _ = db.fetch(SimTime::ZERO);
        let f = db.fetch(SimTime::ZERO);
        assert!(!f.is_served());
        assert_eq!(f.completion(), SimTime::from_millis(10));
        assert_eq!(db.shed(), 1);
        assert_eq!(db.fetches(), 2);
    }

    #[test]
    fn service_times_vary() {
        let mut db = DbModel::new(1, SimTime::from_millis(5), SHED, DetRng::seed(3));
        let a = db.fetch(SimTime::ZERO).completion();
        let b = db.fetch(SimTime::from_secs(10)).completion() - SimTime::from_secs(10);
        assert_ne!(a, b);
    }

    #[test]
    fn deterministic_across_seeds() {
        let mut a = DbModel::new(2, SimTime::from_millis(2), SHED, DetRng::seed(7));
        let mut b = DbModel::new(2, SimTime::from_millis(2), SHED, DetRng::seed(7));
        for i in 0..50u64 {
            let t = SimTime::from_millis(i);
            assert_eq!(a.fetch(t), b.fetch(t));
        }
    }
}
