//! The AutoScaler as a pipeline stage beside the serving loop.
//!
//! §III-B's AutoScaler "runs on one web server, sampling the keys
//! requested from Memcached" — beside the request path, not on it. The
//! experiment driver therefore never profiles a key itself: it appends
//! each request's keys to an open batch, and a stage that owns the scaler
//! and a [`Keyspace`] clone consumes whole batches, strictly in the order
//! they were filled. [`ScalerStage::decide`] first flushes the open batch
//! and then waits for the answer, so at every decision the scaler has
//! observed exactly the lookups served before it — the same prefix of the
//! key stream as a per-lookup call would have shown it — and every hint,
//! and with it every output of the run, is bit-identical by construction.
//!
//! [`Observer::apply`] runs on the shared [`Stage`]: a thread fed from a
//! fixed pool of batch buffers that come back emptied, or, at
//! `par_jobs() == 1`, a direct call with the same batching, which costs
//! what the per-lookup call did (EXPERIMENTS.md E24). The gain is the
//! overlap: profiling a lookup costs about as much as serving it.

use elmem_store::item::item_footprint;
use elmem_util::stage::Stage;
use elmem_util::{KeyId, SimTime};
use elmem_workload::Keyspace;

use crate::autoscaler::{epoch_elapsed, AutoScaler, AutoScalerConfig, ScalingHint};

/// Keys per batch: ≈ 400 five-key requests, 16 KiB. Large enough that a
/// batch's channel hop and wake-up (a few µs) vanish against the ≈ 160 µs
/// of profiling it carries, small enough that the whole pool stays in L2.
const BATCH_KEYS: usize = 2048;

/// Batch buffers in circulation: one open on the driver, the rest queued,
/// being profiled or on their way back. The driver can run at most this
/// far ahead of the stage.
const POOL: usize = 4;

/// What the driver sends the stage.
#[derive(Debug)]
enum Msg {
    /// Lookups served since the previous batch, in serving order.
    Observe(Vec<KeyId>),
    /// Size the tier now (one epoch's decision).
    Decide {
        now: SimTime,
        rate: f64,
        members: u32,
    },
    /// How many distinct keys does the profiler track?
    TrackedKeys,
}

/// What the stage answers, one reply per message, in message order.
#[derive(Debug)]
enum Reply {
    /// The batch's buffer, emptied, for the pool.
    Observed(Vec<KeyId>),
    Decided(Option<ScalingHint>),
    TrackedKeys(usize),
}

/// The stage's state: a scaler and what it needs to price a key.
#[derive(Debug)]
struct Observer {
    scaler: AutoScaler,
    keyspace: Keyspace,
}

impl Observer {
    fn apply(&mut self, msg: Msg) -> Reply {
        match msg {
            Msg::Observe(mut keys) => {
                for &key in &keys {
                    let footprint = item_footprint(self.keyspace.value_size(key));
                    self.scaler.observe(key, footprint);
                }
                keys.clear();
                Reply::Observed(keys)
            }
            Msg::Decide { now, rate, members } => {
                Reply::Decided(self.scaler.decide(now, rate, members))
            }
            Msg::TrackedKeys => Reply::TrackedKeys(self.scaler.profiler_tracked_keys()),
        }
    }
}

/// The driver's handle on the stage.
pub(crate) struct ScalerStage {
    /// Keys served since the last flush.
    open: Vec<KeyId>,
    /// Emptied buffers ready to become the open batch.
    spare: Vec<Vec<KeyId>>,
    stage: Stage<Msg, Reply>,
    epoch: SimTime,
    last_decision: Option<SimTime>,
}

impl ScalerStage {
    /// Starts the stage for one run: a thread when the library may fan
    /// out, a direct call when `par_jobs()` is 1.
    pub(crate) fn start(config: &AutoScalerConfig, keyspace: Keyspace) -> Self {
        let epoch = config.epoch;
        let mut observer = Observer {
            scaler: AutoScaler::new(config.clone()),
            keyspace,
        };
        // At most POOL messages are ever unanswered — every buffer but the
        // open one, plus a query — as the stage requires; the pool running
        // dry is the back-pressure. The whole pool is allocated here.
        let threaded = elmem_util::par::par_jobs() > 1;
        let stage = Stage::new(threaded, "elmem-scaler", POOL, move |msg| {
            observer.apply(msg)
        });
        let mut pool = (0..POOL).map(|_| Vec::with_capacity(BATCH_KEYS));
        ScalerStage {
            open: pool.next().expect("POOL >= 1"),
            spare: pool.collect(),
            stage,
            epoch,
            last_decision: None,
        }
    }

    /// Queues one served request's keys for the profiler.
    pub(crate) fn observe(&mut self, keys: &[KeyId]) {
        // Flush before a batch would outgrow its buffer, not after.
        if self.open.len() + keys.len() > BATCH_KEYS {
            self.flush();
        }
        self.open.extend_from_slice(keys);
    }

    /// Whether an epoch has elapsed since the last decision. Answered
    /// here: the driver asks before every request.
    pub(crate) fn epoch_elapsed(&self, now: SimTime) -> bool {
        epoch_elapsed(self.last_decision, self.epoch, now)
    }

    /// One epoch's sizing over everything observed so far — a synchronous
    /// round trip behind the flushed open batch.
    pub(crate) fn decide(&mut self, now: SimTime, rate: f64, members: u32) -> Option<ScalingHint> {
        self.last_decision = Some(now);
        match self.ask(Msg::Decide { now, rate, members }) {
            Reply::Decided(hint) => hint,
            other => unreachable!("replies arrive in message order, got {other:?}"),
        }
    }

    /// Ends the run: flushes, reads the profiler's population and joins
    /// the stage.
    pub(crate) fn finish(mut self) -> usize {
        let tracked = match self.ask(Msg::TrackedKeys) {
            Reply::TrackedKeys(n) => n,
            other => unreachable!("replies arrive in message order, got {other:?}"),
        };
        self.stage.join();
        tracked
    }

    /// Sends the open batch (if any) and opens an emptied buffer, waiting
    /// for the stage to return one if the whole pool is in flight.
    fn flush(&mut self) {
        if self.open.is_empty() {
            return;
        }
        let batch = std::mem::take(&mut self.open);
        let mut reply = self.stage.post(Msg::Observe(batch));
        while reply.is_some() || self.spare.is_empty() {
            match reply.take().unwrap_or_else(|| self.stage.wait()) {
                Reply::Observed(buffer) => self.spare.push(buffer),
                other => unreachable!("no query is outstanding, got {other:?}"),
            }
        }
        self.open = self.spare.pop().expect("refilled above");
    }

    /// Flushes, posts a query and blocks for its answer; batch buffers
    /// that come back first rejoin the pool.
    fn ask(&mut self, query: Msg) -> Reply {
        self.flush();
        let mut reply = self.stage.post(query);
        loop {
            match reply.take().unwrap_or_else(|| self.stage.wait()) {
                Reply::Observed(buffer) => self.spare.push(buffer),
                answer => return answer,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elmem_util::ByteSize;

    fn config() -> AutoScalerConfig {
        let mut c = AutoScalerConfig::new(100.0, ByteSize::from_kib(64));
        c.min_observations = 100;
        c.epoch = SimTime::from_secs(10);
        c
    }

    /// A key stream with reuse at several horizons, in uneven requests.
    fn requests() -> Vec<Vec<KeyId>> {
        let mut rng = elmem_util::DetRng::seed(11);
        (0..6_000)
            .map(|i| {
                let fanout = 1 + i % 7;
                (0..fanout)
                    .map(|_| {
                        let r = rng.next_below(1 << 20);
                        KeyId(((r * r) >> 27) % 5_000)
                    })
                    .collect()
            })
            .collect()
    }

    /// Hints and final population from a scaler called once per key.
    fn reference(decide_every: usize) -> (Vec<Option<ScalingHint>>, usize) {
        let keyspace = Keyspace::new(5_000, 3);
        let mut scaler = AutoScaler::new(config());
        let mut hints = Vec::new();
        for (i, keys) in requests().iter().enumerate() {
            if i > 0 && i % decide_every == 0 {
                let now = SimTime::from_secs(10 * (i / decide_every) as u64);
                hints.push(scaler.decide(now, 5_000.0, 4));
            }
            for &key in keys {
                scaler.observe(key, item_footprint(keyspace.value_size(key)));
            }
        }
        (hints, scaler.profiler_tracked_keys())
    }

    fn staged(threaded: bool, decide_every: usize) -> (Vec<Option<ScalingHint>>, usize) {
        let keyspace = Keyspace::new(5_000, 3);
        let jobs = if threaded { 2 } else { 1 };
        let mut stage =
            elmem_util::par::with_par_jobs(jobs, || ScalerStage::start(&config(), keyspace));
        assert_eq!(stage.stage.is_threaded(), threaded);
        let mut hints = Vec::new();
        for (i, keys) in requests().iter().enumerate() {
            if i > 0 && i % decide_every == 0 {
                let now = SimTime::from_secs(10 * (i / decide_every) as u64);
                assert!(stage.epoch_elapsed(now));
                hints.push(stage.decide(now, 5_000.0, 4));
                assert!(!stage.epoch_elapsed(now + SimTime::from_secs(9)));
            }
            stage.observe(keys);
        }
        (hints, stage.finish())
    }

    #[test]
    fn both_transports_decide_like_a_per_key_scaler() {
        // 37 requests never line up with a batch boundary; 1500 leaves
        // several whole batches between decisions.
        for decide_every in [37, 1500] {
            let expected = reference(decide_every);
            assert!(expected.0.iter().any(Option::is_some));
            assert_eq!(staged(false, decide_every), expected, "inline");
            assert_eq!(staged(true, decide_every), expected, "threaded");
        }
    }
}
