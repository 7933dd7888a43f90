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
//! One [`Observer::apply`] body serves two transports. With
//! `elmem_util::par::par_jobs() > 1` the stage is a thread behind a bounded
//! channel, fed from a fixed pool of batch buffers that come back emptied
//! (no allocation in steady state; an exhausted pool is the back-pressure).
//! With `par_jobs() == 1` — the workspace's serial reference — `apply` is
//! called directly on the driver's thread, with the same batching; that
//! costs what the per-lookup call did (EXPERIMENTS.md E24: pinned to one
//! core, `elastic_day` reads the same before and after). The gain is the
//! overlap: profiling a lookup costs about as much as serving it, and now
//! happens on a core the serving loop was not using.

use std::panic::resume_unwind;
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::thread::JoinHandle;

use elmem_store::item::item_footprint;
use elmem_util::{KeyId, SimTime};
use elmem_workload::Keyspace;

use crate::autoscaler::{epoch_elapsed, AutoScaler, ScalingHint};
use crate::elasticity::ScalerConfig;
use crate::predictive::PredictiveAutoScaler;

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
    scaler: ScalerInstance,
    keyspace: Keyspace,
}

#[derive(Debug)]
enum ScalerInstance {
    Reactive(AutoScaler),
    Predictive(PredictiveAutoScaler),
}

impl Observer {
    fn apply(&mut self, msg: Msg) -> Reply {
        match msg {
            Msg::Observe(mut keys) => {
                for &key in &keys {
                    let footprint = item_footprint(self.keyspace.value_size(key));
                    match &mut self.scaler {
                        ScalerInstance::Reactive(a) => a.observe(key, footprint),
                        ScalerInstance::Predictive(p) => p.observe(key, footprint),
                    }
                }
                keys.clear();
                Reply::Observed(keys)
            }
            Msg::Decide { now, rate, members } => Reply::Decided(match &mut self.scaler {
                ScalerInstance::Reactive(a) => a.decide(now, rate, members),
                ScalerInstance::Predictive(p) => p.decide(now, rate, members),
            }),
            Msg::TrackedKeys => Reply::TrackedKeys(match &self.scaler {
                ScalerInstance::Reactive(a) => a.profiler_tracked_keys(),
                ScalerInstance::Predictive(p) => p.profiler_tracked_keys(),
            }),
        }
    }
}

/// How messages reach `apply`.
enum Lane {
    /// Called where it is posted; the reply is immediate.
    Inline(Box<dyn FnMut(Msg) -> Reply>),
    Thread(ThreadLane),
}

struct ThreadLane {
    /// `None` once closed.
    tx: Option<SyncSender<Msg>>,
    rx: Receiver<Reply>,
    /// `None` once joined.
    worker: Option<JoinHandle<()>>,
}

impl ThreadLane {
    /// Closes the channel (the worker's loop ends when it sees that) and
    /// waits for the worker; `Err` carries the panic it died of.
    fn close(&mut self) -> std::thread::Result<()> {
        self.tx = None;
        self.worker.take().map_or(Ok(()), JoinHandle::join)
    }

    /// [`Self::close`]; a panic the worker died of continues on this
    /// thread, with its own payload.
    fn join(&mut self) {
        if let Err(panic) = self.close() {
            resume_unwind(panic);
        }
    }

    /// The worker hung up while the channel was open. Its loop only ever
    /// ends by panicking or by seeing the channel closed, so this is the
    /// worker's panic arriving on the driver.
    fn hung_up(&mut self) -> ! {
        self.join();
        unreachable!("the scaler stage hung up without panicking");
    }
}

impl Drop for ThreadLane {
    /// Reached with a live worker only when the driver itself unwinds:
    /// stop the worker and wait for it, so no thread outlives the run. Its
    /// result is dropped — a second panic while unwinding would abort.
    fn drop(&mut self) {
        let _ = self.close();
    }
}

impl Lane {
    fn new(threaded: bool, mut apply: impl FnMut(Msg) -> Reply + Send + 'static) -> Self {
        if !threaded {
            return Lane::Inline(Box::new(apply));
        }
        // At most POOL messages are ever queued — every buffer but the open
        // one, plus a query — so `send` never blocks; the pool running dry
        // does.
        let (tx, msgs) = mpsc::sync_channel::<Msg>(POOL);
        let (replies, rx) = mpsc::channel::<Reply>();
        let worker = std::thread::Builder::new()
            .name("elmem-scaler".into())
            .spawn(move || {
                for msg in msgs {
                    if replies.send(apply(msg)).is_err() {
                        break; // the driver is gone (it unwound)
                    }
                }
            })
            .expect("spawn the scaler stage's thread");
        Lane::Thread(ThreadLane {
            tx: Some(tx),
            rx,
            worker: Some(worker),
        })
    }

    /// Hands `msg` to the stage; the inline lane answers on the spot.
    fn post(&mut self, msg: Msg) -> Option<Reply> {
        match self {
            Lane::Inline(apply) => Some(apply(msg)),
            Lane::Thread(lane) => {
                let tx = lane.tx.as_ref().expect("open until joined");
                if tx.send(msg).is_err() {
                    lane.hung_up();
                }
                None
            }
        }
    }

    /// Blocks for the next reply.
    fn wait(&mut self) -> Reply {
        match self {
            Lane::Inline(_) => unreachable!("an inline reply is returned by `post`"),
            Lane::Thread(lane) => match lane.rx.recv() {
                Ok(reply) => reply,
                Err(_) => lane.hung_up(),
            },
        }
    }
}

/// The driver's handle on the stage.
pub(crate) struct ScalerStage {
    /// Keys served since the last flush.
    open: Vec<KeyId>,
    /// Emptied buffers ready to become the open batch.
    spare: Vec<Vec<KeyId>>,
    lane: Lane,
    epoch: SimTime,
    last_decision: Option<SimTime>,
}

impl ScalerStage {
    /// Starts the stage for one run: a thread when the library may fan
    /// out, a direct call when `par_jobs()` is 1.
    pub(crate) fn start(config: &ScalerConfig, keyspace: Keyspace) -> Self {
        let (scaler, epoch) = match config {
            ScalerConfig::Reactive(c) => (
                ScalerInstance::Reactive(AutoScaler::new(c.clone())),
                c.epoch,
            ),
            ScalerConfig::Predictive(c) => (
                ScalerInstance::Predictive(PredictiveAutoScaler::new(c.clone())),
                c.reactive.epoch,
            ),
        };
        let mut observer = Observer { scaler, keyspace };
        let threaded = elmem_util::par::par_jobs() > 1;
        Self::over(threaded, epoch, move |msg| observer.apply(msg))
    }

    /// A stage over any `apply` (tests substitute one that panics).
    fn over(
        threaded: bool,
        epoch: SimTime,
        apply: impl FnMut(Msg) -> Reply + Send + 'static,
    ) -> Self {
        // The whole pool is allocated here, on the driver.
        let mut pool = (0..POOL).map(|_| Vec::with_capacity(BATCH_KEYS));
        ScalerStage {
            open: pool.next().expect("POOL >= 1"),
            spare: pool.collect(),
            lane: Lane::new(threaded, apply),
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
        if let Lane::Thread(lane) = &mut self.lane {
            lane.join();
        }
        tracked
    }

    /// Sends the open batch (if any) and opens an emptied buffer, waiting
    /// for the stage to return one if the whole pool is in flight.
    fn flush(&mut self) {
        if self.open.is_empty() {
            return;
        }
        let batch = std::mem::take(&mut self.open);
        let mut reply = self.lane.post(Msg::Observe(batch));
        while reply.is_some() || self.spare.is_empty() {
            match reply.take().unwrap_or_else(|| self.lane.wait()) {
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
        let mut reply = self.lane.post(query);
        loop {
            match reply.take().unwrap_or_else(|| self.lane.wait()) {
                Reply::Observed(buffer) => self.spare.push(buffer),
                answer => return answer,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::autoscaler::AutoScalerConfig;
    use elmem_util::ByteSize;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn config() -> ScalerConfig {
        let mut c = AutoScalerConfig::new(100.0, ByteSize::from_kib(64));
        c.min_observations = 100;
        c.epoch = SimTime::from_secs(10);
        c.into()
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
        let ScalerConfig::Reactive(c) = config() else {
            unreachable!()
        };
        let keyspace = Keyspace::new(5_000, 3);
        let mut scaler = AutoScaler::new(c);
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
        assert_eq!(matches!(stage.lane, Lane::Thread(_)), threaded);
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

    #[test]
    fn steady_state_reuses_the_pool() {
        for threaded in [false, true] {
            let mut stage = ScalerStage::over(threaded, SimTime::from_secs(1), |msg| match msg {
                Msg::Observe(mut keys) => {
                    keys.clear();
                    Reply::Observed(keys)
                }
                Msg::Decide { .. } => Reply::Decided(None),
                Msg::TrackedKeys => Reply::TrackedKeys(0),
            });
            let keys = [KeyId(1); 5];
            for _ in 0..50 * BATCH_KEYS {
                stage.observe(&keys);
            }
            assert_eq!(stage.decide(SimTime::from_secs(1), 1.0, 1), None);
            // Every buffer is home again and none was replaced by a fresh
            // (smaller or larger) allocation.
            assert_eq!(stage.spare.len(), POOL - 1, "threaded={threaded}");
            let roomy =
                |b: &Vec<KeyId>| b.capacity() >= BATCH_KEYS && b.capacity() < 2 * BATCH_KEYS;
            assert!(stage.spare.iter().all(roomy) && roomy(&stage.open));
            assert_eq!(stage.finish(), 0);
        }
    }

    /// The panic message `f` dies with.
    fn panic_message(f: impl FnOnce()) -> String {
        let payload = catch_unwind(AssertUnwindSafe(f)).expect_err("must panic");
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .expect("a message payload")
    }

    fn exploding_stage(threaded: bool) -> ScalerStage {
        let mut batches = 0;
        ScalerStage::over(threaded, SimTime::from_secs(1), move |msg| match msg {
            Msg::Observe(mut keys) => {
                batches += 1;
                assert!(batches < 3, "profiler exploded on batch {batches}");
                keys.clear();
                Reply::Observed(keys)
            }
            Msg::Decide { .. } => Reply::Decided(None),
            Msg::TrackedKeys => Reply::TrackedKeys(0),
        })
    }

    #[test]
    fn a_panicking_stage_fails_the_driver_with_its_own_message() {
        let keys = [KeyId(1); 5];
        for threaded in [false, true] {
            // The driver only ever observes: the pool runs dry and the
            // blocked flush must resurface the panic, not hang.
            let message = panic_message(|| {
                let mut stage = exploding_stage(threaded);
                for _ in 0..20 * BATCH_KEYS {
                    stage.observe(&keys);
                }
            });
            assert_eq!(
                message, "profiler exploded on batch 3",
                "observe, {threaded}"
            );

            // The panic lands while the driver waits for a decision (or
            // just before it posts one).
            let message = panic_message(|| {
                let mut stage = exploding_stage(threaded);
                for _ in 0..BATCH_KEYS / 2 {
                    stage.observe(&keys);
                }
                let _ = stage.decide(SimTime::from_secs(1), 1.0, 1);
            });
            assert_eq!(
                message, "profiler exploded on batch 3",
                "decide, {threaded}"
            );

            // ... and at the end of a run.
            let message = panic_message(|| {
                let mut stage = exploding_stage(threaded);
                for _ in 0..BATCH_KEYS / 2 {
                    stage.observe(&keys);
                }
                let _ = stage.finish();
            });
            assert_eq!(
                message, "profiler exploded on batch 3",
                "finish, {threaded}"
            );
        }
    }

    #[test]
    fn dropping_a_stage_mid_run_stops_its_thread() {
        // A driver that unwinds drops the stage without `finish`; the drop
        // must close the channel and join rather than hang or detach.
        let mut stage = exploding_stage(true);
        stage.observe(&[KeyId(1); 5]);
        drop(stage);
    }
}
