//! A pipeline stage: one `FnMut(M) -> R` beside its driver, which
//! [`Stage::post`]s messages and [`Stage::wait`]s for the replies, one per
//! message, in order. Threaded, the body runs on a named thread behind two
//! channels of `depth` slots, allocated once; a driver keeps at most
//! `depth` messages unanswered (a pool of buffers sent back and forth), so
//! neither side blocks on a send and an exhausted pool is the
//! back-pressure. Inline (`par_jobs() == 1`, the serial reference), `post`
//! calls the body. A panic on the thread resurfaces on the driver with its
//! own payload. `join` lets the thread answer everything posted; a dropped
//! stage stops it after the message in hand. Either way it is joined.

use std::fmt;
use std::panic::resume_unwind;
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::thread::JoinHandle;

/// The driver's handle on one stage (see the module docs).
pub struct Stage<M, R>(Transport<M, R>);

enum Transport<M, R> {
    Inline(Box<dyn FnMut(M) -> R + Send>),
    Thread(Worker<M, R>),
}

/// The channels are `None` once closed, the handle once joined.
struct Worker<M, R> {
    tx: Option<SyncSender<M>>,
    rx: Option<Receiver<R>>,
    handle: Option<JoinHandle<()>>,
}

impl<M, R> Worker<M, R> {
    /// Closes the message channel, waits for the thread to answer what was
    /// posted, and continues a panic it died of on this thread.
    fn join(&mut self) {
        self.tx = None;
        if let Some(Err(panic)) = self.handle.take().map(JoinHandle::join) {
            resume_unwind(panic);
        }
    }

    /// The thread hung up with the channels open: its loop only ends
    /// otherwise by panicking, so this is its panic arriving here.
    fn hung_up(&mut self) -> ! {
        self.join();
        unreachable!("a stage's thread hung up without panicking");
    }
}

impl<M, R> Drop for Worker<M, R> {
    /// An early drop or an unwinding driver: hang up both channels, so the
    /// thread stops after the message in hand, and wait for it. Its panic
    /// is dropped — a second one while unwinding would abort.
    fn drop(&mut self) {
        (self.tx, self.rx) = (None, None);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl<M: Send + 'static, R: Send + 'static> Stage<M, R> {
    /// A stage over `apply`: on a thread named `name` when `threaded`, for
    /// a driver that keeps at most `depth` (≥ 1) messages unanswered; else
    /// called inline.
    pub fn new(
        threaded: bool,
        name: &str,
        depth: usize,
        mut apply: impl FnMut(M) -> R + Send + 'static,
    ) -> Self {
        if !threaded {
            return Stage(Transport::Inline(Box::new(apply)));
        }
        let (tx, msgs) = mpsc::sync_channel::<M>(depth);
        let (replies, rx) = mpsc::sync_channel::<R>(depth);
        let handle = std::thread::Builder::new()
            .name(name.into())
            .spawn(move || {
                for msg in msgs {
                    if replies.send(apply(msg)).is_err() {
                        break; // the driver dropped the stage
                    }
                }
            })
            .expect("spawn a stage's thread");
        Stage(Transport::Thread(Worker {
            tx: Some(tx),
            rx: Some(rx),
            handle: Some(handle),
        }))
    }
}

impl<M, R> Stage<M, R> {
    /// Whether `apply` runs on a thread of its own.
    pub fn is_threaded(&self) -> bool {
        matches!(self.0, Transport::Thread(_))
    }

    /// Hands `msg` to the stage; inline, the reply comes back at once,
    /// threaded, from a later [`Self::wait`].
    pub fn post(&mut self, msg: M) -> Option<R> {
        match &mut self.0 {
            Transport::Inline(apply) => Some(apply(msg)),
            Transport::Thread(worker) => {
                let tx = worker.tx.as_ref().expect("open until joined");
                if tx.send(msg).is_err() {
                    worker.hung_up();
                }
                None
            }
        }
    }

    /// Blocks for the thread's next reply (inline, `post` returned it).
    pub fn wait(&mut self) -> R {
        match &mut self.0 {
            Transport::Inline(_) => unreachable!("an inline reply is returned by `post`"),
            Transport::Thread(worker) => {
                match worker.rx.as_ref().expect("open until dropped").recv() {
                    Ok(reply) => reply,
                    Err(_) => worker.hung_up(),
                }
            }
        }
    }

    /// Closes the stage and waits for its thread to answer everything
    /// posted; a panic it died of continues on this thread.
    pub fn join(mut self) {
        if let Transport::Thread(worker) = &mut self.0 {
            worker.join();
        }
    }
}

impl<M, R> fmt::Debug for Stage<M, R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Stage {{ threaded: {} }}", self.is_threaded())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::time::{Duration, Instant};

    const POOL: usize = 4;
    const CAP: usize = 256;

    /// A driver that circulates a fixed pool of buffers through `stage`,
    /// the way both of the workspace's stages do: post a full buffer, take
    /// an emptied one back, wait only when the whole pool is out.
    struct Driver {
        stage: Stage<Vec<u64>, Vec<u64>>,
        spare: Vec<Vec<u64>>,
    }

    impl Driver {
        fn new(threaded: bool, apply: impl FnMut(Vec<u64>) -> Vec<u64> + Send + 'static) -> Self {
            Driver {
                stage: Stage::new(threaded, "elmem-test", POOL, apply),
                spare: (0..POOL).map(|_| Vec::with_capacity(CAP)).collect(),
            }
        }

        fn send(&mut self, value: u64) {
            let mut buffer = match self.spare.pop() {
                Some(buffer) => buffer,
                None => self.stage.wait(),
            };
            buffer.extend(std::iter::repeat_n(value, CAP));
            if let Some(back) = self.stage.post(buffer) {
                self.spare.push(back);
            }
        }

        /// Waits for every buffer still out.
        fn drain(&mut self) {
            while self.spare.len() < POOL {
                let back = self.stage.wait();
                self.spare.push(back);
            }
        }
    }

    fn emptying(mut buffer: Vec<u64>) -> Vec<u64> {
        buffer.clear();
        buffer
    }

    #[test]
    fn steady_state_reuses_the_pool() {
        for threaded in [false, true] {
            let mut driver = Driver::new(threaded, emptying);
            assert_eq!(driver.stage.is_threaded(), threaded);
            let mut homes: Vec<*const u64> = driver.spare.iter().map(|b| b.as_ptr()).collect();
            for i in 0..50 * CAP as u64 {
                driver.send(i);
            }
            if threaded {
                driver.drain();
            }
            // Every buffer is home again, emptied, and none was replaced
            // by a fresh allocation.
            let mut back: Vec<*const u64> = driver.spare.iter().map(|b| b.as_ptr()).collect();
            homes.sort_unstable();
            back.sort_unstable();
            assert_eq!(back, homes, "threaded={threaded}");
            assert!(driver.spare.iter().all(Vec::is_empty));
            driver.stage.join();
        }
    }

    #[test]
    fn replies_arrive_in_message_order() {
        for threaded in [false, true] {
            let mut stage = Stage::new(threaded, "elmem-test", POOL, |x: u64| x * 3);
            let mut got = Vec::new();
            for x in 0..1_000u64 {
                got.extend(stage.post(x));
                if threaded && x % POOL as u64 == POOL as u64 - 1 {
                    got.extend((0..POOL).map(|_| stage.wait()));
                }
            }
            assert_eq!(got, (0..1_000).map(|x| x * 3).collect::<Vec<_>>());
            stage.join();
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

    fn exploding(threaded: bool) -> Driver {
        let mut batches = 0;
        Driver::new(threaded, move |buffer| {
            batches += 1;
            assert!(batches < 3, "stage exploded on batch {batches}");
            emptying(buffer)
        })
    }

    #[test]
    fn a_panicking_stage_fails_the_driver_with_its_own_message() {
        for threaded in [false, true] {
            // The driver only ever posts: the pool runs dry and the blocked
            // wait must resurface the panic, not hang.
            let message = panic_message(|| {
                let mut driver = exploding(threaded);
                for i in 0..20 {
                    driver.send(i);
                }
            });
            assert_eq!(message, "stage exploded on batch 3", "post, {threaded}");

            // The panic lands while the driver waits for what is out...
            let message = panic_message(|| {
                let mut driver = exploding(threaded);
                for i in 0..3 {
                    driver.send(i);
                }
                driver.drain();
            });
            assert_eq!(message, "stage exploded on batch 3", "wait, {threaded}");

            // ... or when it closes the stage.
            let message = panic_message(|| {
                let mut driver = exploding(threaded);
                for i in 0..3 {
                    driver.send(i);
                }
                driver.stage.join();
            });
            assert_eq!(message, "stage exploded on batch 3", "join, {threaded}");
        }
    }

    #[test]
    fn dropping_a_stage_mid_run_stops_its_thread() {
        // A driver that stops early, or unwinds, drops the stage with
        // messages still queued: the drop must close the channels and join
        // after the message in hand, rather than hang, detach, or work
        // through the queue.
        let mut stage = Stage::new(true, "elmem-test", POOL, |x: u64| {
            std::thread::sleep(Duration::from_millis(200));
            x
        });
        for x in 0..POOL as u64 {
            assert_eq!(stage.post(x), None);
        }
        let t0 = Instant::now();
        drop(stage);
        assert!(
            t0.elapsed() < Duration::from_millis(150 * POOL as u64),
            "the drop worked through the queue: {:?}",
            t0.elapsed()
        );
    }
}
