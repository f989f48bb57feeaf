//! The process-wide pool of OS threads that program threads run on.
//!
//! Creating an OS thread (`clone`, a fresh stack, TLS setup) costs
//! several times what a small `Execution` spends scheduling, so the
//! thread behind every `thread::spawn` takes an idle OS thread off a free
//! list and gives it back when its job is done; a new OS thread is
//! created only when the list is empty. (The main program thread of an
//! `Execution` starts on a fresh OS thread; see `Execution::launch`.) Logical identity does not
//! travel with the OS thread: each job installs its own context
//! (`install_ctx`), and the worker clears whatever context a job left
//! before it takes the next one.
//!
//! Only threads that ran a short job are kept. A reused thread starts
//! its next job within microseconds of the handoff, where a fresh one
//! takes tens of microseconds to start; in a program whose spawned
//! threads poll through the scheduler at once (httpd-sim's workers), that
//! lost head start lets the pollers take the slot from the spawner before
//! it reaches its next visible operation, and a run then spends thousands
//! of extra ticks polling. Creating a thread is worth saving only where
//! it is a large share of the job, so a thread whose job ran longer than
//! [`SHORT_JOB`] exits. The rule reads the job that finished, not the one
//! to come: a long program still gets reused threads while the free list
//! holds ones that earlier short jobs left (at most [`MAX_IDLE`]), and
//! starts its threads fresh only once those are used up.

use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::runtime::clear_ctx;

/// Idle OS threads kept for reuse. A worker that finishes a job while
/// this many others are idle exits, so the pool never holds more threads
/// than the busiest moment needed, capped here. Eight covers the spawned
/// threads of a litmus run for a farm worker or two; every idle
/// thread keeps its touched stack resident.
const MAX_IDLE: usize = 8;

/// The longest job after which a worker rejoins the free list: about ten
/// times what creating and joining a fresh thread costs (≈40 µs on a
/// 2-vCPU Xeon).
const SHORT_JOB: Duration = Duration::from_micros(500);

type Job = Box<dyn FnOnce() + Send>;

/// Idle workers' inboxes, the most recently idle last.
static IDLE: Mutex<Vec<Arc<Inbox>>> = Mutex::new(Vec::new());

/// An idle worker's mailbox: the next job and the latch it completes.
#[derive(Default)]
struct Inbox {
    next: Mutex<Option<(Job, Arc<Latch>)>>,
    ready: Condvar,
}

/// A one-shot completion flag.
#[derive(Default)]
struct Latch {
    done: Mutex<bool>,
    cv: Condvar,
}

/// Completion handle of a job started with [`run`].
pub(crate) struct Done(Arc<Latch>);

impl Done {
    /// Blocks until the job has returned (or unwound) and its worker has
    /// cleared the thread's execution context.
    pub fn wait(self) {
        let mut done = self.0.done.lock();
        while !*done {
            self.0.cv.wait(&mut done);
        }
    }
}

/// Runs `job` on a pooled OS thread.
///
/// # Panics
///
/// Panics if the free list is empty and the OS refuses a new thread.
pub(crate) fn run(job: impl FnOnce() + Send + 'static) -> Done {
    let latch = Arc::new(Latch::default());
    let task = (Box::new(job) as Job, Arc::clone(&latch));
    let idle = IDLE.lock().pop();
    match idle {
        Some(inbox) => {
            *inbox.next.lock() = Some(task);
            inbox.ready.notify_one();
        }
        None => {
            std::thread::spawn(move || work(task));
        }
    }
    Done(latch)
}

/// A worker's life: run a job, clear the context, rejoin the free list,
/// complete the job's latch, and wait for the next job.
fn work((mut job, mut latch): (Job, Arc<Latch>)) {
    let inbox = Arc::new(Inbox::default());
    loop {
        // Program jobs catch their own panics; this one keeps a panic
        // that escapes them from taking a pooled thread down with it.
        let start = Instant::now();
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
        let short = start.elapsed() <= SHORT_JOB;
        clear_ctx();
        // Rejoin the free list before completing the latch, so a caller
        // that starts its next job as soon as this one is done finds
        // this thread idle instead of creating another.
        let rejoined = {
            let mut idle = IDLE.lock();
            let keep = short && idle.len() < MAX_IDLE;
            if keep {
                idle.push(Arc::clone(&inbox));
            }
            keep
        };
        *latch.done.lock() = true;
        latch.cv.notify_all();
        if !rejoined {
            return;
        }
        let mut next = inbox.next.lock();
        (job, latch) = loop {
            match next.take() {
                Some(task) => break task,
                None => inbox.ready.wait(&mut next),
            }
        };
    }
}
