//! The logical record of a run: the schedule plus the sync events.
//!
//! The controlled scheduler serialises visible operations into numbered
//! ticks, so a run has one logical history: which thread completed which
//! tick ([`SyncTrace::schedule`]) and the synchronisation facts stamped
//! on those ticks ([`SyncEvent`]). The runtime fills a [`SyncTrace`]
//! behind `Config::with_sync_trace`; analysis, prediction, profiling and
//! desync diagnostics all read the finished trace. Events carry raw ids —
//! the trace owns the label tables that make them readable.

use std::collections::HashMap;

/// One synchronisation-relevant event, in global emission order.
///
/// Per-thread subsequences follow program order; per-mutex
/// acquire/release pairs alternate (both guaranteed by the emitting
/// critical sections). `tick` is the scheduler tick current at emission —
/// a diagnostic timestamp, not a total order. The derived order (variant,
/// then fields) is what consumers use to canonicalise same-tick events.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum SyncEvent {
    /// A thread entered a *blocking* `lock()` (emitted once, on the first
    /// acquisition attempt). Lock-order edges come from requests only: a
    /// failed `try_lock` cannot block, so it cannot deadlock.
    MutexRequest {
        /// Requesting thread.
        tid: u32,
        /// Requested mutex.
        mutex: u32,
        /// Tick of the first acquisition attempt.
        tick: u64,
    },
    /// A successful mutex acquisition (blocking or try).
    MutexAcquire {
        /// Acquiring thread.
        tid: u32,
        /// Acquired mutex.
        mutex: u32,
        /// Tick of the acquiring critical section.
        tick: u64,
    },
    /// A mutex release (guard drop, or the release inside a condvar wait).
    MutexRelease {
        /// Releasing thread.
        tid: u32,
        /// Released mutex.
        mutex: u32,
        /// Tick of the releasing critical section.
        tick: u64,
    },
    /// A condvar wait began (the guard mutex is released in the same
    /// critical section — a separate [`SyncEvent::MutexRelease`] follows).
    CondWaitBegin {
        /// Waiting thread.
        tid: u32,
        /// The condition variable.
        cond: u32,
        /// The guard mutex.
        mutex: u32,
        /// Tick of the wait's critical section.
        tick: u64,
    },
    /// A condvar wait returned with the guard mutex reacquired.
    CondWaitReturn {
        /// The thread whose wait returned.
        tid: u32,
        /// The condition variable.
        cond: u32,
        /// The reacquired guard mutex.
        mutex: u32,
        /// Tick at which the wait returned.
        tick: u64,
        /// Whether the return was due to a signal (`false`: timeout or
        /// spurious).
        signaled: bool,
    },
    /// A `notify_one` / `notify_all`.
    CondNotify {
        /// Notifying thread.
        tid: u32,
        /// The condition variable.
        cond: u32,
        /// Tick of the notify's critical section.
        tick: u64,
        /// `true` for `notify_all`.
        all: bool,
    },
    /// An atomic load.
    AtomicLoad {
        /// Loading thread.
        tid: u32,
        /// Location id (see [`SyncTrace::loc_label`]).
        loc: u32,
        /// Tick of the load's critical section.
        tick: u64,
        /// Whether the load was `Relaxed`.
        relaxed: bool,
        /// The thread that produced the observed store.
        writer: u32,
    },
    /// An atomic store (including the write half of RMWs).
    AtomicStore {
        /// Storing thread.
        tid: u32,
        /// Location id.
        loc: u32,
        /// Tick of the store's critical section.
        tick: u64,
        /// Whether the store was a read-modify-write.
        rmw: bool,
    },
    /// A plain (non-atomic) access to an instrumented shared variable.
    PlainAccess {
        /// Accessing thread.
        tid: u32,
        /// Location id.
        loc: u32,
        /// Tick current at the access (plain accesses are invisible
        /// operations; this is approximate).
        tick: u64,
        /// `true` for a write.
        write: bool,
    },
    /// A thread creation (`ThreadNew`), emitted in the parent's critical
    /// section. Creation synchronizes parent→child.
    ThreadSpawn {
        /// Spawning thread.
        tid: u32,
        /// The created thread.
        child: u32,
        /// Tick of the spawning critical section.
        tick: u64,
    },
    /// One `ThreadJoin` attempt (each attempt is its own critical
    /// section; a blocking join makes at most one failed attempt before
    /// the successful one).
    ThreadJoined {
        /// Joining thread.
        tid: u32,
        /// The join target.
        target: u32,
        /// Tick of the attempt's critical section.
        tick: u64,
        /// Whether the target had already finished (`false`: the joiner
        /// disabled itself until the target's `ThreadDelete`).
        done: bool,
    },
}

impl SyncEvent {
    /// The acting thread.
    #[must_use]
    pub fn tid(self) -> u32 {
        match self {
            SyncEvent::MutexRequest { tid, .. }
            | SyncEvent::MutexAcquire { tid, .. }
            | SyncEvent::MutexRelease { tid, .. }
            | SyncEvent::CondWaitBegin { tid, .. }
            | SyncEvent::CondWaitReturn { tid, .. }
            | SyncEvent::CondNotify { tid, .. }
            | SyncEvent::AtomicLoad { tid, .. }
            | SyncEvent::AtomicStore { tid, .. }
            | SyncEvent::PlainAccess { tid, .. }
            | SyncEvent::ThreadSpawn { tid, .. }
            | SyncEvent::ThreadJoined { tid, .. } => tid,
        }
    }

    /// The event's tick timestamp.
    #[must_use]
    pub fn tick(self) -> u64 {
        match self {
            SyncEvent::MutexRequest { tick, .. }
            | SyncEvent::MutexAcquire { tick, .. }
            | SyncEvent::MutexRelease { tick, .. }
            | SyncEvent::CondWaitBegin { tick, .. }
            | SyncEvent::CondWaitReturn { tick, .. }
            | SyncEvent::CondNotify { tick, .. }
            | SyncEvent::AtomicLoad { tick, .. }
            | SyncEvent::AtomicStore { tick, .. }
            | SyncEvent::PlainAccess { tick, .. }
            | SyncEvent::ThreadSpawn { tick, .. }
            | SyncEvent::ThreadJoined { tick, .. } => tick,
        }
    }
}

/// A finished trace: the completed-tick schedule, the event log, and the
/// label tables that make mutex and location ids readable.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SyncTrace {
    /// Completed ticks in order, as `(tid, tick)`: the exact replayed
    /// schedule, one entry per closed critical section.
    pub schedule: Vec<(u32, u64)>,
    /// Events in global emission order.
    pub events: Vec<SyncEvent>,
    /// Mutex labels, indexed by mutex id (`None`: unlabelled).
    pub mutex_labels: Vec<Option<String>>,
    /// Location labels, indexed by location id.
    pub loc_labels: Vec<String>,
}

impl SyncTrace {
    /// Human-readable label for mutex `m` (`mutex#m` if unlabelled).
    #[must_use]
    pub fn mutex_label(&self, m: u32) -> String {
        match self.mutex_labels.get(m as usize) {
            Some(Some(label)) => label.clone(),
            _ => format!("mutex#{m}"),
        }
    }

    /// Human-readable label for location `l` (`loc#l` if unknown).
    #[must_use]
    pub fn loc_label(&self, l: u32) -> String {
        match self.loc_labels.get(l as usize) {
            Some(label) => label.clone(),
            None => format!("loc#{l}"),
        }
    }

    /// Whether the trace recorded no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Incrementally builds a [`SyncTrace`] during an execution.
///
/// The runtime holds one of these (behind its own lock) while tracing is
/// on; `finish` produces the immutable trace.
#[derive(Debug, Default)]
pub struct SyncTraceBuilder {
    trace: SyncTrace,
    loc_ids: HashMap<String, u32>,
}

impl SyncTraceBuilder {
    /// An empty builder.
    #[must_use]
    pub fn new() -> Self {
        SyncTraceBuilder::default()
    }

    /// Appends an event.
    pub fn push(&mut self, ev: SyncEvent) {
        self.trace.events.push(ev);
    }

    /// Appends a completed tick to the schedule.
    pub fn push_tick(&mut self, tid: u32, tick: u64) {
        self.trace.schedule.push((tid, tick));
    }

    /// Records the label of mutex `id` (ids are dense; gaps are filled
    /// with `None`).
    pub fn set_mutex_label(&mut self, id: u32, label: Option<String>) {
        let idx = id as usize;
        if self.trace.mutex_labels.len() <= idx {
            self.trace.mutex_labels.resize(idx + 1, None);
        }
        self.trace.mutex_labels[idx] = label;
    }

    /// Interns `label` as a location id. Two variables sharing a label
    /// model two views of one memory location (how the mixed
    /// plain/atomic lint identifies "the same location").
    pub fn loc_id(&mut self, label: &str) -> u32 {
        if let Some(&id) = self.loc_ids.get(label) {
            return id;
        }
        let id = self.trace.loc_labels.len() as u32;
        self.trace.loc_labels.push(label.to_owned());
        self.loc_ids.insert(label.to_owned(), id);
        id
    }

    /// Finalizes the trace.
    #[must_use]
    pub fn finish(self) -> SyncTrace {
        self.trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_interns_locations_and_labels() {
        let mut b = SyncTraceBuilder::new();
        assert_eq!(b.loc_id("x"), 0);
        assert_eq!(b.loc_id("y"), 1);
        assert_eq!(b.loc_id("x"), 0, "same label, same id");
        b.set_mutex_label(2, Some("B".into()));
        b.push(SyncEvent::MutexAcquire {
            tid: 1,
            mutex: 2,
            tick: 3,
        });
        b.push_tick(1, 3);
        let t = b.finish();
        assert_eq!(t.loc_label(0), "x");
        assert_eq!(t.loc_label(9), "loc#9");
        assert_eq!(t.mutex_label(2), "B");
        assert_eq!(t.mutex_label(0), "mutex#0", "gap filled with None");
        assert_eq!(t.events.len(), 1);
        assert_eq!(t.schedule, vec![(1, 3)]);
        assert!(!t.is_empty());
    }

    #[test]
    fn event_accessors() {
        let e = SyncEvent::CondWaitReturn {
            tid: 4,
            cond: 1,
            mutex: 0,
            tick: 7,
            signaled: true,
        };
        assert_eq!(e.tid(), 4);
        assert_eq!(e.tick(), 7);
        let e = SyncEvent::PlainAccess {
            tid: 2,
            loc: 0,
            tick: 5,
            write: false,
        };
        assert_eq!((e.tid(), e.tick()), (2, 5));
    }
}
