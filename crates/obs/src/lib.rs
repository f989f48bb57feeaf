//! srr-obs: the observability layer for the sparse record/replay stack.
//!
//! Two views of a run live here:
//!
//! * the **logical record** — [`SyncTrace`]: the exact completed-tick
//!   schedule plus the [`SyncEvent`]s stamped on those ticks. It is the
//!   one history of a run; analysis (`srr-analysis`), prediction
//!   (`srr-predict`), the causal profiler ([`profile()`]) and the desync
//!   diagnostics ([`DesyncDiagnostics`]) all read it. This crate has no
//!   dependency on the runtime, so every layer can share the model;
//! * the **bounded wall-clock view** — structured events ([`ObsEvent`])
//!   in per-thread rings ([`EventRing`]) that drop old entries, log2
//!   latency histograms ([`Histogram`]), the run-level [`ObsReport`], and
//!   the exporters ([`chrome_trace`], [`text_timeline`]). The core
//!   runtime feeds it through an [`Obs`] collector when a [`TraceSpec`]
//!   is configured; with tracing off the runtime never constructs a
//!   collector, so the instrumented hot path pays only an `Option` check.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chrome;
mod diag;
mod event;
mod farm;
mod hist;
mod json;
pub mod metrics;
pub mod profile;
mod report;
mod ring;
mod sync_trace;

pub use chrome::{chrome_trace, text_timeline};
pub use diag::{first_divergence, DesyncDiagnostics, TickDiff};
pub use event::{EventKind, ObsEvent, ObsOp, StreamId, SysKind};
pub use farm::FarmCounters;
pub use hist::Histogram;
pub use json::Json;
pub use metrics::{Counter, Gauge, MetricHistogram, MetricsRegistry};
pub use profile::{profile, BucketRow, ProfileReport};
pub use report::{ObsReport, StreamCounter, ThreadTrace};
pub use ring::EventRing;
pub use sync_trace::{SyncEvent, SyncTrace, SyncTraceBuilder};

use parking_lot::Mutex;

/// What to trace and how much to retain.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceSpec {
    /// Events retained per thread (and for the scheduler track); older
    /// events are overwritten. Default 256.
    pub ring_capacity: usize,
}

impl Default for TraceSpec {
    fn default() -> Self {
        TraceSpec { ring_capacity: 256 }
    }
}

impl TraceSpec {
    /// The default spec (ring capacity 256).
    #[must_use]
    pub fn new() -> Self {
        TraceSpec::default()
    }

    /// Sets the per-thread ring capacity.
    #[must_use]
    pub fn with_ring_capacity(mut self, capacity: usize) -> Self {
        self.ring_capacity = capacity;
        self
    }
}

struct Inner {
    threads: Vec<EventRing>,
    sched: EventRing,
    tick_latency: Histogram,
    run_lengths: Histogram,
    last_tid: Option<u32>,
    run_len: u64,
}

/// The run-wide trace collector.
///
/// One mutex guards all rings; the scheduler already serialises visible
/// operations (exactly one thread is ever inside the critical section),
/// so the lock is uncontended in controlled runs. `Obs` takes no other
/// locks, making it a safe leaf under the scheduler mutex.
pub struct Obs {
    spec: TraceSpec,
    inner: Mutex<Inner>,
}

impl Obs {
    /// A collector retaining `spec.ring_capacity` events per track.
    #[must_use]
    pub fn new(spec: TraceSpec) -> Self {
        Obs {
            spec,
            inner: Mutex::new(Inner {
                threads: Vec::new(),
                sched: EventRing::new(spec.ring_capacity),
                tick_latency: Histogram::new(),
                run_lengths: Histogram::new(),
                last_tid: None,
                run_len: 0,
            }),
        }
    }

    /// The configured spec.
    #[must_use]
    pub fn spec(&self) -> TraceSpec {
        self.spec
    }

    fn ring_of<'a>(&self, inner: &'a mut Inner, tid: u32) -> &'a mut EventRing {
        let idx = tid as usize;
        while inner.threads.len() <= idx {
            // Ring growth happens at thread registration, not on the
            // steady-state hot path.
            inner.threads.push(EventRing::new(self.spec.ring_capacity));
        }
        &mut inner.threads[idx]
    }

    /// Records an event on `tid`'s track.
    pub fn thread_event(&self, tid: u32, tick: u64, kind: EventKind) {
        let mut inner = self.inner.lock();
        self.ring_of(&mut inner, tid)
            .push(ObsEvent { tid, tick, kind });
    }

    /// Records an event on the scheduler track (attributed to `tid`).
    pub fn sched_event(&self, tid: u32, tick: u64, kind: EventKind) {
        let mut inner = self.inner.lock();
        inner.sched.push(ObsEvent { tid, tick, kind });
    }

    /// Records a tick completion: pushes the `TickEnd` event, feeds the
    /// latency histogram, and advances the run-length accounting.
    pub fn tick_end(&self, tid: u32, tick: u64, dur_nanos: u64, op: ObsOp) {
        let mut inner = self.inner.lock();
        self.ring_of(&mut inner, tid).push(ObsEvent {
            tid,
            tick,
            kind: EventKind::TickEnd { dur_nanos, op },
        });
        inner.tick_latency.record(dur_nanos);
        match inner.last_tid {
            Some(last) if last == tid => inner.run_len += 1,
            _ => {
                if inner.run_len > 0 {
                    let len = inner.run_len;
                    inner.run_lengths.record(len);
                }
                inner.last_tid = Some(tid);
                inner.run_len = 1;
            }
        }
    }

    /// Drains the collector into a report (flushes the trailing run).
    #[must_use]
    pub fn finish(&self) -> ObsReport {
        let mut inner = self.inner.lock();
        if inner.run_len > 0 {
            let len = inner.run_len;
            inner.run_lengths.record(len);
            inner.run_len = 0;
            inner.last_tid = None;
        }
        ObsReport {
            enabled: true,
            tick_latency: inner.tick_latency.clone(),
            run_lengths: inner.run_lengths.clone(),
            threads: inner
                .threads
                .iter()
                .enumerate()
                .map(|(tid, ring)| ThreadTrace {
                    tid: tid as u32,
                    events: ring.in_order(),
                    dropped: ring.dropped(),
                })
                .collect(),
            scheduler: ThreadTrace {
                tid: u32::MAX,
                events: inner.sched.in_order(),
                dropped: inner.sched.dropped(),
            },
            streams: Vec::new(),
            desync: None,
        }
    }
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs").field("spec", &self.spec).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collector_tracks_and_runs() {
        let obs = Obs::new(TraceSpec::new().with_ring_capacity(16));
        // Schedule T0 T0 T1 T0 -> runs of 2, 1, 1.
        for (tick, tid) in [(1u64, 0u32), (2, 0), (3, 1), (4, 0)] {
            obs.thread_event(tid, tick, EventKind::TickBegin);
            obs.tick_end(tid, tick, 10, ObsOp::Atomic);
        }
        obs.sched_event(0, 4, EventKind::Broadcast);
        let report = obs.finish();
        assert!(report.enabled);
        assert_eq!(report.threads.len(), 2);
        assert_eq!(report.tick_order(), vec![(0, 1), (0, 2), (1, 3), (0, 4)]);
        assert_eq!(report.tick_latency.count(), 4);
        assert_eq!(report.run_lengths.count(), 3);
        assert_eq!(report.run_lengths.max(), 2);
        assert_eq!(report.scheduler.events.len(), 1);
    }

    #[test]
    fn trace_spec_builder() {
        let spec = TraceSpec::new().with_ring_capacity(1024);
        assert_eq!(spec.ring_capacity, 1024);
        assert_eq!(TraceSpec::default().ring_capacity, 256);
    }
}
