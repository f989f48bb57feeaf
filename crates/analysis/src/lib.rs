//! Offline analysis over sparse-record executions (`srr-analysis`).
//!
//! The runtime can record a run's **sync trace** ([`SyncTrace`], defined
//! in `srr-obs` and recorded behind `Config::with_sync_trace`) — every
//! mutex request/acquire/release, condvar wait/notify, atomic access
//! (with the observed writer) and instrumented plain access, stamped with
//! the scheduler tick. Two analyses run over it:
//!
//! 1. [`predict_deadlocks`] — Goodlock-style lock-order-graph cycle
//!    detection. §3.2's controlled scheduler *preserves* deadlocks that
//!    happen; this pass predicts the ABBA deadlocks that merely could
//!    have, from a run that completed.
//! 2. [`misuse_lints`] — mixed plain/atomic access to one location,
//!    condvar waits returning without a predicate re-check, and relaxed
//!    cross-thread loads feeding visible-op decisions (the §6 replay
//!    hazard).
//!
//! [`analyze`] bundles both. Nothing runs them at the end of an
//! execution: a consumer that wants findings (`srr analyze <workload>`,
//! the Goodlock cross-check of `srr predict --plan`, the hazard tests)
//! calls [`analyze`] on `ExecReport::sync_trace` itself. Demo directories are not this crate's business: their
//! invariants live in `srr_replay::Demo::validate`, which every demo load
//! runs and `srr lint-demo` reports.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod deadlock;
mod findings;
mod lints;

pub use deadlock::predict_deadlocks;
pub use findings::{Finding, FindingKind, Severity, SourceSpan};
pub use lints::{condvar_no_recheck, misuse_lints, mixed_atomic_plain, relaxed_load_decision};
use srr_obs::SyncTrace;

/// Runs every trace-based analysis pass: deadlock prediction first, then
/// the misuse lints. Findings keep pass order.
#[must_use]
pub fn analyze(trace: &SyncTrace) -> Vec<Finding> {
    let mut findings = predict_deadlocks(trace);
    findings.extend(misuse_lints(trace));
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use srr_obs::{SyncEvent, SyncTraceBuilder};

    #[test]
    fn analyze_runs_all_passes() {
        let mut b = SyncTraceBuilder::new();
        b.set_mutex_label(0, Some("A".into()));
        b.set_mutex_label(1, Some("B".into()));
        let loc = b.loc_id("flag");
        for (tid, (h, m)) in [(1u32, (0u32, 1u32)), (2, (1, 0))] {
            let t = u64::from(tid) * 10;
            b.push(SyncEvent::MutexRequest {
                tid,
                mutex: h,
                tick: t,
            });
            b.push(SyncEvent::MutexAcquire {
                tid,
                mutex: h,
                tick: t,
            });
            b.push(SyncEvent::MutexRequest {
                tid,
                mutex: m,
                tick: t + 1,
            });
        }
        b.push(SyncEvent::AtomicStore {
            tid: 1,
            loc,
            tick: 30,
            rmw: false,
        });
        b.push(SyncEvent::PlainAccess {
            tid: 2,
            loc,
            tick: 31,
            write: false,
        });
        let findings = analyze(&b.finish());
        assert!(findings
            .iter()
            .any(|f| f.kind == FindingKind::PotentialDeadlock));
        assert!(findings
            .iter()
            .any(|f| f.kind == FindingKind::MixedAtomicPlain));
    }

    #[test]
    fn empty_trace_is_clean() {
        assert!(analyze(&SyncTrace::default()).is_empty());
    }
}
