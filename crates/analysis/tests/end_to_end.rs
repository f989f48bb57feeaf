//! End-to-end tests: the analysis passes driven through the full runtime
//! stack (sync-event trace collection in `tsan11rec`, workloads from
//! `srr-apps`).

use srr_analysis::{analyze, Finding, FindingKind};
use srr_apps::harness::Tool;
use srr_apps::hazards::{self, AbBaParams};
use srr_apps::httpd;
use tsan11rec::{Execution, Outcome};

fn deadlock_findings(report: &tsan11rec::ExecReport) -> Vec<Finding> {
    analyze(&report.sync_trace)
        .into_iter()
        .filter(|f| f.kind == FindingKind::PotentialDeadlock)
        .collect()
}

/// The regression the predictive pass exists for: the ABBA inversion is
/// reported even though this particular schedule never deadlocked.
#[test]
fn completed_abba_run_is_flagged_as_potential_deadlock() {
    let report = Execution::new(Tool::Queue.config([7, 11]).with_sync_trace())
        .run(hazards::ab_ba_locks(AbBaParams::default()));
    assert_eq!(report.outcome, Outcome::Completed);
    let dl = deadlock_findings(&report);
    assert_eq!(dl.len(), 1, "exactly one cycle: {dl:?}");
    let f = &dl[0];
    assert!(f.labels.iter().any(|l| l.contains("lock-a")), "{f:?}");
    assert!(f.labels.iter().any(|l| l.contains("lock-b")), "{f:?}");
    assert_eq!(f.threads.len(), 2, "two threads participate: {f:?}");
    assert!(!f.ticks.is_empty(), "acquisition ticks reported: {f:?}");
    assert!(f.message.contains("tick"), "{f:?}");
}

/// §3.2 deadlock preservation plus prediction: when the schedule *does*
/// wedge, the runtime reports `Outcome::Deadlock` and the offline pass
/// still derives the same cycle from the partial trace — MutexRequest is
/// emitted before the blocking acquisition, so the edge exists even
/// though the acquire never happened.
#[test]
fn deadlocked_abba_run_reports_the_same_cycle() {
    let completed = Execution::new(Tool::Queue.config([7, 11]).with_sync_trace())
        .run(hazards::ab_ba_locks(AbBaParams::default()));
    let wedged = Execution::new(Tool::Queue.config([7, 11]).with_sync_trace()).run(
        hazards::ab_ba_locks(AbBaParams {
            force_deadlock: true,
        }),
    );
    assert_eq!(wedged.outcome, Outcome::Deadlock);

    let from_completed = deadlock_findings(&completed);
    let from_wedged = deadlock_findings(&wedged);
    assert!(!from_wedged.is_empty(), "{:?}", analyze(&wedged.sync_trace));
    // Same cycle: identical participating lock labels either way.
    let mut a: Vec<_> = from_completed[0].labels.clone();
    let mut b: Vec<_> = from_wedged[0].labels.clone();
    a.sort();
    b.sort();
    assert_eq!(a, b, "completed and deadlocked runs expose the same cycle");
}

/// Workloads with consistent lock ordering stay clean — the predictor
/// must not cry wolf on the ordinary apps.
#[test]
fn well_ordered_workloads_produce_no_deadlock_findings() {
    let params = httpd::HttpdParams::default();
    let report = Execution::new(Tool::Queue.config([3, 5]).with_sync_trace())
        .setup(move |vos| (httpd::world(params))(vos))
        .run(httpd::server(params));
    assert!(report.outcome.is_ok(), "{:?}", report.outcome);
    assert!(
        deadlock_findings(&report).is_empty(),
        "httpd has a consistent lock order: {:?}",
        analyze(&report.sync_trace)
    );
}

/// The misuse lints ride the same end-to-end path. The mixed-access
/// lint needs the plain-access stream, which is opt-in via
/// `with_access_trace()` (it implies the sync trace).
#[test]
fn misuse_lints_fire_through_the_full_stack() {
    let mixed = Execution::new(Tool::Queue.config([7, 11]).with_access_trace())
        .run(hazards::mixed_counter());
    assert!(analyze(&mixed.sync_trace)
        .iter()
        .any(|f| f.kind == FindingKind::MixedAtomicPlain));

    let cond = Execution::new(Tool::Queue.config([7, 11]).with_sync_trace())
        .run(hazards::cond_no_recheck());
    assert!(analyze(&cond.sync_trace)
        .iter()
        .any(|f| f.kind == FindingKind::CondvarNoRecheck));

    let relaxed =
        Execution::new(Tool::Queue.config([7, 11]).with_sync_trace()).run(hazards::relaxed_guard());
    assert!(analyze(&relaxed.sync_trace)
        .iter()
        .any(|f| f.kind == FindingKind::RelaxedLoadDecision));
}
