//! The predict probe: record → predict → confirm over the hidden_handoff
//! and atomic_guard hazards, as `srr predict` runs it, with the sync and
//! access trace on. It loads `analysis`, the weak-partial-order pass,
//! witness synthesis and the targeted replays of synthesized demos.
//!
//! It is a probe of every traced run rather than a workload: under some
//! recorded schedules witness synthesis for hidden_handoff gets stuck
//! (about 1% of `srr predict --seed 7` runs, since the liveness
//! rescheduler makes the recording depend on OS timing) and grades the
//! race unconfirmed instead of confirmed. That one known defect is
//! counted in `predict.mismatches`; every other difference from
//! `ci/predict_expected.txt` fails the run.

use srr_apps::harness::Tool;
use srr_apps::hazards;
use srr_predict::{classify_with, predict_with, Classification, PredictReport, ReplayVerdict};
use tsan11rec::vos::Vos;
use tsan11rec::{Execution, Outcome};

use crate::expected::{parse_predict, read_ci};
use crate::harness::{exec_counts, Scope, Tally};
use crate::rng::scheduler_seeds;

/// The hazards predicted in each pass, as in `ci/predict_expected.txt`.
const HAZARDS: [&str; 2] = ["hidden_handoff", "atomic_guard"];

/// The lines of `srr predict --json` that `ci/check_predict.sh` keeps
/// and that grade the predictions, in its order, ending with the exit
/// code `srr predict` would return.
fn verdict_lines(p: &PredictReport) -> Vec<String> {
    let confirmed = p.count(Classification::Confirmed);
    let mut lines = vec![
        format!("\"candidates\": {}", p.races.len()),
        format!("\"confirmed\": {confirmed}"),
        format!("\"unconfirmed\": {}", p.count(Classification::Unconfirmed)),
        format!("\"infeasible\": {}", p.count(Classification::Infeasible)),
    ];
    for r in &p.races {
        lines.push(format!(
            "\"classification\": \"{}\"",
            r.classification.name()
        ));
    }
    lines.push(format!("exit={}", if confirmed > 0 { 2 } else { 0 }));
    lines
}

/// Whether a line of `ci/predict_expected.txt` grades the predictions.
/// The `"recorded_races"` and `"hidden"` lines describe the recorded
/// schedule instead: under some scheduler seeds the recording itself
/// runs the racy order, so the race is observed rather than hidden, with
/// the same verdicts.
fn is_verdict(line: &str) -> bool {
    !line.starts_with("\"recorded_races\"") && !line.starts_with("\"hidden\"")
}

/// Predicts one hazard by calling, in the same order, the public
/// functions `predictor::run_prediction` calls, each under its own span.
fn predict<P, F>(seeds: [u64; 2], make: F, scope: &Scope) -> PredictReport
where
    F: Fn() -> P,
    P: FnOnce() + Send + 'static,
{
    let no_setup = |_: &Vos| {};
    let config = Tool::Queue.config(seeds).with_access_trace();
    let ((record, demo), _) = scope.timed(
        "Execution::record",
        |_| Execution::new(config).setup(no_setup).record(make()),
        |(r, _)| exec_counts(r, 1.0),
    );
    let (mut predictions, _) = scope.timed(
        "predict_with",
        |_| predict_with(&record.sync_trace, &demo, |_| true),
        |p| vec![("candidates", p.races.len() as f64)],
    );
    scope.timed(
        "classify_with",
        |inner| {
            classify_with(&mut predictions, |race, witness| {
                let cfg = Tool::Queue.config(seeds).with_race_target(
                    &race.loc_label,
                    race.tids.0,
                    race.tids.1,
                );
                let (report, _) = inner.timed(
                    "Execution::replay",
                    |_| Execution::new(cfg).setup(no_setup).replay(witness, make()),
                    |r| exec_counts(r, 0.0),
                );
                ReplayVerdict {
                    hard_desync: matches!(report.outcome, Outcome::HardDesync(_)),
                    target_hit: report.race_target_hit.unwrap_or(false),
                }
            });
            predictions.count(Classification::Confirmed)
                + predictions.count(Classification::Infeasible)
        },
        |decided| vec![("decided", *decided as f64)],
    );
    predictions
}

/// Record → predict → confirm passes over both hazards each traced run
/// makes, with scheduler seeds from the workload seed.
const PROBE_PASSES: u64 = 16;

/// The report with every unconfirmed race graded confirmed: what the
/// prediction would have been had witness synthesis not got stuck.
fn unstuck(report: &PredictReport) -> PredictReport {
    let mut r = report.clone();
    for race in &mut r.races {
        if race.classification == Classification::Unconfirmed {
            race.classification = Classification::Confirmed;
        }
    }
    r
}

/// How one hazard's prediction compares with its expected verdict lines.
#[derive(Debug, PartialEq, Eq)]
enum Grade {
    /// The verdicts match.
    Match,
    /// The known defect: hidden_handoff's race graded unconfirmed
    /// because witness synthesis got stuck, all else as expected.
    StuckSynthesis,
    /// Any other difference: a failed known-answer check.
    Wrong,
}

fn grade(name: &str, report: &PredictReport, want: &[&String]) -> Grade {
    if verdict_lines(report).iter().eq(want.iter().copied()) {
        Grade::Match
    } else if name == "hidden_handoff"
        && verdict_lines(&unstuck(report))
            .iter()
            .eq(want.iter().copied())
    {
        Grade::StuckSynthesis
    } else {
        Grade::Wrong
    }
}

/// Runs the predict probe under `scope`: [`PROBE_PASSES`] passes over
/// both hazards through the public calls `run_prediction` makes, each
/// under its own span. Each hazard prediction is one operation of
/// `tally`, failed when its verdicts differ from
/// `ci/predict_expected.txt` other than by the known stuck synthesis.
/// Returns how many predictions hit that known defect.
///
/// # Errors
///
/// Fails when the expected verdicts cannot be read.
pub fn probe(seed: u64, scope: &Scope, tally: &mut Tally) -> Result<u64, String> {
    let expected = parse_predict(&read_ci("predict_expected.txt")?)?;
    let mut stuck = 0;
    for pass in 0..PROBE_PASSES {
        let seeds = scheduler_seeds(seed, pass);
        for name in HAZARDS {
            let (report, _) = scope.timed(
                "run_prediction",
                |inner| match name {
                    "hidden_handoff" => predict(seeds, hazards::hidden_handoff, inner),
                    "atomic_guard" => predict(seeds, hazards::atomic_guard, inner),
                    other => unreachable!("no hazard `{other}`"),
                },
                |_| Vec::new(),
            );
            let want: Vec<&String> = expected
                .get(name)
                .into_iter()
                .flatten()
                .filter(|l| is_verdict(l))
                .collect();
            let problem = match grade(name, &report, &want) {
                Grade::Match => None,
                Grade::StuckSynthesis => {
                    stuck += 1;
                    None
                }
                Grade::Wrong => Some(format!(
                    "predict {name} (pass {pass}): verdicts {:?}, expected {want:?}",
                    verdict_lines(&report)
                )),
            };
            tally.op(problem);
        }
    }
    Ok(stuck)
}

#[cfg(test)]
mod tests {
    use super::*;
    use srr_predict::PredictedRace;

    fn report(classification: Classification, hidden: bool) -> PredictReport {
        PredictReport {
            races: vec![PredictedRace {
                loc: 0,
                loc_label: "cell".to_owned(),
                tids: (1, 2),
                writes: (true, false),
                hidden,
                classification,
                witness: None,
            }],
            pruned: 0,
        }
    }

    fn want(name: &str) -> Vec<String> {
        let expected = parse_predict(&read_ci("predict_expected.txt").expect("committed"))
            .expect("predict_expected.txt parses");
        expected[name]
            .iter()
            .filter(|l| is_verdict(l))
            .cloned()
            .collect()
    }

    fn graded(name: &str, report: &PredictReport) -> Grade {
        let want = want(name);
        grade(name, report, &want.iter().collect::<Vec<_>>())
    }

    #[test]
    fn verdicts_match_the_committed_expectations_whatever_the_schedule() {
        for hidden in [true, false] {
            assert_eq!(
                graded("hidden_handoff", &report(Classification::Confirmed, hidden)),
                Grade::Match
            );
            assert_eq!(
                graded("atomic_guard", &report(Classification::Infeasible, hidden)),
                Grade::Match
            );
        }
    }

    #[test]
    fn only_a_stuck_hidden_handoff_synthesis_is_tolerated() {
        use Classification::{Confirmed, Infeasible, Unconfirmed};
        assert_eq!(
            graded("hidden_handoff", &report(Unconfirmed, true)),
            Grade::StuckSynthesis
        );
        assert_eq!(
            graded("hidden_handoff", &report(Infeasible, true)),
            Grade::Wrong
        );
        assert_eq!(
            graded("atomic_guard", &report(Unconfirmed, true)),
            Grade::Wrong
        );
        assert_eq!(
            graded("atomic_guard", &report(Confirmed, true)),
            Grade::Wrong
        );
        let mut two = report(Confirmed, true);
        two.races.push(two.races[0].clone());
        assert_eq!(graded("hidden_handoff", &two), Grade::Wrong);
        assert_eq!(
            graded("hidden_handoff", &PredictReport::default()),
            Grade::Wrong
        );
    }
}
