//! `explore-litmus`: the in-process exploration farm (`srr explore
//! --workers 1`) over the barrier and dekker-fences litmus tests under
//! the `rnd` and `queue` strategies.
//!
//! Hundreds of tiny executions: the fixed cost of each `Execution` and
//! the farm's dispatch do nearly all the work, and handoff does little —
//! the mirror image of `httpd-rr`.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use srr_apps::{explorer, litmus};
use srr_explore::{
    run_farm, Corpus, FarmOutcome, ShardPlan, ShardRunner, SignatureKind, ThreadSpawner,
};
use tsan11rec::vos::EnvRng;
use tsan11rec::Execution;

use crate::expected::{parse_explore, read_ci};
use crate::harness::{exec_counts, Sample, Scope, Tally, Workload};

/// The litmus tests explored, as in `ci/explore_expected.txt`.
const LITMUS: [&str; 2] = ["barrier", "dekker-fences"];

/// Strategies each session shards over.
const STRATEGIES: [&str; 2] = ["rnd", "queue"];

/// Seeds per strategy and litmus test in one farm session.
const SESSION_SEEDS: u64 = 24;

/// Seeds per shard.
const SHARD_SEEDS: u64 = 6;

/// Seeds per strategy and litmus test that a traced run also executes
/// directly, to read per-execution counters the farm does not return.
const PROBE_SEEDS: u64 = 4;

/// What the farm's shards report back besides their output.
#[derive(Default)]
struct Bookkeeping {
    runs_done: u64,
    runs_to_first_race: Option<u64>,
    failed_runs: Vec<String>,
}

/// The `explore-litmus` workload.
pub struct ExploreLitmus {
    seed: u64,
    programs: Vec<(&'static str, fn())>,
    expected: BTreeMap<String, Vec<String>>,
}

impl ExploreLitmus {
    /// First seed of session `index`.
    fn seed_lo(&self, index: u64) -> u64 {
        EnvRng::new(self.seed ^ index.wrapping_mul(0xA24B_AED4_963E_E407)).next_u64() >> 32
    }

    /// One farm session over every litmus test: each test's plan, with
    /// task ids renumbered to stay unique.
    fn plan(&self, seed_lo: u64, seeds: u64, shard: u64) -> ShardPlan {
        let strategies: Vec<String> = STRATEGIES.iter().map(|s| (*s).to_owned()).collect();
        let mut tasks = Vec::new();
        for (name, _) in &self.programs {
            let plan = ShardPlan::build(name, &strategies, seed_lo, seed_lo + seeds, shard, &[]);
            for mut task in plan.tasks {
                task.id = tasks.len() as u64;
                tasks.push(task);
            }
        }
        ShardPlan { tasks }
    }

    /// Runs `plan` through `run_farm` with one in-process worker, timed
    /// around the call.
    fn farm(
        &self,
        plan: &ShardPlan,
        scope: &Scope,
    ) -> (Result<FarmOutcome, String>, Corpus, Bookkeeping, f64) {
        let programs = self.programs.clone();
        let book = Arc::new(Mutex::new(Bookkeeping::default()));
        let mut corpus = Corpus::in_memory();
        let counts_book = Arc::clone(&book);
        let (outcome, secs) = scope.timed(
            "run_farm",
            |inner| {
                let shard_tracer = inner.tracer().map(|(t, p, i)| (t.clone(), p, i));
                let book = Arc::clone(&book);
                let runner: Arc<ShardRunner> = Arc::new(move |task| {
                    let program = programs
                        .iter()
                        .find(|(n, _)| *n == task.workload)
                        .map(|(_, p)| *p)
                        .ok_or_else(|| format!("unknown litmus `{}`", task.workload))?;
                    let span = shard_tracer
                        .as_ref()
                        .map(|(t, parent, i)| (t, t.open("shard", *parent, *i)));
                    let out = explorer::run_shard(task, |_| {}, program, None);
                    if let (Some((t, id)), Ok(o)) = (span, &out) {
                        t.close(id);
                        t.count(
                            id,
                            &[
                                ("runs", o.runs as f64),
                                ("findings", o.findings.len() as f64),
                            ],
                        );
                    }
                    if let Ok(o) = &out {
                        let mut b = book.lock().expect("bookkeeping poisoned by a panic");
                        let first = o
                            .findings
                            .iter()
                            .filter(|f| f.signature.kind == SignatureKind::Race)
                            .map(|f| f.seed - task.seed_lo + 1)
                            .min();
                        if b.runs_to_first_race.is_none() {
                            b.runs_to_first_race = first.map(|n| b.runs_done + n);
                        }
                        b.runs_done += o.runs;
                        b.failed_runs.extend(
                            o.findings
                                .iter()
                                .filter(|f| f.signature.kind != SignatureKind::Race)
                                .map(|f| {
                                    format!("{} seed {}: {}", task.workload, f.seed, f.signature)
                                }),
                        );
                    }
                    out
                });
                run_farm(plan, 1, &ThreadSpawner { runner }, &mut corpus, None)
            },
            |out| {
                let b = counts_book.lock().expect("bookkeeping poisoned by a panic");
                let c = out.as_ref().map(|o| o.counters.clone()).unwrap_or_default();
                vec![
                    ("runs", c.runs as f64),
                    ("findings", c.findings as f64),
                    ("distinct", c.distinct_signatures as f64),
                    ("first_race_ms", c.time_to_first_race_ms.unwrap_or(0.0)),
                    (
                        "runs_to_first_race",
                        b.runs_to_first_race.unwrap_or(0) as f64,
                    ),
                ]
            },
        );
        let book = std::mem::take(&mut *book.lock().expect("bookkeeping poisoned by a panic"));
        (outcome, corpus, book, secs)
    }
}

impl Workload for ExploreLitmus {
    const NAME: &'static str = "explore-litmus";

    fn setup(seed: u64) -> Result<Self, String> {
        let expected = parse_explore(&read_ci("explore_expected.txt")?)?;
        let suite = litmus::table1_suite();
        let programs = LITMUS
            .iter()
            .map(|name| {
                suite
                    .iter()
                    .find(|l| l.name == *name)
                    .map(|l| (l.name, l.run))
                    .ok_or_else(|| format!("no litmus test `{name}`"))
            })
            .collect::<Result<Vec<_>, String>>()?;
        if let Some(w) = expected.keys().find(|w| !LITMUS.contains(&w.as_str())) {
            return Err(format!(
                "explore_expected.txt names `{w}`, which is not explored"
            ));
        }
        let w = ExploreLitmus {
            seed,
            programs,
            expected,
        };
        // Warm-up: a small session outside the measured seed ranges.
        let (outcome, _, book, _) = w.farm(&w.plan(1 << 40, 2, 2), &Scope::untraced());
        match outcome {
            Ok(o) if o.errors.is_empty() && book.failed_runs.is_empty() => Ok(w),
            Ok(o) => Err(format!("warm-up: {:?} {:?}", o.errors, book.failed_runs)),
            Err(e) => Err(format!("warm-up: {e}")),
        }
    }

    fn iteration(&mut self, index: u64, scope: &Scope, tally: &mut Tally) -> Option<Sample> {
        let plan = self.plan(self.seed_lo(index), SESSION_SEEDS, SHARD_SEEDS);
        let (outcome, corpus, book, secs) = self.farm(&plan, scope);
        let outcome = match outcome {
            Ok(o) => o,
            Err(e) => {
                tally.op(Some(format!("run_farm: {e}")));
                return None;
            }
        };
        tally.attempted += outcome.counters.runs;
        for reason in outcome.errors.iter().chain(&book.failed_runs) {
            tally.fail(reason.clone());
        }
        // The known answer: every expected signature is in the corpus.
        for (workload, sigs) in &self.expected {
            for sig in sigs {
                let found = corpus
                    .iter()
                    .any(|(s, e)| e.workload == *workload && s.encode() == *sig);
                if !found {
                    tally.fail(format!("{workload}: signature {sig} not found"));
                }
            }
        }
        let Some(first_race_ms) = outcome.counters.time_to_first_race_ms else {
            tally.fail("no race found".to_owned());
            return None;
        };
        Some(Sample {
            ops: outcome.counters.runs as f64,
            op_secs: secs,
            latency_ms: first_race_ms,
            peak_rss_mb: 0.0,
        })
    }

    /// Executes each litmus test directly under each strategy's
    /// configuration, as the farm's shards do, to read the execution
    /// counters and teardown the farm does not return.
    fn probe(&mut self, scope: &Scope, tally: &mut Tally) {
        let lo = self.seed_lo(u64::MAX);
        for (_, program) in self.programs.clone() {
            for name in STRATEGIES {
                let strategy = explorer::parse_strategy(name).expect("known strategy");
                for seed in lo..lo + PROBE_SEEDS {
                    let exec = Execution::new(strategy.config(seed));
                    let (report, _) = scope.timed(
                        "Execution::record",
                        |_| exec.record(program).0,
                        |r| exec_counts(r, 1.0),
                    );
                    tally.op((!report.outcome.is_ok())
                        .then(|| format!("{name} seed {seed}: {:?}", report.outcome)));
                }
            }
        }
    }
}
