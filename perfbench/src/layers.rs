//! Per-layer metrics: the cost ladder and fixed-cost probes, and the
//! figures read from the spans of a traced run.

use std::sync::Arc;
use std::time::Instant;

use srr_apps::harness::Tool;
use srr_explore::{run_farm, Corpus, ShardOutput, ShardPlan, ShardRunner, ThreadSpawner};
use tsan11rec::{Atomic, Config, Execution, MemOrder, Mode};

use crate::harness::Metric;
use crate::stats::median;
use crate::trace::{self_time, Span};

/// Relaxed stores per ladder program on one thread, and on two threads
/// (where every store is a handoff, about 100 times dearer).
const LADDER_OPS_1T: usize = 100_000;
const LADDER_OPS_2T: usize = 10_000;

/// Repetitions per ladder rung; each rung reports the median. A
/// two-thread execution now and then runs without handing off at every
/// store (about one in five on a 2-core box), so the median needs
/// enough repetitions to stay on the common case.
const LADDER_REPS: usize = 7;

/// Every per-layer metric a traced run reports, with its unit.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("exec.empty_run_ms", "ms"),
    ("exec.teardown_ms", "ms"),
    ("exec.runs", "count"),
    ("sched.ticks_per_op", "ticks/op"),
    ("sched.wakeups_per_tick", "ratio"),
    ("sched.spurious_wakeups", "count"),
    ("sched.broadcasts", "count"),
    ("ladder.native_us", "us"),
    ("ladder.tsan11_us", "us"),
    ("ladder.tick_1t_us", "us"),
    ("ladder.handoff_2t_us", "us"),
    ("ladder.record_2t_us", "us"),
    ("ladder.replay_2t_us", "us"),
    ("ladder.trace_2t_us", "us"),
    ("vos.syscalls_per_op", "syscalls/op"),
    ("vos.recorded_syscalls_per_op", "syscalls/op"),
    ("replay.save_ms", "ms"),
    ("replay.load_ms", "ms"),
    ("replay.load_mb_per_s", "MB/s"),
    ("replay.demo_bytes_per_op", "B/op"),
    ("replay.syscall_bytes_per_op", "B/op"),
    ("replay.queue_bytes_per_op", "B/op"),
    ("replay.soft_desyncs", "count"),
    ("replay.hard_desyncs", "count"),
    ("racedet.races", "count"),
    ("racedet.suppressed", "count"),
    ("explore.shard_ms", "ms"),
    ("explore.dispatch_share", "ratio"),
    ("explore.noop_runs_per_s", "runs/s"),
    ("explore.raw_findings", "count"),
    ("explore.distinct_signatures", "count"),
    ("explore.dedup_ratio", "ratio"),
    ("explore.runs_to_first_race", "count"),
    ("predict.record_ms", "ms"),
    ("predict.sync_events", "count"),
    ("predict.analyze_ms", "ms"),
    ("predict.confirm_ms", "ms"),
    ("predict.candidates", "count"),
    ("predict.decided_ratio", "ratio"),
    ("predict.mismatches", "count"),
    ("proc.cpu_per_wall", "ratio"),
    ("overhead.ops_per_s", "ops/s"),
    ("overhead.latency_ms", "ms"),
];

/// Every end-to-end metric an untraced run reports, with its unit.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("latency_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// The ladder's program: `threads` threads splitting `ops` relaxed
/// stores to one atomic.
fn stores(threads: usize, ops: usize) -> impl FnOnce() + Send + 'static {
    move || {
        let cell = Arc::new(Atomic::new(0u64));
        let per = ops / threads;
        let workers: Vec<_> = (1..threads)
            .map(|_| {
                let cell = Arc::clone(&cell);
                tsan11rec::thread::spawn(move || {
                    for i in 0..per {
                        cell.store(i as u64, MemOrder::Relaxed);
                    }
                })
            })
            .collect();
        for i in 0..per {
            cell.store(i as u64, MemOrder::Relaxed);
        }
        for w in workers {
            w.join();
        }
    }
}

/// Median of `reps` calls of `f(rep)`, each returning milliseconds.
fn median_ms(reps: usize, f: impl FnMut(u64) -> f64) -> f64 {
    let samples: Vec<f64> = (0..reps as u64).map(f).collect();
    median(&samples).expect("reps > 0")
}

/// Wall milliseconds of `f`.
fn time_ms<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed().as_secs_f64() * 1e3)
}

/// Microseconds per store of a rung: the median wall time of the store
/// program minus that of the empty program under the same
/// configuration, timed around `Execution`. Rungs run without the
/// liveness rescheduler, whose teardown would round every wall time up
/// to its 10 ms quantum; `exec.empty_run_ms` measures that fixed cost.
fn rung(seed: u64, threads: usize, config: impl Fn() -> Config, how: Rung) -> f64 {
    let ops = if threads == 1 {
        LADDER_OPS_1T
    } else {
        LADDER_OPS_2T
    };
    let wall = |ops: usize| {
        median_ms(LADDER_REPS, |rep| {
            let exec = || {
                let config = config()
                    .with_seeds([seed ^ rep, seed.wrapping_add(rep)])
                    .without_liveness();
                Execution::new(config)
            };
            let (report, ms) = match how {
                Rung::Run => time_ms(|| exec().run(stores(threads, ops))),
                Rung::Record => time_ms(|| exec().record(stores(threads, ops)).0),
                Rung::Replay => {
                    // The recording is set-up, not part of the timed call.
                    let (_, demo) = exec().record(stores(threads, ops));
                    time_ms(|| exec().replay(&demo, stores(threads, ops)))
                }
            };
            assert!(
                report.outcome.is_ok(),
                "ladder program failed: {:?}",
                report.outcome
            );
            ms
        })
    };
    (wall(ops) - wall(0)) * 1e3 / ops as f64
}

#[derive(Clone, Copy)]
enum Rung {
    Run,
    Record,
    Replay,
}

/// The cost ladder, the fixed cost of an empty controlled execution, and
/// the farm's dispatch rate over a no-op runner. These do not depend on
/// the workload; every traced run measures them.
#[must_use]
pub fn probes(seed: u64) -> Vec<Metric> {
    let native = || Config::new(Mode::Native);
    let tsan11 = || Config::new(Mode::Tsan11);
    let queue = || Tool::Queue.config([0, 0]);
    let traced = || Tool::Queue.config([0, 0]).with_access_trace();
    let empty_run_ms = median_ms(LADDER_REPS, |rep| {
        let exec = Execution::new(Tool::Queue.config([seed, rep]));
        time_ms(|| exec.run(|| {})).1
    });
    vec![
        ("exec.empty_run_ms", empty_run_ms, "ms"),
        ("ladder.native_us", rung(seed, 1, native, Rung::Run), "us"),
        ("ladder.tsan11_us", rung(seed, 1, tsan11, Rung::Run), "us"),
        ("ladder.tick_1t_us", rung(seed, 1, queue, Rung::Run), "us"),
        (
            "ladder.handoff_2t_us",
            rung(seed, 2, queue, Rung::Run),
            "us",
        ),
        (
            "ladder.record_2t_us",
            rung(seed, 2, queue, Rung::Record),
            "us",
        ),
        (
            "ladder.replay_2t_us",
            rung(seed, 2, queue, Rung::Replay),
            "us",
        ),
        ("ladder.trace_2t_us", rung(seed, 2, traced, Rung::Run), "us"),
        ("explore.noop_runs_per_s", noop_farm_runs_per_s(), "runs/s"),
    ]
}

/// Runs per second of the farm over a runner that executes nothing:
/// dispatch, protocol and corpus cost alone.
fn noop_farm_runs_per_s() -> f64 {
    let runner: Arc<ShardRunner> = Arc::new(|task| {
        Ok(ShardOutput {
            runs: task.runs(),
            ..ShardOutput::default()
        })
    });
    let strategies = ["rnd".to_owned(), "queue".to_owned()];
    let plan = ShardPlan::build("noop", &strategies, 0, 256, 8, &[]);
    let runs = plan.total_runs() as f64;
    let spawner = ThreadSpawner { runner };
    let ms = median_ms(LADDER_REPS, |_| {
        let mut corpus = Corpus::in_memory();
        time_ms(|| run_farm(&plan, 1, &spawner, &mut corpus, None).expect("no-op farm runs")).1
    });
    runs / (ms / 1e3)
}

fn sum(spans: &[&Span], key: &str) -> f64 {
    spans.iter().map(|s| s.count(key)).sum()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn median_of(spans: &[&Span], f: impl Fn(&Span) -> f64) -> f64 {
    median(&spans.iter().map(|s| f(s)).collect::<Vec<_>>()).unwrap_or(0.0)
}

/// The per-layer figures of a traced run's spans. A layer the workload
/// does not load has no spans and reads 0.
#[must_use]
pub fn from_spans(spans: &[Span]) -> Vec<Metric> {
    let named = |name: &str| -> Vec<&Span> { spans.iter().filter(|s| s.name == name).collect() };
    let execs: Vec<&Span> = spans
        .iter()
        .filter(|s| s.name.starts_with("Execution::"))
        .collect();
    let records = named("Execution::record");
    let farms = named("run_farm");
    let farm_self_share: Vec<f64> = (0..spans.len())
        .filter(|&i| spans[i].name == "run_farm")
        .map(|i| ratio(self_time(spans, i), spans[i].end - spans[i].start))
        .collect();
    let saves = named("Demo::save_dir");
    let loads = named("Demo::load_dir");
    let replays = named("Execution::replay");
    let shards = named("shard");
    let analyses = named("predict_with");
    let confirms = named("classify_with");
    let passes = named("run_prediction");
    let predict_records: Vec<&Span> = records
        .iter()
        .copied()
        .filter(|s| s.parent.is_some_and(|p| spans[p].name == "run_prediction"))
        .collect();
    let n_execs = execs.len() as f64;
    let record_ops = sum(&records, "ops");
    let saved_ops = sum(&saves, "ops");

    vec![
        (
            "exec.teardown_ms",
            median_of(&execs, |s| s.ms() - s.count("duration_s") * 1e3),
            "ms",
        ),
        ("exec.runs", n_execs + sum(&farms, "runs"), "count"),
        (
            "sched.ticks_per_op",
            ratio(sum(&records, "ticks"), record_ops),
            "ticks/op",
        ),
        (
            "sched.wakeups_per_tick",
            ratio(sum(&execs, "wakeups"), sum(&execs, "ticks")),
            "ratio",
        ),
        (
            "sched.spurious_wakeups",
            ratio(sum(&execs, "spurious"), n_execs),
            "count",
        ),
        (
            "sched.broadcasts",
            ratio(sum(&execs, "broadcasts"), n_execs),
            "count",
        ),
        (
            "vos.syscalls_per_op",
            ratio(sum(&records, "syscalls"), record_ops),
            "syscalls/op",
        ),
        (
            "vos.recorded_syscalls_per_op",
            ratio(sum(&records, "recorded_syscalls"), record_ops),
            "syscalls/op",
        ),
        ("replay.save_ms", median_of(&saves, Span::ms), "ms"),
        ("replay.load_ms", median_of(&loads, Span::ms), "ms"),
        (
            "replay.load_mb_per_s",
            ratio(
                sum(&loads, "bytes") / 1e6,
                loads.iter().map(|s| s.ms() / 1e3).sum(),
            ),
            "MB/s",
        ),
        (
            "replay.demo_bytes_per_op",
            ratio(sum(&saves, "bytes"), saved_ops),
            "B/op",
        ),
        (
            "replay.syscall_bytes_per_op",
            ratio(sum(&saves, "syscall_bytes"), saved_ops),
            "B/op",
        ),
        (
            "replay.queue_bytes_per_op",
            ratio(sum(&saves, "queue_bytes"), saved_ops),
            "B/op",
        ),
        ("replay.soft_desyncs", sum(&replays, "soft_desync"), "count"),
        ("replay.hard_desyncs", sum(&replays, "hard_desync"), "count"),
        (
            "racedet.races",
            ratio(sum(&execs, "races"), n_execs),
            "count",
        ),
        (
            "racedet.suppressed",
            ratio(sum(&execs, "suppressed"), n_execs),
            "count",
        ),
        ("explore.shard_ms", median_of(&shards, Span::ms), "ms"),
        (
            "explore.dispatch_share",
            median(&farm_self_share).unwrap_or(0.0),
            "ratio",
        ),
        (
            "explore.raw_findings",
            median_of(&farms, |s| s.count("findings")),
            "count",
        ),
        (
            "explore.distinct_signatures",
            median_of(&farms, |s| s.count("distinct")),
            "count",
        ),
        (
            "explore.dedup_ratio",
            ratio(sum(&farms, "distinct"), sum(&farms, "findings")),
            "ratio",
        ),
        (
            "explore.runs_to_first_race",
            median_of(&farms, |s| s.count("runs_to_first_race")),
            "count",
        ),
        (
            "predict.record_ms",
            median_of(&predict_records, Span::ms),
            "ms",
        ),
        (
            "predict.sync_events",
            median_of(&predict_records, |s| s.count("sync_events")),
            "count",
        ),
        ("predict.analyze_ms", median_of(&analyses, Span::ms), "ms"),
        ("predict.confirm_ms", median_of(&confirms, Span::ms), "ms"),
        (
            "predict.candidates",
            ratio(sum(&analyses, "candidates"), passes.len() as f64),
            "count",
        ),
        (
            "predict.decided_ratio",
            ratio(sum(&confirms, "decided"), sum(&analyses, "candidates")),
            "ratio",
        ),
    ]
}
