//! The cost ladder's scheduling rungs as gated rows: microseconds per
//! visible operation for the uncontended one-thread tick and for the
//! two-thread handoff, run, recorded and replayed. Emits
//! `BENCH_layers.json`.
//!
//! The program is the ladder's: `threads` threads splitting `ops`
//! relaxed stores to one atomic, so with two threads every store is a
//! handoff. A rung is the median wall time of the store program minus
//! that of the empty program under the same configuration, per store,
//! without the liveness rescheduler. The handoff rungs are what the
//! spin-then-park wait moves (about 7 µs when every handoff wakes a
//! parked thread, about 2 µs when the spin catches it, on a 2-vCPU
//! Xeon), so a scheduler that goes back to parking at once fails the
//! ±25% gate.
//!
//! Two more rows price what every `Execution` pays before its first
//! visible op: `exec empty` (µs per run of the empty program, default
//! configuration with the liveness rescheduler on) and `exec spawn` (µs
//! per `thread::spawn` + `join`). Spawned threads come from a pool of OS
//! threads and liveness runs in the waiting threads, so once the pool is
//! warm an `Execution` creates one OS thread, for its main program
//! thread: about 35 and 11 µs on a 2-vCPU Xeon, against 96 and 110 µs
//! when every run also created a liveness thread and every spawn its own
//! OS thread, which fails the gate.

use std::sync::Arc;
use std::time::Instant;

use srr_bench::report::{BenchReport, BenchRow, Json};
use srr_bench::{banner, bench_runs, quick_mode, SchedTotals, Stats, TablePrinter, Tool};
use tsan11rec::{Atomic, Config, ExecReport, Execution, MemOrder};

/// `threads` threads splitting `ops` relaxed stores to one atomic.
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

#[derive(Clone, Copy)]
enum Rung {
    Run,
    Record,
    Replay,
}

fn config(rep: usize) -> Config {
    Tool::Queue
        .config([7 ^ rep as u64, 11 + rep as u64])
        .without_liveness()
}

/// One timed execution of the store program, in milliseconds. A replay
/// is timed without the recording it replays.
fn timed(how: Rung, threads: usize, ops: usize, rep: usize) -> (ExecReport, f64) {
    let time = |f: &dyn Fn() -> ExecReport| {
        let start = Instant::now();
        let report = f();
        (report, start.elapsed().as_secs_f64() * 1e3)
    };
    let (report, ms) = match how {
        Rung::Run => time(&|| Execution::new(config(rep)).run(stores(threads, ops))),
        Rung::Record => time(&|| Execution::new(config(rep)).record(stores(threads, ops)).0),
        Rung::Replay => {
            let (_, demo) = Execution::new(config(rep)).record(stores(threads, ops));
            time(&|| Execution::new(config(rep)).replay(&demo, stores(threads, ops)))
        }
    };
    assert!(report.outcome.is_ok(), "{:?}", report.outcome);
    (report, ms)
}

/// Microseconds per store of a rung (median over `reps`), with the
/// scheduler counters of its store runs.
fn rung(how: Rung, threads: usize, ops: usize, reps: usize) -> (f64, SchedTotals) {
    let median = |samples: Vec<f64>| Stats::of(&samples).median;
    let empty = median((0..reps).map(|rep| timed(how, threads, 0, rep).1).collect());
    let mut sched = SchedTotals::default();
    let full = median(
        (0..reps)
            .map(|rep| {
                let (report, ms) = timed(how, threads, ops, rep);
                sched.add(&report);
                ms
            })
            .collect(),
    );
    ((full - empty).max(0.0) * 1e3 / ops as f64, sched)
}

/// Microseconds per `per_run`-th of an execution of `program` under the
/// default configuration (liveness on), one sample per batch of `runs`
/// back-to-back executions. The samples' spread is the gate's noise
/// slack: an empty run's cost is
/// mostly two cross-thread wakeups (the harness hands the main thread its
/// job and waits for it), whose latency depends on where the OS puts the
/// two threads.
fn us_per(per_run: usize, reps: usize, runs: usize, program: fn()) -> Stats {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..runs {
                let report = Execution::new(Tool::Queue.config([7, 11])).run(program);
                assert!(report.outcome.is_ok(), "{:?}", report.outcome);
            }
            start.elapsed().as_secs_f64() * 1e6 / (runs * per_run) as f64
        })
        .collect();
    Stats::of(&samples)
}

/// `SPAWNS` children, each spawned and joined before the next: enough
/// that the run's own fixed cost is a few percent of the program's.
const SPAWNS: usize = 200;

fn spawn_join() {
    for _ in 0..SPAWNS {
        tsan11rec::thread::spawn(|| {}).join();
    }
}

fn main() {
    banner("Cost ladder: scheduling rungs (us per visible op)");
    let quick = quick_mode();
    let reps = bench_runs(if quick { 7 } else { 15 });
    let (ops_1t, ops_2t) = if quick {
        (50_000, 5_000)
    } else {
        (200_000, 20_000)
    };
    let mut report = BenchReport::new("layers", "scheduling cost per visible op (us)", reps, 1);
    let table = TablePrinter::new(
        &["workload", "config", "us/op", "ticks", "wakeups"],
        &[8, 12, 8, 10, 10],
    );
    let rungs = [
        ("tick 1t", Rung::Run, 1, ops_1t),
        ("handoff 2t", Rung::Run, 2, ops_2t),
        ("record 2t", Rung::Record, 2, ops_2t),
        ("replay 2t", Rung::Replay, 2, ops_2t),
    ];
    for (name, how, threads, ops) in rungs {
        let (us, sched) = rung(how, threads, ops, reps);
        let c = sched.total();
        table.row(&[
            "stores",
            name,
            &format!("{us:.3}"),
            &c.ticks.to_string(),
            &c.wakeups_issued.to_string(),
        ]);
        // One sample, the median: the two-thread program now and then
        // runs without handing off at every store, and such runs must
        // not widen the gate's noise slack.
        report.push(
            BenchRow::from_stats("stores", name, "us", false, &Stats::of(&[us])).with_sched(c),
        );
    }
    // The fixed cost of an Execution, and of a spawn + join in one.
    let runs = if quick { 200 } else { 1_000 };
    let exec = [
        ("empty", us_per(1, reps, runs, || {})),
        ("spawn", us_per(SPAWNS, reps, runs / 20, spawn_join)),
    ];
    for (name, us) in exec {
        table.row(&["exec", name, &format!("{:.3}", us.mean), "-", "-"]);
        report.push(BenchRow::from_stats("exec", name, "us", false, &us));
    }
    report.note("ops_1t", Json::Num(ops_1t as f64));
    report.note("ops_2t", Json::Num(ops_2t as f64));
    report.write().expect("writing BENCH_layers.json");
}
