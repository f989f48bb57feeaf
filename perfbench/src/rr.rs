//! The record/replay workloads: each iteration records the program under
//! `queue + rec`, saves the binary demo, loads it back and replays it,
//! timing each public call from outside.
//!
//! * `httpd-rr`: httpd-sim with 2 workers behind 2 closed-loop `ab`
//!   clients. The densest visible-op and syscall traffic: the scheduler's
//!   handoff, vOS recording and the demo codec do most of the work.
//! * `pbzip-rr`: pbzip-sim with 2 compressor threads over a generated
//!   file. Long invisible compute between few visible ops: the paper's
//!   parallelism-preservation case, with little handoff.

use std::path::Path;
use std::sync::Arc;

use srr_apps::harness::Tool;
use srr_apps::{httpd, pbzip};
use srr_replay::{Demo, StreamId};
use tsan11rec::vos::{EnvRng, Vos, VosConfig};
use tsan11rec::Fd;
use tsan11rec::{ExecReport, Execution, Outcome};

use crate::harness::{exec_counts, Sample, Scope, ScratchDir, Tally, Workload};
use crate::rng::scheduler_seeds;

/// Queries per httpd-rr iteration, and in its warm-up.
const HTTPD_QUERIES: u32 = 1_000;
const HTTPD_WARM_UP_QUERIES: u32 = 100;

/// Blocks per pbzip-rr iteration.
const PBZIP_BLOCKS: usize = 250;

/// pbzip-sim's block size.
const PBZIP_BLOCK_BYTES: usize = 4096;

/// Where pbzip-sim reads its input.
const PBZIP_INPUT: &str = "/data/input.bin";

type World = Box<dyn FnOnce(&Vos) + Send>;
type Program = Box<dyn FnOnce() + Send>;

/// How the record and replay consoles are judged.
enum Check {
    /// httpd-rr: both consoles start with this line prefix; what follows
    /// it comes from the deliberately racy counter and may differ between
    /// record and replay (a soft desync, not a failure).
    ServedPrefix(String),
    /// pbzip-rr: both consoles equal a native run's console.
    Exact(String),
}

/// One record/replay workload.
pub struct RecordReplay {
    seed: u64,
    ops: f64,
    world: Box<dyn Fn() -> World>,
    program: Box<dyn Fn() -> Program>,
    check: Check,
    dir: ScratchDir,
}

fn outcome_problem(what: &str, r: &ExecReport) -> Option<String> {
    match &r.outcome {
        Outcome::Completed => None,
        other => Some(format!("{what}: {other:?}")),
    }
}

impl RecordReplay {
    fn console_problem(&self, what: &str, console: &str) -> Option<String> {
        let ok = match &self.check {
            Check::ServedPrefix(prefix) => console.starts_with(prefix.as_str()),
            Check::Exact(expected) => console == expected,
        };
        (!ok).then(|| format!("{what}: unexpected console {console:?}"))
    }

    /// Runs one record → save → load → replay round. The throughput
    /// counts the record call, the latency the load and replay calls.
    fn round(&self, index: u64, scope: &Scope, tally: &mut Tally) -> Option<Sample> {
        let seeds = scheduler_seeds(self.seed, index);
        let config = Tool::QueueRec.config(seeds);
        let ops = self.ops;
        let ((record, demo), record_s) = scope.timed(
            "Execution::record",
            |_| {
                Execution::new(config.clone())
                    .setup((self.world)())
                    .record((self.program)())
            },
            |(r, d)| {
                let mut c = exec_counts(r, ops);
                c.push(("recorded_syscalls", d.syscalls.len() as f64));
                c
            },
        );
        let record_console = record.console_text();
        let problem = outcome_problem("record", &record)
            .or_else(|| self.console_problem("record", &record_console));
        let failed = problem.is_some();
        tally.op(problem);
        if failed {
            return None;
        }

        let dir = self.dir.0.clone();
        let (saved, _) = scope.timed(
            "Demo::save_dir",
            |_| demo.save_dir(&dir),
            |_| disk_counts(&dir, ops),
        );
        if let Err(e) = saved {
            tally.op(Some(format!("saving demo: {e}")));
            return None;
        }
        let (loaded, load_s) = scope.timed(
            "Demo::load_dir",
            |_| Demo::load_dir(&dir),
            |_| vec![("bytes", disk_bytes(&dir, None))],
        );
        let loaded = match loaded {
            Ok(d) => d,
            Err(e) => {
                tally.op(Some(format!("loading demo: {e}")));
                return None;
            }
        };
        let (replay, replay_s) = scope.timed(
            "Execution::replay",
            |_| {
                Execution::new(config)
                    .setup((self.world)())
                    .replay(&loaded, (self.program)())
            },
            |r| {
                let mut c = exec_counts(r, ops);
                let hard = matches!(r.outcome, Outcome::HardDesync(_));
                let soft = !hard && r.console_text() != record_console;
                c.push(("hard_desync", f64::from(u8::from(hard))));
                c.push(("soft_desync", f64::from(u8::from(soft))));
                c
            },
        );
        let replay_console = replay.console_text();
        let problem = outcome_problem("replay", &replay)
            .or_else(|| self.console_problem("replay", &replay_console));
        let failed = problem.is_some();
        tally.op(problem);
        (!failed).then_some(Sample {
            ops,
            op_secs: record_s,
            latency_ms: (load_s + replay_s) * 1e3,
            peak_rss_mb: 0.0,
        })
    }
}

/// Bytes on disk of a saved demo, in total and for the streams the
/// replay layer's metrics name, with the operations it covers.
fn disk_counts(dir: &Path, ops: f64) -> Vec<(&'static str, f64)> {
    vec![
        ("ops", ops),
        ("bytes", disk_bytes(dir, None)),
        ("syscall_bytes", disk_bytes(dir, Some(StreamId::Syscall))),
        ("queue_bytes", disk_bytes(dir, Some(StreamId::Queue))),
    ]
}

/// Bytes on disk of one stream of a saved demo, or of all of them.
fn disk_bytes(dir: &Path, stream: Option<StreamId>) -> f64 {
    StreamId::ALL
        .into_iter()
        .filter(|id| stream.is_none_or(|s| s == *id))
        .map(|id| std::fs::metadata(dir.join(id.file_name())).map_or(0.0, |m| m.len() as f64))
        .sum()
}

/// `httpd-rr`: httpd-sim under closed-loop `ab` load.
pub struct HttpdRr(RecordReplay);

/// httpd-sim serving `queries` queries.
fn httpd_rr(seed: u64, queries: u32) -> Result<RecordReplay, String> {
    let params = httpd::HttpdParams {
        workers: 2,
        clients: 2,
        total_queries: queries,
        response_bytes: 128,
        service_latency_us: 0,
    };
    Ok(RecordReplay {
        seed,
        ops: f64::from(queries),
        world: Box::new(move || Box::new(httpd::world(params))),
        program: Box::new(move || Box::new(httpd::server(params))),
        check: Check::ServedPrefix(format!("served {queries} requests (")),
        dir: ScratchDir::new("httpd-rr")?,
    })
}

impl Workload for HttpdRr {
    const NAME: &'static str = "httpd-rr";

    fn setup(seed: u64) -> Result<Self, String> {
        // The warm-up serves fewer queries: a full round switches between
        // the handoff modes, which would make set-up time bimodal.
        warm_up(&httpd_rr(seed, HTTPD_WARM_UP_QUERIES)?)?;
        Ok(HttpdRr(httpd_rr(seed, HTTPD_QUERIES)?))
    }

    fn iteration(&mut self, index: u64, scope: &Scope, tally: &mut Tally) -> Option<Sample> {
        self.0.round(index, scope, tally)
    }
}

/// Blocks' worth of bytes the seed may shift pbzip-sim's input by.
const PBZIP_PHASES: usize = 16;

/// pbzip-sim's input: `blocks` blocks of `pbzip::world`'s content (runs
/// of letters and zeros with some noise), starting at a seed-chosen
/// offset into it.
///
/// # Errors
///
/// Fails when the generated file cannot be read back.
pub fn pbzip_input(seed: u64, blocks: usize) -> Result<Vec<u8>, String> {
    let len = blocks * PBZIP_BLOCK_BYTES;
    let offset = EnvRng::new(seed).below((PBZIP_PHASES * PBZIP_BLOCK_BYTES) as u64) as usize;
    let vos = Vos::new(VosConfig::deterministic(seed));
    pbzip::world(pbzip::PbzipParams {
        threads: 2,
        blocks: blocks + PBZIP_PHASES,
        block_size: PBZIP_BLOCK_BYTES,
    })(&vos);
    let fd = vos
        .open(PBZIP_INPUT, false)
        .map_err(|e| format!("opening the generated input: {e:?}"))?;
    let mut data = vec![0; offset + len];
    let mut read = 0;
    while read < data.len() {
        match vos.read(Fd(fd as i32), &mut data[read..]) {
            Ok(0) => break,
            Ok(n) => read += n as usize,
            Err(e) => return Err(format!("reading the generated input: {e:?}")),
        }
    }
    if read < data.len() {
        return Err(format!(
            "generated input holds {read} bytes, not {}",
            data.len()
        ));
    }
    Ok(data.split_off(offset))
}

/// `pbzip-rr`: pbzip-sim over a generated file.
pub struct PbzipRr(RecordReplay);

impl Workload for PbzipRr {
    const NAME: &'static str = "pbzip-rr";

    fn setup(seed: u64) -> Result<Self, String> {
        let params = pbzip::PbzipParams {
            threads: 2,
            blocks: PBZIP_BLOCKS,
            block_size: PBZIP_BLOCK_BYTES,
        };
        let input = Arc::new(pbzip_input(seed, PBZIP_BLOCKS)?);
        let world = move || -> World {
            let input = Arc::clone(&input);
            Box::new(move |vos: &Vos| vos.add_file(PBZIP_INPUT, input.to_vec()))
        };
        // The known answer: what an uninstrumented run prints.
        let native = Execution::new(Tool::Native.config(scheduler_seeds(seed, u64::MAX)))
            .setup(world())
            .run(pbzip::pbzip(params));
        if let Some(p) = outcome_problem("native reference", &native) {
            return Err(p);
        }
        let expected = native.console_text();
        if !expected.starts_with(&format!("pbzip: {PBZIP_BLOCKS} blocks")) {
            return Err(format!("native reference printed {expected:?}"));
        }
        let w = RecordReplay {
            seed,
            ops: PBZIP_BLOCKS as f64,
            world: Box::new(world),
            program: Box::new(move || Box::new(pbzip::pbzip(params))),
            check: Check::Exact(expected),
            dir: ScratchDir::new("pbzip-rr")?,
        };
        warm_up(&w)?;
        Ok(PbzipRr(w))
    }

    fn iteration(&mut self, index: u64, scope: &Scope, tally: &mut Tally) -> Option<Sample> {
        self.0.round(index, scope, tally)
    }
}

/// One untimed round outside the measured seed stream; set-up fails when
/// it fails its known-answer check.
fn warm_up(w: &RecordReplay) -> Result<(), String> {
    let mut tally = Tally::default();
    w.round(u64::MAX, &Scope::untraced(), &mut tally);
    match tally.reasons.first() {
        Some(r) => Err(format!("warm-up: {r}")),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pbzip_input_is_a_seeded_window_of_the_world_file() {
        let a = pbzip_input(5, 3).expect("generated");
        assert_eq!(a.len(), 3 * PBZIP_BLOCK_BYTES);
        assert_eq!(a, pbzip_input(5, 3).expect("generated"));
        let longer = pbzip_input(5, 4).expect("generated");
        assert_eq!(a, longer[..a.len()]);
    }
}
