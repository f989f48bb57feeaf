//! The measurement loop shared by every workload: repeated set-up, timed
//! iterations until the run's time is spent, and the result document.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use tsan11rec::ExecReport;

use crate::layers;
use crate::procfs;
use crate::stats::{block_aggregates, median, tail};
use crate::trace::{SpanId, Tracer};

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// The iteration id of spans recorded by a traced run's probes.
const PROBE_ITERATION: u64 = u64::MAX;

/// Iterations run even when the time is spent (two of each kind in a
/// traced run, so both medians exist).
const MIN_ITERATIONS: u64 = 4;

/// What the command line asked for.
pub struct RunConfig {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// How long the timed iterations run.
    pub seconds: u64,
    /// Whether this is the traced run.
    pub trace: bool,
}

/// Operations attempted and failed, with the first failures explained.
#[derive(Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose outcome was not ok or whose known-answer check
    /// failed.
    pub failed: u64,
    /// Human-readable reasons for the first failures.
    pub reasons: Vec<String>,
}

impl Tally {
    /// Counts one operation, failed when `problem` is `Some`.
    pub fn op(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.fail(p);
        }
    }

    /// Counts a failure of an operation already counted as attempted.
    pub fn fail(&mut self, reason: String) {
        self.failed += 1;
        if self.reasons.len() < 5 {
            self.reasons.push(reason);
        }
    }
}

/// The end-to-end measurements of one iteration.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Workload operations the throughput counts (queries, blocks or
    /// controlled runs).
    pub ops: f64,
    /// Wall seconds of the calls the throughput divides by.
    pub op_secs: f64,
    /// The workload's latency figure in milliseconds.
    pub latency_ms: f64,
    /// Peak resident memory during the iteration in MiB (set by the
    /// harness).
    pub peak_rss_mb: f64,
}

impl Sample {
    /// This iteration's throughput.
    fn ops_per_s(&self) -> f64 {
        self.ops / self.op_secs
    }
}

/// Where an iteration's calls record their spans: nowhere in an
/// untraced iteration.
#[derive(Clone)]
pub struct Scope {
    tracer: Option<Tracer>,
    parent: Option<SpanId>,
    iteration: u64,
}

impl Scope {
    /// A top-level scope recording into `tracer`.
    #[must_use]
    pub fn root(tracer: Tracer, iteration: u64) -> Self {
        Scope {
            tracer: Some(tracer),
            parent: None,
            iteration,
        }
    }

    /// A scope that records nothing.
    #[must_use]
    pub fn untraced() -> Self {
        Scope {
            tracer: None,
            parent: None,
            iteration: 0,
        }
    }

    /// The tracer and parent span for calls made on another thread.
    #[must_use]
    pub fn tracer(&self) -> Option<(&Tracer, Option<SpanId>, u64)> {
        self.tracer
            .as_ref()
            .map(|t| (t, self.parent, self.iteration))
    }

    /// Runs `f` under a span named `name`, returning its result and its
    /// wall time in seconds, timed around the call whether or not the
    /// iteration is traced. `counts` is read only when traced.
    pub fn timed<R>(
        &self,
        name: &'static str,
        f: impl FnOnce(&Scope) -> R,
        counts: impl FnOnce(&R) -> Vec<(&'static str, f64)>,
    ) -> (R, f64) {
        let id = self
            .tracer
            .as_ref()
            .map(|t| t.open(name, self.parent, self.iteration));
        let child = Scope {
            tracer: self.tracer.clone(),
            parent: id.or(self.parent),
            iteration: self.iteration,
        };
        let start = Instant::now();
        let r = f(&child);
        let secs = start.elapsed().as_secs_f64();
        if let (Some(t), Some(id)) = (&self.tracer, id) {
            t.close(id);
            t.count(id, &counts(&r));
        }
        (r, secs)
    }
}

/// The counters of an execution report, read at its span's end. `ops`
/// is the number of workload operations the execution performed.
#[must_use]
pub fn exec_counts(r: &ExecReport, ops: f64) -> Vec<(&'static str, f64)> {
    vec![
        ("ops", ops),
        ("duration_s", r.duration.as_secs_f64()),
        ("ticks", r.ticks as f64),
        ("wakeups", r.sched.wakeups_issued as f64),
        ("broadcasts", r.sched.broadcasts as f64),
        ("spurious", r.sched.spurious_wakeups as f64),
        ("syscalls", r.syscalls as f64),
        ("races", r.races as f64),
        ("suppressed", r.suppressed as f64),
        ("sync_events", r.sync_trace.events.len() as f64),
    ]
}

/// A benchmark workload.
pub trait Workload: Sized {
    /// The workload's name on the command line.
    const NAME: &'static str;

    /// Generates the inputs from `seed`, loads the expected answers and
    /// warms up. Run several times; the last instance is measured.
    ///
    /// # Errors
    ///
    /// Fails when an input or expected answer cannot be produced, or the
    /// warm-up fails its known-answer check.
    fn setup(seed: u64) -> Result<Self, String>;

    /// One timed iteration. `None` when the iteration produced no sample
    /// (its failure is in `tally`).
    fn iteration(&mut self, index: u64, scope: &Scope, tally: &mut Tally) -> Option<Sample>;

    /// Extra traced calls made once per traced run, before the
    /// iterations, for counters the iterations cannot read (none by
    /// default).
    fn probe(&mut self, _scope: &Scope, _tally: &mut Tally) {}
}

/// A named metric value with its unit.
pub type Metric = (&'static str, f64, &'static str);

/// The result of one run.
pub struct RunResult {
    /// Operations attempted and failed.
    pub tally: Tally,
    /// The metrics the run reports.
    pub metrics: Vec<Metric>,
    /// Human-readable lines describing the samples.
    pub notes: Vec<String>,
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A scratch directory for one run's files, inside the benchmark's
/// directory; removed by [`ScratchDir`]'s `Drop`.
pub struct ScratchDir(pub PathBuf);

impl ScratchDir {
    /// Creates `out/<name>-<pid>-<n>`, unique within the process.
    ///
    /// # Errors
    ///
    /// Fails when the directory cannot be created.
    pub fn new(name: &str) -> Result<Self, String> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = out_dir().join(format!("{name}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(ScratchDir(dir))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Blocks of consecutive iterations a run's samples are aggregated over.
const BLOCKS: usize = 10;

/// Throughput: the fastest block's operations divided by the wall time
/// of its timed calls. CPU taken by other tenants of a shared host only
/// ever slows a block down, so the fastest block is the steadiest
/// estimate of the code's own cost; each block still averages over the
/// run's modes (httpd-rr's bimodal handoff, the liveness quantum).
fn ops_per_s(samples: &[Sample]) -> Option<f64> {
    block_aggregates(samples, BLOCKS, |b| {
        b.iter().map(|s| s.ops).sum::<f64>() / b.iter().map(|s| s.op_secs).sum::<f64>()
    })
    .into_iter()
    .reduce(f64::max)
}

/// Each block's mean of `field`.
fn block_means(samples: &[Sample], field: fn(&Sample) -> f64) -> Vec<f64> {
    block_aggregates(samples, BLOCKS, |b| {
        b.iter().map(field).sum::<f64>() / b.len() as f64
    })
}

/// Latency: the fastest block's mean, for the reason given at
/// [`ops_per_s`].
fn latency_ms(samples: &[Sample]) -> Option<f64> {
    block_means(samples, |s| s.latency_ms)
        .into_iter()
        .reduce(f64::min)
}

fn describe(name: &str, unit: &str, samples: &[f64]) -> String {
    let med = median(samples).unwrap_or(f64::NAN);
    let tail = tail(samples).map_or(String::new(), |(p, v)| format!(", p{p}={v:.4}"));
    format!(
        "{name} = {med:.4} {unit} (median of n={}{tail})",
        samples.len()
    )
}

/// Sets up `W` several times, then measures its iterations for the
/// configured time.
///
/// # Errors
///
/// Fails when set-up fails or a process reading is unavailable.
pub fn run<W: Workload>(cfg: &RunConfig) -> Result<RunResult, String> {
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut workload = None;
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        let w = W::setup(cfg.seed)?;
        setups.push(start.elapsed().as_secs_f64());
        workload = Some(w);
    }
    let mut w = workload.expect("at least one set-up ran");

    let mut tally = Tally::default();
    let mut notes = Vec::new();
    let tracer = cfg.trace.then(Tracer::new);
    let mut metrics: Vec<Metric> = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(cfg.seconds);
    let mut predict_spans = Vec::new();
    if let Some(t) = &tracer {
        metrics.extend(layers::probes(cfg.seed));
        w.probe(&Scope::root(t.clone(), PROBE_ITERATION), &mut tally);
        // The predict probe keeps its own spans: its executions are not
        // the workload's.
        let predict_tracer = Tracer::new();
        let stuck = crate::predict::probe(
            cfg.seed,
            &Scope::root(predict_tracer.clone(), PROBE_ITERATION),
            &mut tally,
        )?;
        predict_spans = predict_tracer.spans();
        metrics.push(("predict.mismatches", stuck as f64, "count"));
        notes.push(format!(
            "predict probe: {stuck} hidden_handoff predictions graded unconfirmed (stuck witness synthesis)"
        ));
    }

    // A traced run alternates traced and untraced iterations, so the
    // tracing overhead is measured under the same conditions.
    let start = Instant::now();
    let cpu_start = procfs::cpu_seconds()?;
    let mut traced = Vec::new();
    let mut untraced = Vec::new();
    let mut index = 0u64;
    while index < MIN_ITERATIONS || Instant::now() < deadline {
        let traced_iter = tracer.is_some() && index.is_multiple_of(2);
        let root = Scope {
            tracer: if traced_iter { tracer.clone() } else { None },
            parent: None,
            iteration: index,
        };
        procfs::reset_peak_rss()?;
        let (sample, _) = root.timed(
            "iteration",
            |scope| w.iteration(index, scope, &mut tally),
            |s| vec![("ops", s.map_or(0.0, |s| s.ops))],
        );
        if let Some(mut s) = sample {
            s.peak_rss_mb = procfs::peak_rss_mb()?;
            if traced_iter {
                &mut traced
            } else {
                &mut untraced
            }
            .push(s);
        }
        index += 1;
    }
    let wall = start.elapsed().as_secs_f64();
    let cpu_per_wall = (procfs::cpu_seconds()? - cpu_start) / wall;

    let pick = |v: &[Sample], f: fn(&Sample) -> f64| v.iter().map(f).collect::<Vec<f64>>();
    notes.extend([
        describe("setup_s", "s", &setups),
        describe("ops_per_s", "ops/s", &pick(&untraced, Sample::ops_per_s)),
        describe("latency_ms", "ms", &pick(&untraced, |s| s.latency_ms)),
        describe("peak_rss_mb", "MB", &pick(&untraced, |s| s.peak_rss_mb)),
        format!("iterations = {index} in {wall:.2} s"),
    ]);
    let (Some(ops_med), Some(lat_med)) = (ops_per_s(&untraced), latency_ms(&untraced)) else {
        return Err(format!(
            "no successful iteration: {}",
            tally.reasons.join("; ")
        ));
    };
    let setup_med = median(&setups).expect("set-up ran");
    // Memory is not slowed by other tenants: the median block.
    let rss =
        median(&block_means(&untraced, |s| s.peak_rss_mb)).expect("an untraced sample exists");
    match &tracer {
        None => metrics.extend([
            ("setup_s", setup_med, "s"),
            ("ops_per_s", ops_med, "ops/s"),
            ("latency_ms", lat_med, "ms"),
            ("peak_rss_mb", rss, "MB"),
        ]),
        Some(t) => {
            notes.push(describe(
                "traced ops_per_s",
                "ops/s",
                &pick(&traced, Sample::ops_per_s),
            ));
            notes.push(describe(
                "traced latency_ms",
                "ms",
                &pick(&traced, |s| s.latency_ms),
            ));
            let spans = t.spans();
            let predict_layer = |m: &Metric| m.0.starts_with("predict.");
            metrics.extend(
                layers::from_spans(&spans)
                    .into_iter()
                    .filter(|m| !predict_layer(m)),
            );
            metrics.extend(
                layers::from_spans(&predict_spans)
                    .into_iter()
                    .filter(predict_layer),
            );
            metrics.extend([
                ("proc.cpu_per_wall", cpu_per_wall, "ratio"),
                (
                    "overhead.ops_per_s",
                    ops_per_s(&traced).unwrap_or(ops_med) - ops_med,
                    "ops/s",
                ),
                (
                    "overhead.latency_ms",
                    latency_ms(&traced).unwrap_or(lat_med) - lat_med,
                    "ms",
                ),
            ]);
            std::fs::create_dir_all(out_dir()).map_err(|e| format!("creating out/: {e}"))?;
            for (what, spans) in [(W::NAME, &spans), ("predict-probe", &predict_spans)] {
                let path = out_dir().join(format!("spans-{what}-seed{}.json", cfg.seed));
                std::fs::write(&path, crate::trace::to_json(what, cfg.seed, spans))
                    .map_err(|e| format!("writing {}: {e}", path.display()))?;
                notes.push(format!(
                    "{} spans written to {}",
                    spans.len(),
                    path.display()
                ));
            }
        }
    }
    Ok(RunResult {
        tally,
        metrics,
        notes,
    })
}
