//! `srr` — command-line front end for the tsan11rec reproduction.
//!
//! ```text
//! srr list
//! srr run       <workload> [--tool TOOL] [--seed N]
//! srr record    <workload> [--tool queue|random] [--seed N] [--sparse SET] --out DIR
//! srr replay    <workload> --demo DIR
//! srr explore   <workload> [--runs N] [--workers N] [--strategies LIST]
//!               [--shard N] [--corpus DIR] [--predict] [--json] [--out FILE]
//!               [--metrics-out DIR]      # parallel race-hunting farm
//! srr analyze   <workload> [--tool TOOL] [--seed N] [--json]  # offline sync analysis
//! srr predict   <workload> [--seed N] [--plan FILE] [--json]  # predictive race detection
//! srr demo      convert --demo DIR --to bin|text [--out DIR]  # transcode formats
//! srr demo      hash|stats --demo DIR  # per-stream store hashes / summary
//! srr lint-demo --demo DIR             # validate a serialized demo
//! srr vet       <path>... [--allow FILE|none] [--json] [--out FILE]  # static soundness scan
//! srr plan      <path>... [--allow FILE|none] [--json] [--out FILE]  # static sparsification plan
//! srr trace     <workload> [--demo DIR] [--ring N] [-o FILE]  # Chrome trace
//! srr profile   <workload> --demo DIR [--json] [-o FILE] [--folded FILE]  # causal profiler
//! srr stats     <report.json> [--vet FILE] [-o FILE]  # pretty-print a report
//! ```
//!
//! Tools: native, tsan11, rr, tsan11+rr, rnd, queue, pct, delay.
//! Sparse sets: default, games, none, comprehensive.
//!
//! Exit codes: `0` success, `1` usage or execution error, `2` clean run
//! with findings (`explore` signatures, `analyze` hazards, `predict`
//! confirmations, `lint-demo` diagnostics, `vet` deny findings, `plan`
//! unallowed conflicts) — see [`findings_exit`], the one place the
//! convention lives.
//!
//! `explore` runs the srr-explore work-stealing farm: the seed×strategy
//! space is sharded, workers (in-process at `--workers 1`, one
//! `explore-worker` child process each above that) stream findings back
//! over a line protocol, and the deduplicated corpus keeps the smallest
//! reproduction per signature. `explore-worker` is the hidden worker
//! entry point: it reads `TASK` lines on stdin and answers
//! `FIND`/`DONE` on stdout until `EXIT`.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use srr_apps::harness::Tool;
use srr_apps::{client, explorer, game, hazards, httpd, litmus, pbzip, predictor, ptrmap};
use srr_explore::{
    run_farm, serve_worker, Corpus, ProcessSpawner, RaceTarget, ShardPlan, ShardRunner,
    ThreadSpawner,
};
use srr_obs::{FarmCounters, MetricsRegistry};
use srr_plan::SiteClass;
use srr_predict::Classification;
use srr_replay::{DemoFormat, DemoLoadError, StreamHash};
use srr_vet::Allowlist;
use tsan11rec::obs::Json;
use tsan11rec::vos::Vos;
use tsan11rec::{
    chrome_trace, text_timeline, AccessPlan, Config, Demo, Execution, SparseConfig, TraceSpec,
};

/// A named workload: world setup + program body.
struct Workload {
    name: &'static str,
    describe: &'static str,
    setup: fn(&Vos),
    program: fn(),
}

fn workloads() -> Vec<Workload> {
    fn no_setup(_: &Vos) {}
    let mut list = vec![
        Workload {
            name: "client",
            describe: "Figure 2 client: poll/recv/send loop ended by a signal",
            setup: |vos| (client::world(client::ClientParams::default()))(vos),
            program: || (client::client(client::ClientParams::default()))(),
        },
        Workload {
            name: "httpd",
            describe: "httpd-sim: worker-pool server under an ab-like swarm",
            setup: |vos| (httpd::world(httpd::HttpdParams::default()))(vos),
            program: || (httpd::server(httpd::HttpdParams::default()))(),
        },
        Workload {
            name: "pbzip",
            describe: "pbzip-sim: parallel block compression",
            setup: |vos| (pbzip::world(pbzip::PbzipParams::default()))(vos),
            program: || (pbzip::pbzip(pbzip::PbzipParams::default()))(),
        },
        Workload {
            name: "game",
            describe: "game-sim: frame loop with GPU ioctl and an audio thread",
            setup: |vos| (game::world(game::GameParams::default()))(vos),
            program: || (game::game(game::GameParams::default()))(),
        },
        Workload {
            name: "netplay",
            describe: "multiplayer client with the Zandronum-style map-change bug",
            setup: no_setup,
            program: || (game::netplay::netplay_client(game::netplay::NetPlayParams::default()))(),
        },
        Workload {
            name: "ptrmap",
            describe: "pointer-order workload (the S5.5 limitation)",
            setup: no_setup,
            program: || (ptrmap::ptrmap(ptrmap::PtrMapParams::default()))(),
        },
        Workload {
            name: "ab_ba_locks",
            describe: "ABBA lock-order inversion that completes (analyze flags it)",
            setup: no_setup,
            program: || (hazards::ab_ba_locks(hazards::AbBaParams::default()))(),
        },
        Workload {
            name: "mixed_counter",
            describe: "one location accessed both atomically and plainly",
            setup: no_setup,
            program: || (hazards::mixed_counter())(),
        },
        Workload {
            name: "cond_no_recheck",
            describe: "condvar wait with `if` instead of `while` around the predicate",
            setup: no_setup,
            program: || (hazards::cond_no_recheck())(),
        },
        Workload {
            name: "relaxed_guard",
            describe: "relaxed flag load deciding a lock acquisition (S6 hazard)",
            setup: no_setup,
            program: || (hazards::relaxed_guard())(),
        },
        Workload {
            name: "hidden_handoff",
            describe: "race hidden behind an empty lock handoff (predict confirms it)",
            setup: no_setup,
            program: || (hazards::hidden_handoff())(),
        },
        Workload {
            name: "atomic_guard",
            describe: "writes ordered by a real flag handoff (predict proves infeasible)",
            setup: no_setup,
            program: || (hazards::atomic_guard())(),
        },
        Workload {
            name: "planned_local",
            describe: "thread-local + lock-guarded traffic the plan filters to zero events",
            setup: no_setup,
            program: || (hazards::planned_local())(),
        },
        Workload {
            name: "raw_clock",
            describe: "recording escape: reads the host wall clock (vet flags raw-clock)",
            setup: no_setup,
            program: || (hazards::raw_clock())(),
        },
        Workload {
            name: "raw_spawn",
            describe:
                "recording escape: rogue OS thread outside the scheduler (vet flags raw-spawn)",
            setup: no_setup,
            program: || (hazards::raw_spawn())(),
        },
    ];
    for l in litmus::table1_suite() {
        list.push(Workload {
            name: l.name,
            describe: "CDSchecker litmus benchmark",
            setup: no_setup,
            program: l.run,
        });
    }
    list
}

fn find_workload(name: &str) -> Result<Workload, String> {
    workloads()
        .into_iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload `{name}` (try `srr list`)"))
}

fn parse_tool(s: &str) -> Result<Tool, String> {
    Ok(match s {
        "native" => Tool::Native,
        "tsan11" => Tool::Tsan11,
        "rr" => Tool::Rr,
        "tsan11+rr" => Tool::Tsan11Rr,
        "rnd" | "random" => Tool::Rnd,
        "queue" => Tool::Queue,
        "pct" => Tool::Pct,
        "delay" => Tool::Delay,
        other => return Err(format!("unknown tool `{other}`")),
    })
}

fn parse_sparse(s: &str) -> Result<SparseConfig, String> {
    Ok(match s {
        "default" | "paper" => SparseConfig::paper_default(),
        "games" => SparseConfig::games(),
        "none" => SparseConfig::none(),
        "comprehensive" | "full" => SparseConfig::comprehensive(),
        other => return Err(format!("unknown sparse set `{other}`")),
    })
}

/// Parses the `--strategies` list (comma-separated farm strategy
/// names); defaults to all four in canonical order.
fn parse_strategies(list: Option<&str>) -> Result<Vec<String>, String> {
    let Some(list) = list else {
        return Ok(explorer::FARM_STRATEGIES
            .iter()
            .map(|s| s.name.to_owned())
            .collect());
    };
    let strategies: Vec<String> = list
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| explorer::parse_strategy(s).map(|st| st.name.to_owned()))
        .collect::<Result<_, _>>()?;
    if strategies.is_empty() {
        return Err("--strategies needs at least one strategy".to_owned());
    }
    Ok(strategies)
}

/// The `srr explore` JSON report: farm counters plus the deduplicated
/// signature corpus (`srr stats` renders it back).
fn explore_json(
    workload: &str,
    strategies: &[String],
    counters: &FarmCounters,
    corpus: &Corpus,
) -> Json {
    let signatures = corpus
        .iter()
        .map(|(sig, e)| {
            let mut fields = vec![
                ("signature".to_owned(), Json::Str(sig.encode())),
                ("kind".to_owned(), Json::Str(sig.kind.tag().to_owned())),
                ("detail".to_owned(), Json::Str(sig.detail.clone())),
                ("strategy".to_owned(), Json::Str(e.strategy.clone())),
                ("seed".to_owned(), Json::Num(e.seed as f64)),
            ];
            if let Some(b) = e.demo_bytes {
                fields.push(("demo_bytes".to_owned(), Json::Num(b as f64)));
            }
            if let Some(d) = &e.demo_subdir {
                fields.push(("demo".to_owned(), Json::Str(d.clone())));
            }
            Json::Obj(fields)
        })
        .collect();
    Json::Obj(vec![
        ("workload".to_owned(), Json::Str(workload.to_owned())),
        (
            "strategies".to_owned(),
            Json::Arr(strategies.iter().map(|s| Json::Str(s.clone())).collect()),
        ),
        ("farm".to_owned(), counters.to_json()),
        ("signatures".to_owned(), Json::Arr(signatures)),
    ])
}

#[derive(Debug, Default)]
struct Args {
    positional: Vec<String>,
    tool: Option<String>,
    seed: Option<u64>,
    out: Option<PathBuf>,
    demo: Option<PathBuf>,
    sparse: Option<String>,
    runs: Option<u64>,
    ring: Option<usize>,
    allow: Option<String>,
    vet: Option<PathBuf>,
    json: bool,
    workers: Option<usize>,
    corpus: Option<PathBuf>,
    strategies: Option<String>,
    shard: Option<u64>,
    predict: bool,
    plan: Option<PathBuf>,
    folded: Option<PathBuf>,
    metrics_out: Option<PathBuf>,
    to: Option<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let mut flag = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match a.as_str() {
            "--tool" => args.tool = Some(flag("--tool")?),
            "--seed" => {
                args.seed = Some(
                    flag("--seed")?
                        .parse()
                        .map_err(|_| "bad --seed".to_owned())?,
                );
            }
            // `-o` is the one blessed short flag (shared by trace,
            // profile and stats); it must match before the single-dash
            // rejection below.
            "--out" | "-o" => args.out = Some(PathBuf::from(flag("--out")?)),
            "--demo" => args.demo = Some(PathBuf::from(flag("--demo")?)),
            "--sparse" => args.sparse = Some(flag("--sparse")?),
            "--runs" => {
                args.runs = Some(
                    flag("--runs")?
                        .parse()
                        .map_err(|_| "bad --runs".to_owned())?,
                );
            }
            "--ring" => {
                args.ring = Some(
                    flag("--ring")?
                        .parse()
                        .map_err(|_| "bad --ring".to_owned())?,
                );
            }
            "--allow" => args.allow = Some(flag("--allow")?),
            "--vet" => args.vet = Some(PathBuf::from(flag("--vet")?)),
            "--json" => args.json = true,
            "--workers" => {
                args.workers = Some(
                    flag("--workers")?
                        .parse()
                        .map_err(|_| "bad --workers".to_owned())?,
                );
            }
            "--corpus" => args.corpus = Some(PathBuf::from(flag("--corpus")?)),
            "--strategies" => args.strategies = Some(flag("--strategies")?),
            "--shard" => {
                args.shard = Some(
                    flag("--shard")?
                        .parse()
                        .map_err(|_| "bad --shard".to_owned())?,
                );
            }
            "--predict" => args.predict = true,
            "--plan" => args.plan = Some(PathBuf::from(flag("--plan")?)),
            "--folded" => args.folded = Some(PathBuf::from(flag("--folded")?)),
            "--metrics-out" => args.metrics_out = Some(PathBuf::from(flag("--metrics-out")?)),
            "--to" => args.to = Some(flag("--to")?),
            // Any dash-prefixed token is a (mis)spelled flag, never a
            // workload name — `-seed` must not silently become a
            // positional and mask the user's intent.
            other if other.starts_with('-') => {
                let valid = "--tool --seed --out --demo --sparse --runs --ring --allow --vet \
                             --json --workers --corpus --strategies --shard --predict --plan \
                             --folded --metrics-out --to -o";
                return Err(format!("unknown flag `{other}` (valid flags: {valid})"));
            }
            other => args.positional.push(other.to_owned()),
        }
    }
    Ok(args)
}

fn config_for(args: &Args, default_tool: Tool) -> Result<(Tool, Config), String> {
    let tool = match &args.tool {
        Some(t) => parse_tool(t)?,
        None => default_tool,
    };
    let seed = args.seed.unwrap_or(1);
    let mut config = tool.config([seed, seed.wrapping_mul(0x9E37) + 1]);
    if let Some(s) = &args.sparse {
        config = config.with_sparse(parse_sparse(s)?);
    }
    Ok((tool, config))
}

fn print_report(report: &tsan11rec::ExecReport) {
    println!("--- console ---");
    print!("{}", report.console_text());
    println!("--- report ----");
    println!("outcome:      {:?}", report.outcome);
    println!(
        "races:        {} ({} duplicate report(s) suppressed)",
        report.races, report.suppressed
    );
    for r in report.race_reports.iter().take(5) {
        println!("  {r}");
    }
    println!("critical sections: {}", report.ticks);
    println!("syscalls:     {}", report.syscalls);
    println!(
        "wall time:    {:.1} ms",
        report.duration.as_secs_f64() * 1e3
    );
}

/// Exit status of a successful invocation: `0` for a clean run, `2`
/// (`EXIT_FINDINGS`) when the command completed but surfaced findings.
/// Usage and execution errors travel as `Err` and exit `1`.
const EXIT_OK: u8 = 0;
/// See [`EXIT_OK`].
const EXIT_FINDINGS: u8 = 2;

/// The shared findings gate: every finding-producing command (`analyze`,
/// `predict`, `lint-demo`, `vet`) funnels its gating count through here
/// so the exit-code convention cannot drift per command. With findings,
/// a trailing summary goes to stderr (stdout stays clean for reports and
/// `--json` documents) and the exit code is [`EXIT_FINDINGS`].
fn findings_exit(count: usize, noun: &str) -> u8 {
    if count == 0 {
        return EXIT_OK;
    }
    eprintln!("{count} {noun}(s) — exit {EXIT_FINDINGS}");
    EXIT_FINDINGS
}

/// What `lint-demo` reports for a demo directory, one line per problem.
/// The loader is the linter: a syntax error comes from the parser or
/// codec, broken invariants from `Demo::validate`. Empty means the demo
/// is well-formed; an unreadable file is an execution error.
fn demo_problems(dir: &Path) -> Result<Vec<String>, String> {
    match Demo::load_dir(dir) {
        Ok(_) => Ok(Vec::new()),
        Err(DemoLoadError::Io { file, source }) => {
            Err(format!("reading demo dir: {file}: {source}"))
        }
        Err(DemoLoadError::Invalid(violations)) => {
            Ok(violations.iter().map(ToString::to_string).collect())
        }
        Err(e) => Ok(vec![e.to_string()]),
    }
}

/// Maps a demo's recorded strategy back to the tool that replays it —
/// the one place the mapping lives (`replay`, `trace` and `profile` all
/// route through here).
fn tool_for_demo(demo: &Demo) -> Result<Tool, String> {
    Ok(match demo.header.strategy.as_str() {
        "random" => Tool::RndRec,
        "queue" => Tool::QueueRec,
        "slice" => Tool::Rr,
        other => return Err(format!("demo has unknown strategy `{other}`")),
    })
}

/// Writes a report file, mapping IO errors to the CLI error shape.
fn write_output(path: &Path, contents: &str) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("writing {}: {e}", path.display()))
}

/// The shared `-o/--out FILE` sink for report-producing commands
/// (`trace` always names a file; `profile` and `stats` print to stdout
/// unless one is given). File writes get a one-line stderr note so
/// stdout stays clean either way.
fn emit_report(out: Option<&Path>, what: &str, contents: &str) -> Result<(), String> {
    match out {
        Some(path) => {
            write_output(path, contents)?;
            eprintln!("{what}: {}", path.display());
            Ok(())
        }
        None => {
            print!("{contents}");
            Ok(())
        }
    }
}

/// The shared `--json` / `--out FILE` sink for the JSON-document
/// commands (`explore`, `analyze`, `predict`, `vet`, `plan`): `--out`
/// captures the pretty-printed document on disk, `--json` routes it to
/// stdout. Returns `true` when the caller still owes the user a
/// human-readable rendering (`--json` was not given). One helper so the
/// previously hand-rolled per-command paths cannot drift.
fn emit_json_doc(doc: &Json, json: bool, out: Option<&Path>) -> Result<bool, String> {
    if let Some(path) = out {
        write_output(path, &doc.to_pretty())?;
    }
    if json {
        println!("{}", doc.to_pretty());
    }
    Ok(!json)
}

/// Allowlist resolution shared by `vet` and `plan`: `--allow none` >
/// `--allow FILE` > the checked-in default when running from the repo
/// root. Returns the list plus a printable origin.
fn resolve_allowlist(allow: Option<&str>) -> Result<(Allowlist, Option<String>), String> {
    let default_allow = Path::new("ci/vet_allow.txt");
    Ok(match allow {
        Some("none") => (Allowlist::default(), None),
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("reading allowlist {path}: {e}"))?;
            (Allowlist::parse(&text)?, Some(path.to_owned()))
        }
        None if default_allow.exists() => {
            let text = std::fs::read_to_string(default_allow)
                .map_err(|e| format!("reading {}: {e}", default_allow.display()))?;
            (
                Allowlist::parse(&text)?,
                Some(default_allow.display().to_string()),
            )
        }
        None => (Allowlist::default(), None),
    })
}

/// Loads a `--plan FILE` document (produced by `srr plan --json`/`--out`).
fn load_plan(path: &Path) -> Result<srr_plan::PlanReport, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("reading plan {}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("parsing plan {}: {e}", path.display()))?;
    srr_plan::plan_from_json(&doc).map_err(|e| format!("plan {}: {e}", path.display()))
}

fn usage() -> String {
    [
        "srr — sparse record/replay front end",
        "",
        "usage:",
        "  srr list",
        "  srr run       <workload> [--tool TOOL] [--seed N]",
        "  srr record    <workload> [--tool queue|random] [--seed N] [--sparse SET] --out DIR",
        "  srr replay    <workload> --demo DIR",
        "  srr explore   <workload> [--runs N] [--workers N] [--strategies LIST]",
        "                [--shard N] [--corpus DIR] [--predict] [--plan FILE] [--json]",
        "                [--out FILE] [--metrics-out DIR]",
        "  srr analyze   <workload> [--tool TOOL] [--seed N] [--json] [--out FILE]",
        "  srr predict   <workload> [--seed N] [--plan FILE] [--json]",
        "  srr demo      convert --demo DIR --to bin|text [--out DIR]",
        "  srr demo      hash|stats --demo DIR",
        "  srr lint-demo --demo DIR",
        "  srr vet       <path>... [--allow FILE|none] [--json] [--out FILE]",
        "  srr plan      <path>... [--allow FILE|none] [--json] [--out FILE]",
        "  srr trace     <workload> [--demo DIR] [--ring N] [-o FILE]",
        "  srr profile   <workload> --demo DIR [--ring N] [--json] [-o FILE] [--folded FILE]",
        "  srr stats     <report.json> [--vet FILE] [-o FILE]",
        "",
        "tools: native, tsan11, rr, tsan11+rr, rnd, queue, pct, delay",
        "sparse sets: default, games, none, comprehensive",
        "",
        "explore shards the seed×strategy space (--strategies rnd,pct,delay,queue)",
        "across --workers worker processes with work stealing, dedups findings into",
        "a corpus keyed by signature (smallest reproduction wins; --corpus persists",
        "it), and with --predict feeds `srr predict` candidates back as directed",
        "search targets. Exit 2 when distinct signatures were found.",
        "",
        "profile replays a recorded demo and walks the critical path backwards",
        "through the sync trace, attributing every logical tick to a bucket: lock",
        "wait/held time per lock site, condvar waits, join stalls, per-thread",
        "on-CPU time. Bucket totals sum exactly to the replay's tick count and",
        "`--json` output is byte-identical across runs of the same demo.",
        "`--folded FILE` writes flamegraph-style folded stacks. `explore",
        "--metrics-out DIR` snapshots the unified metrics registry once a second",
        "and leaves metrics.json + metrics.prom behind.",
        "",
        "vet scans workload source for recording-soundness escapes (raw clocks,",
        "rogue threads, Wait/Tick misuse, address-as-value); --allow defaults to",
        "ci/vet_allow.txt when present. `stats --vet` joins a trace's desync",
        "diagnostics against the vet escape map to rank likely root causes.",
        "",
        "plan runs the static sparsification planner (thread-escape + lockset",
        "analysis) over workload source and classifies every labeled plain-access",
        "site local/guarded/conflict. The JSON plan feeds back in three places:",
        "`predict --plan` arms sparse recording, prunes statically proven candidate",
        "pairs and cross-checks static lock cycles against the dynamic Goodlock",
        "pass (static-only cycles are new findings); `explore --plan` seeds the",
        "conflict sites as directed shards. Exit 2 on unallowed conflicts or",
        "static lock cycles; `// plan: allow(conflict)` markers or the vet",
        "allowlist-file format waive the gate (never the recording).",
        "",
        "demo converts between the binary (default) and text stream formats",
        "(convert writes in place unless --out names a directory), prints the",
        "per-stream content hashes DemoStore dedups by (hash), or summarizes a",
        "recording (stats). Every --demo consumer auto-detects the format per",
        "file, so mixed directories load fine.",
        "",
        "exit codes:",
        "  0  success",
        "  1  usage or execution error",
        "  2  clean run with findings (explore signatures, analyze hazards, predict confirmations, lint-demo diagnostics, vet deny findings, plan conflicts)",
    ]
    .join("\n")
}

fn run_command(argv: &[String]) -> Result<u8, String> {
    let Some(cmd) = argv.first() else {
        return Err(format!("missing command\n{}", usage()));
    };
    if matches!(cmd.as_str(), "help" | "--help" | "-h") {
        println!("{}", usage());
        return Ok(EXIT_OK);
    }
    let args = parse_args(&argv[1..])?;
    match cmd.as_str() {
        "list" => {
            println!("{:<18} description", "workload");
            println!("{}", "-".repeat(64));
            for w in workloads() {
                println!("{:<18} {}", w.name, w.describe);
            }
            Ok(EXIT_OK)
        }
        "run" => {
            let name = args.positional.first().ok_or("run needs a workload")?;
            let w = find_workload(name)?;
            let (tool, config) = config_for(&args, Tool::Queue)?;
            println!("running `{}` under {tool}", w.name);
            let setup = w.setup;
            let report = Execution::new(config).setup(setup).run(w.program);
            print_report(&report);
            Ok(EXIT_OK)
        }
        "record" => {
            let name = args.positional.first().ok_or("record needs a workload")?;
            let out = args
                .demo
                .clone()
                .or(args.out.clone())
                .ok_or("record needs --out DIR")?;
            let w = find_workload(name)?;
            let (tool, config) = config_for(&args, Tool::QueueRec)?;
            let tool = match tool {
                Tool::Rnd => Tool::RndRec,
                Tool::Queue => Tool::QueueRec,
                t if t.records() => t,
                t => {
                    return Err(format!(
                        "{t} cannot record; use rnd, queue, rr or tsan11+rr"
                    ))
                }
            };
            let mut config = config;
            config.mode = tool.config([1, 1]).mode;
            println!("recording `{}` under {tool}", w.name);
            let setup = w.setup;
            let (report, demo) = Execution::new(config).setup(setup).record(w.program);
            print_report(&report);
            demo.save_dir(&out)
                .map_err(|e| format!("saving demo: {e}"))?;
            println!("demo:         {} -> {}", demo.stats(), out.display());
            Ok(EXIT_OK)
        }
        "replay" => {
            let name = args.positional.first().ok_or("replay needs a workload")?;
            let dir = args.demo.clone().ok_or("replay needs --demo DIR")?;
            let w = find_workload(name)?;
            let demo = Demo::load_dir(&dir).map_err(|e| format!("loading demo: {e}"))?;
            let strategy = demo.header.strategy.clone();
            let tool = tool_for_demo(&demo)?;
            let mut config = tool.config(demo.header.seeds);
            if let Some(s) = &args.sparse {
                config = config.with_sparse(parse_sparse(s)?);
            }
            println!(
                "replaying `{}` ({} demo, {} bytes)",
                w.name,
                strategy,
                demo.size_bytes()
            );
            let setup = w.setup;
            let report = Execution::new(config).setup(setup).replay(&demo, w.program);
            print_report(&report);
            Ok(EXIT_OK)
        }
        "explore" => {
            let name = args.positional.first().ok_or("explore needs a workload")?;
            let w = find_workload(name)?;
            let runs = args.runs.unwrap_or(200);
            let shard = args.shard.unwrap_or(25);
            if shard == 0 {
                return Err("--shard must be positive".to_owned());
            }
            let workers = args.workers.unwrap_or(1).max(1);
            let strategies = parse_strategies(args.strategies.as_deref())?;

            // Plan feedback: every statically classified `Conflict`
            // site is a directed target — the plan already proved these
            // are the only label/context pairs that can race, so they
            // get shards before the undirected sweep (and before any
            // dynamic predict feedback below).
            let mut targets: Vec<RaceTarget> = Vec::new();
            if let Some(path) = &args.plan {
                let plan_report = load_plan(path)?;
                let mut conflict_sites = 0usize;
                for s in &plan_report.sites {
                    if !(s.kind.is_plain() && matches!(s.class, SiteClass::Conflict)) {
                        continue;
                    }
                    conflict_sites += 1;
                    // `contexts` are tid hints (0 = fn body, k = k-th
                    // spawn); a single-context conflict is a looped
                    // spawn racing with itself, so both sides share it.
                    let ctxs: Vec<u32> = if s.contexts.len() == 1 {
                        vec![s.contexts[0], s.contexts[0]]
                    } else {
                        s.contexts.clone()
                    };
                    for (i, &a) in ctxs.iter().enumerate() {
                        for &b in &ctxs[i + 1..] {
                            let t = RaceTarget::normalized(&s.label, a, b);
                            if !targets.contains(&t) {
                                targets.push(t);
                            }
                        }
                    }
                }
                if !args.json {
                    println!(
                        "plan feedback: {} directed target(s) from {conflict_sites} conflict site(s)",
                        targets.len()
                    );
                }
            }

            // Predict feedback: candidate pairs (everything the weak
            // partial order did not prove infeasible) become directed
            // shards, scheduled before the undirected sweep.
            if args.predict {
                let seed = args.seed.unwrap_or(1);
                let (setup, program) = (w.setup, w.program);
                let run = predictor::run_prediction_in_world(
                    [seed, seed.wrapping_mul(0x9E37) + 1],
                    setup,
                    move || program,
                );
                let before = targets.len();
                for r in &run.predictions.races {
                    if r.classification == Classification::Infeasible {
                        continue;
                    }
                    // Canonical pair order so plan-seeded and predicted
                    // targets for the same pair dedupe.
                    let t = RaceTarget::normalized(&r.loc_label, r.tids.0, r.tids.1);
                    if !targets.contains(&t) {
                        targets.push(t);
                    }
                }
                if !args.json {
                    println!(
                        "predict feedback: {} directed target(s) from seed {seed}",
                        targets.len() - before
                    );
                }
            }

            let mut corpus = match &args.corpus {
                Some(dir) => Corpus::open(dir)
                    .map_err(|e| format!("opening corpus {}: {e}", dir.display()))?,
                None => Corpus::in_memory(),
            };
            // Workers spool finding demos next to the corpus; the corpus
            // copies the winners out and the spool is discarded.
            let spool = args.corpus.as_ref().map(|d| d.join(".spool"));
            if let Some(s) = &spool {
                std::fs::create_dir_all(s).map_err(|e| format!("creating spool: {e}"))?;
            }

            let plan = ShardPlan::build(w.name, &strategies, 0, runs, shard, &targets);
            if !args.json {
                println!(
                    "exploring `{}`: {} run(s) in {} shard(s) ({}) across {workers} worker(s)",
                    w.name,
                    plan.total_runs(),
                    plan.tasks.len(),
                    strategies.join(","),
                );
            }
            // The unified metrics plane: with `--metrics-out DIR` the
            // ticker snapshots the registry once a second and the final
            // counters land as metrics.json + metrics.prom.
            let registry = MetricsRegistry::new();
            let metrics_dir = args.metrics_out.clone();
            if let Some(d) = &metrics_dir {
                std::fs::create_dir_all(d).map_err(|e| format!("creating {}: {e}", d.display()))?;
            }
            // Live progress to stderr, at most once a second — stdout
            // stays clean for the report, and the `#` prefix marks the
            // line as human chatter (the data travels via --metrics-out
            // and the JSON report).
            let mut last_tick = std::time::Instant::now();
            let mut snap_idx = 0u32;
            let quiet = args.json;
            let mut ticker = |c: &FarmCounters| {
                if last_tick.elapsed().as_secs_f64() >= 1.0 {
                    last_tick = std::time::Instant::now();
                    if !quiet {
                        eprintln!("# {}", c.render());
                    }
                    if let Some(dir) = &metrics_dir {
                        c.publish(&registry);
                        snap_idx += 1;
                        let path = dir.join(format!("snapshot_{snap_idx:04}.json"));
                        let _ = std::fs::write(&path, registry.snapshot_json().to_pretty());
                    }
                }
            };
            let progress: Option<&mut dyn FnMut(&FarmCounters)> =
                if args.json && args.metrics_out.is_none() {
                    None
                } else {
                    Some(&mut ticker)
                };

            let outcome = if workers == 1 {
                // In-process farm: the engine is single-threaded per
                // process, so one worker runs the shards right here over
                // the same protocol the process transport uses.
                let (setup, program) = (w.setup, w.program);
                let spool_dir = spool.clone();
                let runner: std::sync::Arc<ShardRunner> = std::sync::Arc::new(move |task| {
                    explorer::run_shard(task, setup, program, spool_dir.as_deref())
                });
                run_farm(&plan, 1, &ThreadSpawner { runner }, &mut corpus, progress)
            } else {
                let bin = match std::env::var_os("SRR_EXPLORE_WORKER_BIN") {
                    Some(p) => PathBuf::from(p),
                    None => std::env::current_exe()
                        .map_err(|e| format!("resolving worker binary: {e}"))?,
                };
                let spool_dir = spool.clone();
                let spawner = ProcessSpawner {
                    make: move |_index| {
                        let mut c = std::process::Command::new(&bin);
                        c.arg("explore-worker");
                        if let Some(s) = &spool_dir {
                            c.arg("--out").arg(s);
                        }
                        c
                    },
                };
                run_farm(&plan, workers, &spawner, &mut corpus, progress)
            }
            .map_err(|e| format!("exploration farm: {e}"))?;

            if let Some(s) = &spool {
                let _ = std::fs::remove_dir_all(s);
            }
            for e in &outcome.errors {
                eprintln!("explore: {e}");
            }
            if let Some(dir) = &args.metrics_out {
                outcome.counters.publish(&registry);
                write_output(
                    &dir.join("metrics.json"),
                    &registry.snapshot_json().to_pretty(),
                )?;
                write_output(&dir.join("metrics.prom"), &registry.prometheus_text())?;
                eprintln!("# metrics: {}", dir.display());
            }

            let doc = explore_json(w.name, &strategies, &outcome.counters, &corpus);
            if emit_json_doc(&doc, args.json, args.out.as_deref())? {
                println!("{}", outcome.counters.render());
                for (sig, entry) in corpus.iter() {
                    let mut line =
                        format!("  {sig}  strategy={} seed={}", entry.strategy, entry.seed);
                    if let Some(b) = entry.demo_bytes {
                        line.push_str(&format!(" demo={b}B"));
                    }
                    if let Some(d) = &entry.demo_subdir {
                        line.push_str(&format!(" ({d})"));
                    }
                    println!("{line}");
                }
                if let Some(dir) = &args.corpus {
                    println!("corpus: {} entr(ies) in {}", corpus.len(), dir.display());
                }
            }
            Ok(findings_exit(corpus.len(), "distinct signature"))
        }
        // Hidden: the farm's worker entry point. Reads TASK lines on
        // stdin, answers FIND/DONE on stdout until EXIT (see
        // srr-explore's protocol module). `--out` is the demo spool.
        "explore-worker" => {
            let spool = args.out.clone();
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            serve_worker(
                std::io::BufRead::lines(stdin.lock()).map_while(Result::ok),
                |line| {
                    use std::io::Write as _;
                    let mut out = stdout.lock();
                    let _ = writeln!(out, "{line}");
                    let _ = out.flush();
                },
                |task| {
                    let w = find_workload(&task.workload)?;
                    explorer::run_shard(task, w.setup, w.program, spool.as_deref())
                },
            );
            Ok(EXIT_OK)
        }
        "analyze" => {
            let name = args.positional.first().ok_or("analyze needs a workload")?;
            let w = find_workload(name)?;
            let (tool, config) = config_for(&args, Tool::Queue)?;
            if !config.mode.is_controlled() {
                return Err(format!(
                    "{tool} is not a controlled mode; analysis needs one of rnd, queue, pct, delay"
                ));
            }
            if !args.json {
                println!("analyzing `{}` under {tool}", w.name);
            }
            let setup = w.setup;
            let report = Execution::new(config.with_access_trace())
                .setup(setup)
                .run(w.program);
            let findings = srr_analysis::analyze(&report.sync_trace);
            let doc = Json::Obj(vec![
                ("workload".to_owned(), Json::Str(w.name.to_owned())),
                ("tool".to_owned(), Json::Str(tool.label().to_owned())),
                (
                    "sync_events".to_owned(),
                    Json::Num(report.sync_trace.events.len() as f64),
                ),
                ("races".to_owned(), Json::Num(report.races as f64)),
                ("suppressed".to_owned(), Json::Num(report.suppressed as f64)),
                (
                    "findings".to_owned(),
                    Json::Arr(
                        findings
                            .iter()
                            .map(|f| {
                                Json::Obj(vec![
                                    ("kind".to_owned(), Json::Str(f.kind.name().to_owned())),
                                    ("message".to_owned(), Json::Str(f.message.clone())),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]);
            if emit_json_doc(&doc, args.json, args.out.as_deref())? {
                print_report(&report);
                println!("--- analysis --");
                println!("sync events:  {}", report.sync_trace.events.len());
                if findings.is_empty() {
                    println!("no findings");
                }
                for f in &findings {
                    println!("[{}] {}", f.kind.name(), f.message);
                }
            }
            Ok(findings_exit(findings.len(), "finding"))
        }
        "predict" => {
            let name = args.positional.first().ok_or("predict needs a workload")?;
            let w = find_workload(name)?;
            let seed = args.seed.unwrap_or(1);
            let seeds = [seed, seed.wrapping_mul(0x9E37) + 1];
            let plan_report = args.plan.as_deref().map(load_plan).transpose()?;
            if !args.json {
                println!(
                    "predicting races in `{}` (queue record + witness replay, seed {seed})",
                    w.name
                );
            }
            let (setup, program) = (w.setup, w.program);
            // Under `--plan` the recording runs sparse (statically
            // proven plain sites never hit the trace ring) and the
            // proven labels are pruned before witness synthesis.
            let run = match &plan_report {
                Some(p) => {
                    let proven = p.proven_labels();
                    let plan = AccessPlan::new(p.recorded_labels(), p.known_labels());
                    predictor::run_prediction_in_world_with(
                        seeds,
                        setup,
                        move || program,
                        Some(plan),
                        move |label| !proven.contains(label),
                    )
                }
                None => predictor::run_prediction_in_world(seeds, setup, move || program),
            };
            if run.record.plan.is_stale() {
                eprintln!(
                    "warning: plan is stale — {} unplanned label(s) recorded fail-open: {}",
                    run.record.plan.unplanned.len(),
                    run.record.plan.unplanned.join(", ")
                );
            }
            // Static/dynamic lock-cycle cross-check: a static cycle the
            // recorded trace's Goodlock pass never saw is a *new*
            // finding — the observed schedule simply never interleaved
            // those locks.
            let static_only: Vec<Vec<String>> = plan_report
                .as_ref()
                .map(|p| {
                    let dynamic: Vec<BTreeSet<String>> =
                        srr_analysis::predict_deadlocks(&run.record.sync_trace)
                            .into_iter()
                            .map(|f| f.labels.into_iter().collect())
                            .collect();
                    p.lock_cycles
                        .iter()
                        .filter(|c| {
                            let set: BTreeSet<String> = c.iter().cloned().collect();
                            !dynamic.iter().any(|d| d.is_superset(&set))
                        })
                        .cloned()
                        .collect()
                })
                .unwrap_or_default();
            let confirmed = run.predictions.count(Classification::Confirmed);
            let unconfirmed = run.predictions.count(Classification::Unconfirmed);
            let infeasible = run.predictions.count(Classification::Infeasible);
            if let Some(dir) = &args.out {
                let witness = run
                    .predictions
                    .races
                    .iter()
                    .find(|r| r.classification == Classification::Confirmed)
                    .and_then(|r| r.witness.as_ref())
                    .ok_or("--out given but no confirmed witness to save")?;
                witness
                    .save_dir(dir)
                    .map_err(|e| format!("saving witness demo: {e}"))?;
                if !args.json {
                    println!("witness demo: {}", dir.display());
                }
            }
            // Static-only cycles gate alongside the confirmed races,
            // but only under `--plan` (the vector is empty otherwise).
            let gate = confirmed + static_only.len();
            let noun = if static_only.is_empty() {
                "confirmed race"
            } else {
                "finding"
            };
            let races = run
                .predictions
                .races
                .iter()
                .map(|r| {
                    Json::Obj(vec![
                        ("loc".to_owned(), Json::Str(r.loc_label.clone())),
                        (
                            "tids".to_owned(),
                            Json::Arr(vec![
                                Json::Num(f64::from(r.tids.0)),
                                Json::Num(f64::from(r.tids.1)),
                            ]),
                        ),
                        (
                            "writes".to_owned(),
                            Json::Arr(vec![Json::Bool(r.writes.0), Json::Bool(r.writes.1)]),
                        ),
                        ("hidden".to_owned(), Json::Bool(r.hidden)),
                        (
                            "classification".to_owned(),
                            Json::Str(r.classification.name().to_owned()),
                        ),
                    ])
                })
                .collect();
            let mut fields = vec![
                ("workload".to_owned(), Json::Str(w.name.to_owned())),
                ("seed".to_owned(), Json::Num(seed as f64)),
                (
                    "recorded_races".to_owned(),
                    Json::Num(run.record.races as f64),
                ),
                (
                    "candidates".to_owned(),
                    Json::Num(run.predictions.races.len() as f64),
                ),
                ("confirmed".to_owned(), Json::Num(confirmed as f64)),
                ("unconfirmed".to_owned(), Json::Num(unconfirmed as f64)),
                ("infeasible".to_owned(), Json::Num(infeasible as f64)),
                (
                    "hidden".to_owned(),
                    Json::Num(run.predictions.hidden_count() as f64),
                ),
                (
                    "confirmation_rate".to_owned(),
                    match run.predictions.confirmation_rate() {
                        Some(r) => Json::Num(r),
                        None => Json::Null,
                    },
                ),
                ("races".to_owned(), Json::Arr(races)),
            ];
            if plan_report.is_some() {
                fields.push((
                    "pruned".to_owned(),
                    Json::Num(run.predictions.pruned as f64),
                ));
                fields.push((
                    "plan_filtered_events".to_owned(),
                    Json::Num(run.record.plan.filtered_events as f64),
                ));
                fields.push((
                    "static_only_cycles".to_owned(),
                    Json::Arr(
                        static_only
                            .iter()
                            .map(|c| Json::Arr(c.iter().map(|l| Json::Str(l.clone())).collect()))
                            .collect(),
                    ),
                ));
            }
            let doc = Json::Obj(fields);
            if !emit_json_doc(&doc, args.json, None)? {
                return Ok(findings_exit(gate, noun));
            }
            println!(
                "recorded: {:?}, {} tick(s), {} race(s) in the observed schedule",
                run.record.outcome, run.record.ticks, run.record.races
            );
            println!("--- predictions ---");
            if run.predictions.races.is_empty() {
                println!("no candidate pairs under the weak partial order");
            } else {
                for r in &run.predictions.races {
                    println!(
                        "[{}] {}: threads {} & {} ({}/{}){}",
                        r.classification.name(),
                        r.loc_label,
                        r.tids.0,
                        r.tids.1,
                        if r.writes.0 { "write" } else { "read" },
                        if r.writes.1 { "write" } else { "read" },
                        if r.hidden {
                            " — hidden from the recorded schedule"
                        } else {
                            ""
                        }
                    );
                }
                let rate = run
                    .predictions
                    .confirmation_rate()
                    .map_or("n/a".to_owned(), |r| format!("{:.0}%", r * 100.0));
                println!(
                    "{} candidate(s) — {confirmed} confirmed, {unconfirmed} unconfirmed, \
                     {infeasible} infeasible (confirmation rate {rate})",
                    run.predictions.races.len()
                );
            }
            if plan_report.is_some() {
                println!(
                    "plan: pruned {} statically proven candidate(s), filtered {} plain \
                     event(s) from the trace",
                    run.predictions.pruned, run.record.plan.filtered_events
                );
                for c in &static_only {
                    println!(
                        "[static-only lock cycle] {} — never interleaved in the recorded \
                         schedule",
                        c.join(" -> ")
                    );
                }
            }
            Ok(findings_exit(gate, noun))
        }
        "demo" => {
            let sub = args
                .positional
                .first()
                .map(String::as_str)
                .ok_or("demo needs a subcommand: convert | hash | stats")?;
            let dir = args.demo.clone().ok_or("demo needs --demo DIR")?;
            let demo = Demo::load_dir(&dir).map_err(|e| format!("loading demo: {e}"))?;
            match sub {
                "convert" => {
                    let to = args.to.as_deref().ok_or("convert needs --to bin|text")?;
                    let format = DemoFormat::from_name(to)
                        .ok_or_else(|| format!("unknown demo format `{to}` (bin or text)"))?;
                    // No --out means convert in place; `save_dir_as`
                    // removes the other format's stream files so the
                    // directory never holds a stale mixed demo.
                    let dest = args.out.clone().unwrap_or_else(|| dir.clone());
                    demo.save_dir_as(&dest, format)
                        .map_err(|e| format!("writing {}: {e}", dest.display()))?;
                    eprintln!(
                        "{}: {} format, {} bytes",
                        dest.display(),
                        format.name(),
                        demo.size_bytes_as(format)
                    );
                    Ok(EXIT_OK)
                }
                "hash" => {
                    // The same content addresses `DemoStore` uses, so
                    // two demos dedup in a store iff their hash lines
                    // match here.
                    for (file, bytes) in demo.to_bytes_map() {
                        println!("{}  {file}", StreamHash::of(&bytes));
                    }
                    Ok(EXIT_OK)
                }
                "stats" => {
                    println!("{}", demo.stats());
                    Ok(EXIT_OK)
                }
                other => Err(format!(
                    "unknown demo subcommand `{other}` (convert | hash | stats)"
                )),
            }
        }
        "lint-demo" => {
            let dir = args.demo.clone().ok_or("lint-demo needs --demo DIR")?;
            let problems = demo_problems(&dir)?;
            if problems.is_empty() {
                println!("{}: demo is well-formed", dir.display());
            }
            for p in &problems {
                eprintln!("{p}");
            }
            Ok(findings_exit(problems.len(), "demo problem"))
        }
        "vet" => {
            if args.positional.is_empty() {
                return Err("vet needs at least one file or directory".to_owned());
            }
            let paths: Vec<PathBuf> = args.positional.iter().map(PathBuf::from).collect();
            for p in &paths {
                if !p.exists() {
                    return Err(format!("vet: no such path `{}`", p.display()));
                }
            }
            let (list, origin) = resolve_allowlist(args.allow.as_deref())?;
            let report = srr_vet::vet_paths(&paths, &list).map_err(|e| format!("vet: {e}"))?;
            if emit_json_doc(&report.to_json(), args.json, args.out.as_deref())? {
                if let Some(origin) = &origin {
                    println!("allowlist: {origin} ({} entr(ies))", list.entries.len());
                }
                for f in &report.findings {
                    println!("{f}");
                }
                for f in &report.allowed {
                    println!("{f} [allowed]");
                }
                println!(
                    "scanned {} file(s): {} deny, {} warn, {} allowed",
                    report.scanned_files,
                    report.deny_count(),
                    report.warn_count(),
                    report.allowed.len()
                );
            }
            // Warn findings report but do not gate; deny findings gate.
            Ok(findings_exit(report.deny_count(), "deny finding"))
        }
        "plan" => {
            if args.positional.is_empty() {
                return Err("plan needs at least one file or directory".to_owned());
            }
            let paths: Vec<PathBuf> = args.positional.iter().map(PathBuf::from).collect();
            for p in &paths {
                if !p.exists() {
                    return Err(format!("plan: no such path `{}`", p.display()));
                }
            }
            let (list, origin) = resolve_allowlist(args.allow.as_deref())?;
            let report = srr_plan::plan_paths(&paths, &list).map_err(|e| format!("plan: {e}"))?;
            if emit_json_doc(&report.to_json(), args.json, args.out.as_deref())? {
                if let Some(origin) = &origin {
                    println!("allowlist: {origin} ({} entr(ies))", list.entries.len());
                }
                for s in &report.sites {
                    let mut line = format!(
                        "[{}] {} ({}) {}:{}:{}",
                        s.class.name(),
                        s.label,
                        s.kind.name(),
                        s.span.file,
                        s.span.line,
                        s.span.col
                    );
                    if let SiteClass::Guarded(locks) = &s.class {
                        line.push_str(&format!(" under {}", locks.join("+")));
                    }
                    if s.severity == srr_analysis::Severity::Allow {
                        line.push_str(" [allowed]");
                    }
                    println!("{line}");
                }
                for c in &report.lock_cycles {
                    println!("[lock-cycle] {}", c.join(" -> "));
                }
                println!(
                    "scanned {} file(s): {} site(s), {} recorded / {} proven label(s), \
                     {} conflict gate(s), {} lock cycle(s)",
                    report.scanned_files,
                    report.sites.len(),
                    report.recorded_labels().len(),
                    report.proven_labels().len(),
                    report.conflict_count(),
                    report.lock_cycles.len(),
                );
            }
            // Unallowed plain-access conflicts and static lock-order
            // cycles gate; proven sites and allowed conflicts do not.
            Ok(findings_exit(
                report.conflict_count() + report.lock_cycles.len(),
                "plan finding",
            ))
        }
        "trace" => {
            let name = args.positional.first().ok_or("trace needs a workload")?;
            let w = find_workload(name)?;
            let spec = TraceSpec::new().with_ring_capacity(args.ring.unwrap_or(256));
            let setup = w.setup;
            let report = if let Some(dir) = &args.demo {
                let demo = Demo::load_dir(dir).map_err(|e| format!("loading demo: {e}"))?;
                let tool = tool_for_demo(&demo)?;
                let mut config = tool.config(demo.header.seeds);
                if let Some(sp) = &args.sparse {
                    config = config.with_sparse(parse_sparse(sp)?);
                }
                println!("tracing `{}` replaying {}", w.name, dir.display());
                Execution::new(config.with_trace(spec).with_sync_trace())
                    .setup(setup)
                    .replay(&demo, w.program)
            } else {
                let (tool, config) = config_for(&args, Tool::Queue)?;
                if !config.mode.is_controlled() {
                    return Err(format!(
                        "{tool} is not a controlled mode; tracing needs one of rnd, queue, pct, delay"
                    ));
                }
                println!("tracing `{}` under {tool}", w.name);
                Execution::new(config.with_trace(spec).with_sync_trace())
                    .setup(setup)
                    .run(w.program)
            };
            let out = args
                .out
                .clone()
                .unwrap_or_else(|| PathBuf::from(format!("trace_{name}.json")));
            let mut trace = chrome_trace(&report.obs);
            // Embed the desync diagnostics so `srr stats --vet` can join
            // the diverged stream against a static escape map offline.
            if let (Some(diag), Json::Obj(fields)) = (&report.obs.desync, &mut trace) {
                fields.push(("desync".to_owned(), diag.to_json()));
            }
            write_output(&out, &trace.to_pretty())?;
            println!("outcome:      {:?}", report.outcome);
            println!("tick latency: {}", report.obs.tick_latency.summary());
            println!("run lengths:  {}", report.obs.run_lengths.summary());
            let timeline = text_timeline(&report.obs);
            let lines: Vec<&str> = timeline.lines().collect();
            let tail = 20usize;
            if lines.len() > tail {
                println!("--- timeline (last {tail} of {} lines) ---", lines.len());
            } else {
                println!("--- timeline ---");
            }
            for line in lines.iter().rev().take(tail).rev() {
                println!("{line}");
            }
            if let Some(diag) = &report.obs.desync {
                println!("{}", diag.render());
            }
            let events = trace
                .get("traceEvents")
                .and_then(Json::as_array)
                .map_or(0, <[Json]>::len);
            println!("chrome trace: {} ({events} events)", out.display());
            Ok(EXIT_OK)
        }
        "profile" => {
            use std::fmt::Write as _;
            let name = args.positional.first().ok_or("profile needs a workload")?;
            let w = find_workload(name)?;
            let dir = args
                .demo
                .clone()
                .ok_or("profile needs --demo DIR (record one with `srr record`)")?;
            let demo = Demo::load_dir(&dir).map_err(|e| format!("loading demo: {e}"))?;
            let tool = tool_for_demo(&demo)?;
            let mut config = tool.config(demo.header.seeds);
            if let Some(sp) = &args.sparse {
                config = config.with_sparse(parse_sparse(sp)?);
            }
            let spec = TraceSpec::new().with_ring_capacity(args.ring.unwrap_or(256));
            let setup = w.setup;
            let report = Execution::new(config.with_trace(spec).with_sync_trace())
                .setup(setup)
                .replay(&demo, w.program);
            if let Some(diag) = &report.obs.desync {
                eprintln!(
                    "warning: replay desynced — profile covers the ticks before divergence\n{}",
                    diag.render()
                );
            }
            let prof = srr_obs::profile(&report.sync_trace);
            if let Some(folded) = &args.folded {
                write_output(folded, &prof.folded_stacks())?;
                eprintln!("folded stacks: {}", folded.display());
            }
            let contents = if args.json {
                // The JSON document is purely logical (ticks and sync
                // structure, never wall time): the same demo profiles to
                // byte-identical output on every run.
                format!("{}\n", prof.to_json().to_pretty())
            } else {
                let mut text = String::new();
                let _ = writeln!(
                    text,
                    "profiling `{}` replaying {} ({} demo)",
                    w.name,
                    dir.display(),
                    demo.header.strategy,
                );
                text.push_str(&prof.render_text());
                let _ = writeln!(
                    text,
                    "exact: bucket totals sum to {} of {} replay tick(s)",
                    prof.attributed_ticks(),
                    prof.total_ticks,
                );
                let _ = writeln!(text, "tick latency: {}", report.obs.tick_latency.summary());
                text
            };
            emit_report(args.out.as_deref(), "profile", &contents)?;
            Ok(EXIT_OK)
        }
        "stats" => {
            let path = args
                .positional
                .first()
                .ok_or("stats needs a report path (BENCH_*.json or trace_*.json)")?;
            let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
            let doc = Json::parse(&text).map_err(|e| format!("parsing {path}: {e}"))?;
            // The whole report accumulates here so `-o FILE` captures it
            // verbatim; without `-o` it lands on stdout unchanged.
            use std::fmt::Write as _;
            let mut buf = String::new();
            macro_rules! statln {
                ($($t:tt)*) => {{ let _ = writeln!(buf, $($t)*); }}
            }
            let str_of =
                |v: &Json, k: &str| v.get(k).and_then(Json::as_str).unwrap_or("-").to_owned();
            let num_of = |v: &Json, k: &str| v.get(k).and_then(Json::as_f64);
            // The bench section only renders for bench documents — a
            // trace file passed for `--vet` analysis gets no empty table.
            let is_bench = doc.get("rows").is_some() || doc.get("table").is_some();
            if is_bench {
                statln!(
                    "{} — {} (quick: {}, runs: {}, scale: {})",
                    str_of(&doc, "table"),
                    str_of(&doc, "title"),
                    doc.get("quick").and_then(Json::as_bool).unwrap_or(false),
                    num_of(&doc, "runs").unwrap_or(0.0),
                    num_of(&doc, "scale").unwrap_or(0.0),
                );
            }
            let empty: &[Json] = &[];
            let rows = doc.get("rows").and_then(Json::as_array).unwrap_or(empty);
            for row in rows {
                let mean = num_of(row, "mean").unwrap_or(0.0);
                let sd = num_of(row, "stddev").unwrap_or(0.0);
                let mut line = format!(
                    "  {:<16} {:<14} {:>10.3} ±{:<8.3} {:<4} n={}",
                    str_of(row, "workload"),
                    str_of(row, "config"),
                    mean,
                    sd,
                    str_of(row, "metric"),
                    num_of(row, "n").unwrap_or(0.0),
                );
                if let Some(o) = num_of(row, "overhead_vs_native") {
                    line.push_str(&format!("  {o:.1}x native"));
                }
                if let Some(t) = num_of(row, "ticks") {
                    line.push_str(&format!(
                        "  [ticks {t:.0}, wakeups {:.0}, broadcasts {:.0}, spurious {:.0}]",
                        num_of(row, "wakeups_issued").unwrap_or(0.0),
                        num_of(row, "broadcasts").unwrap_or(0.0),
                        num_of(row, "spurious_wakeups").unwrap_or(0.0),
                    ));
                }
                if let Some(b) = num_of(row, "demo_bytes") {
                    line.push_str(&format!(
                        "  [demo {b:.0}B: queue {:.0}, syscall {:.0}, signal {:.0}, async {:.0}]",
                        num_of(row, "queue_entries").unwrap_or(0.0),
                        num_of(row, "syscall_entries").unwrap_or(0.0),
                        num_of(row, "signal_entries").unwrap_or(0.0),
                        num_of(row, "async_entries").unwrap_or(0.0),
                    ));
                }
                statln!("{line}");
            }
            // Top-level counters some tables attach as notes (race
            // suppression, prediction outcomes).
            let mut extras = Vec::new();
            for key in [
                "races",
                "suppressed",
                "candidates",
                "confirmed",
                "unconfirmed",
                "infeasible",
                "hidden",
                "confirmation_rate",
            ] {
                if let Some(v) = num_of(&doc, key) {
                    extras.push(format!("{key} {v}"));
                }
            }
            if !extras.is_empty() {
                statln!("totals: {}", extras.join(", "));
            }
            if is_bench {
                statln!("{} row(s)", rows.len());
            }
            // Exploration-farm documents (`srr explore --out`): render
            // the counters and the deduplicated signature corpus.
            if let Some(farm) = doc.get("farm") {
                statln!("farm: {}", FarmCounters::from_json(farm).render());
            }
            if let Some(sigs) = doc.get("signatures").and_then(Json::as_array) {
                statln!("{} distinct signature(s):", sigs.len());
                for s in sigs {
                    let mut line = format!(
                        "  {}({})  strategy={} seed={}",
                        str_of(s, "kind"),
                        str_of(s, "detail"),
                        str_of(s, "strategy"),
                        num_of(s, "seed").unwrap_or(0.0),
                    );
                    if let Some(b) = num_of(s, "demo_bytes") {
                        line.push_str(&format!(" demo={b:.0}B"));
                    }
                    statln!("{line}");
                }
            }
            // Desync ↔ escape-map cross-link: only when the document
            // actually carries desync diagnostics (`srr trace` embeds
            // them when a replay diverged) — never an empty section.
            let desync = doc.get("desync").filter(|d| !matches!(d, Json::Null));
            if let Some(vet_path) = &args.vet {
                let Some(desync) = desync else {
                    eprintln!(
                        "no desync recorded in {path} — vet cross-link skipped (replay was clean?)"
                    );
                    emit_report(args.out.as_deref(), "stats", &buf)?;
                    return Ok(EXIT_OK);
                };
                let vet_text = std::fs::read_to_string(vet_path)
                    .map_err(|e| format!("reading {}: {e}", vet_path.display()))?;
                let vet_doc = Json::parse(&vet_text)
                    .map_err(|e| format!("parsing {}: {e}", vet_path.display()))?;
                let escapes = srr_vet::escape_map_from_json(&vet_doc);
                let stream = desync
                    .get("stream")
                    .and_then(Json::as_str)
                    .unwrap_or("?")
                    .to_owned();
                statln!(
                    "--- desync root causes (stream {stream} @ entry {}, constraint `{}`) ---",
                    num_of(desync, "offset").unwrap_or(0.0),
                    str_of(desync, "constraint"),
                );
                let ranked = srr_vet::rank_desync_causes(&stream, &escapes);
                if ranked.is_empty() {
                    statln!(
                        "no static escape implicates {stream}; the cause is outside the vetted \
                         source ({} escape(s) in the map)",
                        escapes.len()
                    );
                } else {
                    for r in &ranked {
                        statln!(
                            "  [{}] {}",
                            if r.score == 2 { "primary" } else { "secondary" },
                            r.finding
                        );
                    }
                }
            } else if desync.is_some() {
                statln!(
                    "desync diagnostics present — pass `--vet vet.json` (from `srr vet --json`) \
                     to rank root causes"
                );
            }
            emit_report(args.out.as_deref(), "stats", &buf)?;
            Ok(EXIT_OK)
        }
        other => Err(format!(
            "unknown command `{other}`
{}",
            usage()
        )),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run_command(&argv) {
        Ok(code) => ExitCode::from(code),
        Err(msg) => {
            eprintln!("srr: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn parse_args_flags_and_positionals() {
        let a = parse_args(&argv(&[
            "client", "--tool", "queue", "--seed", "7", "--out", "/tmp/x", "--runs", "9",
        ]))
        .unwrap();
        assert_eq!(a.positional, vec!["client"]);
        assert_eq!(a.tool.as_deref(), Some("queue"));
        assert_eq!(a.seed, Some(7));
        assert_eq!(a.runs, Some(9));
        assert!(a.out.is_some());
        assert!(!a.json);
        let j = parse_args(&argv(&["hidden_handoff", "--json"])).unwrap();
        assert!(j.json);
    }

    #[test]
    fn parse_args_short_out_alias_and_profile_flags() {
        // `-o` is an alias for `--out`, shared by trace/profile/stats.
        let a = parse_args(&argv(&[
            "httpd",
            "-o",
            "/tmp/report.txt",
            "--folded",
            "/tmp/prof.folded",
            "--metrics-out",
            "/tmp/metrics",
        ]))
        .unwrap();
        assert_eq!(a.out.as_deref(), Some(Path::new("/tmp/report.txt")));
        assert_eq!(a.folded.as_deref(), Some(Path::new("/tmp/prof.folded")));
        assert_eq!(a.metrics_out.as_deref(), Some(Path::new("/tmp/metrics")));
        // `-o` still needs a value.
        assert!(parse_args(&argv(&["httpd", "-o"])).is_err());
    }

    #[test]
    fn parse_args_plan_flag() {
        let a = parse_args(&argv(&["hidden_handoff", "--plan", "/tmp/plan.json"])).unwrap();
        assert_eq!(a.plan.as_deref(), Some(Path::new("/tmp/plan.json")));
        assert!(parse_args(&argv(&["--plan"])).is_err(), "needs a value");
    }

    #[test]
    fn parse_args_rejects_unknown_flag_and_missing_value() {
        assert!(parse_args(&argv(&["--nope"])).is_err());
        assert!(parse_args(&argv(&["--seed"])).is_err());
        assert!(parse_args(&argv(&["--seed", "xyz"])).is_err());
    }

    #[test]
    fn parse_args_rejects_single_dash_flags_with_guidance() {
        // `-seed` used to fall through to positionals and be (mis)read as
        // a workload name; it must be rejected as a malformed flag.
        let err = parse_args(&argv(&["client", "-seed", "7"])).unwrap_err();
        assert!(err.contains("unknown flag `-seed`"), "{err}");
        for valid in [
            "--tool", "--seed", "--out", "--demo", "--sparse", "--runs", "--plan",
        ] {
            assert!(err.contains(valid), "`{valid}` missing from: {err}");
        }
        assert!(parse_args(&argv(&["-x"])).is_err());
        // A plain `-` is also not a workload.
        assert!(parse_args(&argv(&["-"])).is_err());
    }

    #[test]
    fn tool_and_sparse_parsers() {
        assert!(parse_tool("queue").is_ok());
        assert!(parse_tool("tsan11+rr").is_ok());
        assert!(parse_tool("bogus").is_err());
        assert!(parse_sparse("games").is_ok());
        assert!(parse_sparse("bogus").is_err());
    }

    #[test]
    fn workload_registry_is_complete() {
        let names: Vec<&str> = workloads().iter().map(|w| w.name).collect();
        for expected in [
            "client",
            "httpd",
            "pbzip",
            "game",
            "netplay",
            "ptrmap",
            "ms-queue",
            "planned_local",
        ] {
            assert!(
                names.contains(&expected),
                "{expected} missing from {names:?}"
            );
        }
        assert!(find_workload("client").is_ok());
        assert!(find_workload("nope").is_err());
    }

    #[test]
    fn run_command_errors_are_usable() {
        assert!(run_command(&[]).is_err());
        assert!(run_command(&argv(&["frobnicate"])).is_err());
        assert!(run_command(&argv(&["run"])).is_err(), "missing workload");
        assert!(
            run_command(&argv(&["record", "client"])).is_err(),
            "missing --out"
        );
        assert!(
            run_command(&argv(&["replay", "client"])).is_err(),
            "missing --demo"
        );
    }

    #[test]
    fn analyze_command_runs_and_validates() {
        // The ABBA workload is built to be flagged: findings exit 2.
        let code = run_command(&argv(&["analyze", "ab_ba_locks", "--seed", "7"])).expect("analyze");
        assert_eq!(code, EXIT_FINDINGS);
        assert!(
            run_command(&argv(&["analyze"])).is_err(),
            "missing workload"
        );
        let err = run_command(&argv(&["analyze", "ab_ba_locks", "--tool", "native"])).unwrap_err();
        assert!(err.contains("controlled"), "{err}");
    }

    #[test]
    fn predict_command_confirms_hidden_race_and_rejects_guarded() {
        let code =
            run_command(&argv(&["predict", "hidden_handoff", "--seed", "7"])).expect("predict");
        assert_eq!(code, EXIT_FINDINGS, "confirmed race exits 2");
        let code = run_command(&argv(&["predict", "atomic_guard", "--seed", "7", "--json"]))
            .expect("predict");
        assert_eq!(code, EXIT_OK, "infeasible-only prediction exits 0");
        assert!(
            run_command(&argv(&["predict"])).is_err(),
            "missing workload"
        );
    }

    #[test]
    fn parse_strategies_defaults_and_validates() {
        assert_eq!(
            parse_strategies(None).unwrap(),
            vec!["rnd", "pct", "delay", "queue"]
        );
        assert_eq!(
            parse_strategies(Some("queue, rnd")).unwrap(),
            vec!["queue", "rnd"]
        );
        assert!(parse_strategies(Some("bogus")).is_err());
        assert!(parse_strategies(Some(",")).is_err());
    }

    #[test]
    fn explore_runs_the_farm_in_process() {
        // workers=1 runs shards in-process (no subprocess — under `cargo
        // test` current_exe is the test harness, which must never be
        // spawned). The racy litmus gates with the findings exit code…
        let code = run_command(&argv(&[
            "explore",
            "barrier",
            "--runs",
            "12",
            "--shard",
            "6",
            "--strategies",
            "rnd",
            "--json",
        ]))
        .expect("explore runs");
        assert_eq!(code, EXIT_FINDINGS);
        // …and a guarded workload explores clean.
        let code = run_command(&argv(&[
            "explore",
            "atomic_guard",
            "--runs",
            "4",
            "--strategies",
            "queue",
            "--json",
        ]))
        .expect("explore runs");
        assert_eq!(code, EXIT_OK);
        // Usage errors stay errors.
        assert!(run_command(&argv(&["explore"])).is_err());
        assert!(run_command(&argv(&["explore", "barrier", "--shard", "0"])).is_err());
        assert!(run_command(&argv(&["explore", "barrier", "--strategies", "nope"])).is_err());
    }

    #[test]
    fn explore_report_round_trips_through_stats() {
        let out = std::env::temp_dir().join(format!("srr-explore-doc-{}.json", std::process::id()));
        let code = run_command(&argv(&[
            "explore",
            "barrier",
            "--runs",
            "8",
            "--strategies",
            "queue",
            "--json",
            "--out",
            out.to_str().unwrap(),
        ]))
        .expect("explore runs");
        assert_eq!(code, EXIT_FINDINGS);
        let doc = Json::parse(&std::fs::read_to_string(&out).unwrap()).expect("valid JSON");
        assert!(doc.get("farm").is_some(), "farm counters embedded");
        let sigs = doc
            .get("signatures")
            .and_then(Json::as_array)
            .expect("signatures");
        assert!(!sigs.is_empty());
        // `srr stats` renders the farm document without error.
        assert_eq!(
            run_command(&argv(&["stats", out.to_str().unwrap()])),
            Ok(EXIT_OK)
        );
        let _ = std::fs::remove_file(&out);
    }

    #[test]
    fn explore_predict_feedback_arms_directed_shards() {
        let out =
            std::env::temp_dir().join(format!("srr-explore-pred-{}.json", std::process::id()));
        run_command(&argv(&[
            "explore",
            "hidden_handoff",
            "--runs",
            "6",
            "--strategies",
            "queue",
            "--predict",
            "--json",
            "--out",
            out.to_str().unwrap(),
        ]))
        .expect("explore runs");
        let doc = Json::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
        let targeted = doc
            .get("farm")
            .and_then(|f| f.get("targeted_runs"))
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        assert!(
            targeted > 0.0,
            "predict candidates became directed shards: {doc:?}"
        );
        let _ = std::fs::remove_file(&out);
    }

    #[test]
    fn help_prints_exit_codes() {
        assert_eq!(run_command(&argv(&["--help"])), Ok(EXIT_OK));
        assert_eq!(run_command(&argv(&["help"])), Ok(EXIT_OK));
        assert!(usage().contains("exit codes"));
        assert!(usage().contains("2  clean run with findings"));
        assert!(usage().contains("srr plan"));
        // Usage travels with the missing-command error too.
        let err = run_command(&[]).unwrap_err();
        assert!(err.contains("exit codes"), "{err}");
    }

    #[test]
    fn lint_demo_command_accepts_recorded_and_rejects_corrupt() {
        let dir = std::env::temp_dir().join(format!("srr-lint-test-{}", std::process::id()));
        run_command(&argv(&[
            "record",
            "client",
            "--tool",
            "queue",
            "--seed",
            "5",
            "--out",
            dir.to_str().unwrap(),
        ]))
        .expect("record");
        assert_eq!(
            run_command(&argv(&["lint-demo", "--demo", dir.to_str().unwrap()])),
            Ok(EXIT_OK),
            "recorded demo lints clean"
        );
        // Corrupt the binary SYSCALL stream mid-record: the linter must
        // object with the findings exit code (not a usage error).
        let syscall = dir.join("SYSCALL");
        let mut bytes = std::fs::read(&syscall).expect("recorded syscalls");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&syscall, bytes).unwrap();
        assert_eq!(
            run_command(&argv(&["lint-demo", "--demo", dir.to_str().unwrap()])),
            Ok(EXIT_FINDINGS)
        );
        assert!(
            run_command(&argv(&["lint-demo"])).is_err(),
            "missing --demo"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Records a client demo into `dir` and rewrites it, still with valid
    /// checksums, so the QUEUE stream ends early: its first ticks and last
    /// next-tick entries then name ticks past the end.
    fn record_truncated_queue_demo(dir: &Path) -> Demo {
        run_command(&argv(&[
            "record",
            "client",
            "--tool",
            "queue",
            "--seed",
            "5",
            "--out",
            dir.to_str().unwrap(),
        ]))
        .expect("record");
        let mut demo = Demo::load_dir(dir).expect("recorded demo loads");
        let keep = demo.queue.next_tick_count() / 2;
        demo.queue.truncate_next_ticks(keep);
        demo.save_dir(dir).unwrap();
        demo
    }

    #[test]
    fn invalid_demo_fails_typed_before_any_run() {
        let base = std::env::temp_dir().join(format!("srr-invalid-{}", std::process::id()));
        let dir = base.join("demo");
        let demo = record_truncated_queue_demo(&dir);
        assert!(!demo.validate().is_empty());
        let d = dir.to_str().unwrap();
        let trace_out = base.join("trace.json");
        let profile_out = base.join("profile.txt");
        for (cmd, out) in [
            (vec!["replay", "client", "--demo", d], None),
            (
                vec![
                    "trace",
                    "client",
                    "--demo",
                    d,
                    "--out",
                    trace_out.to_str().unwrap(),
                ],
                Some(&trace_out),
            ),
            (
                vec![
                    "profile",
                    "client",
                    "--demo",
                    d,
                    "-o",
                    profile_out.to_str().unwrap(),
                ],
                Some(&profile_out),
            ),
        ] {
            let err = run_command(&argv(&cmd)).expect_err("invalid demo must not run");
            assert!(
                err.starts_with("loading demo: invalid demo: QUEUE entry "),
                "{cmd:?}: {err}"
            );
            assert!(!err.contains("desync"), "{cmd:?}: {err}");
            // The run never started, so it wrote no report.
            if let Some(out) = out {
                assert!(!out.exists(), "{cmd:?} wrote {}", out.display());
            }
        }
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn lint_demo_reports_every_violation_with_stream_and_entry() {
        let dir = std::env::temp_dir().join(format!("srr-lint-two-{}", std::process::id()));
        let mut demo = record_truncated_queue_demo(&dir);
        // A second fault in another stream: a signal to a thread the
        // queue never created.
        demo.signals.push(srr_replay::SignalEvent {
            tid: 99,
            tick: 1,
            signo: 10,
        });
        demo.save_dir(&dir).unwrap();
        let problems = demo_problems(&dir).expect("readable demo");
        let violations = demo.validate();
        assert_eq!(
            problems,
            violations
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
        );
        assert!(
            problems.iter().any(|p| p.starts_with("QUEUE entry ")),
            "{problems:?}"
        );
        let signal = format!("SIGNAL entry {}: tid 99 out of range", demo.signals.len());
        assert!(
            problems.iter().any(|p| p.starts_with(&signal)),
            "{problems:?}"
        );
        assert_eq!(
            run_command(&argv(&["lint-demo", "--demo", dir.to_str().unwrap()])),
            Ok(EXIT_FINDINGS)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn demo_command_converts_hashes_and_reports_stats() {
        let dir = std::env::temp_dir().join(format!("srr-demo-cmd-{}", std::process::id()));
        let text_dir = std::env::temp_dir().join(format!("srr-demo-cmd-t-{}", std::process::id()));
        run_command(&argv(&[
            "record",
            "client",
            "--tool",
            "queue",
            "--seed",
            "5",
            "--out",
            dir.to_str().unwrap(),
        ]))
        .expect("record");
        let d = dir.to_str().unwrap();
        assert_eq!(
            run_command(&argv(&["demo", "stats", "--demo", d])),
            Ok(EXIT_OK)
        );
        assert_eq!(
            run_command(&argv(&["demo", "hash", "--demo", d])),
            Ok(EXIT_OK)
        );
        // Convert to text in a second directory: same demo, different bytes.
        run_command(&argv(&[
            "demo",
            "convert",
            "--demo",
            d,
            "--to",
            "text",
            "--out",
            text_dir.to_str().unwrap(),
        ]))
        .expect("convert to text");
        let orig = Demo::load_dir(&dir).unwrap();
        let text = Demo::load_dir(&text_dir).unwrap();
        assert_eq!(orig.to_bytes_map(), text.to_bytes_map(), "lossless convert");
        assert!(
            std::fs::read_to_string(text_dir.join("HEADER")).is_ok(),
            "text HEADER is UTF-8"
        );
        // In-place round trip back to binary, then replay the result.
        run_command(&argv(&[
            "demo",
            "convert",
            "--demo",
            text_dir.to_str().unwrap(),
            "--to",
            "bin",
        ]))
        .expect("convert in place");
        run_command(&argv(&[
            "replay",
            "client",
            "--demo",
            text_dir.to_str().unwrap(),
        ]))
        .expect("converted demo replays");
        // Usage errors: missing subcommand, unknown subcommand, missing --to.
        assert!(run_command(&argv(&["demo", "--demo", d])).is_err());
        assert!(run_command(&argv(&["demo", "bogus", "--demo", d])).is_err());
        assert!(run_command(&argv(&["demo", "convert", "--demo", d])).is_err());
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&text_dir);
    }

    #[test]
    fn record_and_replay_through_the_cli_paths() {
        let dir = std::env::temp_dir().join(format!("srr-cli-test-{}", std::process::id()));
        run_command(&argv(&[
            "record",
            "barrier",
            "--tool",
            "queue",
            "--seed",
            "3",
            "--out",
            dir.to_str().unwrap(),
        ]))
        .expect("record");
        run_command(&argv(&[
            "replay",
            "barrier",
            "--demo",
            dir.to_str().unwrap(),
        ]))
        .expect("replay");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_command_writes_parseable_chrome_json() {
        let out = std::env::temp_dir().join(format!("srr-trace-test-{}.json", std::process::id()));
        let code = run_command(&argv(&[
            "trace",
            "barrier",
            "--tool",
            "queue",
            "--seed",
            "3",
            "--ring",
            "64",
            "--out",
            out.to_str().unwrap(),
        ]))
        .expect("trace");
        assert_eq!(code, EXIT_OK);
        let text = std::fs::read_to_string(&out).expect("trace file");
        let doc = Json::parse(&text).expect("valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(Json::as_array)
            .expect("traceEvents array");
        assert!(!events.is_empty(), "trace captured events");
        // Uncontrolled tools cannot trace.
        assert!(run_command(&argv(&["trace", "barrier", "--tool", "native"])).is_err());
        let _ = std::fs::remove_file(&out);
    }

    #[test]
    fn vet_command_gates_on_deny_and_honours_allowlists() {
        let dir = std::env::temp_dir().join(format!("srr-vet-cli-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let bad = dir.join("bad.rs");
        std::fs::write(
            &bad,
            "fn w() { std::thread::spawn(|| {}); std::time::Instant::now(); }",
        )
        .unwrap();
        let clean = dir.join("clean.rs");
        std::fs::write(&clean, "fn w() { tsan11rec::sys::println(\"ok\"); }").unwrap();

        // Deny findings gate with the shared findings exit code.
        let code = run_command(&argv(&["vet", bad.to_str().unwrap(), "--allow", "none"]))
            .expect("vet runs");
        assert_eq!(code, EXIT_FINDINGS);
        // Shim-only code passes.
        let code = run_command(&argv(&["vet", clean.to_str().unwrap(), "--allow", "none"]))
            .expect("vet runs");
        assert_eq!(code, EXIT_OK);
        // An allowlist covering the file waves the escapes through.
        let allow = dir.join("allow.txt");
        std::fs::write(&allow, "allow * */bad.rs fixture\n").unwrap();
        let code = run_command(&argv(&[
            "vet",
            bad.to_str().unwrap(),
            "--allow",
            allow.to_str().unwrap(),
            "--json",
        ]))
        .expect("vet runs");
        assert_eq!(code, EXIT_OK);
        // `--out` writes the escape map; it parses back.
        let map = dir.join("vet.json");
        let code = run_command(&argv(&[
            "vet",
            bad.to_str().unwrap(),
            "--allow",
            "none",
            "--out",
            map.to_str().unwrap(),
        ]))
        .expect("vet runs");
        assert_eq!(code, EXIT_FINDINGS);
        let doc = Json::parse(&std::fs::read_to_string(&map).unwrap()).unwrap();
        let escapes = srr_vet::escape_map_from_json(&doc);
        assert!(
            escapes.iter().any(|f| f.kind == srr_vet::VetKind::RawSpawn),
            "{escapes:?}"
        );
        // Usage errors: no paths, missing path.
        assert!(run_command(&argv(&["vet"])).is_err());
        assert!(run_command(&argv(&["vet", "/nonexistent/nope.rs"])).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn vet_hazard_fixtures_are_flagged_through_the_cli() {
        // The repo's own hazard workloads are the true-positive corpus:
        // raw_clock/raw_spawn must gate `srr vet` on this very file set.
        let hazards = Path::new(env!("CARGO_MANIFEST_DIR")).join("src/hazards.rs");
        let code = run_command(&argv(&[
            "vet",
            hazards.to_str().unwrap(),
            "--allow",
            "none",
        ]))
        .expect("vet runs");
        assert_eq!(code, EXIT_FINDINGS, "escape fixtures must be flagged");
    }

    #[test]
    fn plan_command_classifies_hazards_and_roundtrips() {
        let hazards = Path::new(env!("CARGO_MANIFEST_DIR")).join("src/hazards.rs");
        let out = std::env::temp_dir().join(format!("srr-plan-cli-{}.json", std::process::id()));
        let code = run_command(&argv(&[
            "plan",
            hazards.to_str().unwrap(),
            "--allow",
            "none",
            "--out",
            out.to_str().unwrap(),
        ]))
        .expect("plan runs");
        assert_eq!(
            code, EXIT_FINDINGS,
            "hazard fixtures have unallowed conflicts"
        );
        let doc = Json::parse(&std::fs::read_to_string(&out).unwrap()).expect("valid JSON");
        let report = srr_plan::plan_from_json(&doc).expect("plan parses back");
        assert!(
            report.recorded_labels().contains("cell"),
            "hidden_handoff's conflict stays recorded: {:?}",
            report.recorded_labels()
        );
        assert!(
            report.proven_labels().contains("worker-acc"),
            "planned_local's thread-local accumulator is proven: {:?}",
            report.proven_labels()
        );
        // Usage errors: no paths, missing path.
        assert!(run_command(&argv(&["plan"])).is_err());
        assert!(run_command(&argv(&["plan", "/nonexistent/nope.rs"])).is_err());
        let _ = std::fs::remove_file(&out);
    }

    #[test]
    fn predict_plan_prunes_but_still_confirms() {
        let hazards = Path::new(env!("CARGO_MANIFEST_DIR")).join("src/hazards.rs");
        let plan = std::env::temp_dir().join(format!("srr-predplan-{}.json", std::process::id()));
        run_command(&argv(&[
            "plan",
            hazards.to_str().unwrap(),
            "--allow",
            "none",
            "--out",
            plan.to_str().unwrap(),
        ]))
        .expect("plan");
        let code = run_command(&argv(&[
            "predict",
            "hidden_handoff",
            "--seed",
            "7",
            "--plan",
            plan.to_str().unwrap(),
            "--json",
        ]))
        .expect("predict");
        assert_eq!(
            code, EXIT_FINDINGS,
            "the sparse trace still confirms the race"
        );
        // A bogus plan path is a usage error, not a silent full record.
        assert!(run_command(&argv(&[
            "predict",
            "hidden_handoff",
            "--plan",
            "/nonexistent/plan.json"
        ]))
        .is_err());
        let _ = std::fs::remove_file(&plan);
    }

    #[test]
    fn explore_plan_seeds_directed_shards() {
        let hazards = Path::new(env!("CARGO_MANIFEST_DIR")).join("src/hazards.rs");
        let plan = std::env::temp_dir().join(format!("srr-explplan-{}.json", std::process::id()));
        run_command(&argv(&[
            "plan",
            hazards.to_str().unwrap(),
            "--allow",
            "none",
            "--out",
            plan.to_str().unwrap(),
        ]))
        .expect("plan");
        let out =
            std::env::temp_dir().join(format!("srr-explplan-doc-{}.json", std::process::id()));
        run_command(&argv(&[
            "explore",
            "hidden_handoff",
            "--runs",
            "6",
            "--strategies",
            "queue",
            "--plan",
            plan.to_str().unwrap(),
            "--json",
            "--out",
            out.to_str().unwrap(),
        ]))
        .expect("explore runs");
        let doc = Json::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
        let targeted = doc
            .get("farm")
            .and_then(|f| f.get("targeted_runs"))
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        assert!(
            targeted > 0.0,
            "plan conflict sites became directed shards: {doc:?}"
        );
        let _ = std::fs::remove_file(&plan);
        let _ = std::fs::remove_file(&out);
    }

    #[test]
    fn stats_vet_crosslink_only_renders_with_a_desync() {
        let dir = std::env::temp_dir().join(format!("srr-statsvet-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // Escape map with one raw-clock escape (SYSCALL primary).
        let vet = dir.join("vet.json");
        std::fs::write(
            &vet,
            r#"{"findings": [{"kind": "raw-clock", "severity": "deny",
                "file": "w.rs", "line": 3, "col": 5, "path": "std::time::Instant::now",
                "message": "m", "suggestion": "sys::clock_gettime"}]}"#,
        )
        .unwrap();
        // A trace document carrying desync diagnostics joins and exits 0.
        let trace = dir.join("trace.json");
        std::fs::write(
            &trace,
            r#"{"traceEvents": [], "desync": {"tick": 9, "constraint": "syscall-kind",
                "stream": "SYSCALL", "offset": 4}}"#,
        )
        .unwrap();
        assert_eq!(
            run_command(&argv(&[
                "stats",
                trace.to_str().unwrap(),
                "--vet",
                vet.to_str().unwrap()
            ])),
            Ok(EXIT_OK)
        );
        // No desync in the document: the section is skipped, not empty.
        let clean = dir.join("clean.json");
        std::fs::write(&clean, r#"{"traceEvents": []}"#).unwrap();
        assert_eq!(
            run_command(&argv(&[
                "stats",
                clean.to_str().unwrap(),
                "--vet",
                vet.to_str().unwrap()
            ])),
            Ok(EXIT_OK)
        );
        // Unreadable escape map is a usage error.
        assert!(run_command(&argv(&[
            "stats",
            trace.to_str().unwrap(),
            "--vet",
            "/nonexistent/vet.json"
        ]))
        .is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_embeds_desync_diagnostics_for_divergent_replays() {
        use srr_apps::ptrmap;
        let dir = std::env::temp_dir().join(format!("srr-tracedsy-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // Record ptrmap under ASLR entropy A, then trace a replay under
        // entropy B: the §5.5 hard desync must surface in the JSON.
        let (_, demo) = Execution::new(Tool::QueueRec.config([2, 3]))
            .with_vos(ptrmap::aslr_world(111))
            .record(ptrmap::ptrmap(ptrmap::PtrMapParams::default()));
        let report = Execution::new(
            Tool::QueueRec
                .config(demo.header.seeds)
                .with_trace(TraceSpec::new().with_ring_capacity(128))
                .with_sync_trace(),
        )
        .with_vos(ptrmap::aslr_world(999))
        .replay(&demo, ptrmap::ptrmap(ptrmap::PtrMapParams::default()));
        let mut trace = chrome_trace(&report.obs);
        if let (Some(diag), Json::Obj(fields)) = (&report.obs.desync, &mut trace) {
            fields.push(("desync".to_owned(), diag.to_json()));
        }
        let doc = Json::parse(&trace.to_pretty()).unwrap();
        let desync = doc.get("desync").expect("desync diagnostics embedded");
        assert_eq!(
            desync.get("stream").and_then(Json::as_str),
            Some("SYSCALL"),
            "{desync:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_command_reads_bench_reports() {
        let path = std::env::temp_dir().join(format!("srr-stats-test-{}.json", std::process::id()));
        let doc = r#"{
  "schema_version": 1, "table": "t1", "title": "demo", "quick": true,
  "runs": 2, "scale": 1,
  "rows": [
    {"workload": "w", "config": "queue", "metric": "ms",
     "higher_is_better": false, "mean": 1.5, "stddev": 0.1, "n": 2,
     "overhead_vs_native": 2.0, "ticks": 10, "wakeups_issued": 9,
     "broadcasts": 1, "spurious_wakeups": 0,
     "demo_bytes": 128, "queue_entries": 6, "syscall_entries": 2,
     "signal_entries": 1, "async_entries": 0}
  ]
}"#;
        std::fs::write(&path, doc).unwrap();
        assert_eq!(
            run_command(&argv(&["stats", path.to_str().unwrap()])),
            Ok(EXIT_OK)
        );
        assert!(run_command(&argv(&["stats"])).is_err(), "missing path");
        assert!(
            run_command(&argv(&["stats", "/nonexistent/bench.json"])).is_err(),
            "unreadable file"
        );
        let _ = std::fs::remove_file(&path);
    }
}
