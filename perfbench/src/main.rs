//! The repository benchmark: workloads timed from outside the public
//! calls, with per-layer figures from a separate traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <httpd-rr|pbzip-rr|explore-litmus> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics of an
//! untraced run, or the per-layer metrics of a traced one. The exit code
//! is 1 when a known-answer check failed and 2 on a usage error.
//! `perfbench/METRICS.md` says what each metric measures on each
//! workload.

mod expected;
mod explore;
mod harness;
mod layers;
mod predict;
mod procfs;
mod rng;
mod rr;
mod stats;
mod trace;

use std::process::ExitCode;

use harness::{run, RunConfig, RunResult};

/// The workloads, as named in `BENCHMARK.json`.
const WORKLOADS: [&str; 3] = ["httpd-rr", "pbzip-rr", "explore-litmus"];

const USAGE: &str = "usage: srr-perfbench --workload <httpd-rr|pbzip-rr|explore-litmus> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<(String, RunConfig), String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?).filter(|s| *s > 0),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: `{value}` is not 0 or 1")),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok((
        workload.ok_or("--workload is required")?,
        RunConfig {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds must be a positive whole number")?,
            trace: trace.ok_or("--trace is required")?,
        },
    ))
}

fn result_json(r: &RunResult) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.tally.failed == 0,
        r.tally.attempted,
        r.tally.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, cfg) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("srr-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match workload.as_str() {
        "httpd-rr" => run::<rr::HttpdRr>(&cfg),
        "pbzip-rr" => run::<rr::PbzipRr>(&cfg),
        "explore-litmus" => run::<explore::ExploreLitmus>(&cfg),
        other => {
            eprintln!(
                "srr-perfbench: unknown workload `{other}` (one of {})\n{USAGE}",
                WORKLOADS.join(", ")
            );
            return ExitCode::from(2);
        }
    };
    let result = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("srr-perfbench: {workload}: {e}");
            return ExitCode::from(1);
        }
    };
    let declared: &[(&str, &str)] = if cfg.trace {
        &layers::PER_LAYER
    } else {
        &layers::END_TO_END
    };
    let mut reported: Vec<(&str, &str)> = result.metrics.iter().map(|m| (m.0, m.2)).collect();
    reported.sort_unstable();
    let mut wanted = declared.to_vec();
    wanted.sort_unstable();
    if reported != wanted {
        eprintln!("srr-perfbench: {workload}: reported metrics differ from the declared ones");
        return ExitCode::from(1);
    }
    if let Some(bad) = result.metrics.iter().find(|m| !m.1.is_finite()) {
        eprintln!("srr-perfbench: {workload}: {} is not finite", bad.0);
        return ExitCode::from(1);
    }
    for note in &result.notes {
        println!("# {workload}: {note}");
    }
    for reason in &result.tally.reasons {
        println!("# {workload}: FAILED {reason}");
    }
    println!("{}", result_json(&result));
    if result.tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every entry of `BENCHMARK.json` that has a
    /// name, in file order; workloads have no unit.
    fn declared() -> Vec<(String, Option<String>)> {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is committed");
        let field = |chunk: &str, key: &str| {
            let start = chunk.find(&format!("\"{key}\": \""))? + key.len() + 5;
            Some(chunk[start..start + chunk[start..].find('"')?].to_owned())
        };
        text.split("\"name\": \"")
            .skip(1)
            .map(|chunk| {
                let chunk = format!("\"name\": \"{chunk}");
                (
                    field(&chunk, "name").expect("a name"),
                    field(&chunk, "unit"),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_what_the_code_reports() {
        let declared = declared();
        let workloads: Vec<&str> = declared
            .iter()
            .filter(|(_, unit)| unit.is_none())
            .map(|(n, _)| n.as_str())
            .collect();
        assert_eq!(workloads, WORKLOADS);
        let mut metrics: Vec<(&str, &str)> = declared
            .iter()
            .filter_map(|(n, u)| Some((n.as_str(), u.as_deref()?)))
            .collect();
        let mut reported: Vec<(&str, &str)> = layers::END_TO_END
            .iter()
            .chain(&layers::PER_LAYER)
            .copied()
            .collect();
        metrics.sort_unstable();
        reported.sort_unstable();
        assert_eq!(metrics, reported);
    }

    #[test]
    fn arguments_are_checked() {
        let argv = |s: &str| s.split(' ').map(str::to_owned).collect::<Vec<_>>();
        let (w, cfg) = parse_args(&argv("--workload httpd-rr --seed 3 --seconds 10 --trace 1"))
            .expect("valid");
        assert_eq!(
            (w.as_str(), cfg.seed, cfg.seconds, cfg.trace),
            ("httpd-rr", 3, 10, true)
        );
        for bad in [
            "--workload httpd-rr --seed 3 --seconds 0 --trace 0",
            "--workload httpd-rr --seed x --seconds 1 --trace 0",
            "--workload httpd-rr --seed 3 --seconds 1 --trace 2",
            "--workload httpd-rr --seed 3 --seconds 1",
            "--workload httpd-rr --seed 3 --seconds 1 --trace 0 --extra 1",
            "--workload httpd-rr --seed",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}
