//! Ports of the CDSchecker litmus benchmarks (§5.1, Table 1).
//!
//! Each benchmark is a ~100-line concurrent program using C++11-style
//! atomics whose bugs (data races, often weak-memory-dependent) manifest
//! only under particular interleavings. They are the paper's vehicle for
//! comparing how effectively each scheduling strategy *finds* races.
//!
//! The programs are closed: scheduler choices and weak-memory read
//! choices are the only nondeterminism, exactly as §5.1 requires.

mod barrier;
mod chase_lev_deque;
mod dekker_fences;
mod fig1;
mod linuxrwlocks;
mod mcs_lock;
mod mpmc_queue;
mod ms_queue;

pub use barrier::barrier;
pub use chase_lev_deque::chase_lev_deque;
pub use dekker_fences::dekker_fences;
pub use fig1::fig1_racy;
pub use linuxrwlocks::linuxrwlocks;
pub use mcs_lock::mcs_lock;
pub use mpmc_queue::mpmc_queue;
pub use ms_queue::ms_queue;

/// A named litmus benchmark.
#[derive(Clone, Copy)]
pub struct Litmus {
    /// Benchmark name as in Table 1.
    pub name: &'static str,
    /// The program body (run inside an `Execution`).
    pub run: fn(),
}

impl std::fmt::Debug for Litmus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Litmus({})", self.name)
    }
}

/// The Table 1 suite, in the paper's row order.
#[must_use]
pub fn table1_suite() -> Vec<Litmus> {
    vec![
        Litmus {
            name: "barrier",
            run: barrier,
        },
        Litmus {
            name: "chase-lev-deque",
            run: chase_lev_deque,
        },
        Litmus {
            name: "dekker-fences",
            run: dekker_fences,
        },
        Litmus {
            name: "linuxrwlocks",
            run: linuxrwlocks,
        },
        Litmus {
            name: "mcs-lock",
            run: mcs_lock,
        },
        Litmus {
            name: "mpmc-queue",
            run: mpmc_queue,
        },
        Litmus {
            name: "ms-queue",
            run: ms_queue,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{run_tool, Tool};

    #[test]
    fn suite_has_the_paper_rows() {
        let names: Vec<_> = table1_suite().iter().map(|l| l.name).collect();
        assert_eq!(
            names,
            vec![
                "barrier",
                "chase-lev-deque",
                "dekker-fences",
                "linuxrwlocks",
                "mcs-lock",
                "mpmc-queue",
                "ms-queue"
            ]
        );
    }

    #[test]
    fn every_litmus_completes_under_every_strategy() {
        for litmus in table1_suite() {
            for tool in [Tool::Native, Tool::Tsan11, Tool::Rnd, Tool::Queue] {
                let r = run_tool(tool, [3, 5], |_| {}, litmus.run);
                assert!(
                    r.report.outcome.is_ok(),
                    "{} under {tool}: {:?}",
                    litmus.name,
                    r.report.outcome
                );
            }
        }
    }

    #[test]
    fn every_litmus_is_racy_under_some_random_seed() {
        for litmus in table1_suite() {
            let mut found = false;
            for seed in 0..150u64 {
                let r = run_tool(Tool::Rnd, [seed, seed * 31 + 7], |_| {}, litmus.run);
                if r.report.races > 0 {
                    found = true;
                    break;
                }
            }
            assert!(
                found,
                "{}: no race found in 150 random-schedule seeds",
                litmus.name
            );
        }
    }

    #[test]
    fn fig1_completes_and_is_racy_under_some_seed() {
        let mut found = false;
        for seed in 0..200u64 {
            let r = run_tool(Tool::Rnd, [seed, seed * 31 + 7], |_| {}, fig1_racy);
            assert!(r.report.outcome.is_ok());
            if r.report.races > 0 {
                found = true;
                break;
            }
        }
        assert!(found, "Figure 1 race must be findable");
    }

    #[test]
    fn litmus_runs_record_and_replay() {
        // Record/replay of a litmus under both strategies must reproduce
        // the outcome, the console and the set of racy locations exactly.
        // The number of detector firings is not compared: which access of
        // a racy pair comes second, and so how often FastTrack fires after
        // the first race on a location, follows real-time order, not the
        // demo. Happens-before between plain accesses follows the visible
        // schedule, so whether a location races does.
        let racy = |r: &tsan11rec::ExecReport| -> std::collections::BTreeSet<String> {
            r.race_reports.iter().map(|x| x.label.clone()).collect()
        };
        for strategy_tool in [Tool::RndRec, Tool::QueueRec] {
            let litmus = table1_suite().into_iter().next().expect("non-empty");
            let rec = run_tool(strategy_tool, [11, 13], |_| {}, litmus.run);
            let demo = rec.demo.expect("recorded");
            let config = strategy_tool.config([11, 13]);
            let rep = tsan11rec::Execution::new(config).replay(&demo, litmus.run);
            assert!(rep.outcome.is_ok(), "{strategy_tool}: {:?}", rep.outcome);
            assert_eq!(
                rep.outcome, rec.report.outcome,
                "{strategy_tool}: outcome reproduces"
            );
            assert_eq!(
                rep.console, rec.report.console,
                "{strategy_tool}: console reproduces"
            );
            assert_eq!(
                racy(&rep),
                racy(&rec.report),
                "{strategy_tool}: racy locations reproduce"
            );
        }
    }
}
