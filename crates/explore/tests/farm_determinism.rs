//! The farm's headline invariant, checked by property: for a fixed
//! shard plan and a deterministic per-seed runner, the signature set
//! AND the per-signature corpus winners are identical at 1, 2, and 4
//! workers. Parallelism must only change wall-clock, never results.
//!
//! The runner here is synthetic (a pure function of
//! `(workload, strategy, seed)`) so the property isolates the
//! orchestration layer: work stealing, the pipe protocol round-trip,
//! arrival-order-independent corpus winner selection, and dedup.

use std::sync::Arc;

use proptest::collection::vec;
use proptest::prelude::*;

use srr_explore::{
    run_farm, Corpus, Finding, RaceTarget, ShardOutput, ShardPlan, ShardRunner, Signature,
    ThreadSpawner,
};
use srr_racedet::{AccessKind, RaceSignature};

/// A deterministic runner parameterized by a mixing constant so
/// different property cases exercise different finding shapes. Every
/// decision is a pure function of `(salt, strategy, seed)`.
fn runner(salt: u64) -> Arc<ShardRunner> {
    Arc::new(move |task| {
        let stir = |seed: u64| -> u64 {
            let mut h = seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(salt)
                .wrapping_add(task.strategy.len() as u64);
            h ^= h >> 29;
            h.wrapping_mul(0xbf58_476d_1ce4_e5b9)
        };
        let mut out = ShardOutput::default();
        for seed in task.seed_lo..task.seed_hi {
            out.runs += 1;
            let h = stir(seed);
            if task.target.is_some() {
                out.targeted += 1;
                if h % 5 == 0 {
                    out.target_hits += 1;
                }
            }
            match h % 11 {
                0 | 1 => {
                    out.races += 1;
                    out.findings.push(Finding {
                        task_id: 0,
                        signature: Signature::race(&RaceSignature {
                            label: format!("cell{}", h % 4),
                            tids: (0, 1 + (h % 3) as usize),
                            kinds: (AccessKind::Read, AccessKind::Write),
                        }),
                        strategy: task.strategy.clone(),
                        seed,
                        demo_bytes: Some(64 + h % 512),
                        demo_path: None,
                    });
                }
                2 => out.findings.push(Finding {
                    task_id: 0,
                    signature: Signature::deadlock(&[
                        format!("lock{}", h % 2),
                        "lock-shared".to_owned(),
                    ]),
                    strategy: task.strategy.clone(),
                    seed,
                    demo_bytes: None,
                    demo_path: None,
                }),
                3 => out.findings.push(Finding {
                    task_id: 0,
                    signature: Signature::desync("SYSCALL", "syscall-kind"),
                    strategy: task.strategy.clone(),
                    seed,
                    demo_bytes: Some(32 + h % 64),
                    demo_path: None,
                }),
                _ => {}
            }
        }
        Ok(out)
    })
}

/// One corpus winner: signature plus the entry fields that identify it.
type Winner = (Signature, String, u64, Option<u64>);

/// Runs one farm session and extracts the comparable result: the full
/// corpus content (signature → winning entry fields) plus run totals.
fn session(plan: &ShardPlan, workers: usize, salt: u64) -> (Vec<Winner>, u64) {
    let spawner = ThreadSpawner {
        runner: runner(salt),
    };
    let mut corpus = Corpus::in_memory();
    let outcome = run_farm(plan, workers, &spawner, &mut corpus, None).expect("farm runs");
    assert!(
        outcome.errors.is_empty(),
        "synthetic workers never fail: {:?}",
        outcome.errors
    );
    let entries = corpus
        .iter()
        .map(|(sig, e)| (sig.clone(), e.strategy.clone(), e.seed, e.demo_bytes))
        .collect();
    (entries, outcome.counters.runs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Signature sets and corpus winners are invariant under worker
    /// count, for arbitrary seed ranges, shard sizes, strategy subsets,
    /// directed targets, and finding distributions.
    #[test]
    fn worker_count_never_changes_the_corpus(
        salt in any::<u64>(),
        seed_lo in 0u64..1000,
        span in 1u64..120,
        shard_size in 1u64..40,
        strategy_mask in 1usize..16,
        target_pairs in vec((0u32..3, 0u32..3), 0..3),
    ) {
        let all = ["rnd", "pct", "delay", "queue"];
        let strategies: Vec<String> = all
            .iter()
            .enumerate()
            .filter(|(i, _)| strategy_mask & (1 << i) != 0)
            .map(|(_, s)| (*s).to_owned())
            .collect();
        let targets: Vec<RaceTarget> = target_pairs
            .iter()
            .map(|&(a, b)| RaceTarget {
                label: format!("cell{}", a % 4),
                a,
                b,
            })
            .collect();
        let plan = ShardPlan::build(
            "prop-workload",
            &strategies,
            seed_lo,
            seed_lo + span,
            shard_size,
            &targets,
        );

        let (corpus1, runs1) = session(&plan, 1, salt);
        let (corpus2, runs2) = session(&plan, 2, salt);
        let (corpus4, runs4) = session(&plan, 4, salt);

        prop_assert_eq!(runs1, runs2);
        prop_assert_eq!(runs1, runs4);
        prop_assert_eq!(&corpus1, &corpus2);
        prop_assert_eq!(&corpus1, &corpus4);
        prop_assert_eq!(runs1, plan.total_runs());
    }
}

/// Sanity anchor outside the property: a fixed plan at a worker count
/// far above the task count still terminates and matches serial.
#[test]
fn more_workers_than_tasks_is_fine() {
    let plan = ShardPlan::build("w", &["rnd".to_owned()], 0, 10, 10, &[]);
    assert_eq!(plan.tasks.len(), 1);
    let (serial, _) = session(&plan, 1, 42);
    let (wide, _) = session(&plan, 64, 42);
    assert_eq!(serial, wide);
}

/// End-to-end corpus dedup: two parallel shards spool byte-identical
/// demos under distinct signatures; the on-disk corpus must store every
/// shared stream as one blob, with both store INDEX entries pointing at
/// the same hashes.
#[test]
fn parallel_shards_with_identical_demos_share_store_blobs() {
    use srr_replay::{Demo, DemoHeader, QueueStream};

    let root = std::env::temp_dir().join(format!("srr-farm-dedup-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let spool = root.join("spool");

    // Each shard records the same deterministic demo (as real shards do
    // when the workload's schedule does not depend on the seed range)
    // but reports a shard-specific signature.
    let spool_for_runner = spool.clone();
    let runner: Arc<ShardRunner> = Arc::new(move |task| {
        let mut demo = Demo::new(DemoHeader::new("tsan11rec", "queue", [3, 5]));
        demo.queue = QueueStream::new(vec![1, 2], &[3, 4, 0, 0]);
        let dir = spool_for_runner.join(format!("t{}_s{}", task.id, task.seed_lo));
        demo.save_dir(&dir).expect("spool demo");
        let mut out = ShardOutput {
            runs: task.seed_hi - task.seed_lo,
            ..Default::default()
        };
        out.findings.push(Finding {
            task_id: task.id,
            signature: Signature::race(&RaceSignature {
                label: format!("cell{}", task.seed_lo),
                tids: (0, 1),
                kinds: (AccessKind::Read, AccessKind::Write),
            }),
            strategy: task.strategy.clone(),
            seed: task.seed_lo,
            demo_bytes: Some(demo.size_bytes() as u64),
            demo_path: Some(dir.to_string_lossy().into_owned()),
        });
        Ok(out)
    });

    let plan = ShardPlan::build("w", &["queue".to_owned()], 0, 2, 1, &[]);
    assert_eq!(plan.tasks.len(), 2, "two shards");
    let mut corpus = Corpus::open(&root.join("corpus")).expect("open corpus");
    let spawner = ThreadSpawner { runner };
    let outcome = run_farm(&plan, 2, &spawner, &mut corpus, None).expect("farm runs");
    assert!(outcome.errors.is_empty(), "{:?}", outcome.errors);
    assert_eq!(corpus.len(), 2, "two distinct signatures");

    let store = corpus.store().expect("on-disk corpus has a store");
    assert_eq!(store.len(), 2, "both demos stored");
    let ids: Vec<String> = store.ids().map(str::to_owned).collect();
    let ha = store.streams(&ids[0]).unwrap();
    let hb = store.streams(&ids[1]).unwrap();
    assert_eq!(ha, hb, "byte-identical streams must share hashes");
    assert_eq!(
        store.blob_count().unwrap(),
        ha.len(),
        "one stored blob per distinct stream, not per demo"
    );
    let _ = std::fs::remove_dir_all(&root);
}
