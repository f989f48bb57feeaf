//! End-to-end execution tests across all tool modes.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tsan11rec::{
    Atomic, Condvar, Config, Execution, MemOrder, Mode, Mutex, Outcome, Shared, Strategy,
};

fn modes() -> Vec<Mode> {
    vec![
        Mode::Native,
        Mode::Tsan11,
        Mode::Tsan11Rec(Strategy::Random),
        Mode::Tsan11Rec(Strategy::Queue),
        Mode::Tsan11Rec(Strategy::Pct { switch_denom: 8 }),
        Mode::Tsan11Rec(Strategy::Slice { quantum: 5 }),
    ]
}

fn config(mode: Mode) -> Config {
    Config::new(mode).with_seeds([11, 47]).without_liveness()
}

#[test]
fn trivial_program_completes_in_every_mode() {
    for mode in modes() {
        let report = Execution::new(config(mode)).run(|| {
            tsan11rec::sys::println("hello");
        });
        assert!(report.outcome.is_ok(), "{mode:?}: {:?}", report.outcome);
        assert_eq!(report.console_text(), "hello\n", "{mode:?}");
    }
}

#[test]
fn mutex_counter_is_exact_in_every_mode() {
    for mode in modes() {
        let report = Execution::new(config(mode)).run(|| {
            let counter = Arc::new(Mutex::new(0u64));
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let c = Arc::clone(&counter);
                    tsan11rec::thread::spawn(move || {
                        for _ in 0..25 {
                            *c.lock() += 1;
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join();
            }
            assert_eq!(*counter.lock(), 100);
        });
        assert!(report.outcome.is_ok(), "{mode:?}: {:?}", report.outcome);
        assert_eq!(
            report.races, 0,
            "{mode:?}: mutex-protected counter is race-free"
        );
    }
}

#[test]
fn atomic_counter_is_exact_in_every_mode() {
    for mode in modes() {
        let report = Execution::new(config(mode)).run(|| {
            let counter = Arc::new(Atomic::new(0u64));
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let c = Arc::clone(&counter);
                    tsan11rec::thread::spawn(move || {
                        for _ in 0..25 {
                            c.fetch_add(1, MemOrder::SeqCst);
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join();
            }
            assert_eq!(counter.load(MemOrder::SeqCst), 100);
        });
        assert!(report.outcome.is_ok(), "{mode:?}: {:?}", report.outcome);
    }
}

#[test]
fn spawn_join_returns_values() {
    for mode in modes() {
        let report = Execution::new(config(mode)).run(|| {
            let h = tsan11rec::thread::spawn(|| 6 * 7);
            assert_eq!(h.join(), 42);
        });
        assert!(report.outcome.is_ok(), "{mode:?}");
    }
}

#[test]
fn message_passing_through_release_acquire_is_race_free() {
    for mode in modes() {
        let report = Execution::new(config(mode)).run(|| {
            let data = Arc::new(Shared::new("payload", 0u64));
            let flag = Arc::new(Atomic::new(false));
            let (d2, f2) = (Arc::clone(&data), Arc::clone(&flag));
            let producer = tsan11rec::thread::spawn(move || {
                d2.write(99);
                f2.store(true, MemOrder::Release);
            });
            // Spin until the flag is visible.
            while !flag.load(MemOrder::Acquire) {}
            assert_eq!(data.read(), 99);
            producer.join();
        });
        assert!(report.outcome.is_ok(), "{mode:?}: {:?}", report.outcome);
        assert_eq!(
            report.races, 0,
            "{mode:?}: properly synchronized MP has no race"
        );
    }
}

#[test]
fn condvar_producer_consumer_works_in_every_mode() {
    for mode in modes() {
        let report = Execution::new(config(mode)).run(|| {
            let q = Arc::new(Mutex::new(Vec::<u32>::new()));
            let cv = Arc::new(Condvar::new());
            let (q2, cv2) = (Arc::clone(&q), Arc::clone(&cv));
            let producer = tsan11rec::thread::spawn(move || {
                for i in 0..5 {
                    q2.lock().push(i);
                    cv2.notify_one();
                }
            });
            let mut got = Vec::new();
            let mut guard = q.lock();
            while got.len() < 5 {
                while let Some(v) = guard.pop() {
                    got.push(v);
                }
                if got.len() < 5 {
                    // Timed wait: under controlled scheduling this stays
                    // enabled, so no lost-wakeup deadlock is possible.
                    let (g, _signaled) = cv.wait_timeout(guard, 1);
                    guard = g;
                }
            }
            drop(guard);
            producer.join();
            got.sort_unstable();
            assert_eq!(got, vec![0, 1, 2, 3, 4]);
        });
        assert!(report.outcome.is_ok(), "{mode:?}: {:?}", report.outcome);
    }
}

#[test]
fn controlled_modes_count_ticks() {
    let report = Execution::new(config(Mode::Tsan11Rec(Strategy::Random))).run(|| {
        let a = Atomic::new(0u32);
        for _ in 0..10 {
            a.fetch_add(1, MemOrder::SeqCst);
        }
    });
    assert!(
        report.ticks >= 10,
        "at least one tick per visible op, got {}",
        report.ticks
    );
    assert_eq!(report.ticks, report.visible_ops);
}

#[test]
fn program_panic_is_reported_not_propagated() {
    let report = Execution::new(config(Mode::Tsan11Rec(Strategy::Random))).run(|| {
        panic!("expected failure: injected bug");
    });
    match report.outcome {
        Outcome::Panicked(msg) => assert!(msg.contains("injected bug")),
        other => panic!("expected Panicked, got {other:?}"),
    }
}

#[test]
fn child_panic_fails_the_run() {
    let report = Execution::new(config(Mode::Tsan11Rec(Strategy::Queue))).run(|| {
        let h = tsan11rec::thread::spawn(|| {
            panic!("expected failure: child bug");
        });
        // The join may observe the failure as an unwinding abort; either
        // way the harness reports Panicked.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || h.join()));
    });
    assert!(
        matches!(report.outcome, Outcome::Panicked(_)),
        "got {:?}",
        report.outcome
    );
}

#[test]
fn identical_seeds_reproduce_the_execution() {
    let run = |seeds: [u64; 2]| {
        let config = Config::new(Mode::Tsan11Rec(Strategy::Random))
            .with_seeds(seeds)
            .without_liveness();
        Execution::new(config).run(|| {
            let a = Arc::new(Atomic::new(0u64));
            let handles: Vec<_> = (0..3)
                .map(|i| {
                    let a = Arc::clone(&a);
                    tsan11rec::thread::spawn(move || {
                        for _ in 0..10 {
                            let v = a.load(MemOrder::Relaxed);
                            a.store(v * 2 + i, MemOrder::Relaxed);
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join();
            }
            tsan11rec::sys::println(&format!("final={}", a.load(MemOrder::SeqCst)));
        })
    };
    let a = run([5, 6]);
    let b = run([5, 6]);
    assert_eq!(a.console, b.console, "same seeds, same behaviour");
    assert_eq!(a.ticks, b.ticks);
}

#[test]
fn liveness_rescheduler_prevents_starvation() {
    // One thread computes invisibly for a long time after being chosen;
    // without the rescheduler the other thread would be stalled the whole
    // time. With it, total wall time stays bounded.
    let config = Config::new(Mode::Tsan11Rec(Strategy::Random)).with_seeds([1, 2]); // liveness defaults to 10ms
    let report = Execution::new(config).run(|| {
        let h = tsan11rec::thread::spawn(|| {
            // Invisible compute with a real pause.
            tsan11rec::sys::sleep_ms(60);
        });
        let a = Atomic::new(0u32);
        for _ in 0..5 {
            a.fetch_add(1, MemOrder::SeqCst);
        }
        h.join();
    });
    assert!(report.outcome.is_ok(), "{:?}", report.outcome);
}

#[test]
fn zero_op_runs_do_not_wait_out_the_liveness_interval() {
    // Stopping the rescheduler must be immediate: N empty runs with a long
    // interval take far less than N intervals (each used to pay one).
    const RUNS: u32 = 10;
    let interval = Duration::from_millis(200);
    let mut config = Config::new(Mode::Tsan11Rec(Strategy::Random)).with_seeds([1, 2]);
    config.liveness = Some(interval);
    let start = Instant::now();
    for _ in 0..RUNS {
        let report = Execution::new(config.clone()).run(|| {});
        assert!(report.outcome.is_ok(), "{:?}", report.outcome);
    }
    let total = start.elapsed();
    assert!(
        total < 2 * interval,
        "{RUNS} zero-op runs took {total:?} with a {interval:?} liveness interval"
    );
}

/// Seeds under which the random strategy keeps the main thread active
/// after its last visible op, so the child's first op is stuck behind it.
const STARVING_SEEDS: [u64; 2] = [1, 2];

/// Main takes the slot, then spins in invisible code (a plain std atomic)
/// until the child's visible op has run, giving up after `patience`.
/// Only a liveness reschedule can hand the slot to the waiting child.
/// Returns whether the child's op ran before main gave up.
fn invisible_spin_sees_child_op(config: Config, patience: Duration) -> bool {
    let progressed = Arc::new(AtomicBool::new(false));
    let out = Arc::clone(&progressed);
    let report = Execution::new(config).run(move || {
        let seen = Arc::new(AtomicBool::new(false));
        let flag = Arc::new(Atomic::new(0u32));
        let (seen2, flag2) = (Arc::clone(&seen), Arc::clone(&flag));
        let child = tsan11rec::thread::spawn(move || {
            flag2.store(1, MemOrder::SeqCst);
            seen2.store(true, Ordering::Release);
        });
        let _ = flag.load(MemOrder::SeqCst);
        let deadline = Instant::now() + patience;
        while !seen.load(Ordering::Acquire) && Instant::now() < deadline {
            std::hint::spin_loop();
        }
        out.store(seen.load(Ordering::Acquire), Ordering::Relaxed);
        child.join();
    });
    assert!(report.outcome.is_ok(), "{:?}", report.outcome);
    progressed.load(Ordering::Relaxed)
}

#[test]
fn liveness_rescheduler_hands_the_slot_to_a_waiting_thread() {
    let config = Config::new(Mode::Tsan11Rec(Strategy::Random)).with_seeds(STARVING_SEEDS);
    assert!(
        invisible_spin_sees_child_op(config.clone(), Duration::from_secs(20)),
        "a liveness reschedule must let the waiting child's op run"
    );
    assert!(
        !invisible_spin_sees_child_op(config.without_liveness(), Duration::from_millis(200)),
        "without liveness the spinning thread keeps the slot"
    );
}

/// The OS threads a run's program threads ran on.
type Seen = Arc<std::sync::Mutex<Vec<std::thread::ThreadId>>>;

/// `program`, noting the OS thread it runs on in `seen`.
fn noting(seen: &Seen, program: impl FnOnce() + Send + 'static) -> impl FnOnce() + Send + 'static {
    let seen = Arc::clone(seen);
    move || {
        seen.lock().unwrap().push(std::thread::current().id());
        program();
    }
}

/// A two-thread program whose report follows from fresh per-run state
/// alone: the child is the run's first, and the two race on one plain
/// location, which only fresh clocks and a fresh detector report the same
/// way every time. The child notes its OS thread in `child_on`.
fn probe(child_on: &Seen) -> impl FnOnce() + Send + 'static {
    let child_on = Arc::clone(child_on);
    move || {
        let data = Arc::new(Shared::new("probe_data", 0u64));
        let d2 = Arc::clone(&data);
        let child = tsan11rec::thread::spawn(noting(&child_on, move || d2.write(1)));
        assert_eq!(child.tid(), tsan11rec::Tid(1), "a fresh run's first child");
        data.write(2);
        child.join();
        tsan11rec::sys::println("probe done");
    }
}

fn probe_config() -> Config {
    config(Mode::Tsan11Rec(Strategy::Random)).with_sync_trace()
}

fn racy_labels(report: &tsan11rec::ExecReport) -> std::collections::BTreeSet<String> {
    report
        .race_reports
        .iter()
        .map(|r| r.label.clone())
        .collect()
}

/// Runs `first` and then the probe until the probe's child lands on a
/// pooled OS thread one of `first`'s spawned threads used, and checks
/// that the probe's report there equals its report in a run of its own:
/// no context, tid, clock or detector state crossed over on the pooled
/// thread.
fn probe_reuses_a_thread_of(what: &str, first: impl Fn(&Seen)) {
    let alone = Execution::new(probe_config()).run(probe(&Seen::default()));
    assert!(alone.outcome.is_ok(), "{:?}", alone.outcome);
    assert_eq!(racy_labels(&alone), ["probe_data".to_owned()].into());
    // Tests in this binary run side by side and may take the pooled
    // thread in between, so try a few times.
    for _ in 0..50 {
        let used: Seen = Arc::default();
        first(&used);
        let child_on: Seen = Arc::default();
        let after = Execution::new(probe_config()).run(probe(&child_on));
        if !used.lock().unwrap().contains(&child_on.lock().unwrap()[0]) {
            continue;
        }
        assert!(after.outcome.is_ok(), "after {what}: {:?}", after.outcome);
        assert_eq!(after.console, alone.console, "after {what}");
        assert_eq!(after.ticks, alone.ticks, "after {what}");
        assert_eq!(after.tick_trace(), alone.tick_trace(), "after {what}");
        assert_eq!(racy_labels(&after), racy_labels(&alone), "after {what}");
        return;
    }
    panic!("no probe run reused an OS thread of {what}");
}

#[test]
fn pooled_threads_carry_no_state_between_executions() {
    probe_reuses_a_thread_of("another program", |used| {
        let child_used = Arc::clone(used);
        let report =
            Execution::new(config(Mode::Tsan11Rec(Strategy::Queue))).run(noting(used, move || {
                let a = Arc::new(Atomic::new(0u64));
                let a2 = Arc::clone(&a);
                let h = tsan11rec::thread::spawn(noting(&child_used, move || {
                    a2.fetch_add(5, MemOrder::SeqCst);
                }));
                a.fetch_add(1, MemOrder::SeqCst);
                h.join();
            }));
        assert!(report.outcome.is_ok(), "{:?}", report.outcome);
    });
}

#[test]
fn pooled_threads_carry_no_state_after_a_panic() {
    probe_reuses_a_thread_of("a program panic", |used| {
        let child_used = Arc::clone(used);
        let report = Execution::new(probe_config()).run(noting(used, move || {
            let child = tsan11rec::thread::spawn(noting(&child_used, || {
                Atomic::new(0u32).store(1, MemOrder::SeqCst);
                panic!("expected failure: injected bug");
            }));
            child.join();
            panic!("expected failure: injected bug");
        }));
        assert!(
            matches!(report.outcome, Outcome::Panicked(_)),
            "{:?}",
            report.outcome
        );
    });
}

#[test]
fn pooled_threads_carry_no_state_after_a_deadlock() {
    probe_reuses_a_thread_of("a deadlock", |used| {
        let child_used = Arc::clone(used);
        let report = Execution::new(probe_config()).run(noting(used, move || {
            let m = Arc::new(Mutex::new(0u32));
            let guard = m.lock();
            let m2 = Arc::clone(&m);
            let child = tsan11rec::thread::spawn(noting(&child_used, move || {
                *m2.lock() += 1;
            }));
            child.join(); // holds the mutex the child waits for
            drop(guard);
        }));
        assert_eq!(report.outcome, Outcome::Deadlock);
    });
}

#[test]
fn pooled_threads_carry_no_state_after_a_hard_desync() {
    let rec_config = || Config::new(Mode::Tsan11Rec(Strategy::Queue)).with_seeds([5, 6]);
    let stores = |n: u32| {
        move || {
            let a = Atomic::new(0u32);
            for i in 0..n {
                a.store(i, MemOrder::SeqCst);
            }
        }
    };
    let (_, demo) = Execution::new(rec_config()).record(move || {
        tsan11rec::thread::spawn(stores(1)).join();
    });
    probe_reuses_a_thread_of("a hard desync", |used| {
        // More visible operations than the QUEUE stream schedules.
        let child_used = Arc::clone(used);
        let report = Execution::new(rec_config()).replay(
            &demo,
            noting(used, move || {
                tsan11rec::thread::spawn(noting(&child_used, stores(5))).join();
            }),
        );
        assert!(
            matches!(report.outcome, Outcome::HardDesync(_)),
            "{:?}",
            report.outcome
        );
    });
}

#[test]
fn leaked_threads_are_reaped_before_the_report() {
    let finished = Arc::new(AtomicBool::new(false));
    let f2 = Arc::clone(&finished);
    let report = Execution::new(config(Mode::Tsan11Rec(Strategy::Random))).run(move || {
        // Spawned and never joined.
        let _ = tsan11rec::thread::spawn(move || {
            let a = Atomic::new(0u32);
            for _ in 0..10 {
                a.fetch_add(1, MemOrder::SeqCst);
            }
            std::thread::sleep(Duration::from_millis(20)); // invisible
            f2.store(true, Ordering::SeqCst);
        });
    });
    assert!(report.outcome.is_ok(), "{:?}", report.outcome);
    assert!(
        finished.load(Ordering::SeqCst),
        "the report waits for the leaked thread to end"
    );
}

#[cfg(target_os = "linux")]
#[test]
fn os_thread_count_stays_flat_over_many_executions() {
    let tasks = || std::fs::read_dir("/proc/self/task").unwrap().count();
    let three_threads = || {
        let report = Execution::new(config(Mode::Tsan11Rec(Strategy::Random))).run(|| {
            let a = Arc::new(Atomic::new(0u64));
            let children: Vec<_> = (0..2)
                .map(|_| {
                    let a = Arc::clone(&a);
                    tsan11rec::thread::spawn(move || a.fetch_add(1, MemOrder::SeqCst))
                })
                .collect();
            for c in children {
                c.join();
            }
        });
        assert!(report.outcome.is_ok(), "{:?}", report.outcome);
    };
    for _ in 0..20 {
        three_threads();
    }
    let warm = tasks();
    let mut peak = warm;
    for _ in 0..200 {
        three_threads();
        peak = peak.max(tasks());
    }
    // Other tests in this binary run alongside with threads of their own;
    // a leak of even one thread per execution would add 200.
    assert!(
        peak < warm + 32,
        "{warm} OS threads after warm-up, {peak} at the peak of 200 executions"
    );
}
