//! Record/replay round-trips (§4): the Figure 2 client, signals,
//! desynchronisation, and the sparse-vs-comprehensive trade-offs.

use std::sync::Arc;

use tsan11rec::vos::{EchoPeer, Fd, PollFd, RequestSourcePeer, SignalTrigger, Vos, VosConfig};
use tsan11rec::{
    soft_desync, Atomic, Config, Demo, Execution, MemOrder, Mode, Mutex, Outcome, SparseConfig,
    Strategy,
};

const SIGTERM: i32 = 15;

fn rec_config(strategy: Strategy) -> Config {
    Config::new(Mode::Tsan11Rec(strategy))
        .with_seeds([21, 42])
        .without_liveness()
}

/// The Figure 2 client: a Listener thread polls and receives requests, a
/// Responder thread processes and sends them back; a signal handler sets
/// `quit`.
fn figure2_client() {
    let quit = Arc::new(Atomic::new(false));
    let requests = Arc::new(Mutex::new(Vec::<Vec<u8>>::new()));

    let q = Arc::clone(&quit);
    tsan11rec::signals::set_handler(SIGTERM, move || {
        q.store(true, MemOrder::SeqCst);
    });

    let server_fd = tsan11rec::sys::connect(Box::new(RequestSourcePeer::new(6, 32, 1_000)));

    let listener = {
        let quit = Arc::clone(&quit);
        let requests = Arc::clone(&requests);
        tsan11rec::thread::spawn(move || {
            while !quit.load(MemOrder::SeqCst) {
                let mut fds = [PollFd::readable(server_fd)];
                let res = tsan11rec::sys::poll(&mut fds);
                match res {
                    Ok(0) => continue,
                    Ok(_) if fds[0].revents.readable => {
                        let mut buf = vec![0u8; 32];
                        if let Ok(n) = tsan11rec::sys::recv(server_fd, &mut buf) {
                            buf.truncate(n as usize);
                            requests.lock().push(buf);
                        }
                    }
                    _ => {}
                }
            }
        })
    };

    let responder = {
        let quit = Arc::clone(&quit);
        let requests = Arc::clone(&requests);
        tsan11rec::thread::spawn(move || {
            let mut processed = 0u32;
            while !quit.load(MemOrder::SeqCst) {
                let buf = requests.lock().pop();
                if let Some(mut buf) = buf {
                    // "Process" the request.
                    for b in &mut buf {
                        *b = b.wrapping_add(1);
                    }
                    let _ = tsan11rec::sys::send(server_fd, &buf);
                    processed += 1;
                    tsan11rec::sys::println(&format!("processed {processed}"));
                }
            }
        })
    };

    listener.join();
    responder.join();
    tsan11rec::sys::println("client done");
}

fn figure2_world(vos: &Vos) {
    // End the session via an asynchronous signal after some syscalls.
    vos.schedule_signal(SIGTERM, SignalTrigger::AfterSyscalls(200));
}

#[test]
fn figure2_records_and_replays_without_live_server() {
    for strategy in [Strategy::Random, Strategy::Queue] {
        let (rec_report, demo) = Execution::new(rec_config(strategy))
            .setup(figure2_world)
            .record(figure2_client);
        assert!(
            rec_report.outcome.is_ok(),
            "{strategy:?}: {:?}",
            rec_report.outcome
        );
        assert!(
            rec_report.console_text().contains("client done"),
            "{strategy:?}: signal must terminate the loops"
        );
        assert!(
            !demo.syscalls.is_empty(),
            "{strategy:?}: poll/recv/send recorded"
        );
        assert!(!demo.signals.is_empty(), "{strategy:?}: SIGTERM recorded");

        // Replay into an EMPTY world: no request source, no signal
        // schedule. The demo alone must drive the client to the same
        // observable behaviour — the whole point of Figure 2.
        let rep_report = Execution::new(rec_config(strategy)).replay(&demo, figure2_client);
        assert!(
            rep_report.outcome.is_ok(),
            "{strategy:?}: replay failed: {:?}",
            rep_report.outcome
        );
        assert!(
            !soft_desync(&rec_report, &rep_report),
            "{strategy:?}: console output must match\nrecorded:\n{}\nreplayed:\n{}",
            rec_report.console_text(),
            rep_report.console_text()
        );
    }
}

#[test]
fn demo_roundtrips_through_disk_format() {
    let (_, demo) = Execution::new(rec_config(Strategy::Queue))
        .setup(figure2_world)
        .record(figure2_client);
    let map = demo.to_string_map();
    let demo2 = Demo::from_string_map(&map).expect("well-formed demo");
    assert_eq!(demo, demo2);

    let rep = Execution::new(rec_config(Strategy::Queue)).replay(&demo2, figure2_client);
    assert!(rep.outcome.is_ok(), "{:?}", rep.outcome);
}

#[test]
fn random_strategy_stores_no_queue_stream() {
    let (_, demo) = Execution::new(rec_config(Strategy::Random))
        .setup(figure2_world)
        .record(figure2_client);
    assert!(
        demo.queue.next_tick_count() == 0,
        "random interleaving is captured by the seeds alone (§4.2)"
    );

    let (_, demo_q) = Execution::new(rec_config(Strategy::Queue))
        .setup(figure2_world)
        .record(figure2_client);
    assert!(
        demo_q.queue.next_tick_count() > 0,
        "queue interleaving must be stored"
    );
}

#[test]
fn replay_on_program_divergence_hard_desyncs() {
    // Record a program that makes one poll; replay a program that makes a
    // send first: the syscall-kind constraint must fail.
    let (_, demo) = Execution::new(rec_config(Strategy::Queue)).record(|| {
        let fd = tsan11rec::sys::connect(Box::new(EchoPeer::new(0)));
        let mut buf = [0u8; 4];
        let _ = tsan11rec::sys::recv(fd, &mut buf);
    });
    let rep = Execution::new(rec_config(Strategy::Queue)).replay(&demo, || {
        let fd = tsan11rec::sys::connect(Box::new(EchoPeer::new(0)));
        let _ = tsan11rec::sys::send(fd, b"x");
    });
    match rep.outcome {
        Outcome::HardDesync(d) => {
            assert_eq!(d.constraint, "syscall-kind");
            assert_eq!(d.expected, "recv");
            assert_eq!(d.actual, "send");
        }
        other => panic!("expected hard desync, got {other:?}"),
    }
}

#[test]
fn replay_underrun_hard_desyncs() {
    let (_, demo) = Execution::new(rec_config(Strategy::Queue)).record(|| {
        let fd = tsan11rec::sys::connect(Box::new(EchoPeer::new(0)));
        let _ = tsan11rec::sys::send(fd, b"x");
    });
    let rep = Execution::new(rec_config(Strategy::Queue)).replay(&demo, || {
        let fd = tsan11rec::sys::connect(Box::new(EchoPeer::new(0)));
        let _ = tsan11rec::sys::send(fd, b"x");
        let _ = tsan11rec::sys::send(fd, b"y"); // one more than recorded
    });
    match rep.outcome {
        Outcome::HardDesync(d) => assert_eq!(d.constraint, "syscall-underrun"),
        other => panic!("expected hard desync, got {other:?}"),
    }
}

#[test]
fn empty_sparse_config_records_empty_demo_but_soft_desyncs() {
    // The paper's extreme case: the empty demo is trivially synchronised
    // but soft-desynchronises almost everywhere.
    let config = || {
        Config::new(Mode::Tsan11Rec(Strategy::Queue))
            .with_seeds([3, 4])
            .without_liveness()
            .with_sparse(SparseConfig::none())
    };
    let program = || {
        // Behaviour depends on an unrecorded environment value: the
        // request payload is drawn from the world's entropy.
        let fd = tsan11rec::sys::connect(Box::new(RequestSourcePeer::new(1, 16, 0)));
        let mut buf = [0u8; 16];
        loop {
            match tsan11rec::sys::recv(fd, &mut buf) {
                Ok(n) if n > 0 => break,
                _ => continue,
            }
        }
        tsan11rec::sys::println(&format!("payload={buf:02x?}"));
    };
    let (rec_report, demo) = Execution::new(config()).record(program);
    assert!(
        demo.syscalls.is_empty(),
        "nothing recorded under the empty config"
    );
    // Different world seed => payload bytes differ => observable
    // divergence without any constraint violation.
    let rep_report = Execution::new(config())
        .with_vos(VosConfig::deterministic(999))
        .replay(&demo, program);
    assert!(
        rep_report.outcome.is_ok(),
        "no constraint can fail: {:?}",
        rep_report.outcome
    );
    assert!(
        soft_desync(&rec_report, &rep_report),
        "payload divergence must show as soft desync"
    );
}

#[test]
fn recorded_clock_makes_replay_time_deterministic() {
    let program = || {
        let t = tsan11rec::sys::clock_gettime().unwrap_or(0);
        tsan11rec::sys::println(&format!("t={t}"));
    };
    let (rec_report, demo) = Execution::new(rec_config(Strategy::Queue)).record(program);
    // Same program, wildly different world clock: recorded clock wins.
    let rep_report = Execution::new(rec_config(Strategy::Queue))
        .with_vos(VosConfig::deterministic(31337))
        .replay(&demo, program);
    assert!(!soft_desync(&rec_report, &rep_report));
}

#[test]
fn queue_replay_enforces_thread_interleaving() {
    // Two threads print interleaved lines; under the queue strategy the
    // interleaving is physical-timing-dependent, so only the QUEUE stream
    // makes the replay's console identical.
    let program = || {
        let a = tsan11rec::thread::spawn(|| {
            for i in 0..10 {
                tsan11rec::sys::println(&format!("a{i}"));
            }
        });
        let b = tsan11rec::thread::spawn(|| {
            for i in 0..10 {
                tsan11rec::sys::println(&format!("b{i}"));
            }
        });
        a.join();
        b.join();
    };
    // Liveness ON during record: physical timing genuinely matters here.
    let config = || Config::new(Mode::Tsan11Rec(Strategy::Queue)).with_seeds([7, 8]);
    let (rec_report, demo) = Execution::new(config()).record(program);
    for _ in 0..3 {
        let rep = Execution::new(config()).replay(&demo, program);
        assert!(rep.outcome.is_ok(), "{:?}", rep.outcome);
        assert_eq!(
            rep.console, rec_report.console,
            "QUEUE stream must pin the interleaving"
        );
    }
}

#[test]
fn signal_replay_is_tick_accurate() {
    let program = || {
        let hits = Arc::new(Atomic::new(0u32));
        let h = Arc::clone(&hits);
        tsan11rec::signals::set_handler(SIGTERM, move || {
            h.fetch_add(1, MemOrder::SeqCst);
        });
        let a = Atomic::new(0u64);
        for i in 0..50 {
            a.store(i, MemOrder::SeqCst);
        }
        tsan11rec::sys::println(&format!("hits={}", hits.load(MemOrder::SeqCst)));
    };
    let setup = |vos: &Vos| {
        vos.schedule_signal(SIGTERM, SignalTrigger::AfterSyscalls(0));
    };
    let (rec_report, demo) = Execution::new(rec_config(Strategy::Random))
        .setup(setup)
        .record(program);
    assert!(
        rec_report.console_text().contains("hits=1"),
        "{}",
        rec_report.console_text()
    );
    assert_eq!(demo.signals.len(), 1);

    // Replay with NO signal source: the SIGNAL stream raises it.
    let rep = Execution::new(rec_config(Strategy::Random)).replay(&demo, program);
    assert!(rep.outcome.is_ok(), "{:?}", rep.outcome);
    assert_eq!(rep.console, rec_report.console);
}

#[test]
fn replay_reports_leftover_syscalls() {
    let (_, demo) = Execution::new(rec_config(Strategy::Queue)).record(|| {
        let _ = tsan11rec::sys::clock_gettime();
        let _ = tsan11rec::sys::clock_gettime();
    });
    assert_eq!(demo.syscalls.len(), 2);
    let rep = Execution::new(rec_config(Strategy::Queue)).replay(&demo, || {
        let _ = tsan11rec::sys::clock_gettime();
    });
    assert_eq!(rep.replay_leftover_syscalls, 1);
}

#[test]
fn sparse_ioctl_ignore_lets_device_run_live_on_replay() {
    let config = || {
        Config::new(Mode::Tsan11Rec(Strategy::Queue))
            .with_seeds([9, 9])
            .without_liveness()
            .with_sparse(SparseConfig::games())
    };
    let program = || {
        let gpu = Fd(tsan11rec::sys::open("/dev/gpu", false).expect("gpu present") as i32);
        let mut arg = [0u8; 8];
        for _ in 0..3 {
            tsan11rec::sys::ioctl(gpu, tsan11rec::vos::GPU_SUBMIT_FRAME, &mut arg).expect("submit");
        }
    };
    let setup = |vos: &Vos| vos.install_gpu();
    let (_, demo) = Execution::new(config()).setup(setup).record(program);
    assert!(
        demo.syscalls.iter().all(|s| s.kind != "ioctl"),
        "ioctl must not be recorded under the games config"
    );
    // Replay needs the device present (it runs natively, §5.4).
    let rep = Execution::new(config()).setup(setup).replay(&demo, program);
    assert!(rep.outcome.is_ok(), "{:?}", rep.outcome);
}

#[test]
fn queue_demo_sizes_scale_with_work() {
    let work = |n: u64| {
        move || {
            let a = Atomic::new(0u64);
            for i in 0..n {
                a.store(i, MemOrder::SeqCst);
            }
        }
    };
    let (_, small) = Execution::new(rec_config(Strategy::Queue)).record(work(10));
    let (_, large) = Execution::new(rec_config(Strategy::Queue)).record(work(1000));
    assert!(large.size_bytes() > small.size_bytes());
    // RLE should keep the 100x work from costing 100x the bytes: the
    // next-tick list is one long run.
    assert!(
        large.size_bytes() < small.size_bytes() * 20,
        "RLE: {} vs {}",
        large.size_bytes(),
        small.size_bytes()
    );
}

#[test]
fn stream_counters_sum_to_the_demo_on_disk() {
    let (rec, demo) = Execution::new(rec_config(Strategy::Queue))
        .setup(figure2_world)
        .record(figure2_client);
    let demo_bytes = rec.demo_bytes.expect("a record run reports its demo size");
    let counted: u64 = rec.obs.streams.iter().map(|s| s.bytes).sum();
    assert_eq!(counted, demo_bytes as u64);
    assert_eq!(demo_bytes, demo.size_bytes());

    let dir = std::env::temp_dir().join(format!("srr-stream-counters-{}", std::process::id()));
    demo.save_dir(&dir).unwrap();
    for s in &rec.obs.streams {
        // An empty stream writes no file and counts 0 bytes.
        let on_disk = std::fs::metadata(dir.join(&s.stream)).map_or(0, |m| m.len());
        assert_eq!(s.bytes, on_disk, "{} counter vs file", s.stream);
    }
    std::fs::remove_dir_all(&dir).unwrap();

    // Replay counts the demo it consumed: the same streams, byte for byte.
    let rep = Execution::new(rec_config(Strategy::Queue)).replay(&demo, figure2_client);
    assert!(rep.outcome.is_ok(), "{:?}", rep.outcome);
    assert_eq!(rep.obs.streams, rec.obs.streams);
    assert_eq!(rep.demo_bytes, None);
}
