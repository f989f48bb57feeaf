//! Desync diagnostics: corrupting the committed queue fixture's QUEUE
//! stream must produce a hard desync whose report names the first
//! divergent tick, the failing thread, and the stream offset.
//!
//! The loader rejects such a demo before any run, so these tests replay
//! the corrupted demo from memory: the runtime diagnostics stay the last
//! line of defence for demos that are valid on their own but still
//! diverge. A demo with its SYSCALL stream cut short is such a demo, and
//! its diagnostics must not depend on how much the bounded event rings
//! remember.

mod common;

use std::path::PathBuf;

use common::{bounded_buffer, config, fixture_dir};
use srr_apps::harness::Tool;
use srr_apps::httpd;
use srr_replay::{DemoLoadError, StreamId};
use tsan11rec::{Config, Demo, Execution, Mode, Strategy, TraceSpec};

/// Truncates the fixture's QUEUE stream to `keep` entries, checks that
/// the on-disk round trip now rejects it, and replays it from memory.
fn corrupt_and_replay(keep: usize) -> (tsan11rec::ExecReport, Demo, Vec<(u32, u64)>) {
    let dir = fixture_dir("queue");
    let mut demo = Demo::load_dir(&dir)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e:?}", dir.display()));
    let full_order = demo.queue.schedule_order();
    assert!(
        keep < full_order.len(),
        "fixture too short to truncate at {keep}"
    );
    demo.queue.next_ticks.truncate(keep);

    // A hand-edited demo directory goes through the loader, which now
    // refuses the truncation: ticks past the end are still claimed.
    let tmp = std::env::temp_dir().join(format!("srr-desync-fixture-{}", std::process::id()));
    demo.save_dir(&tmp).expect("save corrupted demo");
    let err = Demo::load_dir(&tmp).expect_err("loader rejects a truncated QUEUE");
    std::fs::remove_dir_all(&tmp).ok();
    match &err {
        DemoLoadError::Invalid(v) => assert!(
            v.iter().all(|v| v.stream == StreamId::Queue),
            "only QUEUE is broken: {err}"
        ),
        other => panic!("expected Invalid, got {other}"),
    }

    let cfg =
        config(Strategy::Queue, [11, 13]).with_trace(TraceSpec::new().with_ring_capacity(4096));
    let rep = Execution::new(cfg).replay(&demo, bounded_buffer);
    (rep, demo, full_order)
}

#[test]
fn truncated_queue_stream_reports_first_divergent_tick() {
    // Keep M entries: replay consumes entry k-1 when critical section k
    // closes, so the first missing entry is consulted at tick M+1.
    const M: usize = 10;
    let (rep, _corrupted, full_order) = corrupt_and_replay(M);

    let hd = rep
        .desync()
        .expect("truncated QUEUE stream must hard-desync");
    assert_eq!(hd.tick, M as u64 + 1, "desync at the first missing entry");
    assert_eq!(hd.constraint, "queue-schedule");
    assert_eq!(hd.stream, "QUEUE", "report names the failing stream");
    assert_eq!(hd.offset, M as u64, "report names the stream offset");
    assert!(
        hd.context
            .iter()
            .any(|l| l.starts_with("failing thread: T")),
        "context names the failing thread: {:?}",
        hd.context
    );
    assert!(
        hd.context
            .iter()
            .any(|l| l.contains("stream QUEUE") && l.contains(&format!("entry {M}"))),
        "context carries the diagnostics summary: {:?}",
        hd.context
    );

    // The structured diagnostics on the obs report agree, and pinpoint
    // the thread that owned the divergent tick.
    let diag = rep.obs.desync.as_ref().expect("obs carries diagnostics");
    assert_eq!(diag.tick, M as u64 + 1);
    assert_eq!(diag.stream, "QUEUE");
    assert_eq!(diag.offset, M as u64);
    let owner = full_order[M].0;
    assert_eq!(full_order[M].1, M as u64 + 1, "order entry M is tick M+1");
    assert_eq!(
        diag.thread,
        Some(owner),
        "last replayed thread is the owner of the divergent tick"
    );
    let div = diag
        .first_divergence
        .expect("truncation shows up in the tick diff");
    assert_eq!(div.index, M, "divergence at the truncation point");
    assert_eq!(
        div.recorded, None,
        "the corrupted recording ends at the truncation"
    );
    assert_eq!(div.replayed, Some(owner));

    // The rendered report names all three coordinates.
    let text = diag.render();
    assert!(text.contains(&format!("tick {}", M + 1)), "{text}");
    assert!(text.contains(&format!("QUEUE @ entry {M}")), "{text}");
    assert!(text.contains(&format!("T{owner}")), "{text}");
}

#[test]
fn diagnostics_skip_divergence_when_tracing_off() {
    // Without tracing there is no replayed schedule to diff, but the
    // failure point (tick, stream, offset) must still be reported.
    const M: usize = 10;
    let dir = fixture_dir("queue");
    let mut demo = Demo::load_dir(&dir).expect("fixture");
    demo.queue.next_ticks.truncate(M);
    let untraced = Config::new(Mode::Tsan11Rec(Strategy::Queue))
        .with_seeds([11, 13])
        .without_liveness();
    let rep = Execution::new(untraced).replay(&demo, bounded_buffer);
    let hd = rep.desync().expect("hard desync");
    assert_eq!((hd.tick, hd.offset), (M as u64 + 1, M as u64));
    let diag = rep.obs.desync.as_ref().expect("diagnostics built");
    assert_eq!(diag.first_divergence, None, "no replayed schedule to diff");
    assert_eq!(diag.thread, None);
}

/// Replays the committed httpd fixture with only the first 80% of its
/// SYSCALL records, at the sync trace level, with `ring` events retained
/// per thread. The cut demo is still valid; replay runs out of recorded
/// syscalls partway through.
fn replay_httpd_with_short_syscalls(ring: usize) -> (tsan11rec::ExecReport, Vec<(u32, u64)>) {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/codec/httpd");
    let mut demo = Demo::load_dir(&dir).expect("httpd fixture");
    let keep = demo.syscalls.len() * 4 / 5;
    demo.syscalls.truncate(keep);
    assert!(
        demo.validate().is_empty(),
        "a short SYSCALL stream is valid"
    );
    let cfg = Tool::QueueRec
        .config(demo.header.seeds)
        .without_liveness()
        .with_trace(TraceSpec::new().with_ring_capacity(ring))
        .with_sync_trace();
    let params = httpd::HttpdParams::default();
    let rep = Execution::new(cfg)
        .setup(move |vos| (httpd::world(params))(vos))
        .replay(&demo, httpd::server(params));
    (rep, demo.queue.schedule_order())
}

#[test]
fn short_syscall_stream_diagnosis_does_not_depend_on_ring_size() {
    let (small, recorded) = replay_httpd_with_short_syscalls(8);
    let (large, _) = replay_httpd_with_short_syscalls(4096);
    for rep in [&small, &large] {
        let hd = rep.desync().expect("short SYSCALL stream must hard-desync");
        assert_eq!(hd.constraint, "syscall-underrun");
        assert_eq!(hd.stream, "SYSCALL");
    }
    let diag = small.obs.desync.as_ref().expect("diagnostics built");
    assert!(
        diag.last_events.iter().any(|t| t.dropped > 0),
        "the small rings wrapped, so they alone could not give the schedule"
    );
    let div = diag
        .first_divergence
        .expect("replay stopped short of the recording");
    let large_diag = large.obs.desync.as_ref().expect("diagnostics built");
    assert_eq!(
        Some(div),
        large_diag.first_divergence,
        "ring size must not change the diagnosis"
    );
    // Replay followed the recording exactly up to the last completed
    // tick, and diverged only by stopping there.
    let schedule = &small.sync_trace.schedule;
    assert_eq!(schedule.as_slice(), &recorded[..schedule.len()]);
    assert_eq!(div.index, schedule.len(), "first missing tick");
    assert_eq!(div.recorded, Some(recorded[div.index].0));
    assert_eq!(div.replayed, None);
    assert_eq!(diag.thread, schedule.last().map(|&(tid, _)| tid));
    assert_eq!(small.sync_trace.schedule, large.sync_trace.schedule);
}
