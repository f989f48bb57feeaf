//! `Demo::validate` runs on every load, so its clean path must not touch
//! the heap: messages are formatted only for violations, and scratch
//! tables live on the stack. A counting global allocator checks that on
//! committed recordings and on a demo exercising every stream.
//!
//! This file holds one test so no other test thread allocates while the
//! counter is read.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use srr_replay::{AsyncEvent, Demo, DemoHeader, QueueStream, SignalEvent, SyscallRecord};

/// Forwards to the system allocator, counting allocations.
struct Counting;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a relaxed atomic add.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations made while validating `demo`, and the violations.
fn allocations_during_validate(demo: &Demo) -> (usize, usize) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let violations = demo.validate();
    let during = ALLOCS.load(Ordering::Relaxed) - before;
    (during, violations.len())
}

fn every_stream_demo() -> Demo {
    let order: Vec<(u32, u64)> = (1..=500u64).map(|t| ((t % 3) as u32, t)).collect();
    let mut demo = Demo::from_schedule(DemoHeader::new("tsan11rec", "queue", [1, 2]), &order, 3);
    demo.signals = (0..40)
        .map(|i| SignalEvent {
            tid: i % 3,
            tick: u64::from(i) * 7,
            signo: 10,
        })
        .collect();
    demo.syscalls = (0..40)
        .map(|i| SyscallRecord {
            seq: i,
            tid: (i % 3) as u32,
            tick: i * 11,
            kind: "recv".into(),
            ret: 4,
            errno: 0,
            bufs: vec![vec![1, 2, 3, 4]],
        })
        .collect();
    demo.async_events = (0..40)
        .map(|tick| AsyncEvent::Reschedule { tick })
        .collect();
    demo
}

#[test]
fn clean_validation_does_not_allocate() {
    let fixtures = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../apps/tests/fixtures");
    let mut demos = vec![every_stream_demo()];
    for dir in [
        "codec/httpd",
        "profile/httpd_demo",
        "sched/queue",
        "sched/random",
    ] {
        demos.push(Demo::load_dir(&fixtures.join(dir)).expect("fixture loads"));
    }
    for demo in &demos {
        assert!(!demo.queue.is_empty() || demo.header.strategy == "random");
        assert_eq!(
            allocations_during_validate(demo),
            (0, 0),
            "{}",
            demo.stats()
        );
    }

    // The counter does see allocations: a violation formats its message.
    let mut broken = Demo::new(DemoHeader::new("tsan11rec", "queue", [1, 2]));
    broken.queue = QueueStream {
        first_tick: vec![1, 1],
        next_ticks: vec![0, 0],
    };
    let (allocs, violations) = allocations_during_validate(&broken);
    assert_eq!(violations, 2);
    assert!(allocs > 0);
}
