//! The QUEUE stream is kept as RLE runs from the recorder to the
//! replaying scheduler, so a thread that runs many ticks in a row costs
//! memory per run, not per tick. A counting global allocator checks that
//! recording and replaying a one-thread loop allocates no more bytes for
//! ten times the ticks. (Counting allocations would not do: a per-tick
//! `Vec` grows by doubling, so its allocation count is logarithmic.)
//!
//! This file holds one test so no other test thread allocates while the
//! counter is read.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use tsan11rec::{Config, Execution, Mode, Mutex, Strategy};

/// Forwards to the system allocator, counting bytes allocated.
struct Counting;

static BYTES: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a relaxed atomic add.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn config() -> Config {
    Config::new(Mode::Tsan11Rec(Strategy::Queue))
        .with_seeds([3, 4])
        .without_liveness()
}

/// One thread taking and dropping a lock `ticks` times.
fn looping(ticks: usize) -> impl FnOnce() + Send + 'static {
    move || {
        let m = Mutex::new(0u64);
        for _ in 0..ticks {
            *m.lock() += 1;
        }
    }
}

/// Bytes allocated by recording, and by replaying, `looping(ticks)`.
fn allocated(ticks: usize) -> (usize, usize) {
    let before = BYTES.load(Ordering::Relaxed);
    let (report, demo) = Execution::new(config()).record(looping(ticks));
    let recorded = BYTES.load(Ordering::Relaxed) - before;
    assert!(report.outcome.is_ok(), "{:?}", report.outcome);
    assert!(demo.queue.next_tick_count() > ticks);
    let before = BYTES.load(Ordering::Relaxed);
    let replay = Execution::new(config()).replay(&demo, looping(ticks));
    let replayed = BYTES.load(Ordering::Relaxed) - before;
    assert!(replay.outcome.is_ok(), "{:?}", replay.outcome);
    (recorded, replayed)
}

#[test]
fn long_single_thread_runs_allocate_per_run_not_per_tick() {
    let small = allocated(2_000);
    let large = allocated(20_000);
    // 18,000 more ticks: a byte per tick would show as 18 kB.
    const SLACK: usize = 4096;
    assert!(
        large.0 <= small.0 + SLACK,
        "recording: {} B for 2k ticks, {} B for 20k",
        small.0,
        large.0
    );
    assert!(
        large.1 <= small.1 + SLACK,
        "replay: {} B for 2k ticks, {} B for 20k",
        small.1,
        large.1
    );
}
