//! Quickstart: record the paper's Figure 2 client, save the demo to
//! disk, load it back, and replay it **without a live server** — the
//! motivating workflow of §2 and §4.1.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use sparse_rr::apps::client::{client, world, ClientParams};
use sparse_rr::apps::harness::Tool;
use sparse_rr::tsan11rec::Execution;
use sparse_rr::Demo;

fn main() {
    let params = ClientParams::default();
    let seeds = [2024, 7];

    println!("== recording: client connected to a live (virtual) server ==");
    let (recorded, demo) = Execution::new(Tool::QueueRec.config(seeds))
        .setup(world(params))
        .record(client(params));
    assert!(recorded.outcome.is_ok(), "{:?}", recorded.outcome);
    println!("{}", recorded.console_text());
    println!(
        "captured: {} syscalls, {} signals, {} scheduling entries, {} bytes total",
        demo.syscalls.len(),
        demo.signals.len(),
        demo.queue.next_tick_count(),
        demo.size_bytes()
    );

    // The demo is a directory of plain text streams, exactly as in §4.
    let dir = std::env::temp_dir().join("sparse-rr-quickstart-demo");
    demo.save_dir(&dir).expect("write demo");
    println!("\ndemo saved to {}", dir.display());
    for name in ["HEADER", "QUEUE", "SIGNAL", "SYSCALL", "ASYNC"] {
        let text = std::fs::read_to_string(dir.join(name)).expect("stream file");
        let first = text.lines().next().unwrap_or("<empty>");
        println!("  {name:8} | {first}");
    }

    println!("\n== replaying: empty world — no server, no signal source ==");
    let loaded = Demo::load_dir(&dir).expect("load demo");
    let replayed = Execution::new(Tool::QueueRec.config(seeds)).replay(&loaded, client(params));
    assert!(replayed.outcome.is_ok(), "{:?}", replayed.outcome);
    println!("{}", replayed.console_text());

    assert_eq!(
        replayed.console, recorded.console,
        "replay reproduces the recorded behaviour bit-for-bit"
    );
    println!("replay is synchronised: console output identical to the recording.");
    let _ = std::fs::remove_dir_all(&dir);
}
