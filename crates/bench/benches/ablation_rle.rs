//! **Ablation A1**: run-length encoding on vs off for the QUEUE and
//! SYSCALL streams — demo size impact.
//!
//! The paper's Table 2 discussion estimates ~4.8KB per request and
//! suggests "more aggressive compression" as a trade-off; this ablation
//! quantifies what the *existing* RLE buys by re-serializing recorded
//! demos with the codecs disabled (literal token per value / hex per
//! byte).

use srr_apps::httpd::{server, world, HttpdParams};
use srr_apps::litmus::table1_suite;
use srr_bench::{banner, bench_scale, run_tool, seeds_for, TablePrinter, Tool};
use srr_replay::rle;
use tsan11rec::Demo;

/// Size of the demo with RLE replaced by naive encodings.
fn naive_size(demo: &Demo) -> usize {
    let mut total = demo.to_string_map().len(); // file-count overhead parity
                                                // HEADER unchanged.
    total += demo.to_string_map()["HEADER"].len();
    // QUEUE: one decimal literal per tick value.
    let naive_u64s =
        |vals: &[u64]| -> usize { vals.iter().map(|v| v.to_string().len() + 1).sum::<usize>() };
    total += naive_u64s(&demo.queue.first_tick)
        + naive_u64s(&demo.queue.next_ticks().collect::<Vec<_>>())
        + 12;
    // SIGNAL/ASYNC unchanged (already minimal).
    total += demo.to_string_map()["SIGNAL"].len() + demo.to_string_map()["ASYNC"].len();
    // SYSCALL: plain hex for every buffer byte.
    for s in &demo.syscalls {
        total += 48 + s.kind.len(); // header line estimate
        for b in &s.bufs {
            total += 8 + b.len() * 2;
        }
    }
    // ALLOC: literals.
    total += naive_u64s(&demo.alloc);
    total
}

fn main() {
    let scale = bench_scale();
    banner("Ablation A1: RLE on vs off — demo bytes");
    let table = TablePrinter::new(
        &["workload", "rle bytes", "naive bytes", "saving"],
        &[22, 12, 12, 8],
    );

    // Queue-heavy demo: a litmus loop (interleaving dominates).
    {
        let litmus = table1_suite().into_iter().next_back().expect("suite");
        let r = run_tool(Tool::QueueRec, seeds_for(3), |_| {}, litmus.run);
        let demo = r.demo.expect("recorded");
        let (a, b) = (demo.size_bytes(), naive_size(&demo));
        table.row(&[
            &format!("litmus/{}", litmus.name),
            &a.to_string(),
            &b.to_string(),
            &format!("{:.0}%", 100.0 * (1.0 - a as f64 / b as f64)),
        ]);
    }

    // Syscall-heavy demo: httpd (payload buffers dominate).
    {
        let params = HttpdParams {
            workers: 4,
            clients: 8,
            total_queries: (80 * scale) as u32,
            response_bytes: 256,
            service_latency_us: 0,
        };
        let r = run_tool(Tool::QueueRec, seeds_for(3), world(params), server(params));
        let demo = r.demo.expect("recorded");
        let (a, b) = (demo.size_bytes(), naive_size(&demo));
        table.row(&[
            "httpd",
            &a.to_string(),
            &b.to_string(),
            &format!("{:.0}%", 100.0 * (1.0 - a as f64 / b as f64)),
        ]);
    }

    // A synthetic run-heavy byte buffer, to bound the best case.
    {
        let data = vec![0u8; 64 * 1024];
        let a = rle::encode_bytes(&data).len();
        let b = data.len() * 2;
        table.row(&[
            "64KiB zero buffer",
            &a.to_string(),
            &b.to_string(),
            &format!("{:.0}%", 100.0 * (1.0 - a as f64 / b as f64)),
        ]);
    }
}
