//! `httpd-sim`: a multi-threaded HTTP-ish server plus an `ab`-like load
//! generator, the §5.2 workload (Table 2).
//!
//! Structure mirrors Apache httpd in single-process-multiple-thread mode:
//! a listener thread accepts connections (using `poll` — the paper's
//! workaround for `epoll_wait`, which the sparse recorder cannot handle)
//! and hands them to a worker pool through a mutex/condvar queue; each
//! worker serves the connection's requests to completion. Two statistics
//! counters are *deliberately* plain (unsynchronized), reproducing the
//! kind of benign-looking races tsan11 floods httpd reports with.
//!
//! The `ab` side lives in the virtual world: [`world`] installs a
//! listener whose connections are driven by client peers, each issuing
//! its share of the query load and validating responses.

use std::sync::Arc;

use tsan11rec::vos::{Fd, Peer, PeerCtx, PollFd, Vos};
use tsan11rec::{Atomic, Condvar, MemOrder, Mutex, Shared};

/// Workload parameters (defaults are scaled-down from the paper's
/// 10 000 queries × 10 clients to keep test runs quick; the Table 2
/// bench scales them up).
#[derive(Debug, Clone, Copy)]
pub struct HttpdParams {
    /// Worker threads.
    pub workers: usize,
    /// Concurrent client connections (ab's `-c`).
    pub clients: u32,
    /// Total queries across all clients (ab's `-n`).
    pub total_queries: u32,
    /// Response body size in bytes.
    pub response_bytes: usize,
    /// Microseconds of blocking backend work per request (disk /
    /// database). Real servers overlap this latency across workers; a
    /// tool that preserves parallelism keeps the overlap, a sequentializer
    /// pays it serially — the Table 2 mechanism, and one that is
    /// observable even on a single-core host.
    pub service_latency_us: u64,
}

impl Default for HttpdParams {
    fn default() -> Self {
        HttpdParams {
            workers: 4,
            clients: 10,
            total_queries: 100,
            response_bytes: 128,
            service_latency_us: 0,
        }
    }
}

const PORT: u16 = 80;

/// One `ab` client connection: sends `GET` lines, reads responses,
/// repeats until its quota is done, then closes.
struct AbClient {
    remaining: u32,
    awaiting_response: bool,
    served: u32,
}

impl AbClient {
    fn new(quota: u32) -> Self {
        AbClient {
            remaining: quota,
            awaiting_response: false,
            served: 0,
        }
    }

    fn maybe_send_next(&mut self, ctx: &mut PeerCtx<'_>) {
        if !self.awaiting_response && self.remaining > 0 {
            let seq = self.served;
            ctx.send(format!("GET /item/{seq} HTTP/1.1\n").into_bytes());
            self.awaiting_response = true;
        }
    }
}

impl Peer for AbClient {
    fn on_connect(&mut self, ctx: &mut PeerCtx<'_>) {
        self.maybe_send_next(ctx);
    }

    fn on_data(&mut self, ctx: &mut PeerCtx<'_>, data: &[u8]) {
        if data.starts_with(b"HTTP/1.1 200") {
            self.served += 1;
            self.remaining -= 1;
            self.awaiting_response = false;
            if self.remaining == 0 {
                ctx.close();
                return;
            }
            self.maybe_send_next(ctx);
        }
    }

    fn on_poll(&mut self, ctx: &mut PeerCtx<'_>) {
        self.maybe_send_next(ctx);
    }
}

/// Installs the `ab` swarm: `clients` connections, arriving immediately,
/// splitting `total_queries` evenly (the first connection absorbs the
/// remainder).
pub fn world(params: HttpdParams) -> impl FnOnce(&Vos) + Send + 'static {
    move |vos: &Vos| {
        let per = params.total_queries / params.clients;
        let extra = params.total_queries % params.clients;
        let arrivals = vec![0u64; params.clients as usize];
        vos.install_listener(PORT, arrivals, move |_rng, idx| {
            let quota = per + if idx == 0 { extra } else { 0 };
            Box::new(AbClient::new(quota.max(1)))
        });
    }
}

/// The server program.
pub fn server(params: HttpdParams) -> impl FnOnce() + Send + 'static {
    move || {
        let listen_fd = Fd(tsan11rec::sys::bind(PORT).expect("bind") as i32);
        let conn_queue = Arc::new(Mutex::new(Vec::<Fd>::new()));
        let queue_cv = Arc::new(Condvar::new());
        let served = Arc::new(Atomic::new(0u32));
        let shutting_down = Arc::new(Atomic::new(false));
        // Deliberately racy statistics, httpd-style.
        let stat_requests = Arc::new(Shared::new("stat_requests", 0u64));
        let stat_bytes = Arc::new(Shared::new("stat_bytes", 0u64));

        let workers: Vec<_> = (0..params.workers)
            .map(|_| {
                let conn_queue = Arc::clone(&conn_queue);
                let queue_cv = Arc::clone(&queue_cv);
                let served = Arc::clone(&served);
                let shutting_down = Arc::clone(&shutting_down);
                let stat_requests = Arc::clone(&stat_requests);
                let stat_bytes = Arc::clone(&stat_bytes);
                tsan11rec::thread::spawn(move || {
                    loop {
                        // Take a connection (condvar-guarded queue).
                        let conn = {
                            let mut q = conn_queue.lock();
                            loop {
                                if let Some(fd) = q.pop() {
                                    break Some(fd);
                                }
                                if shutting_down.load(MemOrder::SeqCst) {
                                    break None;
                                }
                                let (q2, _signaled) = queue_cv.wait_timeout(q, 1);
                                q = q2;
                            }
                        };
                        let Some(conn) = conn else { break };
                        // Serve this connection to completion.
                        let mut buf = vec![0u8; 256];
                        loop {
                            let mut fds = [PollFd::readable(conn)];
                            match tsan11rec::sys::poll(&mut fds) {
                                Ok(n) if n > 0 && fds[0].revents.readable => {
                                    match tsan11rec::sys::recv(conn, &mut buf) {
                                        Ok(0) => break, // client closed
                                        Ok(n) if n > 0 => {
                                            if params.service_latency_us > 0 {
                                                // Blocking backend work
                                                // (invisible operation).
                                                // vet: allow(raw-clock) invisible op
                                                std::thread::sleep(
                                                    std::time::Duration::from_micros(
                                                        params.service_latency_us,
                                                    ),
                                                );
                                            }
                                            let body = vec![b'x'; params.response_bytes];
                                            let mut resp = b"HTTP/1.1 200 OK\ncontent: ".to_vec();
                                            resp.extend_from_slice(&body);
                                            resp.push(b'\n');
                                            let _ = tsan11rec::sys::send(conn, &resp);
                                            // Racy statistics updates.
                                            stat_requests.update(|v| v + 1);
                                            stat_bytes.update(|v| v + resp.len() as u64);
                                            served.fetch_add(1, MemOrder::SeqCst);
                                        }
                                        _ => {}
                                    }
                                }
                                Ok(_) if fds[0].revents.hup => break,
                                _ => {
                                    if shutting_down.load(MemOrder::SeqCst) {
                                        break;
                                    }
                                    // Idle connection: back off briefly
                                    // instead of burning the (possibly
                                    // single) core.
                                    // vet: allow(raw-clock) invisible op: backoff only
                                    std::thread::sleep(std::time::Duration::from_micros(200));
                                }
                            }
                        }
                        let _ = tsan11rec::sys::close(conn);
                    }
                })
            })
            .collect();

        // Listener: accept until every query has been served. Idle loop
        // iterations back off briefly (a real listener blocks in poll).
        let mut accepted = 0u32;
        while served.load(MemOrder::SeqCst) < params.total_queries {
            let mut progressed = false;
            if accepted < params.clients {
                let mut fds = [PollFd::readable(listen_fd)];
                if let Ok(n) = tsan11rec::sys::poll(&mut fds) {
                    if n > 0 && fds[0].revents.readable {
                        if let Ok(fd) = tsan11rec::sys::accept(listen_fd) {
                            conn_queue.lock().push(Fd(fd as i32));
                            queue_cv.notify_one();
                            accepted += 1;
                            progressed = true;
                        }
                    }
                }
            }
            if !progressed {
                // vet: allow(raw-clock) invisible op: backoff only
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
        }
        shutting_down.store(true, MemOrder::SeqCst);
        queue_cv.notify_all();
        for w in workers {
            w.join();
        }
        tsan11rec::sys::println(&format!(
            "served {} requests ({} stat)",
            served.load(MemOrder::SeqCst),
            stat_requests.read()
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{run_tool, Tool};

    fn small() -> HttpdParams {
        HttpdParams {
            workers: 3,
            clients: 4,
            total_queries: 24,
            response_bytes: 32,
            service_latency_us: 0,
        }
    }

    #[test]
    fn serves_all_queries_under_each_tool() {
        for tool in [
            Tool::Native,
            Tool::Tsan11,
            Tool::Queue,
            Tool::QueueRec,
            Tool::Rr,
        ] {
            let params = small();
            let r = run_tool(tool, [9, 12], world(params), server(params));
            assert!(r.report.outcome.is_ok(), "{tool}: {:?}", r.report.outcome);
            assert!(
                r.report.console_text().contains("served 24 requests"),
                "{tool}: {}",
                r.report.console_text()
            );
        }
    }

    #[test]
    fn racy_stats_are_detected_under_instrumentation() {
        // The races live on stat_requests/stat_bytes; with enough workers
        // and queries some schedule exposes them.
        // A little service latency keeps several workers in flight (with
        // zero-latency service one fast worker can serve every connection
        // serially and the cross-thread stat races never happen).
        let params = HttpdParams {
            workers: 4,
            clients: 4,
            total_queries: 40,
            response_bytes: 16,
            service_latency_us: 150,
        };
        let mut racy = false;
        for seed in 0..12u64 {
            let r = run_tool(
                Tool::Queue,
                [seed, seed + 99],
                world(params),
                server(params),
            );
            assert!(r.report.outcome.is_ok(), "{:?}", r.report.outcome);
            if r.report.races > 0 {
                racy = true;
                break;
            }
        }
        assert!(racy, "httpd's stats races must be observable");
    }

    /// Records `params` under the queue tool and replays the demo into an
    /// empty world (no ab swarm!): the recorded and replayed reports.
    fn record_and_replay(params: HttpdParams) -> (tsan11rec::ExecReport, tsan11rec::ExecReport) {
        let rec = run_tool(Tool::QueueRec, [5, 6], world(params), server(params));
        assert!(rec.report.outcome.is_ok(), "{:?}", rec.report.outcome);
        let demo = rec.demo.expect("recorded");
        assert!(demo.syscalls.iter().any(|s| s.kind == "accept"));
        let rep =
            tsan11rec::Execution::new(Tool::QueueRec.config([5, 6])).replay(&demo, server(params));
        assert!(rep.outcome.is_ok(), "{:?}", rep.outcome);
        (rec.report, rep)
    }

    #[test]
    fn queue_recording_replays_with_identical_console() {
        // One worker: the stat counters have a single writer, so nothing
        // invisible can diverge and the console replays byte for byte.
        let (rec, rep) = record_and_replay(HttpdParams {
            workers: 1,
            ..small()
        });
        assert_eq!(rep.console, rec.console);
    }

    #[test]
    fn racy_stat_tail_is_a_reported_soft_desync() {
        // Two workers race on the plain `stat_requests` counter, whose
        // updates are invisible: replay enforces every visible operation
        // but not how the racing updates overlap, so `(24 stat)` may
        // replay as `(23 stat)`. That is the paper's soft desync: the
        // visible outcome is the same, and any difference is reported.
        let (rec, rep) = record_and_replay(HttpdParams {
            workers: 2,
            ..small()
        });
        let served = |r: &tsan11rec::ExecReport| {
            let text = r.console_text();
            text.split(" (").next().map(str::to_owned)
        };
        assert_eq!(served(&rec).as_deref(), Some("served 24 requests"));
        assert_eq!(served(&rep), served(&rec));
        if rep.console != rec.console {
            let d = tsan11rec::soft_desync_report(&rec, &rep).expect("reported");
            assert_eq!(d.stream, "CONSOLE");
        }
    }

    #[test]
    fn demo_size_grows_with_query_count() {
        // Per-request growth (§5.2) shows in the recv/send records; the
        // listener's idle `poll` records are left out, as their number
        // before the clients connect depends on timing.
        let request_records = |total_queries: u32| {
            let params = HttpdParams {
                total_queries,
                ..small()
            };
            let demo = run_tool(Tool::QueueRec, [7, 8], world(params), server(params))
                .demo
                .expect("recorded");
            let served: Vec<_> = demo
                .syscalls
                .iter()
                .filter(|s| matches!(s.kind.as_str(), "recv" | "send") && s.ret > 0)
                .collect();
            let bytes: usize = served.iter().flat_map(|s| &s.bufs).map(Vec::len).sum();
            (served.len(), bytes)
        };
        let (small_records, small_bytes) = request_records(12);
        let (big_records, big_bytes) = request_records(48);
        // One recv of the request and one send of the response each.
        assert_eq!(small_records, 2 * 12);
        assert_eq!(big_records, 2 * 48);
        assert!(
            big_bytes > 3 * small_bytes,
            "per-request demo growth (§5.2): {big_bytes} vs {small_bytes} B"
        );
    }
}
