//! Typed events for the demo streams, with their line formats.

use std::str::{FromStr, SplitWhitespace};

use crate::demo::DemoLoadError;
use crate::rle::{self, Tokenizer, U64Token};

/// An asynchronous signal pinned to logical time (§4.3).
///
/// Line format (the paper's own example): `2 5 15` — thread 2 receives
/// signal 15 at tick 5. On replay the thread raises the signal itself at
/// the end of its `Tick()` for that tick.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SignalEvent {
    /// Receiving thread.
    pub tid: u32,
    /// The tick value seen at the thread's most recent `Tick()`.
    pub tick: u64,
    /// Signal number.
    pub signo: i32,
}

impl SignalEvent {
    pub(crate) fn to_line(self) -> String {
        format!("{} {} {}", self.tid, self.tick, self.signo)
    }

    pub(crate) fn from_line(line: &str) -> Result<Self, String> {
        fn field<T: FromStr>(
            it: &mut SplitWhitespace<'_>,
            what: &str,
            line: &str,
        ) -> Result<T, String> {
            it.next()
                .ok_or_else(|| format!("missing {what} in SIGNAL line `{line}`"))?
                .parse()
                .map_err(|_| format!("bad {what} in SIGNAL line `{line}`"))
        }
        let mut it = line.split_whitespace();
        let tid = field(&mut it, "tid", line)?;
        let tick = field(&mut it, "tick", line)?;
        let signo = field(&mut it, "signo", line)?;
        if it.next().is_some() {
            return Err(format!("trailing junk in SIGNAL line `{line}`"));
        }
        Ok(SignalEvent { tid, tick, signo })
    }
}

/// One recorded system call (§4.4): return value, errno and every output
/// buffer the call filled.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SyscallRecord {
    /// Global sequence number among recorded syscalls.
    pub seq: u64,
    /// Issuing thread.
    pub tid: u32,
    /// Tick of the syscall's critical section.
    pub tick: u64,
    /// Syscall kind name (e.g. `recv`, `poll`).
    pub kind: String,
    /// The return value to enforce on replay.
    pub ret: i64,
    /// The errno value to enforce on replay.
    pub errno: i32,
    /// Output buffers, in the syscall's argument order.
    pub bufs: Vec<Vec<u8>>,
}

impl SyscallRecord {
    pub(crate) fn to_lines(&self) -> String {
        let mut out = format!(
            "syscall {} {} {} {} ret={} errno={} nbufs={}\n",
            self.seq,
            self.tid,
            self.tick,
            self.kind,
            self.ret,
            self.errno,
            self.bufs.len()
        );
        for b in &self.bufs {
            out.push_str("buf ");
            out.push_str(&b.len().to_string());
            out.push(' ');
            out.push_str(&rle::encode_bytes(b));
            out.push('\n');
        }
        out
    }
}

/// An asynchronous event (§4.5): not wrapped in `Wait()`/`Tick()`, floated
/// to the preceding tick on replay.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AsyncEvent {
    /// A liveness-forced reschedule (§3.3) at the given tick.
    Reschedule {
        /// The tick whose critical section the reschedule followed.
        tick: u64,
    },
    /// A disabled thread re-enabled by signal arrival (§4.5) at the
    /// given tick.
    SignalWakeup {
        /// The woken thread.
        tid: u32,
        /// The tick at which the wakeup was applied.
        tick: u64,
    },
}

impl AsyncEvent {
    /// The tick this event is floated to.
    #[must_use]
    pub fn tick(self) -> u64 {
        match self {
            AsyncEvent::Reschedule { tick } | AsyncEvent::SignalWakeup { tick, .. } => tick,
        }
    }

    pub(crate) fn to_line(self) -> String {
        match self {
            AsyncEvent::Reschedule { tick } => format!("reschedule {tick}"),
            AsyncEvent::SignalWakeup { tid, tick } => format!("sigwakeup {tid} {tick}"),
        }
    }

    pub(crate) fn from_line(line: &str) -> Result<Self, String> {
        let mut it = line.split_whitespace();
        let event = match it.next() {
            Some("reschedule") => {
                let tick = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| format!("bad reschedule line `{line}`"))?;
                AsyncEvent::Reschedule { tick }
            }
            Some("sigwakeup") => {
                let tid = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| format!("bad sigwakeup tid in `{line}`"))?;
                let tick = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| format!("bad sigwakeup tick in `{line}`"))?;
                AsyncEvent::SignalWakeup { tid, tick }
            }
            other => return Err(format!("unknown ASYNC event {other:?} in `{line}`")),
        };
        if it.next().is_some() {
            return Err(format!("trailing junk in ASYNC line `{line}`"));
        }
        Ok(event)
    }
}

/// The queue-strategy interleaving (§4.2).
///
/// `first_tick[i]` holds, for each thread in creation order, the first tick
/// at which the thread is scheduled (0 = never scheduled). Entry `k` of
/// the next-tick list is consumed by whichever thread leaves the critical
/// section of tick `k + 1` and names that thread's next scheduled tick
/// (0 = never again). Critical sections are totally ordered, so "order of
/// leaving" equals tick order and a dense list indexed by tick suffices.
///
/// The next-tick list has one entry per tick, but a thread that runs
/// consecutive ticks contributes the run `k+1, k+2, …`, so the list is
/// kept as its canonical RLE runs ([`rle::Tokenizer`]) and never
/// expanded: its memory grows with context switches, not with ticks.
/// Canonical runs make equality by value.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct QueueStream {
    /// First scheduled tick per thread id (index = tid).
    pub first_tick: Vec<u64>,
    /// The next-tick list as canonical runs.
    next_ticks: Vec<U64Token>,
    /// Entries in the next-tick list.
    len: usize,
}

impl QueueStream {
    /// A stream from its first-tick table and expanded next-tick list.
    #[must_use]
    pub fn new(first_tick: Vec<u64>, next_ticks: &[u64]) -> Self {
        Self::from_tokens(first_tick, rle::u64_tokens(next_ticks))
    }

    /// A stream whose next-tick list is `tokens`, canonical or not.
    #[must_use]
    pub fn from_tokens(first_tick: Vec<u64>, tokens: impl IntoIterator<Item = U64Token>) -> Self {
        let mut t = Tokenizer::default();
        for tok in tokens {
            t.push_token(tok);
        }
        let next_ticks = t.finish();
        let len = next_ticks.iter().map(|t| t.count() as usize).sum();
        QueueStream {
            first_tick,
            next_ticks,
            len,
        }
    }

    /// The next-tick list's canonical runs.
    #[must_use]
    pub fn next_tick_tokens(&self) -> &[U64Token] {
        &self.next_ticks
    }

    /// The next-tick list, expanded lazily.
    pub fn next_ticks(&self) -> impl Iterator<Item = u64> + '_ {
        rle::Expand::new(self.next_ticks.iter().copied())
    }

    /// Entries in the next-tick list: one per recorded critical section.
    #[must_use]
    pub fn next_tick_count(&self) -> usize {
        self.len
    }

    /// Keeps only the first `n` next-tick entries (all of them if there
    /// are fewer).
    pub fn truncate_next_ticks(&mut self, n: usize) {
        let mut left = n as u64;
        let mut kept = Vec::new();
        for &tok in &self.next_ticks {
            if left == 0 {
                break;
            }
            let take = tok.count().min(left);
            kept.push(tok.head(take));
            left -= take;
        }
        self.len = n.min(self.len);
        self.next_ticks = kept;
    }

    pub(crate) fn to_text(&self) -> String {
        format!(
            "first {}\nticks {}\n",
            rle::encode_u64s(&self.first_tick),
            rle::format_tokens(&self.next_ticks)
        )
    }

    /// Parses the text form. Errors carry the 1-based line they were
    /// found on.
    pub(crate) fn from_text(text: &str) -> Result<Self, (Option<usize>, String)> {
        let mut first = None;
        let mut ticks = None;
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            let at = |err: String| (Some(i + 1), err);
            let (name, rest) = line.split_once(' ').unwrap_or((line, ""));
            let slot = match name {
                "" => continue,
                "first" => &mut first,
                "ticks" => &mut ticks,
                _ => return Err(at(format!("unknown QUEUE line `{line}`"))),
            };
            if slot.is_some() {
                return Err(at(format!("duplicate `{name}` line")));
            }
            *slot = Some(rle::parse_tokens(rest).map_err(at)?);
        }
        let first_tick = rle::Expand::new(first.unwrap_or_default()).collect();
        Ok(QueueStream::from_tokens(
            first_tick,
            ticks.unwrap_or_default(),
        ))
    }

    /// Builds the stream from an explicit schedule: `(tid, tick)` pairs
    /// in tick order, ticks dense from 1. The inverse of
    /// [`QueueStream::schedule_order`] — `from_order(&s.schedule_order(),
    /// n)` reproduces `s` for any well-formed stream. This is how
    /// synthesized (rather than recorded) interleavings become demos.
    ///
    /// `nthreads` sizes the `first_tick` table; threads never scheduled
    /// keep the 0 ("never") sentinel.
    #[must_use]
    pub fn from_order(order: &[(u32, u64)], nthreads: usize) -> Self {
        let mut runs = ScheduleRuns::default();
        for &(tid, tick) in order {
            runs.push(tid, tick);
        }
        runs.into_queue(nthreads)
    }

    /// Returns `true` if no scheduling information was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.first_tick.is_empty() && self.len == 0
    }

    /// Reconstructs the recorded schedule as `(tid, tick)` pairs in tick
    /// order, by walking the per-thread due ticks the way replay does:
    /// the thread due at tick `k` runs cs `k` and then consumes next-tick
    /// entry `k-1` as its next due tick. Stops at the first tick no
    /// thread is due for (a corrupt or truncated stream ends the walk
    /// early rather than erroring — diagnostics compare against whatever
    /// prefix is reconstructible).
    #[must_use]
    pub fn schedule_order(&self) -> Vec<(u32, u64)> {
        let mut due = self.first_tick.clone();
        let mut out = Vec::new();
        for (k, next) in (1u64..).zip(self.next_ticks()) {
            let Some(tid) = due.iter().position(|&d| d == k) else {
                break;
            };
            out.push((tid as u32, k));
            due[tid] = next;
        }
        out
    }
}

/// A schedule as the recorder keeps it: `(tid, first tick, length)` runs
/// of consecutive ticks by one thread, in tick order. It grows with
/// context switches, not with ticks.
#[derive(Clone, Debug, Default)]
pub struct ScheduleRuns(Vec<(u32, u64, u64)>);

impl ScheduleRuns {
    /// Appends `tick`, run by `tid`.
    pub fn push(&mut self, tid: u32, tick: u64) {
        match self.0.last_mut() {
            Some((t, first, len)) if *t == tid && *first + *len == tick => *len += 1,
            _ => self.0.push((tid, tick, 1)),
        }
    }

    /// The schedule's QUEUE stream (§4.2), built in time and memory
    /// linear in the runs; `nthreads` sizes the `first_tick` table as in
    /// [`QueueStream::from_order`].
    #[must_use]
    pub fn into_queue(self, nthreads: usize) -> QueueStream {
        let runs = self.0;
        // The tick each run's thread runs after the run: the first tick of
        // its next run (0 = never), found walking the runs backwards.
        let tids = runs.iter().map(|r| r.0 as usize + 1).max().unwrap_or(0);
        let mut next_start = vec![0u64; tids];
        let mut after: Vec<u64> = runs
            .iter()
            .rev()
            .map(|&(tid, first, _)| std::mem::replace(&mut next_start[tid as usize], first))
            .collect();
        after.reverse();
        let mut first_tick = vec![0u64; nthreads];
        for (slot, start) in first_tick.iter_mut().zip(next_start) {
            *slot = start;
        }
        // Inside a run the thread's next tick is always the next tick.
        let mut t = Tokenizer::default();
        for (&(_, first, len), next) in runs.iter().zip(after) {
            if len > 1 {
                t.push_token(U64Token::IncRun {
                    base: first + 1,
                    extra: len - 2,
                });
            }
            t.push(next);
        }
        let next_ticks = t.finish();
        let len = runs.iter().map(|r| r.2 as usize).sum();
        QueueStream {
            first_tick,
            next_ticks,
            len,
        }
    }
}

/// Parses the text `SYSCALL` stream. Failures carry the 1-based line
/// number of the offending line in [`DemoLoadError::Malformed`].
pub(crate) fn parse_syscalls(text: &str) -> Result<Vec<SyscallRecord>, DemoLoadError> {
    let mut last_line = 0usize;
    parse_syscalls_inner(text, &mut last_line).map_err(|err| DemoLoadError::Malformed {
        file: "SYSCALL".into(),
        line: Some(last_line.max(1)),
        err,
    })
}

fn parse_syscalls_inner(text: &str, last_line: &mut usize) -> Result<Vec<SyscallRecord>, String> {
    let mut out: Vec<SyscallRecord> = Vec::new();
    let mut expected_bufs = 0usize;
    // A record short of its buffers is reported at its `syscall` line.
    let mut record_line = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        *last_line = lineno + 1;
        if let Some(rest) = line.strip_prefix("syscall ") {
            if expected_bufs != 0 {
                *last_line = record_line;
                return Err(format!(
                    "syscall record missing {expected_bufs} buffer line(s) before `{line}`"
                ));
            }
            record_line = lineno + 1;
            let mut it = rest.split_whitespace();
            let mut next = |what: &str| {
                it.next()
                    .ok_or_else(|| format!("missing {what} in `{line}`"))
                    .map(str::to_owned)
            };
            let seq = next("seq")?
                .parse()
                .map_err(|_| format!("bad seq in `{line}`"))?;
            let tid = next("tid")?
                .parse()
                .map_err(|_| format!("bad tid in `{line}`"))?;
            let tick = next("tick")?
                .parse()
                .map_err(|_| format!("bad tick in `{line}`"))?;
            let kind = next("kind")?;
            let field = |s: String, prefix: &str| -> Result<String, String> {
                s.strip_prefix(prefix)
                    .map(str::to_owned)
                    .ok_or_else(|| format!("expected `{prefix}...` in `{line}`"))
            };
            let ret = field(next("ret")?, "ret=")?
                .parse()
                .map_err(|_| format!("bad ret in `{line}`"))?;
            let errno = field(next("errno")?, "errno=")?
                .parse()
                .map_err(|_| format!("bad errno in `{line}`"))?;
            expected_bufs = field(next("nbufs")?, "nbufs=")?
                .parse()
                .map_err(|_| format!("bad nbufs in `{line}`"))?;
            if it.next().is_some() {
                return Err(format!("trailing junk in `{line}`"));
            }
            out.push(SyscallRecord {
                seq,
                tid,
                tick,
                kind,
                ret,
                errno,
                bufs: Vec::new(),
            });
        } else if let Some(rest) = line.strip_prefix("buf ") {
            let rec = out.last_mut().ok_or("buf line before any syscall line")?;
            if expected_bufs == 0 {
                return Err("more buf lines than nbufs declared".into());
            }
            let (len_s, payload) = rest.split_once(' ').unwrap_or((rest, ""));
            let len: usize = len_s
                .parse()
                .map_err(|_| format!("bad buf length `{len_s}`"))?;
            let data = rle::decode_bytes(payload)?;
            if data.len() != len {
                return Err(format!(
                    "buf length mismatch: declared {len}, got {}",
                    data.len()
                ));
            }
            rec.bufs.push(data);
            expected_bufs -= 1;
        } else {
            return Err(format!("unknown SYSCALL line `{line}`"));
        }
    }
    if expected_bufs != 0 {
        *last_line = record_line;
        return Err(format!(
            "final syscall record missing {expected_bufs} buffer line(s)"
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signal_event_roundtrips_paper_example() {
        let e = SignalEvent {
            tid: 2,
            tick: 5,
            signo: 15,
        };
        assert_eq!(e.to_line(), "2 5 15");
        assert_eq!(SignalEvent::from_line("2 5 15").unwrap(), e);
    }

    #[test]
    fn signal_event_rejects_malformed() {
        assert!(SignalEvent::from_line("").is_err());
        assert!(SignalEvent::from_line("2 5").is_err());
        assert!(SignalEvent::from_line("2 5 x").is_err());
        assert!(SignalEvent::from_line("2 5 15 9").is_err());
    }

    #[test]
    fn async_event_roundtrips() {
        for e in [
            AsyncEvent::Reschedule { tick: 9 },
            AsyncEvent::SignalWakeup { tid: 3, tick: 12 },
        ] {
            assert_eq!(AsyncEvent::from_line(&e.to_line()).unwrap(), e);
        }
        assert_eq!(AsyncEvent::Reschedule { tick: 9 }.tick(), 9);
        assert_eq!(AsyncEvent::SignalWakeup { tid: 3, tick: 12 }.tick(), 12);
    }

    #[test]
    fn async_event_rejects_malformed() {
        assert!(AsyncEvent::from_line("teleport 3").is_err());
        assert!(AsyncEvent::from_line("reschedule").is_err());
        assert!(AsyncEvent::from_line("sigwakeup 1").is_err());
    }

    #[test]
    fn queue_stream_roundtrips() {
        let q = QueueStream::new(vec![1, 2, 9], &[3, 4, 5, 0, 0]);
        let text = q.to_text();
        assert_eq!(QueueStream::from_text(&text).unwrap(), q);
        assert!(!q.is_empty());
        assert!(QueueStream::default().is_empty());
    }

    #[test]
    fn queue_text_tokens_canonicalize_on_load() {
        let q = QueueStream::from_text("first 1 2\nticks 3+1 5 0 0\n").unwrap();
        assert_eq!(q, QueueStream::new(vec![1, 2], &[3, 4, 5, 0, 0]));
        assert_eq!(
            q.next_tick_tokens(),
            [
                U64Token::IncRun { base: 3, extra: 2 },
                U64Token::Repeat { value: 0, count: 2 }
            ]
        );
        assert_eq!(q.to_text(), "first 1+1\nticks 3+2 0*2\n");
    }

    #[test]
    fn truncation_keeps_canonical_runs() {
        let mut q = QueueStream::new(vec![1], &[2, 3, 4, 0]);
        q.truncate_next_ticks(2);
        assert_eq!(q, QueueStream::new(vec![1], &[2, 3]));
        q.truncate_next_ticks(1);
        assert_eq!(q.next_tick_tokens(), [U64Token::Literal(2)]);
        q.truncate_next_ticks(5);
        assert_eq!(q.next_tick_count(), 1);
    }

    #[test]
    fn queue_stream_schedule_order() {
        // T0 runs ticks 1,3; T1 runs ticks 2,4; then both retire (0).
        let q = QueueStream::new(vec![1, 2], &[3, 4, 0, 0]);
        assert_eq!(q.schedule_order(), vec![(0, 1), (1, 2), (0, 3), (1, 4)]);
        // Truncating the stream truncates the reconstructible prefix.
        let cut = QueueStream::new(vec![1, 2], &[3, 4]);
        assert_eq!(cut.schedule_order(), vec![(0, 1), (1, 2)]);
        assert!(QueueStream::default().schedule_order().is_empty());
    }

    #[test]
    fn from_order_inverts_schedule_order() {
        // Dense ticks 1..=8: T0 runs 1,3,5; T1 runs 2,4,6; T2 runs 7,8.
        let q = QueueStream::new(vec![1, 2, 7], &[3, 4, 5, 6, 0, 0, 8, 0]);
        let order = q.schedule_order();
        assert_eq!(QueueStream::from_order(&order, 3), q);
        // Unscheduled threads keep the 0 sentinel.
        let q = QueueStream::from_order(&[(0, 1), (2, 2)], 4);
        assert_eq!(q.first_tick, vec![1, 0, 2, 0]);
        assert_eq!(q.next_ticks().collect::<Vec<_>>(), vec![0, 0]);
        assert_eq!(QueueStream::from_order(&[], 0), QueueStream::default());
    }

    #[test]
    fn queue_stream_uses_rle() {
        let q = QueueStream::new(vec![1], &(2..1000).collect::<Vec<_>>());
        let text = q.to_text();
        assert!(text.len() < 40, "RLE should collapse the run: {text}");
    }

    #[test]
    fn syscall_records_roundtrip() {
        let recs = vec![
            SyscallRecord {
                seq: 0,
                tid: 1,
                tick: 10,
                kind: "poll".into(),
                ret: 1,
                errno: 0,
                bufs: vec![vec![1, 0, 0, 0]],
            },
            SyscallRecord {
                seq: 1,
                tid: 1,
                tick: 12,
                kind: "recv".into(),
                ret: 100,
                errno: 0,
                bufs: vec![vec![b'x'; 100], vec![]],
            },
        ];
        let text: String = recs.iter().map(SyscallRecord::to_lines).collect();
        assert_eq!(parse_syscalls(&text).unwrap(), recs);
    }

    #[test]
    fn syscall_negative_ret_and_errno() {
        let rec = SyscallRecord {
            seq: 7,
            tid: 0,
            tick: 3,
            kind: "recv".into(),
            ret: -1,
            errno: 11, // EAGAIN
            bufs: vec![],
        };
        let parsed = parse_syscalls(&rec.to_lines()).unwrap();
        assert_eq!(parsed, vec![rec]);
    }

    #[test]
    fn syscall_parse_rejects_malformed() {
        assert!(parse_syscalls("syscall 0 1").is_err());
        assert!(
            parse_syscalls("buf 3 aabbcc").is_err(),
            "buf before syscall"
        );
        assert!(
            parse_syscalls("syscall 0 1 2 recv ret=0 errno=0 nbufs=1\n").is_err(),
            "missing buf line"
        );
        assert!(
            parse_syscalls("syscall 0 1 2 recv ret=0 errno=0 nbufs=0\nbuf 1 0101aa\n").is_err(),
            "surplus buf line"
        );
        let bad_len = "syscall 0 1 2 recv ret=0 errno=0 nbufs=1\nbuf 5 0101aa\n";
        assert!(parse_syscalls(bad_len).is_err(), "length mismatch");
    }

    #[test]
    fn syscall_parse_errors_carry_line_numbers() {
        // Line 3 (the second record, after a blank line) is malformed.
        let text = "syscall 0 1 2 recv ret=0 errno=0 nbufs=0\n\nsyscall zero 1 2 recv ret=0 errno=0 nbufs=0\n";
        match parse_syscalls(text) {
            Err(DemoLoadError::Malformed { file, line, err }) => {
                assert_eq!(file, "SYSCALL");
                assert_eq!(line, Some(3));
                assert!(err.contains("bad seq"), "err: {err}");
            }
            other => panic!("expected malformed line 3, got {other:?}"),
        }
        // A bad buf line is reported at the buf line, not the record.
        let text = "syscall 0 1 2 recv ret=0 errno=0 nbufs=1\nbuf 5 0101aa\n";
        match parse_syscalls(text) {
            Err(DemoLoadError::Malformed { line, .. }) => assert_eq!(line, Some(2)),
            other => panic!("expected malformed line 2, got {other:?}"),
        }
        // Missing buffers are reported at the record short of them, not
        // at the line where that shows.
        let text = "syscall 0 1 2 recv ret=0 errno=0 nbufs=0\n\
                    syscall 1 1 3 recv ret=0 errno=0 nbufs=2\nbuf 1 010101\n\
                    syscall 2 1 4 recv ret=0 errno=0 nbufs=0\n";
        match parse_syscalls(text) {
            Err(DemoLoadError::Malformed { line, err, .. }) => {
                assert_eq!(line, Some(2), "{err}");
                assert!(err.contains("missing 1 buffer line(s)"), "{err}");
            }
            other => panic!("expected malformed line 2, got {other:?}"),
        }
    }
}
