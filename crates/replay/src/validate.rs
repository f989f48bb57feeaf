//! The demo invariants (§4): what a decoded demo must satisfy for replay
//! to be able to enforce it.
//!
//! [`Demo::validate`] checks them on the typed streams, and every loader
//! ([`Demo::from_bytes_map`] and everything built on it) runs it, so a
//! demo that breaks one fails with [`crate::DemoLoadError::Invalid`]
//! before a run starts instead of hard-desyncing mid-replay. Syntax (text
//! lines, binary frames, buffer counts) is the parser's and the codec's
//! business; this module only sees well-formed structs.
//!
//! * `QUEUE` — every tick `1..=T` is claimed exactly once (by a thread's
//!   first tick or by the next-tick entry of an earlier critical
//!   section), no claim names a tick past `T`, next-tick entries point
//!   strictly forward, and first ticks need a next-tick list;
//! * `SIGNAL` — the tid is in range when the queue records threads, the
//!   signal number is positive, and ticks never decrease per thread;
//! * `SYSCALL` — `seq` is contiguous from 0, ticks never decrease, and
//!   the tid is in range;
//! * `ASYNC` — ticks never decrease.
//!
//! The clean path allocates nothing: a message is formatted only for a
//! violation, and the scratch tables live on the stack for QUEUE streams
//! up to [`STACK_TICKS`] ticks and thread ids below [`STACK_TIDS`].

use std::collections::BTreeMap;
use std::fmt;

use crate::codec::StreamId;
use crate::demo::Demo;

/// Ticks whose claim bits fit the on-stack bitmap (8 KiB); a longer QUEUE
/// stream uses one heap bitmap.
const STACK_TICKS: usize = 1 << 16;
/// Thread ids whose last signal tick is kept on the stack; higher ids
/// spill to a map.
const STACK_TIDS: usize = 256;

/// One broken demo invariant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DemoViolation {
    /// The stream holding the offending entry.
    pub stream: StreamId,
    /// 1-based position of the entry in its stream. `SIGNAL`, `SYSCALL`
    /// and `ASYNC` count events; `QUEUE` counts its values in stored
    /// order: the first-tick table (one per thread), then the next-tick
    /// list, so critical section `k`'s entry is `threads + k`.
    pub entry: usize,
    /// What is wrong.
    pub message: String,
}

impl fmt::Display for DemoViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} entry {}: {}",
            self.stream.file_name(),
            self.entry,
            self.message
        )
    }
}

fn flag(out: &mut Vec<DemoViolation>, stream: StreamId, entry: usize, message: String) {
    out.push(DemoViolation {
        stream,
        entry,
        message,
    });
}

/// Who claims a QUEUE tick.
#[derive(Clone, Copy)]
enum Claim {
    /// A thread's first scheduled tick.
    First(usize),
    /// The next-tick entry of a (1-based) critical section.
    Next(u64),
}

impl fmt::Display for Claim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Claim::First(tid) => write!(f, "first tick of thread {tid}"),
            Claim::Next(cs) => write!(f, "next-tick entry for critical section {cs}"),
        }
    }
}

impl Demo {
    /// Checks the demo invariants on the decoded streams. Returns every
    /// violation, by stream (QUEUE, SIGNAL, SYSCALL, ASYNC) and within a
    /// stream in entry order, with QUEUE's never-scheduled ticks last.
    /// Empty means the demo is replayable as far as its own content can
    /// tell.
    #[must_use]
    pub fn validate(&self) -> Vec<DemoViolation> {
        let mut out = Vec::new();
        self.validate_queue(&mut out);
        // The thread-id universe for cross-stream checks is known only
        // when the queue strategy recorded a first-tick table (random
        // demos carry none, so their tids go unchecked).
        let nthreads = Some(self.queue.first_tick.len()).filter(|&n| n > 0);
        self.validate_signals(nthreads, &mut out);
        self.validate_syscalls(nthreads, &mut out);
        self.validate_async(&mut out);
        out
    }

    fn validate_queue(&self, out: &mut Vec<DemoViolation>) {
        let q = &self.queue;
        let threads = q.first_tick.len();
        let total = q.next_ticks.len() as u64;
        if total == 0 {
            if let Some(tid) = q.first_tick.iter().position(|&t| t != 0) {
                let msg = "first-tick entries but no next-tick list".to_owned();
                flag(out, StreamId::Queue, tid + 1, msg);
            }
            return;
        }
        // Ticks are 1-based and dense: with T critical sections every
        // tick in 1..=T is scheduled by exactly one claim. Bit t-1 of the
        // map records a claim on tick t.
        let words = q.next_ticks.len().div_ceil(64);
        let mut stack = [0u64; STACK_TICKS / 64];
        let mut heap = Vec::new();
        let claimed: &mut [u64] = if words <= stack.len() {
            &mut stack[..words]
        } else {
            heap.resize(words, 0);
            &mut heap
        };
        for (tid, &tick) in q.first_tick.iter().enumerate() {
            if tick != 0 && !claim(claimed, tick, total) {
                bad_claim(out, tid + 1, Claim::First(tid), tick, total);
            }
        }
        for (cs, &tick) in (1u64..).zip(&q.next_ticks) {
            // 0 means the thread is never scheduled again.
            if tick != 0 && (tick <= cs || !claim(claimed, tick, total)) {
                bad_claim(out, threads + cs as usize, Claim::Next(cs), tick, total);
            }
        }
        // Only ticks in 1..=T can be claimed, so a full count means no
        // holes. A hole is reported at its own critical section's entry,
        // which replay can never reach.
        let count: u64 = claimed.iter().map(|w| u64::from(w.count_ones())).sum();
        if count == total {
            return;
        }
        for tick in 1..=total {
            if claimed[((tick - 1) / 64) as usize] & (1 << ((tick - 1) % 64)) == 0 {
                let msg = format!("tick {tick} is never scheduled");
                flag(out, StreamId::Queue, threads + tick as usize, msg);
            }
        }
    }

    fn validate_signals(&self, nthreads: Option<usize>, out: &mut Vec<DemoViolation>) {
        let mut last = [None::<u64>; STACK_TIDS];
        let mut spill = BTreeMap::new();
        for (s, entry) in self.signals.iter().zip(1..) {
            check_tid(out, StreamId::Signal, entry, s.tid, nthreads);
            if s.signo <= 0 {
                let msg = format!("signal number {} is not positive", s.signo);
                flag(out, StreamId::Signal, entry, msg);
            }
            // Signal ticks are recorded at the *target's* most recent
            // Tick(), so they are monotone per thread, not globally.
            let prev = match last.get_mut(s.tid as usize) {
                Some(slot) => slot.replace(s.tick),
                None => spill.insert(s.tid, s.tick),
            };
            if let Some(prev) = prev.filter(|&p| s.tick < p) {
                let msg = format!(
                    "tick {} for thread {} decreases (previous was {prev})",
                    s.tick, s.tid
                );
                flag(out, StreamId::Signal, entry, msg);
            }
        }
    }

    fn validate_syscalls(&self, nthreads: Option<usize>, out: &mut Vec<DemoViolation>) {
        let mut next_seq = 0u64;
        let mut last_tick = 0u64;
        for (r, entry) in self.syscalls.iter().zip(1..) {
            if r.seq != next_seq {
                let msg = format!("seq {} breaks contiguity (expected {next_seq})", r.seq);
                flag(out, StreamId::Syscall, entry, msg);
            }
            next_seq = r.seq.max(next_seq).saturating_add(1);
            check_tid(out, StreamId::Syscall, entry, r.tid, nthreads);
            // Syscalls are recorded inside critical sections, which are
            // totally ordered: ticks are globally monotone.
            check_monotone(out, StreamId::Syscall, entry, r.tick, &mut last_tick);
        }
    }

    fn validate_async(&self, out: &mut Vec<DemoViolation>) {
        // Async events are floated to ticks in recording order.
        let mut last_tick = 0u64;
        for (e, entry) in self.async_events.iter().zip(1..) {
            check_monotone(out, StreamId::Async, entry, e.tick(), &mut last_tick);
        }
    }
}

/// Marks `tick` claimed in the bitmap; `false` if it is past `total` or
/// already claimed.
fn claim(claimed: &mut [u64], tick: u64, total: u64) -> bool {
    if tick > total {
        return false;
    }
    let (word, bit) = (((tick - 1) / 64) as usize, 1 << ((tick - 1) % 64));
    let fresh = claimed[word] & bit == 0;
    claimed[word] |= bit;
    fresh
}

/// Reports the claim [`claim`] refused, or a next-tick entry that does
/// not point forward.
#[cold]
fn bad_claim(out: &mut Vec<DemoViolation>, entry: usize, who: Claim, tick: u64, total: u64) {
    let msg = match who {
        Claim::Next(cs) if tick <= cs => format!("{who} names tick {tick} <= {cs}"),
        _ if tick > total => format!("{who} names tick {tick} > total {total}"),
        _ => format!("{who} names tick {tick}, already scheduled"),
    };
    flag(out, StreamId::Queue, entry, msg);
}

fn check_tid(
    out: &mut Vec<DemoViolation>,
    stream: StreamId,
    entry: usize,
    tid: u32,
    nthreads: Option<usize>,
) {
    if let Some(n) = nthreads.filter(|&n| tid as usize >= n) {
        let msg = format!("tid {tid} out of range (queue records {n} threads)");
        flag(out, stream, entry, msg);
    }
}

fn check_monotone(
    out: &mut Vec<DemoViolation>,
    stream: StreamId,
    entry: usize,
    tick: u64,
    last_tick: &mut u64,
) {
    if tick < *last_tick {
        let msg = format!("tick {tick} decreases (previous was {last_tick})");
        flag(out, stream, entry, msg);
    }
    *last_tick = (*last_tick).max(tick);
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;
    use crate::{DemoFormat, DemoHeader, DemoLoadError, QueueStream, SignalEvent, SyscallRecord};

    fn sample_demo() -> Demo {
        let mut d = Demo::new(DemoHeader::new("tsan11rec", "queue", [7, 9]));
        // Two threads: t0 runs ticks 1,2 then 4; t1 runs tick 3.
        d.queue = QueueStream {
            first_tick: vec![1, 3],
            next_ticks: vec![2, 4, 0, 0],
        };
        d.signals.push(SignalEvent {
            tid: 1,
            tick: 3,
            signo: 15,
        });
        d.syscalls.push(SyscallRecord {
            seq: 0,
            tid: 0,
            tick: 2,
            kind: "recv".into(),
            ret: 10,
            errno: 0,
            bufs: vec![b"helloworld".to_vec()],
        });
        d.alloc = vec![4096, 8192];
        d
    }

    /// `(stream, entry)` of each violation, in order.
    fn places(violations: &[DemoViolation]) -> Vec<(&'static str, usize)> {
        violations
            .iter()
            .map(|v| (v.stream.file_name(), v.entry))
            .collect()
    }

    /// Validates `d` and checks that loading its binary form rejects it
    /// with exactly those violations.
    fn invalid(d: &Demo) -> Vec<DemoViolation> {
        let violations = d.validate();
        assert!(!violations.is_empty(), "expected violations in {d:?}");
        match Demo::from_bytes_map(&d.to_bytes_map()) {
            Err(DemoLoadError::Invalid(v)) => assert_eq!(v, violations),
            other => panic!("expected Invalid, got {other:?}"),
        }
        violations
    }

    /// Loads a text map that the parser must reject: `(file, line, err)`.
    fn malformed(map: &BTreeMap<String, String>) -> (String, Option<usize>, String) {
        match Demo::from_string_map(map) {
            Err(DemoLoadError::Malformed { file, line, err }) => (file, line, err),
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn recorded_demo_validates_clean() {
        let d = sample_demo();
        assert!(d.validate().is_empty(), "{:?}", d.validate());
        assert_eq!(Demo::from_string_map(&d.to_string_map()).unwrap(), d);
    }

    #[test]
    fn missing_header_is_file_level() {
        let mut map = sample_demo().to_string_map();
        map.remove("HEADER");
        let err = Demo::from_string_map(&map).unwrap_err();
        assert!(matches!(err, DemoLoadError::MissingHeader));
        assert_eq!(err.to_string(), "demo has no HEADER file");
    }

    #[test]
    fn truncated_syscall_points_at_its_header_line() {
        let mut map = sample_demo().to_string_map();
        // Drop the buf line: the record on line 1 declares nbufs=1.
        let sys = map.get_mut("SYSCALL").unwrap();
        *sys = sys.lines().next().unwrap().to_owned() + "\n";
        let (file, line, err) = malformed(&map);
        assert_eq!((file.as_str(), line), ("SYSCALL", Some(1)));
        assert!(err.contains("missing 1 buffer line(s)"), "{err}");
    }

    #[test]
    fn buf_length_mismatch_is_line_precise() {
        let mut map = sample_demo().to_string_map();
        let sys = map.get_mut("SYSCALL").unwrap();
        *sys = sys.replace("buf 10 ", "buf 11 ");
        let (file, line, err) = malformed(&map);
        assert_eq!((file.as_str(), line), ("SYSCALL", Some(2)));
        assert!(err.contains("declared 11"), "{err}");
    }

    #[test]
    fn seq_gap_and_tick_regression_are_caught() {
        let mut d = sample_demo();
        d.syscalls.push(SyscallRecord {
            seq: 2, // gap: expected 1
            tid: 1,
            tick: 1, // regression: previous record was tick 2
            kind: "poll".into(),
            ret: 0,
            errno: 0,
            bufs: vec![],
        });
        let v = invalid(&d);
        assert_eq!(places(&v), [("SYSCALL", 2), ("SYSCALL", 2)]);
        assert_eq!(v[0].message, "seq 2 breaks contiguity (expected 1)");
        assert_eq!(v[1].message, "tick 1 decreases (previous was 2)");
    }

    #[test]
    fn queue_double_claim_and_hole_are_caught() {
        let mut d = sample_demo();
        // Both threads claim tick 1; tick 3 is claimed nowhere.
        d.queue = QueueStream {
            first_tick: vec![1, 1],
            next_ticks: vec![2, 4, 0, 0],
        };
        let v = invalid(&d);
        // Thread 1's first tick is entry 2; tick 3's own critical
        // section is entry 2 + 3.
        assert_eq!(places(&v), [("QUEUE", 2), ("QUEUE", 5)]);
        assert_eq!(
            v[0].message,
            "first tick of thread 1 names tick 1, already scheduled"
        );
        assert_eq!(v[1].message, "tick 3 is never scheduled");
        assert_eq!(v[1].to_string(), "QUEUE entry 5: tick 3 is never scheduled");
    }

    #[test]
    fn queue_next_tick_must_be_in_the_future() {
        let mut d = sample_demo();
        // CS 2's next-tick entry names tick 2 (not strictly later).
        d.queue = QueueStream {
            first_tick: vec![1, 3],
            next_ticks: vec![2, 2, 0, 0],
        };
        let v = invalid(&d);
        assert_eq!(places(&v), [("QUEUE", 4), ("QUEUE", 6)]);
        assert_eq!(
            v[0].message,
            "next-tick entry for critical section 2 names tick 2 <= 2"
        );
        assert_eq!(v[1].message, "tick 4 is never scheduled");
    }

    #[test]
    fn queue_out_of_range_tick_is_caught() {
        let mut d = sample_demo();
        d.queue = QueueStream {
            first_tick: vec![1, 9],
            next_ticks: vec![2, 3, 4, 0],
        };
        let v = invalid(&d);
        assert_eq!(places(&v), [("QUEUE", 2)]);
        assert_eq!(
            v[0].message,
            "first tick of thread 1 names tick 9 > total 4"
        );
    }

    #[test]
    fn first_ticks_need_a_next_tick_list() {
        let mut d = Demo::new(DemoHeader::new("tsan11rec", "queue", [7, 9]));
        d.queue = QueueStream {
            first_tick: vec![0, 3],
            next_ticks: vec![],
        };
        let v = invalid(&d);
        assert_eq!(places(&v), [("QUEUE", 2)]);
        assert_eq!(v[0].message, "first-tick entries but no next-tick list");
    }

    #[test]
    fn long_queue_streams_validate_past_the_stack_bitmap() {
        // One thread running every tick of a stream longer than the
        // on-stack claim map: clean, and a hole past the stack range is
        // still found.
        let total = STACK_TICKS as u64 + 100;
        let mut d = Demo::new(DemoHeader::new("tsan11rec", "queue", [1, 1]));
        d.queue = QueueStream {
            first_tick: vec![1],
            next_ticks: (2..=total).chain([0]).collect(),
        };
        assert!(d.validate().is_empty());
        // Critical section 65542 jumps to the last tick: 65543 is never
        // scheduled and section 65635's claim on the last tick repeats.
        d.queue.next_ticks[65541] = total;
        let v = d.validate();
        assert_eq!(places(&v), [("QUEUE", 1 + 65635), ("QUEUE", 1 + 65543)]);
        assert_eq!(
            v[0].message,
            "next-tick entry for critical section 65635 names tick 65636, already scheduled"
        );
        assert_eq!(v[1].message, "tick 65543 is never scheduled");
    }

    #[test]
    fn signal_tid_and_monotonicity_checks() {
        let mut d = sample_demo();
        d.signals = vec![
            SignalEvent {
                tid: 5,
                tick: 1,
                signo: 15,
            }, // tid out of range (2 threads)
            SignalEvent {
                tid: 1,
                tick: 4,
                signo: 10,
            },
            SignalEvent {
                tid: 1,
                tick: 2,
                signo: 10,
            }, // per-tid regression
            SignalEvent {
                tid: 0,
                tick: 1,
                signo: 9,
            }, // other tid: lower tick is fine
        ];
        let v = invalid(&d);
        assert_eq!(places(&v), [("SIGNAL", 1), ("SIGNAL", 3)]);
        assert!(v[0].message.contains("out of range"), "{}", v[0]);
        assert!(v[1].message.contains("decreases"), "{}", v[1]);
    }

    #[test]
    fn signal_numbers_are_positive_and_high_tids_are_tracked() {
        // A random demo has no tid universe, so tids far past the stack
        // table are legal and still checked for per-thread order.
        let mut d = Demo::new(DemoHeader::new("tsan11rec", "random", [1, 2]));
        let sig = |tid, tick, signo| SignalEvent { tid, tick, signo };
        d.signals = vec![sig(4000, 9, 2), sig(4000, 8, 2), sig(1, 1, 0)];
        let v = invalid(&d);
        assert_eq!(places(&v), [("SIGNAL", 2), ("SIGNAL", 3)]);
        assert_eq!(
            v[0].message,
            "tick 8 for thread 4000 decreases (previous was 9)"
        );
        assert_eq!(v[1].message, "signal number 0 is not positive");
    }

    #[test]
    fn random_demo_skips_tid_universe_checks() {
        let mut d = Demo::new(DemoHeader::new("tsan11rec", "random", [1, 2]));
        d.signals.push(SignalEvent {
            tid: 17,
            tick: 1,
            signo: 2,
        });
        assert!(d.validate().is_empty());
    }

    #[test]
    fn header_problems_are_reported() {
        let mut map = sample_demo().to_string_map();
        let mut header = |text: &str| {
            map.insert("HEADER".into(), text.into());
            let (file, line, err) = malformed(&map);
            assert_eq!(file, "HEADER");
            (line, err)
        };
        let (line, err) = header("tsan11rec-demo v9\ntool x\nwhat is this\n");
        assert_eq!(
            (line, err.as_str()),
            (Some(1), "unsupported demo version 9")
        );
        let (line, err) = header("tsan11rec-demo v1\ntool x\nwhat is this\n");
        assert_eq!(line, Some(3));
        assert!(err.contains("unknown HEADER line"), "{err}");
        let (line, err) = header("tsan11rec-demo v1\ntool x\n");
        assert_eq!((line, err.as_str()), (None, "missing strategy line"));
        let (line, err) = header("tsan11rec-demo v1\ntool x\nstrategy queue\n");
        assert_eq!((line, err.as_str()), (None, "missing seed line"));
        let (line, err) = header("tsan11rec-demo v1\ntool x\nstrategy queue\nseed 1 2 3\n");
        assert_eq!(line, Some(4));
        assert!(err.contains("bad seed line"), "{err}");
    }

    #[test]
    fn async_and_alloc_problems_are_reported() {
        let mut map = sample_demo().to_string_map();
        map.insert("ASYNC".into(), "reschedule 5\nreschedule 3\n".into());
        match Demo::from_string_map(&map) {
            Err(DemoLoadError::Invalid(v)) => {
                assert_eq!(places(&v), [("ASYNC", 2)]);
                assert!(v[0].message.contains("decreases"), "{}", v[0]);
            }
            other => panic!("expected Invalid, got {other:?}"),
        }
        map.insert(
            "ASYNC".into(),
            "reschedule 5\nreschedule 3\nteleport 1\n".into(),
        );
        let (file, line, err) = malformed(&map);
        assert_eq!((file.as_str(), line), ("ASYNC", Some(3)));
        assert!(err.contains("unknown"), "{err}");
        map.remove("ASYNC");
        map.insert("ALLOC".into(), "4096 80q2\n".into());
        let (file, line, _) = malformed(&map);
        assert_eq!((file.as_str(), line), ("ALLOC", Some(1)));
    }

    #[test]
    fn parsers_reject_extra_and_negative_fields() {
        let mut map = sample_demo().to_string_map();
        for (file, text) in [
            ("SIGNAL", "-1 3 15\n"),
            ("ASYNC", "reschedule 5 6\n"),
            (
                "SYSCALL",
                "syscall 0 0 2 recv ret=0 errno=0 nbufs=0 extra\n",
            ),
            ("QUEUE", "first 1 3\nticks 2 4 0 0\nfirst 1 3\n"),
        ] {
            let original = map.insert(file.into(), text.into()).unwrap();
            let (f, line, err) = malformed(&map);
            assert_eq!(f, file, "{err}");
            assert!(line.is_some(), "{file}: {err}");
            map.insert(file.into(), original);
        }
    }

    #[test]
    fn text_dir_loads_and_truncation_is_line_precise() {
        let dir = std::env::temp_dir().join(format!("srr-validate-text-{}", std::process::id()));
        let d = sample_demo();
        d.save_dir_as(&dir, DemoFormat::Text).unwrap();
        assert_eq!(Demo::load_dir(&dir).unwrap(), d);
        // Truncate the SYSCALL stream on disk.
        let sys = std::fs::read_to_string(dir.join("SYSCALL")).unwrap();
        std::fs::write(dir.join("SYSCALL"), sys.lines().next().unwrap()).unwrap();
        let err = Demo::load_dir(&dir).unwrap_err();
        assert!(
            err.to_string().starts_with("malformed SYSCALL line 1: "),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn binary_dir_corruption_is_a_codec_error() {
        let dir = std::env::temp_dir().join(format!("srr-validate-bin-{}", std::process::id()));
        let d = sample_demo();
        d.save_dir(&dir).unwrap(); // binary by default
        assert_eq!(Demo::load_dir(&dir).unwrap(), d);
        // Flip one payload bit: the frame checksum localizes the damage.
        let mut sys = std::fs::read(dir.join("SYSCALL")).unwrap();
        let mid = sys.len() / 2;
        sys[mid] ^= 0x01;
        std::fs::write(dir.join("SYSCALL"), sys).unwrap();
        let err = Demo::load_dir(&dir).unwrap_err();
        assert!(
            matches!(&err, DemoLoadError::Codec { file, .. } if file == "SYSCALL"),
            "{err}"
        );
        assert!(err.to_string().contains("cannot decode"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn invalid_load_error_shows_the_first_violation_and_a_count() {
        let mut d = sample_demo();
        d.queue.first_tick = vec![1, 1];
        let err = Demo::from_bytes_map(&d.to_bytes_map()).unwrap_err();
        assert_eq!(
            err.to_string(),
            "invalid demo: QUEUE entry 2: first tick of thread 1 names tick 1, \
             already scheduled (and 1 more)"
        );
    }
}
