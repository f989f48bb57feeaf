//! Property tests: every codec and stream roundtrips on arbitrary input,
//! and loading accepts exactly the demos [`Demo::validate`] accepts.

use proptest::prelude::*;
use srr_replay::rle::{self, U64Token};
use srr_replay::{
    AsyncEvent, Demo, DemoHeader, DemoLoadError, QueueStream, ScheduleRuns, SignalEvent,
    SyscallRecord,
};

/// The QUEUE tables of a schedule (`order[i]` runs tick `i + 1`), built
/// tick by tick: the first tick per thread and the expanded next-tick
/// list. The reference the run-based builders are held to.
fn expanded_queue(nthreads: usize, order: &[usize]) -> (Vec<u64>, Vec<u64>) {
    let mut first = vec![0u64; nthreads];
    let mut next = vec![0u64; order.len()];
    let mut last_idx: Vec<Option<usize>> = vec![None; nthreads];
    for (idx, &tid) in order.iter().enumerate() {
        let tick = (idx + 1) as u64;
        match last_idx[tid] {
            None => first[tid] = tick,
            Some(prev) => next[prev] = tick,
        }
        last_idx[tid] = Some(idx);
    }
    (first, next)
}

/// A demo whose streams are derived from an actual schedule — the QUEUE
/// linked-list invariants (exact cover of ticks `1..=T`, forward-pointing
/// next links) only hold for streams built the way the recorder builds
/// them, so arbitrary vectors won't do.
fn demo_from_schedule(
    nthreads: usize,
    order: &[usize],
    signals: &[(usize, u64, i32)],
    syscalls: &[(usize, u64, Vec<Vec<u8>>)],
    asyncs: &[(bool, usize, u64)],
    alloc: Vec<u64>,
) -> Demo {
    let (first, next) = expanded_queue(nthreads, order);
    let mut demo = Demo::new(DemoHeader::new("tsan11rec", "queue", [5, 9]));
    demo.queue = QueueStream::new(first, &next);

    // SIGNAL ticks need only be per-tid non-decreasing; sorting by
    // (tid, tick) models the per-thread recording order.
    let mut signals: Vec<_> = signals.to_vec();
    signals.sort_unstable();
    demo.signals = signals
        .into_iter()
        .map(|(tid, tick, signo)| SignalEvent {
            tid: tid as u32,
            tick,
            signo,
        })
        .collect();

    // SYSCALL seq is the record index and ticks are globally monotone.
    let mut ticks: Vec<u64> = syscalls.iter().map(|&(_, t, _)| t).collect();
    ticks.sort_unstable();
    demo.syscalls = syscalls
        .iter()
        .zip(ticks)
        .enumerate()
        .map(|(seq, (&(tid, _, ref bufs), tick))| SyscallRecord {
            seq: seq as u64,
            tid: tid as u32,
            tick,
            kind: "recvmsg".into(),
            ret: bufs.first().map_or(-1, |b| b.len() as i64),
            errno: 11,
            bufs: bufs.clone(),
        })
        .collect();

    let mut aticks: Vec<u64> = asyncs.iter().map(|&(_, _, t)| t).collect();
    aticks.sort_unstable();
    demo.async_events = asyncs
        .iter()
        .zip(aticks)
        .map(|(&(resched, tid, _), tick)| {
            if resched {
                AsyncEvent::Reschedule { tick }
            } else {
                AsyncEvent::SignalWakeup {
                    tid: tid as u32,
                    tick,
                }
            }
        })
        .collect();
    demo.alloc = alloc;
    demo
}

/// Generator bundle for a valid recorded-shaped demo.
#[allow(clippy::type_complexity)]
fn valid_demo() -> impl Strategy<Value = Demo> {
    (1usize..5)
        .prop_flat_map(|nthreads| {
            (
                Just(nthreads),
                proptest::collection::vec(0..nthreads, 1..40),
                proptest::collection::vec((0..nthreads, 0u64..40, 1i32..32), 0..8),
                proptest::collection::vec(
                    (
                        0..nthreads,
                        0u64..40,
                        proptest::collection::vec(
                            proptest::collection::vec(any::<u8>(), 0..32),
                            0..3,
                        ),
                    ),
                    0..5,
                ),
                proptest::collection::vec((any::<bool>(), 0..nthreads, 0u64..40), 0..6),
                proptest::collection::vec(0u64..1_000_000, 0..16),
            )
        })
        .prop_map(|(nthreads, order, signals, syscalls, asyncs, alloc)| {
            demo_from_schedule(nthreads, &order, &signals, &syscalls, &asyncs, alloc)
        })
}

proptest! {
    #[test]
    fn u64_codec_roundtrips(values in proptest::collection::vec(0u64..10_000, 0..200)) {
        let enc = rle::encode_u64s(&values);
        prop_assert_eq!(rle::decode_u64s(&enc).unwrap(), values);
    }

    #[test]
    fn u64_codec_roundtrips_extremes(values in proptest::collection::vec(0u64..=u64::MAX / 2, 0..50)) {
        let enc = rle::encode_u64s(&values);
        prop_assert_eq!(rle::decode_u64s(&enc).unwrap(), values);
    }

    #[test]
    fn byte_codec_roundtrips(data in proptest::collection::vec(any::<u8>(), 0..600)) {
        let enc = rle::encode_bytes(&data);
        prop_assert_eq!(rle::decode_bytes(&enc).unwrap(), data);
    }

    #[test]
    fn byte_codec_roundtrips_runs(byte in any::<u8>(), n in 0usize..2000) {
        let data = vec![byte; n];
        let enc = rle::encode_bytes(&data);
        prop_assert_eq!(rle::decode_bytes(&enc).unwrap(), data);
    }

    #[test]
    fn byte_codec_compresses_runs(byte in any::<u8>(), n in 256usize..2000) {
        let data = vec![byte; n];
        let enc = rle::encode_bytes(&data);
        // 3 bytes (6 hex chars) per 255-run.
        prop_assert!(enc.len() <= (n / 255 + 1) * 6 + 8);
    }

    #[test]
    fn hex_roundtrips(data in proptest::collection::vec(any::<u8>(), 0..200)) {
        prop_assert_eq!(rle::from_hex(&rle::to_hex(&data)).unwrap(), data);
    }

    #[test]
    fn demo_roundtrips(
        seeds in (any::<u64>(), any::<u64>()),
        first in proptest::collection::vec(0u64..1000, 0..8),
        ticks in proptest::collection::vec(0u64..1000, 0..64),
        signals in proptest::collection::vec((0u32..8, 0u64..1000, 1i32..32), 0..10),
        alloc in proptest::collection::vec(0u64..1_000_000, 0..32),
        bufs in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..64), 0..4),
    ) {
        let mut demo = Demo::new(DemoHeader::new("tsan11rec", "queue", [seeds.0, seeds.1]));
        demo.queue = QueueStream::new(first, &ticks);
        demo.signals = signals
            .into_iter()
            .map(|(tid, tick, signo)| SignalEvent { tid, tick, signo })
            .collect();
        demo.alloc = alloc;
        demo.async_events = vec![
            AsyncEvent::Reschedule { tick: 3 },
            AsyncEvent::SignalWakeup { tid: 1, tick: 9 },
        ];
        demo.syscalls = vec![SyscallRecord {
            seq: 0,
            tid: 2,
            tick: 17,
            kind: "recvmsg".into(),
            ret: -1,
            errno: 11,
            bufs,
        }];
        // Arbitrary streams are mostly not replayable: loading must agree
        // with validation either way.
        let violations = demo.validate();
        let map = demo.to_string_map();
        match Demo::from_string_map(&map) {
            Ok(back) => {
                prop_assert!(violations.is_empty(), "loaded despite {violations:?}");
                prop_assert_eq!(back, demo);
            }
            Err(DemoLoadError::Invalid(v)) => prop_assert_eq!(v, violations),
            Err(e) => panic!("syntax error on a serialized demo: {e}"),
        }
    }

    /// Any demo shaped like a real recording validates clean and
    /// serializes to files that load back equal.
    #[test]
    fn schedule_shaped_demos_validate_clean(demo in valid_demo()) {
        let violations = demo.validate();
        prop_assert!(violations.is_empty(), "clean demo flagged: {violations:?}");
        prop_assert_eq!(Demo::from_string_map(&demo.to_string_map()).unwrap(), demo);
    }

    /// Corrupting any digit in any *stream* file (every digit there is
    /// part of a number or an RLE/hex payload) is caught: parsing or
    /// validation fails — a corruption can never slip through and
    /// silently change the demo.
    #[test]
    fn digit_corruption_is_caught(demo in valid_demo(), file_pick in any::<u32>(), pos_pick in any::<u32>()) {
        let mut map = demo.to_string_map();
        let streams: Vec<String> = map
            .keys()
            .filter(|k| k.as_str() != "HEADER")
            .cloned()
            .collect();
        prop_assume!(!streams.is_empty());
        let name = streams[file_pick as usize % streams.len()].clone();
        let text = map[&name].clone();
        let digit_positions: Vec<usize> = text
            .char_indices()
            .filter(|&(_, c)| c.is_ascii_digit())
            .map(|(i, _)| i)
            .collect();
        prop_assume!(!digit_positions.is_empty());
        let pos = digit_positions[pos_pick as usize % digit_positions.len()];
        let mut bytes = text.into_bytes();
        bytes[pos] = b'x';
        map.insert(name.clone(), String::from_utf8(bytes).unwrap());

        let reparsed = Demo::from_string_map(&map);
        prop_assert!(
            reparsed.is_err(),
            "corrupting {name} byte {pos} slipped through: parsed to {reparsed:?}"
        );
    }

    /// Deleting a buffer line from SYSCALL leaves a record short of its
    /// declared `nbufs` — the loader must catch the truncation.
    #[test]
    fn missing_syscall_buffer_is_caught(demo in valid_demo(), pick in any::<u32>()) {
        let map = demo.to_string_map();
        let text = map.get("SYSCALL").cloned().unwrap_or_default();
        let buf_lines: Vec<usize> = text
            .lines()
            .enumerate()
            .filter(|(_, l)| l.trim_start().starts_with("buf "))
            .map(|(i, _)| i)
            .collect();
        prop_assume!(!buf_lines.is_empty());
        let drop_ln = buf_lines[pick as usize % buf_lines.len()];
        let corrupted: String = text
            .lines()
            .enumerate()
            .filter(|&(i, _)| i != drop_ln)
            .map(|(_, l)| format!("{l}\n"))
            .collect();
        let mut map = map.clone();
        map.insert("SYSCALL".to_owned(), corrupted);
        let file = match Demo::from_string_map(&map) {
            Err(DemoLoadError::Malformed { file, .. }) => file,
            other => panic!("missing buf line not caught: {other:?}"),
        };
        prop_assert_eq!(file, "SYSCALL");
    }
}

// ---------------------------------------------------------------------------
// Binary codec properties: the framed format introduced alongside the
// text form must roundtrip on the same arbitrary inputs, and converting
// through either format must be the identity on the other's canonical
// serialization.

proptest! {
    /// Arbitrary recorded-shaped demos roundtrip through the binary map.
    #[test]
    fn binary_codec_roundtrips(demo in valid_demo()) {
        let map = demo.to_bytes_map();
        prop_assert_eq!(Demo::from_bytes_map(&map).unwrap(), demo);
    }

    /// text → bin → text is the identity on the canonical text form.
    #[test]
    fn text_bin_text_is_identity(demo in valid_demo()) {
        let text = demo.to_string_map();
        let through = Demo::from_string_map(&text).unwrap();
        let back = Demo::from_bytes_map(&through.to_bytes_map()).unwrap();
        prop_assert_eq!(back.to_string_map(), text);
    }

    /// bin → text → bin is the identity on the canonical binary form.
    #[test]
    fn bin_text_bin_is_identity(demo in valid_demo()) {
        let bin = demo.to_bytes_map();
        let through = Demo::from_bytes_map(&bin).unwrap();
        let back = Demo::from_string_map(&through.to_string_map()).unwrap();
        prop_assert_eq!(back.to_bytes_map(), bin);
    }

    /// Schedules synthesized via `QueueStream::from_order` /
    /// `Demo::from_schedule` (the witness-synthesis path) survive the
    /// binary codec for arbitrary thread counts and tick orders.
    #[test]
    fn from_schedule_roundtrips_through_binary(
        nthreads in 1usize..8,
        picks in proptest::collection::vec(any::<u32>(), 0..60),
    ) {
        // Dense ticks 1..=n assigned to arbitrary threads, the shape
        // `from_schedule` documents.
        let order: Vec<(u32, u64)> = picks
            .iter()
            .enumerate()
            .map(|(i, &p)| (p % nthreads as u32, (i + 1) as u64))
            .collect();
        let demo = Demo::from_schedule(
            DemoHeader::new("tsan11rec", "queue", [3, 11]),
            &order,
            nthreads,
        );
        prop_assert_eq!(
            &demo.queue,
            &QueueStream::from_order(&order, nthreads),
            "from_schedule must delegate to from_order"
        );
        let back = Demo::from_bytes_map(&demo.to_bytes_map()).unwrap();
        prop_assert_eq!(&back, &demo);
        // The replay cursor semantics ride on the QUEUE stream alone;
        // byte-level equality of the re-encoded stream pins it.
        prop_assert_eq!(back.queue, demo.queue);
    }
}

// ---------------------------------------------------------------------------
// QUEUE as runs: the recorder and both loaders keep the next-tick list as
// canonical RLE tokens and never expand it, so the tokens must be exactly
// the ones the expanded list tokenizes to.

/// The greedy run detection the codecs have always used, tokenizing a
/// whole slice at once: from each position the longest arithmetic(+1)
/// run, else the longest constant run, else a literal. The reference
/// `rle::Tokenizer`'s streaming form must agree with, or demos would not
/// stay byte-identical.
fn greedy_tokens(values: &[u64]) -> Vec<U64Token> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < values.len() {
        let v = values[i];
        let inc = (1..)
            .take_while(|&d| values.get(i + d) == Some(&(v + d as u64)))
            .count()
            + 1;
        let rep = (1..).take_while(|&d| values.get(i + d) == Some(&v)).count() + 1;
        if inc >= rep && inc > 1 {
            out.push(U64Token::IncRun {
                base: v,
                extra: (inc - 1) as u64,
            });
            i += inc;
        } else if rep > 1 {
            out.push(U64Token::Repeat {
                value: v,
                count: rep as u64,
            });
            i += rep;
        } else {
            out.push(U64Token::Literal(v));
            i += 1;
        }
    }
    out
}

/// An arbitrary RLE token, canonical or not.
fn token() -> impl Strategy<Value = U64Token> {
    prop_oneof![
        (0u64..40).prop_map(U64Token::Literal),
        (0u64..40, 1u64..6).prop_map(|(base, extra)| U64Token::IncRun { base, extra }),
        (0u64..40, 2u64..6).prop_map(|(value, count)| U64Token::Repeat { value, count }),
    ]
}

proptest! {
    /// Runs built the way the recorder builds them tokenize exactly like
    /// the expanded list, so binary demos stay byte-identical.
    #[test]
    fn recorder_runs_tokenize_like_the_expanded_list(
        nthreads in 1usize..6,
        runs in proptest::collection::vec((any::<u32>(), 1usize..40), 0..40),
    ) {
        let order: Vec<usize> = runs
            .iter()
            .flat_map(|&(pick, len)| (0..len).map(move |_| pick as usize % nthreads))
            .collect();
        let (first, next) = expanded_queue(nthreads, &order);
        let mut recorder = ScheduleRuns::default();
        for (tick, &tid) in (1u64..).zip(&order) {
            recorder.push(tid as u32, tick);
        }
        let q = recorder.into_queue(nthreads);
        prop_assert_eq!(q.next_tick_tokens(), rle::u64_tokens(&next).as_slice());
        prop_assert_eq!(&q.first_tick, &first);
        prop_assert_eq!(q.next_tick_count(), next.len());
        let header = DemoHeader::new("tsan11rec", "queue", [1, 2]);
        let mut from_runs = Demo::new(header.clone());
        from_runs.queue = q;
        let mut from_list = Demo::new(header);
        from_list.queue = QueueStream::new(first, &next);
        prop_assert_eq!(from_runs.to_bytes_map(), from_list.to_bytes_map());
    }

    /// The streaming tokenizer cuts runs exactly where the greedy one does.
    #[test]
    fn tokenizer_matches_the_greedy_reference(tokens in proptest::collection::vec(token(), 0..30)) {
        let values: Vec<u64> = rle::Expand::new(tokens.iter().copied()).collect();
        prop_assert_eq!(rle::u64_tokens(&values), greedy_tokens(&values));
    }

    /// Any token sequence, canonical or not, becomes the canonical runs
    /// of its values, so streams compare by value.
    #[test]
    fn non_canonical_tokens_canonicalize(tokens in proptest::collection::vec(token(), 0..30)) {
        let values: Vec<u64> = rle::Expand::new(tokens.iter().copied()).collect();
        let q = QueueStream::from_tokens(vec![1], tokens.iter().copied());
        prop_assert_eq!(&q, &QueueStream::new(vec![1], &values));
        prop_assert_eq!(q.next_ticks().collect::<Vec<_>>(), values);
        // The text form reads the tokens back as written.
        prop_assert_eq!(rle::parse_tokens(&rle::format_tokens(&tokens)).unwrap(), tokens);
    }
}
