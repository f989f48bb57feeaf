//! Corruption battery for the binary demo codec, run against a full
//! demo with every stream populated: any truncation, any single-bit
//! flip, a wrong magic, an unknown codec version, and a crafted varint
//! overflow must all surface as typed [`DemoLoadError`]s — never a
//! panic, never a silently-wrong demo.
//!
//! The checksum makes the bit-flip guarantee exhaustive rather than
//! probabilistic: the fnv1a64 trailer covers every byte after the magic,
//! so a flip either breaks the magic ([`CodecError::BadMagic`]) or the
//! checksum, before any payload decoding is trusted.

use std::collections::BTreeMap;

use srr_replay::{
    AsyncEvent, CodecError, Demo, DemoHeader, DemoLoadError, QueueStream, SignalEvent,
    SyscallRecord,
};

/// A demo exercising every stream and every payload encoder: RLE-friendly
/// and RLE-hostile queue runs, interned and distinct syscall kinds,
/// compressible and incompressible buffers. Every stream is valid, so a
/// load that fails is the corruption's doing.
fn full_demo() -> Demo {
    let mut demo = Demo::new(DemoHeader::new("tsan11rec", "queue", [7, 40398]));
    // 200 ticks over 3 threads: round-robin stretches (RLE-hostile
    // next-tick lists) alternate with one thread running 20 ticks in a
    // row (`k+1` runs the RLE collapses).
    let order: Vec<(u32, u64)> = (1..=200u64)
        .map(|tick| {
            let tid = match tick {
                1..=8 => (tick - 1) % 2,
                9 => 2,
                _ if (tick / 20) % 2 == 0 => (tick / 40) % 3,
                _ => tick % 3,
            };
            (tid as u32, tick)
        })
        .collect();
    demo.queue = QueueStream::from_order(&order, 3);
    demo.signals = (0..10)
        .map(|i| SignalEvent {
            tid: i % 3,
            tick: u64::from(i) * 5 + 1,
            signo: 10 + i as i32 % 3,
        })
        .collect();
    demo.syscalls = (0..25)
        .map(|i| SyscallRecord {
            seq: i,
            tid: (i % 3) as u32,
            tick: i * 3 + 2,
            kind: if i % 2 == 0 { "recvmsg" } else { "poll" }.to_owned(),
            ret: if i % 5 == 0 { -1 } else { i as i64 },
            errno: if i % 5 == 0 { 11 } else { 0 },
            bufs: vec![vec![0xAB; 64], (0..64u8).collect()],
        })
        .collect();
    demo.async_events = vec![
        AsyncEvent::Reschedule { tick: 4 },
        AsyncEvent::SignalWakeup { tid: 2, tick: 19 },
    ];
    demo.alloc = (0..64).map(|i| 0x1000 + i * 16).collect();
    assert!(demo.validate().is_empty(), "{:?}", demo.validate());
    demo
}

fn load(map: &BTreeMap<String, Vec<u8>>) -> Result<Demo, DemoLoadError> {
    Demo::from_bytes_map(map)
}

#[test]
fn every_truncation_of_every_stream_is_rejected() {
    let demo = full_demo();
    let map = demo.to_bytes_map();
    for (file, bytes) in &map {
        for keep in 0..bytes.len() {
            let mut m = map.clone();
            m.insert(file.clone(), bytes[..keep].to_vec());
            let got = load(&m);
            // An empty non-HEADER file is a legitimately absent stream;
            // everything else must be a typed load error.
            if keep == 0 && file != "HEADER" {
                let d = got.unwrap_or_else(|e| panic!("{file} empty = absent: {e}"));
                assert!(
                    demo != d,
                    "{file}: emptying a populated stream must change the demo"
                );
                continue;
            }
            // Truncating below the 4-byte magic demotes the file to
            // "looks like text"; either parser must reject it, typed,
            // blaming the right file.
            let err = got.unwrap_err();
            assert!(
                matches!(&err, DemoLoadError::Codec { file: f, .. } if f == file)
                    || matches!(&err, DemoLoadError::Malformed { file: f, .. } if f == file)
                    || (file == "HEADER" && matches!(err, DemoLoadError::MissingHeader)),
                "{file} truncated to {keep} bytes: wrong error {err}"
            );
        }
    }
}

#[test]
fn every_single_bit_flip_is_rejected() {
    let map = full_demo().to_bytes_map();
    for (file, bytes) in &map {
        for pos in 0..bytes.len() {
            for bit in 0..8 {
                let mut m = map.clone();
                m.get_mut(file).unwrap()[pos] ^= 1 << bit;
                let err = load(&m).expect_err("flip undetected");
                // Flips inside the 4-byte magic may demote the file to
                // "looks like text" — still a typed Malformed error.
                match err {
                    DemoLoadError::Codec { file: f, .. }
                    | DemoLoadError::Malformed { file: f, .. } => {
                        assert_eq!(&f, file, "error blames the corrupted file")
                    }
                    DemoLoadError::MissingHeader => assert_eq!(file, "HEADER"),
                    other => panic!("{file} byte {pos} bit {bit}: unexpected {other}"),
                }
            }
        }
    }
}

#[test]
fn bad_magic_and_unknown_version_are_typed() {
    let map = full_demo().to_bytes_map();
    let queue = map.get("QUEUE").unwrap();

    // A wholly different magic: not binary, not valid text either.
    let mut m = map.clone();
    m.insert("QUEUE".to_owned(), {
        let mut b = queue.clone();
        b[..4].copy_from_slice(b"NOPE");
        b
    });
    assert!(
        matches!(load(&m).unwrap_err(), DemoLoadError::Malformed { ref file, .. } if file == "QUEUE"),
        "foreign magic must read as malformed text, not panic"
    );

    // The real magic with a from-the-future codec version.
    let mut b = queue.clone();
    b[4] = 0x7F; // varint 127 where CODEC_VERSION=1 lives
    let mut m = map.clone();
    m.insert("QUEUE".to_owned(), b);
    match load(&m).unwrap_err() {
        DemoLoadError::Codec { file, err } => {
            assert_eq!(file, "QUEUE");
            // The checksum no longer matches the rewritten byte, and
            // both rejections are acceptable orderings; what matters is
            // the typed error, not which guard fired first.
            assert!(
                matches!(err, CodecError::UnsupportedVersion(127))
                    || matches!(err, CodecError::ChecksumMismatch { .. }),
                "unexpected codec error: {err}"
            );
        }
        other => panic!("unexpected {other}"),
    }
}

#[test]
fn crafted_varint_overflow_is_typed() {
    // An 11-byte all-continuation varint can encode no u64; splice one in
    // as the payload length, with a freshly valid checksum so the frame
    // itself passes and the varint reader is what must object.
    let mut frame = Vec::new();
    frame.extend_from_slice(b"SRRB");
    frame.push(1); // codec version
    frame.push(1); // stream id: QUEUE
    frame.extend_from_slice(&[0xFF; 10]); // overflowing varint
    let crc = srr_replay::codec::fnv1a64(&frame[4..]);
    frame.extend_from_slice(&crc.to_le_bytes());

    let mut map = full_demo().to_bytes_map();
    map.insert("QUEUE".to_owned(), frame);
    match load(&map).unwrap_err() {
        DemoLoadError::Codec { file, err } => {
            assert_eq!(file, "QUEUE");
            assert!(
                matches!(err, CodecError::VarintOverflow { .. }),
                "unexpected codec error: {err}"
            );
        }
        other => panic!("unexpected {other}"),
    }
}

#[test]
fn corrupt_demos_never_load_equal() {
    // Paranoia sweep: across every corruption mode above, no mutated map
    // may ever load back *equal* to the original (a load error or a
    // different demo are both fine; silent equality is the one disaster).
    let demo = full_demo();
    let map = demo.to_bytes_map();
    for (file, bytes) in &map {
        for pos in (0..bytes.len()).step_by(7) {
            let mut m = map.clone();
            m.get_mut(file).unwrap()[pos] ^= 0x10;
            if let Ok(loaded) = load(&m) {
                assert_ne!(loaded, demo, "{file} byte {pos}: corruption loaded equal");
            }
        }
    }
}
