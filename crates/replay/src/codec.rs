//! The binary demo codec: per-stream framing with a magic/version
//! header, varint + RLE payload encoding, and a zero-copy cursor reader.
//!
//! Each stream of a demo serializes to one self-describing *frame*:
//!
//! ```text
//! +-------+----------------+-----------+--------------+---------+----------+
//! | magic | codec version  | stream id | payload len  | payload | checksum |
//! | SRRB  | varint         | 1 byte    | varint       | bytes   | fnv64 LE |
//! +-------+----------------+-----------+--------------+---------+----------+
//! ```
//!
//! The checksum is FNV-1a/64 over everything between the magic and the
//! checksum itself, so *any* single-bit corruption of a frame is either a
//! bad magic or a checksum mismatch — the decoder never misreads a
//! damaged stream as a shorter or different one (the corruption battery
//! in `tests/corruption.rs` proves this bit by bit).
//!
//! Payloads are varint (LEB128) based:
//!
//! * integer sequences (QUEUE next-ticks, ALLOC) use the same three-token
//!   RLE model as the text codec ([`crate::rle`]) — literal / arithmetic
//!   run / constant repeat — with a tag byte per token;
//! * syscall output buffers use the text codec's byte-RLE chunk grammar
//!   directly (no hex expansion — this is where binary wins big);
//! * syscall kind names are interned into a per-stream string table, so a
//!   10k-request httpd demo stores `recv` once, not 10k times.
//!
//! The layout is mmap-able: frames are length-prefixed, contain no
//! internal pointers, and decode by walking a borrowed `&[u8]` with a
//! [`Cursor`] — no intermediate line splitting, no `Vec<String>`, and
//! every buffer decodes straight into its final `Vec<u8>`.

use std::error::Error;
use std::fmt;

use crate::demo::{DemoHeader, FORMAT_VERSION};
use crate::rle;
use crate::streams::{AsyncEvent, QueueStream, SignalEvent, SyscallRecord};

/// The four magic bytes opening every binary stream file.
pub const MAGIC: [u8; 4] = *b"SRRB";

/// Binary codec version understood by this crate (independent of the
/// demo [`FORMAT_VERSION`], which describes the logical stream model).
pub const CODEC_VERSION: u64 = 1;

/// The streams a demo serializes, with their on-disk file names.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum StreamId {
    /// Recording metadata (tool, strategy, seeds).
    Header = 0,
    /// Queue-strategy interleaving.
    Queue = 1,
    /// Asynchronous signals.
    Signal = 2,
    /// Recorded syscalls.
    Syscall = 3,
    /// Asynchronous events.
    Async = 4,
    /// Allocator address stream.
    Alloc = 5,
}

impl StreamId {
    /// All streams, in serialization order.
    pub const ALL: [StreamId; 6] = [
        StreamId::Header,
        StreamId::Queue,
        StreamId::Signal,
        StreamId::Syscall,
        StreamId::Async,
        StreamId::Alloc,
    ];

    /// The stream's file name inside a demo directory (shared with the
    /// text format — the bytes, not the name, identify the format).
    #[must_use]
    pub fn file_name(self) -> &'static str {
        match self {
            StreamId::Header => "HEADER",
            StreamId::Queue => "QUEUE",
            StreamId::Signal => "SIGNAL",
            StreamId::Syscall => "SYSCALL",
            StreamId::Async => "ASYNC",
            StreamId::Alloc => "ALLOC",
        }
    }

    /// Inverse of [`StreamId::file_name`].
    #[must_use]
    pub fn from_file_name(name: &str) -> Option<StreamId> {
        StreamId::ALL
            .iter()
            .copied()
            .find(|s| s.file_name() == name)
    }

    fn from_byte(b: u8) -> Option<StreamId> {
        StreamId::ALL.iter().copied().find(|s| *s as u8 == b)
    }
}

/// A typed decode failure. Every corrupt input maps to one of these —
/// the decoder never panics and (thanks to the frame checksum) never
/// silently misreads flipped bits.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The frame does not start with [`MAGIC`].
    BadMagic {
        /// What was found instead (zero-padded when shorter).
        found: [u8; 4],
    },
    /// The frame's codec version is newer than this build understands.
    UnsupportedVersion(u64),
    /// The frame names a stream id this build does not know.
    UnknownStream(u8),
    /// The frame is for a different stream than the file name promised.
    WrongStream {
        /// Stream the caller expected from the file name.
        expected: StreamId,
        /// Stream the frame actually carries.
        found: StreamId,
    },
    /// Input ended before the named element was complete.
    Truncated {
        /// What was being read.
        what: &'static str,
        /// Byte offset at which input ran out.
        offset: usize,
    },
    /// A varint ran past 10 bytes or past 64 bits.
    VarintOverflow {
        /// Byte offset of the varint's first byte.
        offset: usize,
    },
    /// The frame checksum does not match its contents.
    ChecksumMismatch {
        /// Checksum stored in the frame.
        stored: u64,
        /// Checksum computed over the frame contents.
        computed: u64,
    },
    /// Bytes remained after the payload's declared end.
    TrailingBytes {
        /// Offset of the first surplus byte.
        offset: usize,
    },
    /// A structurally valid read produced an invalid value.
    Invalid {
        /// Description of the violated constraint.
        what: String,
        /// Byte offset of the offending element.
        offset: usize,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::BadMagic { found } => {
                write!(f, "bad magic {found:02x?} (expected SRRB)")
            }
            CodecError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported codec version {v} (this build reads v{CODEC_VERSION})"
                )
            }
            CodecError::UnknownStream(b) => write!(f, "unknown stream id {b}"),
            CodecError::WrongStream { expected, found } => write!(
                f,
                "frame is a {} stream but the file name says {}",
                found.file_name(),
                expected.file_name()
            ),
            CodecError::Truncated { what, offset } => {
                write!(f, "truncated while reading {what} at byte {offset}")
            }
            CodecError::VarintOverflow { offset } => {
                write!(f, "varint overflow at byte {offset}")
            }
            CodecError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checksum mismatch: stored {stored:016x}, computed {computed:016x}"
            ),
            CodecError::TrailingBytes { offset } => {
                write!(f, "trailing bytes after payload at byte {offset}")
            }
            CodecError::Invalid { what, offset } => {
                write!(f, "invalid value at byte {offset}: {what}")
            }
        }
    }
}

impl Error for CodecError {}

// ---------------------------------------------------------------------
// Hashing: FNV-1a (64-bit for frame checksums, 128-bit for the store's
// content addresses)
// ---------------------------------------------------------------------

/// FNV-1a/64 of `data` — the frame checksum.
#[must_use]
pub fn fnv1a64(data: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// FNV-1a/128 of `data` — the [`crate::DemoStore`] content address.
#[must_use]
pub fn fnv1a128(data: &[u8]) -> u128 {
    let mut hash: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
    for &b in data {
        hash ^= u128::from(b);
        hash = hash.wrapping_mul(0x0000_0000_0100_0000_0000_0000_0000_013B);
    }
    hash
}

// ---------------------------------------------------------------------
// Zero-copy cursor
// ---------------------------------------------------------------------

/// A zero-copy reader over a borrowed byte slice. All `read_*` methods
/// advance the cursor; byte and string reads return views into the
/// underlying buffer, never copies.
#[derive(Clone, Copy, Debug)]
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `buf`.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    /// Current byte offset.
    #[must_use]
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the cursor has consumed the whole buffer.
    #[must_use]
    pub fn is_at_end(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] at end of input.
    pub fn read_u8(&mut self, what: &'static str) -> Result<u8, CodecError> {
        let b = *self.buf.get(self.pos).ok_or(CodecError::Truncated {
            what,
            offset: self.pos,
        })?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads `len` bytes as a borrowed slice (zero-copy).
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] when fewer than `len` bytes remain.
    pub fn read_bytes(&mut self, len: usize, what: &'static str) -> Result<&'a [u8], CodecError> {
        let end = self.pos.checked_add(len).ok_or(CodecError::Truncated {
            what,
            offset: self.pos,
        })?;
        let slice = self.buf.get(self.pos..end).ok_or(CodecError::Truncated {
            what,
            offset: self.pos,
        })?;
        self.pos = end;
        Ok(slice)
    }

    /// Reads a LEB128 varint (at most 10 bytes / 64 bits).
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] at end of input,
    /// [`CodecError::VarintOverflow`] past 64 bits.
    pub fn read_varint(&mut self, what: &'static str) -> Result<u64, CodecError> {
        let start = self.pos;
        let mut value: u64 = 0;
        let mut shift = 0u32;
        loop {
            let b = self.read_u8(what)?;
            let payload = u64::from(b & 0x7f);
            // The 10th byte may only carry the top single bit of a u64.
            if shift >= 64 || (shift == 63 && payload > 1) {
                return Err(CodecError::VarintOverflow { offset: start });
            }
            value |= payload << shift;
            if b & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
        }
    }

    /// Reads a zigzag-encoded signed varint.
    ///
    /// # Errors
    ///
    /// As [`Cursor::read_varint`].
    pub fn read_zigzag(&mut self, what: &'static str) -> Result<i64, CodecError> {
        let raw = self.read_varint(what)?;
        Ok(decode_zigzag(raw))
    }

    /// Reads a length-prefixed UTF-8 string as a borrowed `&str`.
    ///
    /// # Errors
    ///
    /// Truncation or [`CodecError::Invalid`] on non-UTF-8 bytes.
    pub fn read_str(&mut self, what: &'static str) -> Result<&'a str, CodecError> {
        let start = self.pos;
        let len = self.read_varint(what)?;
        let len = usize::try_from(len).map_err(|_| CodecError::Invalid {
            what: format!("{what} length {len} does not fit in memory"),
            offset: start,
        })?;
        let bytes = self.read_bytes(len, what)?;
        std::str::from_utf8(bytes).map_err(|_| CodecError::Invalid {
            what: format!("{what} is not UTF-8"),
            offset: start,
        })
    }
}

/// Appends a LEB128 varint.
pub fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Appends a zigzag-encoded signed varint.
pub fn write_zigzag(out: &mut Vec<u8>, v: i64) {
    write_varint(out, encode_zigzag(v));
}

fn encode_zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn decode_zigzag(raw: u64) -> i64 {
    ((raw >> 1) as i64) ^ -((raw & 1) as i64)
}

fn write_str(out: &mut Vec<u8>, s: &str) {
    write_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

// ---------------------------------------------------------------------
// Frames
// ---------------------------------------------------------------------

/// A parsed frame: the stream it carries and a borrowed view of its
/// payload (checksum already verified).
#[derive(Clone, Copy, Debug)]
pub struct Frame<'a> {
    /// The stream this frame serializes.
    pub stream: StreamId,
    /// The stream payload (borrowed, zero-copy).
    pub payload: &'a [u8],
}

/// Whether `bytes` look like a binary stream frame (magic check only —
/// the auto-detect probe used by [`crate::Demo::load_dir`]).
#[must_use]
pub fn is_binary(bytes: &[u8]) -> bool {
    bytes.len() >= MAGIC.len() && bytes[..MAGIC.len()] == MAGIC
}

/// Wraps a stream payload into a framed file image.
#[must_use]
pub fn encode_frame(stream: StreamId, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 24);
    out.extend_from_slice(&MAGIC);
    write_varint(&mut out, CODEC_VERSION);
    out.push(stream as u8);
    write_varint(&mut out, payload.len() as u64);
    out.extend_from_slice(payload);
    let sum = fnv1a64(&out[MAGIC.len()..]);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// Parses and verifies a framed file image, returning a zero-copy view.
///
/// # Errors
///
/// Any [`CodecError`]; in particular every single-bit corruption of the
/// input fails here (bad magic or checksum mismatch).
pub fn parse_frame(bytes: &[u8]) -> Result<Frame<'_>, CodecError> {
    if bytes.len() < MAGIC.len() || bytes[..MAGIC.len()] != MAGIC {
        let mut found = [0u8; 4];
        for (slot, b) in found.iter_mut().zip(bytes) {
            *slot = *b;
        }
        return Err(CodecError::BadMagic { found });
    }
    if bytes.len() < MAGIC.len() + 8 {
        return Err(CodecError::Truncated {
            what: "frame checksum",
            offset: bytes.len(),
        });
    }
    let (body, sum_bytes) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(sum_bytes.try_into().expect("split_at(len-8)"));
    let computed = fnv1a64(&body[MAGIC.len()..]);
    if stored != computed {
        return Err(CodecError::ChecksumMismatch { stored, computed });
    }
    let mut cur = Cursor::new(body);
    cur.pos = MAGIC.len();
    let version = cur.read_varint("codec version")?;
    if version != CODEC_VERSION {
        return Err(CodecError::UnsupportedVersion(version));
    }
    let id = cur.read_u8("stream id")?;
    let stream = StreamId::from_byte(id).ok_or(CodecError::UnknownStream(id))?;
    let len = cur.read_varint("payload length")?;
    let len = usize::try_from(len).map_err(|_| CodecError::Invalid {
        what: format!("payload length {len} does not fit in memory"),
        offset: cur.pos(),
    })?;
    let payload = cur.read_bytes(len, "payload")?;
    if !cur.is_at_end() {
        return Err(CodecError::TrailingBytes { offset: cur.pos() });
    }
    Ok(Frame { stream, payload })
}

// ---------------------------------------------------------------------
// RLE integer blocks (shared token model with the text codec)
// ---------------------------------------------------------------------

const TOK_LITERAL: u8 = 0;
const TOK_INC_RUN: u8 = 1;
const TOK_REPEAT: u8 = 2;

fn write_u64_block(out: &mut Vec<u8>, values: &[u64]) {
    write_tokens(out, &rle::u64_tokens(values));
}

fn write_tokens(out: &mut Vec<u8>, tokens: &[rle::U64Token]) {
    write_varint(out, tokens.len() as u64);
    for &tok in tokens {
        match tok {
            rle::U64Token::Literal(v) => {
                out.push(TOK_LITERAL);
                write_varint(out, v);
            }
            rle::U64Token::IncRun { base, extra } => {
                out.push(TOK_INC_RUN);
                write_varint(out, base);
                write_varint(out, extra);
            }
            rle::U64Token::Repeat { value, count } => {
                out.push(TOK_REPEAT);
                write_varint(out, value);
                write_varint(out, count);
            }
        }
    }
}

fn read_u64_block(cur: &mut Cursor<'_>, what: &'static str) -> Result<Vec<u64>, CodecError> {
    Ok(rle::Expand::new(read_tokens(cur, what)?).collect())
}

/// Reads a token block without expanding it; the tokens are valid (runs
/// in range) but not necessarily canonical.
fn read_tokens(cur: &mut Cursor<'_>, what: &'static str) -> Result<Vec<rle::U64Token>, CodecError> {
    let ntokens = cur.read_varint(what)?;
    // Each token is at least 2 bytes; reject claims the input cannot hold
    // before reserving anything.
    if ntokens > (cur.remaining() as u64) {
        return Err(CodecError::Truncated {
            what,
            offset: cur.pos(),
        });
    }
    let mut out = Vec::new();
    for _ in 0..ntokens {
        let at = cur.pos();
        match cur.read_u8(what)? {
            TOK_LITERAL => out.push(rle::U64Token::Literal(cur.read_varint(what)?)),
            TOK_INC_RUN => {
                let base = cur.read_varint(what)?;
                let extra = cur.read_varint(what)?;
                if extra == 0 || extra > rle::MAX_RUN {
                    return Err(CodecError::Invalid {
                        what: format!("run length {extra} out of range in {what}"),
                        offset: at,
                    });
                }
                if base.checked_add(extra).is_none() {
                    return Err(CodecError::Invalid {
                        what: format!("run {base}+{extra} overflows in {what}"),
                        offset: at,
                    });
                }
                out.push(rle::U64Token::IncRun { base, extra });
            }
            TOK_REPEAT => {
                let value = cur.read_varint(what)?;
                let count = cur.read_varint(what)?;
                if !(2..=rle::MAX_RUN).contains(&count) {
                    return Err(CodecError::Invalid {
                        what: format!("repeat count {count} out of range in {what}"),
                        offset: at,
                    });
                }
                out.push(rle::U64Token::Repeat { value, count });
            }
            tag => {
                return Err(CodecError::Invalid {
                    what: format!("unknown RLE token tag {tag} in {what}"),
                    offset: at,
                })
            }
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Stream payload codecs
// ---------------------------------------------------------------------

/// Encodes the HEADER payload.
#[must_use]
pub(crate) fn encode_header(h: &DemoHeader) -> Vec<u8> {
    let mut out = Vec::new();
    write_varint(&mut out, u64::from(h.version));
    write_str(&mut out, &h.tool);
    write_str(&mut out, &h.strategy);
    write_varint(&mut out, h.seeds[0]);
    write_varint(&mut out, h.seeds[1]);
    out
}

pub(crate) fn decode_header(payload: &[u8]) -> Result<DemoHeader, CodecError> {
    let mut cur = Cursor::new(payload);
    let version = cur.read_varint("header version")?;
    let version = u32::try_from(version).map_err(|_| CodecError::Invalid {
        what: format!("demo version {version} out of range"),
        offset: 0,
    })?;
    if version != FORMAT_VERSION {
        return Err(CodecError::Invalid {
            what: format!("unsupported demo version {version}"),
            offset: 0,
        });
    }
    let tool = cur.read_str("tool")?.to_owned();
    let strategy = cur.read_str("strategy")?.to_owned();
    let seeds = [cur.read_varint("seed 0")?, cur.read_varint("seed 1")?];
    expect_end(&cur)?;
    Ok(DemoHeader {
        version,
        tool,
        strategy,
        seeds,
    })
}

pub(crate) fn encode_queue(q: &QueueStream) -> Vec<u8> {
    let mut out = Vec::new();
    write_u64_block(&mut out, &q.first_tick);
    write_tokens(&mut out, q.next_tick_tokens());
    out
}

pub(crate) fn decode_queue(payload: &[u8]) -> Result<QueueStream, CodecError> {
    let mut cur = Cursor::new(payload);
    let first_tick = read_u64_block(&mut cur, "QUEUE first ticks")?;
    let next_ticks = read_tokens(&mut cur, "QUEUE next ticks")?;
    expect_end(&cur)?;
    Ok(QueueStream::from_tokens(first_tick, next_ticks))
}

pub(crate) fn encode_signals(events: &[SignalEvent]) -> Vec<u8> {
    let mut out = Vec::new();
    write_varint(&mut out, events.len() as u64);
    for e in events {
        write_varint(&mut out, u64::from(e.tid));
        write_varint(&mut out, e.tick);
        write_zigzag(&mut out, i64::from(e.signo));
    }
    out
}

pub(crate) fn decode_signals(payload: &[u8]) -> Result<Vec<SignalEvent>, CodecError> {
    let mut cur = Cursor::new(payload);
    let count = cur.read_varint("SIGNAL count")?;
    let mut out = Vec::new();
    for _ in 0..count {
        let at = cur.pos();
        let tid = read_u32(&mut cur, "signal tid")?;
        let tick = cur.read_varint("signal tick")?;
        let signo = cur.read_zigzag("signal signo")?;
        let signo = i32::try_from(signo).map_err(|_| CodecError::Invalid {
            what: format!("signo {signo} out of range"),
            offset: at,
        })?;
        out.push(SignalEvent { tid, tick, signo });
    }
    expect_end(&cur)?;
    Ok(out)
}

pub(crate) fn encode_syscalls(records: &[SyscallRecord]) -> Vec<u8> {
    // Intern the kind names: most demos use a handful of kinds across
    // thousands of records.
    let mut kinds: Vec<&str> = Vec::new();
    for r in records {
        if !kinds.contains(&r.kind.as_str()) {
            kinds.push(&r.kind);
        }
    }
    let mut out = Vec::new();
    write_varint(&mut out, kinds.len() as u64);
    for k in &kinds {
        write_str(&mut out, k);
    }
    write_varint(&mut out, records.len() as u64);
    for r in records {
        write_varint(&mut out, r.seq);
        write_varint(&mut out, u64::from(r.tid));
        write_varint(&mut out, r.tick);
        let idx = kinds.iter().position(|k| *k == r.kind).expect("interned");
        write_varint(&mut out, idx as u64);
        write_zigzag(&mut out, r.ret);
        write_zigzag(&mut out, i64::from(r.errno));
        write_varint(&mut out, r.bufs.len() as u64);
        for b in &r.bufs {
            write_varint(&mut out, b.len() as u64);
            let chunks = rle::byte_chunks(b);
            write_varint(&mut out, chunks.len() as u64);
            out.extend_from_slice(&chunks);
        }
    }
    out
}

pub(crate) fn decode_syscalls(payload: &[u8]) -> Result<Vec<SyscallRecord>, CodecError> {
    let mut cur = Cursor::new(payload);
    let nkinds = cur.read_varint("SYSCALL kind count")?;
    if nkinds > cur.remaining() as u64 {
        return Err(CodecError::Truncated {
            what: "SYSCALL kind table",
            offset: cur.pos(),
        });
    }
    let mut kinds: Vec<&str> = Vec::with_capacity(nkinds as usize);
    for _ in 0..nkinds {
        kinds.push(cur.read_str("syscall kind")?);
    }
    let count = cur.read_varint("SYSCALL count")?;
    let mut out = Vec::new();
    for _ in 0..count {
        let at = cur.pos();
        let seq = cur.read_varint("syscall seq")?;
        let tid = read_u32(&mut cur, "syscall tid")?;
        let tick = cur.read_varint("syscall tick")?;
        let kind_idx = cur.read_varint("syscall kind index")?;
        let kind = kinds
            .get(usize::try_from(kind_idx).unwrap_or(usize::MAX))
            .ok_or(CodecError::Invalid {
                what: format!("kind index {kind_idx} out of table (len {})", kinds.len()),
                offset: at,
            })?
            .to_owned();
        let ret = cur.read_zigzag("syscall ret")?;
        let errno = cur.read_zigzag("syscall errno")?;
        let errno = i32::try_from(errno).map_err(|_| CodecError::Invalid {
            what: format!("errno {errno} out of range"),
            offset: at,
        })?;
        let nbufs = cur.read_varint("syscall buf count")?;
        if nbufs > cur.remaining() as u64 {
            return Err(CodecError::Truncated {
                what: "syscall buffers",
                offset: cur.pos(),
            });
        }
        let mut bufs = Vec::with_capacity(nbufs as usize);
        for _ in 0..nbufs {
            let buf_at = cur.pos();
            let raw_len = cur.read_varint("buf length")?;
            let chunk_len = cur.read_varint("buf chunk length")?;
            let chunk_len = usize::try_from(chunk_len).map_err(|_| CodecError::Invalid {
                what: format!("chunk length {chunk_len} does not fit in memory"),
                offset: buf_at,
            })?;
            let chunks = cur.read_bytes(chunk_len, "buf chunks")?;
            let data = rle::decode_byte_chunks(chunks).map_err(|e| CodecError::Invalid {
                what: e,
                offset: buf_at,
            })?;
            if data.len() as u64 != raw_len {
                return Err(CodecError::Invalid {
                    what: format!(
                        "buf length mismatch: declared {raw_len}, got {}",
                        data.len()
                    ),
                    offset: buf_at,
                });
            }
            bufs.push(data);
        }
        out.push(SyscallRecord {
            seq,
            tid,
            tick,
            kind: kind.to_owned(),
            ret,
            errno,
            bufs,
        });
    }
    expect_end(&cur)?;
    Ok(out)
}

const ASYNC_RESCHEDULE: u8 = 0;
const ASYNC_SIGWAKEUP: u8 = 1;

pub(crate) fn encode_asyncs(events: &[AsyncEvent]) -> Vec<u8> {
    let mut out = Vec::new();
    write_varint(&mut out, events.len() as u64);
    for e in events {
        match *e {
            AsyncEvent::Reschedule { tick } => {
                out.push(ASYNC_RESCHEDULE);
                write_varint(&mut out, tick);
            }
            AsyncEvent::SignalWakeup { tid, tick } => {
                out.push(ASYNC_SIGWAKEUP);
                write_varint(&mut out, u64::from(tid));
                write_varint(&mut out, tick);
            }
        }
    }
    out
}

pub(crate) fn decode_asyncs(payload: &[u8]) -> Result<Vec<AsyncEvent>, CodecError> {
    let mut cur = Cursor::new(payload);
    let count = cur.read_varint("ASYNC count")?;
    let mut out = Vec::new();
    for _ in 0..count {
        let at = cur.pos();
        match cur.read_u8("async tag")? {
            ASYNC_RESCHEDULE => out.push(AsyncEvent::Reschedule {
                tick: cur.read_varint("reschedule tick")?,
            }),
            ASYNC_SIGWAKEUP => out.push(AsyncEvent::SignalWakeup {
                tid: read_u32(&mut cur, "sigwakeup tid")?,
                tick: cur.read_varint("sigwakeup tick")?,
            }),
            tag => {
                return Err(CodecError::Invalid {
                    what: format!("unknown ASYNC tag {tag}"),
                    offset: at,
                })
            }
        }
    }
    expect_end(&cur)?;
    Ok(out)
}

pub(crate) fn encode_alloc(alloc: &[u64]) -> Vec<u8> {
    let mut out = Vec::new();
    write_u64_block(&mut out, alloc);
    out
}

pub(crate) fn decode_alloc(payload: &[u8]) -> Result<Vec<u64>, CodecError> {
    let mut cur = Cursor::new(payload);
    let alloc = read_u64_block(&mut cur, "ALLOC values")?;
    expect_end(&cur)?;
    Ok(alloc)
}

fn read_u32(cur: &mut Cursor<'_>, what: &'static str) -> Result<u32, CodecError> {
    let at = cur.pos();
    let v = cur.read_varint(what)?;
    u32::try_from(v).map_err(|_| CodecError::Invalid {
        what: format!("{what} {v} out of range"),
        offset: at,
    })
}

fn expect_end(cur: &Cursor<'_>) -> Result<(), CodecError> {
    if cur.is_at_end() {
        Ok(())
    } else {
        Err(CodecError::TrailingBytes { offset: cur.pos() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrips_boundaries() {
        for v in [0u64, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            let mut cur = Cursor::new(&buf);
            assert_eq!(cur.read_varint("v").unwrap(), v);
            assert!(cur.is_at_end());
        }
    }

    #[test]
    fn varint_overflow_is_typed() {
        // 10 continuation bytes followed by more payload than u64 holds.
        let buf = [0xffu8; 11];
        let mut cur = Cursor::new(&buf);
        assert!(matches!(
            cur.read_varint("v"),
            Err(CodecError::VarintOverflow { .. })
        ));
        // A 10th byte carrying more than the top bit also overflows.
        let mut buf = vec![0x80u8; 9];
        buf.push(0x02);
        let mut cur = Cursor::new(&buf);
        assert!(matches!(
            cur.read_varint("v"),
            Err(CodecError::VarintOverflow { .. })
        ));
    }

    #[test]
    fn zigzag_roundtrips() {
        for v in [0i64, -1, 1, i64::MIN, i64::MAX, -123456, 123456] {
            let mut buf = Vec::new();
            write_zigzag(&mut buf, v);
            let mut cur = Cursor::new(&buf);
            assert_eq!(cur.read_zigzag("v").unwrap(), v);
        }
    }

    #[test]
    fn frame_roundtrips_and_rejects_tampering() {
        let frame = encode_frame(StreamId::Alloc, b"payload");
        let parsed = parse_frame(&frame).unwrap();
        assert_eq!(parsed.stream, StreamId::Alloc);
        assert_eq!(parsed.payload, b"payload");
        assert!(is_binary(&frame));
        assert!(!is_binary(b"first 1\n"));

        // Any single-bit flip must fail.
        for byte in 0..frame.len() {
            for bit in 0..8 {
                let mut bad = frame.clone();
                bad[byte] ^= 1 << bit;
                assert!(parse_frame(&bad).is_err(), "flip at {byte}.{bit} accepted");
            }
        }
        // Any truncation must fail.
        for len in 0..frame.len() {
            assert!(parse_frame(&frame[..len]).is_err(), "truncation {len}");
        }
    }

    #[test]
    fn u64_block_matches_text_rle() {
        for vals in [
            vec![],
            vec![5],
            vec![5, 6, 7, 3, 3, 3, 9, 100, 101, 0],
            (0..1000).collect::<Vec<u64>>(),
            vec![0; 1000],
        ] {
            let mut buf = Vec::new();
            write_u64_block(&mut buf, &vals);
            let mut cur = Cursor::new(&buf);
            assert_eq!(read_u64_block(&mut cur, "t").unwrap(), vals);
            assert!(cur.is_at_end());
        }
    }

    #[test]
    fn u64_block_rejects_hostile_lengths() {
        // A repeat token claiming 2^60 values must be rejected, not
        // allocated.
        let mut buf = Vec::new();
        write_varint(&mut buf, 1); // one token
        buf.push(TOK_REPEAT);
        write_varint(&mut buf, 7);
        write_varint(&mut buf, 1 << 60);
        let mut cur = Cursor::new(&buf);
        assert!(matches!(
            read_u64_block(&mut cur, "t"),
            Err(CodecError::Invalid { .. })
        ));
    }

    #[test]
    fn stream_names_roundtrip() {
        for id in StreamId::ALL {
            assert_eq!(StreamId::from_file_name(id.file_name()), Some(id));
            assert_eq!(StreamId::from_byte(id as u8), Some(id));
        }
        assert_eq!(StreamId::from_file_name("CONSOLE"), None);
        assert_eq!(StreamId::from_byte(9), None);
    }

    #[test]
    fn syscall_kind_interning_pays_off() {
        let recs: Vec<SyscallRecord> = (0..100)
            .map(|i| SyscallRecord {
                seq: i,
                tid: 1,
                tick: i * 2,
                kind: "recvmsg".into(),
                ret: 64,
                errno: 0,
                bufs: vec![vec![0xab; 64]],
            })
            .collect();
        let payload = encode_syscalls(&recs);
        assert_eq!(decode_syscalls(&payload).unwrap(), recs);
        // One table entry, not 100 copies of "recvmsg".
        let naive = recs.len() * "recvmsg".len();
        assert!(payload.len() < naive + recs.len() * 16);
    }

    #[test]
    fn error_display_names_the_problem() {
        assert!(parse_frame(b"oops")
            .unwrap_err()
            .to_string()
            .contains("magic"));
        let e = CodecError::ChecksumMismatch {
            stored: 1,
            computed: 2,
        };
        assert!(e.to_string().contains("checksum"));
        assert!(CodecError::UnsupportedVersion(9)
            .to_string()
            .contains("version 9"));
    }
}
