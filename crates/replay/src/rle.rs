//! Run-length codecs for demo streams.
//!
//! Two codecs cover the paper's two compression needs:
//!
//! * [`encode_u64s`] / [`decode_u64s`] — integer sequences (the QUEUE
//!   next-tick list, the ALLOC address stream). The dominant pattern is a
//!   thread scheduled many times in succession, which produces arithmetic
//!   runs with step 1 (`k, k+1, k+2, …`); repeated constants also occur
//!   (`0 0 0 …` for "never scheduled again"). Tokens:
//!   - `N` — a literal value;
//!   - `N+K` — the run `N, N+1, …, N+K` (K ≥ 1);
//!   - `N*K` — the value `N` repeated `K` times (K ≥ 2).
//! * [`encode_bytes`] / [`decode_bytes`] — byte buffers (SYSCALL output
//!   data). "A simple run length encoding" (§4.4): alternating literal and
//!   run chunks, serialized as lowercase hex.

use std::fmt::Write as _;

/// Hard cap on the length of one RLE run or repeat read from a demo, in
/// either form. Far above anything a real recording produces, low enough
/// that a crafted length cannot ask the decoder for gigabytes before
/// validation catches up.
pub const MAX_RUN: u64 = 1 << 28;

/// One RLE token of the integer codec. The token model is shared by the
/// text form (this module) and the binary form ([`crate::codec`]), so
/// the two formats compress identically and text→bin→text is lossless.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum U64Token {
    /// A single literal value (`N` in text form).
    Literal(u64),
    /// The arithmetic run `base, base+1, …, base+extra` with `extra ≥ 1`
    /// (`N+K` in text form).
    IncRun {
        /// First value of the run.
        base: u64,
        /// Number of increments after the base (run length − 1).
        extra: u64,
    },
    /// The value repeated `count ≥ 2` times (`N*K` in text form).
    Repeat {
        /// The repeated value.
        value: u64,
        /// How many copies.
        count: u64,
    },
}

impl U64Token {
    /// How many values the token stands for.
    #[must_use]
    pub fn count(self) -> u64 {
        match self {
            U64Token::Literal(_) => 1,
            U64Token::IncRun { extra, .. } => extra + 1,
            U64Token::Repeat { count, .. } => count,
        }
    }

    /// The token's value at index `i < count()`.
    #[must_use]
    pub fn value_at(self, i: u64) -> u64 {
        match self {
            U64Token::Literal(v) | U64Token::Repeat { value: v, .. } => v,
            U64Token::IncRun { base, .. } => base + i,
        }
    }

    /// The token for this token's first `n` values, `1 ≤ n ≤ count()`.
    #[must_use]
    pub fn head(self, n: u64) -> U64Token {
        match self {
            _ if n == 1 => U64Token::Literal(self.value_at(0)),
            U64Token::IncRun { base, .. } => U64Token::IncRun { base, extra: n - 1 },
            U64Token::Repeat { value, .. } => U64Token::Repeat { value, count: n },
            U64Token::Literal(v) => U64Token::Literal(v),
        }
    }
}

/// Builds the canonical tokens of an integer sequence fed value by value
/// ([`Tokenizer::push`]) or token by token ([`Tokenizer::push_token`],
/// which costs O(1) per token, not per value). Canonical is the greedy
/// heuristic both codecs share: from each position take the longest
/// arithmetic(+1) run, else the longest constant run, else a literal.
/// Two sequences are equal exactly when their canonical tokens are.
#[derive(Clone, Debug, Default)]
pub struct Tokenizer {
    done: Vec<U64Token>,
    /// The last token, still open to extension.
    open: Option<U64Token>,
}

impl Tokenizer {
    /// Appends one value.
    pub fn push(&mut self, v: u64) {
        let Some(open) = &mut self.open else {
            self.open = Some(U64Token::Literal(v));
            return;
        };
        *open = match *open {
            U64Token::Literal(x) if x.checked_add(1) == Some(v) => {
                U64Token::IncRun { base: x, extra: 1 }
            }
            U64Token::Literal(x) if x == v => U64Token::Repeat { value: x, count: 2 },
            U64Token::IncRun { base, extra } if base.checked_add(extra + 1) == Some(v) => {
                U64Token::IncRun {
                    base,
                    extra: extra + 1,
                }
            }
            U64Token::Repeat { value, count } if value == v => U64Token::Repeat {
                value,
                count: count + 1,
            },
            closed => {
                self.done.push(closed);
                U64Token::Literal(v)
            }
        };
    }

    /// Appends every value of `tok`. At most three values go through
    /// [`Tokenizer::push`]; by then the open token is a run of `tok`'s
    /// kind and takes the rest at once.
    pub fn push_token(&mut self, tok: U64Token) {
        let n = tok.count();
        for i in 0..n {
            let v = tok.value_at(i);
            match (&mut self.open, tok) {
                (Some(U64Token::IncRun { base, extra }), U64Token::IncRun { .. })
                    if base.checked_add(*extra + 1) == Some(v) =>
                {
                    *extra += n - i;
                    return;
                }
                (Some(U64Token::Repeat { value, count }), U64Token::Repeat { .. })
                    if *value == v =>
                {
                    *count += n - i;
                    return;
                }
                _ => self.push(v),
            }
        }
    }

    /// The canonical tokens of everything pushed.
    #[must_use]
    pub fn finish(mut self) -> Vec<U64Token> {
        self.done.extend(self.open);
        self.done
    }
}

/// The values of a token sequence, expanded one at a time.
#[derive(Clone, Debug, Default)]
pub struct Expand<I> {
    tokens: I,
    current: Option<U64Token>,
    /// Values already taken from `current`.
    taken: u64,
}

impl<I: Iterator<Item = U64Token>> Expand<I> {
    /// Expands `tokens`.
    pub fn new(tokens: impl IntoIterator<IntoIter = I>) -> Self {
        Expand {
            tokens: tokens.into_iter(),
            current: None,
            taken: 0,
        }
    }
}

impl<I: Iterator<Item = U64Token>> Iterator for Expand<I> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        loop {
            match self.current {
                Some(tok) if self.taken < tok.count() => {
                    self.taken += 1;
                    return Some(tok.value_at(self.taken - 1));
                }
                _ => {
                    self.current = Some(self.tokens.next()?);
                    self.taken = 0;
                }
            }
        }
    }
}

/// Tokenizes an integer sequence into its canonical tokens (see
/// [`Tokenizer`]).
#[must_use]
pub fn u64_tokens(values: &[u64]) -> Vec<U64Token> {
    let mut t = Tokenizer::default();
    for &v in values {
        t.push(v);
    }
    t.finish()
}

/// Encodes an integer sequence into the token text form.
#[must_use]
pub fn encode_u64s(values: &[u64]) -> String {
    format_tokens(&u64_tokens(values))
}

/// The token text form of `tokens`: space-separated `N`, `N+K`, `N*K`.
#[must_use]
pub fn format_tokens(tokens: &[U64Token]) -> String {
    let mut out = String::new();
    for tok in tokens {
        if !out.is_empty() {
            out.push(' ');
        }
        let _ = match *tok {
            U64Token::Literal(v) => write!(out, "{v}"),
            U64Token::IncRun { base, extra } => write!(out, "{base}+{extra}"),
            U64Token::Repeat { value, count } => write!(out, "{value}*{count}"),
        };
    }
    out
}

/// Parses the token text form without expanding it. The tokens are as
/// written, not necessarily canonical (`3+1 5` is accepted).
///
/// # Errors
///
/// Returns a description of the first malformed token.
pub fn parse_tokens(text: &str) -> Result<Vec<U64Token>, String> {
    text.split_whitespace()
        .map(|tok| {
            let num = |s: &str, what: &str| {
                s.parse::<u64>()
                    .map_err(|_| format!("bad {what} in `{tok}`"))
            };
            if let Some((base, k)) = tok.split_once('+') {
                let (base, extra) = (num(base, "run base")?, num(k, "run length")?);
                if extra > MAX_RUN || base.checked_add(extra).is_none() {
                    return Err(format!("run out of range in `{tok}`"));
                }
                Ok(if extra == 0 {
                    U64Token::Literal(base)
                } else {
                    U64Token::IncRun { base, extra }
                })
            } else if let Some((value, k)) = tok.split_once('*') {
                let (value, count) = (num(value, "repeat base")?, num(k, "repeat count")?);
                if count < 2 {
                    return Err(format!("repeat count must be >= 2 in `{tok}`"));
                }
                if count > MAX_RUN {
                    return Err(format!("repeat count out of range in `{tok}`"));
                }
                Ok(U64Token::Repeat { value, count })
            } else {
                tok.parse()
                    .map(U64Token::Literal)
                    .map_err(|_| format!("bad literal `{tok}`"))
            }
        })
        .collect()
}

/// Decodes the token text form produced by [`encode_u64s`].
///
/// # Errors
///
/// Returns a description of the first malformed token.
pub fn decode_u64s(text: &str) -> Result<Vec<u64>, String> {
    Ok(Expand::new(parse_tokens(text)?).collect())
}

/// Minimum run length worth a run chunk in the byte codec.
const BYTE_RUN_MIN: usize = 4;

/// Encodes a byte buffer into the raw RLE chunk stream.
///
/// Chunk grammar: `0x00 len byte` is a run of `len` (1–255) copies of
/// `byte`; `0x01 len b…` is `len` literal bytes. The text codec hexes
/// this stream ([`encode_bytes`]); the binary codec stores it as-is.
#[must_use]
pub fn byte_chunks(data: &[u8]) -> Vec<u8> {
    let mut chunks: Vec<u8> = Vec::new();
    let mut i = 0;
    let mut lit_start = 0;
    let flush_literal = |chunks: &mut Vec<u8>, lit: &[u8]| {
        for part in lit.chunks(255) {
            chunks.push(0x01);
            chunks.push(part.len() as u8);
            chunks.extend_from_slice(part);
        }
    };
    while i < data.len() {
        let b = data[i];
        let mut run = 1;
        while i + run < data.len() && data[i + run] == b {
            run += 1;
        }
        if run >= BYTE_RUN_MIN {
            flush_literal(&mut chunks, &data[lit_start..i]);
            let mut remaining = run;
            while remaining > 0 {
                let n = remaining.min(255);
                chunks.push(0x00);
                chunks.push(n as u8);
                chunks.push(b);
                remaining -= n;
            }
            i += run;
            lit_start = i;
        } else {
            i += run;
        }
    }
    flush_literal(&mut chunks, &data[lit_start..]);
    chunks
}

/// Encodes a byte buffer: RLE chunks ([`byte_chunks`]) serialized as
/// lowercase hex.
#[must_use]
pub fn encode_bytes(data: &[u8]) -> String {
    to_hex(&byte_chunks(data))
}

/// Decodes a raw RLE chunk stream back into the original bytes.
///
/// # Errors
///
/// Returns a description of the first malformed chunk.
pub fn decode_byte_chunks(chunks: &[u8]) -> Result<Vec<u8>, String> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < chunks.len() {
        match chunks[i] {
            0x00 => {
                let [len, b] = chunks
                    .get(i + 1..i + 3)
                    .and_then(|s| <[u8; 2]>::try_from(s).ok())
                    .ok_or("truncated run chunk")?;
                out.resize(out.len() + len as usize, b);
                i += 3;
            }
            0x01 => {
                let len = *chunks.get(i + 1).ok_or("truncated literal header")? as usize;
                let lit = chunks
                    .get(i + 2..i + 2 + len)
                    .ok_or("truncated literal chunk")?;
                out.extend_from_slice(lit);
                i += 2 + len;
            }
            tag => return Err(format!("unknown chunk tag {tag:#x}")),
        }
    }
    Ok(out)
}

/// Decodes the output of [`encode_bytes`].
///
/// # Errors
///
/// Returns a description of the first malformed digit pair or chunk.
pub fn decode_bytes(text: &str) -> Result<Vec<u8>, String> {
    decode_byte_chunks(&from_hex(text)?)
}

/// Lowercase hex of `data`.
#[must_use]
pub fn to_hex(data: &[u8]) -> String {
    let mut s = String::with_capacity(data.len() * 2);
    for b in data {
        let _ = write!(s, "{b:02x}");
    }
    s
}

/// Inverse of [`to_hex`].
///
/// # Errors
///
/// Returns a description of the first malformed digit pair.
pub fn from_hex(text: &str) -> Result<Vec<u8>, String> {
    let text = text.trim();
    if text.len() & 1 != 0 {
        return Err("odd-length hex string".into());
    }
    (0..text.len())
        .step_by(2)
        .map(|i| {
            u8::from_str_radix(&text[i..i + 2], 16).map_err(|_| format!("bad hex at byte {i}"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_roundtrip_empty() {
        assert_eq!(encode_u64s(&[]), "");
        assert_eq!(decode_u64s("").unwrap(), Vec::<u64>::new());
    }

    #[test]
    fn u64_arithmetic_run_compresses() {
        let vals: Vec<u64> = (10..30).collect();
        let enc = encode_u64s(&vals);
        assert_eq!(enc, "10+19");
        assert_eq!(decode_u64s(&enc).unwrap(), vals);
    }

    #[test]
    fn u64_constant_run_compresses() {
        let vals = vec![0; 7];
        let enc = encode_u64s(&vals);
        assert_eq!(enc, "0*7");
        assert_eq!(decode_u64s(&enc).unwrap(), vals);
    }

    #[test]
    fn u64_mixed_sequence_roundtrips() {
        let vals = vec![5, 6, 7, 3, 3, 3, 9, 100, 101, 0];
        let enc = encode_u64s(&vals);
        assert_eq!(decode_u64s(&enc).unwrap(), vals);
        assert_eq!(enc, "5+2 3*3 9 100+1 0");
    }

    #[test]
    fn u64_decode_rejects_garbage() {
        assert!(decode_u64s("abc").is_err());
        assert!(decode_u64s("5+x").is_err());
        assert!(decode_u64s("5*1").is_err());
        // Runs too long to come from a recording, or past u64::MAX.
        assert!(parse_tokens(&format!("0+{}", MAX_RUN + 1)).is_err());
        assert!(parse_tokens(&format!("0*{}", MAX_RUN + 1)).is_err());
        assert!(parse_tokens(&format!("{}+1", u64::MAX)).is_err());
        assert_eq!(parse_tokens("7+0").unwrap(), [U64Token::Literal(7)]);
    }

    #[test]
    fn bytes_roundtrip_empty_and_small() {
        for data in [&b""[..], b"a", b"abc", b"\x00\xff"] {
            let enc = encode_bytes(data);
            assert_eq!(decode_bytes(&enc).unwrap(), data, "data {data:?}");
        }
    }

    #[test]
    fn bytes_runs_compress() {
        let data = vec![7u8; 1000];
        let enc = encode_bytes(&data);
        assert!(
            enc.len() < 50,
            "1000 bytes should compress, got {} chars",
            enc.len()
        );
        assert_eq!(decode_bytes(&enc).unwrap(), data);
    }

    #[test]
    fn bytes_mixed_content_roundtrips() {
        let mut data = Vec::new();
        data.extend_from_slice(b"HTTP/1.1 200 OK\r\n");
        data.resize(data.len() + 300, b' ');
        data.extend_from_slice(b"payload");
        data.resize(data.len() + 3, 0u8); // short run stays literal
        let enc = encode_bytes(&data);
        assert_eq!(decode_bytes(&enc).unwrap(), data);
    }

    #[test]
    fn bytes_literal_longer_than_255_chunks() {
        let data: Vec<u8> = (0..=255u8).cycle().take(700).collect();
        let enc = encode_bytes(&data);
        assert_eq!(decode_bytes(&enc).unwrap(), data);
    }

    #[test]
    fn bytes_decode_rejects_garbage() {
        assert!(decode_bytes("zz").is_err());
        assert!(decode_bytes("00").is_err(), "truncated run");
        assert!(
            decode_bytes("0105aa").is_err(),
            "literal shorter than header"
        );
        assert!(decode_bytes("ff").is_err(), "unknown tag");
        assert!(decode_bytes("abc").is_err(), "odd length");
    }

    #[test]
    fn hex_roundtrip() {
        let data = vec![0x00, 0x7f, 0xff, 0x10];
        assert_eq!(to_hex(&data), "007fff10");
        assert_eq!(from_hex("007fff10").unwrap(), data);
        assert_eq!(
            from_hex("  007fff10\n").unwrap(),
            data,
            "whitespace tolerated"
        );
    }
}
