//! The demo model for sparse record and replay.
//!
//! A *demo* (§4 of the paper) is the recording of one execution: a set of
//! constraints the replay must satisfy. It is stored as a directory of
//! stream files mirroring the paper's streams:
//!
//! | File      | Contents |
//! |-----------|----------|
//! | `HEADER`  | tool, strategy, PRNG seeds, format version |
//! | `QUEUE`   | queue-strategy interleaving: first tick per thread + RLE-compressed next-tick list |
//! | `SIGNAL`  | `tid tick signo` per asynchronous signal |
//! | `SYSCALL` | per recorded syscall: kind, return value, errno, RLE-compressed output buffers |
//! | `ASYNC`   | reschedule / signal-wakeup events floated to their tick |
//! | `ALLOC`   | (comprehensive tools only) the allocator's address stream |
//!
//! Each stream file exists in two formats ([`DemoFormat`]): a framed,
//! checksummed binary form ([`codec`] — varint + RLE payloads, decoded
//! zero-copy; the default), and the original line-oriented text form
//! kept as the import/export format for fixtures and diffing. Both decode
//! into the same structs. Loading auto-detects per file, so either (or a
//! mix) loads transparently. [`DemoStore`] layers content-addressed,
//! stream-deduplicated storage on top for corpora and archives.
//!
//! Every load then runs [`Demo::validate`], the one home of the demo
//! invariants (each tick claimed exactly once, monotone signal, syscall
//! and async ticks, contiguous syscall sequence numbers, in-range thread
//! ids). A demo that breaks one is refused with
//! [`DemoLoadError::Invalid`], every [`DemoViolation`] naming its stream
//! and entry, before a run can start.
//!
//! The crate provides the typed event model ([`SignalEvent`],
//! [`SyscallRecord`], [`AsyncEvent`], [`QueueStream`]), the run-length
//! codecs ([`rle`]), serialization ([`Demo::save_dir`] / [`Demo::load_dir`]
//! and in-memory string/byte forms), validation, and the
//! desynchronisation taxonomy ([`HardDesync`], [`SoftDesync`]).
//!
//! # Example
//!
//! ```
//! use srr_replay::{Demo, DemoHeader, SignalEvent};
//!
//! let mut demo = Demo::new(DemoHeader::new("tsan11rec", "random", [1, 2]));
//! demo.signals.push(SignalEvent { tid: 2, tick: 5, signo: 15 });
//! let text = demo.to_string_map();
//! assert!(text["SIGNAL"].contains("2 5 15")); // the paper's own example line
//! let back = Demo::from_string_map(&text).unwrap();
//! assert_eq!(back.signals, demo.signals);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
mod demo;
mod desync;
pub mod rle;
mod store;
mod streams;
mod validate;

pub use codec::{CodecError, StreamId};
pub use demo::{Demo, DemoFormat, DemoHeader, DemoLoadError, DemoStats, FORMAT_VERSION};
pub use desync::{DesyncKind, HardDesync, SoftDesync};
pub use store::{DemoStore, StreamHash, StreamHashes};
pub use streams::{AsyncEvent, QueueStream, ScheduleRuns, SignalEvent, SyscallRecord};
pub use validate::DemoViolation;
