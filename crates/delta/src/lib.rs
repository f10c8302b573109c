//! # medes-delta — binary diff/patch (the Xdelta3 stand-in)
//!
//! Medes eliminates redundancy at page granularity by storing, for each
//! deduplicated page, a **patch** against a similar *base page* (§4.1.2).
//! The original system used the Xdelta3 library at compression level 1
//! ("to make the restore op fast"). This crate is a from-scratch delta
//! coder with the same shape:
//!
//! * a patch is a stream of `COPY{offset, len}` (from the base) and
//!   `ADD{bytes}` (literal) instructions ([`mod@format`]);
//! * [`encode`](encode::encode) finds matches with a hash-chain block
//!   index over the base; compression levels 0–9 trade encode effort for
//!   patch size exactly like Xdelta3's flag (level 0 = store, level 1 =
//!   fast greedy, level 9 = deepest search);
//! * [`apply`](apply::apply) reconstructs the target from base + patch
//!   and is O(target).
//!
//! The patch's serialized size is what the platform charges against a
//! dedup sandbox's memory footprint, and a [`format::Patch`] holds
//! exactly those bytes, so [`format::Patch::serialized_size`] is exact,
//! not an estimate.
//!
//! ```
//! use medes_delta::{apply, encode, EncodeConfig};
//!
//! let base = b"hello, serverless world".to_vec();
//! let mut target = base.clone();
//! target.extend_from_slice(b" -- patched");
//! let patch = encode(&base, &target, &EncodeConfig::with_level(1));
//! assert!(patch.serialized_size() < target.len());
//! assert_eq!(apply(&base, &patch).unwrap(), target);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apply;
pub mod encode;
pub mod format;

pub use apply::{apply, apply_into, DeltaError};
pub use encode::{encode, encode_reference, encode_with, EncodeConfig, EncodeScratch};
pub use format::{Instr, ParseError, Patch, PatchRef};
