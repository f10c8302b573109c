//! # medes-hash — hashing, chunking and value-sampled fingerprints
//!
//! Medes identifies redundancy at the granularity of 64-byte *reusable
//! sandbox chunks* (RSCs). This crate implements every hashing primitive
//! the paper uses, from scratch:
//!
//! * [`sha1`] — the SHA-1 hash the paper uses for chunk identity
//!   (measurement study, §2.1) with an incremental digest API.
//! * [`fnv`] — FNV-1a, used for cheap non-cryptographic table hashing.
//! * [`sample`] — *value-sampled page fingerprints* (§4.1.2): a linear
//!   scan over each 4 KiB page selecting 64 B chunks whose last two bytes
//!   match a fixed pattern (its high byte masked out, so one byte
//!   decides); the (at most) five selected chunk hashes form the page's
//!   fingerprint.
//! * [`chunk`] — fixed-offset chunking used by the redundancy
//!   measurement methodology of §2.1.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chunk;
pub mod fnv;
pub mod sample;
pub mod sha1;

pub use sample::PageFingerprint;
pub use sha1::Sha1;

/// Hash of a single RSC (64-byte chunk): the first 8 bytes of its SHA-1
/// digest. 64 bits keeps the global fingerprint registry compact; the
/// platform verifies actual bytes on every match, exactly like the paper
/// does, so a collision costs a wasted comparison, never correctness.
pub type ChunkHash = u64;

/// Computes the [`ChunkHash`] of a chunk.
///
/// 64-byte chunks (the RSC size, and the only size the dedup scan
/// produces) take the one-block [`Sha1::digest64`] fast path; any other
/// length falls back to the general incremental digest. Both paths are
/// bit-identical on the bytes they share.
pub fn chunk_hash(data: &[u8]) -> ChunkHash {
    let digest = match <&[u8; 64]>::try_from(data) {
        Ok(block) => sha1::Sha1::digest64(block),
        Err(_) => sha1::Sha1::digest(data),
    };
    u64::from_be_bytes(digest[..8].try_into().expect("digest >= 8 bytes"))
}
