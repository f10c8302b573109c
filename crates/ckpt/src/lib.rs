//! # medes-ckpt — CRIU-like checkpoint/restore for sandboxes
//!
//! Medes converts a warm sandbox into a dedup sandbox by first taking a
//! **memory checkpoint** (the paper uses CRIU), deduplicating the dump,
//! and later restoring the sandbox from the reconstructed dump. Real
//! CRIU is a Linux-specific, privileged tool, so per `DESIGN.md` this
//! crate provides a faithful functional + timing model:
//!
//! * [`image::CheckpointImage`] — a process-tree + VMA + page-dump
//!   structure mirroring CRIU's image format, built from a
//!   [`medes_mem::MemoryImage`] by copying its pages. The bytes a
//!   restore rebuilds are checked in `medes-core` (the platform's
//!   `verify_restores` switch compares every restored page with the
//!   image), not here.
//! * [`timing::TimingModel`] — where the paper's measured costs live:
//!   full CRIU restores cost ~650 ms, while Medes's optimizations
//!   (pre-created namespaces/process tree, in-memory images) bring the
//!   memory-restore path down to ~140 ms (§4.2).
//!
//! The crate is a cost and format model only; it records no telemetry.
//! What a run charged for a checkpoint or a restore is observed on the
//! `medes.dedup.checkpoint` and `medes.restore.ckpt` phase spans that
//! `medes-core` emits per op.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod image;
pub mod timing;

pub use image::{CheckpointImage, ProcessSpec, VmaDesc};
pub use timing::{RestoreBreakdown, RestoreOptions, TimingModel};
