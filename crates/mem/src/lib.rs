//! # medes-mem — sandbox memory images and the synthetic content model
//!
//! The original Medes evaluation checkpointed real FunctionBench python
//! sandboxes with CRIU and measured the redundancy of the resulting
//! memory dumps (paper §2). Those containers are not reproducible in a
//! hermetic Rust environment, so this crate provides the substitution
//! documented in `DESIGN.md`: a **deterministic synthetic memory-content
//! generator** whose images reproduce the *statistics that drive Medes*:
//!
//! * chunk-size-dependent same-function redundancy (Fig 1a/1b),
//! * high cross-function redundancy from a shared runtime and shared
//!   low-entropy content (Fig 1c),
//! * page-alignment divergence in heap regions (what makes page-level
//!   dedup need value-sampled fingerprints rather than page hashes),
//! * ASLR effects (pointer words, 16 B stack shifts).
//!
//! ## Content model
//!
//! An image is a list of [`region::Region`]s (runtime, one per library,
//! file mappings, heap, stack). Region content is composed of 256 B
//! *tiles*:
//!
//! * **pattern tiles** (~most of memory) drawn from a small universal
//!   pool of low-entropy patterns (zero pages, allocator fill patterns,
//!   repeated machine words) — identical across *all* functions, the
//!   source of the paper's 84–90 % cross-function redundancy;
//! * **shared tiles** drawn from a per-stream (library / function)
//!   high-entropy stream — identical across sandboxes that share the
//!   stream;
//! * **unique tiles** drawn from a per-instance stream.
//!
//! Per-instance *clustered divergence* (bursts of modified bytes) and
//! optional ASLR pointer perturbation are overlaid on top. Heap regions
//! additionally shuffle tile order per instance (allocation-order
//! divergence), which breaks page alignment without destroying
//! chunk-level redundancy.
//!
//! The tile weights of each region kind are data, a
//! [`content::ContentModelConfig`]. The default,
//! [`content::ContentModelConfig::legacy`], is the split above. The
//! **entropy mixture** ([`content::ContentModelConfig::paper_calibrated`])
//! refines it into per-region low/medium/high-entropy pools with
//! per-instance dispersed noise. Under either, a version epoch remaps
//! shared tiles (rolling deploys) — see `DESIGN.md` §13.
//!
//! Everything is a pure function of `(spec, instance_seed, config)` —
//! images can be regenerated at will, so the platform never needs to
//! retain warm sandboxes' bytes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aslr;
pub mod content;
pub mod image;
pub mod page;
pub mod redundancy;
pub mod region;
pub mod spec;

pub use aslr::AslrConfig;
pub use content::{ContentModel, ContentModelConfig, RegionMix, TileKind};
pub use image::{ImageBuilder, MemoryImage};
pub use page::PAGE_SIZE;
pub use redundancy::{redundancy, RedundancyReport};
pub use spec::{FunctionSpec, LibraryId};
