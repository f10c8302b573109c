//! Address-space layout randomization model.
//!
//! The paper's measurement study (§2.1, Fig 1b) shows that ASLR costs
//! only ~5 % of the identifiable redundancy at 64 B chunks, because
//! (a) chunk sampling is smaller than the page-granularity mmap
//! randomization, and (b) only pointer-bearing words actually change.
//! We model exactly those two effects:
//!
//! * every region's base address gets a per-instance page-aligned shift,
//!   which perturbs pointer *values* planted in shared tiles;
//! * the stack additionally gets a 16-byte-granular content shift
//!   (`rotate`), mirroring stack address randomization.

use crate::content::mix_seed;

/// Maximum mmap base shift, in pages: 64 Ki pages (256 MiB), as on
/// Linux.
const MAX_SHIFT_PAGES: u64 = 1 << 16;
/// Stack randomization granularity in bytes (16 on Linux x86-64).
const STACK_GRANULARITY: usize = 16;
/// Maximum stack shift in multiples of the granularity.
const MAX_STACK_STEPS: u64 = 256;

/// ASLR configuration: on with Linux's shifts, or off.
#[derive(Debug, Clone, Copy, Default)]
pub struct AslrConfig {
    /// Master switch. Off = the upper-bound measurement setup of Fig 1a.
    pub enabled: bool,
}

impl AslrConfig {
    /// ASLR disabled (paper's upper-bound measurement).
    pub const DISABLED: AslrConfig = AslrConfig { enabled: false };

    /// Linux-like shifts: up to 64 Ki pages (256 MiB) of mmap shift, 16 B
    /// stack granularity.
    pub const LINUX: AslrConfig = AslrConfig { enabled: true };

    /// Per-instance base address of a region, given its canonical base.
    pub fn region_base(&self, canonical: u64, region_seed: u64, instance_seed: u64) -> u64 {
        if !self.enabled {
            return canonical;
        }
        let h = mix_seed(mix_seed(region_seed, instance_seed), 0xA51A);
        canonical + (h % MAX_SHIFT_PAGES) * crate::page::PAGE_SIZE as u64
    }

    /// Per-instance stack content shift in bytes.
    pub fn stack_shift(&self, region_seed: u64, instance_seed: u64) -> usize {
        if !self.enabled {
            return 0;
        }
        let h = mix_seed(mix_seed(region_seed, instance_seed), 0x57AC);
        (h % MAX_STACK_STEPS) as usize * STACK_GRANULARITY
    }
}

/// Rotates region content right by `shift` bytes (the stack model).
pub fn rotate_content(data: &mut [u8], shift: usize) {
    if data.is_empty() {
        return;
    }
    let shift = shift % data.len();
    data.rotate_right(shift);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_is_identity() {
        let a = AslrConfig::DISABLED;
        assert_eq!(a.region_base(0x1000, 1, 2), 0x1000);
        assert_eq!(a.stack_shift(1, 2), 0);
    }

    #[test]
    fn enabled_shifts_are_page_aligned_and_instance_dependent() {
        let a = AslrConfig::LINUX;
        let b1 = a.region_base(0x1000, 7, 100);
        let b2 = a.region_base(0x1000, 7, 101);
        assert_ne!(b1, b2);
        assert_eq!(b1 % crate::page::PAGE_SIZE as u64, 0x1000 % 4096);
        assert_eq!((b1 - 0x1000) % 4096, 0);
        // Deterministic.
        assert_eq!(b1, a.region_base(0x1000, 7, 100));
    }

    #[test]
    fn stack_shift_granularity() {
        let a = AslrConfig::LINUX;
        for inst in 0..50 {
            let s = a.stack_shift(3, inst);
            assert_eq!(s % STACK_GRANULARITY, 0);
            assert!(s < MAX_STACK_STEPS as usize * STACK_GRANULARITY);
        }
    }

    #[test]
    fn rotate_is_a_rotation() {
        let mut v: Vec<u8> = (0..10).collect();
        rotate_content(&mut v, 3);
        assert_eq!(v, vec![7, 8, 9, 0, 1, 2, 3, 4, 5, 6]);
        rotate_content(&mut v, 7);
        assert_eq!(v, (0..10).collect::<Vec<u8>>());
        let mut empty: Vec<u8> = vec![];
        rotate_content(&mut empty, 5);
    }
}
