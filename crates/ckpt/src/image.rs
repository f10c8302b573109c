//! Checkpoint images: process tree, VMA descriptors, page dump.

use medes_mem::region::RegionKind;
use medes_mem::MemoryImage;

/// The process-tree shape of a sandbox (drives fork() costs at restore).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcessSpec {
    /// Number of processes in the sandbox (MapReduce-style functions
    /// fork workers).
    pub processes: u32,
    /// Number of namespaces to (re)create.
    pub namespaces: u32,
}

impl Default for ProcessSpec {
    fn default() -> Self {
        // A typical single-process python sandbox in a container:
        // pid/net/mnt/uts/ipc namespaces.
        ProcessSpec {
            processes: 1,
            namespaces: 5,
        }
    }
}

/// One VMA descriptor in the dump.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VmaDesc {
    /// Region kind (runtime / library / heap / ...).
    pub kind: RegionKind,
    /// Region name.
    pub name: String,
    /// Virtual base address.
    pub va_start: u64,
    /// Pages in the VMA.
    pub pages: u32,
}

/// An in-memory checkpoint image: metadata plus the page dump.
#[derive(Debug, Clone)]
pub struct CheckpointImage {
    proc: ProcessSpec,
    vmas: Vec<VmaDesc>,
    /// Page dump, one buffer per page, in VMA order.
    pages: Vec<Vec<u8>>,
}

impl CheckpointImage {
    /// Checkpoints a memory image (the "dump" step of the dedup op).
    pub fn from_image(image: &MemoryImage, proc: ProcessSpec) -> Self {
        let vmas = image
            .regions()
            .iter()
            .map(|r| VmaDesc {
                kind: r.kind,
                name: r.name.clone(),
                va_start: r.va_base,
                pages: r.page_count() as u32,
            })
            .collect();
        let pages = image.pages().map(|(_, p)| p.to_vec()).collect();
        CheckpointImage { proc, vmas, pages }
    }

    /// The process-tree spec.
    pub fn proc(&self) -> ProcessSpec {
        self.proc
    }

    /// VMA descriptors.
    pub fn vmas(&self) -> &[VmaDesc] {
        &self.vmas
    }

    /// Number of pages in the dump.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use medes_mem::{FunctionSpec, ImageBuilder, PAGE_SIZE};

    fn image() -> MemoryImage {
        ImageBuilder::new(FunctionSpec::new("CkptFn", 8 << 20, &["json"]))
            .with_scale(16)
            .build(1)
    }

    #[test]
    fn checkpoint_captures_everything() {
        let img = image();
        let ckpt = CheckpointImage::from_image(&img, ProcessSpec::default());
        assert_eq!(ckpt.proc(), ProcessSpec::default());
        assert_eq!(ckpt.page_count(), img.page_count());
        assert_eq!(ckpt.vmas().len(), img.regions().len());
        let vma_pages: u32 = ckpt.vmas().iter().map(|v| v.pages).sum();
        assert_eq!(vma_pages as usize, img.page_count());
        assert!(ckpt.pages.iter().all(|p| p.len() == PAGE_SIZE));
        assert!(ckpt.pages.iter().zip(img.pages()).all(|(d, (_, p))| d == p));
    }
}
