//! The image factory: deterministic regeneration + caching.
//!
//! Sandbox memory images are pure functions of `(function, instance
//! seed, code version)`, so the platform holds real bytes only where
//! the system semantically requires residency: **base sandbox images**
//! (pinned, the registry points into them) are cached here; everything
//! else is regenerated on demand — by a dedup scan that has a page to
//! fingerprint or encode (a sandbox's repeat scan often has none, see
//! `crate::dedup`), which drops the image when the scan ends, or to
//! verify a restore. Spawning a sandbox
//! needs only the page count, which [`ImageFactory::model_pages`] reads
//! off the builder's region plan without building anything.
//!
//! A regeneration copies every tile the function's instances share
//! from its builder's per-version template (see `medes_mem::image`) and
//! fills only the instance-unique tiles of heap and stack. The factory
//! counts what it does: [`ImageFactory::builds`] images materialized (a
//! pinned hit is not a build), [`ImageFactory::template_builds`]
//! templates filled and [`ImageFactory::template_bytes`] the memory the
//! held templates cost. All are functions of the request sequence, so
//! they repeat exactly for a seed; the platform exports them as
//! `medes.images.builds`, `medes.images.template_builds` and
//! `medes.images.template_bytes`.

use crate::ids::FnId;
use medes_mem::{AslrConfig, ContentModel, FunctionSpec, ImageBuilder, MemoryImage};
use medes_trace::FunctionProfile;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Builds and caches sandbox memory images.
#[derive(Debug)]
pub struct ImageFactory {
    builders: Vec<ImageBuilder>,
    /// Pinned images (base sandboxes): key = (function, instance seed,
    /// code version). Rolling deploys give distinct versions distinct
    /// content, so the version participates in identity.
    pinned: HashMap<(usize, u64, u64), Arc<MemoryImage>>,
    /// Images materialized. Statistic only; publishes no other data.
    builds: AtomicU64,
}

impl ImageFactory {
    /// Creates a factory for the given function profiles.
    pub fn new(
        profiles: &[FunctionProfile],
        model: ContentModel,
        aslr: AslrConfig,
        mem_scale: usize,
    ) -> Self {
        let builders = profiles
            .iter()
            .map(|p| {
                let libs: Vec<&str> = p.libs.iter().map(|s| s.as_str()).collect();
                let spec = FunctionSpec::new(&p.name, p.memory_bytes, &libs);
                ImageBuilder::new(spec)
                    .with_model(model.clone())
                    .with_aslr(aslr)
                    .with_scale(mem_scale)
            })
            .collect();
        ImageFactory {
            builders,
            pinned: HashMap::new(),
            builds: AtomicU64::new(0),
        }
    }

    /// Number of functions.
    pub fn functions(&self) -> usize {
        self.builders.len()
    }

    /// Generates (or fetches, if pinned) the image for a sandbox at
    /// code version 0 (the initial deployment — the only version that
    /// exists without a rolling-deploy schedule).
    pub fn image(&self, func: FnId, instance_seed: u64) -> Arc<MemoryImage> {
        self.image_v(func, instance_seed, 0)
    }

    /// Generates (or fetches, if pinned) the image for a sandbox at a
    /// specific code version. Version 0 is byte-identical to the
    /// unversioned build.
    pub fn image_v(&self, func: FnId, instance_seed: u64, version: u64) -> Arc<MemoryImage> {
        if let Some(img) = self.pinned.get(&(func.0, instance_seed, version)) {
            return Arc::clone(img);
        }
        self.builds.fetch_add(1, Ordering::Relaxed);
        Arc::new(self.builders[func.0].build_versioned(instance_seed, version))
    }

    /// Model-scale page count of a function's image (sizes depend only
    /// on the spec, not the instance). Builds nothing.
    pub fn model_pages(&self, func: FnId) -> usize {
        self.builders[func.0].page_count()
    }

    /// Images materialized so far (pinned hits excluded).
    pub fn builds(&self) -> u64 {
        self.builds.load(Ordering::Relaxed)
    }

    /// Templates filled so far, over all functions.
    pub fn template_builds(&self) -> u64 {
        self.builders.iter().map(|b| b.template_builds()).sum()
    }

    /// Bytes the functions' templates hold right now.
    pub fn template_bytes(&self) -> usize {
        self.builders.iter().map(|b| b.template_bytes()).sum()
    }

    /// Pins a base sandbox's image (version 0) so the registry can
    /// reference its pages without regeneration cost.
    pub fn pin(&mut self, func: FnId, instance_seed: u64) -> Arc<MemoryImage> {
        self.pin_v(func, instance_seed, 0)
    }

    /// Pins a base sandbox's image at a specific code version.
    pub fn pin_v(&mut self, func: FnId, instance_seed: u64, version: u64) -> Arc<MemoryImage> {
        let img = self.image_v(func, instance_seed, version);
        self.pinned
            .insert((func.0, instance_seed, version), Arc::clone(&img));
        img
    }

    /// Unpins a base sandbox's image (version 0).
    pub fn unpin(&mut self, func: FnId, instance_seed: u64) {
        self.unpin_v(func, instance_seed, 0);
    }

    /// Unpins a base sandbox's image at a specific code version.
    pub fn unpin_v(&mut self, func: FnId, instance_seed: u64, version: u64) {
        self.pinned.remove(&(func.0, instance_seed, version));
    }

    /// Currently pinned images (≈ base sandboxes alive).
    pub fn pinned_count(&self) -> usize {
        self.pinned.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use medes_trace::functionbench_suite;

    fn factory() -> ImageFactory {
        ImageFactory::new(
            &functionbench_suite()[..3],
            ContentModel::default(),
            AslrConfig::DISABLED,
            256,
        )
    }

    #[test]
    fn images_are_deterministic() {
        let f = factory();
        let a = f.image(FnId(0), 7);
        let b = f.image(FnId(0), 7);
        assert_eq!(a.page_count(), b.page_count());
        assert_eq!(a.page(0), b.page(0));
    }

    #[test]
    fn pinning_caches() {
        let mut f = factory();
        assert_eq!(f.pinned_count(), 0);
        let img = f.pin(FnId(1), 3);
        assert_eq!(f.pinned_count(), 1);
        let again = f.image(FnId(1), 3);
        assert!(Arc::ptr_eq(&img, &again), "pinned image must be shared");
        f.unpin(FnId(1), 3);
        assert_eq!(f.pinned_count(), 0);
    }

    #[test]
    fn versioned_images_are_distinct_identities() {
        let mut f = factory();
        // Version 0 is the unversioned build.
        let v0 = f.image_v(FnId(0), 7, 0);
        let legacy = f.image(FnId(0), 7);
        assert_eq!(v0.page(0), legacy.page(0));
        // A version bump changes content but not layout.
        let v1 = f.image_v(FnId(0), 7, 1);
        assert_eq!(v0.page_count(), v1.page_count());
        let changed = (0..v0.page_count()).any(|p| v0.page(p) != v1.page(p));
        assert!(changed, "version bump must perturb some pages");
        // Pins are per-version: pinning v1 leaves v0 unpinned.
        let pinned = f.pin_v(FnId(0), 7, 1);
        let again = f.image_v(FnId(0), 7, 1);
        assert!(Arc::ptr_eq(&pinned, &again));
        let v0_again = f.image_v(FnId(0), 7, 0);
        assert!(!Arc::ptr_eq(&pinned, &v0_again));
        f.unpin_v(FnId(0), 7, 1);
        assert_eq!(f.pinned_count(), 0);
    }

    #[test]
    fn page_counts_track_function_size() {
        let f = factory();
        // Vanilla (17MB) < LinAlg (32MB).
        assert!(f.model_pages(FnId(0)) < f.model_pages(FnId(1)));
        assert_eq!(f.functions(), 3);
        assert_eq!(f.model_pages(FnId(2)), f.image(FnId(2), 9).page_count());
    }

    #[test]
    fn counts_builds_but_not_pinned_hits_or_page_counts() {
        let mut f = factory();
        f.model_pages(FnId(0));
        assert_eq!((f.builds(), f.template_builds()), (0, 0));
        assert_eq!(f.template_bytes(), 0);
        f.pin(FnId(0), 1);
        f.image(FnId(0), 1); // pinned: served from the cache
        f.image(FnId(0), 2);
        assert_eq!((f.builds(), f.template_builds()), (2, 1));
        f.image_v(FnId(0), 2, 1); // a new version replaces the template
        f.image(FnId(1), 2);
        assert_eq!((f.builds(), f.template_builds()), (4, 3));
        // Two functions hold a template, each a little over its image.
        let images = (f.model_pages(FnId(0)) + f.model_pages(FnId(1))) * medes_mem::PAGE_SIZE;
        assert!((images..images * 5 / 4).contains(&f.template_bytes()));
    }
}
