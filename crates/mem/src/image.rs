//! Building and addressing sandbox memory images.
//!
//! [`ImageBuilder`] turns a [`FunctionSpec`] into a concrete
//! [`MemoryImage`] for a given instance seed. Images are pure functions
//! of `(spec, model, aslr, scale, instance_seed)`, so the platform can
//! regenerate a warm sandbox's bytes on demand instead of holding them.
//!
//! ## Scale
//!
//! `scale_denom` divides every region size: at the default cluster-scale
//! setting of 64, a 90 MiB sandbox materializes 1.4 MiB of real bytes.
//! The dedup pipeline operates on the model-scale bytes; the platform
//! multiplies page counts back up for paper-scale accounting.
//!
//! ## Materialisation
//!
//! Region kinds, streams, sizes and layouts come from one *region plan*
//! that depends only on the spec, model and scale. Both
//! [`ImageBuilder::build_versioned`] and [`ImageBuilder::page_count`]
//! walk it, so the page count needs no build and cannot drift from one.
//!
//! Most of an image is the same in every instance — that is the paper's
//! premise (§2, Fig 1): a tile whose kind is not `Unique` is a function
//! of (stream, tile index, deploy version, region base, region length)
//! only. The builder fills those tiles once per deploy version into a
//! *template* that has, for every region, the leading tiles of its
//! stream in stream order: bytes for a `Shared` or `Medium` tile, a
//! pattern id (its 16-byte motif is rewritten) or a `Unique` mark for the
//! rest. An instance build computes its page layout (the identity, or
//! the heap's per-instance insert/skip jitter), takes each page of the
//! stream from the template, fills only the tiles it marks `Unique` and
//! the pages the instance inserted, and applies its own two noise
//! passes. No file-backed region has a unique
//! tile under either shipped weighting; heap and stack have 3 % under
//! [`ContentModelConfig::legacy`], the default, and 15–18 % under the
//! calibrated mixture. `legacy()` sets every dispersed-noise rate to
//! zero, which makes the second noise pass a no-op. There is one build
//! path: a file-backed region is the overlay with nothing to overlay.
//!
//! The heap's template holds an eighth more of the stream than fits the
//! region, because skipped pages carry an instance's stream index past
//! the region's length; a page past the template's end is filled tile
//! by tile. So is every page of a region whose per-instance base is not
//! the canonical one (ASLR moved it, so the pointers planted in its
//! shared tiles differ). The template
//! is built lazily on first use and exactly one version is held (a
//! build at another version replaces it). Its held tiles and 8-byte tags
//! cost about a fifth of the image under `legacy()` and three fifths
//! under the calibrated mixture ([`ImageBuilder::template_bytes`]).
//!
//! [`ContentModelConfig::legacy`]: crate::content::ContentModelConfig::legacy

use crate::aslr::{rotate_content, AslrConfig};
use crate::content::{mix_seed, write_motif, ContentModel, TileKind};
use crate::page::{page_align, PAGE_SIZE};
use crate::region::{Region, RegionKind};
use crate::spec::{FunctionSpec, LibraryId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

const LAYOUT_SALT: u64 = 0x1A_0001;
const CANON_SALT: u64 = 0x1A_0002;
const HEAP_SALT: u64 = 0x1A_0003;
const STACK_SALT: u64 = 0x1A_0004;
const FILEMAP_SALT: u64 = 0x1A_0005;

/// The library every sandbox maps; its region is [`RegionKind::Runtime`].
const RUNTIME_LIB: &str = "python-runtime";

/// One region of the plan: everything about it that no instance changes.
struct PlannedRegion<'a> {
    kind: RegionKind,
    name: &'a str,
    stream: u64,
    size: usize,
    layout: Layout,
}

/// The tiles of every plan region that no instance changes, at one
/// deploy version and the canonical region bases.
#[derive(Debug)]
struct Template {
    version: u64,
    regions: Vec<SharedTiles>,
}

/// The leading tiles of one region's stream, in stream order. A tile
/// whose kind is not `Unique` is a function of (stream, tile index,
/// version, region base, region length) only, so every instance with
/// the canonical base holds the same bytes wherever its layout puts the
/// tile. Only `Shared` and `Medium` tiles cost bytes: a pattern tile is
/// rewritten from its 16-byte motif as cheaply as it would be copied.
#[derive(Debug)]
struct SharedTiles {
    /// The held tiles, back to back in stream order.
    bytes: Vec<u8>,
    /// What the template has for each stream tile.
    tags: Vec<Tag>,
}

/// What a template has for one stream tile: a pattern id, a mark that
/// every instance fills the tile itself, or a tile's index in the store.
#[derive(Debug, Clone, Copy)]
enum Tag {
    Pattern(u32),
    Unique,
    Held(u32),
}

impl SharedTiles {
    /// The tags of the `n` stream tiles from `first` on, if all are held.
    fn tags(&self, first: u64, n: usize) -> Option<&[Tag]> {
        let first = usize::try_from(first).ok()?;
        self.tags.get(first..first + n)
    }

    /// Bytes this holds.
    fn held_bytes(&self) -> usize {
        self.bytes.len() + std::mem::size_of_val(self.tags.as_slice())
    }
}

/// What a builder derives from its configuration and keeps between
/// builds. A cloned or reconfigured builder starts with none of it.
#[derive(Debug, Default)]
struct BuildCache {
    template: Mutex<Option<Arc<Template>>>,
    /// Statistic only; publishes no other data.
    template_builds: AtomicU64,
    /// The 16-byte motif of every pattern id.
    motifs: OnceLock<Vec<[u8; 16]>>,
}

impl Clone for BuildCache {
    fn clone(&self) -> Self {
        BuildCache::default()
    }
}

/// Builds [`MemoryImage`]s for one function.
#[derive(Debug, Clone)]
pub struct ImageBuilder {
    spec: FunctionSpec,
    model: ContentModel,
    aslr: AslrConfig,
    scale_denom: usize,
    cache: BuildCache,
}

impl ImageBuilder {
    /// Creates a builder with the default content model, ASLR disabled,
    /// and no scaling.
    pub fn new(spec: FunctionSpec) -> Self {
        ImageBuilder {
            spec,
            model: ContentModel::default(),
            aslr: AslrConfig::DISABLED,
            scale_denom: 1,
            cache: BuildCache::default(),
        }
    }

    /// Replaces the content model.
    pub fn with_model(mut self, model: ContentModel) -> Self {
        self.model = model;
        self.cache = BuildCache::default();
        self
    }

    /// Sets the ASLR configuration.
    pub fn with_aslr(mut self, aslr: AslrConfig) -> Self {
        self.aslr = aslr;
        self
    }

    /// Divides every region size by `denom` (≥ 1).
    pub fn with_scale(mut self, denom: usize) -> Self {
        self.scale_denom = denom.max(1);
        self.cache = BuildCache::default();
        self
    }

    /// The function spec this builder materializes.
    pub fn spec(&self) -> &FunctionSpec {
        &self.spec
    }

    /// The scale denominator.
    pub fn scale_denom(&self) -> usize {
        self.scale_denom
    }

    /// Templates filled so far (one per builder and deploy version
    /// unless versions alternate).
    pub fn template_builds(&self) -> u64 {
        self.cache.template_builds.load(Ordering::Relaxed)
    }

    /// Bytes the held template occupies (0 before the first build).
    pub fn template_bytes(&self) -> usize {
        let held = self
            .cache
            .template
            .lock()
            .expect("a template fill panicked");
        held.as_ref()
            .map_or(0, |t| t.regions.iter().map(SharedTiles::held_bytes).sum())
    }

    fn scaled(&self, paper_bytes: usize) -> usize {
        page_align((paper_bytes / self.scale_denom).max(self.model.tile_size))
    }

    /// The regions of every image of this builder, in address order.
    fn region_plan(&self) -> Vec<PlannedRegion<'_>> {
        let mut plan = Vec::with_capacity(self.spec.libs.len() + 4);

        // Runtime + libraries: shared streams keyed by library identity.
        let runtime = LibraryId::new(RUNTIME_LIB);
        let libs = std::iter::once((RUNTIME_LIB, &runtime))
            .chain(self.spec.libs.iter().map(|l| (l.0.as_str(), l)));
        for (name, lib) in libs {
            plan.push(PlannedRegion {
                kind: if name == RUNTIME_LIB {
                    RegionKind::Runtime
                } else {
                    RegionKind::Library
                },
                name,
                stream: lib.seed(),
                size: self.scaled(lib.catalog_bytes()),
                layout: Layout::Direct,
            });
        }

        // Anonymous memory: file mappings, heap, stack.
        let anon = self.spec.anon_bytes();
        let stack_paper = (anon / 10).clamp(PAGE_SIZE, 256 << 10);
        let filemap_paper = anon * 15 / 100;
        let heap_paper = anon
            .saturating_sub(stack_paper + filemap_paper)
            .max(PAGE_SIZE);
        let anon_region = |kind, name, salt, paper, layout| PlannedRegion {
            kind,
            name,
            stream: mix_seed(self.spec.seed(), salt),
            size: self.scaled(paper),
            layout,
        };
        plan.extend([
            anon_region(
                RegionKind::FileMap,
                "filemap",
                FILEMAP_SALT,
                filemap_paper,
                Layout::Direct,
            ),
            anon_region(
                RegionKind::Heap,
                "heap",
                HEAP_SALT,
                heap_paper,
                Layout::Jittered,
            ),
            anon_region(
                RegionKind::Stack,
                "stack",
                STACK_SALT,
                stack_paper,
                Layout::Direct,
            ),
        ]);
        plan
    }

    /// Pages of every image this builder makes, without building one.
    pub fn page_count(&self) -> usize {
        self.region_plan().iter().map(|r| r.size / PAGE_SIZE).sum()
    }

    /// Materializes the image for `instance_seed`.
    pub fn build(&self, instance_seed: u64) -> MemoryImage {
        self.build_versioned(instance_seed, 0)
    }

    /// Materializes the image for `instance_seed` at deploy `version`.
    /// Version 0 is byte-identical to [`ImageBuilder::build`]; a higher
    /// version remaps `ContentModelConfig::version_mutation_frac` of
    /// each stream's shared/medium tiles per epoch (rolling deploys).
    pub fn build_versioned(&self, instance_seed: u64, version: u64) -> MemoryImage {
        let m = &self.model;
        let plan = self.region_plan();
        let mut template: Option<Arc<Template>> = None;
        let mut regions = Vec::with_capacity(plan.len());
        for (i, p) in plan.iter().enumerate() {
            let canonical = canonical_base(p.stream);
            let va_base = self.aslr.region_base(canonical, p.stream, instance_seed);
            // A region ASLR moved plants other pointers in its shared
            // tiles, so it takes nothing from the template.
            let shared = (va_base == canonical).then(|| {
                &template
                    .get_or_insert_with(|| self.template(&plan, version))
                    .regions[i]
            });
            let mut data = self.fill_region(p, instance_seed, va_base, version, shared);

            m.apply_noise(&mut data, p.stream, instance_seed);
            m.apply_dispersed_noise(
                &mut data,
                p.stream,
                instance_seed,
                m.mixture.mix_for(p.kind).dispersed_noise,
            );
            if p.kind == RegionKind::Stack {
                let shift = self.aslr.stack_shift(p.stream, instance_seed);
                rotate_content(&mut data, shift);
            }
            regions.push(Region {
                kind: p.kind,
                name: p.name.to_string(),
                va_base,
                data,
            });
        }
        MemoryImage::new(regions)
    }

    /// The template at `version`, filling it if the held one is of
    /// another version (or there is none yet).
    fn template(&self, plan: &[PlannedRegion<'_>], version: u64) -> Arc<Template> {
        let mut held = self
            .cache
            .template
            .lock()
            .expect("a template fill panicked");
        if let Some(t) = held.as_ref().filter(|t| t.version == version) {
            return Arc::clone(t);
        }
        let regions = plan.iter().map(|p| self.shared_tiles(p, version)).collect();
        self.cache.template_builds.fetch_add(1, Ordering::Relaxed);
        let t = Arc::new(Template { version, regions });
        *held = Some(Arc::clone(&t));
        t
    }

    /// Fills the stream tiles of `p` an instance is likely to place: all
    /// of a direct region's, and an eighth more than fit for the heap,
    /// whose skipped pages carry the stream index past the region's
    /// length (inserted pages pull it back; instances end within a few
    /// pages of it either way). A stream index past the end is filled
    /// per instance.
    fn shared_tiles(&self, p: &PlannedRegion<'_>, version: u64) -> SharedTiles {
        let tile = self.model.tile_size;
        let n_tiles = p.size / tile;
        let len = match p.layout {
            Layout::Direct => n_tiles,
            Layout::Jittered => n_tiles + n_tiles / 8,
        };
        // At most every tile is held; the shrink returns the rest.
        let mut bytes = Vec::with_capacity(len * tile);
        let base = canonical_base(p.stream);
        let tags = (0..len as u64)
            .map(|idx| match self.model.tile_kind(p.stream, idx, p.kind) {
                TileKind::Pattern(pid) => Tag::Pattern(pid),
                TileKind::Unique => Tag::Unique,
                kind => {
                    let at = bytes.len();
                    bytes.resize(at + tile, 0);
                    self.fill_tile(&mut bytes[at..], kind, p, idx, 0, base, version);
                    Tag::Held((at / tile) as u32)
                }
            })
            .collect();
        bytes.shrink_to_fit();
        SharedTiles { bytes, tags }
    }

    /// Fills one region's tiles (no noise) for a region based at
    /// `va_base`, taking from `shared` the tiles it has.
    fn fill_region(
        &self,
        p: &PlannedRegion<'_>,
        instance_seed: u64,
        va_base: u64,
        version: u64,
        shared: Option<&SharedTiles>,
    ) -> Vec<u8> {
        let tile = self.model.tile_size;
        let n_tiles = p.size / tile;
        let per_page = PAGE_SIZE / tile;
        let mut data = Vec::with_capacity(p.size);
        for (slot, from) in self.page_layout(p, instance_seed).into_iter().enumerate() {
            let tiles = per_page.min(n_tiles - slot * per_page);
            let first = match from {
                Some(stream_page) => stream_page * per_page as u64,
                None => (1u64 << 40) + (slot * per_page) as u64,
            };
            let held = shared
                .filter(|_| from.is_some())
                .and_then(|s| Some((s, s.tags(first, tiles)?)));
            let mut t = 0;
            while t < tiles {
                let idx = first + t as u64;
                let kind = match (from, held) {
                    (None, _) => TileKind::Unique,
                    (Some(_), Some((s, tags))) => match tags[t] {
                        Tag::Pattern(pid) => TileKind::Pattern(pid),
                        Tag::Unique => TileKind::Unique,
                        Tag::Held(i) => {
                            // Held tiles in a row are in a row in the store.
                            let run = tags[t..]
                                .iter()
                                .take_while(|g| matches!(g, Tag::Held(_)))
                                .count();
                            data.extend_from_slice(&s.bytes[i as usize * tile..][..run * tile]);
                            t += run;
                            continue;
                        }
                    },
                    (Some(_), None) => self.model.tile_kind(p.stream, idx, p.kind),
                };
                let at = data.len();
                data.resize(at + tile, 0);
                let out = &mut data[at..];
                self.fill_tile(out, kind, p, idx, instance_seed, va_base, version);
                t += 1;
            }
        }
        data.resize(p.size, 0);
        data
    }

    /// The page of the stream each page of the region holds, in address
    /// order; `None` is a page only this instance has.
    fn page_layout(&self, p: &PlannedRegion<'_>, instance_seed: u64) -> Vec<Option<u64>> {
        let m = &self.model;
        let pages = (p.size / m.tile_size).div_ceil(PAGE_SIZE / m.tile_size);
        match p.layout {
            Layout::Direct => (0..pages as u64).map(Some).collect(),
            // Heap jitter is page-granular: big allocations are
            // mmap-backed, so allocation-order divergence inserts/skips
            // whole pages — shifting content by page multiples without
            // breaking chunk alignment inside pages (what the §2
            // measurement observes).
            Layout::Jittered => {
                let mut jitter =
                    JitterRng::new(mix_seed(p.stream, mix_seed(instance_seed, LAYOUT_SALT)));
                let mut next = 0u64;
                (0..pages)
                    .map(|_| {
                        let u = jitter.next_f64();
                        if u < m.heap_insert_prob {
                            return None; // an instance-unique allocation
                        }
                        if u < m.heap_insert_prob + m.heap_skip_prob {
                            next += 1; // this instance skipped a page
                        }
                        next += 1;
                        Some(next - 1)
                    })
                    .collect()
            }
        }
    }

    /// Fills one tile of `p` in a region based at `va_base`.
    #[allow(clippy::too_many_arguments)]
    fn fill_tile(
        &self,
        out: &mut [u8],
        kind: TileKind,
        p: &PlannedRegion<'_>,
        idx: u64,
        instance_seed: u64,
        va_base: u64,
        version: u64,
    ) {
        let m = &self.model;
        match kind {
            TileKind::Pattern(pid) => {
                let motifs = self.cache.motifs.get_or_init(|| {
                    (0..m.pattern_pool as u32)
                        .map(|pid| m.pattern_motif(pid))
                        .collect()
                });
                write_motif(out, &motifs[pid as usize]);
            }
            _ => m.fill_tile(
                out,
                kind,
                p.stream,
                idx,
                instance_seed,
                va_base,
                p.size as u64,
                version,
            ),
        }
    }
}

/// How tile indices map to slots within a region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Layout {
    /// Slot `i` holds tile `i` — file-backed mappings, identical layout
    /// across instances.
    Direct,
    /// Per-instance insert/skip jitter — heap allocation-order
    /// divergence, which breaks page alignment across instances.
    Jittered,
}

/// Heap layout jitter needs only uniform draws; a tiny dedicated LCG-ish
/// stream keeps `DetRng` allocations out of the hot loop.
struct JitterRng(u64);

impl JitterRng {
    fn new(seed: u64) -> Self {
        JitterRng(seed | 1)
    }
    fn next_f64(&mut self) -> f64 {
        self.0 = mix_seed(self.0, 0x9E37);
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn canonical_base(stream_seed: u64) -> u64 {
    // Spread canonical bases through a 47-bit user-space range,
    // page-aligned, deterministic per stream.
    0x5000_0000_0000 + (mix_seed(stream_seed, CANON_SALT) % (1 << 30)) * PAGE_SIZE as u64
}

/// A materialized sandbox memory image.
#[derive(Debug, Clone)]
pub struct MemoryImage {
    regions: Vec<Region>,
    /// Cumulative page counts: `page_prefix[i]` = pages before region i.
    page_prefix: Vec<usize>,
    total_pages: usize,
}

impl MemoryImage {
    /// Wraps a list of regions (each page-aligned).
    pub fn new(regions: Vec<Region>) -> Self {
        let mut page_prefix = Vec::with_capacity(regions.len());
        let mut total = 0usize;
        for r in &regions {
            debug_assert_eq!(r.data.len() % PAGE_SIZE, 0, "regions must be page-aligned");
            page_prefix.push(total);
            total += r.page_count();
        }
        MemoryImage {
            regions,
            page_prefix,
            total_pages: total,
        }
    }

    /// The regions, in address order.
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// Total bytes of content.
    pub fn total_bytes(&self) -> usize {
        self.total_pages * PAGE_SIZE
    }

    /// Total pages.
    pub fn page_count(&self) -> usize {
        self.total_pages
    }

    /// Borrows global page `i`.
    ///
    /// # Panics
    /// Panics if `i >= page_count()`.
    pub fn page(&self, i: usize) -> &[u8] {
        let (r, local) = self.locate(i);
        self.regions[r].page(local)
    }

    /// Maps a global page index to `(region_index, local_page_index)`.
    pub fn locate(&self, page: usize) -> (usize, usize) {
        assert!(page < self.total_pages, "page {page} out of range");
        let r = match self.page_prefix.binary_search(&page) {
            Ok(exact) => {
                // May be the start of an empty region; walk to the one
                // that actually contains pages.
                let mut i = exact;
                while self.regions[i].page_count() == 0 {
                    i += 1;
                }
                i
            }
            Err(ins) => ins - 1,
        };
        (r, page - self.page_prefix[r])
    }

    /// Iterates `(page_index, page_bytes)` over the whole image.
    pub fn pages(&self) -> impl Iterator<Item = (usize, &[u8])> + '_ {
        let mut idx = 0usize;
        self.regions.iter().flat_map(move |r| {
            let base = idx;
            idx += r.page_count();
            (0..r.page_count()).map(move |i| (base + i, r.page(i)))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::content::RegionMix;

    fn spec() -> FunctionSpec {
        // 16 MiB total: ~6.5 MiB runtime+json, ~9.5 MiB anonymous, so
        // both file-backed and heap behaviours are exercised.
        FunctionSpec::new("TestFn", 16 << 20, &["json"])
    }

    fn builder() -> ImageBuilder {
        ImageBuilder::new(spec()).with_scale(16)
    }

    /// The pre-template build, kept whole as the oracle: its own region
    /// list, every region filled tile by tile with the reference fills.
    fn reference_build(b: &ImageBuilder, instance_seed: u64, version: u64) -> MemoryImage {
        let mut regions = Vec::new();
        let runtime = LibraryId::new("python-runtime");
        for lib in std::iter::once(&runtime).chain(b.spec.libs.iter()) {
            let kind = if lib.0 == "python-runtime" {
                RegionKind::Runtime
            } else {
                RegionKind::Library
            };
            let size = b.scaled(lib.catalog_bytes());
            regions.push(reference_region(
                b,
                kind,
                &lib.0,
                lib.seed(),
                size,
                instance_seed,
                Layout::Direct,
                version,
            ));
        }
        let anon = b.spec.anon_bytes();
        let stack_paper = (anon / 10).clamp(PAGE_SIZE, 256 << 10);
        let filemap_paper = anon * 15 / 100;
        let heap_paper = anon
            .saturating_sub(stack_paper + filemap_paper)
            .max(PAGE_SIZE);
        regions.push(reference_region(
            b,
            RegionKind::FileMap,
            "filemap",
            mix_seed(b.spec.seed(), FILEMAP_SALT),
            b.scaled(filemap_paper),
            instance_seed,
            Layout::Direct,
            version,
        ));
        regions.push(reference_region(
            b,
            RegionKind::Heap,
            "heap",
            mix_seed(b.spec.seed(), HEAP_SALT),
            b.scaled(heap_paper),
            instance_seed,
            Layout::Jittered,
            version,
        ));
        let stack_stream = mix_seed(b.spec.seed(), STACK_SALT);
        let mut stack = reference_region(
            b,
            RegionKind::Stack,
            "stack",
            stack_stream,
            b.scaled(stack_paper),
            instance_seed,
            Layout::Direct,
            version,
        );
        let shift = b.aslr.stack_shift(stack_stream, instance_seed);
        rotate_content(&mut stack.data, shift);
        regions.push(stack);
        MemoryImage::new(regions)
    }

    #[allow(clippy::too_many_arguments)]
    fn reference_region(
        b: &ImageBuilder,
        kind: RegionKind,
        name: &str,
        stream_seed: u64,
        size: usize,
        instance_seed: u64,
        layout: Layout,
        version: u64,
    ) -> Region {
        let m = &b.model;
        let va_base = b
            .aslr
            .region_base(canonical_base(stream_seed), stream_seed, instance_seed);
        let n_tiles = size / m.tile_size;
        let mut data = vec![0u8; size];
        let tiles_per_page = PAGE_SIZE / m.tile_size;
        let mut jitter =
            JitterRng::new(mix_seed(stream_seed, mix_seed(instance_seed, LAYOUT_SALT)));
        let mut seq: Vec<(u64, bool)> = Vec::with_capacity(n_tiles);
        match layout {
            Layout::Direct => seq.extend((0..n_tiles as u64).map(|i| (i, false))),
            Layout::Jittered => {
                let mut shared_page = 0u64;
                let mut own_page = 0u64;
                while seq.len() < n_tiles {
                    let u = jitter.next_f64();
                    if u < m.heap_insert_prob {
                        for t in 0..tiles_per_page as u64 {
                            seq.push(((1u64 << 40) + own_page * tiles_per_page as u64 + t, true));
                        }
                    } else {
                        if u < m.heap_insert_prob + m.heap_skip_prob {
                            shared_page += 1;
                        }
                        for t in 0..tiles_per_page as u64 {
                            seq.push((shared_page * tiles_per_page as u64 + t, false));
                        }
                        shared_page += 1;
                    }
                    own_page += 1;
                }
                seq.truncate(n_tiles);
            }
        }
        for (slot, &(tile_idx, forced_unique)) in seq.iter().enumerate() {
            let tk = if forced_unique {
                TileKind::Unique
            } else {
                m.tile_kind(stream_seed, tile_idx, kind)
            };
            crate::content::reference::fill_tile(
                m,
                &mut data[slot * m.tile_size..(slot + 1) * m.tile_size],
                tk,
                stream_seed,
                tile_idx,
                instance_seed,
                va_base,
                size as u64,
                version,
            );
        }
        m.apply_noise(&mut data, stream_seed, instance_seed);
        m.apply_dispersed_noise(
            &mut data,
            stream_seed,
            instance_seed,
            m.mixture.mix_for(kind).dispersed_noise,
        );
        Region {
            kind,
            name: name.to_string(),
            va_base,
            data,
        }
    }

    fn assert_same_image(got: &MemoryImage, want: &MemoryImage, what: &str) {
        assert_eq!(got.regions().len(), want.regions().len(), "{what}");
        for (g, w) in got.regions().iter().zip(want.regions()) {
            assert_eq!((g.kind, &g.name, g.va_base), (w.kind, &w.name, w.va_base));
            assert!(g.data == w.data, "{what}: region {} differs", g.name);
        }
    }

    #[test]
    fn templated_build_matches_the_per_tile_fill() {
        use crate::content::ContentModelConfig;
        let calibrated = |tweak: &dyn Fn(&mut ContentModel)| {
            let mut m = ContentModel {
                mixture: ContentModelConfig::paper_calibrated(),
                ..ContentModel::default()
            };
            tweak(&mut m);
            assert!(m.mixture.is_valid());
            m
        };
        let anon_unique = |m: &mut ContentModel, frac: f64| {
            for mix in [&mut m.mixture.heap, &mut m.mixture.stack] {
                *mix = RegionMix {
                    low_frac: 0.0,
                    medium_frac: 0.0,
                    unique_frac: frac,
                    ..*mix
                };
            }
        };
        let models = [
            ("legacy", ContentModel::default()),
            ("calibrated", calibrated(&|_| {})),
            // Unique tiles in a file-backed region are overlaid too.
            (
                "unique runtime",
                calibrated(&|m| m.mixture.runtime.unique_frac = 0.2),
            ),
            // Half the pages skip one: stream indices run far past the
            // heap template's end.
            ("skips", calibrated(&|m| m.heap_skip_prob = 0.5)),
            ("inserts", calibrated(&|m| m.heap_insert_prob = 0.5)),
            ("no unique tile", calibrated(&|m| anon_unique(m, 0.0))),
            ("all unique", calibrated(&|m| anon_unique(m, 1.0))),
        ];
        for (label, model) in &models {
            for aslr in [AslrConfig::DISABLED, AslrConfig::LINUX] {
                // Two builders sharing the numpy library, each with its
                // own template.
                let builders = [
                    ("F1", 12 << 20, &["numpy", "json"][..]),
                    ("F2", 16 << 20, &["numpy"][..]),
                ]
                .map(|(name, mem, libs)| {
                    ImageBuilder::new(FunctionSpec::new(name, mem, libs))
                        .with_scale(16)
                        .with_model(model.clone())
                        .with_aslr(aslr)
                });
                // Version 0 comes back after 1 replaced its template.
                for (step, version) in [0u64, 1, 0, 2].into_iter().enumerate() {
                    for b in &builders {
                        for seed in [3u64, 4] {
                            let what = format!(
                                "{} v{version} (step {step}) seed {seed} aslr {} model {label}",
                                b.spec.name, aslr.enabled
                            );
                            assert_same_image(
                                &b.build_versioned(seed, version),
                                &reference_build(b, seed, version),
                                &what,
                            );
                        }
                    }
                }
                for b in &builders {
                    // One template per version change when every base is
                    // canonical; almost surely none under ASLR.
                    let expect = if aslr.enabled { 0 } else { 4 };
                    assert_eq!(b.template_builds(), expect, "{}", b.spec.name);
                    assert_eq!(b.template_bytes() > 0, !aslr.enabled);
                }
            }
        }
    }

    /// A template holds bytes only for `Shared` and `Medium` tiles, back
    /// to back in stream order; a pattern tile is its id and a unique
    /// tile a tag. Builds from it at versions 0–2 equal the reference
    /// fills under both shipped weightings.
    #[test]
    fn template_holds_no_bytes_for_pattern_or_unique_tiles() {
        use crate::content::ContentModelConfig;
        for mixture in [
            ContentModelConfig::legacy(),
            ContentModelConfig::paper_calibrated(),
        ] {
            let b = builder().with_model(ContentModel {
                mixture,
                ..ContentModel::default()
            });
            let tile = b.model.tile_size;
            for version in 0..3 {
                for seed in [5u64, 6] {
                    assert_same_image(
                        &b.build_versioned(seed, version),
                        &reference_build(&b, seed, version),
                        &format!("v{version} seed {seed}"),
                    );
                }
                let plan = b.region_plan();
                let t = b.template(&plan, version);
                let (mut patterns, mut uniques, mut held_bytes) = (0, 0, 0);
                for (p, shared) in plan.iter().zip(&t.regions) {
                    let mut held = 0;
                    for (idx, tag) in shared.tags.iter().enumerate() {
                        match (b.model.tile_kind(p.stream, idx as u64, p.kind), *tag) {
                            (TileKind::Pattern(want), Tag::Pattern(pid)) => {
                                assert_eq!(pid, want);
                                patterns += 1;
                            }
                            (TileKind::Unique, Tag::Unique) => uniques += 1,
                            (TileKind::Shared | TileKind::Medium, Tag::Held(i)) => {
                                assert_eq!(i, held, "{} tile {idx}", p.name);
                                held += 1;
                            }
                            (kind, tag) => panic!("{} tile {idx}: {kind:?} as {tag:?}", p.name),
                        }
                    }
                    assert_eq!(shared.bytes.len(), held as usize * tile, "{}", p.name);
                    held_bytes += shared.held_bytes();
                }
                assert!(patterns > 0 && uniques > 0, "v{version}");
                assert_eq!(b.template_bytes(), held_bytes);
                assert_eq!(
                    b.template_builds(),
                    version + 1,
                    "the held template was reused"
                );
            }
        }
    }

    #[test]
    fn page_count_matches_every_functionbench_build() {
        for profile in medes_trace::functionbench_suite() {
            let libs: Vec<&str> = profile.libs.iter().map(String::as_str).collect();
            let spec = FunctionSpec::new(&profile.name, profile.memory_bytes, &libs);
            for scale in [16usize, 64, 128, 1024] {
                let b = ImageBuilder::new(spec.clone()).with_scale(scale);
                for seed in [0u64, 1, 0xDEAD_BEEF] {
                    for version in 0..3 {
                        assert_eq!(
                            b.page_count(),
                            b.build_versioned(seed, version).page_count(),
                            "{} at 1/{scale}, seed {seed}, v{version}",
                            profile.name
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn page_count_needs_no_build() {
        let b = builder();
        assert_eq!(b.page_count(), b.build(1).page_count());
        assert_eq!(b.template_builds(), 1);
        let fresh = builder();
        assert!(fresh.page_count() > 0);
        assert_eq!(fresh.template_builds(), 0, "page_count filled a template");
    }

    #[test]
    fn build_is_deterministic() {
        let b = builder();
        let a = b.build(7);
        let c = b.build(7);
        assert_eq!(a.page_count(), c.page_count());
        for i in 0..a.page_count() {
            assert_eq!(a.page(i), c.page(i), "page {i}");
        }
    }

    #[test]
    fn instances_differ_but_share_most_content() {
        let b = builder();
        let a = b.build(1);
        let c = b.build(2);
        assert_eq!(a.page_count(), c.page_count());
        let mut identical_pages = 0usize;
        for i in 0..a.page_count() {
            if a.page(i) == c.page(i) {
                identical_pages += 1;
            }
        }
        assert!(identical_pages > 0, "library pages should match exactly");
        assert!(
            identical_pages < a.page_count(),
            "heap/unique pages should differ"
        );
    }

    #[test]
    fn has_expected_regions() {
        let img = builder().build(3);
        let kinds: Vec<RegionKind> = img.regions().iter().map(|r| r.kind).collect();
        assert!(kinds.contains(&RegionKind::Runtime));
        assert!(kinds.contains(&RegionKind::Library));
        assert!(kinds.contains(&RegionKind::FileMap));
        assert!(kinds.contains(&RegionKind::Heap));
        assert!(kinds.contains(&RegionKind::Stack));
    }

    #[test]
    fn page_addressing_consistent() {
        let img = builder().build(4);
        let total = img.page_count();
        assert_eq!(img.total_bytes(), total * PAGE_SIZE);
        let mut seen = 0usize;
        for (i, page) in img.pages() {
            assert_eq!(i, seen);
            assert_eq!(page, img.page(i));
            seen += 1;
        }
        assert_eq!(seen, total);
    }

    #[test]
    fn library_regions_shared_across_functions() {
        let m = ContentModel {
            noise_rate: 0.0, // isolate the layout effect
            ..ContentModel::default()
        };
        let f1 = ImageBuilder::new(FunctionSpec::new("F1", 4 << 20, &["numpy"]))
            .with_scale(16)
            .with_model(m.clone());
        let f2 = ImageBuilder::new(FunctionSpec::new("F2", 6 << 20, &["numpy"]))
            .with_scale(16)
            .with_model(m);
        let i1 = f1.build(10);
        let i2 = f2.build(20);
        let numpy1 = i1.regions().iter().find(|r| r.name == "numpy").unwrap();
        let numpy2 = i2.regions().iter().find(|r| r.name == "numpy").unwrap();
        assert_eq!(numpy1.data, numpy2.data, "shared library bytes must match");
    }

    #[test]
    fn aslr_changes_pointers_not_layout() {
        let b_off = builder();
        let b_on = builder().with_aslr(AslrConfig::LINUX);
        let off = b_off.build(5);
        let on = b_on.build(5);
        assert_eq!(off.page_count(), on.page_count());
        // At the byte level only pointer words and the stack rotation
        // may differ — that is what keeps the ASLR redundancy drop small
        // (Fig 1b).
        let mut diff_bytes = 0usize;
        for i in 0..off.page_count() {
            diff_bytes += off
                .page(i)
                .iter()
                .zip(on.page(i))
                .filter(|(a, b)| a != b)
                .count();
        }
        let frac = diff_bytes as f64 / off.total_bytes() as f64;
        assert!(frac > 0.0, "ASLR must change something");
        assert!(frac < 0.10, "ASLR changed {:.1}% of bytes", frac * 100.0);
    }

    #[test]
    fn scale_reduces_size_proportionally() {
        let s1 = ImageBuilder::new(spec())
            .with_scale(1)
            .build(1)
            .total_bytes();
        let s16 = ImageBuilder::new(spec())
            .with_scale(16)
            .build(1)
            .total_bytes();
        let ratio = s1 as f64 / s16 as f64;
        assert!((8.0..24.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn version_zero_matches_unversioned_build() {
        for mixture in [
            crate::content::ContentModelConfig::legacy(),
            crate::content::ContentModelConfig::paper_calibrated(),
        ] {
            let b = builder().with_model(ContentModel {
                mixture,
                ..ContentModel::default()
            });
            let a = b.build(9);
            let v0 = b.build_versioned(9, 0);
            assert_eq!(a.page_count(), v0.page_count());
            for i in 0..a.page_count() {
                assert_eq!(a.page(i), v0.page(i), "page {i}");
            }
        }
    }

    #[test]
    fn version_bump_changes_pages_without_changing_layout() {
        let b = builder();
        let v0 = b.build_versioned(9, 0);
        let v1 = b.build_versioned(9, 1);
        assert_eq!(v0.page_count(), v1.page_count(), "layout is stable");
        let changed = (0..v0.page_count())
            .filter(|&i| v0.page(i) != v1.page(i))
            .count();
        assert!(changed > 0, "a version epoch must remap some pages");
        assert!(
            changed < v0.page_count(),
            "pattern/unique pages are version-invariant"
        );
        // Epochs are cumulative and deterministic.
        let v1b = b.build_versioned(9, 1);
        for i in 0..v1.page_count() {
            assert_eq!(v1.page(i), v1b.page(i));
        }
    }

    #[test]
    fn mixture_reduces_cross_instance_identity() {
        let plain = builder();
        let mixed = builder().with_model(ContentModel {
            mixture: crate::content::ContentModelConfig::paper_calibrated(),
            ..ContentModel::default()
        });
        let identical = |a: &MemoryImage, b: &MemoryImage| {
            (0..a.page_count())
                .filter(|&i| a.page(i) == b.page(i))
                .count() as f64
                / a.page_count() as f64
        };
        let p = identical(&plain.build(1), &plain.build(2));
        let m = identical(&mixed.build(1), &mixed.build(2));
        assert!(
            m < p,
            "dispersed noise must lower the identical-page fraction: {m} vs {p}"
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn page_out_of_range_panics() {
        let img = builder().build(1);
        let _ = img.page(img.page_count());
    }
}
