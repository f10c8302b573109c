//! The metric catalogue: every name the benchmark prints, with its
//! unit, direction and (for end-to-end metrics) regression bound.
//! `BENCHMARK.json` lists the same entries; a unit test keeps the two
//! in step. Units say which clock a time is on: `s`/`ms`/`us`/`ns` are
//! host time, `sim_ms` is simulated time.

use crate::stats::Better;

/// One catalogue entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Which direction is good.
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; `None` for per-layer metrics.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: Some(bound),
    }
}

const fn lo(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: None,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
        bound: None,
    }
}

/// End-to-end metrics, printed with `--trace 0`. All lower-is-better
/// and never zero on any workload.
pub const END_TO_END: &[MetricDef] = &[
    e2e("wall_s", "s", 0.25),
    e2e("setup_s", "s", 0.25),
    e2e("peak_rss_mib", "MiB", 0.25),
    e2e("startup_mean_ms", "sim_ms", 0.15),
    e2e("slowdown_p999", "ratio", 0.10),
    e2e("cold_start_frac", "ratio", 0.20),
    e2e("mem_mean_gib", "GiB", 0.05),
];

/// Per-layer metrics, printed with `--trace 1`. A timing without a
/// suffix is the p50 of its samples; `.p99` is the 99th percentile.
pub const PER_LAYER: &[MetricDef] = &[
    // medes-sim
    lo("sim.queue_push_pop_ns", "ns"),
    lo("sim.queue_push_pop_ns.p99", "ns"),
    // medes-trace
    lo("trace.gen_s", "s"),
    hi("trace.invocations", "count"),
    // medes-mem
    lo("mem.image_build_us", "us"),
    lo("mem.image_build_us.p99", "us"),
    hi("mem.image_mib_per_s", "MiB/s"),
    lo("mem.builds_per_run", "count"),
    // medes-hash
    lo("hash.fingerprint_ns_per_page", "ns"),
    lo("hash.fingerprint_ns_per_page.p99", "ns"),
    lo("hash.sha1_64_ns", "ns"),
    lo("hash.sha1_64_ns.p99", "ns"),
    lo("hash.empty_fp_frac", "ratio"),
    // medes-delta
    lo("delta.encode_ns_per_page", "ns"),
    lo("delta.encode_ns_per_page.p99", "ns"),
    lo("delta.apply_ns_per_page", "ns"),
    lo("delta.apply_ns_per_page.p99", "ns"),
    lo("delta.patch_bytes_mean", "B"),
    lo("delta.patch_reject_frac", "ratio"),
    // medes-core registry
    lo("registry.lookup_ns", "ns"),
    lo("registry.lookup_ns.p99", "ns"),
    lo("registry.insert_ns", "ns"),
    lo("registry.insert_ns.p99", "ns"),
    lo("registry.remove_sandbox_us", "us"),
    lo("registry.remove_sandbox_us.p99", "us"),
    lo("registry.dist3.lookup_ns", "ns"),
    lo("registry.dist3.lookup_ns.p99", "ns"),
    lo("registry.dist3.insert_ns", "ns"),
    lo("registry.dist3.insert_ns.p99", "ns"),
    lo("registry.dist3.remove_sandbox_us", "us"),
    lo("registry.dist3.remove_sandbox_us.p99", "us"),
    hi("registry.hit_frac", "ratio"),
    lo("registry.rpcs", "count"),
    lo("registry.peak_entries", "count"),
    // medes-core dedup
    lo("dedup.scan_us", "us"),
    lo("dedup.scan_us.p99", "us"),
    lo("dedup.commit_us", "us"),
    lo("dedup.commit_us.p99", "us"),
    hi("dedup.ops", "count"),
    hi("dedup.saved_frac", "ratio"),
    hi("dedup.same_fn_frac", "ratio"),
    // medes-core restore + page cache
    lo("restore.op_us", "us"),
    lo("restore.op_us.p99", "us"),
    hi("restore.ops", "count"),
    lo("restore.dedup_start_mean", "sim_ms"),
    lo("restore.sim_base_read", "sim_ms"),
    lo("restore.sim_compute", "sim_ms"),
    lo("restore.sim_ckpt", "sim_ms"),
    lo("restore.fallback_frac", "ratio"),
    lo("pagecache.lookup_ns", "ns"),
    lo("pagecache.lookup_ns.p99", "ns"),
    lo("pagecache.insert_ns", "ns"),
    lo("pagecache.insert_ns.p99", "ns"),
    hi("pagecache.hit_frac", "ratio"),
    lo("pagecache.invalidations", "count"),
    // medes-net
    lo("net.rdma_batch_ns", "ns"),
    lo("net.rdma_batch_ns.p99", "ns"),
    lo("net.rpc_ns", "ns"),
    lo("net.rpc_ns.p99", "ns"),
    lo("net.rdma_gib", "GiB"),
    lo("net.retries", "count"),
    lo("net.failures", "count"),
    // medes-ckpt
    lo("ckpt.from_image_us", "us"),
    lo("ckpt.from_image_us.p99", "us"),
    lo("ckpt.restore_time_ns", "ns"),
    lo("ckpt.restore_time_ns.p99", "ns"),
    // medes-policy
    lo("policy.solve_ns", "ns"),
    lo("policy.solve_ns.p99", "ns"),
    lo("policy.cold_vs_fixed", "ratio"),
    // medes-obs
    lo("obs.overhead_frac", "ratio"),
    lo("obs.spans", "count"),
    lo("obs.noop_ns", "ns"),
    lo("obs.noop_ns.p99", "ns"),
    // medes-core platform
    lo("platform.host_us_per_req", "us"),
    lo("platform.spawned", "count"),
    lo("platform.evictions", "count"),
    lo("platform.wall_growth_exp", "ratio"),
    lo("platform.residual_frac", "ratio"),
    lo("share.medes-sim", "ratio"),
    lo("share.medes-mem", "ratio"),
    lo("share.medes-hash", "ratio"),
    lo("share.medes-delta", "ratio"),
    lo("share.medes-net", "ratio"),
    lo("share.medes-ckpt", "ratio"),
    lo("share.medes-policy", "ratio"),
    lo("share.medes-obs", "ratio"),
    lo("share.core-registry", "ratio"),
    lo("share.core-dedup", "ratio"),
    lo("share.core-restore", "ratio"),
];

/// The catalogue entry called `name`, from either list.
pub fn def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// Names may use letters, digits, `_`, `.` and `-`, start with a letter
/// or digit, and be at most 64 characters long.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// Units may use letters, digits, `_`, `/`, `%`, `.` and `-`, at most 16.
pub fn valid_unit(unit: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_charset() {
        for good in [
            "wall_s",
            "share.medes-sim",
            "registry.dist3.lookup_ns.p99",
            "9lives",
        ] {
            assert!(valid_name(good), "{good}");
        }
        for bad in ["", ".x", "-x", "a b", "a/b", "ünï", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_unit("MiB/s") && valid_unit("sim_ms") && !valid_unit("µs"));
    }

    #[test]
    fn catalogue_is_well_formed() {
        let all: Vec<&MetricDef> = END_TO_END.iter().chain(PER_LAYER).collect();
        for (i, d) in all.iter().enumerate() {
            assert!(valid_name(d.name), "{}", d.name);
            assert!(valid_unit(d.unit), "{}", d.unit);
            assert!(
                all[..i].iter().all(|o| o.name != d.name),
                "{} twice",
                d.name
            );
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        for d in END_TO_END {
            let b = d.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25);
        }
        let setup = def("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let largest = END_TO_END
            .iter()
            .filter_map(|d| d.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(largest));
        assert!(PER_LAYER.iter().all(|d| d.bound.is_none()));
    }
}
