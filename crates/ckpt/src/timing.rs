//! The checkpoint/restore timing model.
//!
//! Constants are calibrated from the paper's own measurements:
//!
//! * a *full* CRIU restore (namespace creation, process-tree forks,
//!   reading the image from disk) costs ~650 ms for a typical sandbox;
//! * after Medes's optimizations — namespaces and process tree created
//!   *before* dedup, images kept in memory — the remaining memory-restore
//!   path is ~140 ms (§4.2);
//! * checkpointing a sandbox takes a few hundred ms and scales with the
//!   dump size (the full dedup op takes 2–3.3 s end to end, §7.7).

use medes_sim::SimDuration;

use crate::image::ProcessSpec;

/// What was done ahead of time for a restore.
#[derive(Debug, Clone, Copy)]
pub struct RestoreOptions {
    /// Namespaces and the process tree were pre-created at dedup time
    /// (Medes's first restore optimization).
    pub precreated_sandbox: bool,
    /// The checkpoint image lives in memory, not on disk (second
    /// optimization).
    pub in_memory_image: bool,
}

impl RestoreOptions {
    /// Medes's configuration: everything pre-created, image in memory.
    pub const MEDES: RestoreOptions = RestoreOptions {
        precreated_sandbox: true,
        in_memory_image: true,
    };

    /// A vanilla CRIU restore (the ~650 ms path).
    pub const VANILLA_CRIU: RestoreOptions = RestoreOptions {
        precreated_sandbox: false,
        in_memory_image: false,
    };
}

/// Cost breakdown of one restore.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RestoreBreakdown {
    /// Namespace + process-tree preparation.
    pub preparation: SimDuration,
    /// Reading + mapping the memory dump.
    pub memory: SimDuration,
}

impl RestoreBreakdown {
    /// Total restore time.
    pub fn total(&self) -> SimDuration {
        self.preparation + self.memory
    }
}

/// Checkpoint/restore cost model. It has no settings: every cost is a
/// const beside the method that reads it.
#[derive(Debug, Clone, Default)]
pub struct TimingModel;

/// Fixed cost of initiating a checkpoint (freeze, parasite inject).
const CKPT_FIXED: SimDuration = SimDuration::from_millis(120);
/// Checkpoint cost per MiB dumped.
const CKPT_PER_MIB: SimDuration = SimDuration::from_millis(6);

/// Cost of creating one namespace.
const NS_CREATE: SimDuration = SimDuration::from_millis(60);
/// Cost of one fork() during process-tree reconstruction.
const FORK_PER_PROC: SimDuration = SimDuration::from_millis(2);
/// Fixed cost of the memory-restore path (page-table setup, CRIU
/// bookkeeping) — the ~140 ms the paper reports.
const RESTORE_FIXED: SimDuration = SimDuration::from_millis(110);
/// Disk read bandwidth for on-disk images (MiB/s).
const DISK_MIB_S: f64 = 200.0;
/// Memory copy bandwidth for in-memory images (MiB/s).
const MEM_MIB_S: f64 = 4096.0;

impl TimingModel {
    /// Time to checkpoint `bytes` of sandbox memory.
    pub fn checkpoint_time(&self, bytes: usize) -> SimDuration {
        let mib = bytes as f64 / (1 << 20) as f64;
        CKPT_FIXED + CKPT_PER_MIB.mul_f64(mib)
    }

    /// Restore cost for a dump of `bytes` with the given options.
    pub fn restore_time(
        &self,
        bytes: usize,
        proc: &ProcessSpec,
        opts: &RestoreOptions,
    ) -> RestoreBreakdown {
        let preparation = if opts.precreated_sandbox {
            SimDuration::ZERO
        } else {
            NS_CREATE.mul_f64(proc.namespaces as f64) + FORK_PER_PROC.mul_f64(proc.processes as f64)
        };
        let mib = bytes as f64 / (1 << 20) as f64;
        let bw = if opts.in_memory_image {
            MEM_MIB_S
        } else {
            DISK_MIB_S
        };
        let memory = RESTORE_FIXED + SimDuration::from_secs_f64(mib / bw);
        RestoreBreakdown {
            preparation,
            memory,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIB: usize = 1 << 20;

    #[test]
    fn medes_restore_matches_paper_scale() {
        // ~30 MiB sandbox: the paper reports ~140 ms for the optimized
        // memory-restore path.
        let m = TimingModel;
        let b = m.restore_time(30 * MIB, &ProcessSpec::default(), &RestoreOptions::MEDES);
        let ms = b.total().as_millis_f64();
        assert!((100.0..200.0).contains(&ms), "optimized restore {ms} ms");
        assert_eq!(b.preparation, SimDuration::ZERO);
    }

    #[test]
    fn vanilla_restore_is_much_slower() {
        // The paper's unoptimized number is ~650 ms.
        let m = TimingModel;
        let b = m.restore_time(
            30 * MIB,
            &ProcessSpec::default(),
            &RestoreOptions::VANILLA_CRIU,
        );
        let ms = b.total().as_millis_f64();
        assert!((400.0..900.0).contains(&ms), "vanilla restore {ms} ms");
    }

    #[test]
    fn checkpoint_scales_with_size() {
        let m = TimingModel;
        let small = m.checkpoint_time(17 * MIB);
        let large = m.checkpoint_time(90 * MIB);
        assert!(large > small);
        assert!(small >= CKPT_FIXED);
    }

    #[test]
    fn more_processes_cost_more_preparation() {
        let m = TimingModel;
        let single = m.restore_time(
            MIB,
            &ProcessSpec {
                processes: 1,
                namespaces: 5,
            },
            &RestoreOptions::VANILLA_CRIU,
        );
        let multi = m.restore_time(
            MIB,
            &ProcessSpec {
                processes: 8,
                namespaces: 5,
            },
            &RestoreOptions::VANILLA_CRIU,
        );
        assert!(multi.preparation > single.preparation);
    }
}
