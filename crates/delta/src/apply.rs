//! Patch application: reconstruct a target page from base + patch.
//!
//! This is the hot path of the *restore* operation — the dedup agent
//! applies one patch per deduplicated page while a request is waiting —
//! so it reads the instructions straight from the patch's wire bytes
//! (an owned [`Patch`] and a borrowed [`PatchRef`] hold the same bytes,
//! so [`PatchRef::apply_into`] is the one apply body), with exact
//! pre-allocation and no copies beyond the output buffer itself. Batch
//! callers should reuse one output buffer across pages via
//! [`apply_into`], which skips the per-page `Vec` allocation entirely;
//! [`apply`] is the allocating convenience form. A validation pre-pass
//! checks every COPY range and the claimed target length *before* any
//! buffer is grown, so a corrupt patch can never over-allocate.

use crate::format::{Instr, Patch, PatchRef};

/// Errors from [`apply`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaError {
    /// The base buffer has a different length than the patch expects.
    BaseLengthMismatch {
        /// Length recorded in the patch header.
        expected: u32,
        /// Length of the supplied base.
        actual: usize,
    },
    /// A COPY instruction references bytes outside the base.
    CopyOutOfRange {
        /// COPY offset.
        offset: u32,
        /// COPY length.
        len: u32,
    },
    /// The instruction stream reconstructed a different number of bytes
    /// than the header claims (corrupt patch).
    OutputLengthMismatch {
        /// Length recorded in the patch header.
        expected: u32,
        /// Bytes actually produced.
        actual: usize,
    },
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaError::BaseLengthMismatch { expected, actual } => write!(
                f,
                "base length mismatch: patch expects {expected}, got {actual}"
            ),
            DeltaError::CopyOutOfRange { offset, len } => {
                write!(f, "COPY out of range: offset {offset} len {len}")
            }
            DeltaError::OutputLengthMismatch { expected, actual } => write!(
                f,
                "output length mismatch: header says {expected}, produced {actual}"
            ),
        }
    }
}

impl std::error::Error for DeltaError {}

/// Reconstructs the target buffer from `base` and `patch`.
pub fn apply(base: &[u8], patch: &Patch) -> Result<Vec<u8>, DeltaError> {
    let mut out = Vec::new();
    apply_into(base, patch, &mut out)?;
    Ok(out)
}

/// [`apply`] writing into a caller-provided buffer: `out` is cleared,
/// grown at most once (to the validated output size — never to an
/// unvalidated `target_len`), and filled. Identical results and error
/// precedence to [`apply`]; reusing one `out` across pages removes the
/// per-page allocation from the restore path.
pub fn apply_into(base: &[u8], patch: &Patch, out: &mut Vec<u8>) -> Result<(), DeltaError> {
    patch.view().apply_into(base, out)
}

impl PatchRef<'_> {
    /// Applies the patch into a caller-provided buffer straight from
    /// its wire bytes: no instruction `Vec`, no literal copies, no
    /// output allocation when `out` is warm.
    pub fn apply_into(&self, base: &[u8], out: &mut Vec<u8>) -> Result<(), DeltaError> {
        out.clear();
        if base.len() != self.base_len() as usize {
            return Err(DeltaError::BaseLengthMismatch {
                expected: self.base_len(),
                actual: base.len(),
            });
        }
        // Validation pre-pass, in stream order: every COPY range, then
        // the total output length — before a single byte of buffer
        // growth.
        let mut total: u64 = 0;
        for instr in self.instrs() {
            match instr {
                Instr::Copy { offset, len } => {
                    (offset as usize)
                        .checked_add(len as usize)
                        .filter(|&e| e <= base.len())
                        .ok_or(DeltaError::CopyOutOfRange { offset, len })?;
                    total += len as u64;
                }
                Instr::Add(data) => total += data.len() as u64,
            }
        }
        if total != self.target_len() as u64 {
            return Err(DeltaError::OutputLengthMismatch {
                expected: self.target_len(),
                actual: total as usize,
            });
        }
        out.reserve_exact(total as usize);
        for instr in self.instrs() {
            match instr {
                Instr::Copy { offset, len } => {
                    let start = offset as usize;
                    out.extend_from_slice(&base[start..start + len as usize]);
                }
                Instr::Add(data) => out.extend_from_slice(data),
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detects_base_mismatch() {
        let patch = Patch::from_instrs(10, 0, &[]);
        let err = apply(b"short", &patch).unwrap_err();
        assert!(matches!(err, DeltaError::BaseLengthMismatch { .. }));
    }

    #[test]
    fn detects_copy_out_of_range() {
        let patch = Patch::from_instrs(4, 8, &[Instr::Copy { offset: 2, len: 6 }]);
        let err = apply(b"base", &patch).unwrap_err();
        assert_eq!(err, DeltaError::CopyOutOfRange { offset: 2, len: 6 });
    }

    #[test]
    fn detects_length_mismatch() {
        let patch = Patch::from_instrs(4, 100, &[Instr::Add(b"only-nine")]);
        let err = apply(b"base", &patch).unwrap_err();
        assert!(matches!(err, DeltaError::OutputLengthMismatch { .. }));
    }

    #[test]
    fn manual_patch_applies() {
        let base = b"0123456789";
        let patch = Patch::from_instrs(
            10,
            9,
            &[
                Instr::Copy { offset: 5, len: 5 },
                Instr::Add(b"XY"),
                Instr::Copy { offset: 0, len: 2 },
            ],
        );
        assert_eq!(apply(base, &patch).unwrap(), b"56789XY01");
    }

    #[test]
    fn copy_len_overflow_is_rejected() {
        let patch = Patch::from_instrs(
            4,
            4,
            &[Instr::Copy {
                offset: u32::MAX,
                len: u32::MAX,
            }],
        );
        assert!(matches!(
            apply(b"base", &patch).unwrap_err(),
            DeltaError::CopyOutOfRange { .. }
        ));
    }
}
