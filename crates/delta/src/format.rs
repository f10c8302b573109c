//! The patch format.
//!
//! A patch is a header plus an instruction stream. The serialized layout
//! (all integers LEB128 varints) is:
//!
//! ```text
//! magic "MDp1" | base_len | target_len | instr*
//! instr := 0x01 offset len          -- COPY from base
//!        | 0x02 len byte*           -- ADD literal bytes
//! ```
//!
//! The platform stores patches in memory, so the byte size of this
//! encoding *is* the dedup memory footprint of a page.

/// One delta instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Instr {
    /// Copy `len` bytes from `offset` in the base buffer.
    Copy {
        /// Byte offset into the base.
        offset: u32,
        /// Number of bytes to copy.
        len: u32,
    },
    /// Append literal bytes.
    Add(Vec<u8>),
}

/// A complete patch: header + instructions.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Patch {
    /// Length of the base buffer the patch was computed against.
    pub base_len: u32,
    /// Length of the reconstructed target.
    pub target_len: u32,
    /// The instruction stream.
    pub instrs: Vec<Instr>,
}

const MAGIC: &[u8; 4] = b"MDp1";

fn varint_len(mut v: u64) -> usize {
    let mut n = 1;
    while v >= 0x80 {
        v >>= 7;
        n += 1;
    }
    n
}

fn push_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8 & 0x7F) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

fn read_varint(data: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let &b = data.get(*pos)?;
        *pos += 1;
        if shift >= 64 {
            return None;
        }
        v |= ((b & 0x7F) as u64) << shift;
        if b & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
    }
}

impl Patch {
    /// Total bytes the target would occupy if stored verbatim.
    pub fn target_len(&self) -> usize {
        self.target_len as usize
    }

    /// Number of literal bytes carried by the patch.
    pub fn add_bytes(&self) -> usize {
        self.instrs
            .iter()
            .map(|i| match i {
                Instr::Add(d) => d.len(),
                Instr::Copy { .. } => 0,
            })
            .sum()
    }

    /// Number of bytes covered by COPY instructions (i.e. bytes *saved*
    /// by referencing the base instead of storing them).
    pub fn copied_bytes(&self) -> usize {
        self.instrs
            .iter()
            .map(|i| match i {
                Instr::Copy { len, .. } => *len as usize,
                Instr::Add(_) => 0,
            })
            .sum()
    }

    /// Exact size of [`Patch::to_bytes`] output, without allocating.
    pub fn serialized_size(&self) -> usize {
        let mut n = 4 + varint_len(self.base_len as u64) + varint_len(self.target_len as u64);
        for i in &self.instrs {
            n += match i {
                Instr::Copy { offset, len } => {
                    1 + varint_len(*offset as u64) + varint_len(*len as u64)
                }
                Instr::Add(d) => 1 + varint_len(d.len() as u64) + d.len(),
            };
        }
        n
    }

    /// Serializes the patch.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.serialized_size());
        out.extend_from_slice(MAGIC);
        push_varint(&mut out, self.base_len as u64);
        push_varint(&mut out, self.target_len as u64);
        for i in &self.instrs {
            match i {
                Instr::Copy { offset, len } => {
                    out.push(0x01);
                    push_varint(&mut out, *offset as u64);
                    push_varint(&mut out, *len as u64);
                }
                Instr::Add(d) => {
                    out.push(0x02);
                    push_varint(&mut out, d.len() as u64);
                    out.extend_from_slice(d);
                }
            }
        }
        debug_assert_eq!(out.len(), self.serialized_size());
        out
    }

    /// Parses a serialized patch (an owned deep copy; see [`PatchRef`]
    /// for the zero-copy view with identical validation).
    pub fn from_bytes(data: &[u8]) -> Result<Patch, ParseError> {
        Ok(PatchRef::from_bytes(data)?.to_patch())
    }
}

/// A zero-copy view over a serialized patch: the header is decoded,
/// the instruction stream is validated once up front and then iterated
/// *in place* — `ADD` literals borrow from the underlying wire buffer
/// instead of being copied into `Vec`s. Combined with
/// [`PatchRef::apply_into`], a page restore from stored
/// patch bytes touches no intermediate allocation at all.
#[derive(Debug, Clone, Copy)]
pub struct PatchRef<'a> {
    base_len: u32,
    target_len: u32,
    body: &'a [u8],
}

/// One borrowed instruction yielded by [`PatchRef::instrs`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstrRef<'a> {
    /// Copy `len` bytes from `offset` in the base buffer.
    Copy {
        /// Byte offset into the base.
        offset: u32,
        /// Number of bytes to copy.
        len: u32,
    },
    /// Append literal bytes (borrowed from the serialized patch).
    Add(&'a [u8]),
}

impl<'a> PatchRef<'a> {
    /// Parses the header and validates the whole instruction stream
    /// without allocating. Errors match [`Patch::from_bytes`] exactly
    /// (same variants, same stream-order precedence); after success,
    /// iteration is infallible.
    pub fn from_bytes(data: &'a [u8]) -> Result<Self, ParseError> {
        if data.len() < 4 || &data[..4] != MAGIC {
            return Err(ParseError::BadMagic);
        }
        let mut pos = 4;
        let base_len = read_varint(data, &mut pos).ok_or(ParseError::Truncated)? as u32;
        let target_len = read_varint(data, &mut pos).ok_or(ParseError::Truncated)? as u32;
        let body = &data[pos..];
        let mut check = InstrIter { data: body, pos: 0 };
        while check.next_checked()?.is_some() {}
        Ok(PatchRef {
            base_len,
            target_len,
            body,
        })
    }

    /// Length of the base buffer the patch was computed against.
    pub fn base_len(&self) -> u32 {
        self.base_len
    }

    /// Length of the reconstructed target.
    pub fn target_len(&self) -> u32 {
        self.target_len
    }

    /// Iterates the instruction stream in place.
    pub fn instrs(&self) -> InstrIter<'a> {
        InstrIter {
            data: self.body,
            pos: 0,
        }
    }

    /// Deep-copies the view into an owned [`Patch`].
    pub fn to_patch(&self) -> Patch {
        let instrs = self
            .instrs()
            .map(|i| match i {
                InstrRef::Copy { offset, len } => Instr::Copy { offset, len },
                InstrRef::Add(d) => Instr::Add(d.to_vec()),
            })
            .collect();
        Patch {
            base_len: self.base_len,
            target_len: self.target_len,
            instrs,
        }
    }
}

/// Iterator over the borrowed instructions of a [`PatchRef`].
#[derive(Debug, Clone)]
pub struct InstrIter<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> InstrIter<'a> {
    /// Fallible step used both for up-front validation and (through
    /// the infallible `Iterator` impl) for iteration afterwards.
    fn next_checked(&mut self) -> Result<Option<InstrRef<'a>>, ParseError> {
        if self.pos >= self.data.len() {
            return Ok(None);
        }
        let op = self.data[self.pos];
        self.pos += 1;
        match op {
            0x01 => {
                let offset =
                    read_varint(self.data, &mut self.pos).ok_or(ParseError::Truncated)? as u32;
                let len =
                    read_varint(self.data, &mut self.pos).ok_or(ParseError::Truncated)? as u32;
                Ok(Some(InstrRef::Copy { offset, len }))
            }
            0x02 => {
                let len =
                    read_varint(self.data, &mut self.pos).ok_or(ParseError::Truncated)? as usize;
                let end = self.pos.checked_add(len).ok_or(ParseError::Truncated)?;
                if end > self.data.len() {
                    return Err(ParseError::Truncated);
                }
                let slice = &self.data[self.pos..end];
                self.pos = end;
                Ok(Some(InstrRef::Add(slice)))
            }
            other => Err(ParseError::BadOpcode(other)),
        }
    }
}

impl<'a> Iterator for InstrIter<'a> {
    type Item = InstrRef<'a>;

    fn next(&mut self) -> Option<InstrRef<'a>> {
        match self.next_checked() {
            Ok(v) => v,
            Err(_) => {
                // Unreachable for iterators handed out by PatchRef:
                // the stream was validated at construction.
                debug_assert!(false, "iterating an unvalidated instruction stream");
                None
            }
        }
    }
}

/// Errors produced while parsing a serialized patch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The magic bytes were missing or wrong.
    BadMagic,
    /// The buffer ended mid-field.
    Truncated,
    /// Unknown instruction opcode.
    BadOpcode(u8),
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::BadMagic => write!(f, "bad patch magic"),
            ParseError::Truncated => write!(f, "patch truncated"),
            ParseError::BadOpcode(op) => write!(f, "unknown patch opcode {op:#04x}"),
        }
    }
}

impl std::error::Error for ParseError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_patch() -> Patch {
        Patch {
            base_len: 4096,
            target_len: 4096,
            instrs: vec![
                Instr::Copy {
                    offset: 0,
                    len: 1000,
                },
                Instr::Add(vec![1, 2, 3, 4, 5]),
                Instr::Copy {
                    offset: 1005,
                    len: 3091,
                },
            ],
        }
    }

    #[test]
    fn roundtrip_serialization() {
        let p = sample_patch();
        let bytes = p.to_bytes();
        assert_eq!(bytes.len(), p.serialized_size());
        assert_eq!(Patch::from_bytes(&bytes).unwrap(), p);
    }

    #[test]
    fn byte_accounting() {
        let p = sample_patch();
        assert_eq!(p.add_bytes(), 5);
        assert_eq!(p.copied_bytes(), 4091);
    }

    #[test]
    fn rejects_garbage() {
        assert_eq!(
            Patch::from_bytes(b"nope").unwrap_err(),
            ParseError::BadMagic
        );
        assert_eq!(Patch::from_bytes(b"MD"), Err(ParseError::BadMagic));
        let mut bytes = sample_patch().to_bytes();
        bytes.truncate(bytes.len() - 2);
        assert_eq!(
            Patch::from_bytes(&bytes).unwrap_err(),
            ParseError::Truncated
        );
        let mut bad_op = sample_patch().to_bytes();
        let n = bad_op.len();
        bad_op[n - 1] = 0x7F; // replace last varint byte so next parse... build explicit
        let mut explicit = b"MDp1".to_vec();
        explicit.push(0); // base_len 0
        explicit.push(0); // target_len 0
        explicit.push(0xEE); // bad opcode
        assert_eq!(
            Patch::from_bytes(&explicit).unwrap_err(),
            ParseError::BadOpcode(0xEE)
        );
    }

    #[test]
    fn varint_boundaries() {
        for v in [0u64, 1, 127, 128, 255, 16383, 16384, u32::MAX as u64] {
            let mut out = Vec::new();
            push_varint(&mut out, v);
            assert_eq!(out.len(), varint_len(v));
            let mut pos = 0;
            assert_eq!(read_varint(&out, &mut pos), Some(v));
            assert_eq!(pos, out.len());
        }
    }

    #[test]
    fn empty_patch_roundtrip() {
        let p = Patch::default();
        assert_eq!(Patch::from_bytes(&p.to_bytes()).unwrap(), p);
    }
}
