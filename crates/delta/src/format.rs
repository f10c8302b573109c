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
//! encoding *is* the dedup memory footprint of a page — literally: a
//! [`Patch`] holds the two header lengths and the instruction stream as
//! the bytes above, in one allocation of exactly that size, and
//! [`Patch::serialized_size`] is the header plus their count. There is
//! no second, tree-shaped representation; instructions are read in
//! place ([`Patch::instrs`]) and [`PatchRef`] is the same view over a
//! buffer someone else owns.

/// One delta instruction, as read from (or written to) a patch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Instr<'a> {
    /// Copy `len` bytes from `offset` in the base buffer.
    Copy {
        /// Byte offset into the base.
        offset: u32,
        /// Number of bytes to copy.
        len: u32,
    },
    /// Append literal bytes (borrowed from the patch).
    Add(&'a [u8]),
}

/// A complete patch: header lengths + the serialized instruction
/// stream. The stream is always well-formed (built by the encoder or
/// [`Patch::from_instrs`], or validated by [`Patch::from_bytes`]); the
/// lengths and COPY ranges are checked against a base when the patch is
/// applied.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Patch {
    base_len: u32,
    target_len: u32,
    body: Box<[u8]>,
}

const MAGIC: &[u8; 4] = b"MDp1";
const OP_COPY: u8 = 0x01;
const OP_ADD: u8 = 0x02;

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

/// Splits one varint off the front of `data`.
#[inline(always)]
fn read_varint(data: &[u8]) -> Option<(u64, &[u8])> {
    // One or two bytes cover every length and offset within a page, and
    // the instruction iterator is only fast with this part inlined.
    match *data {
        [a, ref rest @ ..] if a < 0x80 => Some((a as u64, rest)),
        [a, b, ref rest @ ..] if b < 0x80 => Some(((a & 0x7F) as u64 | (b as u64) << 7, rest)),
        _ => read_long_varint(data),
    }
}

/// [`read_varint`] for any length (and for a truncated one).
#[inline(never)]
fn read_long_varint(mut data: &[u8]) -> Option<(u64, &[u8])> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let (&b, rest) = data.split_first()?;
        data = rest;
        if shift >= 64 {
            return None;
        }
        v |= ((b & 0x7F) as u64) << shift;
        if b & 0x80 == 0 {
            return Some((v, data));
        }
        shift += 7;
    }
}

/// Appends one serialized COPY to an instruction stream.
pub(crate) fn push_copy(out: &mut Vec<u8>, offset: u32, len: u32) {
    out.push(OP_COPY);
    push_varint(out, offset as u64);
    push_varint(out, len as u64);
}

/// Appends one serialized ADD to an instruction stream.
pub(crate) fn push_add(out: &mut Vec<u8>, data: &[u8]) {
    out.push(OP_ADD);
    push_varint(out, data.len() as u64);
    out.extend_from_slice(data);
}

impl Patch {
    /// Wraps an instruction stream written with [`push_copy`] and
    /// [`push_add`], copying it into an allocation of its exact size.
    pub(crate) fn from_stream(base_len: u32, target_len: u32, stream: &[u8]) -> Patch {
        Patch {
            base_len,
            target_len,
            body: stream.into(),
        }
    }

    /// Spells a patch out by hand: the instructions are serialized as
    /// given, with none of the encoder's merging. For tests and
    /// fixtures; nothing checks the lengths against the instructions
    /// until the patch is applied.
    pub fn from_instrs(base_len: u32, target_len: u32, instrs: &[Instr<'_>]) -> Patch {
        let mut stream = Vec::new();
        for i in instrs {
            match *i {
                Instr::Copy { offset, len } => push_copy(&mut stream, offset, len),
                Instr::Add(data) => push_add(&mut stream, data),
            }
        }
        Patch::from_stream(base_len, target_len, &stream)
    }

    /// The same patch as a borrowed view.
    pub fn view(&self) -> PatchRef<'_> {
        PatchRef {
            base_len: self.base_len,
            target_len: self.target_len,
            body: &self.body,
        }
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
    pub fn instrs(&self) -> InstrIter<'_> {
        self.view().instrs()
    }

    /// Number of literal bytes carried by the patch.
    pub fn add_bytes(&self) -> usize {
        self.instrs()
            .map(|i| match i {
                Instr::Add(d) => d.len(),
                Instr::Copy { .. } => 0,
            })
            .sum()
    }

    /// Number of bytes covered by COPY instructions (i.e. bytes *saved*
    /// by referencing the base instead of storing them).
    pub fn copied_bytes(&self) -> usize {
        self.instrs()
            .map(|i| match i {
                Instr::Copy { len, .. } => len as usize,
                Instr::Add(_) => 0,
            })
            .sum()
    }

    /// Exact size of [`Patch::to_bytes`] output: the header plus the
    /// instruction bytes held.
    pub fn serialized_size(&self) -> usize {
        MAGIC.len()
            + varint_len(self.base_len as u64)
            + varint_len(self.target_len as u64)
            + self.body.len()
    }

    /// Serializes the patch.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.serialized_size());
        out.extend_from_slice(MAGIC);
        push_varint(&mut out, self.base_len as u64);
        push_varint(&mut out, self.target_len as u64);
        out.extend_from_slice(&self.body);
        debug_assert_eq!(out.len(), self.serialized_size());
        out
    }

    /// Parses a serialized patch into an owned one: [`PatchRef`]'s
    /// validation, then one copy of the instruction bytes.
    pub fn from_bytes(data: &[u8]) -> Result<Patch, ParseError> {
        let view = PatchRef::from_bytes(data)?;
        Ok(Patch::from_stream(
            view.base_len,
            view.target_len,
            view.body,
        ))
    }
}

/// A zero-copy view over a serialized patch: the header is decoded,
/// the instruction stream is validated once up front and then iterated
/// *in place* — `ADD` literals borrow from the underlying wire buffer.
/// [`PatchRef::apply_into`] is the one apply body; an owned [`Patch`]
/// applies through its [`Patch::view`].
#[derive(Debug, Clone, Copy)]
pub struct PatchRef<'a> {
    base_len: u32,
    target_len: u32,
    body: &'a [u8],
}

impl<'a> PatchRef<'a> {
    /// Parses the header and validates the whole instruction stream
    /// without allocating; after success, iteration is infallible.
    pub fn from_bytes(data: &'a [u8]) -> Result<Self, ParseError> {
        if data.len() < 4 || &data[..4] != MAGIC {
            return Err(ParseError::BadMagic);
        }
        let (base_len, rest) = read_varint(&data[4..]).ok_or(ParseError::Truncated)?;
        let (target_len, body) = read_varint(rest).ok_or(ParseError::Truncated)?;
        let (base_len, target_len) = (base_len as u32, target_len as u32);
        let mut check = InstrIter { rest: body };
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
        InstrIter { rest: self.body }
    }
}

/// Iterator over the instructions of a [`Patch`] or [`PatchRef`].
#[derive(Debug, Clone)]
pub struct InstrIter<'a> {
    /// The instructions not yet read.
    rest: &'a [u8],
}

impl<'a> InstrIter<'a> {
    /// Fallible step used both for up-front validation and (through
    /// the infallible `Iterator` impl) for iteration afterwards.
    #[inline(always)]
    fn next_checked(&mut self) -> Result<Option<Instr<'a>>, ParseError> {
        let Some((&op, rest)) = self.rest.split_first() else {
            return Ok(None);
        };
        let number = |data| read_varint(data).ok_or(ParseError::Truncated);
        let (instr, rest) = match op {
            OP_COPY => {
                let (offset, rest) = number(rest)?;
                let (len, rest) = number(rest)?;
                let (offset, len) = (offset as u32, len as u32);
                (Instr::Copy { offset, len }, rest)
            }
            OP_ADD => {
                let (len, rest) = number(rest)?;
                let (literal, rest) = rest
                    .split_at_checked(len as usize)
                    .ok_or(ParseError::Truncated)?;
                (Instr::Add(literal), rest)
            }
            other => return Err(ParseError::BadOpcode(other)),
        };
        self.rest = rest;
        Ok(Some(instr))
    }
}

impl<'a> Iterator for InstrIter<'a> {
    type Item = Instr<'a>;

    #[inline]
    fn next(&mut self) -> Option<Instr<'a>> {
        match self.next_checked() {
            Ok(v) => v,
            Err(_) => {
                // Unreachable for iterators handed out by Patch and
                // PatchRef: their streams are well-formed.
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
        Patch::from_instrs(
            4096,
            4096,
            &[
                Instr::Copy {
                    offset: 0,
                    len: 1000,
                },
                Instr::Add(&[1, 2, 3, 4, 5]),
                Instr::Copy {
                    offset: 1005,
                    len: 3091,
                },
            ],
        )
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
            assert_eq!(read_varint(&out), Some((v, &[][..])));
        }
    }

    #[test]
    fn empty_patch_roundtrip() {
        let p = Patch::default();
        assert_eq!(Patch::from_bytes(&p.to_bytes()).unwrap(), p);
    }
}
