//! Deterministic causal trace identity.
//!
//! A [`TraceCtx`] names one node of a causal span tree: the trace it
//! belongs to, its own span id, and its parent's span id. Ids are
//! *pure functions* of `(seed, kind, key)` for roots and of
//! `(parent, name, slot)` for children — no wall clock, no global
//! counter — so two code paths that need the same context (e.g. the
//! dispatcher that starts a restore and the collector that finishes
//! the request) can each mint it independently and agree bit-for-bit,
//! and a re-run with the same seed produces the same ids.

/// SplitMix64 finalizer: a cheap, well-mixed 64-bit hash step.
#[inline]
fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// FNV-1a over the bytes of a name.
#[inline]
fn hash_str(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Never return the reserved "untraced" id 0.
#[inline]
fn nonzero(x: u64) -> u64 {
    if x == 0 {
        0x9e37_79b9_7f4a_7c15
    } else {
        x
    }
}

/// Causal identity of one span: which trace it belongs to, its own id,
/// and its parent's id (`0` = root). Copy it freely; it is three words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCtx {
    /// Trace (operation) id; `0` means "untraced" (legacy flat span).
    pub trace_id: u64,
    /// This span's id within the trace.
    pub span_id: u64,
    /// Parent span id; `0` for the trace root.
    pub parent_id: u64,
}

impl TraceCtx {
    /// The untraced context: spans carry no ids but are still recorded
    /// (this is what [`crate::Obs::span`] uses).
    pub const NONE: TraceCtx = TraceCtx {
        trace_id: 0,
        span_id: 0,
        parent_id: 0,
    };

    /// Whether this context carries causal ids.
    #[inline]
    pub fn is_traced(&self) -> bool {
        self.trace_id != 0
    }

    /// Mints the deterministic root context for an operation: the same
    /// `(kind, seed, key)` triple always yields the same ids. `key`
    /// should uniquely name the operation within the run (request id,
    /// sandbox id mixed with the start time, ...).
    pub fn root(kind: &str, seed: u64, key: u64) -> TraceCtx {
        let t = nonzero(mix(seed ^ hash_str(kind).rotate_left(17) ^ mix(key)));
        TraceCtx {
            trace_id: t,
            span_id: t,
            parent_id: 0,
        }
    }

    /// Derives the child context for a sub-span. Deterministic in
    /// `(self.span_id, name, slot)`; use distinct `slot`s to
    /// disambiguate repeated same-named children (retry attempts,
    /// batch items).
    pub fn child(&self, name: &str, slot: u64) -> TraceCtx {
        if !self.is_traced() {
            return *self;
        }
        let s = nonzero(mix(self.span_id
            ^ hash_str(name)
            ^ mix(slot ^ 0x6a09_e667_f3bc_c909)));
        TraceCtx {
            trace_id: self.trace_id,
            span_id: s,
            parent_id: self.span_id,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roots_are_deterministic_and_keyed() {
        let a = TraceCtx::root("request", 7, 42);
        let b = TraceCtx::root("request", 7, 42);
        assert_eq!(a, b);
        assert!(a.is_traced());
        assert_eq!(a.span_id, a.trace_id);
        assert_eq!(a.parent_id, 0);
        assert_ne!(a.trace_id, TraceCtx::root("request", 7, 43).trace_id);
        assert_ne!(a.trace_id, TraceCtx::root("request", 8, 42).trace_id);
        assert_ne!(a.trace_id, TraceCtx::root("dedup", 7, 42).trace_id);
    }

    #[test]
    fn children_stay_in_trace_and_differ_by_name_and_slot() {
        let root = TraceCtx::root("restore", 1, 2);
        let a = root.child("medes.restore.base_read", 0);
        let b = root.child("medes.restore.ckpt", 0);
        let c = root.child("medes.restore.base_read", 1);
        for ch in [a, b, c] {
            assert_eq!(ch.trace_id, root.trace_id);
            assert_eq!(ch.parent_id, root.span_id);
        }
        assert_ne!(a.span_id, b.span_id);
        assert_ne!(a.span_id, c.span_id);
        // Re-minting is stable (the dispatcher / collector agreement).
        assert_eq!(a, root.child("medes.restore.base_read", 0));
    }

    #[test]
    fn untraced_children_are_untraced() {
        let ch = TraceCtx::NONE.child("x", 0);
        assert_eq!(ch, TraceCtx::NONE);
        assert!(!ch.is_traced());
    }

    #[test]
    fn grandchildren_chain_parent_ids() {
        let root = TraceCtx::root("op", 0, 0);
        let mid = root.child("mid", 0);
        let leaf = mid.child("leaf", 0);
        assert_eq!(leaf.parent_id, mid.span_id);
        assert_eq!(mid.parent_id, root.span_id);
        assert_eq!(leaf.trace_id, root.trace_id);
    }
}
