//! A fast, deterministic multiply-mix hasher (FxHash-style).
//!
//! The default `SipHash` is DoS-resistant but dominates profile time in
//! memo tables whose keys are already well-distributed (pointers, interned
//! ids, structural fingerprints). This module centralizes the multiply-mix
//! scheme the trace matcher grew in `proglogic::trace` so every layer
//! hashes memo keys the same way:
//!
//! * [`FxHasher64`] — a `std::hash::Hasher` for `HashMap` memo tables
//!   (plug in via [`FxBuild`]).
//! * [`mix64`] / [`mix64b`] — the raw one-word mixing steps, exposed for
//!   code that folds *structural fingerprints* incrementally (the
//!   hash-consed term DAG in `proglogic` combines both lanes into a
//!   128-bit fingerprint, the key of its interners).
//!
//! The hasher is unseeded, so a map keyed through it iterates in the same
//! order in every run: walking one cannot make two runs differ.

/// Golden-ratio multiplier used by the primary mixing lane.
pub const K1: u64 = 0x9E37_79B9_7F4A_7C15;

/// Second multiplier (an xxHash prime) for the independent lane.
pub const K2: u64 = 0xC2B2_AE3D_27D4_EB4F;

/// One mixing step of the primary lane: rotate, xor in the word, multiply.
#[inline]
pub fn mix64(h: u64, x: u64) -> u64 {
    (h.rotate_left(23) ^ x).wrapping_mul(K1)
}

/// One mixing step of the second lane, with a different rotation and
/// multiplier so the two lanes fail independently on adversarial inputs.
#[inline]
pub fn mix64b(h: u64, x: u64) -> u64 {
    (h.rotate_left(13) ^ x).wrapping_mul(K2)
}

/// Folds both lanes over `x`, treating the halves of `h` as independent
/// 64-bit states. The workhorse for 128-bit structural fingerprints.
#[inline]
pub fn mix128(h: u128, x: u64) -> u128 {
    let lo = mix64(h as u64, x);
    let hi = mix64b((h >> 64) as u64, x);
    ((hi as u128) << 64) | lo as u128
}

/// An FxHash-style [`std::hash::Hasher`] for memo tables with
/// well-distributed keys (pointers, fingerprints, small integers).
#[derive(Default)]
pub struct FxHasher64(u64);

impl std::hash::Hasher for FxHasher64 {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        // FNV-1a for the byte-stream fallback (strings, odd tails).
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    fn write_u32(&mut self, i: u32) {
        self.0 = mix64(self.0, i as u64);
    }
    fn write_u64(&mut self, i: u64) {
        self.0 = mix64(self.0, i);
    }
    fn write_u128(&mut self, i: u128) {
        self.0 = mix64(mix64(self.0, i as u64), (i >> 64) as u64);
    }
    fn write_usize(&mut self, i: usize) {
        self.0 = mix64(self.0, i as u64);
    }
}

/// `BuildHasher` alias: `HashMap<K, V, FxBuild>` gets the fast hasher.
pub type FxBuild = std::hash::BuildHasherDefault<FxHasher64>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{Hash, Hasher};

    #[test]
    fn deterministic_across_instances() {
        let mut a = FxHasher64::default();
        let mut b = FxHasher64::default();
        (42u64, "lightbulb").hash(&mut a);
        (42u64, "lightbulb").hash(&mut b);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn lanes_differ() {
        // The two lanes must not collapse to the same function, or the
        // 128-bit fingerprint would degrade to 64 bits of entropy. Both
        // lanes fix (h=0, x=0) — xor and multiply preserve zero — which is
        // why every fingerprint in `proglogic` folds from a nonzero seed;
        // the lanes are compared the same way here.
        for x in [0u64, 1, 0xDEAD_BEEF, u64::MAX] {
            assert_ne!(mix64(1, x), mix64b(1, x), "lanes collided on {x:#x}");
        }
    }

    #[test]
    fn mix128_combines_both_lanes() {
        let h = mix128(0, 7);
        assert_eq!(h as u64, mix64(0, 7));
        assert_eq!((h >> 64) as u64, mix64b(0, 7));
        assert_ne!(mix128(h, 1), mix128(h, 2));
    }
}
