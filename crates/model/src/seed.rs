//! The seeded hash behind every deterministic draw and digest.
//!
//! The oracle's cost noise, fault draws, retry jitter, chaos and fleet
//! plans and the chained round digests all take their bits from this
//! module. That makes the hash algorithm one decision in one file. Today it
//! is the standard library's `DefaultHasher::new()` (fixed keys), whose
//! algorithm std leaves unspecified. The golden values in this module's
//! tests and in the workspace's `tests/golden_digests.rs` pin it, so a
//! toolchain that changes it fails those tests by name. Swapping in a
//! specified mixer is a change here plus a deliberate re-baseline of every
//! golden value, the trained model and the committed digests.
//!
//! Two rules keep call sites bit-compatible with each other:
//!
//! * a fixed set of fields is hashed as a tuple, e.g.
//!   `hash((seed, episode, salt))`, which hashes field by field;
//! * a variable-length sequence is streamed element by element into
//!   [`hasher`]. Hashing a slice or array as a whole adds a length prefix
//!   and gives different values.

use std::hash::{Hash, Hasher};

/// A fresh seeded hasher, for sites that stream fields one by one.
#[allow(clippy::disallowed_types)]
#[inline]
pub fn hasher() -> impl Hasher {
    std::collections::hash_map::DefaultHasher::new()
}

/// The seeded hash of `value`. Pass a tuple to hash several fields.
#[inline]
pub fn hash<T: Hash>(value: T) -> u64 {
    let mut h = hasher();
    value.hash(&mut h);
    h.finish()
}

/// Maps hash bits to a uniform draw in `[0, 1)`. (Rounding lifts the top
/// 2¹⁰ of the 2⁶⁴ inputs to exactly 1.0.)
#[inline]
pub fn unit(bits: u64) -> f64 {
    bits as f64 / (u64::MAX as f64 + 1.0)
}

/// Chains `parts` into `digest` with one hasher step, so two chains of
/// folds agree (barring hash collisions) iff every part agreed, in order.
pub fn fold(digest: u64, parts: &[u64]) -> u64 {
    let mut h = hasher();
    h.write_u64(digest);
    for &part in parts {
        h.write_u64(part);
    }
    h.finish()
}

/// SplitMix64 step: derives an independent sub-seed from a run seed and a
/// salt (technique index, sample index, ...). Consumers that fan many
/// seeded runs out of one master seed (e.g. per-sample tuning in database
/// generation) use this so each run's stream is independent yet fully
/// determined by `(seed, salt)`.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Golden values captured with the hasher every seeded site used before
    // this module existed. A failure here means the seed hash changed and
    // every seeded experiment moved with it.

    #[test]
    fn hasher_and_hash_are_pinned() {
        let mut h = hasher();
        42u64.hash(&mut h);
        7u32.hash(&mut h);
        0x11u8.hash(&mut h);
        assert_eq!(h.finish(), HASH_42_7_11);
        assert_eq!(
            hash((42u64, 7u32, 0x11u8)),
            HASH_42_7_11,
            "tuples hash field by field"
        );
        assert_eq!(hash(("GTX-750", 1u64)), HASH_STR);
    }

    #[test]
    fn unit_is_pinned() {
        assert_eq!(unit(0), 0.0);
        assert_eq!(unit(1 << 63), 0.5);
        assert_eq!(unit(HASH_42_7_11).to_bits(), UNIT_42_7_11);
    }

    #[test]
    fn fold_is_pinned_and_order_sensitive() {
        assert_eq!(fold(0, &[1, 2, 3]), FOLD_0_123);
        assert_eq!(fold(FOLD_0_123, &[]), FOLD_CHAIN);
        assert_ne!(fold(0, &[3, 2, 1]), FOLD_0_123);
    }

    #[test]
    fn mix_is_pinned() {
        assert_eq!(mix(0, 0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(mix(42, 7), MIX_42_7);
    }

    const HASH_42_7_11: u64 = 0xCDB7_D82C_C010_EE09;
    const HASH_STR: u64 = 0xD782_14CA_9F93_88FD;
    const UNIT_42_7_11: u64 = 0x3FE9_B6FB_0598_021E;
    const FOLD_0_123: u64 = 0x0289_507D_DCB2_C380;
    const FOLD_CHAIN: u64 = 0x3508_E457_B7A3_6375;
    const MIX_42_7: u64 = 0xCCF6_35EE_9E9E_2FA4;
}
