//! XXH64 — the 64-bit xxHash used to checksum on-disk row-groups.
//!
//! Implemented from the public specification because the build environment is
//! offline; output is bit-identical to the reference `xxhash` library (see the
//! known-answer tests below). XXH64 is not cryptographic — it detects bit-rot
//! and truncation, not adversarial tampering, which matches the threat model
//! of a storage checksum.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

const PRIME64_1: u64 = 0x9E37_79B1_85EB_CA87;
const PRIME64_2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const PRIME64_3: u64 = 0x1656_67B1_9E37_79F9;
const PRIME64_4: u64 = 0x85EB_CA77_C2B2_AE63;
const PRIME64_5: u64 = 0x27D4_EB2F_1656_67C5;

/// Seed used for all row-group checksums in the `ALP2` format.
pub const CHECKSUM_SEED: u64 = 0;

#[inline]
fn round(acc: u64, input: u64) -> u64 {
    acc.wrapping_add(input.wrapping_mul(PRIME64_2)).rotate_left(31).wrapping_mul(PRIME64_1)
}

#[inline]
fn merge_round(acc: u64, val: u64) -> u64 {
    (acc ^ round(0, val)).wrapping_mul(PRIME64_1).wrapping_add(PRIME64_4)
}

/// Hashes `input` with the given `seed` (XXH64, one shot).
pub fn xxh64(input: &[u8], seed: u64) -> u64 {
    let (stripes, rest) = input.as_chunks::<32>();
    let mut h = if stripes.is_empty() {
        seed.wrapping_add(PRIME64_5)
    } else {
        let mut v = [
            seed.wrapping_add(PRIME64_1).wrapping_add(PRIME64_2),
            seed.wrapping_add(PRIME64_2),
            seed,
            seed.wrapping_sub(PRIME64_1),
        ];
        for stripe in stripes {
            for (acc, lane) in v.iter_mut().zip(stripe.as_chunks::<8>().0) {
                *acc = round(*acc, u64::from_le_bytes(*lane));
            }
        }
        let [v1, v2, v3, v4] = v;
        let mut h = v1
            .rotate_left(1)
            .wrapping_add(v2.rotate_left(7))
            .wrapping_add(v3.rotate_left(12))
            .wrapping_add(v4.rotate_left(18));
        h = merge_round(h, v1);
        h = merge_round(h, v2);
        h = merge_round(h, v3);
        merge_round(h, v4)
    };

    h = h.wrapping_add(input.len() as u64);

    let (words, mut rest) = rest.as_chunks::<8>();
    for word in words {
        h ^= round(0, u64::from_le_bytes(*word));
        h = h.rotate_left(27).wrapping_mul(PRIME64_1).wrapping_add(PRIME64_4);
    }
    if let Some((half, tail)) = rest.split_first_chunk::<4>() {
        h ^= u64::from(u32::from_le_bytes(*half)).wrapping_mul(PRIME64_1);
        h = h.rotate_left(23).wrapping_mul(PRIME64_2).wrapping_add(PRIME64_3);
        rest = tail;
    }
    for &b in rest {
        h ^= (b as u64).wrapping_mul(PRIME64_5);
        h = h.rotate_left(11).wrapping_mul(PRIME64_1);
    }

    h ^= h >> 33;
    h = h.wrapping_mul(PRIME64_2);
    h ^= h >> 29;
    h = h.wrapping_mul(PRIME64_3);
    h ^ (h >> 32)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Known-answer vectors from the reference xxHash implementation.
    #[test]
    fn reference_vectors() {
        assert_eq!(xxh64(b"", 0), 0xEF46_DB37_51D8_E999);
        assert_eq!(xxh64(b"abc", 0), 0x44BC_2CF5_AD77_0999);
        assert_eq!(xxh64(b"Nobody inspects the spammish repetition", 0), 0xFBCE_A83C_8A37_8BF1);
    }

    #[test]
    fn covers_every_tail_length() {
        // Exercise the 32-byte stripes plus all 0..=31 tail paths; values must
        // be stable and distinct from each other for a change in any byte.
        let base: Vec<u8> = (0..96u8).collect();
        let mut seen = std::collections::HashSet::new();
        for len in 0..=base.len() {
            assert!(seen.insert(xxh64(&base[..len], 7)), "collision at len {len}");
        }
        // Single-bit sensitivity.
        let mut flipped = base.clone();
        flipped[40] ^= 0x10;
        assert_ne!(xxh64(&base, 7), xxh64(&flipped, 7));
    }

    #[test]
    fn seed_changes_hash() {
        assert_ne!(xxh64(b"payload", 0), xxh64(b"payload", 1));
    }
}
