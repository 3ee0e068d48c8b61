//! Delta encoding with zigzag mapping, for sorted or slowly-drifting integer
//! streams (e.g. ALP-encoded dictionaries or run values in a cascade).

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use crate::bits_needed;

/// Maps a signed delta to an unsigned value with small magnitudes near zero.
#[inline]
pub const fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
pub const fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Delta-encodes `input` in place semantics: returns `(first, zigzagged deltas)`.
pub fn delta_encode(input: &[i64]) -> (i64, Vec<u64>) {
    let Some((&first, rest)) = input.split_first() else {
        return (0, Vec::new());
    };
    let mut deltas = Vec::with_capacity(rest.len());
    let mut prev = first;
    for &v in rest {
        deltas.push(zigzag(v.wrapping_sub(prev)));
        prev = v;
    }
    (first, deltas)
}

/// Reconstructs the original values from [`delta_encode`] output.
pub fn delta_decode(first: i64, deltas: &[u64], out: &mut Vec<i64>) {
    out.clear();
    out.reserve(deltas.len() + 1);
    out.push(first);
    let mut prev = first;
    for &d in deltas {
        prev = prev.wrapping_add(unzigzag(d));
        out.push(prev);
    }
}

/// Bits per delta needed to pack the zigzagged stream.
pub fn delta_width(deltas: &[u64]) -> usize {
    bits_needed(deltas.iter().copied().max().unwrap_or(0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zigzag_roundtrip_edges() {
        for v in [0i64, 1, -1, 2, -2, i64::MAX, i64::MIN, 12345, -98765] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn zigzag_keeps_small_magnitudes_small() {
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
        assert_eq!(zigzag(-2), 3);
    }

    #[test]
    fn delta_roundtrip_sorted() {
        let input: Vec<i64> = (0..500).map(|i| i * 7 + 3).collect();
        let (first, deltas) = delta_encode(&input);
        assert!(deltas.iter().all(|&d| d == zigzag(7)));
        let mut out = Vec::new();
        delta_decode(first, &deltas, &mut out);
        assert_eq!(out, input);
    }

    #[test]
    fn delta_roundtrip_wrapping_extremes() {
        let input = vec![i64::MIN, i64::MAX, 0, -1, 1];
        let (first, deltas) = delta_encode(&input);
        let mut out = Vec::new();
        delta_decode(first, &deltas, &mut out);
        assert_eq!(out, input);
    }

    #[test]
    fn empty_and_singleton() {
        let (f, d) = delta_encode(&[]);
        assert_eq!((f, d.len()), (0, 0));
        let (f, d) = delta_encode(&[99]);
        assert_eq!((f, d.len()), (99, 0));
        let mut out = Vec::new();
        delta_decode(f, &d, &mut out);
        assert_eq!(out, vec![99]);
    }

    #[test]
    fn width_of_constant_stream_is_zero() {
        let input: Vec<i64> = vec![5; 100];
        let (_, deltas) = delta_encode(&input);
        assert_eq!(delta_width(&deltas), 0);
    }
}
