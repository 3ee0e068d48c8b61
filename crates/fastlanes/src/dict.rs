//! Dictionary encoding over `u64` symbols (callers pass float bit patterns to
//! keep NaN/-0.0 exact). Codes are dense `u32`s assigned in first-seen order;
//! pack them with [`crate::bitpack`] at `bits_needed(dict_len - 1)` bits.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use std::collections::HashMap;

use crate::bits_needed;

/// A dictionary-encoded sequence: `values[i] == dict[codes[i]]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DictEncoded {
    /// Distinct symbols in first-occurrence order.
    pub dict: Vec<u64>,
    /// Per-value index into `dict`.
    pub codes: Vec<u32>,
}

impl DictEncoded {
    /// Builds the dictionary and code stream for `input`.
    pub fn encode(input: &[u64]) -> Self {
        let mut map: HashMap<u64, u32> = HashMap::new();
        let mut dict = Vec::new();
        let mut codes = Vec::with_capacity(input.len());
        for &v in input {
            let code = *map.entry(v).or_insert_with(|| {
                dict.push(v);
                (dict.len() - 1) as u32
            });
            codes.push(code);
        }
        Self { dict, codes }
    }

    /// Reconstructs the original sequence.
    #[expect(
        clippy::indexing_slicing,
        reason = "codes are produced by `encode` and always index this encoder's own dictionary"
    )]
    pub fn decode(&self) -> Vec<u64> {
        self.codes.iter().map(|&c| self.dict[c as usize]).collect()
    }

    /// Bits per code when packed.
    pub fn code_width(&self) -> usize {
        bits_needed(self.dict.len().saturating_sub(1) as u64)
    }

    /// Estimated compressed size in bits: packed codes + raw dictionary.
    pub fn estimated_bits(&self) -> usize {
        self.codes.len() * self.code_width() + self.dict.len() * 64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_with_repeats() {
        let input = vec![5u64, 5, 7, 5, 9, 7];
        let e = DictEncoded::encode(&input);
        assert_eq!(e.dict, vec![5, 7, 9]);
        assert_eq!(e.codes, vec![0, 0, 1, 0, 2, 1]);
        assert_eq!(e.decode(), input);
    }

    #[test]
    fn code_width_grows_with_cardinality() {
        let one = DictEncoded::encode(&[1, 1, 1]);
        assert_eq!(one.code_width(), 0);
        let two = DictEncoded::encode(&[1, 2]);
        assert_eq!(two.code_width(), 1);
        let many = DictEncoded::encode(&(0..300).collect::<Vec<u64>>());
        assert_eq!(many.code_width(), 9);
    }

    #[test]
    fn empty_input() {
        let e = DictEncoded::encode(&[]);
        assert!(e.dict.is_empty() && e.codes.is_empty());
        assert!(e.decode().is_empty());
    }

    #[test]
    fn estimated_bits_favours_repetitive_data() {
        let repetitive = DictEncoded::encode(&vec![1u64; 4096]);
        let distinct = DictEncoded::encode(&(0..4096).collect::<Vec<u64>>());
        assert!(repetitive.estimated_bits() < distinct.estimated_bits());
    }
}
