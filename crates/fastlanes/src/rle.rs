//! Run-length encoding with separate run-value and run-length streams, so each
//! stream can be further compressed (the cascade the paper describes: RLE, then
//! ALP on the run values, FOR/BP on the run lengths).

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

/// A run-length encoded sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rle<T> {
    /// One entry per run.
    pub values: Vec<T>,
    /// Length of each run, parallel to `values`.
    pub lengths: Vec<u32>,
}

impl<T: Copy + PartialEq> Rle<T> {
    /// Encodes `input` as runs of equal adjacent values.
    ///
    /// Equality is `PartialEq`; for floats, encode the *bit patterns* (u64) to
    /// keep NaNs and signed zeros lossless.
    pub fn encode(input: &[T]) -> Self {
        let mut values = Vec::new();
        let mut lengths = Vec::new();
        let mut iter = input.iter();
        if let Some(&first) = iter.next() {
            let mut cur = first;
            let mut run: u32 = 1;
            for &v in iter {
                if v == cur {
                    run += 1;
                } else {
                    values.push(cur);
                    lengths.push(run);
                    cur = v;
                    run = 1;
                }
            }
            values.push(cur);
            lengths.push(run);
        }
        Self { values, lengths }
    }

    /// Total number of values the encoded form expands to.
    pub fn decoded_len(&self) -> usize {
        self.lengths.iter().map(|&l| l as usize).sum()
    }

    /// Expands the runs back into a flat vector.
    pub fn decode(&self) -> Vec<T> {
        let mut out = Vec::with_capacity(self.decoded_len());
        for (&v, &l) in self.values.iter().zip(&self.lengths) {
            out.resize(out.len() + l as usize, v);
        }
        out
    }

    /// Number of runs.
    pub fn run_count(&self) -> usize {
        self.values.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_runs() {
        let input = vec![1u64, 1, 1, 2, 2, 3, 1, 1];
        let rle = Rle::encode(&input);
        assert_eq!(rle.values, vec![1, 2, 3, 1]);
        assert_eq!(rle.lengths, vec![3, 2, 1, 2]);
        assert_eq!(rle.decode(), input);
    }

    #[test]
    fn empty_input() {
        let rle = Rle::<u64>::encode(&[]);
        assert_eq!(rle.run_count(), 0);
        assert!(rle.decode().is_empty());
    }

    #[test]
    fn single_long_run() {
        let input = vec![7u64; 10_000];
        let rle = Rle::encode(&input);
        assert_eq!(rle.run_count(), 1);
        assert_eq!(rle.decoded_len(), 10_000);
        assert_eq!(rle.decode(), input);
    }

    #[test]
    fn all_distinct_degenerates_gracefully() {
        let input: Vec<u64> = (0..100).collect();
        let rle = Rle::encode(&input);
        assert_eq!(rle.run_count(), 100);
        assert_eq!(rle.decode(), input);
    }

    #[test]
    fn float_bits_keep_nan_runs() {
        let nan = f64::NAN.to_bits();
        let input = vec![nan, nan, 1.0f64.to_bits()];
        let rle = Rle::encode(&input);
        assert_eq!(rle.run_count(), 2);
        assert_eq!(rle.decode(), input);
    }
}
