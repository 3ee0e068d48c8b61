//! The paper's end-to-end SCAN and SUM (§4.3: Table 6, Fig. 6): a column
//! stored by one scheme, decoded by morsel-claiming workers one vector at a
//! time and handed to a consumer — the Tectorwise setup, without its zone
//! maps or error paths, because the harness compresses its own bytes.

use alp::format::BodyColumn;
use alp::VECTOR_SIZE;
use alp_core::{ColumnCodec, Registry, Scratch};

/// Vectors per row-group: the ALP compressor's default, which is also the
/// morsel every scheme's workers claim and the block of the block-based codecs.
pub const ROWGROUP_VECTORS: usize = 100;
/// Values per row-group.
pub const ROWGROUP_VALUES: usize = ROWGROUP_VECTORS * VECTOR_SIZE;

/// The schemes of Table 6 and Fig. 6, in presentation order: `"raw"` is the
/// uncompressed column, every other id a registry codec.
pub const SCHEMES: [&str; 8] =
    ["alp", "raw", "pde", "patas", "gorilla", "chimp", "chimp128", "gpzip"];

/// A column as the end-to-end experiments store it.
pub enum Stored {
    /// Plain values, read in place.
    Raw(Vec<f64>),
    /// ALP's row-group bodies, decoded one vector at a time in place.
    Alp(BodyColumn<f64>),
    /// A registry codec's bytes: one chunk per vector, or per row-group for
    /// a block-based codec, which must inflate a whole block to read any of it.
    Codec(&'static dyn ColumnCodec, Vec<(Vec<u8>, usize)>),
}

impl Stored {
    /// Stores `data` under scheme `id` (`"raw"` or a serializable registry id).
    pub fn new(id: &str, data: &[f64]) -> Self {
        match id {
            "raw" => Stored::Raw(data.to_vec()),
            "alp" => {
                let compressor = alp::Compressor::new();
                let mut scratch = alp::rowgroup::EncodeScratch::default();
                let mut stats = alp::SamplerStats::default();
                let bodies = data.chunks(ROWGROUP_VALUES).map(|rowgroup| {
                    let mut body = Vec::new();
                    compressor.encode_rowgroup_body(rowgroup, &mut body, &mut scratch, &mut stats);
                    body
                });
                Stored::Alp(BodyColumn::from_bodies(bodies.collect()).expect("bodies just encoded"))
            }
            _ => {
                let codec = Registry::get(id).expect("a registered codec");
                let chunk = if codec.caps().block_based { ROWGROUP_VALUES } else { VECTOR_SIZE };
                let chunks = codec.par_compress(data, chunk, 1).expect("a serializable codec");
                Stored::Codec(codec, chunks)
            }
        }
    }

    /// The scheme's name in the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            Stored::Raw(_) => "Uncompressed",
            Stored::Alp(_) => "ALP",
            Stored::Codec(codec, _) => codec.name(),
        }
    }

    /// Stored payload in bytes.
    pub fn compressed_bytes(&self) -> usize {
        match self {
            Stored::Raw(values) => values.len() * 8,
            Stored::Alp(c) => c.bodies().map(<[u8]>::len).sum(),
            Stored::Codec(_, chunks) => chunks.iter().map(|(bytes, _)| bytes.len()).sum(),
        }
    }

    /// SCAN: every value is read (XOR-folded into a black-boxed checksum, so
    /// even raw data is honestly memory-bound); returns the tuples delivered.
    pub fn scan(&self, threads: usize) -> usize {
        let fold_bits = |v: &[f64]| v.iter().fold(0u64, |acc, x| acc ^ x.to_bits());
        self.fold_vectors(threads, |v| {
            std::hint::black_box(fold_bits(v));
            v.len() as f64
        }) as usize
    }

    /// SUM: SCAN plus the canonical per-vector sum ([`alp::sum_decoded`]).
    pub fn sum(&self, threads: usize) -> f64 {
        self.fold_vectors(threads, |v| alp::sum_decoded(v, None, false).sum)
    }

    /// Adds up `consume(vector)` over every vector. Workers claim row-group
    /// morsels from [`alp::par::fold_morsels`], each decoding through its own
    /// buffers; partials are added at the join barrier (at one thread: one
    /// running total in vector order).
    fn fold_vectors(&self, threads: usize, consume: impl Fn(&[f64]) -> f64 + Sync) -> f64 {
        let morsels = match self {
            Stored::Raw(values) => values.len().div_ceil(ROWGROUP_VALUES),
            Stored::Alp(c) => c.vector_count().div_ceil(ROWGROUP_VECTORS),
            Stored::Codec(_, chunks) => {
                chunks.iter().map(|&(_, n)| n).sum::<usize>().div_ceil(ROWGROUP_VALUES)
            }
        };
        let (.., total) = alp::par::fold_morsels(
            threads.max(1),
            morsels,
            || (Scratch::new(), vec![0.0; VECTOR_SIZE], 0.0),
            |(scratch, buf, acc), m| match self {
                Stored::Raw(values) => {
                    let morsel = values.chunks(ROWGROUP_VALUES).nth(m).unwrap_or_default();
                    morsel.chunks(VECTOR_SIZE).for_each(|v| *acc += consume(v));
                }
                Stored::Alp(c) => {
                    let first = m * ROWGROUP_VECTORS;
                    for v in first..(first + ROWGROUP_VECTORS).min(c.vector_count()) {
                        let n = c.vector(v).expect("in range").decode(buf);
                        *acc += consume(&buf[..n]);
                    }
                }
                Stored::Codec(codec, chunks) => {
                    let per_morsel = if codec.caps().block_based { 1 } else { ROWGROUP_VECTORS };
                    for (bytes, n) in chunks.iter().skip(m * per_morsel).take(per_morsel) {
                        codec.try_decompress_into(bytes, *n, buf, scratch).expect("own bytes");
                        buf.chunks(VECTOR_SIZE).for_each(|v| *acc += consume(v));
                    }
                }
            },
            |(scratch, buf, a), (.., b)| (scratch, buf, a + b),
        );
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alp_core::scan::{scan_values, ScanAgg, ScanPredicate, ScanResult};

    /// `"raw"` and every serializable registry codec.
    fn every_scheme() -> impl Iterator<Item = &'static str> {
        let stored = Registry::all().iter().filter(|c| !c.caps().ratio_only).map(|c| c.id());
        ["raw"].into_iter().chain(stored)
    }

    /// Quarter-step decimals with an exception-making outlier every 777 values.
    fn sample(n: usize) -> Vec<f64> {
        let value =
            |i: usize| if i % 777 == 776 { 1e-7 * i as f64 } else { (i % 5000) as f64 / 4.0 };
        (0..n).map(value).collect()
    }

    fn scan_values_sum(data: &[f64]) -> f64 {
        let mut oracle = ScanResult::new();
        let all = ScanPredicate { lo: f64::NEG_INFINITY, hi: f64::INFINITY };
        scan_values(data, all, ScanAgg::SumCount, &mut oracle);
        oracle.sum
    }

    #[test]
    fn scan_counts_all_tuples_in_every_format() {
        let data = sample(2 * ROWGROUP_VALUES + 3 * VECTOR_SIZE);
        for id in every_scheme() {
            assert_eq!(Stored::new(id, &data).scan(1), data.len(), "{id}");
        }
    }

    /// At one thread the fold is `scan_values`' own order, so the bits agree
    /// on any finite data.
    #[test]
    fn sum_agrees_across_formats() {
        let data = datagen::generate("City-Temp", ROWGROUP_VALUES + 5000, 7);
        let want = scan_values_sum(&data).to_bits();
        for id in every_scheme() {
            assert_eq!(Stored::new(id, &data).sum(1).to_bits(), want, "{id}");
        }
    }

    /// Workers add their partials in another order, which changes no bit of
    /// a sum whose partial sums are all exact.
    #[test]
    fn parallel_matches_serial() {
        let data: Vec<f64> =
            (0..3 * ROWGROUP_VALUES + 700).map(|i| (i % 997) as f64 / 4.0).collect();
        let want = scan_values_sum(&data).to_bits();
        for id in every_scheme() {
            let stored = Stored::new(id, &data);
            for threads in [1, 3] {
                assert_eq!(stored.scan(threads), data.len(), "{id} at {threads} threads");
                assert_eq!(stored.sum(threads).to_bits(), want, "{id} at {threads} threads");
            }
        }
    }

    #[test]
    fn empty_column_works() {
        for id in every_scheme() {
            let stored = Stored::new(id, &[]);
            assert_eq!((stored.scan(4), stored.sum(4)), (0, 0.0), "{id}");
        }
    }

    #[test]
    fn short_tail_vectors_are_delivered() {
        let data = sample(ROWGROUP_VALUES + 700);
        let want = scan_values_sum(&data).to_bits();
        for id in every_scheme() {
            let stored = Stored::new(id, &data);
            assert_eq!((stored.scan(2), stored.sum(1).to_bits()), (data.len(), want), "{id}");
        }
    }
}
