//! Inputs of a workload, all pure functions of the seed: the column, the
//! streams the ingest journey writes, the query mix and the oracle answers
//! every round is checked against.

use std::ops::Range;

use alp::hash::xxh64;
use alp::stream::ColumnWriter;
use alp::{ParityConfig, PipelineConfig, PipelinedColumnWriter};

use crate::spec::{
    Layout, Mix, Workload, BUILD_THREADS, PIPELINE_DEPTH, PUSH_CHUNK, ROWGROUP_VALUES,
};

/// `n` values of `dataset` in independently seeded pieces of `piece` values.
fn generate_pieces(dataset: &str, n: usize, piece: usize, seed: u64) -> Vec<f64> {
    let mut out = Vec::with_capacity(n);
    for (i, start) in (0..n).step_by(piece.max(1)).enumerate() {
        let sub_seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i as u64);
        out.extend(datagen::generate(dataset, piece.min(n - start), sub_seed));
    }
    out
}

/// The column of `w` at `scale` for `seed`.
pub fn generate(w: &Workload, scale: usize, seed: u64) -> Vec<f64> {
    let n = w.dataset_values(scale);
    let piece = match w.layout {
        Layout::Concat { segments } => n.div_ceil(segments),
        Layout::InterleaveRowgroups => ROWGROUP_VALUES,
    };
    let parts: Vec<Vec<f64>> =
        w.datasets.iter().map(|d| generate_pieces(d, n, piece, seed)).collect();
    match w.layout {
        Layout::Concat { .. } => parts.concat(),
        Layout::InterleaveRowgroups => {
            let mut out = Vec::with_capacity(n * parts.len());
            for block in 0..n / ROWGROUP_VALUES {
                for part in &parts {
                    out.extend_from_slice(&part[block * ROWGROUP_VALUES..][..ROWGROUP_VALUES]);
                }
            }
            out
        }
    }
}

/// The value ranges the ingest journey writes, one stream (file) each.
pub fn stream_ranges(w: &Workload, values: usize) -> Vec<Range<usize>> {
    let per_stream = w.stream_values.unwrap_or(values).max(1);
    (0..values).step_by(per_stream).map(|s| s..(s + per_stream).min(values)).collect()
}

/// `xxh64` of a column's bytes — the identity the purity tests compare.
#[cfg(test)]
fn data_hash(data: &[f64]) -> u64 {
    let bytes: Vec<u8> = data.iter().flat_map(|v| v.to_bits().to_le_bytes()).collect();
    xxh64(&bytes, 0)
}

/// One predicate of the mix, with its exact answer over the raw values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Band {
    pub lo: f64,
    pub hi: f64,
    pub matches: usize,
}

/// Everything a round is checked against; computed once per run from the
/// seed, outside every timed span.
pub struct Oracle {
    /// Query list per client.
    pub queries: Vec<Vec<Band>>,
    /// Interquartile band: the predicate the ladder's scan rungs use.
    pub mid: Band,
    pub max: f64,
    /// Hash over the per-stream `xxh64`s of what `ColumnWriter` writes to
    /// memory for the same data, which `build` has checked the pipelined
    /// writer writes too: every writer path and every round must produce
    /// these bytes.
    pub files_hash: u64,
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn unit(z: u64) -> f64 {
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// Combines per-file hashes into the identity of a set of files.
pub fn combine_hashes(hashes: &[u64]) -> u64 {
    let bytes: Vec<u8> = hashes.iter().flat_map(|h| h.to_le_bytes()).collect();
    xxh64(&bytes, 0)
}

impl Oracle {
    /// Fails when the serial and the pipelined writer disagree on a stream.
    pub fn build(w: &Workload, data: &[f64], seed: u64) -> Result<Oracle, String> {
        assert!(data.iter().all(|v| !v.is_nan()), "generators emit no NaN; the counts assume it");
        let mut sorted = data.to_vec();
        sorted.sort_unstable_by(f64::total_cmp);
        let at = |q: f64| sorted[(q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64) as usize];
        let band = |centre: f64, width: f64| {
            let (lo, hi) = (at(centre - width / 2.0), at(centre + width / 2.0));
            let below = sorted.partition_point(|&x| x < lo);
            let through = sorted.partition_point(|&x| x <= hi);
            Band { lo, hi, matches: through - below }
        };
        let queries = match w.mix {
            Mix::Bands { centres, widths } => {
                let one: Vec<Band> = centres
                    .iter()
                    .flat_map(|&c| widths.iter().map(move |&wd| (c, wd)))
                    .map(|(c, wd)| band(c, wd))
                    .collect();
                vec![one; w.clients]
            }
            Mix::Narrow { per_client, min_width, max_width } => (0..w.clients)
                .map(|client| {
                    (0..per_client)
                        .map(|i| {
                            let z = splitmix64(seed ^ ((client as u64) << 32 | i as u64));
                            let width = min_width + (max_width - min_width) * unit(z);
                            let centre = width / 2.0 + (1.0 - width) * unit(splitmix64(z));
                            band(centre, width)
                        })
                        .collect()
                })
                .collect(),
        };
        let mut hashes = Vec::new();
        for range in stream_ranges(w, data.len()) {
            let serial = xxh64(&serial_stream(&data[range.clone()], None), 0);
            if xxh64(&pipelined_stream(&data[range.clone()]), 0) != serial {
                return Err(format!("stream {range:?}: pipelined bytes differ from serial bytes"));
            }
            hashes.push(serial);
        }
        Ok(Oracle {
            queries,
            mid: band(0.5, 0.5),
            max: sorted[sorted.len() - 1],
            files_hash: combine_hashes(&hashes),
        })
    }
}

/// The `"ALPT"` bytes the serial writer produces for `values`, pushed in the
/// journey's chunk size; with `parity`, one XOR frame per group as well.
pub fn serial_stream(values: &[f64], parity: Option<ParityConfig>) -> Vec<u8> {
    let mut sink = Vec::new();
    let mut writer = match parity {
        None => ColumnWriter::<f64, _>::new(&mut sink),
        Some(p) => ColumnWriter::with_parity(&mut sink, p).expect("a valid parity group size"),
    };
    for chunk in values.chunks(PUSH_CHUNK) {
        writer.push(chunk).expect("writing to a Vec cannot fail");
    }
    writer.finish().expect("writing to a Vec cannot fail");
    sink
}

/// The same stream through `PipelinedColumnWriter`, as the `alp.pipeline.*`
/// rungs configure it.
pub fn pipelined_stream(values: &[f64]) -> Vec<u8> {
    let config = PipelineConfig { threads: BUILD_THREADS, depth: PIPELINE_DEPTH, panic_at: None };
    let mut sink = Vec::new();
    let mut writer = PipelinedColumnWriter::<f64, _>::new(&mut sink, config);
    for chunk in values.chunks(PUSH_CHUNK) {
        writer.push(chunk).expect("writing to a Vec cannot fail");
    }
    writer.finish().expect("writing to a Vec cannot fail");
    sink
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{workload, SMOKE_SCALE, WORKLOADS};

    #[test]
    fn generators_are_pure_in_the_seed() {
        for w in &WORKLOADS {
            let a = data_hash(&generate(w, SMOKE_SCALE, 7));
            let b = data_hash(&generate(w, SMOKE_SCALE, 7));
            let c = data_hash(&generate(w, SMOKE_SCALE, 8));
            assert_eq!(a, b, "{}: same seed, different data", w.name);
            assert_ne!(a, c, "{}: different seeds, same data", w.name);
        }
    }

    #[test]
    fn mixed_wide_interleaves_one_rowgroup_per_dataset() {
        let w = workload("mixed_wide").unwrap();
        let scale = 8;
        let n = w.dataset_values(scale);
        assert_eq!(n % ROWGROUP_VALUES, 0);
        let data = generate(w, scale, 3);
        assert_eq!(data.len(), w.total_values(scale));
        for (block, chunk) in data.chunks(ROWGROUP_VALUES).enumerate() {
            let dataset = w.datasets[block % w.datasets.len()];
            let source = generate_pieces(dataset, n, ROWGROUP_VALUES, 3);
            let at = block / w.datasets.len() * ROWGROUP_VALUES;
            assert_eq!(
                data_hash(chunk),
                data_hash(&source[at..at + ROWGROUP_VALUES]),
                "row-group {block} is not block {} of {dataset}",
                block / w.datasets.len()
            );
        }
    }

    #[test]
    fn hot_small_writes_62_streams_at_full_size() {
        let w = workload("hot_small").unwrap();
        let ranges = stream_ranges(w, w.total_values(1));
        assert_eq!(ranges.len(), 62);
        assert!(ranges.iter().all(|r| r.len() <= 32 * 1024));
        assert_eq!(ranges.iter().map(|r| r.len()).sum::<usize>(), 2_000_000);
        let one = workload("decimal_ts").unwrap();
        assert_eq!(stream_ranges(one, 1000), vec![0..1000]);
    }

    #[test]
    fn oracle_counts_are_exact_and_bands_come_from_the_data() {
        let w = workload("decimal_ts").unwrap();
        let data = generate(w, SMOKE_SCALE, 11);
        let oracle = Oracle::build(w, &data, 11).unwrap();
        assert_eq!(oracle.queries.len(), 1);
        assert_eq!(oracle.queries[0].len(), 24);
        for b in oracle.queries[0].iter().chain([&oracle.mid]) {
            let exact = data.iter().filter(|&&x| x >= b.lo && x <= b.hi).count();
            assert_eq!(b.matches, exact);
            assert!(b.matches > 0 && b.lo <= b.hi);
        }
        let hot = workload("hot_small").unwrap();
        let data = generate(hot, SMOKE_SCALE, 11);
        let a = Oracle::build(hot, &data, 11).unwrap();
        let b = Oracle::build(hot, &data, 12).unwrap();
        assert_eq!(a.queries.len(), 2);
        assert_eq!(a.queries[0].len(), 400);
        assert_ne!(a.queries[0], a.queries[1], "clients ask different questions");
        assert_ne!(a.queries[0], b.queries[0], "the narrow mix follows the seed");
    }
}
