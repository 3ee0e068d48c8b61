//! Registry-driven measurement entry points: every scheme in the evaluation
//! is a [`ColumnCodec`] resolved from [`alp_core::Registry`]; this module
//! only measures, it no longer enumerates.

use alp::VECTOR_SIZE;
use alp_core::{ColumnCodec, CoreError, Scratch};

use crate::endtoend::ROWGROUP_VALUES;
use crate::timing::{measure, Measurement};

/// Compression ratio of `codec` on `data` in bits per value, verifying
/// losslessness on the way.
///
/// Errs with [`CoreError::Empty`] on an empty column (a ratio of zero values
/// is undefined) and with [`CoreError::NotLossless`] if the roundtrip changed
/// any bit pattern.
pub fn bits_per_value(
    codec: &dyn ColumnCodec,
    data: &[f64],
    scratch: &mut Scratch,
) -> Result<f64, CoreError> {
    if data.is_empty() {
        return Err(CoreError::Empty);
    }
    let bits = codec.verified_compressed_bits(data, scratch)?;
    Ok(bits as f64 / data.len() as f64)
}

/// Speed measurement of one scheme on one dataset: an L1-resident vector
/// (1024 values) compressed/decompressed repeatedly, except the block-based
/// general-purpose compressors which run on a whole row-group (§4.2's
/// methodology).
#[derive(Debug, Clone, Copy)]
pub struct Speed {
    /// Compression throughput.
    pub compress: Measurement,
    /// Decompression throughput.
    pub decompress: Measurement,
    /// Values processed per call.
    pub tuples: usize,
}

impl Speed {
    /// Tuples per cycle for compression.
    pub fn compress_tpc(&self) -> f64 {
        self.compress.tuples_per_cycle(self.tuples)
    }
    /// Tuples per cycle for decompression.
    pub fn decompress_tpc(&self) -> f64 {
        self.decompress.tuples_per_cycle(self.tuples)
    }
}

/// Measures a codec's speed on a dataset (first 1024 values, or the first
/// row-group for block-based codecs). `min_batch_ms` trades accuracy for
/// runtime.
///
/// Errs with [`CoreError::Unsupported`] for ratio-only schemes and
/// [`CoreError::Empty`] when `data` has less than one full vector.
pub fn measure_speed(
    codec: &dyn ColumnCodec,
    data: &[f64],
    min_batch_ms: u64,
) -> Result<Speed, CoreError> {
    let caps = codec.caps();
    if caps.ratio_only {
        return Err(CoreError::Unsupported { codec: codec.id(), what: "speed measurement" });
    }
    if data.len() < VECTOR_SIZE {
        return Err(CoreError::Empty);
    }
    let vector = &data[..VECTOR_SIZE];
    if codec.id() == "alp" {
        // Micro-benchmark scope per the paper: second-level sampling +
        // encode (+FFOR) for compression; fused decode for decompression.
        // Row-group (first-level) sampling is amortized and excluded, as is
        // the byte serialization the generic path below would time.
        let params = alp::SamplerParams::default();
        let outcome = alp::sampler::first_level(data, &params);
        let combos = outcome.combinations.clone();
        let mut stats = alp::SamplerStats::default();
        let compress = measure(
            || {
                let combo = alp::sampler::second_level(vector, &combos, &params, &mut stats);
                std::hint::black_box(alp::encode::encode_vector(vector, combo.e, combo.f));
            },
            min_batch_ms,
            3,
        );
        let combo = alp::sampler::second_level(vector, &combos, &params, &mut stats);
        let encoded = alp::encode::encode_vector(vector, combo.e, combo.f);
        let mut out = vec![0.0f64; VECTOR_SIZE];
        let decompress = measure(
            || {
                alp::decode::decode_vector(&encoded, encoded.view(), &mut out);
                std::hint::black_box(&out);
            },
            min_batch_ms,
            3,
        );
        return Ok(Speed { compress, decompress, tuples: VECTOR_SIZE });
    }
    // Block-based codecs get a whole row-group per call; vector-granular
    // codecs get one L1-resident vector.
    let input = if caps.block_based { &data[..data.len().min(ROWGROUP_VALUES)] } else { vector };
    let mut scratch = Scratch::new();
    let mut bytes = Vec::new();
    codec.try_compress_into(input, &mut bytes, &mut scratch)?;
    let mut stage = Vec::new();
    let compress = measure(
        || {
            codec
                .try_compress_into(input, &mut stage, &mut scratch)
                .expect("compression succeeded above");
            std::hint::black_box(&stage);
        },
        min_batch_ms,
        3,
    );
    let mut out = Vec::new();
    let decompress = measure(
        || {
            codec
                .try_decompress_into(&bytes, input.len(), &mut out, &mut scratch)
                .expect("decoding bytes we just compressed");
            std::hint::black_box(&out);
        },
        min_batch_ms,
        3,
    );
    Ok(Speed { compress, decompress, tuples: input.len() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use alp_core::Registry;

    #[test]
    fn every_table4_scheme_reports_a_ratio() {
        let data: Vec<f64> = (0..4096).map(|i| ((i % 91) as f64) / 10.0).collect();
        let mut scratch = Scratch::new();
        for id in alp_core::TABLE4_IDS {
            let codec = Registry::get(id).expect("table 4 id registered");
            let bpv = bits_per_value(codec, &data, &mut scratch).expect("ratio");
            assert!(bpv > 0.0 && bpv < 128.0, "{}: {bpv}", codec.name());
        }
    }

    #[test]
    fn empty_column_is_a_typed_error_not_a_panic() {
        let mut scratch = Scratch::new();
        for codec in Registry::all() {
            assert_eq!(
                bits_per_value(*codec, &[], &mut scratch),
                Err(CoreError::Empty),
                "{}",
                codec.id()
            );
        }
    }

    #[test]
    fn length_one_column_reports_a_ratio() {
        let mut scratch = Scratch::new();
        for codec in Registry::all() {
            let bpv = bits_per_value(*codec, &[3.25], &mut scratch)
                .unwrap_or_else(|e| panic!("{}: {e}", codec.id()));
            assert!(bpv > 0.0, "{}: {bpv}", codec.id());
        }
    }

    #[test]
    fn alp_beats_xor_codecs_on_decimals() {
        let data: Vec<f64> = (0..8192).map(|i| ((i * 37 % 9973) as f64) / 100.0).collect();
        let mut scratch = Scratch::new();
        let alp_codec = Registry::get("alp").expect("registered");
        let gorilla = Registry::get("gorilla").expect("registered");
        let a = bits_per_value(alp_codec, &data, &mut scratch).expect("alp ratio");
        let g = bits_per_value(gorilla, &data, &mut scratch).expect("gorilla ratio");
        assert!(a < g, "alp {a} gorilla {g}");
    }

    #[test]
    fn speed_measurement_runs_quickly() {
        let data: Vec<f64> = (0..4096).map(|i| (i as f64) / 8.0).collect();
        let alp_codec = Registry::get("alp").expect("registered");
        let s = measure_speed(alp_codec, &data, 1).expect("measurable");
        assert!(s.decompress_tpc() > 0.0);
        assert!(s.compress_tpc() > 0.0);
    }

    #[test]
    fn ratio_only_scheme_is_not_measurable_for_speed() {
        let data: Vec<f64> = (0..4096).map(|i| (i as f64) / 8.0).collect();
        let lwc = Registry::get("lwc-alp").expect("registered");
        assert!(matches!(
            measure_speed(lwc, &data, 1),
            Err(CoreError::Unsupported { codec: "lwc-alp", .. })
        ));
    }

    #[test]
    fn short_column_speed_is_a_typed_error() {
        let alp_codec = Registry::get("alp").expect("registered");
        assert_eq!(measure_speed(alp_codec, &[1.0; 100], 1).map(|_| ()), Err(CoreError::Empty));
    }
}
