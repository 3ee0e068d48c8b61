//! **ALP_rd** — ALP for "Real Doubles" (§3.4).
//!
//! When the level-1 sample shows a row-group cannot be encoded as decimals,
//! each value's bit pattern is *cut* at a position chosen per row-group:
//!
//! * the **right** (low) part, `BITS - lw` bits wide, is stored bit-packed
//!   verbatim — it is essentially incompressible noise;
//! * the **left** (front) part, `lw ∈ 1..=16` bits holding the sign, exponent
//!   and top mantissa bits, exhibits low variance (§2.6) and is compressed
//!   with a *skewed dictionary*: at most 8 entries, values outside the
//!   dictionary stored as 16-bit exceptions with 16-bit positions.
//!
//! Decoding is one block-fused loop ([`RdVectorRef::decode`]): per 64 values,
//! bit-unpack the codes and the right parts, map the codes through the
//! dictionary and `GLUE` — `bits = (left << right_width) | right` — straight
//! into the output, with no vector-sized temporaries; exceptions are then
//! patched over the slots' own right parts. The loop reads its words through
//! [`fastlanes::bitpack::Word`], so it runs on an owned [`RdVector`] and on
//! the bytes of a frame body ([`crate::format::RdVectorView`]) alike.

use std::collections::HashMap;

use fastlanes::bitpack::{self, block_words, unpacker, Word, BLOCK};
use fastlanes::{bits_needed, VECTOR_SIZE};

use crate::encode::Short;
use crate::sampler::equidistant_indices;
use crate::traits::AlpFloat;

/// Maximum width of the left (front-bits) part.
pub const MAX_LEFT_WIDTH: usize = 16;
/// Maximum dictionary size: `2^3 = 8` entries (§3.4).
pub const MAX_DICT_SIZE: usize = 8;
/// Exception budget used when sizing the dictionary (§3.4: grow the
/// dictionary while exceptions exceed 10%, up to 8 entries).
pub const EXCEPTION_BUDGET: f64 = 0.10;

/// Per-row-group ALP_rd parameters, chosen once by [`choose_cut`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RdMeta {
    /// Width of the left (front) part in bits, `1..=16`.
    pub left_width: u8,
    /// Dictionary of the most frequent left patterns (≤ 8, 16-bit each).
    pub dict: Vec<u16>,
    /// Bits per packed dictionary code (`ceil(log2(dict.len()))`).
    pub code_width: u8,
}

impl RdMeta {
    /// Width of the right part for floats of `BITS` total bits.
    pub fn right_width<F: AlpFloat>(&self) -> usize {
        F::BITS as usize - self.left_width as usize
    }

    /// Serialized footprint of the row-group header in bits.
    pub fn header_bits(&self) -> usize {
        8 /*left_width*/ + 8 /*dict len*/ + self.dict.len() * 16
    }
}

/// One ALP_rd-encoded vector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RdVector {
    /// Bit-packed dictionary codes of the left parts.
    pub packed_codes: Vec<u64>,
    /// Bit-packed right parts.
    pub packed_right: Vec<u64>,
    /// Positions of left parts not found in the dictionary.
    pub exc_positions: Vec<u16>,
    /// The out-of-dictionary left parts themselves.
    pub exc_left: Vec<u16>,
    /// Live values in this vector.
    pub len: u16,
}

impl RdVector {
    /// Exact compressed size in bits given the row-group meta.
    pub fn compressed_bits<F: AlpFloat>(&self, meta: &RdMeta) -> usize {
        let header = 16; // exception count
        let payload = VECTOR_SIZE * (meta.right_width::<F>() + meta.code_width as usize);
        let exceptions = self.exc_positions.len() * (16 + 16);
        header + payload + exceptions
    }

    /// Number of left-part exceptions.
    pub fn exception_count(&self) -> usize {
        self.exc_positions.len()
    }
}

/// Chooses the cut position and dictionary for a row-group by scoring every
/// candidate left width on an equidistant sample (the RD branch of level-1
/// sampling, `ALP::RD::ADAPTIVE_SAMPLING` in Algorithm 3).
pub fn choose_cut<F: AlpFloat>(rowgroup: &[F], sample_size: usize) -> RdMeta {
    let sample = sample_bits(rowgroup, sample_size);
    let mut best: Option<(f64, RdMeta)> = None;
    for lw in 1..=MAX_LEFT_WIDTH.min(F::BITS as usize - 1) {
        let (est_bits_per_value, meta) = score_cut::<F>(&sample, lw);
        match &best {
            Some((b, _)) if *b <= est_bits_per_value => {}
            _ => best = Some((est_bits_per_value, meta)),
        }
    }
    best.expect("at least one cut candidate").1
}

/// Builds the dictionary and estimated footprint for one forced left width
/// (used by [`choose_cut`] and by the cut-position ablation bench).
pub fn meta_for_width<F: AlpFloat>(
    rowgroup: &[F],
    sample_size: usize,
    left_width: usize,
) -> RdMeta {
    assert!((1..=MAX_LEFT_WIDTH.min(F::BITS as usize - 1)).contains(&left_width));
    let sample = sample_bits(rowgroup, sample_size);
    score_cut::<F>(&sample, left_width).1
}

fn sample_bits<F: AlpFloat>(rowgroup: &[F], sample_size: usize) -> Vec<u64> {
    let mut sample: Vec<u64> = Vec::with_capacity(sample_size);
    for idx in equidistant_indices(rowgroup.len(), sample_size) {
        sample.push(rowgroup[idx].to_bits_u64());
    }
    assert!(!sample.is_empty(), "cannot sample an empty row-group");
    sample
}

fn score_cut<F: AlpFloat>(sample: &[u64], lw: usize) -> (f64, RdMeta) {
    let right_w = F::BITS as usize - lw;
    // Frequency count of left patterns in the sample.
    let mut counts: HashMap<u16, usize> = HashMap::new();
    for &bits in sample {
        *counts.entry((bits >> right_w) as u16).or_insert(0) += 1;
    }
    let mut by_freq: Vec<(u16, usize)> = counts.into_iter().collect();
    by_freq.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));

    // Smallest dictionary (1, 2, 4, 8) keeping exceptions within budget.
    let total = sample.len();
    let mut chosen_size = MAX_DICT_SIZE;
    for b in 0..=3usize {
        let size = 1usize << b;
        let covered: usize = by_freq.iter().take(size).map(|&(_, c)| c).sum();
        let exc_frac = 1.0 - covered as f64 / total as f64;
        if exc_frac <= EXCEPTION_BUDGET {
            chosen_size = size;
            break;
        }
    }
    let dict: Vec<u16> = by_freq.iter().take(chosen_size).map(|&(v, _)| v).collect();
    let code_width = bits_needed(dict.len().saturating_sub(1) as u64);
    let covered: usize = by_freq.iter().take(dict.len()).map(|&(_, c)| c).sum();
    let exc_frac = 1.0 - covered as f64 / total as f64;
    let est_bits_per_value = right_w as f64 + code_width as f64 + exc_frac * (16.0 + 16.0);
    (est_bits_per_value, RdMeta { left_width: lw as u8, dict, code_width: code_width as u8 })
}

/// Encodes one vector under the row-group's cut/dictionary (Algorithm 3).
pub fn encode_rd_vector<F: AlpFloat>(input: &[F], meta: &RdMeta) -> RdVector {
    let len = input.len();
    assert!(len > 0 && len <= VECTOR_SIZE);
    let right_w = meta.right_width::<F>();
    let right_mask = if right_w == 64 { u64::MAX } else { (1u64 << right_w) - 1 };

    let mut lefts = [0u64; VECTOR_SIZE];
    let mut rights = [0u64; VECTOR_SIZE];
    for i in 0..len {
        let bits = input[i].to_bits_u64();
        lefts[i] = bits >> right_w;
        rights[i] = bits & right_mask;
    }

    // Dictionary lookup by linear scan — at most 8 entries, faster and more
    // predictable than hashing.
    let mut codes = [0u64; VECTOR_SIZE];
    let mut exc_positions = Vec::new();
    let mut exc_left = Vec::new();
    for i in 0..len {
        match meta.dict.iter().position(|&d| d as u64 == lefts[i]) {
            Some(c) => codes[i] = c as u64,
            None => {
                exc_positions.push(i as u16);
                exc_left.push(lefts[i] as u16);
                codes[i] = 0;
            }
        }
    }
    // Pad short tails (keeps packed vectors full-size without widening).
    for i in len..VECTOR_SIZE {
        codes[i] = 0;
        rights[i] = 0;
    }

    RdVector {
        packed_codes: bitpack::pack(&codes, meta.code_width as usize),
        packed_right: bitpack::pack(&rights, right_w),
        exc_positions,
        exc_left,
        len: len as u16,
    }
}

/// One ALP_rd vector as the decode kernel reads it: the cut and the
/// dictionary (padded to a fixed-size LUT) by value, the four payload streams
/// borrowed. `W`/`P` are `u64`/`u16` over an owned [`RdVector`]
/// ([`RdVectorRef::owned`]) and `[u8; 8]`/`[u8; 2]` over the bytes of a frame
/// body ([`crate::format::RdVectorView`], built only by the body parser).
#[derive(Debug, Clone, Copy)]
pub struct RdVectorRef<'a, W = u64, P = u16> {
    /// Bits of the right part, `1..=63` (both constructors check the cut).
    pub(crate) right_width: u8,
    /// Bits per dictionary code, `0..=3` (likewise).
    pub(crate) code_width: u8,
    /// The dictionary, unused slots repeating entry 0.
    pub(crate) lut: [u16; MAX_DICT_SIZE],
    pub(crate) len: u16,
    /// `16 * code_width` words; an owned vector's pad word may follow.
    pub(crate) packed_codes: &'a [W],
    /// `16 * right_width` words, likewise.
    pub(crate) packed_right: &'a [W],
    pub(crate) exc_positions: &'a [P],
    pub(crate) exc_left: &'a [P],
}

impl<'a> RdVectorRef<'a> {
    /// The kernel's view of an owned vector under its row-group's `meta`;
    /// `None` when `meta` is not one [`choose_cut`] or the wire parser could
    /// have produced (empty or oversized dictionary, cut outside the float,
    /// code width over 3) — both are `pub` structs anyone can fill in.
    pub fn owned<F: AlpFloat>(v: &'a RdVector, meta: &RdMeta) -> Option<Self> {
        let left = meta.left_width as usize;
        // `MAX_LEFT_WIDTH` is below either float width, so a right part remains.
        if left == 0 || left > MAX_LEFT_WIDTH || meta.code_width > 3 {
            return None;
        }
        // Codes are `< 2^code_width <= 8`: with the unused slots repeating
        // entry 0, a masked lookup never misses.
        let mut lut = [*meta.dict.first()?; MAX_DICT_SIZE];
        lut.get_mut(..meta.dict.len())?.copy_from_slice(&meta.dict);
        Some(Self {
            right_width: u8::try_from(F::BITS as usize - left).ok()?,
            code_width: meta.code_width,
            lut,
            len: v.len,
            packed_codes: &v.packed_codes,
            packed_right: &v.packed_right,
            exc_positions: &v.exc_positions,
            exc_left: &v.exc_left,
        })
    }
}

impl<W: Word, P: Short> RdVectorRef<'_, W, P> {
    /// Number of live values (`<= 1024`).
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the vector holds no live values.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// [`decode_rd_vector`] over this source: per 64-value block, unpack the
    /// codes and the right parts, map each code through the LUT and `GLUE`
    /// while both are in L1; then patch the exceptions' left parts over the
    /// slots' own right parts. Returns the live count — `0`, with `out`
    /// untouched, when a payload stream is shorter than its width requires.
    pub fn decode<F: AlpFloat>(&self, out: &mut [F]) -> usize {
        assert!(out.len() >= VECTOR_SIZE);
        let (code_w, right_w) = (self.code_width as usize, self.right_width as usize);
        let blocks = VECTOR_SIZE / BLOCK;
        let (Some(code_words), Some(right_words)) =
            (self.packed_codes.get(..code_w * blocks), self.packed_right.get(..right_w * blocks))
        else {
            return 0;
        };
        let (unpack_codes, unpack_right) = (unpacker::<W>(code_w), unpacker::<W>(right_w));
        let lut = self.lut.map(|left| u64::from(left) << right_w);
        let (mut codes, mut rights) = ([0u64; BLOCK], [0u64; BLOCK]);
        let out = out.get_mut(..VECTOR_SIZE).unwrap_or_default();
        for (block, out_block) in out.as_chunks_mut::<BLOCK>().0.iter_mut().enumerate() {
            unpack_codes(block_words(code_words, code_w, block), &mut codes);
            unpack_right(block_words(right_words, right_w, block), &mut rights);
            // GLUE: the dictionary-decoded front bits over the right part.
            for ((o, &code), &right) in out_block.iter_mut().zip(&codes).zip(&rights) {
                let left = lut.get(code as usize & (MAX_DICT_SIZE - 1)).copied().unwrap_or(0);
                *o = F::from_bits_u64(left | right);
            }
        }
        // Patch left-part exceptions. Positions come off the wire; one past
        // the vector end is dropped rather than allowed to panic.
        let right_mask = (1u64 << right_w) - 1;
        for (p, left) in self.exc_positions.iter().zip(self.exc_left) {
            if let Some(slot) = out.get_mut(p.get() as usize) {
                let right = slot.to_bits_u64() & right_mask;
                *slot = F::from_bits_u64(u64::from(left.get()) << right_w | right);
            }
        }
        self.len()
    }
}

/// Decodes one ALP_rd vector into `out[..v.len]` (Algorithm 3, decoding half)
/// and returns the live count. Total over its `pub` inputs: a `meta` no
/// encoder or parser produces, or payload streams too short for its widths,
/// decode to `0` live values.
pub fn decode_rd_vector<F: AlpFloat>(v: &RdVector, meta: &RdMeta, out: &mut [F]) -> usize {
    RdVectorRef::owned::<F>(v, meta).map_or(0, |r| r.decode(out))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Full-precision doubles in a narrow range: classic ALP_rd data.
    fn real_doubles(count: usize) -> Vec<f64> {
        (0..count).map(|i| 0.5 + ((i as f64) * 0.7234).sin() * 1e-4).collect()
    }

    #[test]
    fn choose_cut_finds_low_variance_front() {
        let data = real_doubles(8192);
        let meta = choose_cut::<f64>(&data, 256);
        assert!((1..=16).contains(&(meta.left_width as usize)));
        assert!(!meta.dict.is_empty() && meta.dict.len() <= 8);
        // Values in [0.4999, 0.5001]: front bits nearly constant, so a small
        // dictionary must cover the sample.
        assert!(meta.dict.len() <= 4, "dict {:?}", meta.dict);
    }

    #[test]
    fn rd_roundtrip_narrow_range() {
        let data = real_doubles(1024);
        let meta = choose_cut::<f64>(&data, 256);
        let v = encode_rd_vector(&data, &meta);
        let mut out = vec![0.0f64; VECTOR_SIZE];
        let n = decode_rd_vector(&v, &meta, &mut out);
        assert_eq!(n, 1024);
        for i in 0..1024 {
            assert_eq!(out[i].to_bits(), data[i].to_bits(), "idx {i}");
        }
    }

    #[test]
    fn rd_roundtrip_with_outliers() {
        let mut data = real_doubles(1024);
        data[3] = f64::NAN;
        data[77] = -1e300;
        data[500] = f64::INFINITY;
        data[1023] = 0.0;
        let meta = choose_cut::<f64>(&data, 128);
        let v = encode_rd_vector(&data, &meta);
        assert!(v.exception_count() > 0);
        let mut out = vec![0.0f64; VECTOR_SIZE];
        decode_rd_vector(&v, &meta, &mut out);
        for i in 0..1024 {
            assert_eq!(out[i].to_bits(), data[i].to_bits(), "idx {i}");
        }
    }

    #[test]
    fn rd_roundtrip_short_vector() {
        let data = real_doubles(10);
        let meta = choose_cut::<f64>(&data, 10);
        let v = encode_rd_vector(&data, &meta);
        let mut out = vec![0.0f64; VECTOR_SIZE];
        let n = decode_rd_vector(&v, &meta, &mut out);
        assert_eq!(n, 10);
        for i in 0..10 {
            assert_eq!(out[i].to_bits(), data[i].to_bits());
        }
    }

    #[test]
    fn rd_f32_roundtrip() {
        let data: Vec<f32> = (0..1024).map(|i| ((i as f32) * 0.31).cos() * 0.01).collect();
        let meta = choose_cut::<f32>(&data, 256);
        assert!(meta.right_width::<f32>() >= 16);
        let v = encode_rd_vector(&data, &meta);
        let mut out = vec![0.0f32; VECTOR_SIZE];
        decode_rd_vector(&v, &meta, &mut out);
        for i in 0..1024 {
            assert_eq!(out[i].to_bits(), data[i].to_bits(), "idx {i}");
        }
    }

    /// `RdMeta` and `RdVector` are `pub` structs: whatever a caller fills
    /// in, decoding answers `0` live values instead of panicking.
    #[test]
    fn decode_is_total_over_hand_filled_inputs() {
        let mut data = real_doubles(1024);
        data[77] = -1e300;
        let meta = choose_cut::<f64>(&data, 256);
        let v = encode_rd_vector(&data, &meta);
        assert!(v.exception_count() > 0);
        let mut out = vec![1.0f64; VECTOR_SIZE];
        assert_eq!(decode_rd_vector(&v, &meta, &mut out), 1024);
        let wide_dict = RdMeta { dict: vec![0; MAX_DICT_SIZE + 1], ..meta.clone() };
        for (what, bad) in [
            ("empty dictionary", RdMeta { dict: Vec::new(), ..meta.clone() }),
            ("oversized dictionary", wide_dict),
            ("no left part", RdMeta { left_width: 0, ..meta.clone() }),
            ("left part past the cap", RdMeta { left_width: 17, ..meta.clone() }),
            ("left part is the whole float", RdMeta { left_width: 64, ..meta.clone() }),
            ("code width past the dictionary cap", RdMeta { code_width: 4, ..meta.clone() }),
        ] {
            out.fill(1.0);
            assert_eq!(decode_rd_vector(&v, &bad, &mut out), 0, "{what}");
            assert!(out.iter().all(|&x| x == 1.0), "{what}: output touched");
        }
        let few_rights = RdVector { packed_right: v.packed_right[..100].to_vec(), ..v.clone() };
        assert_eq!(decode_rd_vector(&few_rights, &meta, &mut out), 0, "short right stream");
        let wider = RdMeta { code_width: 3, ..meta.clone() };
        if meta.code_width < 3 {
            assert_eq!(decode_rd_vector(&v, &wider, &mut out), 0, "short code stream");
        }
        // An f32 vector under a cut that leaves no right part of an f32.
        let narrow: Vec<f32> = data.iter().map(|&x| x as f32).collect();
        let meta32 = choose_cut::<f32>(&narrow, 256);
        let v32 = encode_rd_vector(&narrow, &meta32);
        let mut out32 = vec![0.0f32; VECTOR_SIZE];
        assert_eq!(decode_rd_vector(&v32, &meta32, &mut out32), 1024);
        assert_eq!(decode_rd_vector(&v32, &RdMeta { left_width: 32, ..meta32 }, &mut out32), 0);
    }

    #[test]
    fn rd_achieves_some_compression_on_narrow_data() {
        let data = real_doubles(1024);
        let meta = choose_cut::<f64>(&data, 256);
        let v = encode_rd_vector(&data, &meta);
        let bits = v.compressed_bits::<f64>(&meta) as f64 / 1024.0;
        assert!(bits < 64.0, "bits/value = {bits}");
    }
}
