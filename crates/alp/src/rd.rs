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
//! Encoding is the mirror image ([`RdEncoder`], built once per row-group): a
//! `2^lw`-byte table maps every possible left part to its dictionary code or
//! to "miss", so per 64-value block the loop is a shift, a mask and one table
//! load per value — a miss becomes a bit in the block's mask and a zeroed
//! code arithmetically, never a branch on the data — followed by the two
//! block packs straight to where the words will live: an owned [`RdVector`]
//! ([`encode_rd_vector`]), or the bytes of a frame body
//! ([`crate::format::encode_rd_body`]). Exception positions and left parts
//! are read back out of the block masks afterwards, for the vectors that have
//! any. [`choose_cut`] scores its 16 candidate cuts from one sorted copy of
//! the sample by run-length counting.
//!
//! Decoding is one block-fused loop ([`RdVectorRef::decode`]): per 64 values,
//! bit-unpack the codes and the right parts, map the codes through the
//! dictionary and `GLUE` — `bits = (left << right_width) | right` — straight
//! into the output, with no vector-sized temporaries; exceptions are then
//! patched over the slots' own right parts. The loop reads its words through
//! [`fastlanes::bitpack::Word`], so it runs on an owned [`RdVector`] and on
//! the bytes of a frame body ([`crate::format::RdVectorView`]) alike.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use fastlanes::bitpack::{block_words, block_words_mut, packer, unpacker, Word, BLOCK};
use fastlanes::tier;
use fastlanes::{bits_needed, packed_len, VECTOR_SIZE};

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

/// Blocks per vector.
const BLOCKS: usize = VECTOR_SIZE / BLOCK;

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

    /// Serialized footprint of the RD header in bits: three `u8`s, the dictionary.
    pub fn header_bits(&self) -> usize {
        3 * 8 + self.dict.len() * 16
    }
}

/// Why an [`RdMeta`] was refused ([`RdEncoder::new`]): the field outside what
/// [`choose_cut`] or the wire parser produce. `RdMeta` is a `pub` struct
/// anyone can fill in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RdMetaError(pub &'static str);

impl core::fmt::Display for RdMetaError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "ALP_rd parameters out of range: {}", self.0)
    }
}

impl std::error::Error for RdMetaError {}

/// A checked [`RdMeta`] held by value: `1 <= left_width <= 16` (below either
/// float width, so a right part remains), `1 <= dict_len <= 8`,
/// `code_width <= 3`. What the kernels and the wire parser work under:
/// nothing is sized or shifted by an `RdMeta` field that did not pass
/// [`RdCut::new`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RdCut {
    pub(crate) left_width: u8,
    pub(crate) code_width: u8,
    pub(crate) dict_len: u8,
    /// The dictionary, unused slots repeating entry 0: codes are
    /// `< 2^code_width <= 8`, so a masked lookup never misses.
    pub(crate) lut: [u16; MAX_DICT_SIZE],
}

impl RdCut {
    /// Checks `meta`'s ranges and copies it.
    pub(crate) fn new(meta: &RdMeta) -> Result<Self, RdMetaError> {
        if meta.left_width == 0 || usize::from(meta.left_width) > MAX_LEFT_WIDTH {
            return Err(RdMetaError("left_width"));
        }
        if meta.dict.is_empty() || meta.dict.len() > MAX_DICT_SIZE {
            return Err(RdMetaError("dictionary size"));
        }
        if meta.code_width > 3 {
            return Err(RdMetaError("code_width"));
        }
        Ok(Self {
            left_width: meta.left_width,
            code_width: meta.code_width,
            dict_len: meta.dict.len() as u8,
            lut: Self::padded_lut(meta.dict.iter().copied()),
        })
    }

    /// The LUT of a dictionary of `entries` (at most 8; the rest is dropped):
    /// the unused slots repeat entry 0.
    pub(crate) fn padded_lut(mut entries: impl Iterator<Item = u16>) -> [u16; MAX_DICT_SIZE] {
        let mut lut = [entries.next().unwrap_or(0); MAX_DICT_SIZE];
        lut.iter_mut().skip(1).zip(entries).for_each(|(slot, entry)| *slot = entry);
        lut
    }

    /// The dictionary entries.
    pub(crate) fn dict(&self) -> &[u16] {
        self.lut.get(..usize::from(self.dict_len)).unwrap_or(&self.lut)
    }

    /// The owned form.
    pub(crate) fn to_meta(self) -> RdMeta {
        RdMeta {
            left_width: self.left_width,
            dict: self.dict().to_vec(),
            code_width: self.code_width,
        }
    }

    /// Bits of the right part of an `F`, `16..=63`.
    pub(crate) fn right_width<F: AlpFloat>(&self) -> u8 {
        (F::BITS as u8).saturating_sub(self.left_width)
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
        let header = 16 + 16; // len, exception count
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
    choose_cut_with::<F>(rowgroup, sample_size, &mut Vec::new()).to_meta()
}

/// [`choose_cut`] over the caller's sample buffer, answering by value: the
/// form the row-group encoder calls, which allocates nothing once `sample`
/// is warm.
pub(crate) fn choose_cut_with<F: AlpFloat>(
    rowgroup: &[F],
    sample_size: usize,
    sample: &mut Vec<u64>,
) -> RdCut {
    sorted_sample(rowgroup, sample_size, sample);
    let mut best = score_cut::<F>(sample, 1);
    for lw in 2..=MAX_LEFT_WIDTH.min(F::BITS as usize - 1) {
        let candidate = score_cut::<F>(sample, lw);
        if candidate.0 < best.0 {
            best = candidate;
        }
    }
    best.1
}

/// Builds the dictionary and estimated footprint for one forced left width
/// (used by [`choose_cut`] and by the cut-position ablation bench).
pub fn meta_for_width<F: AlpFloat>(
    rowgroup: &[F],
    sample_size: usize,
    left_width: usize,
) -> RdMeta {
    assert!((1..=MAX_LEFT_WIDTH.min(F::BITS as usize - 1)).contains(&left_width));
    let mut sample = Vec::new();
    sorted_sample(rowgroup, sample_size, &mut sample);
    score_cut::<F>(&sample, left_width).1.to_meta()
}

/// Fills `sample` with the bit patterns of an equidistant sample of
/// `rowgroup`, ascending — so that at every cut the equal left parts are
/// adjacent.
fn sorted_sample<F: AlpFloat>(rowgroup: &[F], sample_size: usize, sample: &mut Vec<u64>) {
    sample.clear();
    sample.extend(
        equidistant_indices(rowgroup.len(), sample_size)
            .filter_map(|idx| rowgroup.get(idx).map(|v| v.to_bits_u64())),
    );
    assert!(!sample.is_empty(), "cannot sample an empty row-group");
    sample.sort_unstable();
}

/// Scores the cut at `lw` over an ascending `sample`: one run-length pass
/// keeps the eight most frequent left patterns in `(count desc, value asc)`
/// order — runs arrive by ascending value, so a run goes behind every kept
/// one that is at least as frequent.
#[expect(clippy::indexing_slicing, reason = "`top[at]` follows the `at < MAX_DICT_SIZE` check")]
fn score_cut<F: AlpFloat>(sample: &[u64], lw: usize) -> (f64, RdCut) {
    let right_w = F::BITS as usize - lw;
    let mut top = [(0u16, 0usize); MAX_DICT_SIZE];
    let mut kept = 0usize;
    for run in sample.chunk_by(|a, b| a >> right_w == b >> right_w) {
        let entry = (run.first().map_or(0, |bits| (bits >> right_w) as u16), run.len());
        let at = top.iter().take(kept).position(|e| e.1 < entry.1).unwrap_or(kept);
        if at < MAX_DICT_SIZE {
            top.copy_within(at..MAX_DICT_SIZE - 1, at + 1);
            top[at] = entry;
            kept = (kept + 1).min(MAX_DICT_SIZE);
        }
    }
    let total = sample.len();
    let exc_frac = |size: usize| {
        let covered: usize = top.iter().take(size).map(|&(_, c)| c).sum();
        1.0 - covered as f64 / total as f64
    };
    // Smallest dictionary (1, 2, 4, 8) keeping exceptions within budget.
    let in_budget = [1, 2, 4].into_iter().find(|&size| exc_frac(size) <= EXCEPTION_BUDGET);
    let dict_len = in_budget.unwrap_or(MAX_DICT_SIZE).min(kept);
    let code_width = bits_needed(dict_len.saturating_sub(1) as u64);
    let est_bits_per_value =
        right_w as f64 + code_width as f64 + exc_frac(dict_len) * (16.0 + 16.0);
    let cut = RdCut {
        left_width: lw as u8,
        code_width: code_width as u8,
        dict_len: dict_len as u8,
        lut: RdCut::padded_lut(top.iter().take(dict_len).map(|&(left, _)| left)),
    };
    (est_bits_per_value, cut)
}

/// The ALP_rd encode kernel under one row-group's cut (Algorithm 3): a
/// `2^left_width`-byte table answers "which dictionary code, if any" with one
/// load per value, so the loop carries no branch on the data.
#[derive(Debug, Clone)]
pub struct RdEncoder {
    cut: RdCut,
    /// Left part → dictionary code; [`RdEncoder::MISS`] for the rest.
    table: Vec<u8>,
}

impl RdEncoder {
    /// The table entry of a left part outside the dictionary.
    const MISS: u8 = 0xFF;

    /// An encoder for `meta`: refuses a cut outside `1..=16`, a dictionary of
    /// no or more than 8 entries, and a `code_width` over 3 or too narrow for
    /// the dictionary's codes.
    pub fn new(meta: &RdMeta) -> Result<Self, RdMetaError> {
        let cut = RdCut::new(meta)?;
        if usize::from(cut.dict_len) > 1 << cut.code_width {
            return Err(RdMetaError("code_width"));
        }
        Ok(Self::for_cut(cut))
    }

    pub(crate) fn for_cut(cut: RdCut) -> Self {
        let mut encoder = Self { cut, table: Vec::new() };
        encoder.set_cut(cut);
        encoder
    }

    /// Re-targets the encoder at another row-group's cut, keeping the
    /// table's allocation.
    pub(crate) fn set_cut(&mut self, cut: RdCut) {
        self.table.clear();
        self.table.resize(1 << cut.left_width, Self::MISS);
        // In reverse, so that of equal entries the first keeps the slot —
        // the answer a linear search of the dictionary gives.
        for (code, &left) in cut.dict().iter().enumerate().rev() {
            if let Some(slot) = self.table.get_mut(usize::from(left)) {
                *slot = code as u8;
            }
        }
        self.cut = cut;
    }

    /// The cut in force.
    pub(crate) fn cut(&self) -> &RdCut {
        &self.cut
    }

    /// Splits up to one block of `values` into right parts and dictionary
    /// codes and returns the mask of the lanes that missed the dictionary
    /// (their code is 0). No branch on the data: a miss is folded into the
    /// mask and into the zeroed code arithmetically.
    #[inline(always)]
    fn split_block<F: AlpFloat>(
        &self,
        right_w: usize,
        values: &[F],
        codes: &mut [u64; BLOCK],
        rights: &mut [u64; BLOCK],
    ) -> u64 {
        let right_mask = (1u64 << right_w) - 1;
        let mut missed = 0u64;
        for (i, ((code, right), v)) in codes.iter_mut().zip(rights).zip(values).enumerate() {
            let bits = v.to_bits_u64();
            let probe = self.table.get((bits >> right_w) as usize).copied().unwrap_or(Self::MISS);
            let miss = probe == Self::MISS;
            missed |= u64::from(miss) << i;
            *code = u64::from(probe) & u64::from(miss).wrapping_sub(1);
            *right = bits & right_mask;
        }
        missed
    }

    /// Encodes one vector into the caller's zeroed word streams —
    /// `16 * code_width` code words and `16 * right_width` right-part words,
    /// native or the bytes of a frame body (see [`Word`]) — and returns its
    /// exceptions. Per 64-value block, [`RdEncoder::split_block`] then both
    /// packs, straight to their final place; blocks past a short tail are
    /// left as they are: zero words. The (rare) exceptions are read back out
    /// of the block masks afterwards ([`RdExceptions`]). Runs at the active
    /// instruction tier ([`fastlanes::tier`]).
    pub(crate) fn encode_vector<F: AlpFloat, T: Word>(
        &self,
        input: &[F],
        codes: &mut [T],
        rights: &mut [T],
    ) -> RdExceptions {
        assert!(!input.is_empty() && input.len() <= VECTOR_SIZE);
        let code_w = usize::from(self.cut.code_width);
        let right_w = usize::from(self.cut.right_width::<F>());
        let (pack_codes, pack_right) = (packer::<T>(code_w), packer::<T>(right_w));
        let mut exceptions = RdExceptions { missed: [0; BLOCKS], right_width: right_w as u8 };
        tier::run(
            #[inline(always)]
            || {
                let (mut code_block, mut right_block) = ([0u64; BLOCK], [0u64; BLOCK]);
                let blocks = input.chunks(BLOCK).zip(&mut exceptions.missed).enumerate();
                for (block, (values, missed)) in blocks {
                    if values.len() < BLOCK {
                        // The lanes past a short tail pack as zeros.
                        (code_block, right_block) = ([0; BLOCK], [0; BLOCK]);
                    }
                    *missed = self.split_block(right_w, values, &mut code_block, &mut right_block);
                    pack_codes.call(&code_block, block_words_mut(codes, code_w, block));
                    pack_right.call(&right_block, block_words_mut(rights, right_w, block));
                }
            },
        );
        exceptions
    }

    /// `RdEncoder::encode_vector` into a fresh owned vector.
    pub fn encode_owned<F: AlpFloat>(&self, input: &[F]) -> RdVector {
        let mut packed_codes = vec![0u64; packed_len(usize::from(self.cut.code_width))];
        let mut packed_right = vec![0u64; packed_len(usize::from(self.cut.right_width::<F>()))];
        let exceptions = self.encode_vector(input, &mut packed_codes, &mut packed_right);
        RdVector {
            packed_codes,
            packed_right,
            exc_positions: exceptions.positions().collect(),
            exc_left: exceptions.lefts(input).collect(),
            len: input.len() as u16,
        }
    }
}

/// Which slots of an encoded vector missed the dictionary: one mask per
/// 64-value block.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RdExceptions {
    missed: [u64; BLOCKS],
    right_width: u8,
}

impl RdExceptions {
    /// Number of exceptions.
    pub(crate) fn count(&self) -> usize {
        self.missed.iter().map(|m| m.count_ones() as usize).sum()
    }

    /// The exception positions, ascending.
    pub(crate) fn positions(&self) -> impl Iterator<Item = u16> + '_ {
        self.missed.iter().enumerate().flat_map(|(block, &mask)| {
            let mut rest = mask;
            core::iter::from_fn(move || {
                let bit = (rest != 0).then(|| rest.trailing_zeros())?;
                rest &= rest - 1;
                Some((block * BLOCK) as u16 + bit as u16)
            })
        })
    }

    /// The exceptions' left parts in position order, read back from the
    /// vector's `input`.
    pub(crate) fn lefts<'a, F: AlpFloat>(
        &'a self,
        input: &'a [F],
    ) -> impl Iterator<Item = u16> + 'a {
        self.positions().filter_map(move |p| {
            input.get(usize::from(p)).map(|v| (v.to_bits_u64() >> self.right_width) as u16)
        })
    }
}

/// Encodes one vector under the row-group's cut/dictionary (Algorithm 3).
/// Builds the row-group state ([`RdEncoder`]) for this one vector; a caller
/// encoding many vectors under one `meta` builds it once.
///
/// # Panics
/// Panics if `input` is empty or longer than a vector, or if
/// [`RdEncoder::new`] refuses `meta`.
#[expect(clippy::panic, reason = "the documented contract of this one-vector convenience")]
pub fn encode_rd_vector<F: AlpFloat>(input: &[F], meta: &RdMeta) -> RdVector {
    match RdEncoder::new(meta) {
        Ok(encoder) => encoder.encode_owned(input),
        Err(refused) => panic!("{refused}"),
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
        let cut = RdCut::new(meta).ok()?;
        Some(Self {
            right_width: cut.right_width::<F>(),
            code_width: cut.code_width,
            lut: cut.lut,
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
        let out = out.get_mut(..VECTOR_SIZE).unwrap_or_default();
        tier::run(
            #[inline(always)]
            || {
                let (mut codes, mut rights) = ([0u64; BLOCK], [0u64; BLOCK]);
                for (block, out_block) in out.as_chunks_mut::<BLOCK>().0.iter_mut().enumerate() {
                    unpack_codes.call(block_words(code_words, code_w, block), &mut codes);
                    unpack_right.call(block_words(right_words, right_w, block), &mut rights);
                    // GLUE: the dictionary-decoded front bits over the right part.
                    for ((o, &code), &right) in out_block.iter_mut().zip(&codes).zip(&rights) {
                        let left =
                            lut.get(code as usize & (MAX_DICT_SIZE - 1)).copied().unwrap_or(0);
                        *o = F::from_bits_u64(left | right);
                    }
                }
                // Patch left-part exceptions. Positions come off the wire; one
                // past the vector end is dropped rather than allowed to panic.
                let right_mask = (1u64 << right_w) - 1;
                for (p, left) in self.exc_positions.iter().zip(self.exc_left) {
                    if let Some(slot) = out.get_mut(p.get() as usize) {
                        let right = slot.to_bits_u64() & right_mask;
                        *slot = F::from_bits_u64(u64::from(left.get()) << right_w | right);
                    }
                }
            },
        );
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

    /// `choose_cut` as it was before it counted runs of a sorted sample: a
    /// hash map of left patterns per candidate width, sorted by
    /// `(count desc, value asc)`.
    fn choose_cut_by_hashing<F: AlpFloat>(rowgroup: &[F], sample_size: usize) -> RdMeta {
        let sample: Vec<u64> = equidistant_indices(rowgroup.len(), sample_size)
            .map(|i| rowgroup[i].to_bits_u64())
            .collect();
        let mut best: Option<(f64, RdMeta)> = None;
        for lw in 1..=MAX_LEFT_WIDTH.min(F::BITS as usize - 1) {
            let right_w = F::BITS as usize - lw;
            let mut counts = std::collections::HashMap::new();
            for &bits in &sample {
                *counts.entry((bits >> right_w) as u16).or_insert(0usize) += 1;
            }
            let mut by_freq: Vec<(u16, usize)> = counts.into_iter().collect();
            by_freq.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            let exc_frac = |size: usize| {
                let covered: usize = by_freq.iter().take(size).map(|&(_, c)| c).sum();
                1.0 - covered as f64 / sample.len() as f64
            };
            let size = [1, 2, 4].into_iter().find(|&s| exc_frac(s) <= EXCEPTION_BUDGET);
            let dict: Vec<u16> =
                by_freq.iter().take(size.unwrap_or(MAX_DICT_SIZE)).map(|&(v, _)| v).collect();
            let code_width = bits_needed(dict.len() as u64 - 1);
            let est = right_w as f64 + code_width as f64 + exc_frac(dict.len()) * 32.0;
            if best.as_ref().is_none_or(|(b, _)| est < *b) {
                let meta = RdMeta { left_width: lw as u8, dict, code_width: code_width as u8 };
                best = Some((est, meta));
            }
        }
        best.expect("at least one cut candidate").1
    }

    #[test]
    fn choose_cut_by_run_length_equals_choose_cut_by_hashing() {
        let mut wide = real_doubles(4096);
        for (i, x) in wide.iter_mut().enumerate() {
            // Many magnitudes and both signs: more distinct left parts than a
            // dictionary holds, with ties in their counts.
            *x *= [1.0, -1.0, 1e3, 1e-3, 1e7, -1e7, 1e11, 1e-11, 1e15, 1e19, -1e-19][i % 11];
        }
        wide[17] = f64::NAN;
        wide[18] = -0.0;
        let constant = vec![1.5f64; 2000];
        for data in [real_doubles(8192), real_doubles(10), wide, constant] {
            for sample_size in [1, 7, 256, 5000] {
                let want = choose_cut_by_hashing::<f64>(&data, sample_size);
                assert_eq!(choose_cut::<f64>(&data, sample_size), want, "sample {sample_size}");
                let narrow: Vec<f32> = data.iter().map(|&x| x as f32).collect();
                let want = choose_cut_by_hashing::<f32>(&narrow, sample_size);
                assert_eq!(
                    choose_cut::<f32>(&narrow, sample_size),
                    want,
                    "f32, sample {sample_size}"
                );
            }
        }
    }

    /// The encoder's table gives a repeated dictionary entry its first
    /// code, as a linear search would, and refuses parameters it cannot
    /// size a table or a code from.
    #[test]
    fn encoder_table_keeps_the_first_of_equal_entries() {
        let data = real_doubles(1024);
        let meta = choose_cut::<f64>(&data, 256);
        let first = meta.dict[0];
        let repeated = RdMeta {
            dict: vec![first ^ 1, first, first, first ^ 2],
            code_width: 2,
            ..meta.clone()
        };
        let v = encode_rd_vector(&data, &repeated);
        let mut codes = vec![0u64; VECTOR_SIZE];
        fastlanes::bitpack::unpack(&v.packed_codes, 2, &mut codes);
        assert!(codes.iter().all(|&c| c != 2), "the later copy of an entry is never used");
        let mut out = vec![0.0f64; VECTOR_SIZE];
        assert_eq!(decode_rd_vector(&v, &repeated, &mut out), 1024);
        assert!(data.iter().zip(&out).all(|(a, b)| a.to_bits() == b.to_bits()));

        assert_eq!(
            RdEncoder::new(&RdMeta { left_width: 0, ..meta.clone() }).err(),
            Some(RdMetaError("left_width"))
        );
        assert_eq!(
            RdEncoder::new(&RdMeta { left_width: 64, ..meta.clone() }).err(),
            Some(RdMetaError("left_width"))
        );
        assert_eq!(
            RdEncoder::new(&RdMeta { dict: Vec::new(), ..meta.clone() }).err(),
            Some(RdMetaError("dictionary size"))
        );
        assert_eq!(
            RdEncoder::new(&RdMeta { code_width: 4, ..meta.clone() }).err(),
            Some(RdMetaError("code_width"))
        );
        assert_eq!(
            RdEncoder::new(&RdMeta { code_width: 1, ..repeated }).err(),
            Some(RdMetaError("code_width"))
        );
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
