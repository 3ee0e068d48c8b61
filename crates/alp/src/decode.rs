//! ALP decompression (Algorithm 2): unFFOR + `ALP_dec` multiplication + patch.
//!
//! Three variants of the hot loop exist on purpose:
//!
//! * [`decode_vector`] — the production path: bit-unpack, add the FOR base and
//!   multiply back to floats **one 64-value block at a time**, the integers
//!   never leaving L1, then patch exceptions. This is the "FFOR+ALP fused"
//!   configuration of Figure 5.
//! * [`decode_vector_unfused`] — identical math over the same block unpacker,
//!   split into two passes with a materialized 1024-value integer vector in
//!   between (the Figure 5 baseline).
//! * [`decode_vector_scalar`] — a deliberately value-at-a-time, branchy
//!   implementation (runtime-width bit extraction, per-value exception test)
//!   standing in for the paper's "Scalar (vectorization disabled)"
//!   configuration of Figure 4.
//!
//! **One kernel, two word sources.** The fused kernels — decode, and the scans
//! below — are methods of [`AlpVectorRef`], the vector as a kernel reads it:
//! header by value, packed words and exceptions borrowed. Over `u64`/`u16`
//! that is an owned [`AlpVector`] with its arena view ([`AlpVectorRef::owned`];
//! [`decode_vector`], [`scan_vector`] and [`sum_vector`] are one-line callers);
//! over `[u8; 8]`/`[u8; 2]` it is [`crate::format::AlpVectorView`], a vector
//! still sitting in the bytes of a frame body, its words read in place through
//! [`fastlanes::bitpack::Word`] — how the stream reader decodes and how the
//! query engine decodes, scans and sums the bodies it stores
//! ([`crate::format::BodyColumn`], [`crate::format::VectorView`]). There is one loop body per kernel; the two
//! instantiations differ in a load.
//!
//! On top of these sit the *fused scans*: unpack, FOR-add, decimal multiply,
//! mid-stream exception patch, range predicate and aggregate in one pass per
//! vector with no materialized `Vec<f64>` — [`scan_vector`] with
//! validity/selection bitmaps for the consumers that walk them, and
//! [`sum_vector`], the aggregate-only form that builds none.
//!
//! ## The canonical sum
//! Every predicated sum in the workspace is one function of *position*:
//!
//! * within a 64-value block, live value `i` belongs to lane `i % 8`; each
//!   lane folds its values in index order from `+0.0`, a miss adding `+0.0`;
//! * the block's sum is the fixed tree
//!   `((l0 + l1) + (l2 + l3)) + ((l4 + l5) + (l6 + l7))` ([`block_sum`]);
//! * a vector's sum folds its block sums in block order from `+0.0`.
//!
//! The eight lanes are independent chains, so the loop vectorizes at any
//! register width, and because the association order never depends on the
//! data, the thread count, the build's target features or whether the values
//! came from a fused decode, a cached page or a plain slice, every route
//! yields the same bits. [`block_sum`] and [`block_sum_all`] are the only
//! implementation; `tests/kernel_differential.rs` holds them to a
//! value-at-a-time statement of the definition.
//!
//! The fast variants turn integers into floats without a conversion
//! instruction wherever the vector's frame allows ([`AlpFloat::from_i64_magic`],
//! chosen per vector from the header); the results are the same bits either
//! way, which `tests/kernel_differential.rs` pins against the scalar variant.
//!
//! Every fused kernel — decode, scan, sum, and the decoded-value sums — runs
//! its per-vector body through [`fastlanes::tier::run`], so on a CPU with
//! AVX2 it executes as x86-64-v3 code; its helpers are `#[inline(always)]`
//! so that they are compiled into that copy. The bits are the same at both
//! tiers.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use fastlanes::bitpack::{block_words, unpacker, Unpack64, Word, BLOCK};
use fastlanes::{ffor, tier, VECTOR_SIZE};

use crate::encode::{AlpVector, ExcView, Short};
use crate::traits::AlpFloat;

/// One ALP vector as the kernels read it: the header by value, the packed
/// words and the exceptions borrowed from wherever they live. `W`/`P` are
/// `u64`/`u16` over an owned [`AlpVector`] and its arena
/// ([`AlpVectorRef::owned`]) and `[u8; 8]`/`[u8; 2]` over the bytes of a
/// frame body ([`crate::format::AlpVectorView`], built only by the body
/// parser, which has checked every field). Every kernel of this module is
/// one generic body over the two.
#[derive(Debug, Clone, Copy)]
pub struct AlpVectorRef<'a, W = u64, P = u16> {
    pub(crate) exponent: u8,
    pub(crate) factor: u8,
    pub(crate) bit_width: u8,
    pub(crate) for_base: i64,
    pub(crate) len: u16,
    /// `16 * bit_width` words; an owned vector's pad word may follow.
    pub(crate) packed: &'a [W],
    pub(crate) exc: ExcView<'a, P, W>,
}

impl<'a> AlpVectorRef<'a> {
    /// The kernels' view of an owned vector and its exceptions.
    #[inline]
    pub fn owned(v: &'a AlpVector, exc: ExcView<'a>) -> Self {
        Self {
            exponent: v.exponent,
            factor: v.factor,
            bit_width: v.bit_width,
            for_base: v.for_base,
            len: v.len,
            packed: &v.packed,
            exc,
        }
    }
}

impl<'a, W: Word, P: Short> AlpVectorRef<'a, W, P> {
    /// Number of live values (`<= 1024`).
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the vector holds no live values.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// [`decode_vector`] over this source.
    pub fn decode<F: AlpFloat>(&self, out: &mut [F]) -> usize {
        assert!(out.len() >= VECTOR_SIZE);
        tier::run(
            #[inline(always)]
            || {
                let mut dec = AlpDec::of(self);
                let blocks = out.as_chunks_mut::<BLOCK>().0;
                for (block, out_block) in blocks.iter_mut().enumerate().take(VECTOR_SIZE / BLOCK) {
                    dec.block(block, out_block);
                }
                patch_exceptions(self.exc, out);
            },
        );
        self.len()
    }

    /// [`scan_vector`] over this source.
    pub fn scan<F: AlpFloat>(&self, lo: F, hi: F, with_minmax: bool) -> VectorScan<F> {
        tier::run(
            #[inline(always)]
            || {
                let mut scan = VectorScan::empty(self.len());
                for_each_block(
                    self,
                    scan_all,
                    #[inline(always)]
                    |block, visit| {
                        if let Block::Values(live) = visit {
                            scan.scan_block(block, live, lo, hi, with_minmax);
                        }
                    },
                );
                scan
            },
        )
    }

    /// [`sum_vector`] over this source: [`AlpVectorRef::sum_planned`] with
    /// every block scanned.
    pub fn sum<F: AlpFloat>(&self, band: Option<(F, F)>) -> VectorSum<F> {
        self.sum_planned(band, scan_all)
    }

    /// The aggregate-only fused scan, one block at a time as `route` says
    /// ([`BlockRoute`]): a skipped block is neither unpacked nor predicated
    /// (its exceptions are stepped over), a stored one folds its stored sum,
    /// a scanned one is decoded, patched and summed under `band`. Block sums
    /// fold in block order, so a route that is true to the values yields the
    /// bits of scanning every block. NaNs are counted over the scanned
    /// blocks.
    pub fn sum_planned<F: AlpFloat>(
        &self,
        band: Option<(F, F)>,
        route: impl Fn(usize) -> BlockRoute<F>,
    ) -> VectorSum<F> {
        tier::run(
            #[inline(always)]
            || {
                let mut sum = F::from_i64(0);
                let mut matches = 0usize;
                let nans = for_each_block(
                    self,
                    route,
                    #[inline(always)]
                    |_, visit| {
                        let (s, m) = match visit {
                            Block::Values(live) => block_sum_in(live, band),
                            Block::Stored(s, live) => (s, live),
                        };
                        sum = sum + s;
                        matches += m;
                    },
                );
                VectorSum { sum, matches, nans, len: self.len().min(VECTOR_SIZE) }
            },
        )
    }
}

/// `ALP_dec` for one vector: the block unpacker for its width, its frame
/// and multipliers, and which int→float conversion the frame allows.
struct AlpDec<'a, F, W> {
    packed: &'a [W],
    width: usize,
    unpack: Unpack64<W>,
    base: i64,
    mul_f: F,
    mul_e: F,
    /// Every integer the frame can hold (`for_base ..= for_base + 2^W - 1`)
    /// lies inside `±MAGIC_LIMIT`, so [`AlpFloat::from_i64_magic`] is exact.
    magic: bool,
    /// The current block's residuals, between unpack and multiply.
    residuals: [u64; BLOCK],
}

impl<'a, F: AlpFloat, W: Word> AlpDec<'a, F, W> {
    #[inline(always)]
    fn of<P>(v: &AlpVectorRef<'a, W, P>) -> Self {
        let limit = F::MAGIC_LIMIT;
        let magic = v.bit_width <= 51
            && (-limit..=limit).contains(&v.for_base)
            && v.for_base + ((1i64 << v.bit_width) - 1) <= limit;
        let width = v.bit_width as usize;
        Self {
            packed: v.packed,
            width,
            unpack: unpacker(width),
            base: v.for_base,
            mul_f: F::f10(v.factor),
            mul_e: F::if10(v.exponent),
            magic,
            residuals: [0; BLOCK],
        }
    }

    /// `out[i] = ALP_dec(ints[i])`. Two loops, not a per-value branch: both
    /// are integer-add / float-multiply bodies with no cross-lane state.
    #[inline(always)]
    fn multiply(&self, ints: impl Iterator<Item = i64>, out: &mut [F]) {
        let (mul_f, mul_e) = (self.mul_f, self.mul_e);
        if self.magic {
            for (o, d) in out.iter_mut().zip(ints) {
                *o = F::from_i64_magic(d) * mul_f * mul_e;
            }
        } else {
            for (o, d) in out.iter_mut().zip(ints) {
                *o = F::from_i64(d) * mul_f * mul_e;
            }
        }
    }

    /// Stage 1 of the fused kernels: unpack block `block`, add the FOR base
    /// and multiply back to floats while the 64 integers are still in L1.
    #[inline(always)]
    fn block(&mut self, block: usize, out: &mut [F; BLOCK]) {
        self.unpack.call(block_words(self.packed, self.width, block), &mut self.residuals);
        let base = self.base as u64;
        self.multiply(self.residuals.iter().map(|&r| r.wrapping_add(base) as i64), out);
    }
}

/// Decodes `v` into `out[..v.len]` using the fused kernel, patching from the
/// exception view `exc` (obtained from the owning arena). Returns the number
/// of live values written.
pub fn decode_vector<F: AlpFloat>(v: &AlpVector, exc: ExcView<'_>, out: &mut [F]) -> usize {
    AlpVectorRef::owned(v, exc).decode(out)
}

/// Unfused decode: unFFOR into an integer scratch vector, then a separate
/// multiply loop. Exists for the Figure 5 kernel-fusion ablation.
pub fn decode_vector_unfused<F: AlpFloat>(
    v: &AlpVector,
    exc: ExcView<'_>,
    scratch: &mut [i64],
    out: &mut [F],
) -> usize {
    assert!(scratch.len() >= VECTOR_SIZE && out.len() >= VECTOR_SIZE);
    let scratch = scratch.get_mut(..VECTOR_SIZE).unwrap_or_default();
    tier::run(
        #[inline(always)]
        || {
            ffor::ffor_unpack(&v.packed, v.for_base, v.bit_width as usize, scratch);
            AlpDec::of(&AlpVectorRef::owned(v, exc)).multiply(scratch.iter().copied(), out);
            patch_exceptions(exc, out);
        },
    );
    v.len as usize
}

/// Deliberately scalar decode: value-at-a-time with runtime-width bit
/// arithmetic and a per-value exception branch. Proxy for the paper's
/// vectorization-disabled builds (Figure 4).
#[expect(
    clippy::needless_range_loop,
    clippy::indexing_slicing,
    reason = "value-at-a-time is the point here; `out.len()` is asserted at entry and \
              `v.packed` holds `bit_width` words per 64 values plus the pad word"
)]
pub fn decode_vector_scalar<F: AlpFloat>(v: &AlpVector, exc: ExcView<'_>, out: &mut [F]) -> usize {
    assert!(out.len() >= VECTOR_SIZE);
    let w = v.bit_width as usize;
    let mul_f = F::f10(v.factor);
    let mul_e = F::if10(v.exponent);
    let mask = if w == 64 {
        u64::MAX
    } else if w == 0 {
        0
    } else {
        (1u64 << w) - 1
    };
    let mut exc_idx = 0usize;
    for i in 0..v.len as usize {
        // Per-value adaptivity emulation: check the exception side first, as a
        // per-value codec (Chimp-style flag dispatch) would.
        if exc_idx < exc.positions.len() && exc.positions[exc_idx] as usize == i {
            out[i] = F::from_bits_u64(exc.values[exc_idx]);
            exc_idx += 1;
            continue;
        }
        let raw = if w == 0 {
            0
        } else {
            let bit = i * w;
            let word = bit >> 6;
            let off = (bit & 63) as u32;
            let lo = v.packed[word] >> off;
            let hi = (v.packed[word + 1] << 1) << (63 - off);
            (lo | hi) & mask
        };
        let d = raw.wrapping_add(v.for_base as u64) as i64;
        out[i] = F::from_i64(d) * mul_f * mul_e;
    }
    v.len as usize
}

/// Overwrites exception positions with their stored raw values (the PATCH step
/// of Algorithm 2).
#[inline(always)]
pub fn patch_exceptions<F: AlpFloat, P: Short, V: Word>(exc: ExcView<'_, P, V>, out: &mut [F]) {
    for (p, bits) in exc.iter() {
        // Positions come off the wire; a corrupt position past the vector end
        // is dropped rather than allowed to panic the decode path.
        if let Some(slot) = out.get_mut(p as usize) {
            *slot = F::from_bits_u64(bits);
        }
    }
}

/// Bitmap words per vector for fused scans (bit `i` of word `i / 64`
/// describes value `i`).
pub const SCAN_WORDS: usize = VECTOR_SIZE / 64;

/// Aggregates and bitmaps produced by one fused vector scan.
///
/// `sum`/`matches` are the canonical sum of the module docs (block sums from
/// [`block_sum`], folded in block order), so the result is bit-identical to
/// decoding into a buffer and scanning that — fusion removes the
/// materialization, not the floating-point operation order.
#[derive(Debug, Clone)]
pub struct VectorScan<F> {
    /// Canonical sum of the values matching `lo..=hi`.
    pub sum: F,
    /// Number of matching values.
    pub matches: usize,
    /// Minimum matching value; `None` when nothing matched or min/max
    /// tracking was not requested.
    pub min: Option<F>,
    /// Maximum matching value (see `min`).
    pub max: Option<F>,
    /// Validity bitmap: bit `i` set ⇔ live value `i` is not NaN.
    pub valid: [u64; SCAN_WORDS],
    /// Selection bitmap: bit `i` set ⇔ live value `i` matched the predicate.
    pub hits: [u64; SCAN_WORDS],
    /// Number of live values scanned (the vector's logical length).
    pub len: usize,
}

impl<F: AlpFloat> VectorScan<F> {
    /// Empty scan state over `len` live values.
    pub fn empty(len: usize) -> Self {
        Self {
            sum: F::from_i64(0),
            matches: 0,
            min: None,
            max: None,
            valid: [0; SCAN_WORDS],
            hits: [0; SCAN_WORDS],
            len,
        }
    }

    /// Number of live non-NaN values (popcount over the bitmap words).
    pub fn valid_count(&self) -> usize {
        self.valid.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of live NaN values.
    pub fn invalid_count(&self) -> usize {
        self.len.saturating_sub(self.valid_count())
    }
}

/// Lanes of the canonical sum: live value `i` of a block accumulates into
/// lane `i % SUM_LANES`.
pub const SUM_LANES: usize = 8;

/// The fixed combine tree over a block's lanes.
#[inline(always)]
fn combine<F: AlpFloat>([l0, l1, l2, l3, l4, l5, l6, l7]: [F; SUM_LANES]) -> F {
    ((l0 + l1) + (l2 + l3)) + ((l4 + l5) + (l6 + l7))
}

/// The canonical predicated block sum (module docs): `(sum, matches)` of the
/// values of `chunk` — one block, at most 64 values — inside `lo..=hi`. NaN
/// fails both comparisons, so it never matches.
///
/// Written for the vectorizer: `&`, not `&&`, keeps the predicate a mask
/// instead of a branch, and matches are counted in float lanes (exact — at
/// most 8 per lane) because an integer count lane does not share the sum
/// lanes' width.
#[inline]
pub fn block_sum<F: AlpFloat>(chunk: &[F], lo: F, hi: F) -> (F, usize) {
    let (zero, one) = (F::from_i64(0), F::from_i64(1));
    let mut sum = [zero; SUM_LANES];
    let mut count = [zero; SUM_LANES];
    let mut fold = |row: &[F]| {
        for ((s, c), &x) in sum.iter_mut().zip(&mut count).zip(row) {
            let hit = (x >= lo) & (x <= hi);
            *s = *s + if hit { x } else { zero };
            *c = *c + if hit { one } else { zero };
        }
    };
    let (rows, tail) = chunk.as_chunks::<SUM_LANES>();
    for row in rows {
        fold(row);
    }
    fold(tail);
    (combine(sum), combine(count).to_i64_cast() as usize)
}

/// [`block_sum`] without the predicate: the sum of every value of `chunk`.
/// Bit-identical to `block_sum(chunk, lo, hi).0` whenever every value
/// matches, since each lane then adds the same `x` in the same order.
#[inline]
pub fn block_sum_all<F: AlpFloat>(chunk: &[F]) -> F {
    let mut sum = [F::from_i64(0); SUM_LANES];
    let mut fold = |row: &[F]| {
        for (s, &x) in sum.iter_mut().zip(row) {
            *s = *s + x;
        }
    };
    let (rows, tail) = chunk.as_chunks::<SUM_LANES>();
    for row in rows {
        fold(row);
    }
    fold(tail);
    combine(sum)
}

/// How a planned sum ([`AlpVectorRef::sum_planned`], [`sum_decoded_planned`])
/// treats one 64-value block, decided from statistics kept beside the vector
/// (DESIGN.md §14). A route is true to the values when a skipped block holds
/// no match and a stored block's every live value is a non-NaN match whose
/// [`block_sum_all`] is the stored sum; the planned sum then has the bits of
/// scanning every block, since a block without a match sums to `+0.0` and
/// adding `+0.0` to a fold that started at `+0.0` changes no bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BlockRoute<F> {
    /// No live value of the block lies in the band: it adds nothing.
    Skip,
    /// Every live value of the block lies in the band: this sum folds in its
    /// place, every live value a match.
    Stored(F),
    /// Decode the block and apply the band to its values.
    Scan,
}

/// The route of an unplanned scan: every block decoded and predicated.
#[inline(always)]
fn scan_all<F>(_block: usize) -> BlockRoute<F> {
    BlockRoute::Scan
}

/// What [`for_each_block`] hands its consumer for a block it did not skip.
enum Block<'b, F> {
    /// The block's live values, decoded and patched.
    Values(&'b [F]),
    /// The route's stored sum and the block's live length.
    Stored(F, usize),
}

/// Stages 1 and 2 of the fused scans, shared by the bitmap and the
/// aggregate-only consumer: per block, as `route` says, decode exactly as
/// [`decode_vector`] does and patch exceptions *mid-stream*, handing the
/// live values to `consume(block, …)` in order — or, for a block the route
/// skips or answers from a stored sum, step the exception cursor over the
/// block without unpacking it. Returns the number of live NaNs among the
/// scanned blocks, which only exception lanes can hold (a decoded integer is
/// never NaN).
#[inline(always)]
fn for_each_block<F: AlpFloat, W: Word, P: Short>(
    v: &AlpVectorRef<'_, W, P>,
    route: impl Fn(usize) -> BlockRoute<F>,
    mut consume: impl FnMut(usize, Block<'_, F>),
) -> usize {
    let len = v.len().min(VECTOR_SIZE);
    if !v.exc.positions.iter().map(|p| p.get()).is_sorted() {
        return for_each_block_unsorted(v, len, &route, &mut consume);
    }
    let mut dec = AlpDec::of(v);
    let mut exceptions = v.exc.iter().peekable();
    let mut nans = 0usize;
    // Block-local staging: stage 1 overwrites every slot.
    let mut vals = [F::from_i64(0); BLOCK];
    for (block, start) in (0..len).step_by(BLOCK).enumerate() {
        let end = start + BLOCK;
        let live = (len - start).min(BLOCK);
        let scanned = match route(block) {
            BlockRoute::Scan => true,
            BlockRoute::Stored(sum) => {
                consume(block, Block::Stored(sum, live));
                false
            }
            BlockRoute::Skip => false,
        };
        if !scanned {
            // Drain the block's exceptions, so that the next scanned block's
            // cursor starts inside that block.
            while exceptions.next_if(|&(p, _)| (p as usize) < end).is_some() {}
            continue;
        }
        // Stage 1: unpack + FOR-add + decimal multiply into the staging
        // buffer — the same block step as `decode_vector`.
        dec.block(block, &mut vals);
        // Stage 2: mid-stream exception patch. Positions are ascending
        // (checked above) and every earlier block drained its own, so each
        // position the cursor yields lies in this block; positions past the
        // vector end are dropped and of a run of equal positions the last one
        // stays, matching `patch_exceptions`.
        while let Some((p, bits)) = exceptions.next_if(|&(p, _)| (p as usize) < end) {
            let i = p as usize % BLOCK;
            let patch = F::from_bits_u64(bits);
            if let Some(slot) = vals.get_mut(i) {
                *slot = patch;
            }
            let stays = exceptions.peek().is_none_or(|&(next, _)| next != p);
            nans += (stays && i < live && patch.is_nan()) as usize;
        }
        consume(block, Block::Values(vals.get(..live).unwrap_or(&vals)));
    }
    nans
}

/// [`for_each_block`] for a corrupt-but-decodable exception list: the
/// mid-stream cursor assumes ascending positions (the encoder's invariant),
/// so decode the whole vector onto the stack first, which preserves
/// `patch_exceptions`' overwrite order. Out of line so the hot path's frame
/// does not carry the 8 KB buffer.
#[cold]
#[inline(never)]
fn for_each_block_unsorted<F: AlpFloat, W: Word, P: Short>(
    v: &AlpVectorRef<'_, W, P>,
    len: usize,
    route: &dyn Fn(usize) -> BlockRoute<F>,
    consume: &mut dyn FnMut(usize, Block<'_, F>),
) -> usize {
    let mut buf = [F::from_i64(0); VECTOR_SIZE];
    v.decode(&mut buf);
    let live = buf.get(..len).unwrap_or(&buf);
    let mut nans = 0;
    for (block, chunk) in live.chunks(BLOCK).enumerate() {
        match route(block) {
            BlockRoute::Scan => {
                nans += chunk.iter().filter(|x| x.is_nan()).count();
                consume(block, Block::Values(chunk));
            }
            BlockRoute::Stored(sum) => consume(block, Block::Stored(sum, chunk.len())),
            BlockRoute::Skip => {}
        }
    }
    nans
}

/// Fused scan of one ALP vector: decodes, patches exceptions *mid-stream*
/// from the sorted exception view, applies `lo <= x <= hi`, and aggregates —
/// without materializing the decoded vector. Returns per-vector partials plus
/// validity/selection bitmaps.
pub fn scan_vector<F: AlpFloat>(
    v: &AlpVector,
    exc: ExcView<'_>,
    lo: F,
    hi: F,
    with_minmax: bool,
) -> VectorScan<F> {
    AlpVectorRef::owned(v, exc).scan(lo, hi, with_minmax)
}

/// Scans already-decoded values with the same sum and bitmap semantics as
/// [`scan_vector`]. Used for ALP_rd vectors (no decimal fast path to fuse)
/// and other fall-back paths; `scan` must be freshly [`VectorScan::empty`]
/// with `len == values.len()` (at most [`VECTOR_SIZE`]).
pub fn scan_decoded<F: AlpFloat>(
    values: &[F],
    lo: F,
    hi: F,
    with_minmax: bool,
    scan: &mut VectorScan<F>,
) {
    tier::run(
        #[inline(always)]
        || {
            for (block, chunk) in values.chunks(BLOCK).enumerate().take(SCAN_WORDS) {
                scan.scan_block(block, chunk, lo, hi, with_minmax);
            }
        },
    );
}

impl<F: AlpFloat> VectorScan<F> {
    /// Folds live values `64 * block ..` (at most 64 of them) into the scan.
    #[inline(always)]
    fn scan_block(&mut self, block: usize, chunk: &[F], lo: F, hi: F, with_minmax: bool) {
        let chunk = chunk.get(..BLOCK).unwrap_or(chunk);
        // One byte of each word per row of eight lanes: an 8-lane compare
        // gathered into a `u8` is a move-mask, where 64 `bool << j` steps
        // into a `u64` stay scalar.
        let row_bytes = |lanes: &[F]| {
            let (mut valid, mut hits) = (0u8, 0u8);
            for (j, &x) in lanes.iter().enumerate() {
                valid |= u8::from(!x.is_nan()) << j;
                hits |= u8::from((x >= lo) & (x <= hi)) << j;
            }
            (u64::from(valid), u64::from(hits))
        };
        let (rows, tail) = chunk.as_chunks::<SUM_LANES>();
        let (mut vw, mut hw) = (0u64, 0u64);
        for (row, lanes) in rows.iter().enumerate() {
            let (valid, hits) = row_bytes(lanes);
            vw |= valid << (8 * row);
            hw |= hits << (8 * row);
        }
        if !tail.is_empty() {
            // A tail means fewer than eight full rows, so the shift is < 64.
            let (valid, hits) = row_bytes(tail);
            vw |= valid << (8 * rows.len());
            hw |= hits << (8 * rows.len());
        }
        if let (Some(valid), Some(hits)) = (self.valid.get_mut(block), self.hits.get_mut(block)) {
            *valid = vw;
            *hits = hw;
        }
        let (sum, matches) = block_sum(chunk, lo, hi);
        self.sum = self.sum + sum;
        self.matches += matches;
        if with_minmax {
            // Index order with a keep-the-earlier-value tie rule, so ±0.0
            // ties are deterministic.
            let mut rest = hw;
            while rest != 0 {
                if let Some(&x) = chunk.get(rest.trailing_zeros() as usize) {
                    self.min = Some(match self.min {
                        Some(m) if m <= x => m,
                        _ => x,
                    });
                    self.max = Some(match self.max {
                        Some(m) if m >= x => m,
                        _ => x,
                    });
                }
                rest &= rest - 1;
            }
        }
    }
}

/// What an aggregate-only scan of one vector yields: no bitmap words, so the
/// SUM route pays only for what it consumes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VectorSum<F> {
    /// Canonical sum of the matching values — the same bits as
    /// [`VectorScan::sum`] over the same vector and band.
    pub sum: F,
    /// Number of matching values.
    pub matches: usize,
    /// Number of live NaN values (the complement of a validity popcount).
    pub nans: usize,
    /// Number of live values scanned (the vector's logical length).
    pub len: usize,
}

/// One block's `(sum, matches)` under `band`: the predicate `Some((lo, hi))`,
/// or `None` for "every value is known to match", which swaps in
/// [`block_sum_all`] for the same bits.
#[inline(always)]
fn block_sum_in<F: AlpFloat>(chunk: &[F], band: Option<(F, F)>) -> (F, usize) {
    match band {
        Some((lo, hi)) => block_sum(chunk, lo, hi),
        None => (block_sum_all(chunk), chunk.len()),
    }
}

/// Aggregate-only fused scan of one ALP vector: [`scan_vector`]'s decode and
/// mid-stream patch with [`block_sum`] as the only consumer. `band` is the
/// predicate `Some((lo, hi))`, or `None` when stored statistics (a zone map)
/// prove every live value a non-NaN match. NaNs are counted from the patched
/// exception lanes.
pub fn sum_vector<F: AlpFloat>(
    v: &AlpVector,
    exc: ExcView<'_>,
    band: Option<(F, F)>,
) -> VectorSum<F> {
    AlpVectorRef::owned(v, exc).sum(band)
}

/// [`sum_vector`] over already-decoded values (ALP_rd vectors, cached pages,
/// raw storage): [`sum_decoded_planned`] with every block scanned.
pub fn sum_decoded<F: AlpFloat>(
    values: &[F],
    band: Option<(F, F)>,
    may_hold_nan: bool,
) -> VectorSum<F> {
    sum_decoded_planned(values, band, may_hold_nan, scan_all)
}

/// [`AlpVectorRef::sum_planned`] over already-decoded values: the blocks
/// `route` skips or answers from a stored sum are not predicated.
/// `may_hold_nan: false` — a zone map recorded none — skips the per-value
/// NaN test; `band: None` implies it.
pub fn sum_decoded_planned<F: AlpFloat>(
    values: &[F],
    band: Option<(F, F)>,
    may_hold_nan: bool,
    route: impl Fn(usize) -> BlockRoute<F>,
) -> VectorSum<F> {
    tier::run(
        #[inline(always)]
        || {
            let mut sum = F::from_i64(0);
            let mut matches = 0usize;
            for (block, chunk) in values.chunks(BLOCK).enumerate() {
                let (s, m) = match route(block) {
                    BlockRoute::Scan => block_sum_in(chunk, band),
                    BlockRoute::Stored(s) => (s, chunk.len()),
                    BlockRoute::Skip => continue,
                };
                sum = sum + s;
                matches += m;
            }
            let nans = match (band, may_hold_nan) {
                (Some(_), true) => values.iter().filter(|x| x.is_nan()).count(),
                _ => 0,
            };
            VectorSum { sum, matches, nans, len: values.len() }
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::encode_vector;

    fn roundtrip_all_variants(input: &[f64], e: u8, f: u8) {
        let v = encode_vector(input, e, f);
        let mut fused = vec![0.0f64; VECTOR_SIZE];
        let mut unfused = vec![0.0f64; VECTOR_SIZE];
        let mut scalar = vec![0.0f64; VECTOR_SIZE];
        let mut scratch = vec![0i64; VECTOR_SIZE];
        let n1 = decode_vector(&v, v.view(), &mut fused);
        let n2 = decode_vector_unfused(&v, v.view(), &mut scratch, &mut unfused);
        let n3 = decode_vector_scalar(&v, v.view(), &mut scalar);
        assert_eq!(n1, input.len());
        assert_eq!(n2, input.len());
        assert_eq!(n3, input.len());
        for i in 0..input.len() {
            assert_eq!(fused[i].to_bits(), input[i].to_bits(), "fused idx {i}");
            assert_eq!(unfused[i].to_bits(), input[i].to_bits(), "unfused idx {i}");
            assert_eq!(scalar[i].to_bits(), input[i].to_bits(), "scalar idx {i}");
        }
    }

    #[test]
    fn decimal_vector_roundtrips() {
        let input: Vec<f64> = (0..1024).map(|i| (i as f64) * 0.05 - 20.0).collect();
        roundtrip_all_variants(&input, 14, 12);
    }

    #[test]
    fn vector_with_exceptions_roundtrips() {
        let mut input: Vec<f64> = (0..1024).map(|i| (i as f64) * 0.25).collect();
        input[17] = f64::NAN;
        input[512] = std::f64::consts::PI; // full-precision, not a decimal
        input[1023] = f64::INFINITY;
        roundtrip_all_variants(&input, 14, 12);
    }

    #[test]
    fn short_vector_roundtrips() {
        let input = vec![9.75f64, -3.25, 0.5];
        roundtrip_all_variants(&input, 14, 12);
    }

    #[test]
    fn all_exceptions_roundtrip() {
        let input: Vec<f64> = (0..100).map(|i| (i as f64).sqrt().sin()).collect();
        roundtrip_all_variants(&input, 0, 0);
    }

    #[test]
    fn f32_roundtrip_through_vector_path() {
        let input: Vec<f32> = (0..1024).map(|i| (i as f32) * 0.5 - 100.0).collect();
        let v = encode_vector(&input, 5, 2);
        let mut out = vec![0.0f32; VECTOR_SIZE];
        decode_vector(&v, v.view(), &mut out);
        for i in 0..input.len() {
            assert_eq!(out[i].to_bits(), input[i].to_bits(), "idx {i}");
        }
    }

    /// Reference for the fused scan: decode, then `scan_decoded` over the
    /// materialized buffer.
    fn scan_reference(v: &crate::encode::OwnedAlpVector, lo: f64, hi: f64) -> VectorScan<f64> {
        let mut buf = vec![0.0f64; VECTOR_SIZE];
        let n = decode_vector(v, v.view(), &mut buf);
        let mut scan = VectorScan::empty(n);
        scan_decoded(&buf[..n], lo, hi, true, &mut scan);
        scan
    }

    fn assert_scans_identical(input: &[f64], lo: f64, hi: f64, e: u8, f: u8) {
        let v = encode_vector(input, e, f);
        let fused = scan_vector(&v, v.view(), lo, hi, true);
        let want = scan_reference(&v, lo, hi);
        assert_eq!(fused.sum.to_bits(), want.sum.to_bits(), "sum bits");
        assert_eq!(fused.matches, want.matches, "matches");
        assert_eq!(fused.min.map(f64::to_bits), want.min.map(f64::to_bits), "min");
        assert_eq!(fused.max.map(f64::to_bits), want.max.map(f64::to_bits), "max");
        assert_eq!(fused.valid, want.valid, "validity bitmap");
        assert_eq!(fused.hits, want.hits, "selection bitmap");
        assert_eq!(fused.len, want.len);
        assert_eq!(fused.valid_count() + fused.invalid_count(), fused.len);
    }

    #[test]
    fn fused_scan_matches_decode_then_scan() {
        let input: Vec<f64> = (0..1024).map(|i| (i as f64) * 0.05 - 20.0).collect();
        assert_scans_identical(&input, -5.0, 20.0, 14, 12);
        assert_scans_identical(&input, f64::NEG_INFINITY, f64::INFINITY, 14, 12);
    }

    #[test]
    fn fused_scan_with_exceptions_and_nans() {
        let mut input: Vec<f64> = (0..1024).map(|i| (i as f64) * 0.25).collect();
        for i in (0..1024).step_by(9) {
            input[i] = f64::NAN; // exception-heavy and NaN-dense
        }
        input[512] = std::f64::consts::PI;
        input[1023] = f64::INFINITY;
        assert_scans_identical(&input, 10.0, 200.0, 14, 12);
        let v = encode_vector(&input, 14, 12);
        let scan = scan_vector(&v, v.view(), 10.0, 200.0, false);
        assert_eq!(scan.invalid_count(), (0..1024).step_by(9).count());
    }

    #[test]
    fn fused_scan_all_nan_vector() {
        let input = vec![f64::NAN; 1024];
        assert_scans_identical(&input, f64::NEG_INFINITY, f64::INFINITY, 0, 0);
        let v = encode_vector(&input, 0, 0);
        let scan = scan_vector(&v, v.view(), f64::NEG_INFINITY, f64::INFINITY, true);
        assert_eq!(scan.matches, 0);
        assert_eq!(scan.valid_count(), 0);
        assert_eq!(scan.invalid_count(), 1024);
        assert_eq!(scan.min, None);
        assert_eq!(scan.max, None);
    }

    #[test]
    fn fused_scan_ragged_tail() {
        let input: Vec<f64> = (0..137).map(|i| (i as f64) * 0.5 - 7.0).collect();
        assert_scans_identical(&input, -3.0, 25.0, 14, 12);
        let v = encode_vector(&input, 14, 12);
        let scan = scan_vector(&v, v.view(), -3.0, 25.0, true);
        assert_eq!(scan.len, 137);
        // Bits past the live length stay clear.
        assert_eq!(scan.valid[3..], [0u64; SCAN_WORDS - 3]);
        assert_eq!(scan.valid[2] >> 9, 0);
    }

    #[test]
    fn fused_scan_empty_selection() {
        let input: Vec<f64> = (0..1024).map(|i| (i as f64) * 0.125).collect();
        let v = encode_vector(&input, 14, 12);
        let scan = scan_vector(&v, v.view(), 1.0f64, 0.0, true);
        assert_eq!(scan.matches, 0);
        assert_eq!(scan.sum.to_bits(), 0.0f64.to_bits());
        assert_eq!(scan.min, None);
        assert!(scan.hits.iter().all(|&w| w == 0));
        assert_eq!(scan.valid_count(), 1024);
    }

    #[test]
    fn negative_and_mixed_magnitudes() {
        let input: Vec<f64> = (0..1024)
            .map(|i| {
                let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
                sign * (i as f64) * 1000.5
            })
            .collect();
        roundtrip_all_variants(&input, 14, 13);
    }
}
