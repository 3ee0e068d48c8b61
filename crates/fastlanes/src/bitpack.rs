//! Bit-packing of 1024-value `u64` vectors to any width `0..=64`.
//!
//! Values are laid out LSB-first within consecutive little-endian words: value
//! `i` occupies bits `[i*W, (i+1)*W)` of the packed stream, so 64 consecutive
//! values fill exactly `W` words. [`unpack64`] / [`pack64`] move one such
//! block; every sequential-layout kernel in the workspace (this module,
//! [`crate::ffor`], `alp::decode`, `alp::rd`) picks the
//! block function for its vector's width once ([`unpacker`] / [`packer`]) and
//! calls it 16 times, applying its own arithmetic to the 64 values in between.
//! The pick also chooses the instruction tier: each width has a baseline and
//! an x86-64-v3 copy, and the one [`crate::tier::active`] names is handed out.
//!
//! **Word sources and sinks.** Both sides move their words through [`Word`]:
//! a native `u64` (an in-memory vector) or the `[u8; 8]` that holds one
//! little-endian in a file. A byte buffer becomes a word source with
//! `as_chunks::<8>()` and a word sink with `as_chunks_mut::<8>()` — no copy,
//! no alignment requirement — so a decoder can run on the bytes a reader was
//! handed and an encoder can pack into the bytes a writer will send. There is
//! one kernel body per direction; the two instantiations differ in one load
//! or one store.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use crate::dispatch::{width_mask, with_width, WidthKernel};
use crate::tier::{v3, Kernel};
use crate::{packed_len, VECTOR_SIZE};

/// Values per block: 64 `W`-bit values span exactly `W` words.
pub const BLOCK: usize = 64;

/// Expands to the array `[body(0), body(1), …, body(63)]` with `$j` a `const`
/// in each element — so a word index or shift computed from `$j` and a const
/// width is a literal in the generated code, whether or not the optimizer
/// would have unrolled the equivalent loop (measured: it does not, see
/// EXPERIMENTS.md E15). Elements are evaluated in lane order.
macro_rules! lanes {
    ($j:ident => $body:expr) => {
        lanes!(@expand $j $body;
            0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31
            32 33 34 35 36 37 38 39 40 41 42 43 44 45 46 47 48 49 50 51 52 53 54 55 56 57 58 59 60
            61 62 63)
    };
    (@expand $j:ident $body:expr; $($n:literal)*) => {
        [$({
            const $j: usize = $n;
            $body
        }),*]
    };
}

/// One stored word of a packed stream, as a block kernel reads or writes it:
/// a native `u64`, or the eight bytes of one in wire (little-endian) order.
/// Reading or writing a `[u8; 8]` at a literal index is a plain 8-byte load
/// or store.
pub trait Word: Copy {
    /// The word's value.
    fn get(self) -> u64;
    /// The stored form of `value`.
    fn from_u64(value: u64) -> Self;
    /// [`unpacker`] for this word type. A method of the (non-generic) impls
    /// so that each source's 65 block functions per tier are compiled once,
    /// in this crate, not once per crate that decodes.
    fn unpacker(width: usize) -> Unpack64<Self>;
    /// [`packer`] for this word type (see [`Word::unpacker`]).
    fn packer(width: usize) -> Pack64<Self>;
}

impl Word for u64 {
    #[inline(always)]
    fn get(self) -> u64 {
        self
    }
    #[inline(always)]
    fn from_u64(value: u64) -> Self {
        value
    }
    #[inline(never)]
    fn unpacker(width: usize) -> Unpack64<Self> {
        pick_unpacker(width)
    }
    #[inline(never)]
    fn packer(width: usize) -> Pack64<Self> {
        pick_packer(width)
    }
}

impl Word for [u8; 8] {
    #[inline(always)]
    fn get(self) -> u64 {
        u64::from_le_bytes(self)
    }
    #[inline(always)]
    fn from_u64(value: u64) -> Self {
        value.to_le_bytes()
    }
    #[inline(never)]
    fn unpacker(width: usize) -> Unpack64<Self> {
        pick_unpacker(width)
    }
    #[inline(never)]
    fn packer(width: usize) -> Pack64<Self> {
        pick_packer(width)
    }
}

/// Unpacks the 64 `W`-bit values held in `words[..W]`.
///
/// Reads exactly `W` words (no pad word). With `W` const, each of the 64
/// steps has a literal word index and shift, and the "does this value
/// straddle two words" test is decided at compile time.
///
/// # Panics
/// Panics if `words.len() < W` or `W > 64`.
#[inline(always)]
#[expect(
    clippy::indexing_slicing,
    reason = "block geometry: after the one `words[..W]` slice check (callers size buffers \
              with `packed_len`) every index is a literal `J * W / 64` (+ 1 only when the \
              value straddles), below `W` for `J < 64`"
)]
pub fn unpack64<const W: usize, T: Word>(words: &[T]) -> [u64; BLOCK] {
    if W == 0 {
        return [0; BLOCK];
    }
    // One slice check; every index below is a literal smaller than `W`.
    let words = &words[..W];
    let mask = width_mask::<W>();
    lanes!(J => {
        let (word, off) = (J * W / 64, J * W % 64);
        let lo = words[word].get() >> off;
        (if off + W > 64 { lo | (words[word + 1].get() << (64 - off)) } else { lo }) & mask
    })
}

/// Packs 64 values (each truncated to `W` bits) into `words[..W]`,
/// overwriting them. The inverse of [`unpack64`].
///
/// # Panics
/// Panics if `words.len() < W` or `W > 64`.
#[inline(always)]
#[expect(clippy::indexing_slicing, reason = "the block geometry of `unpack64`")]
pub fn pack64<const W: usize, T: Word>(values: &[u64; BLOCK], words: &mut [T]) {
    if W == 0 {
        return;
    }
    let words = &mut words[..W];
    let mask = width_mask::<W>();
    let mut acc = 0u64;
    // 64 statements, run in lane order; the array of units they leave is
    // dropped.
    let _: [(); BLOCK] = lanes!(J => {
        let (word, off) = (J * W / 64, J * W % 64);
        let v = values[J] & mask;
        acc |= v << off;
        if off + W >= 64 {
            words[word] = T::from_u64(acc);
            // Bits of `v` that did not fit open the next word.
            acc = if off + W > 64 { v >> (64 - off) } else { 0 };
        }
    });
    debug_assert_eq!(acc, 0, "lane 63 ends the last word");
}

/// [`unpack64`] at one width and the active tier ([`crate::tier`]), writing
/// its block in place: a caller's output slice or scratch receives the 64
/// stores directly, where an array returned through a function pointer would
/// cost a 512-byte copy per block. Run it with [`Kernel::call`].
pub type Unpack64<T = u64> = Kernel<[T], [u64; BLOCK]>;
/// [`pack64`] at one width and the active tier.
pub type Pack64<T = u64> = Kernel<[u64; BLOCK], [T]>;

/// The block unpacker for a runtime `width` at the active tier. The 65 × 2
/// instantiations live here and nowhere else, whatever a caller does to the
/// values afterwards.
///
/// # Panics
/// Panics if `width > 64`.
pub fn unpacker<T: Word>(width: usize) -> Unpack64<T> {
    T::unpacker(width)
}

fn unpack_into<const W: usize, T: Word>(words: &[T], out: &mut [u64; BLOCK]) {
    *out = unpack64::<W, T>(words);
}

v3! {
    fn unpack_into_v3<const W: usize, T: Word>(words: &[T], out: &mut [u64; BLOCK]) {
        *out = unpack64::<W, T>(words);
    }
}

fn pick_unpacker<T: Word>(width: usize) -> Unpack64<T> {
    struct Pick<T>(core::marker::PhantomData<T>);
    impl<T: Word> WidthKernel for Pick<T> {
        type Out = Unpack64<T>;
        fn run<const W: usize>(self) -> Unpack64<T> {
            Kernel::pick(unpack_into::<W, T>, unpack_into_v3::<W, T>)
        }
    }
    with_width(width, Pick(core::marker::PhantomData))
}

/// The block packer for a runtime `width` at the active tier (see
/// [`unpacker`]).
pub fn packer<T: Word>(width: usize) -> Pack64<T> {
    T::packer(width)
}

v3! {
    fn pack64_v3<const W: usize, T: Word>(values: &[u64; BLOCK], words: &mut [T]) {
        pack64::<W, T>(values, words);
    }
}

fn pick_packer<T: Word>(width: usize) -> Pack64<T> {
    struct Pick<T>(core::marker::PhantomData<T>);
    impl<T: Word> WidthKernel for Pick<T> {
        type Out = Pack64<T>;
        fn run<const W: usize>(self) -> Pack64<T> {
            Kernel::pick(pack64::<W, T>, pack64_v3::<W, T>)
        }
    }
    with_width(width, Pick(core::marker::PhantomData))
}

/// The `width` words of `packed` that hold block `block` (values
/// `64 * block .. 64 * block + 64`) — with [`block_words_mut`], the one place
/// the block geometry of the sequential layout is spelled out.
#[inline]
#[expect(
    clippy::indexing_slicing,
    reason = "callers hold `packed_len(width)` words, and `block < 16`"
)]
pub fn block_words<T>(packed: &[T], width: usize, block: usize) -> &[T] {
    &packed[block * width..(block + 1) * width]
}

/// [`block_words`] for a packer's destination.
#[inline]
#[expect(clippy::indexing_slicing, reason = "as in `block_words`")]
pub fn block_words_mut<T>(packed: &mut [T], width: usize, block: usize) -> &mut [T] {
    &mut packed[block * width..(block + 1) * width]
}

/// Packs `input` (exactly 1024 values, each already `< 2^width`) into a fresh
/// buffer of [`packed_len`]`(width)` words.
///
/// Values wider than `width` bits are truncated (callers compute the width
/// from the data, so this only matters for deliberately lossy use).
pub fn pack(input: &[u64], width: usize) -> Vec<u64> {
    assert_eq!(input.len(), VECTOR_SIZE);
    let mut out = vec![0u64; packed_len(width)];
    let pack = packer(width);
    for (block, values) in input.as_chunks::<BLOCK>().0.iter().enumerate() {
        pack.call(values, block_words_mut(&mut out, width, block));
    }
    out
}

/// Unpacks a 1024-value vector of `width`-bit values from `packed` into `out`.
///
/// `packed` must hold at least [`packed_len`]`(width)` words.
pub fn unpack(packed: &[u64], width: usize, out: &mut [u64]) {
    assert_eq!(out.len(), VECTOR_SIZE);
    assert!(packed.len() >= packed_len(width));
    let unpack = unpacker(width);
    for (block, out_block) in out.as_chunks_mut::<BLOCK>().0.iter_mut().enumerate() {
        unpack.call(block_words(packed, width, block), out_block);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(width: usize) -> Vec<u64> {
        let mask = if width == 64 {
            u64::MAX
        } else if width == 0 {
            0
        } else {
            (1 << width) - 1
        };
        (0..VECTOR_SIZE as u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) & mask).collect()
    }

    #[test]
    fn roundtrip_every_width() {
        for width in 0..=64 {
            let input = sample(width);
            let packed = pack(&input, width);
            assert_eq!(packed.len(), packed_len(width));
            let mut out = vec![0u64; VECTOR_SIZE];
            unpack(&packed, width, &mut out);
            assert_eq!(out, input, "width {width}");
        }
    }

    #[test]
    fn packing_truncates_to_width() {
        let input = vec![u64::MAX; VECTOR_SIZE];
        let packed = pack(&input, 3);
        let mut out = vec![0u64; VECTOR_SIZE];
        unpack(&packed, 3, &mut out);
        assert!(out.iter().all(|&v| v == 0b111));
    }

    #[test]
    fn width_zero_is_all_zeros() {
        let input = sample(0);
        let packed = pack(&input, 0);
        assert_eq!(packed.len(), 1);
        let mut out = vec![1u64; VECTOR_SIZE];
        unpack(&packed, 0, &mut out);
        assert!(out.iter().all(|&v| v == 0));
    }

    #[test]
    fn max_values_at_each_width_survive() {
        for width in 1..=64usize {
            let max = if width == 64 { u64::MAX } else { (1 << width) - 1 };
            let input = vec![max; VECTOR_SIZE];
            let packed = pack(&input, width);
            let mut out = vec![0u64; VECTOR_SIZE];
            unpack(&packed, width, &mut out);
            assert!(out.iter().all(|&v| v == max), "width {width}");
        }
    }
}
