//! **GPZip** — a general-purpose, block-based byte compressor standing in for
//! Zstd in the evaluation (the real Zstd C library is not available offline;
//! see DESIGN.md §2 for the substitution argument).
//!
//! Architecture, deliberately conventional:
//!
//! * input split into [`BLOCK_SIZE`] blocks (256 KiB, like the paper's Zstd
//!   configuration);
//! * an LZ77 stage with a 4-byte hash-chain matcher over a 64 KiB window and
//!   one-step lazy matching ([`lz`]);
//! * a canonical-Huffman entropy stage over a deflate-style symbol alphabet
//!   ([`huffman`]).
//!
//! What matters for the reproduction is the *behavior class*: good compression
//! ratio on float columns, \[de\]compression one to two orders of magnitude
//! slower than lightweight vectorized encodings, and block granularity — a
//! reader must decompress a whole 256 KiB block to touch any value inside it.
//!
//! ```
//! let data: Vec<u8> = (0..100_000u32).flat_map(|i| (i % 1000).to_le_bytes()).collect();
//! let compressed = gpzip::compress(&data);
//! assert!(compressed.len() < data.len() / 2);
//! assert_eq!(gpzip::try_decompress(&compressed).unwrap(), data);
//! ```

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

pub mod fast;
pub mod huffman;
pub mod lz;

use bitstream::{BitReader, BitWriter};
use codecs::{cursor, CodecError};

const NAME: &str = "gpzip";

/// Block granularity (256 KiB, matching the paper's description of Zstd's
/// block-based operation).
pub const BLOCK_SIZE: usize = 256 * 1024;

/// Compresses `data` into a self-describing byte stream.
pub fn compress(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 2 + 64);
    out.extend_from_slice(&(data.len() as u64).to_le_bytes());
    let mut matcher = lz::Matcher::new();
    for block in data.chunks(BLOCK_SIZE) {
        let tokens = matcher.tokenize(block);
        let payload = encode_block(block, &tokens);
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&payload);
    }
    out
}

/// Decompresses a stream produced by [`compress`], validating every field
/// against the input.
///
/// Checked hazards: the total-length and block-length prefixes (either can
/// claim more bytes than exist), invalid Huffman codes, bit-stream
/// exhaustion mid-block (the bit reader zero-fills, which without a check
/// can decode an all-zeros literal code forever), match distances reaching
/// before the output start, and blocks emitting more bytes than the header
/// declared.
pub fn try_decompress(bytes: &[u8]) -> Result<Vec<u8>, CodecError> {
    let mut out = Vec::new();
    try_decompress_into(bytes, &mut out)?;
    Ok(out)
}

/// Decompresses a stream produced by [`compress`] into `out` (cleared first).
/// Same validation as [`try_decompress`]; reusing `out` avoids the output
/// allocation (the Huffman tables are still built per block).
pub fn try_decompress_into(bytes: &[u8], out: &mut Vec<u8>) -> Result<(), CodecError> {
    let mut pos = 0usize;
    let total =
        cursor::read_u64_le(bytes, &mut pos).ok_or(CodecError::Truncated { codec: NAME })? as usize;
    out.clear();
    out.reserve(total.min(1 << 24));
    while out.len() < total {
        let len = cursor::read_u32_le(bytes, &mut pos)
            .ok_or(CodecError::Truncated { codec: NAME })? as usize;
        let block =
            cursor::take(bytes, &mut pos, len).ok_or(CodecError::Truncated { codec: NAME })?;
        try_decode_block(block, out, total)?;
    }
    Ok(())
}

/// End-of-block symbol in the literal/length alphabet.
const EOB: usize = 256;
/// Literal/length alphabet size: 256 literals + EOB + 29 length codes.
const LL_SYMBOLS: usize = 286;
/// Distance alphabet size (deflate's 30 codes).
const DIST_SYMBOLS: usize = 30;

/// Deflate length-code table: `(base, extra_bits)` for codes 257..=285.
const LEN_CODES: [(u32, u32); 29] = [
    (3, 0),
    (4, 0),
    (5, 0),
    (6, 0),
    (7, 0),
    (8, 0),
    (9, 0),
    (10, 0),
    (11, 1),
    (13, 1),
    (15, 1),
    (17, 1),
    (19, 2),
    (23, 2),
    (27, 2),
    (31, 2),
    (35, 3),
    (43, 3),
    (51, 3),
    (59, 3),
    (67, 4),
    (83, 4),
    (99, 4),
    (115, 4),
    (131, 5),
    (163, 5),
    (195, 5),
    (227, 5),
    (258, 0),
];

/// Deflate distance-code table: `(base, extra_bits)` for codes 0..=29.
const DIST_CODES: [(u32, u32); 30] = [
    (1, 0),
    (2, 0),
    (3, 0),
    (4, 0),
    (5, 1),
    (7, 1),
    (9, 2),
    (13, 2),
    (17, 3),
    (25, 3),
    (33, 4),
    (49, 4),
    (65, 5),
    (97, 5),
    (129, 6),
    (193, 6),
    (257, 7),
    (385, 7),
    (513, 8),
    (769, 8),
    (1025, 9),
    (1537, 9),
    (2049, 10),
    (3073, 10),
    (4097, 11),
    (6145, 11),
    (8193, 12),
    (12289, 12),
    (16385, 13),
    (24577, 13),
];

/// The highest code of an ascending `(base, extra bits)` table whose base is
/// at most `value`, with the remainder and its extra-bit count.
fn code_of(table: &[(u32, u32)], value: u32) -> (usize, u32, u32) {
    let (code, &(base, extra)) =
        table.iter().enumerate().rfind(|(_, &(base, _))| base <= value).unwrap_or((0, &(0, 0)));
    (code, value - base, extra)
}

fn length_code(len: u32) -> (usize, u32, u32) {
    debug_assert!((3..=258).contains(&len));
    let (code, rem, extra) = code_of(&LEN_CODES, len);
    (257 + code, rem, extra)
}

fn dist_code(dist: u32) -> (usize, u32, u32) {
    debug_assert!(dist >= 1);
    code_of(&DIST_CODES, dist)
}

#[expect(
    clippy::indexing_slicing,
    reason = "tokens cover the block exactly, and symbols index their own alphabets"
)]
fn encode_block(block: &[u8], tokens: &[lz::Token]) -> Vec<u8> {
    // Frequency pass.
    let mut ll_freq = [0u32; LL_SYMBOLS];
    let mut dist_freq = [0u32; DIST_SYMBOLS];
    let mut lit_pos = 0usize;
    for t in tokens {
        match *t {
            lz::Token::Literals(n) => {
                for &b in &block[lit_pos..lit_pos + n as usize] {
                    ll_freq[b as usize] += 1;
                }
                lit_pos += n as usize;
            }
            lz::Token::Match { len, dist } => {
                let (sym, _, _) = length_code(len);
                ll_freq[sym] += 1;
                let (dsym, _, _) = dist_code(dist);
                dist_freq[dsym] += 1;
                lit_pos += len as usize;
            }
        }
    }
    ll_freq[EOB] += 1;

    let ll_table = huffman::Encoder::from_frequencies(&ll_freq);
    let dist_table = huffman::Encoder::from_frequencies(&dist_freq);

    let mut w = BitWriter::with_capacity(block.len() / 2 + 256);
    ll_table.write_lengths(&mut w);
    dist_table.write_lengths(&mut w);

    // Emission pass.
    let mut lit_pos = 0usize;
    for t in tokens {
        match *t {
            lz::Token::Literals(n) => {
                for &b in &block[lit_pos..lit_pos + n as usize] {
                    ll_table.write_symbol(&mut w, b as usize);
                }
                lit_pos += n as usize;
            }
            lz::Token::Match { len, dist } => {
                let (sym, rem, extra) = length_code(len);
                ll_table.write_symbol(&mut w, sym);
                w.write_bits(rem as u64, extra);
                let (dsym, drem, dextra) = dist_code(dist);
                dist_table.write_symbol(&mut w, dsym);
                w.write_bits(drem as u64, dextra);
                lit_pos += len as usize;
            }
        }
    }
    ll_table.write_symbol(&mut w, EOB);
    w.into_bytes()
}

fn try_decode_block(payload: &[u8], out: &mut Vec<u8>, max_total: usize) -> Result<(), CodecError> {
    let truncated = || CodecError::Truncated { codec: NAME };
    let corrupt = |what| CodecError::Corrupt { codec: NAME, what };

    let mut r = BitReader::new(payload);
    let ll_table = huffman::Decoder::read_lengths(&mut r, LL_SYMBOLS);
    let dist_table = huffman::Decoder::read_lengths(&mut r, DIST_SYMBOLS);
    if r.overrun() {
        return Err(truncated());
    }
    loop {
        let sym = ll_table.try_read_symbol(&mut r).ok_or_else(|| corrupt("Huffman code"))?;
        // Checking exhaustion per symbol (not once at the end) matters: past
        // the payload the reader feeds zeros, and an all-zeros code can be a
        // valid literal — without this check such a block never reaches EOB.
        if r.overrun() {
            return Err(truncated());
        }
        if sym < 256 {
            out.push(sym as u8);
        } else if sym == EOB {
            return Ok(());
        } else {
            let &(base, extra) = LEN_CODES.get(sym - 257).ok_or_else(|| corrupt("length code"))?;
            let len = base + r.read_bits(extra) as u32;
            let dsym =
                dist_table.try_read_symbol(&mut r).ok_or_else(|| corrupt("distance code"))?;
            let &(dbase, dextra) = DIST_CODES.get(dsym).ok_or_else(|| corrupt("distance code"))?;
            let dist = (dbase + r.read_bits(dextra) as u32) as usize;
            if r.overrun() {
                return Err(truncated());
            }
            let start = out.len().checked_sub(dist).ok_or_else(|| corrupt("match distance"))?;
            // Overlapping copies are the LZ idiom for runs; copy byte-wise.
            for i in start..start + len as usize {
                let &b = out.get(i).ok_or_else(|| corrupt("match distance"))?;
                out.push(b);
            }
        }
        if out.len() > max_total {
            return Err(corrupt("block output exceeds declared length"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) -> usize {
        let c = compress(data);
        assert_eq!(try_decompress(&c).unwrap(), data, "len {}", data.len());
        c.len()
    }

    #[test]
    fn empty_and_tiny() {
        roundtrip(b"");
        roundtrip(b"a");
        roundtrip(b"ab");
        roundtrip(b"abcabcabcabc");
    }

    #[test]
    fn repetitive_text_compresses_hard() {
        let data = b"the quick brown fox jumps over the lazy dog. ".repeat(2000);
        let size = roundtrip(&data);
        assert!(size < data.len() / 10, "{size} of {}", data.len());
    }

    #[test]
    fn float_columns_compress() {
        let values: Vec<u8> = (0..50_000u64)
            .flat_map(|i| (((i % 997) as f64) / 100.0).to_bits().to_le_bytes())
            .collect();
        let size = roundtrip(&values);
        assert!(size < values.len() / 2, "{size} of {}", values.len());
    }

    #[test]
    fn incompressible_data_grows_bounded() {
        let data: Vec<u8> = (0..100_000u64)
            .flat_map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15).to_le_bytes())
            .collect();
        let size = roundtrip(&data);
        // Huffman on near-uniform bytes: at most a few percent overhead.
        assert!(size < data.len() + data.len() / 10 + 1024);
    }

    #[test]
    fn multi_block_input() {
        let data: Vec<u8> = (0..(2 * BLOCK_SIZE + 12345)).map(|i| (i % 251) as u8).collect();
        roundtrip(&data);
    }

    #[test]
    fn long_runs_use_max_length_matches() {
        let data = vec![7u8; 100_000];
        let size = roundtrip(&data);
        assert!(size < 2000, "{size}");
    }

    #[test]
    fn code_tables_cover_all_lengths_and_distances() {
        for len in 3..=258u32 {
            let (sym, rem, extra) = length_code(len);
            let (base, e) = LEN_CODES[sym - 257];
            assert_eq!(e, extra);
            assert_eq!(base + rem, len);
            assert!(rem < (1 << extra) || extra == 0 && rem == 0);
        }
        for dist in 1..=32768u32 {
            let (sym, rem, extra) = dist_code(dist);
            let (base, e) = DIST_CODES[sym];
            assert_eq!(e, extra);
            assert_eq!(base + rem, dist);
        }
    }
}
