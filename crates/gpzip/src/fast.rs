//! **Fast mode** — an LZ4-class byte-oriented compressor: greedy single-probe
//! hash matching, no entropy stage. This is the paper's "LZ4 and Snappy trade
//! compression ratio for speed" point in the general-purpose spectrum
//! (§1), complementing the deflate-class default mode.
//!
//! Sequence format (LZ4-flavored):
//!
//! ```text
//! token: high nibble = literal length (15 = extended), low nibble = match
//!        length - MIN_MATCH (15 = extended)
//! [extended literal length bytes (255-terminated)] [literal bytes]
//! [2-byte LE match offset] [extended match length bytes]
//! ```
//!
//! The final sequence carries only literals (offset omitted).

use codecs::{cursor, CodecError};

const NAME: &str = "gpzip-fast";

/// Minimum match length.
pub const MIN_MATCH: usize = 4;
const HASH_BITS: u32 = 14;
const WINDOW: usize = 65_535;

#[inline]
fn hash4(data: &[u8], i: usize) -> usize {
    // Callers always leave `MIN_MATCH` bytes at `i`; map_or keeps the helper
    // panic-free.
    let v = data.get(i..).and_then(<[u8]>::first_chunk::<4>).map_or(0, |c| u32::from_le_bytes(*c));
    (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

fn write_len(out: &mut Vec<u8>, mut len: usize) {
    while len >= 255 {
        out.push(255);
        len -= 255;
    }
    out.push(len as u8);
}

fn read_len(bytes: &[u8], pos: &mut usize) -> Option<usize> {
    let mut len = 0usize;
    loop {
        let b = *bytes.get(*pos)?;
        *pos += 1;
        len += b as usize;
        if b != 255 {
            return Some(len);
        }
    }
}

/// Compresses `data` (single frame, unframed length — callers prepend one).
#[expect(
    clippy::indexing_slicing,
    reason = "hashes are masked to the table size, and every data index is bounded by the \
              loop conditions on `data.len()`"
)]
pub fn compress_block(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 2 + 16);
    let mut table = vec![0u32; 1 << HASH_BITS];
    let mut anchor = 0usize; // start of the pending literal run
    let mut i = 0usize;

    while i + MIN_MATCH <= data.len() {
        let h = hash4(data, i);
        let cand = table[h] as usize;
        table[h] = i as u32;
        let good = cand < i
            && i - cand <= WINDOW
            && data[cand..cand + MIN_MATCH] == data[i..i + MIN_MATCH];
        if !good {
            i += 1;
            continue;
        }
        // Extend the match.
        let mut len = MIN_MATCH;
        while i + len < data.len() && data[cand + len] == data[i + len] {
            len += 1;
        }

        // Emit sequence: literals [anchor..i] + match (len, dist).
        let lit_len = i - anchor;
        let match_code = len - MIN_MATCH;
        let token = ((lit_len.min(15) as u8) << 4) | (match_code.min(15) as u8);
        out.push(token);
        if lit_len >= 15 {
            write_len(&mut out, lit_len - 15);
        }
        out.extend_from_slice(&data[anchor..i]);
        out.extend_from_slice(&((i - cand) as u16).to_le_bytes());
        if match_code >= 15 {
            write_len(&mut out, match_code - 15);
        }

        // Index a couple of covered positions to keep the table warm.
        let end = i + len;
        let mut j = i + 1;
        while j + MIN_MATCH <= data.len() && j < end {
            table[hash4(data, j)] = j as u32;
            j += 7;
        }
        i = end;
        anchor = end;
    }

    // Trailing literals-only sequence.
    let lit_len = data.len() - anchor;
    let token = (lit_len.min(15) as u8) << 4;
    out.push(token | 0x0F); // low nibble 15 marks "no match follows"
    if lit_len >= 15 {
        write_len(&mut out, lit_len - 15);
    }
    out.extend_from_slice(&data[anchor..]);
    out
}

/// Decompresses a block produced by [`compress_block`] into `out` until
/// `expected` bytes have been produced, validating every field against the
/// input.
///
/// Checked hazards: token and extended-length bytes past the block end,
/// literal runs longer than the remaining block, zero or too-far match
/// distances, and blocks producing more bytes than `expected` (a valid
/// stream's final sequence lands exactly on the boundary).
pub fn try_decompress_block(
    bytes: &[u8],
    expected: usize,
    out: &mut Vec<u8>,
) -> Result<(), CodecError> {
    let truncated = || CodecError::Truncated { codec: NAME };
    let corrupt = |what| CodecError::Corrupt { codec: NAME, what };

    let start = out.len();
    let mut pos = 0usize;
    loop {
        let token = *bytes.get(pos).ok_or_else(truncated)?;
        pos += 1;
        let mut lit_len = (token >> 4) as usize;
        if lit_len == 15 {
            lit_len += read_len(bytes, &mut pos).ok_or_else(truncated)?;
        }
        if out.len() - start + lit_len > expected {
            return Err(corrupt("literal run exceeds block length"));
        }
        let literals = cursor::take(bytes, &mut pos, lit_len).ok_or_else(truncated)?;
        out.extend_from_slice(literals);
        if out.len() - start >= expected {
            return Ok(());
        }
        let match_nibble = (token & 0x0F) as usize;
        if match_nibble == 0x0F && out.len() - start >= expected {
            return Ok(());
        }
        let dist = cursor::read_u16_le(bytes, &mut pos).ok_or_else(truncated)? as usize;
        let mut mlen = match_nibble + MIN_MATCH;
        if match_nibble == 15 {
            mlen += read_len(bytes, &mut pos).ok_or_else(truncated)?;
        }
        if dist == 0 || dist > out.len() - start {
            return Err(corrupt("match distance"));
        }
        if out.len() - start + mlen > expected {
            return Err(corrupt("match exceeds block length"));
        }
        // Byte-wise, because an overlapping copy is the LZ idiom for runs.
        let from = out.len() - dist;
        for k in from..from + mlen {
            let &b = out.get(k).ok_or_else(|| corrupt("match distance"))?;
            out.push(b);
        }
        if out.len() - start >= expected {
            return Ok(());
        }
    }
}

/// Compresses with framing: `u64` total length, then per-block `u32` sizes.
pub fn compress(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 2 + 16);
    out.extend_from_slice(&(data.len() as u64).to_le_bytes());
    for block in data.chunks(crate::BLOCK_SIZE) {
        let payload = compress_block(block);
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&(block.len() as u32).to_le_bytes());
        out.extend_from_slice(&payload);
    }
    out
}

/// Decompresses a frame produced by [`compress`], validating every field
/// against the input (see [`try_decompress_block`] for the per-block checks;
/// the frame adds total-length, block-size, and raw-size-vs-total hazards).
pub fn try_decompress(bytes: &[u8]) -> Result<Vec<u8>, CodecError> {
    let mut out = Vec::new();
    try_decompress_into(bytes, &mut out)?;
    Ok(out)
}

/// Decompresses a frame produced by [`compress`] into `out` (cleared first).
/// Same validation as [`try_decompress`]; reusing `out` makes the call
/// allocation-free once the buffer is warm.
pub fn try_decompress_into(bytes: &[u8], out: &mut Vec<u8>) -> Result<(), CodecError> {
    let truncated = || CodecError::Truncated { codec: NAME };

    let mut pos = 0usize;
    let total = cursor::read_u64_le(bytes, &mut pos).ok_or_else(truncated)? as usize;
    out.clear();
    out.reserve(total.min(1 << 24));
    while out.len() < total {
        let clen = cursor::read_u32_le(bytes, &mut pos).ok_or_else(truncated)? as usize;
        let raw = cursor::read_u32_le(bytes, &mut pos).ok_or_else(truncated)? as usize;
        if raw > total - out.len() {
            return Err(CodecError::Corrupt { codec: NAME, what: "blocks exceed frame length" });
        }
        let block = cursor::take(bytes, &mut pos, clen).ok_or_else(truncated)?;
        try_decompress_block(block, raw, out)?;
    }
    Ok(())
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
        roundtrip(b"x");
        roundtrip(b"abcd");
        roundtrip(b"aaaaaaaaaaaaaaaa");
    }

    #[test]
    fn repetitive_compresses() {
        let data = b"compress me, compress me again! ".repeat(3000);
        let size = roundtrip(&data);
        assert!(size < data.len() / 5, "{size} of {}", data.len());
    }

    #[test]
    fn float_columns_compress_somewhat() {
        let values: Vec<u8> = (0..50_000u64)
            .flat_map(|i| (((i % 997) as f64) / 100.0).to_bits().to_le_bytes())
            .collect();
        let size = roundtrip(&values);
        assert!(size < values.len(), "{size}");
    }

    #[test]
    fn incompressible_overhead_is_small() {
        let data: Vec<u8> = (0..200_000u64)
            .flat_map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15).to_le_bytes())
            .collect();
        let size = roundtrip(&data);
        assert!(size < data.len() + data.len() / 16 + 64);
    }

    #[test]
    fn long_literal_runs_use_extended_lengths() {
        let mut data: Vec<u8> = (0..5000u32).flat_map(|i| i.to_le_bytes()).collect();
        data.extend_from_slice(&vec![42u8; 5000]);
        roundtrip(&data);
    }

    #[test]
    fn multi_block_input() {
        let data: Vec<u8> = (0..(crate::BLOCK_SIZE * 2 + 999)).map(|i| (i % 119) as u8).collect();
        roundtrip(&data);
    }

    #[test]
    fn fast_mode_is_faster_but_larger_than_default() {
        let values: Vec<u8> = (0..100_000u64)
            .flat_map(|i| (((i % 3163) as f64) / 100.0).to_bits().to_le_bytes())
            .collect();
        let fast = compress(&values).len();
        let full = crate::compress(&values).len();
        assert!(fast >= full, "fast {fast} vs full {full}");
    }
}
