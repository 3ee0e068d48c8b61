//! FPC (Burtscher & Ratanaworabhan, *IEEE Trans. Computers* 2009) — the
//! predictive scheme the paper's Related Work (§5) positions the XOR family
//! against. Included as an extra baseline beyond the paper's six.
//!
//! FPC predicts each double twice — with an **FCM** (finite context method)
//! hash table and a **DFCM** (differential FCM) table — XORs the value with
//! the closer prediction, and encodes the result as:
//!
//! * a header nibble: 1 selector bit (which predictor) + a 3-bit code for the
//!   number of leading **zero bytes**, mapping to {0,1,2,3,5,6,7,8} (4 is
//!   folded to 3, exactly as in the original — a perfect prediction costs no
//!   payload byte);
//! * the remaining non-zero bytes of the XOR, verbatim.
//!
//! Two headers share one byte, making the stream byte-aligned like Patas.
//! Table size is [`TABLE_BITS`] (the original tunes this per memory budget).

use crate::error::CodecError;

const NAME: &str = "fpc";

/// log2 of the predictor table size.
pub const TABLE_BITS: u32 = 16;
const TABLE_SIZE: usize = 1 << TABLE_BITS;

/// The FCM/DFCM hash-table pair. Public so decode scratch space can own one
/// across calls — the two tables are 64 KiB each and dominate FPC's per-call
/// allocation cost when built fresh.
pub struct Predictor {
    fcm: Vec<u64>,
    dfcm: Vec<u64>,
    fcm_hash: usize,
    dfcm_hash: usize,
    last: u64,
}

impl Predictor {
    /// Allocates zeroed tables.
    pub fn new() -> Self {
        Self {
            fcm: vec![0; TABLE_SIZE],
            dfcm: vec![0; TABLE_SIZE],
            fcm_hash: 0,
            dfcm_hash: 0,
            last: 0,
        }
    }

    /// Rewinds to the initial state without releasing the tables.
    fn reset(&mut self) {
        self.fcm.fill(0);
        self.dfcm.fill(0);
        self.fcm_hash = 0;
        self.dfcm_hash = 0;
        self.last = 0;
    }
}

impl Default for Predictor {
    fn default() -> Self {
        Self::new()
    }
}

#[expect(
    clippy::indexing_slicing,
    reason = "both hashes are masked to `TABLE_SIZE - 1`, the length of both tables"
)]
impl Predictor {
    /// Returns (fcm prediction, dfcm prediction) for the next value.
    #[inline]
    fn predict(&self) -> (u64, u64) {
        (self.fcm[self.fcm_hash], self.dfcm[self.dfcm_hash].wrapping_add(self.last))
    }

    /// Feeds the actual value, updating both tables (identical on the encode
    /// and decode sides — the tables are never transmitted).
    #[inline]
    fn update(&mut self, value: u64) {
        self.fcm[self.fcm_hash] = value;
        self.fcm_hash = (((self.fcm_hash << 6) as u64) ^ (value >> 48)) as usize & (TABLE_SIZE - 1);
        let delta = value.wrapping_sub(self.last);
        self.dfcm[self.dfcm_hash] = delta;
        self.dfcm_hash =
            (((self.dfcm_hash << 2) as u64) ^ (delta >> 40)) as usize & (TABLE_SIZE - 1);
        self.last = value;
    }
}

/// Number of leading zero *bytes* of `x` (0..=8), with 4 folded to 3 so it
/// fits the 3-bit header code {0,1,2,3,5,6,7,8}.
#[inline]
fn leading_zero_bytes(x: u64) -> u32 {
    let lzb = x.leading_zeros() / 8;
    if lzb == 4 {
        3
    } else {
        lzb
    }
}

/// Header code for a (folded) zero-byte count.
#[inline]
fn lzb_code(lzb: u32) -> u8 {
    if lzb > 4 {
        (lzb - 1) as u8
    } else {
        lzb as u8
    }
}

/// Inverse of [`lzb_code`].
#[inline]
fn code_lzb(code: u8) -> u32 {
    if code > 3 {
        code as u32 + 1
    } else {
        code as u32
    }
}

/// Compresses a column of doubles.
pub fn compress(data: &[f64]) -> Vec<u8> {
    let mut predictor = Predictor::new();
    let mut headers: Vec<u8> = Vec::with_capacity(data.len() / 2 + 1);
    let mut payload: Vec<u8> = Vec::with_capacity(data.len() * 8);

    let mut pending: Option<u8> = None;
    for &v in data {
        let bits = v.to_bits();
        let (p_fcm, p_dfcm) = predictor.predict();
        let x_fcm = bits ^ p_fcm;
        let x_dfcm = bits ^ p_dfcm;
        // Choose the predictor whose XOR has more leading zero bytes.
        let (selector, xor) = if leading_zero_bytes(x_fcm) >= leading_zero_bytes(x_dfcm) {
            (0u8, x_fcm)
        } else {
            (1u8, x_dfcm)
        };
        let lzb = leading_zero_bytes(xor);
        let nibble = (selector << 3) | lzb_code(lzb);
        match pending.take() {
            None => pending = Some(nibble),
            Some(first) => headers.push((first << 4) | nibble),
        }
        payload.extend(xor.to_be_bytes().into_iter().skip(lzb as usize));
        predictor.update(bits);
    }
    if let Some(first) = pending {
        headers.push(first << 4);
    }

    let mut out = Vec::with_capacity(8 + headers.len() + payload.len());
    out.extend_from_slice(&(headers.len() as u64).to_le_bytes());
    out.extend_from_slice(&headers);
    out.extend_from_slice(&payload);
    out
}

/// Decompresses `count` doubles into `out` (cleared first), validating every
/// field against the input. `predictor` is reset and reused, so the call is
/// allocation-free once `out` has capacity.
///
/// Checked hazards: the header-length prefix (can claim more bytes than
/// exist), a header stream too short for `count` nibbles, and payload
/// exhaustion. Header nibbles themselves cannot be out of range — every
/// 4-bit pattern is a valid (selector, zero-byte code) pair.
pub fn try_decompress_into(
    bytes: &[u8],
    count: usize,
    out: &mut Vec<f64>,
    predictor: &mut Predictor,
) -> Result<(), CodecError> {
    let Some((len_bytes, rest)) = bytes.split_first_chunk::<8>() else {
        return Err(CodecError::Truncated { codec: NAME });
    };
    let header_len = u64::from_le_bytes(*len_bytes) as usize;
    let Some((headers, mut payload)) = rest.split_at_checked(header_len) else {
        return Err(CodecError::Truncated { codec: NAME });
    };
    if header_len < count.div_ceil(2) {
        return Err(CodecError::Truncated { codec: NAME });
    }

    predictor.reset();
    out.clear();
    out.reserve(count); // bounded by the bytes: checked above

    // header_len >= ceil(count/2), checked above, so there are `count` nibbles.
    let nibbles = headers.iter().flat_map(|&byte| [byte >> 4, byte & 0xF]);
    for nibble in nibbles.take(count) {
        let selector = nibble >> 3;
        let lzb = code_lzb(nibble & 0x7) as usize;
        let n_bytes = 8 - lzb;
        let Some((head, tail)) = payload.split_at_checked(n_bytes) else {
            return Err(CodecError::Truncated { codec: NAME });
        };
        payload = tail;
        // The stored bytes are the low `n_bytes` of the XOR, big-endian.
        let xor = head.iter().fold(0u64, |acc, &b| acc << 8 | u64::from(b));
        let (p_fcm, p_dfcm) = predictor.predict();
        let prediction = if selector == 0 { p_fcm } else { p_dfcm };
        let bits = xor ^ prediction;
        out.push(f64::from_bits(bits));
        predictor.update(bits);
    }
    Ok(())
}

/// Decompresses `count` doubles into a fresh vector — see
/// [`try_decompress_into`] for the allocation-free variant.
pub fn try_decompress(bytes: &[u8], count: usize) -> Result<Vec<f64>, CodecError> {
    let mut out = Vec::new();
    try_decompress_into(bytes, count, &mut out, &mut Predictor::new())?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[f64]) -> usize {
        let bytes = compress(data);
        let back = try_decompress(&bytes, data.len()).unwrap();
        for (i, (a, b)) in data.iter().zip(&back).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "idx {i}");
        }
        bytes.len()
    }

    #[test]
    fn timeseries_roundtrip_and_compresses() {
        let data: Vec<f64> = (0..20_000).map(|i| 50.0 + ((i as f64) * 0.001).sin()).collect();
        let size = roundtrip(&data);
        assert!(size < data.len() * 8, "{size}");
    }

    #[test]
    fn repeated_values_predict_perfectly() {
        let data = vec![7.25f64; 10_000];
        let size = roundtrip(&data);
        // Half a header byte per value once the tables warm up.
        assert!(size < 10_000, "{size}");
    }

    #[test]
    fn specials_roundtrip() {
        roundtrip(&[f64::NAN, -0.0, 0.0, f64::INFINITY, f64::NEG_INFINITY, 5e-324, f64::MAX]);
    }

    #[test]
    fn random_bits_roundtrip() {
        let data: Vec<f64> = (0..5000)
            .map(|i| f64::from_bits((i as u64).wrapping_mul(0x5851_F42D_4C95_7F2D)))
            .collect();
        roundtrip(&data);
    }

    #[test]
    fn empty_and_odd_lengths() {
        roundtrip(&[]);
        roundtrip(&[1.5]);
        roundtrip(&[1.5, 2.5, 3.5]);
    }

    #[test]
    fn dfcm_helps_on_linear_ramps() {
        // A pure arithmetic ramp: the differential predictor should lock on
        // and compress far below raw size.
        let data: Vec<f64> = (0..50_000).map(|i| i as f64).collect();
        let size = roundtrip(&data);
        assert!(size < data.len() * 4, "{size}");
    }
}
