#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

/// MSB-first bit reader over a byte slice.
///
/// Reading past the end of the slice yields zero bits rather than panicking;
/// codecs detect end-of-stream from their own value counts, and tolerating
/// over-reads keeps the hot decode loops branch-light. The reader *tracks*
/// such over-reads: once [`overrun`](Self::overrun) returns true, some bits
/// handed out were zero-fill rather than data, and fallible decoders treat
/// the stream as truncated. The check costs nothing on the hot path — it
/// compares two counters already maintained for [`bit_pos`](Self::bit_pos).
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    /// Index of the next byte to load.
    next: usize,
    /// Staging register; valid bits occupy the top positions.
    acc: u64,
    /// Number of valid bits in `acc`.
    filled: u32,
    consumed: u64,
}

impl<'a> BitReader<'a> {
    /// Creates a reader positioned at the first bit of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, next: 0, acc: 0, filled: 0, consumed: 0 }
    }

    /// Number of bits consumed so far.
    #[inline]
    pub fn bit_pos(&self) -> u64 {
        self.consumed
    }

    /// Total number of real bits in the underlying slice.
    #[inline]
    pub fn len_bits(&self) -> u64 {
        self.bytes.len() as u64 * 8
    }

    /// Bits of real data left (0 once the slice is exhausted).
    #[inline]
    pub fn remaining_bits(&self) -> u64 {
        self.len_bits().saturating_sub(self.consumed)
    }

    /// True if any read so far went past the end of the slice — i.e. some
    /// returned bits were zero-fill, not data. Fallible decoders check this
    /// after (or during) decoding to report truncation.
    #[inline]
    pub fn overrun(&self) -> bool {
        self.consumed > self.len_bits()
    }

    /// Reads one bit.
    #[inline]
    pub fn read_bit(&mut self) -> bool {
        self.read_bits(1) != 0
    }

    /// Reads `width` bits (`0..=64`), returning them in the low bits of the result.
    #[inline]
    pub fn read_bits(&mut self, width: u32) -> u64 {
        debug_assert!(width <= 64);
        if width == 0 {
            return 0;
        }
        self.consumed += width as u64;
        let mut out: u64 = 0;
        let mut remaining = width;
        while remaining > 0 {
            if self.filled == 0 {
                self.refill();
            }
            let take = remaining.min(self.filled);
            // Extract the top `take` bits of the staging register.
            let chunk = self.acc >> (64 - take);
            // `take == 64` only happens on a fresh refill consuming the whole
            // register; a plain shift would overflow.
            self.acc = if take == 64 { 0 } else { self.acc << take };
            self.filled -= take;
            out = if take == 64 { chunk } else { (out << take) | chunk };
            remaining -= take;
        }
        out
    }

    /// Loads up to 8 bytes into the staging register. Past end-of-slice the
    /// register fills with zeros.
    #[inline]
    fn refill(&mut self) {
        let rest = self.bytes.get(self.next..).unwrap_or_default();
        if let Some(chunk) = rest.first_chunk::<8>() {
            self.acc = u64::from_be_bytes(*chunk);
            self.filled = 64;
            self.next += 8;
        } else {
            let mut word: u64 = 0;
            for i in 0..8 {
                let b = rest.get(i).copied().unwrap_or(0);
                word = (word << 8) | b as u64;
            }
            self.acc = word;
            self.filled = 64;
            self.next += rest.len();
        }
    }
}
