//! MSB-first bit-granular I/O.
//!
//! The XOR-based floating-point codecs (Gorilla, Chimp, Chimp128, Elf) and the
//! Huffman stage of GPZip all produce variable-length bit sequences. This crate
//! provides the two primitives they share:
//!
//! * [`BitWriter`] — append `1..=64` bits at a time to a growing byte buffer.
//! * [`BitReader`] — consume bits from a byte slice in the same order.
//!
//! Bits are written most-significant-first within each byte, which matches the
//! layouts used by the original Gorilla/Chimp publications and makes hexdumps of
//! the compressed streams readable left-to-right.
//!
//! # Example
//! ```
//! use bitstream::{BitReader, BitWriter};
//! let mut w = BitWriter::new();
//! w.write_bits(0b101, 3);
//! w.write_bit(true);
//! w.write_bits(0xDEAD, 16);
//! let bytes = w.into_bytes();
//! let mut r = BitReader::new(&bytes);
//! assert_eq!(r.read_bits(3), 0b101);
//! assert_eq!(r.read_bit(), true);
//! assert_eq!(r.read_bits(16), 0xDEAD);
//! ```

mod reader;
mod writer;

pub use reader::BitReader;
pub use writer::BitWriter;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_mixed_widths() {
        let mut w = BitWriter::new();
        let widths = [1u32, 3, 7, 8, 13, 17, 31, 32, 33, 48, 63, 64];
        for (i, &n) in widths.iter().enumerate() {
            let v = (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64 + 1)) & mask(n);
            w.write_bits(v, n);
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for (i, &n) in widths.iter().enumerate() {
            let v = (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64 + 1)) & mask(n);
            assert_eq!(r.read_bits(n), v, "width {n}");
        }
    }

    fn mask(n: u32) -> u64 {
        if n == 64 {
            u64::MAX
        } else {
            (1u64 << n) - 1
        }
    }

    #[test]
    fn single_bits() {
        let mut w = BitWriter::new();
        let pattern = [true, false, true, true, false, false, true, false, true];
        for &b in &pattern {
            w.write_bit(b);
        }
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 2); // 9 bits -> 2 bytes
        let mut r = BitReader::new(&bytes);
        for &b in &pattern {
            assert_eq!(r.read_bit(), b);
        }
    }

    #[test]
    fn bit_len_tracks_written_bits() {
        let mut w = BitWriter::new();
        assert_eq!(w.bit_len(), 0);
        w.write_bit(true);
        assert_eq!(w.bit_len(), 1);
        w.write_bits(0, 64);
        assert_eq!(w.bit_len(), 65);
    }

    #[test]
    fn zero_width_write_is_noop() {
        let mut w = BitWriter::new();
        w.write_bits(123, 0);
        assert_eq!(w.bit_len(), 0);
        w.write_bits(1, 1);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(0), 0);
        assert!(r.read_bit());
    }

    #[test]
    fn reader_position_and_remaining() {
        let mut w = BitWriter::new();
        w.write_bits(u64::MAX, 40);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.bit_pos(), 0);
        r.read_bits(13);
        assert_eq!(r.bit_pos(), 13);
    }

    #[test]
    fn byte_alignment_padding_is_zero() {
        let mut w = BitWriter::new();
        w.write_bits(0b1, 1);
        let bytes = w.into_bytes();
        // MSB-first: the single 1 bit lands in the top bit.
        assert_eq!(bytes, vec![0b1000_0000]);
    }

    #[test]
    fn values_are_masked_to_width() {
        let mut w = BitWriter::new();
        // Upper bits beyond the width must be ignored.
        w.write_bits(u64::MAX, 4);
        w.write_bits(0, 4);
        let bytes = w.into_bytes();
        assert_eq!(bytes, vec![0b1111_0000]);
    }
}
