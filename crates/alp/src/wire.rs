//! Little-endian read/write helpers for the on-disk format.
//!
//! Replaces the external `bytes` crate (the build environment is offline)
//! with the writers `format`/`stream` actually use and one fallible reader,
//! [`take`]: no read can panic on a short slice.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

/// Appending little-endian writers for `Vec<u8>`.
pub(crate) trait PutExt {
    fn put_slice(&mut self, src: &[u8]);
    fn put_u8(&mut self, v: u8);
    fn put_u16_le(&mut self, v: u16);
    fn put_u32_le(&mut self, v: u32);
    fn put_u64_le(&mut self, v: u64);
    fn put_i64_le(&mut self, v: i64);
    /// Every word of `words` in order, as one extend.
    fn put_words_le(&mut self, words: &[u64]);
}

impl PutExt for Vec<u8> {
    #[inline]
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
    #[inline]
    fn put_u8(&mut self, v: u8) {
        self.push(v);
    }
    #[inline]
    fn put_u16_le(&mut self, v: u16) {
        self.extend_from_slice(&v.to_le_bytes());
    }
    #[inline]
    fn put_u32_le(&mut self, v: u32) {
        self.extend_from_slice(&v.to_le_bytes());
    }
    #[inline]
    fn put_u64_le(&mut self, v: u64) {
        self.extend_from_slice(&v.to_le_bytes());
    }
    #[inline]
    fn put_i64_le(&mut self, v: i64) {
        self.extend_from_slice(&v.to_le_bytes());
    }
    #[inline]
    fn put_words_le(&mut self, words: &[u64]) {
        self.extend(words.iter().flat_map(|w| w.to_le_bytes()));
    }
}

/// Splits the next `N` bytes off the cursor; `None` (cursor untouched) when
/// fewer remain. Every reader of the format decodes its integers from these
/// arrays with `from_le_bytes`.
#[inline]
pub(crate) fn take<const N: usize>(cur: &mut &[u8]) -> Option<[u8; N]> {
    let (head, tail) = cur.split_first_chunk::<N>()?;
    *cur = tail;
    Some(*head)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_widths() {
        let mut buf = Vec::new();
        buf.put_slice(b"hd");
        buf.put_u8(0xAB);
        buf.put_u16_le(0x1234);
        buf.put_u32_le(0xDEAD_BEEF);
        buf.put_u64_le(0x0102_0304_0506_0708);
        buf.put_words_le(&[0x1122_3344_5566_7788, 1]);
        buf.put_i64_le(-42);

        let mut cur: &[u8] = &buf;
        assert_eq!(take::<2>(&mut cur), Some(*b"hd"));
        assert_eq!(take(&mut cur).map(u8::from_le_bytes), Some(0xAB));
        assert_eq!(take(&mut cur).map(u16::from_le_bytes), Some(0x1234));
        assert_eq!(take(&mut cur).map(u32::from_le_bytes), Some(0xDEAD_BEEF));
        assert_eq!(take(&mut cur).map(u64::from_le_bytes), Some(0x0102_0304_0506_0708));
        assert_eq!(take(&mut cur).map(u64::from_le_bytes), Some(0x1122_3344_5566_7788));
        assert_eq!(take(&mut cur).map(u64::from_le_bytes), Some(1));
        assert_eq!(take::<9>(&mut cur), None, "a short read leaves the cursor alone");
        assert_eq!(take(&mut cur).map(i64::from_le_bytes), Some(-42));
        assert!(cur.is_empty());
    }
}
