//! Little-endian read/write helpers for the on-disk format.
//!
//! Replaces the external `bytes` crate (the build environment is offline)
//! with the five writers and six readers `format`/`stream` actually use.
//! Readers panic if the slice is too short — callers bounds-check first, the
//! same contract `bytes::Buf` had.

/// Appending little-endian writers for `Vec<u8>`.
pub(crate) trait PutExt {
    fn put_slice(&mut self, src: &[u8]);
    fn put_u8(&mut self, v: u8);
    fn put_u16_le(&mut self, v: u16);
    fn put_u32_le(&mut self, v: u32);
    fn put_u64_le(&mut self, v: u64);
    fn put_i64_le(&mut self, v: i64);
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
}

/// Consuming little-endian readers for `&[u8]` cursors.
pub(crate) trait GetExt {
    fn advance(&mut self, n: usize);
    fn get_u8(&mut self) -> u8;
    fn get_u16_le(&mut self) -> u16;
    fn get_u32_le(&mut self) -> u32;
    fn get_u64_le(&mut self) -> u64;
    fn get_i64_le(&mut self) -> i64;
}

impl GetExt for &[u8] {
    #[inline]
    // ANALYZER-ALLOW(no-panic): documented cursor contract (see module doc):
    // callers bounds-check remaining length before reading, as with bytes::Buf.
    fn advance(&mut self, n: usize) {
        *self = &self[n..];
    }
    #[inline]
    fn get_u8(&mut self) -> u8 {
        u8::from_le_bytes(take(self))
    }
    #[inline]
    fn get_u16_le(&mut self) -> u16 {
        u16::from_le_bytes(take(self))
    }
    #[inline]
    fn get_u32_le(&mut self) -> u32 {
        u32::from_le_bytes(take(self))
    }
    #[inline]
    fn get_u64_le(&mut self) -> u64 {
        u64::from_le_bytes(take(self))
    }
    #[inline]
    fn get_i64_le(&mut self) -> i64 {
        i64::from_le_bytes(take(self))
    }
}

/// Splits the next `N` bytes off the cursor — the one place the typed
/// readers can panic on a short slice.
#[inline]
// ANALYZER-ALLOW(no-panic): documented cursor contract (see module doc):
// callers bounds-check remaining length before reading, as with bytes::Buf.
fn take<const N: usize>(cur: &mut &[u8]) -> [u8; N] {
    let (head, tail) = cur.split_at(N);
    *cur = tail;
    head.try_into().unwrap()
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
        buf.put_i64_le(-42);

        let mut cur: &[u8] = &buf;
        cur.advance(2);
        assert_eq!(cur.get_u8(), 0xAB);
        assert_eq!(cur.get_u16_le(), 0x1234);
        assert_eq!(cur.get_u32_le(), 0xDEAD_BEEF);
        assert_eq!(cur.get_u64_le(), 0x0102_0304_0506_0708);
        assert_eq!(cur.get_i64_le(), -42);
        assert!(cur.is_empty());
    }
}
