//! Canonical Huffman coding with a 15-bit length limit (deflate-compatible
//! constraints). Code lengths are serialized as 4 bits per symbol; codes are
//! assigned canonically so only the lengths need to be transmitted.

use bitstream::{BitReader, BitWriter};

/// Maximum code length.
pub const MAX_LEN: u32 = 15;

/// Encoding table: per-symbol code length and canonical code.
pub struct Encoder {
    lengths: Vec<u8>,
    codes: Vec<u16>,
}

impl Encoder {
    /// Builds a length-limited canonical code from symbol frequencies.
    /// Symbols with zero frequency get no code (length 0).
    pub fn from_frequencies(freq: &[u32]) -> Self {
        let lengths = build_lengths(freq);
        let codes = canonical_codes(&lengths);
        Self { lengths, codes }
    }

    /// Writes the length table (4 bits per symbol).
    pub fn write_lengths(&self, w: &mut BitWriter) {
        for &l in &self.lengths {
            w.write_bits(l as u64, 4);
        }
    }

    /// Emits one symbol.
    #[inline]
    #[expect(clippy::indexing_slicing, reason = "callers emit symbols of this table's alphabet")]
    pub fn write_symbol(&self, w: &mut BitWriter, sym: usize) {
        let len = self.lengths[sym];
        debug_assert!(len > 0, "symbol {sym} has no code");
        w.write_bits(self.codes[sym] as u64, len as u32);
    }

    /// Per-symbol code lengths (testing / size estimation).
    pub fn lengths(&self) -> &[u8] {
        &self.lengths
    }
}

/// Decoding table built from transmitted lengths.
pub struct Decoder {
    /// Number of codes of each length 0..=15.
    count: [u32; 16],
    /// First canonical code of each length.
    first: [u32; 16],
    /// Symbols sorted by (length, symbol).
    symbols: Vec<u16>,
    /// Offset into `symbols` of each length's first symbol.
    offset: [u32; 16],
}

impl Decoder {
    /// Reads an `n`-symbol length table and builds the decode structures.
    pub fn read_lengths(r: &mut BitReader, n: usize) -> Self {
        let lengths: Vec<u8> = (0..n).map(|_| r.read_bits(4) as u8).collect();
        Self::from_lengths(&lengths)
    }

    /// Builds decode structures from explicit lengths.
    #[expect(
        clippy::indexing_slicing,
        reason = "4-bit lengths index the 16-entry tables, and `symbols` holds one slot per \
                  coded symbol"
    )]
    pub fn from_lengths(lengths: &[u8]) -> Self {
        let mut count = [0u32; 16];
        for &l in lengths {
            count[l as usize] += 1;
        }
        count[0] = 0;
        let mut first = [0u32; 16];
        let mut offset = [0u32; 16];
        let mut code = 0u32;
        let mut sym_base = 0u32;
        for len in 1..=15usize {
            code <<= 1;
            first[len] = code;
            offset[len] = sym_base;
            code += count[len];
            sym_base += count[len];
        }
        let mut symbols = vec![0u16; sym_base as usize];
        let mut next = offset;
        for (sym, &l) in lengths.iter().enumerate() {
            if l > 0 {
                symbols[next[l as usize] as usize] = sym as u16;
                next[l as usize] += 1;
            }
        }
        Self { count, first, symbols, offset }
    }

    /// Decodes one symbol, reading bits as needed. Returns `None` when the
    /// accumulated bits match no code of any length — which is how a corrupt
    /// or exhausted stream manifests (the reader zero-fills past its end, so
    /// callers should also check [`BitReader::overrun`] to distinguish
    /// truncation from an all-zeros code being decoded forever).
    #[inline]
    #[expect(
        clippy::indexing_slicing,
        reason = "len ranges over 1..=15 into fixed 16-entry tables, and \
                  idx < offset[len] + count[len] <= symbols.len() by the canonical-code \
                  construction in `from_lengths`"
    )]
    pub fn try_read_symbol(&self, r: &mut BitReader) -> Option<usize> {
        let mut code = 0u32;
        for len in 1..=15usize {
            code = (code << 1) | r.read_bit() as u32;
            let c = self.count[len];
            if c > 0 && code.wrapping_sub(self.first[len]) < c {
                let idx = self.offset[len] + (code - self.first[len]);
                return Some(self.symbols[idx as usize] as usize);
            }
        }
        None
    }
}

/// Computes length-limited Huffman code lengths for `freq`.
#[expect(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    reason = "node ids index the `2m - 1`-node forest, and the heap holds two nodes per merge"
)]
fn build_lengths(freq: &[u32]) -> Vec<u8> {
    let n = freq.len();
    let used: Vec<usize> = (0..n).filter(|&i| freq[i] > 0).collect();
    let mut lengths = vec![0u8; n];
    match used.len() {
        0 => return lengths,
        1 => {
            lengths[used[0]] = 1;
            return lengths;
        }
        _ => {}
    }

    // Standard Huffman over the used symbols (parent-pointer forest).
    #[derive(PartialEq, Eq)]
    struct Node {
        weight: u64,
        id: usize,
    }
    impl Ord for Node {
        fn cmp(&self, other: &Self) -> core::cmp::Ordering {
            // Min-heap via reversed comparison; break ties by id for determinism.
            other.weight.cmp(&self.weight).then(other.id.cmp(&self.id))
        }
    }
    impl PartialOrd for Node {
        fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    let m = used.len();
    let mut parent = vec![usize::MAX; 2 * m - 1];
    let mut heap: std::collections::BinaryHeap<Node> = used
        .iter()
        .enumerate()
        .map(|(leaf, &sym)| Node { weight: freq[sym] as u64, id: leaf })
        .collect();
    let mut next_id = m;
    while heap.len() > 1 {
        let a = heap.pop().unwrap();
        let b = heap.pop().unwrap();
        parent[a.id] = next_id;
        parent[b.id] = next_id;
        heap.push(Node { weight: a.weight + b.weight, id: next_id });
        next_id += 1;
    }
    // Depth of each leaf = chain length to the root.
    for (leaf, &sym) in used.iter().enumerate() {
        let mut depth = 0u32;
        let mut node = leaf;
        while parent[node] != usize::MAX {
            node = parent[node];
            depth += 1;
        }
        lengths[sym] = depth.min(MAX_LEN) as u8;
    }

    enforce_kraft(&mut lengths);
    lengths
}

/// Repairs the length assignment so the Kraft sum is exactly satisfiable
/// after clamping to [`MAX_LEN`] (the zlib-style fix-up).
#[expect(
    clippy::indexing_slicing,
    clippy::expect_used,
    reason = "indices range over `lengths`, and an over-subscribed code always has an \
              extendable length below MAX_LEN"
)]
fn enforce_kraft(lengths: &mut [u8]) {
    let unit = 1u64 << MAX_LEN;
    let weight = |l: u8| -> u64 {
        if l == 0 {
            0
        } else {
            1u64 << (MAX_LEN - l as u32)
        }
    };
    let mut total: u64 = lengths.iter().map(|&l| weight(l)).sum();
    // Over-subscribed: lengthen the longest-but-extendable codes.
    while total > unit {
        // Pick a symbol with the largest weight (smallest length) below MAX_LEN.
        let idx = (0..lengths.len())
            .filter(|&i| lengths[i] > 0 && (lengths[i] as u32) < MAX_LEN)
            .max_by_key(|&i| weight(lengths[i]))
            .expect("cannot satisfy Kraft inequality");
        total -= weight(lengths[idx]) / 2;
        lengths[idx] += 1;
    }
    // Under-subscribed is fine for decoding, but tightening improves ratio:
    // shorten codes while the budget allows.
    loop {
        let candidate = (0..lengths.len())
            .filter(|&i| lengths[i] > 1)
            .find(|&i| total + weight(lengths[i]) <= unit);
        match candidate {
            Some(i) => {
                total += weight(lengths[i]);
                lengths[i] -= 1;
            }
            None => break,
        }
    }
}

/// Assigns canonical codes for the given lengths.
#[expect(clippy::indexing_slicing, reason = "lengths of at most 15 index the 16-entry tables")]
fn canonical_codes(lengths: &[u8]) -> Vec<u16> {
    let mut count = [0u32; 16];
    for &l in lengths {
        count[l as usize] += 1;
    }
    count[0] = 0;
    let mut next = [0u32; 16];
    let mut code = 0u32;
    for len in 1..=15usize {
        code = (code + count[len - 1]) << 1;
        next[len] = code;
    }
    // Canonical order: by (length, symbol index).
    let mut codes = vec![0u16; lengths.len()];
    for len in 1..=15u8 {
        for (sym, &l) in lengths.iter().enumerate() {
            if l == len {
                codes[sym] = next[len as usize] as u16;
                next[len as usize] += 1;
            }
        }
    }
    codes
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_symbols(freq: &[u32], stream: &[usize]) {
        let enc = Encoder::from_frequencies(freq);
        let mut w = BitWriter::new();
        enc.write_lengths(&mut w);
        for &s in stream {
            enc.write_symbol(&mut w, s);
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        let dec = Decoder::read_lengths(&mut r, freq.len());
        for &s in stream {
            assert_eq!(dec.try_read_symbol(&mut r), Some(s));
        }
    }

    #[test]
    fn two_symbol_alphabet() {
        let freq = [10, 1, 0, 0];
        roundtrip_symbols(&freq, &[0, 0, 1, 0, 1, 1, 0]);
    }

    #[test]
    fn single_symbol_gets_length_one() {
        let freq = [0, 5, 0];
        let enc = Encoder::from_frequencies(&freq);
        assert_eq!(enc.lengths(), &[0, 1, 0]);
        roundtrip_symbols(&freq, &[1, 1, 1]);
    }

    #[test]
    fn skewed_frequencies_stay_within_limit() {
        // Fibonacci-ish frequencies force deep trees in plain Huffman.
        let mut freq = vec![0u32; 40];
        let (mut a, mut b) = (1u32, 1u32);
        for f in freq.iter_mut() {
            *f = a;
            let c = a.saturating_add(b);
            a = b;
            b = c;
        }
        let enc = Encoder::from_frequencies(&freq);
        assert!(enc.lengths().iter().all(|&l| l as u32 <= MAX_LEN));
        let stream: Vec<usize> = (0..40).collect();
        roundtrip_symbols(&freq, &stream);
    }

    #[test]
    fn kraft_sum_is_satisfied() {
        let freq: Vec<u32> = (1..=286).map(|i| (i * i) as u32 % 1000 + 1).collect();
        let enc = Encoder::from_frequencies(&freq);
        let sum: u64 =
            enc.lengths().iter().filter(|&&l| l > 0).map(|&l| 1u64 << (15 - l as u32)).sum();
        assert!(sum <= 1 << 15);
    }

    #[test]
    fn frequent_symbols_get_shorter_codes() {
        let mut freq = vec![1u32; 8];
        freq[3] = 1000;
        let enc = Encoder::from_frequencies(&freq);
        let l3 = enc.lengths()[3];
        assert!(enc.lengths().iter().enumerate().all(|(i, &l)| i == 3 || l >= l3));
    }

    #[test]
    fn uniform_large_alphabet() {
        let freq = vec![7u32; 286];
        let stream: Vec<usize> = (0..286).chain((0..286).rev()).collect();
        roundtrip_symbols(&freq, &stream);
    }
}
