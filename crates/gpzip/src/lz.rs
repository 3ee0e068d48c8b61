//! LZ77 matching stage: 4-byte hash chains over a 64 KiB window with
//! one-step lazy evaluation (the zlib strategy at a moderate effort level,
//! comparable to Zstd's default level 3 in spirit).

/// Maximum look-back distance.
pub const WINDOW: usize = 32 * 1024;
/// Minimum useful match length.
pub const MIN_MATCH: usize = 4;
/// Maximum match length (deflate-compatible length alphabet).
pub const MAX_MATCH: usize = 258;
/// Hash-chain probe budget per position.
const MAX_CHAIN: usize = 48;

const HASH_BITS: u32 = 15;
const HASH_SIZE: usize = 1 << HASH_BITS;

/// One token of the LZ stream. `Literals(n)` means "copy the next `n` input
/// bytes verbatim"; the bytes themselves stay in the input block (the entropy
/// stage reads them from there), keeping tokens compact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Token {
    /// Run of literal bytes.
    Literals(u32),
    /// Back-reference: copy `len` bytes from `dist` bytes back.
    Match {
        /// Copy length, `MIN_MATCH..=MAX_MATCH`.
        len: u32,
        /// Back-reference distance, `1..=WINDOW`.
        dist: u32,
    },
}

/// Reusable hash-chain matcher (tables are reset per block).
pub struct Matcher {
    head: Vec<i32>,
    prev: Vec<i32>,
}

impl Default for Matcher {
    fn default() -> Self {
        Self::new()
    }
}

impl Matcher {
    /// Creates a matcher with empty tables.
    pub fn new() -> Self {
        Self { head: vec![-1; HASH_SIZE], prev: Vec::new() }
    }

    #[inline]
    fn hash(data: &[u8], i: usize) -> usize {
        // Callers always leave `MIN_MATCH` bytes at `i`; map_or keeps the
        // helper panic-free.
        let v =
            data.get(i..).and_then(<[u8]>::first_chunk::<4>).map_or(0, |c| u32::from_le_bytes(*c));
        (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
    }

    /// Longest match for position `i`, searching the chain.
    #[expect(
        clippy::indexing_slicing,
        reason = "hashes are masked to the table size, chain entries are earlier positions, \
                  and match lengths are capped at `data.len() - i`"
    )]
    fn best_match(&self, data: &[u8], i: usize) -> Option<(usize, usize)> {
        if i + MIN_MATCH > data.len() {
            return None;
        }
        let max_len = (data.len() - i).min(MAX_MATCH);
        let mut best_len = MIN_MATCH - 1;
        let mut best_dist = 0usize;
        let mut cand = self.head[Self::hash(data, i)];
        let mut probes = MAX_CHAIN;
        while cand >= 0 && probes > 0 {
            let c = cand as usize;
            let dist = i - c;
            if dist > WINDOW {
                break;
            }
            // Cheap pre-check on the byte that would extend the best match.
            if data[c + best_len] == data[i + best_len] {
                let mut len = 0usize;
                while len < max_len && data[c + len] == data[i + len] {
                    len += 1;
                }
                if len > best_len {
                    best_len = len;
                    best_dist = dist;
                    if len == max_len {
                        break;
                    }
                }
            }
            cand = self.prev[c];
            probes -= 1;
        }
        (best_len >= MIN_MATCH).then_some((best_len, best_dist))
    }

    #[inline]
    #[expect(
        clippy::indexing_slicing,
        reason = "`prev` holds one entry per position and hashes are masked to the table size"
    )]
    fn insert(&mut self, data: &[u8], i: usize) {
        if i + MIN_MATCH <= data.len() {
            let h = Self::hash(data, i);
            self.prev[i] = self.head[h];
            self.head[h] = i as i32;
        }
    }

    /// Tokenizes one block.
    pub fn tokenize(&mut self, data: &[u8]) -> Vec<Token> {
        self.head.fill(-1);
        self.prev.clear();
        self.prev.resize(data.len(), -1);

        let mut tokens = Vec::new();
        let mut literal_run = 0u32;
        let mut i = 0usize;
        while i < data.len() {
            match self.best_match(data, i) {
                Some((mut len, mut dist)) => {
                    // One-step lazy matching: prefer a strictly longer match
                    // starting at the next byte.
                    if i + 1 < data.len() {
                        self.insert(data, i);
                        if let Some((nlen, ndist)) = self.best_match(data, i + 1) {
                            if nlen > len + 1 {
                                literal_run += 1;
                                i += 1;
                                len = nlen;
                                dist = ndist;
                            }
                        }
                    } else {
                        self.insert(data, i);
                    }
                    if literal_run > 0 {
                        tokens.push(Token::Literals(literal_run));
                        literal_run = 0;
                    }
                    tokens.push(Token::Match { len: len as u32, dist: dist as u32 });
                    // Index the covered positions (sparsely for speed).
                    let end = i + len;
                    let mut j = i + 1;
                    while j < end && j + MIN_MATCH <= data.len() {
                        self.insert(data, j);
                        j += if len > 64 { 3 } else { 1 };
                    }
                    i = end;
                }
                None => {
                    self.insert(data, i);
                    literal_run += 1;
                    i += 1;
                }
            }
        }
        if literal_run > 0 {
            tokens.push(Token::Literals(literal_run));
        }
        tokens
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Expands a token stream against its block (the reference decoder).
    fn expand(block_literals: &[u8], tokens: &[Token]) -> Vec<u8> {
        let mut out = Vec::new();
        let mut lit = 0usize;
        for t in tokens {
            match *t {
                Token::Literals(n) => {
                    out.extend_from_slice(&block_literals[lit..lit + n as usize]);
                    lit += n as usize;
                }
                Token::Match { len, dist } => {
                    let start = out.len() - dist as usize;
                    for k in 0..len as usize {
                        let b = out[start + k];
                        out.push(b);
                    }
                    lit += len as usize;
                }
            }
        }
        out
    }

    fn tokens_reconstruct(data: &[u8]) {
        let mut m = Matcher::new();
        let tokens = m.tokenize(data);
        assert_eq!(expand(data, &tokens), data);
    }

    #[test]
    fn literal_only_input() {
        tokens_reconstruct(b"abcdefgh");
    }

    #[test]
    fn overlapping_run_match() {
        tokens_reconstruct(&vec![9u8; 5000]);
    }

    #[test]
    fn repeated_phrase() {
        let data = b"hello world, hello world, hello world!".repeat(100);
        let mut m = Matcher::new();
        let tokens = m.tokenize(&data);
        // ~3900 bytes covered mostly by MAX_MATCH-length references.
        let matches = tokens.iter().filter(|t| matches!(t, Token::Match { .. })).count();
        assert!(matches >= data.len() / (MAX_MATCH + 1) - 1, "{matches}");
        assert_eq!(expand(&data, &tokens), data);
    }

    #[test]
    fn random_bytes_stay_literal_heavy() {
        let data: Vec<u8> =
            (0..10_000u64).map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as u8).collect();
        tokens_reconstruct(&data);
    }

    #[test]
    fn empty_input() {
        tokens_reconstruct(b"");
    }

    #[test]
    fn matcher_is_reusable_across_blocks() {
        let mut m = Matcher::new();
        let a = b"xyzxyzxyzxyz".repeat(50);
        let b = b"123123123123".repeat(50);
        let ta = m.tokenize(&a);
        let tb = m.tokenize(&b);
        assert_eq!(expand(&a, &ta), a);
        assert_eq!(expand(&b, &tb), b);
    }
}
