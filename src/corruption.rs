//! Reusable corrupt-input fault-injection harness.
//!
//! Every decoder in the workspace claims the same contract for untrusted
//! bytes: *return `Err`, never panic, never read out of bounds, never
//! allocate unboundedly*. This module generates the adversarial corpus that
//! the differential driver (`tests/driver/mod.rs`, `assert_total`) runs
//! against each of them — truncations at boundary classes, single and multi
//! bit-flips, and random garbage — and the frame walkers it aims its
//! structure-aware mutations with.
//!
//! Everything is deterministic: cases derive from a caller-provided seed via
//! an inline SplitMix64, so a failure reproduces from its printed label.
//!
//! The I/O-side twin lives here too: seeded [`FaultPlan`] schedules
//! (re-exported from [`alp::io`]) and the [`transient_plans`] family, driven
//! by `tests/fault_injection.rs` and `tests/stream_faults.rs`.

/// The deterministic fault-injection vocabulary, re-exported from
/// [`alp::io`] so integration suites build seeded I/O fault schedules from
/// the same module that hands them the corrupt-input corpus. The base seed
/// comes from `ALP_FAULT_SEED` (see [`fault_seed`]); CI sweeps it as a
/// matrix.
pub use alp::io::{
    fault_seed, Fault, FaultPlan, FaultyRead, FaultyWrite, RetryPolicy, FAULT_SEED_ENV,
};

/// A named family of transient-fault schedules derived from one seed: the
/// cadences are pure functions of the seed, so a failure reproduces from the
/// seed alone. Hard faults (torn writes, poisoned ops) are deliberately not
/// in the family — those need byte offsets only the caller knows.
pub fn transient_plans(seed: u64) -> Vec<(String, FaultPlan)> {
    let mut rng = SplitMix64::new(seed);
    let t = 2 + rng.below(5) as u64;
    let s = 2 + rng.below(6) as u64;
    vec![
        (format!("transient 1-in-{t}"), FaultPlan::clean(seed).with_transients(t)),
        (format!("short 1-in-{s}"), FaultPlan::clean(seed).with_short_ops(s)),
        (
            format!("transient 1-in-{t} + short 1-in-{s}"),
            FaultPlan::clean(seed).with_transients(t).with_short_ops(s),
        ),
    ]
}

/// What a parity-aware fault case must do to a salvaging reader. The driver
/// (`tests/self_healing.rs`) asserts each expectation literally, on every
/// framed format; the cases themselves are pure functions of the
/// `ALP_FAULT_SEED` base.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ParityExpectation {
    /// Exactly one frame per parity group is damaged: salvage must repair
    /// every group and decode byte-identically to the pristine bytes.
    Repairs,
    /// Two frames inside one parity group are damaged: single-fault XOR
    /// parity cannot reconstruct, so salvage must degrade to an honest loss
    /// report — never silently return wrong values.
    DegradesToLoss,
    /// Only parity frames are damaged: the data path must read completely
    /// clean, with nothing lost and nothing repaired.
    DataClean,
}

/// One parity-aware corruption of a protected stream, column or container.
pub struct ParityCase {
    /// Reproducing description (`"one data frame corrupt per group: g0@1234"` …).
    pub label: String,
    /// The corrupted bytes.
    pub bytes: Vec<u8>,
    /// The contract the salvage path must uphold on these bytes.
    pub expect: ParityExpectation,
    /// Indices (in data-frame order, ascending) of the data frames hit.
    pub damaged: Vec<usize>,
}

/// Spans `(start, end, is_parity)` of the consecutive [`alp::frame`] frames
/// starting at byte `at`, up to the first thing that is not a whole frame (a
/// stream's terminator, the end of the buffer, a length running past it).
/// The one frame walker of the harness and the suites: aim corruption at a
/// specific frame's body rather than at raw offsets.
pub fn frame_spans(bytes: &[u8], mut at: usize) -> Vec<(usize, usize, bool)> {
    let mut spans = Vec::new();
    while let Some((frame, _)) = bytes.get(at..).and_then(alp::frame::Frame::split) {
        spans.push((at, at + frame.whole.len(), alp::frame::claims_parity(frame.whole)));
        at += frame.whole.len();
    }
    spans
}

/// [`frame_spans`] of an `"ALPT"` stream (frames start after its 5-byte
/// header).
pub fn stream_frame_spans(bytes: &[u8]) -> Vec<(usize, usize, bool)> {
    frame_spans(bytes, 5)
}

/// The three parity fault families over one parity-protected byte string
/// whose frames sit at `spans` (see [`frame_spans`]), derived from `seed`
/// alone. Placement-agnostic — the `g`-th run of `group_size` data frames
/// belongs to the `g`-th parity frame whether parity is interleaved (streams)
/// or trailing (columns, containers):
///
/// 1. one seed-picked data frame corrupted in *every* parity group
///    (must repair — each group absorbs one fault);
/// 2. two data frames corrupted inside *one* group (must degrade to a loss
///    report — beyond the single-fault repair budget);
/// 3. every parity frame corrupted, data frames untouched (data must read
///    clean — protection metadata is not payload).
///
/// Byte positions land strictly inside frame *bodies* (past the 12-byte
/// `len | xxh64` prefix) so the corruption models payload rot rather than
/// framing damage; the torn-framing classes live in [`truncations`].
pub fn parity_fault_family(
    original: &[u8],
    spans: &[(usize, usize, bool)],
    seed: u64,
) -> Vec<ParityCase> {
    let of_kind = |parity: bool| -> Vec<(usize, usize)> {
        spans.iter().filter(|s| s.2 == parity).map(|&(s, e, _)| (s, e)).collect()
    };
    let (data, parity) = (of_kind(false), of_kind(true));
    let group_size = parity
        .first()
        .and_then(|&(s, e)| alp::frame::Frame::split(&original[s..e])?.0.parse_parity())
        .map_or(data.len().max(1), |pb| pb.group_size);
    let groups: Vec<&[(usize, usize)]> = data.chunks(group_size).collect();

    let mut rng = SplitMix64::new(seed ^ 0x0F0F_0F0F_0F0F_0F0F);
    let prefix = alp::frame::PREFIX_LEN;
    let body =
        |(s, e): (usize, usize), rng: &mut SplitMix64| s + prefix + rng.below(e - s - prefix);
    let mut cases = Vec::new();

    // Family 1: one damaged data frame per group, all groups at once.
    let mut bytes = original.to_vec();
    let mut label = String::from("one data frame corrupt per group:");
    let mut damaged = Vec::new();
    for (gi, group) in groups.iter().enumerate() {
        let pick = rng.below(group.len());
        let pos = body(group[pick], &mut rng);
        bytes[pos] ^= 0xFF;
        label.push_str(&format!(" g{gi}@{pos}"));
        damaged.push(gi * group_size + pick);
    }
    cases.push(ParityCase { label, bytes, expect: ParityExpectation::Repairs, damaged });

    // Family 2: two damaged frames inside one group. Prefer a group with two
    // data frames; a single-frame group degrades the same way when its data
    // *and* parity frames are both hit.
    if let Some((gi, group)) = groups.iter().enumerate().find(|(_, g)| g.len() >= 2) {
        let mut bytes = original.to_vec();
        let a = body(group[0], &mut rng);
        let b = body(group[1], &mut rng);
        bytes[a] ^= 0xFF;
        bytes[b] ^= 0xFF;
        cases.push(ParityCase {
            label: format!("two data frames corrupt in group {gi}: @{a} @{b}"),
            bytes,
            expect: ParityExpectation::DegradesToLoss,
            damaged: vec![gi * group_size, gi * group_size + 1],
        });
    } else if let (Some(group), Some(&pframe)) = (groups.first(), parity.first()) {
        let mut bytes = original.to_vec();
        let a = body(group[0], &mut rng);
        let b = body(pframe, &mut rng);
        bytes[a] ^= 0xFF;
        bytes[b] ^= 0xFF;
        cases.push(ParityCase {
            label: format!("data + parity corrupt in group 0: @{a} @{b}"),
            bytes,
            expect: ParityExpectation::DegradesToLoss,
            damaged: vec![0],
        });
    }

    // Family 3: every parity frame damaged, all data frames pristine.
    if !parity.is_empty() {
        let mut bytes = original.to_vec();
        let mut label = String::from("all parity frames corrupt:");
        for (gi, &pframe) in parity.iter().enumerate() {
            let pos = body(pframe, &mut rng);
            bytes[pos] ^= 0xFF;
            label.push_str(&format!(" g{gi}@{pos}"));
        }
        cases.push(ParityCase {
            label,
            bytes,
            expect: ParityExpectation::DataClean,
            damaged: Vec::new(),
        });
    }
    cases
}

/// Minimal deterministic generator for corpus construction (SplitMix64).
/// Self-contained on purpose: the harness must not drag RNG dependencies
/// into the library build.
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// Seeds the generator.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// Next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }
}

/// One corrupted input: the mutated bytes plus a label that reproduces it.
pub struct Case {
    /// Human-readable description (`"truncate to 17"`, `"flip bit 3 of byte 90"`).
    pub label: String,
    /// The corrupted byte stream.
    pub bytes: Vec<u8>,
}

/// Truncations at the boundary classes that historically break decoders:
/// empty input, cuts inside the fixed header (1/4/8/13 bytes), fractional
/// cuts through the payload, and the off-by-one cut of the last byte.
pub fn truncations(original: &[u8]) -> Vec<Case> {
    let n = original.len();
    let mut cuts = vec![0, 1, 4, 8, 13, n / 4, n / 3, n / 2, 2 * n / 3, 3 * n / 4];
    cuts.push(n.saturating_sub(1));
    cuts.sort_unstable();
    cuts.dedup();
    cuts.retain(|&c| c < n);
    cuts.into_iter()
        .map(|c| Case { label: format!("truncate to {c} of {n}"), bytes: original[..c].to_vec() })
        .collect()
}

/// `count` single-bit flips at seed-derived positions spread over the input.
pub fn single_bit_flips(original: &[u8], seed: u64, count: usize) -> Vec<Case> {
    let mut rng = SplitMix64::new(seed);
    let mut cases = Vec::with_capacity(count);
    if original.is_empty() {
        return cases;
    }
    for _ in 0..count {
        let pos = rng.below(original.len());
        let bit = rng.below(8);
        let mut bytes = original.to_vec();
        bytes[pos] ^= 1 << bit;
        cases.push(Case { label: format!("flip bit {bit} of byte {pos}"), bytes });
    }
    cases
}

/// `count` cases of 2–8 simultaneous bit flips each.
pub fn multi_bit_flips(original: &[u8], seed: u64, count: usize) -> Vec<Case> {
    let mut rng = SplitMix64::new(seed ^ 0xA5A5_A5A5_A5A5_A5A5);
    let mut cases = Vec::with_capacity(count);
    if original.is_empty() {
        return cases;
    }
    for _ in 0..count {
        let flips = 2 + rng.below(7);
        let mut bytes = original.to_vec();
        let mut label = String::from("flip bits at");
        for _ in 0..flips {
            let pos = rng.below(bytes.len());
            let bit = rng.below(8);
            bytes[pos] ^= 1 << bit;
            label.push_str(&format!(" {pos}.{bit}"));
        }
        cases.push(Case { label, bytes });
    }
    cases
}

/// Random garbage buffers of the given sizes — streams that were never valid.
pub fn garbage(seed: u64, sizes: &[usize]) -> Vec<Case> {
    let mut rng = SplitMix64::new(seed ^ 0x5A5A_5A5A_5A5A_5A5A);
    sizes
        .iter()
        .map(|&len| Case {
            label: format!("garbage of {len} bytes"),
            bytes: (0..len).map(|_| rng.next_u64() as u8).collect(),
        })
        .collect()
}

/// The full corpus for one original stream: all of the above.
pub fn corpus(original: &[u8], seed: u64) -> Vec<Case> {
    let mut cases = truncations(original);
    cases.extend(single_bit_flips(original, seed, 64));
    cases.extend(multi_bit_flips(original, seed, 32));
    cases.extend(garbage(seed, &[0, 1, 7, 64, 1024, original.len().clamp(1, 1 << 16)]));
    cases
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_deterministic() {
        let original: Vec<u8> = (0..500u32).map(|i| (i % 251) as u8).collect();
        let a = corpus(&original, 7);
        let b = corpus(&original, 7);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.label, y.label);
            assert_eq!(x.bytes, y.bytes);
        }
    }

    #[test]
    fn flips_change_exactly_one_bit() {
        let original = vec![0u8; 64];
        for case in single_bit_flips(&original, 3, 16) {
            let flipped: u32 = case.bytes.iter().map(|b| b.count_ones()).sum();
            assert_eq!(flipped, 1, "{}", case.label);
        }
    }

    #[test]
    fn truncations_cover_empty_and_off_by_one() {
        let original = vec![9u8; 100];
        let cuts: Vec<usize> = truncations(&original).iter().map(|c| c.bytes.len()).collect();
        assert!(cuts.contains(&0));
        assert!(cuts.contains(&99));
        assert!(cuts.iter().all(|&c| c < 100));
    }
}
