//! The integrity frame, the `"ALPP"` parity body and the group-repair rule —
//! the one mechanism beneath `"ALP2"` columns, `"ALPT"` streams and `"ALPC"`
//! containers. A format is its header, its footer and where its parity
//! frames sit; everything between is this module.
//!
//! ```text
//! frame       : len:u32 | xxh64(body, CHECKSUM_SEED):u64 | body[len]      (len > 0)
//! parity body : "ALPP" | group_size:u8 | count:u8 | max_len:u32 | xor[max_len]
//! ```
//!
//! **Frame.** Written by [`encode`], delimited and verified on a slice by
//! [`Frame::split`] / [`Frame::check`], read from an `io::Read` by
//! `read_len_prefixed`, which grows its buffer only as bytes actually arrive: a
//! lying length prefix cannot drive an allocation. A length of zero is never
//! a frame (streams use it as their terminator).
//!
//! **Parity.** Per `group_size` frames a protected writer emits one parity
//! frame: an ordinary frame whose body carries the byte-wise XOR of the
//! group's `count` frames — each taken *whole*, prefix included — zero-padded
//! to the longest. Row-group bodies start with a scheme tag (`0` or `1`),
//! never `'A'`, so the `"ALPP"` prefix is unambiguous, and readers that
//! predate parity skip the frame as unparseable. Streams put the parity frame
//! straight after its group ([`ParityAccumulator`]); columns and containers
//! collect them in a trailing section ([`encode_trailing`] / [`salvage`]).
//!
//! **Repair rule** ([`repair_group`]). A group with *exactly one* damaged
//! member, every other member present, is rebuilt by XORing the parity block
//! with the intact members, and accepted only if the result is itself a
//! frame whose stored checksum verifies and whose padding cancels to zero.
//! Two or more damaged members are beyond the protection level and stay lost.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use std::io::{self, Read};

use crate::format::FormatError;
use crate::hash::{xxh64, CHECKSUM_SEED};
use crate::io::{read_best_effort, RetryPolicy};
use crate::sampler::ConfigError;

/// Bytes before a frame's body: `len:u32 | xxh64:u64`.
pub const PREFIX_LEN: usize = 4 + 8;

/// Magic prefix of a parity frame body.
pub const PARITY_MAGIC: &[u8; 4] = b"ALPP";

/// Fixed bytes of a parity body before the XOR block.
const PARITY_BODY_HEADER: usize = 4 + 1 + 1 + 4;

/// Largest single buffer growth of [`read_len_prefixed`]: a default 100-vector
/// row-group frame (≤ ~0.8 MiB) still arrives in one step.
const READ_STEP: usize = 1 << 20;

/// Appends one frame to `out`: reserves the prefix, lets `body` append the
/// body bytes, then back-fills length and checksum. Every writer frames
/// through here, which keeps their bytes identical by construction.
#[expect(clippy::indexing_slicing, reason = "the prefix is reserved on entry")]
pub fn encode(out: &mut Vec<u8>, body: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    out.resize(start + PREFIX_LEN, 0);
    body(out);
    let body_start = start + PREFIX_LEN;
    let len = (out.len() - body_start) as u32;
    let checksum = xxh64(&out[body_start..], CHECKSUM_SEED);
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
    out[start + 4..body_start].copy_from_slice(&checksum.to_le_bytes());
}

/// A delimited frame inside a byte slice.
#[derive(Debug, Clone, Copy)]
pub struct Frame<'a> {
    /// `len | xxh64 | body`, exactly as written — the XOR unit of parity.
    pub whole: &'a [u8],
    /// The checksum recorded in the prefix.
    pub stored: u64,
    /// The body bytes the checksum covers.
    pub body: &'a [u8],
}

impl<'a> Frame<'a> {
    /// Delimits the frame at the head of `buf` by its length prefix and
    /// returns it with the bytes that follow; nothing is checksummed. `None`
    /// when the prefix is incomplete, zero, or runs past `buf`.
    pub fn split(buf: &'a [u8]) -> Option<(Frame<'a>, &'a [u8])> {
        let len = u32::from_le_bytes(*buf.first_chunk::<4>()?) as usize;
        if len == 0 {
            return None;
        }
        let (whole, rest) = buf.split_at_checked(PREFIX_LEN.checked_add(len)?)?;
        Some((Frame::over(whole)?, rest))
    }

    /// The frame view over `whole`, taking its extent on trust: the stored
    /// checksum is read where the prefix keeps it, the body is what follows.
    fn over(whole: &'a [u8]) -> Option<Frame<'a>> {
        let stored = u64::from_le_bytes(whole.get(4..PREFIX_LEN)?.try_into().ok()?);
        Some(Frame { whole, stored, body: whole.get(PREFIX_LEN..)? })
    }

    /// Verifies the body against the stored checksum; the error names
    /// `index` as the damaged row-group.
    pub fn check(&self, index: usize) -> Result<(), FormatError> {
        let computed = xxh64(self.body, CHECKSUM_SEED);
        if computed == self.stored {
            return Ok(());
        }
        Err(FormatError::ChecksumMismatch { rowgroup: index, stored: self.stored, computed })
    }

    /// Whether the body matches the stored checksum.
    pub fn verify(&self) -> bool {
        self.check(0).is_ok()
    }

    /// Parses the body as a parity body; `None` when it is not one or its
    /// layout is inconsistent (counts out of range, truncated XOR block).
    pub fn parse_parity(&self) -> Option<ParityBody<'a>> {
        let fields = self.body.strip_prefix(PARITY_MAGIC)?;
        let group_size = usize::from(*fields.first()?);
        let count = usize::from(*fields.get(1)?);
        let max_len = u32::from_le_bytes(fields.get(2..6)?.try_into().ok()?);
        let xor = self.body.get(PARITY_BODY_HEADER..)?;
        if group_size == 0 || count == 0 || count > group_size {
            return None;
        }
        (u32::try_from(xor.len()) == Ok(max_len)).then_some(ParityBody { group_size, count, xor })
    }
}

/// What a frame read found at the head of the source. `buf[..n]` is the
/// frame, or what arrived of it; anything past `n` is scratch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameRead {
    /// A whole frame of this many bytes.
    Frame(usize),
    /// A zero length prefix: the stream terminator.
    Terminator,
    /// The source ended mid-frame after this many bytes.
    Torn(usize),
}

/// Reads up to `n` bytes into `buf[at..at + n]`, extending `buf` in steps of
/// at most [`READ_STEP`]: the next step is only allocated once the previous
/// one filled. Returns the bytes read; fewer than `n` means the source ended.
fn read_bounded<R: Read + ?Sized>(
    source: &mut R,
    buf: &mut Vec<u8>,
    at: usize,
    n: usize,
    retry: &RetryPolicy,
) -> io::Result<usize> {
    let mut got = 0usize;
    while got < n {
        let step = (n - got).min(READ_STEP);
        let end = at + got + step;
        if buf.len() < end {
            buf.resize(end, 0);
        }
        let Some(dst) = buf.get_mut(at + got..end) else { break };
        let arrived = read_best_effort(source, dst, retry)?;
        got += arrived;
        if arrived < step {
            break;
        }
    }
    Ok(got)
}

/// Reads `len:u32 | extra bytes | body[len]` into the reused `buf` under
/// `retry` — the one `Read`-side parser of the length prefix, with `extra = 8`
/// for frames and `0` for the legacy checksum-less `"ALPS"` layout. The
/// length is untrusted: the buffer grows only as bytes arrive, so an input
/// claiming a gigabyte it does not have costs one [`READ_STEP`]. Hard faults
/// and exhausted retry budgets are `Err`.
pub(crate) fn read_len_prefixed<R: Read + ?Sized>(
    source: &mut R,
    buf: &mut Vec<u8>,
    extra: usize,
    retry: &RetryPolicy,
) -> io::Result<FrameRead> {
    let got = read_bounded(source, buf, 0, 4, retry)?;
    let Some(len) = buf.get(..got).and_then(|b| b.first_chunk::<4>()) else {
        return Ok(FrameRead::Torn(got));
    };
    let len = u32::from_le_bytes(*len);
    if len == 0 {
        return Ok(FrameRead::Terminator);
    }
    let rest = usize::try_from(len).unwrap_or(usize::MAX).saturating_add(extra);
    let got = read_bounded(source, buf, 4, rest, retry)?;
    Ok(if got == rest { FrameRead::Frame(4 + rest) } else { FrameRead::Torn(4 + got) })
}

/// Whether whole frame bytes announce a parity frame. It holds for damaged
/// bytes too — torn short, or failing their checksum — and damage there costs
/// no data: rot would have to forge the magic over a scheme tag to lie.
pub fn claims_parity(damaged: &[u8]) -> bool {
    damaged.get(PREFIX_LEN..PREFIX_LEN + 4) == Some(PARITY_MAGIC.as_slice())
}

/// Erasure-protection knob for the framed writers: emit one parity frame per
/// `group_size` frames, making any single damaged frame per group
/// reconstructible at ~`1/group_size` storage overhead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParityConfig {
    /// Frames per parity group. Small groups repair more independent faults;
    /// large groups cost less space.
    pub group_size: usize,
}

impl ParityConfig {
    /// Validates the group size: at least 1 (full replication) and at most
    /// 255 (the body's `count` field is a byte).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.group_size == 0 || self.group_size > 255 {
            return Err(ConfigError { param: "parity group_size" });
        }
        Ok(())
    }
}

/// The one XOR fold: `acc[i] ^= frame[i]` over the shorter of the two.
fn xor_into(acc: &mut [u8], frame: &[u8]) {
    for (a, b) in acc.iter_mut().zip(frame) {
        *a ^= *b;
    }
}

/// Writer-side parity state: fold in each committed frame, get the group's
/// parity frame back the moment the group fills. Where that frame goes —
/// straight after the group, or into a trailer — is the format's placement.
#[derive(Debug)]
pub struct ParityAccumulator {
    group_size: usize,
    /// Running XOR of the group's frames, sized to the longest so far.
    acc: Vec<u8>,
    /// Frames folded into the current group.
    count: usize,
}

impl ParityAccumulator {
    /// Accumulator for a [validated](ParityConfig::validate) config.
    pub fn new(config: ParityConfig) -> Self {
        Self { group_size: config.group_size, acc: Vec::new(), count: 0 }
    }

    /// Folds one whole frame (prefix included) into the group; returns the
    /// encoded parity frame when this frame filled the group.
    pub fn push(&mut self, frame: &[u8]) -> Option<Vec<u8>> {
        if frame.len() > self.acc.len() {
            self.acc.resize(frame.len(), 0);
        }
        xor_into(&mut self.acc, frame);
        self.count += 1;
        if self.count < self.group_size {
            return None;
        }
        self.flush()
    }

    /// Encodes the pending (possibly partial) group's parity frame and
    /// resets; `None` when nothing is pending, so writers flush
    /// unconditionally at the end.
    pub fn flush(&mut self) -> Option<Vec<u8>> {
        if self.count == 0 {
            return None;
        }
        let mut frame = Vec::with_capacity(PREFIX_LEN + PARITY_BODY_HEADER + self.acc.len());
        encode(&mut frame, |body| {
            body.extend_from_slice(PARITY_MAGIC);
            body.push(self.group_size as u8);
            body.push(self.count as u8);
            body.extend_from_slice(&(self.acc.len() as u32).to_le_bytes());
            body.extend_from_slice(&self.acc);
        });
        self.acc.clear();
        self.count = 0;
        Some(frame)
    }
}

/// Trailing placement: frames one body per item into `out`, then appends the
/// parity frames (when `parity` is set) as one section after the last data
/// frame, where strict readers never look and [`salvage`] finds it again.
pub fn encode_trailing<T>(
    out: &mut Vec<u8>,
    parity: Option<ParityConfig>,
    items: impl IntoIterator<Item = T>,
    mut body: impl FnMut(&mut Vec<u8>, T),
) {
    let mut acc = parity.map(ParityAccumulator::new);
    let mut trailer = Vec::new();
    for item in items {
        let start = out.len();
        encode(out, |o| body(o, item));
        if let Some(pframe) = acc.as_mut().and_then(|a| a.push(out.split_at(start).1)) {
            trailer.extend_from_slice(&pframe);
        }
    }
    if let Some(pframe) = acc.as_mut().and_then(ParityAccumulator::flush) {
        trailer.extend_from_slice(&pframe);
    }
    out.extend_from_slice(&trailer);
}

/// A parsed parity body (see [`Frame::parse_parity`]).
#[derive(Debug, Clone, Copy)]
pub struct ParityBody<'a> {
    /// The writer's configured group size.
    pub group_size: usize,
    /// Frames this parity frame covers (`< group_size` only for a final,
    /// partial group).
    pub count: usize,
    /// The XOR block, padded to the group's longest frame.
    pub xor: &'a [u8],
}

/// The repair rule, once. `members` lists the group's frames in order:
/// `Some(whole frame bytes)` for an intact member, `None` for a damaged one.
/// Returns the victim's position and its rebuilt frame when exactly one
/// member is damaged, all `parity.count` members are accounted for, and the
/// reconstruction is a frame whose own checksum verifies with the XORed
/// padding cancelling to zero. `None` otherwise — more than one fault, a
/// missing member, or a parity block that lied.
pub fn repair_group(
    members: &[Option<&[u8]>],
    parity: &ParityBody<'_>,
) -> Option<(usize, Vec<u8>)> {
    if members.len() != parity.count {
        return None;
    }
    let mut damaged = members.iter().enumerate().filter(|(_, m)| m.is_none());
    let (victim, _) = damaged.next()?;
    if damaged.next().is_some() {
        return None;
    }
    let mut buf = parity.xor.to_vec();
    for member in members.iter().flatten() {
        // A member longer than the parity block was never folded into it.
        if member.len() > buf.len() {
            return None;
        }
        xor_into(&mut buf, member);
    }
    let (frame, padding) = Frame::split(&buf)?;
    if !frame.verify() || padding.iter().any(|&b| b != 0) {
        return None;
    }
    let total = frame.whole.len();
    buf.truncate(total);
    Some((victim, buf))
}

/// A trailing-placement region, delimited by [`locate`].
struct Located<'a> {
    /// The data frames in order.
    frames: Vec<Frame<'a>>,
    /// One entry per parity group, in group order; `None` where the group's
    /// parity frame is itself damaged (the group is simply unprotected).
    parity: Vec<Option<ParityBody<'a>>>,
    /// The writer's group size; 0 when no parity frame parsed.
    group_size: usize,
}

/// Start of the trailing parity section: the first offset where a
/// checksum-verified, well-formed parity frame begins. The magic sits
/// [`PREFIX_LEN`] bytes into the frame; checksum plus layout parse make a
/// false positive inside packed data vanishingly unlikely.
fn find_parity_section(buf: &[u8]) -> Option<usize> {
    let mut search = 0usize;
    while let Some(rel) = buf.get(search..)?.windows(4).position(|w| w == PARITY_MAGIC.as_slice()) {
        let start = (search + rel).checked_sub(PREFIX_LEN);
        let verified = start
            .and_then(|s| Frame::split(buf.get(s..)?))
            .is_some_and(|(f, _)| f.verify() && f.parse_parity().is_some());
        if verified {
            return start;
        }
        search += rel + 1;
    }
    None
}

/// Delimits up to `max_frames` data frames of a trailing-placement region
/// (`frames | [parity frames]`) by their length prefixes — nothing is
/// checksummed here — and parses the parity section behind them.
///
/// Without a parity section the walk ends at the first implausible length
/// and everything past it is lost. With one, the walk *resyncs*: the damaged
/// stretch up to the next checksum-verified frame start (or the section) is
/// recorded as one opaque damaged frame — parity can rebuild it — and the
/// walk continues on the re-found alignment.
fn locate(buf: &[u8], max_frames: usize) -> Located<'_> {
    let section = find_parity_section(buf);
    let data_end = section.unwrap_or(buf.len());
    let mut frames = Vec::with_capacity(max_frames.min(1 << 20));
    let mut off = 0usize;
    while frames.len() < max_frames && off < data_end {
        let region = buf.get(off..data_end).unwrap_or(&[]);
        if let Some((frame, _)) = Frame::split(region) {
            off += frame.whole.len();
            frames.push(frame);
            continue;
        }
        if section.is_none() {
            break;
        }
        // Destroyed length prefix. The smallest frame is a prefix plus one
        // body byte, so the next boundary is at least that far on.
        let resync = (off + PREFIX_LEN + 1..data_end).find(|&s| {
            buf.get(s..data_end).and_then(Frame::split).is_some_and(|(f, _)| f.verify())
        });
        // One opaque damaged frame. With only the length destroyed its view
        // still holds the true checksum and body, and it verifies.
        let whole = buf.get(off..resync.unwrap_or(data_end)).unwrap_or(&[]);
        off += whole.len();
        frames.push(Frame::over(whole).unwrap_or(Frame { whole, stored: 0, body: &[] }));
    }

    // A damaged parity frame with a plausible length leaves its group
    // unprotected; an implausible one ends the walk, since group order past
    // it cannot be trusted.
    let mut parity = Vec::new();
    let mut group_size = 0usize;
    let mut rest = section.and_then(|s| buf.get(s..)).unwrap_or(&[]);
    while let Some((frame, tail)) = Frame::split(rest) {
        rest = tail;
        let body = if frame.verify() { frame.parse_parity() } else { None };
        group_size = group_size.max(body.map_or(0, |pb| pb.group_size));
        parity.push(body);
    }
    Located { frames, parity, group_size }
}

/// The parity group size advertised by `buf`'s trailing parity section, when
/// it carries one (located by magic scan and checksum-verified). Callers use
/// this to re-encode a repaired column with the protection it had.
pub fn parity_group_size(buf: &[u8]) -> Option<usize> {
    Some(locate(buf, 0).group_size).filter(|&k| k > 0)
}

/// What [`salvage`] recovered from a trailing-placement region.
#[derive(Debug)]
pub struct Salvaged<T> {
    /// One slot per data frame delimited, in order: the decoded item, or
    /// `None` where the frame is damaged beyond repair.
    pub items: Vec<Option<T>>,
    /// Indices of the frames that were damaged and rebuilt from parity
    /// (their items are present), ascending.
    pub repaired: Vec<usize>,
}

/// The random-access walker over a trailing-placement region: delimits up
/// to `max_frames` data frames serially (`locate`), runs `decode` — which
/// must verify the frame it is handed — over them on up to `threads` morsel
/// workers, then applies [`repair_group`] to every parity group and decodes
/// each rebuilt frame through the same closure. The result is identical at
/// every thread count.
pub fn salvage<T: Send>(
    buf: &[u8],
    max_frames: usize,
    threads: usize,
    decode: impl Fn(&Frame<'_>, usize) -> Option<T> + Sync,
) -> Salvaged<T> {
    let located = locate(buf, max_frames);
    let frames = &located.frames;
    let mut items =
        crate::par::map_morsels(threads, frames.len(), || (), |(), m| decode(frames.get(m)?, m));
    let mut repaired = Vec::new();
    for (g, section) in located.parity.iter().enumerate() {
        let Some(pb) = section else { continue };
        let Some(start) = g.checked_mul(located.group_size) else { break };
        // Stops short at a member the walk never delimited, which
        // `repair_group` then refuses as a missing member.
        let members: Vec<Option<&[u8]>> = (start..start.saturating_add(pb.count))
            .map_while(|i| Some(items.get(i)?.as_ref().and(frames.get(i)).map(|f| f.whole)))
            .collect();
        let Some((victim, rebuilt)) = repair_group(&members, pb) else { continue };
        let item = Frame::split(&rebuilt).and_then(|(f, _)| decode(&f, start + victim));
        if let (Some(item), Some(slot)) = (item, items.get_mut(start + victim)) {
            *slot = Some(item);
            repaired.push(start + victim);
        }
    }
    Salvaged { items, repaired }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(body: &[u8]) -> Vec<u8> {
        let mut f = Vec::new();
        encode(&mut f, |o| o.extend_from_slice(body));
        f
    }

    fn group_parity(frames: &[Vec<u8>], group_size: usize) -> Vec<u8> {
        let mut acc = ParityAccumulator::new(ParityConfig { group_size });
        let mut emitted = None;
        for f in frames {
            assert!(emitted.is_none(), "group closed early");
            emitted = acc.push(f);
        }
        emitted.or_else(|| acc.flush()).expect("group pending")
    }

    #[test]
    fn encode_split_check_roundtrip() {
        let mut buf = frame(b"hello");
        buf.extend_from_slice(&frame(&[1u8; 40]));
        let (first, rest) = Frame::split(&buf).expect("first frame");
        assert_eq!(first.body, b"hello");
        assert_eq!(first.whole.len(), PREFIX_LEN + 5);
        assert!(first.verify());
        let (second, rest) = Frame::split(rest).expect("second frame");
        assert_eq!(second.body, &[1u8; 40]);
        assert!(rest.is_empty());
        // A zero length is a terminator, a short buffer is not a frame.
        assert!(Frame::split(&[0u8; 16]).is_none());
        assert!(Frame::split(&buf[..PREFIX_LEN + 4]).is_none());
        // A flipped body byte fails the check and names the index.
        let mut hurt = frame(b"hello");
        hurt[PREFIX_LEN] ^= 1;
        let (f, _) = Frame::split(&hurt).unwrap();
        assert!(matches!(f.check(7), Err(FormatError::ChecksumMismatch { rowgroup: 7, .. })));
    }

    #[test]
    fn config_bounds() {
        assert!(ParityConfig { group_size: 0 }.validate().is_err());
        assert!(ParityConfig { group_size: 256 }.validate().is_err());
        assert!(ParityConfig { group_size: 1 }.validate().is_ok());
        assert!(ParityConfig { group_size: 255 }.validate().is_ok());
    }

    #[test]
    fn parity_repairs_each_position_and_refuses_two_faults() {
        let frames = vec![frame(&[0u8, 1, 2, 3, 4, 5]), frame(&[1u8; 40]), frame(&[0u8, 9, 9])];
        let pframe = group_parity(&frames, 3);
        let (pf, _) = Frame::split(&pframe).unwrap();
        assert!(pf.verify() && claims_parity(pf.whole));
        let pb = pf.parse_parity().expect("well-formed parity body");
        assert_eq!((pb.group_size, pb.count), (3, 3));

        for missing in 0..frames.len() {
            let members: Vec<Option<&[u8]>> = frames
                .iter()
                .enumerate()
                .map(|(i, f)| (i != missing).then_some(f.as_slice()))
                .collect();
            let (victim, rebuilt) = repair_group(&members, &pb).expect("single loss repairs");
            assert_eq!(victim, missing);
            assert_eq!(rebuilt, frames[missing]);
        }
        // Two damaged members, no damaged member, a missing member: refused.
        let two = [None, None, Some(frames[2].as_slice())];
        assert!(repair_group(&two, &pb).is_none());
        let all: Vec<Option<&[u8]>> = frames.iter().map(|f| Some(f.as_slice())).collect();
        assert!(repair_group(&all, &pb).is_none());
        assert!(repair_group(&all[..2], &pb).is_none());
        // A wrong "intact" member makes the rebuilt frame fail its checksum.
        let wrong = frame(&[7u8; 6]);
        let lied = [None, Some(frames[1].as_slice()), Some(wrong.as_slice())];
        assert!(repair_group(&lied, &pb).is_none());
    }

    #[test]
    fn partial_group_flushes_with_its_count() {
        let mut acc = ParityAccumulator::new(ParityConfig { group_size: 8 });
        assert!(acc.push(&frame(&[1, 2, 3])).is_none());
        let pframe = acc.flush().expect("partial group");
        let pb = Frame::split(&pframe).unwrap().0.parse_parity().unwrap();
        assert_eq!((pb.group_size, pb.count), (8, 1));
        assert!(acc.flush().is_none());
    }

    #[test]
    fn malformed_parity_bodies_parse_to_none() {
        for body in [
            &b"ALPP"[..],
            b"ALPX\x02\x01\x00\x00\x00\x00",
            b"ALPP\x02\x03\x00\x00\x00\x00",    // count > group_size
            b"ALPP\x02\x02\x05\x00\x00\x00abc", // max_len disagrees with the block
        ] {
            let f = frame(body);
            assert!(Frame::split(&f).unwrap().0.parse_parity().is_none(), "{body:?}");
        }
    }

    #[test]
    fn trailing_placement_salvages_resyncs_and_repairs() {
        let bodies: Vec<Vec<u8>> = (0..5u8).map(|i| vec![i; 10 + usize::from(i) * 7]).collect();
        let mut region = Vec::new();
        let parity = Some(ParityConfig { group_size: 2 });
        encode_trailing(&mut region, parity, &bodies, |o, b| o.extend_from_slice(b));
        let body_of = |f: &Frame<'_>, _| f.verify().then(|| f.body.to_vec());

        assert_eq!(parity_group_size(&region), Some(2));
        let clean = salvage(&region, bodies.len(), 1, body_of);
        assert!(clean.repaired.is_empty());
        assert_eq!(clean.items, bodies.iter().cloned().map(Some).collect::<Vec<_>>());

        // Destroy frame 3's length prefix and a body byte: resync + repair,
        // identically at every thread count.
        let at: usize = bodies[..3].iter().map(|b| PREFIX_LEN + b.len()).sum();
        let mut hurt = region.clone();
        hurt[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        hurt[at + PREFIX_LEN + 2] ^= 0xFF;
        for threads in [1usize, 4] {
            let healed = salvage(&hurt, bodies.len(), threads, body_of);
            assert_eq!(healed.repaired, [3]);
            assert_eq!(healed.items, clean.items);
        }
        // A second fault in the same group is beyond the protection level.
        hurt[at - 1] ^= 0xFF;
        let lossy = salvage(&hurt, bodies.len(), 1, body_of);
        assert!(lossy.repaired.is_empty());
        assert_eq!(
            lossy.items.iter().map(Option::is_some).collect::<Vec<_>>(),
            [true, true, false, false, true]
        );

        // Without parity the same bytes are the same frames, and a destroyed
        // prefix ends the walk there.
        let mut plain = Vec::new();
        encode_trailing(&mut plain, None, &bodies, |o, b| o.extend_from_slice(b));
        assert_eq!(&plain[..], &region[..plain.len()]);
        assert_eq!(parity_group_size(&plain), None);
        plain[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(salvage(&plain, bodies.len(), 1, body_of).items.len(), 3);
    }

    /// A `Read` that never ends.
    struct Zeros;

    impl Read for Zeros {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            Ok(buf.len())
        }
    }

    /// The two shapes [`read_len_prefixed`] reads: an `"ALPT"` frame
    /// (`len | xxh64 | body`, `extra = PREFIX_LEN - 4`) and a legacy
    /// `"ALPS"` one (`len | body`, `extra = 0`), each with its whole length.
    fn prefixed_shapes(body: &[u8]) -> [(usize, Vec<u8>); 2] {
        let mut legacy = (body.len() as u32).to_le_bytes().to_vec();
        legacy.extend_from_slice(body);
        [(PREFIX_LEN - 4, frame(body)), (0, legacy)]
    }

    #[test]
    fn read_len_prefixed_classifies_whole_terminator_and_torn() {
        let retry = RetryPolicy::none();
        let mut buf = Vec::new();
        for (extra, whole) in prefixed_shapes(b"abcdef") {
            let read = |source: &mut &[u8], buf: &mut Vec<u8>| {
                read_len_prefixed(source, buf, extra, &retry).unwrap()
            };
            let mut source: &[u8] = &whole;
            assert_eq!(read(&mut source, &mut buf), FrameRead::Frame(whole.len()));
            assert_eq!(&buf[..whole.len()], &whole[..], "extra {extra}");
            assert_eq!(&buf[whole.len() - 6..whole.len()], b"abcdef");
            assert_eq!(read(&mut source, &mut buf), FrameRead::Torn(0));

            let mut source: &[u8] = &[0, 0, 0, 0, 9, 9];
            assert_eq!(read(&mut source, &mut buf), FrameRead::Terminator);
            assert_eq!(source, &[9, 9]);

            for cut in [2usize, 4, 5, whole.len() - 1] {
                let mut source: &[u8] = &whole[..cut];
                assert_eq!(read(&mut source, &mut buf), FrameRead::Torn(cut), "extra {extra}");
                assert_eq!(&buf[..cut], &whole[..cut]);
            }
        }
        let whole = frame(b"abcdef");
        assert_eq!(Frame::split(&whole).unwrap().0.body, b"abcdef");
        let mut source: &[u8] = &whole[..11];
        let read = read_len_prefixed(&mut source, &mut buf, PREFIX_LEN - 4, &retry).unwrap();
        assert_eq!(read, FrameRead::Torn(11));
        let torn = group_parity(&[frame(&[1; 9])], 1);
        assert!(claims_parity(&torn[..16]));
        assert!(!claims_parity(&torn[..15]));
        assert!(!claims_parity(&whole));
    }

    #[test]
    fn lying_length_costs_one_step_of_buffer() {
        for extra in [PREFIX_LEN - 4, 0] {
            // "1 GiB follows" backed by 8 bytes: the buffer grows by one step.
            let mut input = (1u32 << 30).to_le_bytes().to_vec();
            input.extend_from_slice(&[0u8; 8]);
            let mut buf = Vec::new();
            let mut source: &[u8] = &input;
            let read = read_len_prefixed(&mut source, &mut buf, extra, &RetryPolicy::none());
            assert_eq!(read.unwrap(), FrameRead::Torn(12));
            assert!(buf.capacity() <= 2 * READ_STEP, "capacity {}", buf.capacity());

            // A frame that really is 2.5 steps long still arrives whole.
            let len = 5 * READ_STEP / 2;
            let prefix = (len as u32).to_le_bytes();
            let mut source = prefix.as_slice().chain(Zeros);
            let read = read_len_prefixed(&mut source, &mut buf, extra, &RetryPolicy::none());
            assert_eq!(read.unwrap(), FrameRead::Frame(4 + extra + len));
        }
    }
}
