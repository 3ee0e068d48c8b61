//! Registry-keyed storage envelope.
//!
//! One envelope works for every registered codec, replacing per-codec framing:
//!
//! ```text
//! magic "ALPC" | id_len: u8 | id bytes | count: u64 LE | payload_len: u64 LE
//!   | xxh64(payload, seed ^ count): u64 LE | frames | [trailing parity frames]
//! ```
//!
//! The codec id is stored by name, so a reader needs no out-of-band schema to
//! pick the right decoder — it looks the id up in the [`Registry`]. The
//! payload follows cut into slices of at most `SLICE_LEN` bytes, each an
//! [`alp::frame`] frame (`len | xxh64 | slice`) — the `"ALP2"` column's layout
//! with a registry header and opaque bodies. Per-slice checksums *localize*
//! damage; the header's whole-payload checksum stays as the end-to-end proof
//! that the reassembled (and possibly repaired) payload is what was written,
//! before any decoder sees the bytes. It is keyed by the value count: most
//! codecs' payloads do not say how many values they hold, so a damaged
//! `count` would otherwise decode — silently short, or long by whatever the
//! padding bits happen to spell.
//!
//! [`write_container_with_parity`] appends the layer's trailing `"ALPP"`
//! parity section, one parity frame per `group_size` slices, which
//! [`try_read_container_salvaged`] uses to rebuild any single damaged slice
//! per group. Strict readers never look at it. Truncation is not repairable —
//! the section trails the payload and is cut off with it.

use crate::codec::ColumnCodec;
use crate::error::CoreError;
use crate::registry::Registry;
use crate::scratch::Scratch;
use alp::format::FormatError;
use alp::frame::{self, Frame};
use alp::ParityConfig;

/// Envelope magic: ALP container.
pub const MAGIC: [u8; 4] = *b"ALPC";

/// Seed of the whole-payload checksum (distinct from the frame layer's seed
/// so the two integrity domains cannot be confused).
const CHECKSUM_SEED: u64 = 0xC0_17_A1_9E;

/// The header's checksum: of the whole payload, keyed by the value count.
fn payload_checksum(payload: &[u8], count: usize) -> u64 {
    alp::hash::xxh64(payload, CHECKSUM_SEED ^ count as u64)
}

/// Fixed bytes before the frames, excluding the variable-length id.
const FIXED_HEADER: usize = MAGIC.len() + 1 + 8 + 8 + 8;

/// Payload bytes per frame — the localization granularity of repair.
const SLICE_LEN: usize = 4096;

/// Wraps `codec`-compressed `data` in a self-describing checksummed envelope.
///
/// Errs with [`CoreError::Unsupported`] for ratio-only codecs.
pub fn write_container(
    codec: &dyn ColumnCodec,
    data: &[f64],
    scratch: &mut Scratch,
) -> Result<Vec<u8>, CoreError> {
    write_envelope(codec, data, scratch, None)
}

/// [`write_container`] plus the trailing parity section: any single damaged
/// slice per `parity.group_size` slices becomes reconstructible through
/// [`try_read_container_salvaged`].
///
/// Errs with [`CoreError::Config`] when the group size is out of range, or
/// [`CoreError::Unsupported`] for ratio-only codecs.
pub fn write_container_with_parity(
    codec: &dyn ColumnCodec,
    data: &[f64],
    scratch: &mut Scratch,
    parity: ParityConfig,
) -> Result<Vec<u8>, CoreError> {
    parity.validate()?;
    write_envelope(codec, data, scratch, Some(parity))
}

fn write_envelope(
    codec: &dyn ColumnCodec,
    data: &[f64],
    scratch: &mut Scratch,
    parity: Option<ParityConfig>,
) -> Result<Vec<u8>, CoreError> {
    let mut payload = std::mem::take(&mut scratch.stage);
    let result = codec.try_compress_into(data, &mut payload, scratch);
    let envelope = result.map(|()| {
        let id = codec.id().as_bytes();
        debug_assert!(id.len() <= u8::MAX as usize, "registry ids are short");
        let frames = payload.len().div_ceil(SLICE_LEN);
        let mut out = Vec::with_capacity(
            FIXED_HEADER + id.len() + payload.len() + frames * frame::PREFIX_LEN,
        );
        out.extend_from_slice(&MAGIC);
        out.push(id.len() as u8);
        out.extend_from_slice(id);
        out.extend_from_slice(&(data.len() as u64).to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&payload_checksum(&payload, data.len()).to_le_bytes());
        frame::encode_trailing(&mut out, parity, payload.chunks(SLICE_LEN), |o, slice| {
            o.extend_from_slice(slice)
        });
        out
    });
    scratch.stage = payload;
    envelope
}

/// The parsed envelope header and the framed region behind it.
struct Header<'a> {
    id: &'a str,
    count: usize,
    payload_len: usize,
    /// Stored checksum of the whole payload.
    stored: u64,
    /// `frames | [trailing parity frames]`.
    frames: &'a [u8],
}

/// Pops a little-endian `u64` off the front of `bytes`.
fn read_u64_le(bytes: &[u8]) -> Option<(u64, &[u8])> {
    let (word, rest) = bytes.split_first_chunk::<8>()?;
    Some((u64::from_le_bytes(*word), rest))
}

fn read_header(bytes: &[u8]) -> Result<Header<'_>, CoreError> {
    let truncated = || CoreError::Format(FormatError::Truncated);
    let rest = bytes.strip_prefix(&MAGIC).ok_or(CoreError::Format(FormatError::BadMagic))?;
    let (&id_len, rest) = rest.split_first().ok_or_else(truncated)?;
    let (id, rest) = rest.split_at_checked(id_len as usize).ok_or_else(truncated)?;
    let id = core::str::from_utf8(id)
        .map_err(|_| CoreError::Format(FormatError::Corrupt("container id is not utf-8")))?;
    let (count, rest) = read_u64_le(rest).ok_or_else(truncated)?;
    let (payload_len, rest) = read_u64_le(rest).ok_or_else(truncated)?;
    let (stored, frames) = read_u64_le(rest).ok_or_else(truncated)?;
    // A payload cannot be longer than the bytes that frame it.
    let count = usize::try_from(count).map_err(|_| truncated())?;
    let payload_len =
        usize::try_from(payload_len).ok().filter(|&n| n <= frames.len()).ok_or_else(truncated)?;
    Ok(Header { id, count, payload_len, stored, frames })
}

/// The end-to-end half of every read: the reassembled payload must have the
/// promised length and whole-payload checksum before the registry codec
/// named by the header decodes it into `out`.
fn decode_payload(
    header: &Header<'_>,
    payload: &[u8],
    out: &mut Vec<f64>,
    scratch: &mut Scratch,
) -> Result<&'static dyn ColumnCodec, CoreError> {
    if payload.len() != header.payload_len {
        return Err(CoreError::Format(FormatError::Corrupt("container payload length")));
    }
    let computed = payload_checksum(payload, header.count);
    if computed != header.stored {
        return Err(CoreError::Format(FormatError::ChecksumMismatch {
            rowgroup: 0,
            stored: header.stored,
            computed,
        }));
    }
    let codec =
        Registry::get(header.id).ok_or_else(|| CoreError::UnknownCodec(header.id.to_owned()))?;
    codec.try_decompress_into(payload, header.count, out, scratch)?;
    Ok(codec)
}

/// Strict reassembly: the payload's slice frames in order, each verified.
fn reassemble(header: &Header<'_>, payload: &mut Vec<u8>) -> Result<(), FormatError> {
    payload.clear();
    let mut rest = header.frames;
    let mut index = 0usize;
    while payload.len() < header.payload_len {
        let (frame, tail) = Frame::split(rest).ok_or(FormatError::Truncated)?;
        frame.check(index)?;
        payload.extend_from_slice(frame.body);
        rest = tail;
        index += 1;
    }
    Ok(())
}

/// Reads a container and decompresses its column into `out`. Strict: any
/// damaged slice is an error naming its index.
///
/// Returns the codec the envelope was written with.
pub fn try_read_container_into(
    bytes: &[u8],
    out: &mut Vec<f64>,
    scratch: &mut Scratch,
) -> Result<&'static dyn ColumnCodec, CoreError> {
    let header = read_header(bytes)?;
    let mut payload = std::mem::take(&mut scratch.stage);
    let result = reassemble(&header, &mut payload)
        .map_err(CoreError::Format)
        .and_then(|()| decode_payload(&header, &payload, out, scratch));
    scratch.stage = payload;
    result
}

/// Outcome of a salvage-with-repair container read.
pub struct ContainerSalvage {
    /// The codec the envelope was written with.
    pub codec: &'static dyn ColumnCodec,
    /// Payload slice indices that were rebuilt from the parity section (empty
    /// on a clean read). The decoded column is byte-identical to the
    /// uncorrupted original whenever this path returns `Ok`.
    pub repaired_chunks: Vec<usize>,
}

impl core::fmt::Debug for ContainerSalvage {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ContainerSalvage")
            .field("codec", &self.codec.id())
            .field("repaired_chunks", &self.repaired_chunks)
            .finish()
    }
}

/// [`try_read_container_into`] that *repairs* instead of merely detecting:
/// when the strict read fails on a damaged slice, the slices are verified on
/// up to `threads` morsel workers, at most one damaged slice per parity group
/// is rebuilt ([`frame::salvage`]), and the reassembled payload is re-verified
/// against the header checksum before decoding. Damage beyond that — two
/// slices in one group, no parity, truncation — surfaces the strict read's
/// error: detection without repair.
pub fn try_read_container_salvaged(
    bytes: &[u8],
    out: &mut Vec<f64>,
    scratch: &mut Scratch,
    threads: usize,
) -> Result<ContainerSalvage, CoreError> {
    let strict_err = match try_read_container_into(bytes, out, scratch) {
        Ok(codec) => return Ok(ContainerSalvage { codec, repaired_chunks: Vec::new() }),
        Err(e @ CoreError::Format(_)) => e,
        Err(e) => return Err(e),
    };
    let Ok(header) = read_header(bytes) else { return Err(strict_err) };
    let slices = header.payload_len.div_ceil(SLICE_LEN);
    let placement = frame::Placement::Trailing(slices);
    let salvaged = frame::salvage(header.frames, placement, threads);
    // Any slice still missing after repair is the strict read's error.
    let Some(payload) = salvaged.bodies.into_iter().collect::<Option<Vec<_>>>() else {
        return Err(strict_err);
    };
    match decode_payload(&header, &payload.concat(), out, scratch) {
        Ok(codec) => Ok(ContainerSalvage { codec, repaired_chunks: salvaged.repaired }),
        Err(_) => Err(strict_err),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<f64> {
        (0..2500).map(|i| (i as f64) * 0.01 - 7.25).collect()
    }

    #[test]
    fn roundtrips_every_serializable_codec() {
        let data = sample();
        let mut scratch = Scratch::new();
        let mut out = Vec::new();
        for codec in Registry::all().iter().filter(|c| !c.caps().ratio_only) {
            let frame = write_container(*codec, &data, &mut scratch).expect("compress");
            let found =
                try_read_container_into(&frame, &mut out, &mut scratch).expect("decompress");
            assert_eq!(found.id(), codec.id());
            assert_eq!(out, data, "{} container roundtrip", codec.id());
        }
    }

    /// Found by the differential driver's header mutations: `count` was the
    /// one header field nothing vouched for, so one flipped bit decoded a
    /// column one value long (the XOR decoders read the padding as "same as
    /// the last value"), a saturated field drove a multi-gigabyte decode, and
    /// the gpzip adapter's `count * 8` overflowed. The checksum is keyed by it.
    #[test]
    fn a_damaged_value_count_is_a_checksum_mismatch_for_every_codec() {
        let data = sample();
        let mut scratch = Scratch::new();
        for codec in Registry::all().iter().filter(|c| !c.caps().ratio_only) {
            let frame = write_container(*codec, &data, &mut scratch).expect("compress");
            let count_at = MAGIC.len() + 1 + codec.id().len();
            let lies = [data.len() as u64 ^ 1, data.len() as u64 - 1, 0, 1 << 40, u64::MAX];
            for lie in lies {
                let mut lying = frame.clone();
                lying[count_at..count_at + 8].copy_from_slice(&lie.to_le_bytes());
                let err = try_read_container_into(&lying, &mut Vec::new(), &mut scratch)
                    .map(|c| c.id())
                    .unwrap_err();
                assert!(
                    matches!(err, CoreError::Format(FormatError::ChecksumMismatch { .. })),
                    "{} claiming {lie}: {err:?}",
                    codec.id()
                );
            }
        }
    }

    #[test]
    fn ratio_only_codec_is_rejected_at_write() {
        let lwc = Registry::get("lwc-alp").expect("registered");
        let err = write_container(lwc, &sample(), &mut Scratch::new()).unwrap_err();
        assert!(matches!(err, CoreError::Unsupported { codec: "lwc-alp", .. }));
    }

    #[test]
    fn unknown_id_is_reported_by_name() {
        let mut scratch = Scratch::new();
        let alp_codec = Registry::get("alp").expect("registered");
        let mut frame = write_container(alp_codec, &sample(), &mut scratch).expect("compress");
        // Overwrite the stored id "alp" -> "zzz".
        frame[5..8].copy_from_slice(b"zzz");
        let err = try_read_container_into(&frame, &mut Vec::new(), &mut scratch)
            .map(|c| c.id())
            .unwrap_err();
        assert_eq!(err, CoreError::UnknownCodec("zzz".to_owned()));
    }

    #[test]
    fn payload_corruption_is_caught_by_checksum() {
        let mut scratch = Scratch::new();
        let alp_codec = Registry::get("alp").expect("registered");
        let mut frame = write_container(alp_codec, &sample(), &mut scratch).expect("compress");
        let last = frame.len() - 1;
        frame[last] ^= 0x40;
        let err = try_read_container_into(&frame, &mut Vec::new(), &mut scratch)
            .map(|c| c.id())
            .unwrap_err();
        assert!(
            matches!(err, CoreError::Format(alp::format::FormatError::ChecksumMismatch { .. })),
            "got {err:?}"
        );
    }

    /// The pre-frame-layer layout — header, then the payload as one raw run
    /// — must be refused with a typed error, as must a header promising more
    /// payload than the envelope holds.
    #[test]
    fn old_layout_and_lying_lengths_are_typed_errors() {
        let data = sample();
        let mut scratch = Scratch::new();
        let codec = Registry::get("alp").expect("registered");
        let mut payload = Vec::new();
        codec.try_compress_into(&data, &mut payload, &mut scratch).expect("compress");
        let mut old = Vec::new();
        old.extend_from_slice(&MAGIC);
        old.push(3);
        old.extend_from_slice(b"alp");
        old.extend_from_slice(&(data.len() as u64).to_le_bytes());
        old.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        old.extend_from_slice(&payload_checksum(&payload, data.len()).to_le_bytes());
        old.extend_from_slice(&payload);
        let mut out = Vec::new();
        for threads in [1usize, 4] {
            let err = try_read_container_salvaged(&old, &mut out, &mut scratch, threads)
                .map(|s| s.codec.id())
                .unwrap_err();
            assert!(matches!(err, CoreError::Format(_)), "got {err:?}");
        }

        let mut lying = write_container(codec, &data, &mut scratch).expect("compress");
        let len_at = MAGIC.len() + 1 + codec.id().len() + 8;
        lying[len_at..len_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let err = try_read_container_into(&lying, &mut out, &mut scratch).map(|c| c.id());
        assert_eq!(err.unwrap_err(), CoreError::Format(FormatError::Truncated));
    }

    #[test]
    fn parity_container_roundtrips_clean_for_every_codec() {
        let data = sample();
        let mut scratch = Scratch::new();
        let mut out = Vec::new();
        for codec in Registry::all().iter().filter(|c| !c.caps().ratio_only) {
            let frame = write_container_with_parity(
                *codec,
                &data,
                &mut scratch,
                ParityConfig { group_size: 4 },
            )
            .expect("compress");
            // The strict reader never looks at the trailing section.
            let found =
                try_read_container_into(&frame, &mut out, &mut scratch).expect("strict read");
            assert_eq!(found.id(), codec.id());
            assert_eq!(out, data, "{} strict read", codec.id());
            // The salvage reader reports a clean read.
            let salvage = try_read_container_salvaged(&frame, &mut out, &mut scratch, 1)
                .expect("salvage read");
            assert!(salvage.repaired_chunks.is_empty());
            assert_eq!(out, data, "{} salvage read", codec.id());
        }
    }

    #[test]
    fn parity_rejects_bad_group_size() {
        let err = write_container_with_parity(
            Registry::get("alp").unwrap(),
            &sample(),
            &mut Scratch::new(),
            ParityConfig { group_size: 0 },
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::Config(_)));
    }

    #[test]
    fn truncation_never_panics() {
        let mut scratch = Scratch::new();
        let alp_codec = Registry::get("alp").expect("registered");
        let frame = write_container(alp_codec, &sample(), &mut scratch).expect("compress");
        for cut in [0, 1, 3, 4, 5, 10, 20, frame.len() / 2, frame.len() - 1] {
            assert!(
                try_read_container_into(&frame[..cut], &mut Vec::new(), &mut scratch).is_err(),
                "truncation at {cut} must err"
            );
        }
    }
}
