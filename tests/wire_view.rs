//! The borrowed wire view against an independent reference.
//!
//! `alp::format::RowGroupView` is the only validator of a row-group body and
//! the decode kernels read their packed words straight from its bytes. This
//! suite holds both to a second implementation written here from the byte
//! layout and the check list in `crates/alp/src/format.rs`'s module docs: a
//! cursor that reads one field at a time, bit-at-a-time extraction of packed
//! values, `ALP_dec` and `GLUE` applied one value at a time. It calls nothing
//! of the view, the kernels or `fastlanes`.
//!
//! * **Corpus** — every `tests/golden/*` file (the frozen `"ALP1"`/`"ALPS"`
//!   ones included), every `datagen` dataset as `f64` and as `f32`, and
//!   hand-built vectors on the edges: all-exception, zero-width, 64-bit
//!   width, short tails, repeated and unsorted exception positions, RD codes
//!   past the dictionary. View decode, owned decode, `BodyColumn::vector`
//!   decode, `next_rowgroup`, `next_rowgroup_into`, `next_rowgroup_compressed`
//!   and `next_rowgroup_salvaged` must all equal the reference bit for bit.
//! * **Mutations** — seeded, structure-aware damage to frame bodies (a field
//!   set to a boundary value, a bit flipped, a cut, trailing bytes), the
//!   frame checksum re-stamped so the parser is what gets tested. View,
//!   `BodyColumn::from_bodies` and reference must return the same verdict — the same `FormatError`, or the
//!   same values — without a panic, a rejected body must cost no allocation
//!   at all, and an accepted one no request above its decoded size.

use std::collections::BTreeSet;

use alp::encode::{AlpVector, ExcArena};
use alp::format::{
    decode_rowgroup_into, from_bytes, from_bytes_salvage_parallel, read_rowgroup, to_bytes,
    write_rowgroup, BodyColumn, FormatError, RowGroupView,
};
use alp::rd::{RdMeta, RdVector};
use alp::rowgroup::AlpGroup;
use alp::stream::{ColumnReader, StreamError};
use alp::{AlpFloat, Compressor, RowGroup, SamplerParams, VECTOR_SIZE};
use alp_repro::corruption::{fault_seed, frame_spans, SplitMix64};

mod common;
use common::gauge;

#[global_allocator]
static GLOBAL: common::CountingAlloc = common::CountingAlloc;

// ---------------------------------------------------------------------------
// The reference: per-field reads, one value at a time.
// ---------------------------------------------------------------------------

mod reference {
    use alp::format::FormatError;
    use alp::AlpFloat;

    /// What a field holds, for the mutator to aim at.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Kind {
        Scheme,
        Count,
        LeftWidth,
        CodeWidth,
        DictLen,
        Exponent,
        Factor,
        Width,
        Len,
        Base,
        ExcCount,
        ExcPos,
        Payload,
    }

    /// One field of a parsed body: where it sits and how many bytes it spans.
    #[derive(Debug, Clone, Copy)]
    pub struct Field {
        pub kind: Kind,
        pub at: usize,
        pub len: usize,
    }

    pub struct Parsed<F> {
        pub values: Vec<F>,
        pub vectors: usize,
        /// Bytes of the buffer the row-group occupies.
        pub consumed: usize,
        pub fields: Vec<Field>,
    }

    struct Cursor<'a> {
        buf: &'a [u8],
        at: usize,
        fields: Vec<Field>,
    }

    impl<'a> Cursor<'a> {
        fn bytes(&mut self, kind: Kind, n: usize) -> Result<&'a [u8], FormatError> {
            let end = self.at.checked_add(n).ok_or(FormatError::Truncated)?;
            let bytes = self.buf.get(self.at..end).ok_or(FormatError::Truncated)?;
            self.fields.push(Field { kind, at: self.at, len: n });
            self.at = end;
            Ok(bytes)
        }

        fn uint(&mut self, kind: Kind, n: usize) -> Result<u64, FormatError> {
            let bytes = self.bytes(kind, n)?;
            Ok(bytes.iter().rev().fold(0u64, |v, &b| v << 8 | u64::from(b)))
        }
    }

    /// Value `i` of a packed stream: stream bits `[i * width, (i + 1) * width)`,
    /// bit `k` of the stream being bit `k % 8` of byte `k / 8`.
    fn extract(stream: &[u8], width: usize, i: usize) -> u64 {
        (0..width).fold(0u64, |v, b| {
            let bit = i * width + b;
            v | u64::from((stream[bit / 8] >> (bit % 8)) & 1) << b
        })
    }

    fn u16_at(bytes: &[u8], i: usize) -> u16 {
        u16::from(bytes[2 * i]) | u16::from(bytes[2 * i + 1]) << 8
    }

    fn u64_at(bytes: &[u8], i: usize) -> u64 {
        (0..8).rev().fold(0u64, |v, b| v << 8 | u64::from(bytes[8 * i + b]))
    }

    fn corrupt<T>(what: &'static str) -> Result<T, FormatError> {
        Err(FormatError::Corrupt(what))
    }

    /// Parses and decodes the row-group at the head of `buf`.
    pub fn parse_rowgroup<F: AlpFloat>(buf: &[u8]) -> Result<Parsed<F>, FormatError> {
        let mut cur = Cursor { buf, at: 0, fields: Vec::new() };
        let scheme = cur.uint(Kind::Scheme, 1)?;
        let vectors = cur.uint(Kind::Count, 4)? as usize;
        let mut values = Vec::new();
        match scheme {
            0 => {
                for _ in 0..vectors {
                    alp_vector::<F>(&mut cur, &mut values)?;
                }
            }
            1 => {
                let left_width = cur.uint(Kind::LeftWidth, 1)? as usize;
                let code_width = cur.uint(Kind::CodeWidth, 1)? as usize;
                let dict_len = cur.uint(Kind::DictLen, 1)? as usize;
                if !(1..=16).contains(&left_width) {
                    return corrupt("rd left_width");
                }
                if !(1..=8).contains(&dict_len) {
                    return corrupt("rd dict size");
                }
                if code_width > 3 {
                    return corrupt("rd code width");
                }
                let dict = cur.bytes(Kind::Payload, 2 * dict_len)?;
                let dict: Vec<u16> = (0..dict_len).map(|i| u16_at(dict, i)).collect();
                let right_width = F::BITS as usize - left_width;
                for _ in 0..vectors {
                    rd_vector::<F>(&mut cur, &dict, code_width, right_width, &mut values)?;
                }
            }
            _ => return corrupt("scheme tag"),
        }
        Ok(Parsed { values, vectors, consumed: cur.at, fields: cur.fields })
    }

    /// [`parse_rowgroup`] for a frame body: exactly one row-group.
    pub fn parse_body<F: AlpFloat>(body: &[u8]) -> Result<Parsed<F>, FormatError> {
        let parsed = parse_rowgroup::<F>(body)?;
        if parsed.consumed != body.len() {
            return corrupt("row-group frame length");
        }
        Ok(parsed)
    }

    fn alp_vector<F: AlpFloat>(cur: &mut Cursor<'_>, out: &mut Vec<F>) -> Result<(), FormatError> {
        let e = cur.uint(Kind::Exponent, 1)? as u8;
        let f = cur.uint(Kind::Factor, 1)? as u8;
        let width = cur.uint(Kind::Width, 1)? as usize;
        let len = cur.uint(Kind::Len, 2)? as usize;
        let base = cur.uint(Kind::Base, 8)?;
        let exc = cur.uint(Kind::ExcCount, 2)? as usize;
        if width > 64 {
            return corrupt("alp bit_width");
        }
        if len > 1024 || exc > len {
            return corrupt("alp vector len/exceptions");
        }
        let packed = cur.bytes(Kind::Payload, 16 * width * 8)?;
        let positions = cur.bytes(Kind::ExcPos, 2 * exc)?;
        let raw = cur.bytes(Kind::Payload, 8 * exc)?;
        if (0..exc).any(|k| u16_at(positions, k) as usize >= len) {
            return corrupt("alp exception position");
        }
        if e > F::MAX_EXPONENT || f > e {
            return corrupt("alp exponent/factor");
        }
        // ALP_dec, one value at a time; then PATCH in list order.
        let start = out.len();
        for i in 0..len {
            let d = extract(packed, width, i).wrapping_add(base) as i64;
            out.push(F::from_i64(d) * F::f10(f) * F::if10(e));
        }
        for k in 0..exc {
            out[start + u16_at(positions, k) as usize] = F::from_bits_u64(u64_at(raw, k));
        }
        Ok(())
    }

    fn rd_vector<F: AlpFloat>(
        cur: &mut Cursor<'_>,
        dict: &[u16],
        code_width: usize,
        right_width: usize,
        out: &mut Vec<F>,
    ) -> Result<(), FormatError> {
        let len = cur.uint(Kind::Len, 2)? as usize;
        let exc = cur.uint(Kind::ExcCount, 2)? as usize;
        if len > 1024 || exc > len {
            return corrupt("rd vector len/exceptions");
        }
        let codes = cur.bytes(Kind::Payload, 16 * code_width * 8)?;
        let rights = cur.bytes(Kind::Payload, 16 * right_width * 8)?;
        let positions = cur.bytes(Kind::ExcPos, 2 * exc)?;
        let lefts = cur.bytes(Kind::Payload, 2 * exc)?;
        if (0..exc).any(|k| u16_at(positions, k) as usize >= len) {
            return corrupt("rd exception position");
        }
        // GLUE, one value at a time; then the exceptions' left parts.
        let start = out.len();
        let glue = |left: u16, i: usize| {
            F::from_bits_u64(u64::from(left) << right_width | extract(rights, right_width, i))
        };
        for i in 0..len {
            let code = extract(codes, code_width, i) as usize;
            out.push(glue(*dict.get(code).unwrap_or(&dict[0]), i));
        }
        for k in 0..exc {
            let p = u16_at(positions, k) as usize;
            out[start + p] = glue(u16_at(lefts, k), p);
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Helpers.
// ---------------------------------------------------------------------------

/// The bit patterns of an owned row-group's values.
fn owned_bits<F: AlpFloat>(rg: &RowGroup) -> Vec<u64> {
    let mut values = Vec::new();
    rg.decode_into(&mut [F::from_bits_u64(0); VECTOR_SIZE], &mut values);
    bits_of::<F>(&values)
}

fn bits_of<F: AlpFloat>(values: &[F]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits_u64()).collect()
}

/// `BodyColumn::from_bodies` over `body` alone, then every vector decoded on
/// its own through `BodyColumn::vector`, in order.
fn body_column_values<F: AlpFloat>(body: &[u8]) -> Result<Vec<F>, FormatError> {
    let column = BodyColumn::<F>::from_bodies(vec![body.to_vec()])?;
    let (mut buf, mut values) = ([F::from_bits_u64(0); VECTOR_SIZE], Vec::new());
    for v in 0..column.vector_count() {
        let n = column.vector(v).expect("every parsed vector is addressable").decode(&mut buf);
        values.extend_from_slice(&buf[..n]);
    }
    assert!(column.vector(column.vector_count()).is_none(), "one past the last vector");
    Ok(values)
}

/// An `"ALPT"` stream of `bodies`, one frame each, terminated (no footer:
/// reading does not need one).
fn stream_of<F: AlpFloat>(bodies: &[Vec<u8>]) -> Vec<u8> {
    let mut out = b"ALPT".to_vec();
    out.push(F::BITS as u8);
    for body in bodies {
        // `frame::encode` stamps the checksum of whatever the body is.
        alp::frame::encode(&mut out, |o| o.extend_from_slice(body));
    }
    out.extend_from_slice(&0u32.to_le_bytes());
    out
}

/// Holds every reader of one well-formed body to the reference; returns the
/// reference values.
fn check_body<F: AlpFloat>(body: &[u8], what: &str) -> Vec<F> {
    let want = reference::parse_body::<F>(body)
        .unwrap_or_else(|e| panic!("{what}: the reference refuses a well-formed body: {e}"));
    let want_bits = bits_of(&want.values);

    let view = RowGroupView::<F>::parse_exact(body).unwrap_or_else(|e| panic!("{what}: view: {e}"));
    assert_eq!(view.len(), want.values.len(), "{what}: view.len()");
    assert_eq!(view.vector_count(), want.vectors, "{what}: view.vector_count()");
    assert!(view.rest().is_empty(), "{what}");
    assert_eq!(view.vectors().map(|v| v.len()).sum::<usize>(), view.len(), "{what}");
    let mut out = Vec::new();
    let ((), _, largest) = gauge(|| view.decode_into(&mut out));
    assert_eq!(bits_of(&out), want_bits, "{what}: view decode");
    assert!(
        largest <= want.vectors * VECTOR_SIZE * size_of::<F>(),
        "{what}: view decode requested {largest} bytes for {} vectors",
        want.vectors
    );

    let mut out = Vec::new();
    decode_rowgroup_into::<F>(body, &mut out).unwrap_or_else(|e| panic!("{what}: {e}"));
    assert_eq!(bits_of(&out), want_bits, "{what}: decode_rowgroup_into");

    let by_vector = body_column_values::<F>(body).unwrap_or_else(|e| panic!("{what}: {e}"));
    assert_eq!(bits_of(&by_vector), want_bits, "{what}: BodyColumn::vector decode");

    let mut cursor = body;
    let owned = read_rowgroup::<F>(&mut cursor).unwrap_or_else(|e| panic!("{what}: owned: {e}"));
    assert!(cursor.is_empty(), "{what}: read_rowgroup leaves nothing");
    assert_eq!(owned.vector_count(), want.vectors, "{what}");
    assert_eq!(owned_bits::<F>(&owned), want_bits, "{what}: owned decode");
    // The owned copy writes back to the bytes it was read from.
    let mut rewritten = Vec::new();
    write_rowgroup::<F>(&mut rewritten, &owned);
    assert_eq!(rewritten, body, "{what}: to_owned → write_rowgroup");
    want.values
}

/// Holds the four stream read paths to `want`, row-group by row-group.
fn check_stream<F: AlpFloat>(stream: &[u8], want: &[Vec<F>], what: &str) {
    let want: Vec<Vec<u64>> = want.iter().map(|v| bits_of(v)).collect();
    let open = || ColumnReader::<F, _>::new(stream).expect("stream header");

    let mut reader = open();
    let mut got = Vec::new();
    while let Some(values) = reader.next_rowgroup().unwrap_or_else(|e| panic!("{what}: {e}")) {
        got.push(bits_of(&values));
    }
    assert_eq!(got, want, "{what}: next_rowgroup");

    let (mut reader, mut got, mut values) = (open(), Vec::new(), Vec::new());
    while reader.next_rowgroup_into(&mut values).unwrap_or_else(|e| panic!("{what}: {e}")) {
        got.push(bits_of(&values));
    }
    assert_eq!(got, want, "{what}: next_rowgroup_into");

    let (mut reader, mut got) = (open(), Vec::new());
    while let Some(rg) = reader.next_rowgroup_compressed().unwrap_or_else(|e| panic!("{what}: {e}"))
    {
        got.push(owned_bits::<F>(&rg));
    }
    assert_eq!(got, want, "{what}: next_rowgroup_compressed");

    let (mut reader, mut got) = (open(), Vec::new());
    while let Some(values) =
        reader.next_rowgroup_salvaged().unwrap_or_else(|e| panic!("{what}: {e}"))
    {
        got.push(bits_of(&values));
    }
    assert_eq!(got, want, "{what}: next_rowgroup_salvaged");
    assert!(reader.lost_rowgroups().is_empty() && reader.repaired_rowgroups().is_empty());
}

/// Checks `bodies` one by one, then together as a stream.
fn check_bodies<F: AlpFloat>(bodies: &[Vec<u8>], what: &str) -> Vec<Vec<F>> {
    let want: Vec<Vec<F>> = bodies
        .iter()
        .enumerate()
        .map(|(i, b)| check_body::<F>(b, &format!("{what} #{i}")))
        .collect();
    check_stream::<F>(&stream_of::<F>(bodies), &want, what);
    want
}

fn golden(name: &str) -> Vec<u8> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The row-group bodies of a golden file of any of the four layouts.
fn golden_bodies<F: AlpFloat>(bytes: &[u8]) -> Vec<Vec<u8>> {
    let framed = |at| -> Vec<Vec<u8>> {
        frame_spans(bytes, at)
            .into_iter()
            .filter(|span| !span.2)
            .map(|(start, end, _)| bytes[start + alp::frame::PREFIX_LEN..end].to_vec())
            .collect()
    };
    match &bytes[..4] {
        b"ALP2" => framed(4 + 1 + 8 + 4),
        b"ALPT" => framed(5),
        b"ALP1" => {
            // Bare bodies, one after the other; the header counts them.
            let count = u32::from_le_bytes(bytes[13..17].try_into().unwrap()) as usize;
            let mut at = 17;
            (0..count)
                .map(|_| {
                    let n =
                        reference::parse_rowgroup::<F>(&bytes[at..]).expect("ALP1 body").consumed;
                    at += n;
                    bytes[at - n..at].to_vec()
                })
                .collect()
        }
        b"ALPS" => {
            // `len:u32 | body`, ended by a zero length.
            let (mut at, mut bodies) = (5, Vec::new());
            loop {
                let n = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
                if n == 0 {
                    return bodies;
                }
                bodies.push(bytes[at + 4..at + 4 + n].to_vec());
                at += 4 + n;
            }
        }
        other => panic!("unknown golden magic {other:?}"),
    }
}

fn check_golden<F: AlpFloat>(name: &str) {
    let bytes = golden(name);
    let bodies = golden_bodies::<F>(&bytes);
    assert!(bodies.len() >= 4, "{name}: {} bodies", bodies.len());
    let want = check_bodies::<F>(&bodies, name);
    let flat: Vec<u64> = want.iter().flat_map(|v| bits_of(v)).collect();
    if name.starts_with("alpt") || name.starts_with("alps") {
        // The file itself (parity frames, footer and all), not a re-framing.
        check_stream::<F>(&bytes, &want, name);
    } else {
        let strict = from_bytes::<F>(&bytes).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(bits_of(&strict.decompress()), flat, "{name}: from_bytes");
        let salvage =
            from_bytes_salvage_parallel::<F>(&bytes, 1).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(salvage.is_complete(), "{name}");
        assert_eq!(
            bits_of(&salvage.column.decompress()),
            flat,
            "{name}: from_bytes_salvage_parallel"
        );
    }
}

#[test]
fn every_golden_file_decodes_to_the_reference_on_every_read_path() {
    for name in [
        "alp1_f64.bin",
        "alp2_f64.bin",
        "alp2_f64_parity2.bin",
        "alps_f64.bin",
        "alpt_f64.bin",
        "alpt_f64_parity2.bin",
    ] {
        check_golden::<f64>(name);
    }
    check_golden::<f32>("alp2_f32.bin");
    check_golden::<f32>("alpt_f32.bin");
}

/// Small row-groups, so every dataset yields several bodies and a ragged
/// tail.
fn small_rowgroups() -> Compressor {
    let params = SamplerParams { vectors_per_rowgroup: 2, ..SamplerParams::default() };
    Compressor::with_params(params).expect("valid params")
}

fn column_bodies<F: AlpFloat>(data: &[F]) -> Vec<Vec<u8>> {
    let bytes = to_bytes(&small_rowgroups().compress(data));
    let bodies = golden_bodies::<F>(&bytes);
    assert_eq!(bodies.len(), data.len().div_ceil(2 * VECTOR_SIZE));
    bodies
}

#[test]
fn every_dataset_decodes_to_the_reference_as_f64_and_f32() {
    let (mut alp, mut rd) = (0, 0);
    for (name, data) in datagen::all_datasets(4 * VECTOR_SIZE + 77, 99) {
        let bodies = column_bodies::<f64>(&data);
        rd += bodies.iter().filter(|b| b[0] == 1).count();
        alp += bodies.iter().filter(|b| b[0] == 0).count();
        let want = check_bodies::<f64>(&bodies, &format!("{name} f64"));
        let flat: Vec<u64> = want.iter().flat_map(|v| bits_of(v)).collect();
        assert_eq!(flat, bits_of(&data), "{name}: lossless");

        let narrow: Vec<f32> = data.iter().map(|&x| x as f32).collect();
        let want = check_bodies::<f32>(&column_bodies::<f32>(&narrow), &format!("{name} f32"));
        let flat: Vec<u64> = want.iter().flat_map(|v| bits_of(v)).collect();
        assert_eq!(flat, bits_of(&narrow), "{name}: lossless as f32");
    }
    assert!(alp > 20 && rd > 4, "both schemes must be in the corpus: {alp} ALP, {rd} RD bodies");
    let weights = datagen::ml_weights_f32(3 * VECTOR_SIZE + 5, 99);
    check_bodies::<f32>(&column_bodies::<f32>(&weights), "ml weights f32");
}

/// A hand-built ALP vector: random residuals at `width` over `base`,
/// exceptions at `positions` (in that order).
struct Shape {
    width: usize,
    base: i64,
    combo: (u8, u8),
    len: usize,
    positions: Vec<u16>,
}

impl Shape {
    fn new(width: usize, base: i64, combo: (u8, u8), len: usize, positions: &[u16]) -> Self {
        Self { width, base, combo, len, positions: positions.to_vec() }
    }

    /// Builds the vector; exception payloads are NaN-with-payload / -0 / -inf /
    /// subnormal / +0 bit patterns of an `F`.
    fn build<F: AlpFloat>(&self, rng: &mut SplitMix64, arena: &mut ExcArena) -> AlpVector {
        let mask = if self.width == 64 { u64::MAX } else { (1u64 << self.width) - 1 };
        let residuals: Vec<u64> = (0..VECTOR_SIZE).map(|_| rng.next_u64() & mask).collect();
        let payloads: [u64; 5] = match F::BITS {
            64 => [0x7FF8_DEAD_BEEF_0001, 0x8000_0000_0000_0000, 0xFFF0_0000_0000_0000, 1, 0],
            _ => [0x7FC0_1234, 0x8000_0000, 0xFF80_0000, 1, 0],
        };
        let exc_start = arena.len() as u32;
        for (k, &p) in self.positions.iter().enumerate() {
            arena.push(p, payloads[k % 5]);
        }
        AlpVector {
            exponent: self.combo.0,
            factor: self.combo.1,
            bit_width: self.width as u8,
            for_base: self.base,
            packed: fastlanes::bitpack::pack(&residuals, self.width),
            exc_start,
            exc_count: self.positions.len() as u16,
            len: self.len as u16,
        }
    }
}

fn edge_case_alp_body<F: AlpFloat>(rng: &mut SplitMix64) -> Vec<u8> {
    let mut arena = ExcArena::new();
    let combo = if F::BITS == 64 { (14, 12) } else { (5, 2) };
    let every: Vec<u16> = (0..100).collect();
    let shapes = [
        Shape::new(0, -7, combo, 100, &every), // all-exception, zero-width
        Shape::new(0, 123_456, combo, VECTOR_SIZE, &[]), // zero-width, constant
        Shape::new(64, i64::MIN, (0, 0), VECTOR_SIZE, &[0, 1023]), // 64-bit width
        Shape::new(64, -1, (F::MAX_EXPONENT, 0), 999, &[]), // 64-bit width, wrapping base
        Shape::new(13, -300, combo, 1, &[0]),  // short tails
        Shape::new(7, 1 << 40, combo, 63, &[62]),
        Shape::new(51, -(1 << 50), (0, 0), 65, &[63, 64]),
        Shape::new(10, 0, combo, 1000, &[0, 0, 5, 5, 5, 63, 64, 64, 999, 999]), // repeated
        Shape::new(21, 17, combo, VECTOR_SIZE, &[100, 3, 3, 70, 64, 0, 1023, 8]), // unsorted
    ];
    let vectors = shapes.iter().map(|shape| shape.build::<F>(rng, &mut arena)).collect();
    let mut body = Vec::new();
    write_rowgroup::<F>(&mut body, &RowGroup::Alp(AlpGroup { vectors, exceptions: arena }));
    body
}

fn edge_case_rd_body<F: AlpFloat>(rng: &mut SplitMix64, left_width: u8, dict: &[u16]) -> Vec<u8> {
    let right_width = F::BITS as usize - left_width as usize;
    let code_width = 2u8; // codes 0..=3 against a dictionary that may be shorter
    let left_mask = (1u32 << left_width) - 1;
    let mut vector = |len: usize, positions: &[u16]| {
        let codes: Vec<u64> = (0..VECTOR_SIZE).map(|_| rng.next_u64() & 3).collect();
        let rights: Vec<u64> =
            (0..VECTOR_SIZE).map(|_| rng.next_u64() & ((1u64 << right_width) - 1)).collect();
        RdVector {
            packed_codes: fastlanes::bitpack::pack(&codes, code_width as usize),
            packed_right: fastlanes::bitpack::pack(&rights, right_width),
            exc_positions: positions.to_vec(),
            exc_left: positions
                .iter()
                .map(|&p| (u32::from(p).wrapping_mul(2654435761) & left_mask) as u16)
                .collect(),
            len: len as u16,
        }
    };
    let vectors = vec![
        vector(VECTOR_SIZE, &[]),
        vector(VECTOR_SIZE, &[0, 63, 64, 1023]),
        vector(1000, &[7, 7, 7, 999, 0, 0]), // repeated
        vector(65, &[64, 3, 3, 0]),          // unsorted
        vector(1, &[0]),
    ];
    let meta = RdMeta { left_width, code_width, dict: dict.to_vec() };
    let mut body = Vec::new();
    write_rowgroup::<F>(&mut body, &RowGroup::Rd(meta, vectors));
    body
}

fn edge_case_bodies<F: AlpFloat>(seed: u64) -> Vec<Vec<u8>> {
    let mut rng = SplitMix64::new(seed);
    let mut empty = Vec::new();
    write_rowgroup::<F>(&mut empty, &RowGroup::Alp(AlpGroup::default()));
    vec![
        edge_case_alp_body::<F>(&mut rng),
        // A three-entry dictionary under two-bit codes: code 3 is entry 0.
        edge_case_rd_body::<F>(&mut rng, 16, &[0x3FF0, 0xBFF0, 0x7FF8]),
        edge_case_rd_body::<F>(&mut rng, 1, &[1]),
        edge_case_rd_body::<F>(&mut rng, 9, &[0x1FF, 0, 0xAA, 0x155]),
        empty,
    ]
}

#[test]
fn hand_built_edge_vectors_decode_to_the_reference() {
    check_bodies::<f64>(&edge_case_bodies::<f64>(1), "edge cases f64");
    check_bodies::<f32>(&edge_case_bodies::<f32>(2), "edge cases f32");
}

// ---------------------------------------------------------------------------
// Mutations.
// ---------------------------------------------------------------------------

/// One seeded, structure-aware mutation of `body` (whose fields the
/// reference located).
fn mutate(rng: &mut SplitMix64, body: &[u8], fields: &[reference::Field]) -> (Vec<u8>, String) {
    use reference::Kind;
    let mut out = body.to_vec();
    match rng.below(10) {
        0 => {
            let at = rng.below(out.len());
            out[at] ^= 1 << rng.below(8);
            (out, format!("bit flip at {at}"))
        }
        1 => {
            let cut = rng.below(out.len());
            out.truncate(cut);
            (out, format!("cut to {cut} bytes"))
        }
        2 => {
            // A cut on a field boundary, where off-by-one checks live.
            let field = fields[rng.below(fields.len())];
            out.truncate(field.at + [0, field.len][rng.below(2)]);
            (out, format!("cut at the edge of {field:?}"))
        }
        3 => {
            let extra = 1 + rng.below(16);
            out.extend((0..extra).map(|_| rng.next_u64() as u8));
            (out, format!("{extra} trailing bytes"))
        }
        _ => {
            // A header field set to a value on one side of its bound or the
            // other. Payload bytes are covered by the bit flips.
            let headers: Vec<_> = fields.iter().filter(|f| f.kind != Kind::Payload).collect();
            let field = *headers[rng.below(headers.len())];
            if field.len == 0 {
                return (out, "empty field".into());
            }
            let old = body[field.at..field.at + field.len]
                .iter()
                .rev()
                .fold(0u64, |v, &b| v << 8 | u64::from(b));
            let near = [old.wrapping_sub(1), old.wrapping_add(1)];
            let choices: &[u64] = match field.kind {
                Kind::Scheme => &[0, 1, 2, 0x41, 255],
                Kind::Count => &[0, near[0], near[1], 0xFFFF, u32::MAX as u64],
                Kind::LeftWidth => &[0, 1, 16, 17, 32, 64, 255],
                Kind::CodeWidth => &[0, 1, 3, 4, 64, 255],
                Kind::DictLen => &[0, 1, 8, 9, 255],
                Kind::Exponent => &[0, 10, 11, 21, 22, 23, 255],
                Kind::Factor => &[0, near[1], 10, 11, 21, 22, 255],
                Kind::Width => &[0, near[0], near[1], 63, 64, 65, 255],
                Kind::Len => &[0, near[0], near[1], 1023, 1024, 1025, 0xFFFF],
                Kind::ExcCount => &[0, near[0], near[1], 1024, 1025, 0xFFFF],
                Kind::Base => &[0, u64::MAX, 1 << 63, (1 << 63) - 1, 1 << 50],
                Kind::ExcPos | Kind::Payload => &[0, 1023, 1024, 0xFFFF],
            };
            let new = choices[rng.below(choices.len())];
            // An exception-position field is a list: aim at one entry.
            let (at, len) = match field.kind {
                Kind::ExcPos => (field.at + 2 * rng.below(field.len / 2), 2),
                _ => (field.at, field.len),
            };
            out[at..at + len].copy_from_slice(&new.to_le_bytes()[..len]);
            (out, format!("{:?} at {at} := {new}", field.kind))
        }
    }
}

/// Runs `rounds` mutations of each seed body; returns the `Corrupt` reasons
/// met and how many mutants were still accepted.
fn run_mutations<F: AlpFloat>(
    seeds: &[Vec<u8>],
    rounds: usize,
    rng: &mut SplitMix64,
    reasons: &mut BTreeSet<&'static str>,
) -> usize {
    let mut accepted = 0;
    for (s, seed) in seeds.iter().enumerate() {
        let layout = reference::parse_body::<F>(seed).expect("seed bodies are well-formed");
        for round in 0..rounds {
            let (body, label) = mutate(rng, seed, &layout.fields);
            let what = format!("{} seed #{s} round {round}: {label}", F::NAME);
            let want = reference::parse_body::<F>(&body);

            // The view: same verdict, and a refusal costs no allocation.
            let (got, events, _) = gauge(|| RowGroupView::<F>::parse_exact(&body));
            assert_eq!(events, 0, "{what}: parsing allocated");
            if body.is_empty() {
                // A zero-length frame is a stream's terminator, not a frame.
                assert_eq!(got.err(), want.err(), "{what}");
                continue;
            }
            // The owned reader and the stream readers over the re-stamped frame.
            let stream = stream_of::<F>(std::slice::from_ref(&body));
            let mut reader = ColumnReader::<F, _>::new(&stream[..]).expect("stream header");
            let mut cursor = &body[..];
            match (&want, &got) {
                (Err(want), Err(got)) => {
                    assert_eq!(got, want, "{what}");
                    if let FormatError::Corrupt(reason) = want {
                        reasons.insert(reason);
                    }
                    let column = body_column_values::<F>(&body);
                    assert_eq!(column.err().as_ref(), Some(want), "{what}: from_bodies");
                    let (owned, events, _) = gauge(|| read_rowgroup::<F>(&mut cursor));
                    // Unframed, trailing bytes are the next row-group's business.
                    if *want != FormatError::Corrupt("row-group frame length") {
                        assert_eq!(owned.err().as_ref(), Some(want), "{what}: read_rowgroup");
                        assert_eq!(events, 0, "{what}: a refused owned read allocated");
                    }
                    match reader.next_rowgroup() {
                        Err(StreamError::Format(got)) => assert_eq!(&got, want, "{what}: stream"),
                        other => panic!("{what}: next_rowgroup gave {other:?}"),
                    }
                    let mut reader = ColumnReader::<F, _>::new(&stream[..]).expect("header");
                    let (salvaged, _, largest) = gauge(|| reader.next_rowgroup_salvaged());
                    assert!(matches!(salvaged, Ok(None)), "{what}: salvage is total");
                    assert_eq!(reader.lost_rowgroups(), [0], "{what}: the loss is recorded");
                    assert!(largest < 64 << 10, "{what}: salvage requested {largest} bytes");
                }
                (Ok(want), Ok(view)) => {
                    accepted += 1;
                    let want_bits = bits_of(&want.values);
                    let ceiling = (want.vectors * VECTOR_SIZE * size_of::<F>()).max(64);
                    let mut out = Vec::new();
                    let ((), _, largest) = gauge(|| view.decode_into(&mut out));
                    assert_eq!(bits_of(&out), want_bits, "{what}: view decode");
                    assert!(largest <= ceiling, "{what}: decode requested {largest} bytes");
                    let owned =
                        read_rowgroup::<F>(&mut cursor).unwrap_or_else(|e| panic!("{what}: {e}"));
                    assert_eq!(owned_bits::<F>(&owned), want_bits, "{what}: owned decode");
                    let column = body_column_values::<F>(&body);
                    let column = column.unwrap_or_else(|e| panic!("{what}: from_bodies: {e}"));
                    assert_eq!(bits_of(&column), want_bits, "{what}: BodyColumn::vector decode");
                    let values = reader.next_rowgroup().unwrap_or_else(|e| panic!("{what}: {e}"));
                    assert_eq!(values.map(|v| bits_of(&v)), Some(want_bits), "{what}: stream");
                }
                (want, got) => panic!(
                    "{what}: reference {:?}, view {:?}",
                    want.as_ref().map(|p| p.values.len()),
                    got.as_ref().map(|v| v.len())
                ),
            }
        }
    }
    accepted
}

#[test]
fn ten_thousand_mutated_bodies_get_the_reference_verdict() {
    let mut rng = SplitMix64::new(fault_seed(18) ^ 0x5EED_B0D1E5);
    let mut reasons = BTreeSet::new();
    let mut seeds64 = golden_bodies::<f64>(&golden("alp2_f64.bin"));
    seeds64.extend(edge_case_bodies::<f64>(3));
    let mut seeds32 = golden_bodies::<f32>(&golden("alp2_f32.bin"));
    seeds32.extend(edge_case_bodies::<f32>(4));
    let rounds = 600;
    let total = rounds * (seeds64.len() + seeds32.len());
    assert!(total >= 10_000, "{total} mutations");
    let accepted = run_mutations::<f64>(&seeds64, rounds, &mut rng, &mut reasons)
        + run_mutations::<f32>(&seeds32, rounds, &mut rng, &mut reasons);
    // Both verdicts must be well represented, and every check of the list in
    // `format.rs`'s module docs must have fired.
    assert!(accepted > total / 20 && accepted < total * 3 / 4, "{accepted} of {total} accepted");
    let documented = [
        "alp bit_width",
        "alp exception position",
        "alp exponent/factor",
        "alp vector len/exceptions",
        "rd code width",
        "rd dict size",
        "rd exception position",
        "rd left_width",
        "rd vector len/exceptions",
        "row-group frame length",
        "scheme tag",
    ];
    assert_eq!(reasons.into_iter().collect::<Vec<_>>(), documented);
}
