//! Golden wire files: the on-disk bytes of every format this workspace reads,
//! checked in under `tests/golden/` and held byte for byte.
//!
//! * `alp2_*` / `alpt_*` — the current `"ALP2"` column and `"ALPT"` stream
//!   layouts, plain and with `ParityConfig { group_size: 2 }`. Today's
//!   writers (serial, and pipelined at every threads × depth) must reproduce
//!   them exactly. They are regenerable — `cargo test --test golden_wire --
//!   --ignored bless` — because a later *encoder* change may legitimately
//!   move them; a framing refactor may not.
//! * `alp1_f64.bin` / `alps_f64.bin` — the legacy checksum-less layouts,
//!   frozen: they were written once by the V1 writers (`format::to_bytes_v1`,
//!   and the `"ALPS"` branch of `ColumnWriter`, at commit 0a5735f, with the
//!   [`params`] below) before those writers were deleted, and nothing in the
//!   workspace can regenerate them. They pin V1 *reading*, strict and salvage.
//!
//! Read together, the files hold every magic a writer or reader knows and
//! both row-group scheme tags, so no tag exists that no golden file pins.
//!
//! The input is small and deterministic (tiny `SamplerParams`, so every file
//! is a few KB): three one-vector row-groups — decimals carrying every
//! special bit-pattern class, real doubles that force ALP_rd, small decimals —
//! and a ragged 333-value tail.

use std::collections::BTreeSet;
use std::path::PathBuf;

use alp::archive::{self, Layout};
use alp::format::{
    from_bytes, from_bytes_salvage_parallel, to_bytes, to_bytes_with_parity, RowGroupView, MAGIC,
    MAGIC_V1, SCHEME_TAG_ALP, SCHEME_TAG_RD,
};
use alp::frame::{PARITY_MAGIC, PREFIX_LEN};
use alp::pipeline::{PipelineConfig, PipelinedColumnWriter};
use alp::stream::{ColumnReader, ColumnWriter, COMMIT_MAGIC, STREAM_MAGIC, STREAM_MAGIC_V1};
use alp::{AlpFloat, Compressor, ParityConfig, SamplerParams, Scheme};
use alp_repro::corruption::frame_spans;

const PARITY: ParityConfig = ParityConfig { group_size: 2 };

fn params() -> SamplerParams {
    SamplerParams { vectors_per_rowgroup: 1, sample_vectors: 1, ..SamplerParams::default() }
}

fn dataset_f64() -> Vec<f64> {
    let mut v: Vec<f64> = (0..1024).map(|i| ((i * 7) % 1000) as f64 / 100.0).collect();
    let specials = [
        f64::NAN,
        f64::from_bits(0x7FF8_0000_DEAD_BEEF),
        -0.0,
        0.0,
        5e-324,
        f64::MIN_POSITIVE / 4.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];
    for (slot, special) in specials.into_iter().enumerate() {
        v[17 + 101 * slot] = special;
    }
    v.extend((0..1024).map(|i| ((i as f64) * 0.377).sin() * 1e-4));
    v.extend((0..1024).map(|i| ((i % 97) as f64 - 50.0) / 1000.0));
    v.extend((0..333).map(|i| (i * 3) as f64));
    v
}

fn dataset_f32() -> Vec<f32> {
    let mut v: Vec<f32> = (0..1024).map(|i| ((i * 7) % 1000) as f32 / 100.0).collect();
    let specials = [
        f32::NAN,
        f32::from_bits(0x7FC0_BEEF),
        -0.0,
        0.0,
        1e-45,
        f32::MIN_POSITIVE / 4.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
    ];
    for (slot, special) in specials.into_iter().enumerate() {
        v[17 + 101 * slot] = special;
    }
    v.extend((0..1024).map(|i| ((i as f32) * 0.377).sin() * 1e-4));
    v.extend((0..1024).map(|i| ((i % 97) as f32 - 50.0) / 1000.0));
    v.extend((0..333).map(|i| (i * 3) as f32));
    v
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name)
}

fn golden(name: &str) -> Vec<u8> {
    std::fs::read(golden_path(name)).unwrap_or_else(|e| panic!("tests/golden/{name}: {e}"))
}

fn column_bytes<F: AlpFloat>(data: &[F], parity: Option<ParityConfig>) -> Vec<u8> {
    let compressed = Compressor::with_params(params()).expect("valid params").compress(data);
    match parity {
        None => to_bytes(&compressed),
        Some(p) => to_bytes_with_parity(&compressed, p).expect("valid parity"),
    }
}

fn stream_bytes<F: AlpFloat>(data: &[F], parity: Option<ParityConfig>) -> Vec<u8> {
    let mut sink = Vec::new();
    let mut writer = match parity {
        None => ColumnWriter::<F, _>::with_params(&mut sink, params()),
        Some(p) => ColumnWriter::<F, _>::with_params_and_parity(&mut sink, params(), p),
    }
    .expect("valid config");
    writer.push(data).expect("push");
    writer.finish().expect("finish");
    sink
}

fn pipelined_bytes<F: AlpFloat>(
    data: &[F],
    parity: Option<ParityConfig>,
    threads: usize,
    depth: usize,
) -> Vec<u8> {
    let mut sink = Vec::new();
    let config = PipelineConfig { threads, depth, panic_at: None };
    let mut writer = match parity {
        None => PipelinedColumnWriter::<F, _>::with_params(&mut sink, params(), config),
        Some(p) => {
            PipelinedColumnWriter::<F, _>::with_params_and_parity(&mut sink, params(), config, p)
        }
    }
    .expect("valid config");
    for chunk in data.chunks(777) {
        writer.push(chunk).expect("push");
    }
    writer.finish().expect("finish");
    sink
}

/// Every regenerable golden for one float width: `(file name, parity)`.
fn v2_goldens<F: AlpFloat>() -> Vec<(String, Option<ParityConfig>)> {
    let mut files = vec![(format!("{}.bin", F::NAME), None)];
    if F::BITS == 64 {
        files.push((format!("{}_parity2.bin", F::NAME), Some(PARITY)));
    }
    files
}

fn assert_bits_eq<F: AlpFloat>(expect: &[F], got: &[F], label: &str) {
    assert_eq!(expect.len(), got.len(), "{label}: length");
    for (i, (a, b)) in expect.iter().zip(got).enumerate() {
        assert_eq!(a.to_bits_u64(), b.to_bits_u64(), "{label}: value {i}");
    }
}

/// Drains a stream through the strict reader.
fn read_stream_strict<F: AlpFloat>(bytes: &[u8], label: &str) -> Vec<F> {
    let mut reader = ColumnReader::<F, _>::new(bytes).unwrap_or_else(|e| panic!("{label}: {e}"));
    let mut values = Vec::new();
    while let Some(rg) = reader.next_rowgroup().unwrap_or_else(|e| panic!("{label}: {e}")) {
        values.extend(rg);
    }
    assert!(reader.is_committed(), "{label}: committed");
    values
}

/// Drains a stream through the salvaging reader: `(values, lost, repaired)`.
fn read_stream_salvaged<F: AlpFloat>(
    bytes: &[u8],
    label: &str,
) -> (Vec<F>, Vec<usize>, Vec<usize>) {
    let mut reader = ColumnReader::<F, _>::new(bytes).unwrap_or_else(|e| panic!("{label}: {e}"));
    let mut values = Vec::new();
    while let Some(rg) = reader.next_rowgroup_salvaged().unwrap_or_else(|e| panic!("{label}: {e}"))
    {
        values.extend(rg);
    }
    assert!(reader.is_committed(), "{label}: committed");
    (values, reader.lost_rowgroups().to_vec(), reader.repaired_rowgroups().to_vec())
}

fn check_column_reads<F: AlpFloat>(name: &str, data: &[F]) {
    let bytes = golden(name);
    let strict = from_bytes::<F>(&bytes).unwrap_or_else(|e| panic!("{name}: strict: {e}"));
    let schemes: Vec<Scheme> = strict.rowgroups.iter().map(|rg| rg.scheme()).collect();
    assert_eq!(schemes, [Scheme::Alp, Scheme::AlpRd, Scheme::Alp, Scheme::Alp], "{name}: schemes");
    assert_bits_eq(data, &strict.decompress(), &format!("{name}: strict"));
    for threads in [1usize, 4] {
        let label = format!("{name}: salvage t={threads}");
        let salvage = from_bytes_salvage_parallel::<F>(&bytes, threads)
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        assert!(salvage.is_complete(), "{label}: complete");
        assert!(salvage.repaired_rowgroups.is_empty(), "{label}: nothing to repair");
        assert_bits_eq(data, &salvage.column.decompress(), &label);
    }
}

fn check_stream_reads<F: AlpFloat>(name: &str, data: &[F]) {
    let bytes = golden(name);
    assert_bits_eq(data, &read_stream_strict::<F>(&bytes, name), &format!("{name}: strict"));
    let (values, lost, repaired) = read_stream_salvaged::<F>(&bytes, name);
    assert!(lost.is_empty() && repaired.is_empty(), "{name}: clean salvage");
    assert_bits_eq(data, &values, &format!("{name}: salvage"));
}

fn check_writers_reproduce<F: AlpFloat>(data: &[F]) {
    for (suffix, parity) in v2_goldens::<F>() {
        let name = format!("alp2_{suffix}");
        assert!(column_bytes(data, parity) == golden(&name), "{name}: column writer diverged");
        let name = format!("alpt_{suffix}");
        let want = golden(&name);
        assert!(stream_bytes(data, parity) == want, "{name}: serial stream writer diverged");
        for threads in [1usize, 2] {
            for depth in [1usize, 2] {
                assert!(
                    pipelined_bytes(data, parity, threads, depth) == want,
                    "{name}: pipelined writer diverged at threads={threads} depth={depth}"
                );
            }
        }
    }
}

#[test]
fn todays_writers_reproduce_every_v2_golden() {
    check_writers_reproduce(&dataset_f64());
    check_writers_reproduce(&dataset_f32());
}

/// Records the tags `bytes` holds as the readers meet them: the leading magic
/// [`archive::sniff`] dispatches on, the magic of every parity frame, the
/// commit footer's magic after a stream's terminator, and the scheme tag of
/// every data frame body [`RowGroupView::parse_exact`] accepts.
fn record_tags(bytes: &[u8], magics: &mut BTreeSet<[u8; 4]>, schemes: &mut BTreeSet<u8>) {
    let magic = |at: usize| -> [u8; 4] { bytes[at..at + 4].try_into().expect("4 bytes") };
    let kind = archive::sniff(bytes).expect("a known magic");
    magics.insert(magic(0));
    if kind.legacy {
        return; // pre-checksum layouts have no frames
    }
    let header = match kind.layout {
        Layout::Column => COLUMN_FIRST_BODY - PREFIX_LEN,
        Layout::Stream => STREAM_FIRST_BODY - PREFIX_LEN,
    };
    let spans = frame_spans(bytes, header);
    for &(start, end, parity) in &spans {
        let body = &bytes[start + PREFIX_LEN..end];
        if parity {
            magics.insert(magic(start + PREFIX_LEN));
            continue;
        }
        let parsed = match kind.bits {
            64 => RowGroupView::<f64>::parse_exact(body).map(|_| ()),
            _ => RowGroupView::<f32>::parse_exact(body).map(|_| ()),
        };
        parsed.unwrap_or_else(|e| panic!("frame at {start}: {e}"));
        schemes.insert(body[0]);
    }
    if matches!(kind.layout, Layout::Stream) {
        let (_, last_end, _) = spans.last().expect("a stream with frames");
        magics.insert(magic(last_end + 4)); // past the 4-byte terminator
    }
}

#[test]
fn every_golden_reads_back_bit_exactly() {
    let f64_columns = ["alp2_f64.bin", "alp2_f64_parity2.bin", "alp1_f64.bin"];
    let f64_streams = ["alpt_f64.bin", "alpt_f64_parity2.bin", "alps_f64.bin"];
    let f64s = dataset_f64();
    for name in f64_columns {
        check_column_reads(name, &f64s);
    }
    for name in f64_streams {
        check_stream_reads(name, &f64s);
    }
    let f32s = dataset_f32();
    check_column_reads("alp2_f32.bin", &f32s);
    check_stream_reads("alpt_f32.bin", &f32s);

    let (mut magics, mut schemes) = (BTreeSet::new(), BTreeSet::new());
    for name in f64_columns.into_iter().chain(f64_streams).chain(["alp2_f32.bin", "alpt_f32.bin"]) {
        record_tags(&golden(name), &mut magics, &mut schemes);
    }
    let known = [MAGIC, MAGIC_V1, STREAM_MAGIC, STREAM_MAGIC_V1, COMMIT_MAGIC, PARITY_MAGIC];
    assert_eq!(magics, known.into_iter().copied().collect(), "magics in the golden set");
    assert_eq!(schemes, BTreeSet::from([SCHEME_TAG_ALP, SCHEME_TAG_RD]), "scheme tags");
}

/// Offset of the first frame's body: the format's fixed header, then the
/// frame's `len | xxh64` prefix.
const COLUMN_FIRST_BODY: usize = 4 + 1 + 8 + 4 + alp::frame::PREFIX_LEN;
const STREAM_FIRST_BODY: usize = 4 + 1 + alp::frame::PREFIX_LEN;

#[test]
fn one_flipped_body_byte_in_each_parity_golden_repairs_byte_identically() {
    let data = dataset_f64();

    let mut column = golden("alp2_f64_parity2.bin");
    column[COLUMN_FIRST_BODY + 40] ^= 0xFF;
    assert!(from_bytes::<f64>(&column).is_err(), "column damage must be real");
    for threads in [1usize, 4] {
        let salvage = from_bytes_salvage_parallel::<f64>(&column, threads).expect("salvage");
        assert_eq!(salvage.repaired_rowgroups, [0], "column t={threads}");
        assert!(salvage.is_complete(), "column t={threads}");
        assert_bits_eq(&data, &salvage.column.decompress(), "column repair");
    }
    assert_eq!(
        from_bytes_salvage_parallel::<f64>(&column, 1).expect("salvage").repaired_rowgroups,
        [0]
    );

    let mut stream = golden("alpt_f64_parity2.bin");
    stream[STREAM_FIRST_BODY + 40] ^= 0xFF;
    let (values, lost, repaired) = read_stream_salvaged::<f64>(&stream, "stream repair");
    assert!(lost.is_empty(), "stream: lost {lost:?}");
    assert_eq!(repaired, [0]);
    assert_bits_eq(&data, &values, "stream repair");
}

/// Rewrites the regenerable (`"ALP2"`/`"ALPT"`) goldens from today's
/// writers. Run deliberately, after an encoder change that is *meant* to
/// move the bytes; the V1 files have no writer left and are never touched.
#[test]
#[ignore = "rewrites tests/golden/*; run on purpose with --ignored"]
fn bless_v2_goldens() {
    fn bless<F: AlpFloat>(data: &[F]) {
        for (suffix, parity) in v2_goldens::<F>() {
            std::fs::write(golden_path(&format!("alp2_{suffix}")), column_bytes(data, parity))
                .expect("write column golden");
            std::fs::write(golden_path(&format!("alpt_{suffix}")), stream_bytes(data, parity))
                .expect("write stream golden");
        }
    }
    std::fs::create_dir_all(golden_path("")).expect("create tests/golden");
    bless(&dataset_f64());
    bless(&dataset_f32());
}
