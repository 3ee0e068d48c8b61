//! Implementations of the CLI subcommands.

use std::error::Error;
use std::fs;
use std::time::Instant;

type Result<T> = std::result::Result<T, Box<dyn Error>>;

/// Reads a raw little-endian `f64` file.
pub fn read_f64(path: &str) -> Result<Vec<f64>> {
    let bytes = fs::read(path)?;
    if bytes.len() % 8 != 0 {
        return Err(format!("{path}: length {} is not a multiple of 8", bytes.len()).into());
    }
    Ok(bytes.chunks_exact(8).map(|c| f64::from_le_bytes(c.try_into().unwrap())).collect())
}

/// Reads a raw little-endian `f32` file.
pub fn read_f32(path: &str) -> Result<Vec<f32>> {
    let bytes = fs::read(path)?;
    if bytes.len() % 4 != 0 {
        return Err(format!("{path}: length {} is not a multiple of 4", bytes.len()).into());
    }
    Ok(bytes.chunks_exact(4).map(|c| f32::from_le_bytes(c.try_into().unwrap())).collect())
}

fn write_f64(path: &str, data: &[f64]) -> Result<()> {
    let bytes: Vec<u8> = data.iter().flat_map(|v| v.to_le_bytes()).collect();
    fs::write(path, bytes)?;
    Ok(())
}

/// `alp compress <in> <out> [--f32] [--parity K]` — `--parity K` appends one
/// XOR parity frame per `K` row-group frames, making any single damaged
/// row-group per group reconstructible by `alp scrub` / the salvage readers.
pub fn compress(input: &str, output: &str, f32_mode: bool, parity: Option<usize>) -> Result<()> {
    fn encode<F: alp::AlpFloat>(data: &[F], parity: Option<usize>) -> Result<(Vec<u8>, f64)> {
        let compressed = alp::Compressor::new().compress(data);
        let bytes = match parity {
            Some(group_size) => {
                alp::format::to_bytes_with_parity(&compressed, alp::ParityConfig { group_size })?
            }
            None => alp::format::to_bytes(&compressed),
        };
        Ok((bytes, compressed.bits_per_value()))
    }
    let t0 = Instant::now();
    let (bytes, values, bpv) = if f32_mode {
        let data = read_f32(input)?;
        let (bytes, bpv) = encode(&data, parity)?;
        (bytes, data.len(), bpv)
    } else {
        let data = read_f64(input)?;
        let (bytes, bpv) = encode(&data, parity)?;
        (bytes, data.len(), bpv)
    };
    fs::write(output, &bytes)?;
    let raw_bits = if f32_mode { 32.0 } else { 64.0 };
    let protection = match parity {
        Some(k) => format!(", parity 1/{k}"),
        None => String::new(),
    };
    println!(
        "{values} values -> {} bytes  ({bpv:.2} bits/value, {:.1}x, {:.0} ms{protection})",
        bytes.len(),
        raw_bits / bpv,
        t0.elapsed().as_secs_f64() * 1e3
    );
    Ok(())
}

/// `alp compress <in> <out> --stream [--threads N] [--pipeline-depth D]
/// [--parity K]`
///
/// Writes the incremental `"ALPT"` stream layout through the pipelined
/// ingest path: row-group N compresses on a worker pool while row-group N+1
/// fills. The bytes are identical to the serial stream writer at every
/// thread count and depth; `--threads 1` runs fully inline. `--parity K`
/// interleaves one XOR parity frame per `K` row-group frames (computed on
/// the commit path, so the byte-identity guarantee holds with parity too).
pub fn compress_stream(
    input: &str,
    output: &str,
    f32_mode: bool,
    threads: usize,
    depth: Option<usize>,
    parity: Option<usize>,
) -> Result<()> {
    use alp_core::ingest::{PipelineConfig, PipelinedColumnWriter};
    use std::io::BufWriter;

    fn run<F: alp::AlpFloat>(
        data: &[F],
        output: &str,
        config: PipelineConfig,
        parity: Option<usize>,
        t0: Instant,
        raw_bits: f64,
    ) -> Result<()> {
        let sink = BufWriter::new(fs::File::create(output)?);
        let mut writer = match parity {
            Some(group_size) => PipelinedColumnWriter::<F, _>::with_parity(
                sink,
                config,
                alp::ParityConfig { group_size },
            )?,
            None => PipelinedColumnWriter::<F, _>::new(sink, config),
        };
        // Chunked pushes, as a real source would deliver them.
        for chunk in data.chunks(64 * 1024) {
            writer.push(chunk)?;
        }
        let summary = writer.finish()?;
        let secs = t0.elapsed().as_secs_f64();
        let raw_mb = summary.values as f64 * raw_bits / 8.0 / 1e6;
        let stats = summary.stats;
        println!(
            "{} values -> {} bytes streamed in {} row-groups: {} ALP, {} ALP_rd, \
             {} of {} vectors rescued  \
             ({:.2} bits/value, {:.0} ms, {:.0} MB/s, threads={}, depth={})",
            summary.values,
            summary.total_bytes,
            summary.rowgroups,
            stats.rowgroups_alp,
            stats.rowgroups_rd,
            stats.rescued_vectors,
            stats.vectors_encoded,
            summary.payload_bytes as f64 * 8.0 / summary.values.max(1) as f64,
            secs * 1e3,
            raw_mb / secs.max(1e-9),
            config.threads,
            config.depth,
        );
        Ok(())
    }

    let config = PipelineConfig::resolve(Some(threads), depth);
    let t0 = Instant::now();
    if f32_mode {
        run::<f32>(&read_f32(input)?, output, config, parity, t0, 32.0)
    } else {
        run::<f64>(&read_f64(input)?, output, config, parity, t0, 64.0)
    }
}

/// Drains an `"ALPT"`/`"ALPS"` stream strictly; on a corruption error,
/// retries through the salvage-with-repair reader and accepts the result
/// only when parity reconstructed *everything* — decompress never silently
/// drops rows. Returns the values plus a human-readable provenance note.
fn drain_stream<F: alp::AlpFloat>(bytes: &[u8]) -> Result<(Vec<F>, String)> {
    use alp::stream::ColumnReader;
    let strict = (|| -> std::result::Result<(Vec<F>, bool), alp::stream::StreamError> {
        let mut reader = ColumnReader::<F, _>::new(bytes)?;
        let (mut data, mut values) = (Vec::new(), Vec::new());
        while reader.next_rowgroup_into(&mut values)? {
            data.extend_from_slice(&values);
        }
        Ok((data, reader.is_committed()))
    })();
    match strict {
        Ok((data, committed)) => {
            let committed = if committed { "committed" } else { "UNCOMMITTED" };
            Ok((data, format!("{committed} stream")))
        }
        Err(strict_err) => {
            // Repair-on-read: the salvage reader reconstructs any single
            // damaged frame per parity group, checksum-verified.
            let mut reader = ColumnReader::<F, _>::new(bytes)?;
            let mut data = Vec::new();
            while let Some(values) = reader.next_rowgroup_salvaged()? {
                data.extend(values);
            }
            if !reader.lost_rowgroups().is_empty() || reader.repaired_rowgroups().is_empty() {
                return Err(strict_err.into());
            }
            let committed = if reader.is_committed() { "committed" } else { "UNCOMMITTED" };
            Ok((
                data,
                format!(
                    "{committed} stream, repaired row-groups {:?} from parity",
                    reader.repaired_rowgroups()
                ),
            ))
        }
    }
}

/// Drains an `"ALPT"`/`"ALPS"` stream into raw little-endian floats.
fn decompress_stream(bytes: &[u8], output: &str) -> Result<()> {
    let bits = *bytes.get(4).ok_or("file too short")?;
    match bits {
        64 => {
            let (data, note) = drain_stream::<f64>(bytes)?;
            write_f64(output, &data)?;
            println!("{} values ({note}) -> {output}", data.len());
        }
        32 => {
            let (data, note) = drain_stream::<f32>(bytes)?;
            let raw: Vec<u8> = data.iter().flat_map(|v| v.to_le_bytes()).collect();
            fs::write(output, raw)?;
            println!("{} values (f32, {note}) -> {output}", data.len());
        }
        other => return Err(format!("unsupported float width {other}").into()),
    }
    Ok(())
}

/// Strict column read with a repair-on-read fallback: when the strict parse
/// fails, a salvage pass may still reconstruct every row-group from parity
/// (or re-find alignment past a corrupted length prefix). The fallback is
/// accepted only when *no* row-group stayed lost and the value count matches
/// the header — anything less re-raises the strict error.
fn read_column_with_repair<F: alp::AlpFloat>(
    bytes: &[u8],
) -> Result<(alp::Compressed<F>, Vec<usize>)> {
    match alp::format::from_bytes::<F>(bytes) {
        Ok(c) => Ok((c, Vec::new())),
        Err(strict_err) => match alp::format::from_bytes_salvage::<F>(bytes) {
            Ok(s)
                if s.lost_rowgroups.is_empty()
                    && s.column.len == s.expected_len
                    && s.total_rowgroups > 0 =>
            {
                Ok((s.column, s.repaired_rowgroups))
            }
            _ => Err(strict_err.into()),
        },
    }
}

/// Whether `bytes` is a stream (`"ALPT"` / legacy `"ALPS"`) rather than a
/// column. Both share the width-at-byte-4 convention; the magic picks the
/// reader.
fn is_stream(bytes: &[u8]) -> bool {
    bytes.starts_with(alp::stream::STREAM_MAGIC) || bytes.starts_with(alp::stream::STREAM_MAGIC_V1)
}

/// `alp decompress <in> <out>` — with repair-on-read: a damaged but
/// parity-protected file whose every row-group is reconstructible
/// decompresses byte-identically, with a note naming the repaired
/// row-groups.
pub fn decompress(input: &str, output: &str) -> Result<()> {
    let bytes = fs::read(input)?;
    if is_stream(&bytes) {
        return decompress_stream(&bytes, output);
    }
    // Peek at the width byte (after the 4-byte magic).
    let bits = *bytes.get(4).ok_or("file too short")?;
    match bits {
        64 => {
            let (compressed, repaired) = read_column_with_repair::<f64>(&bytes)?;
            let data = compressed.decompress();
            write_f64(output, &data)?;
            let note = repair_note(&repaired);
            println!("{} values{note} -> {output}", data.len());
        }
        32 => {
            let (compressed, repaired) = read_column_with_repair::<f32>(&bytes)?;
            let data = compressed.decompress();
            let raw: Vec<u8> = data.iter().flat_map(|v| v.to_le_bytes()).collect();
            fs::write(output, raw)?;
            let note = repair_note(&repaired);
            println!("{} values (f32){note} -> {output}", data.len());
        }
        other => return Err(format!("unsupported float width {other}").into()),
    }
    Ok(())
}

fn repair_note(repaired: &[usize]) -> String {
    if repaired.is_empty() {
        String::new()
    } else {
        format!(" (repaired row-groups {repaired:?} from parity)")
    }
}

/// `alp inspect <in>`
pub fn inspect(input: &str) -> Result<()> {
    let bytes = fs::read(input)?;
    let bits = *bytes.get(4).ok_or("file too short")?;
    if bits == 32 {
        let c = alp::format::from_bytes::<f32>(&bytes)?;
        print_structure(&c.rowgroups, c.len, 32, bytes.len());
    } else {
        let c = alp::format::from_bytes::<f64>(&bytes)?;
        print_structure(&c.rowgroups, c.len, 64, bytes.len());
    }
    Ok(())
}

fn print_structure(rowgroups: &[alp::RowGroup], len: usize, bits: u32, file_bytes: usize) {
    println!(
        "ALP column: {len} values of f{bits}, {} row-groups, {file_bytes} bytes",
        rowgroups.len()
    );
    println!("{:<6} {:<8} {:>8} {:>10} {:>12}", "rg", "scheme", "vectors", "values", "exceptions");
    for (i, rg) in rowgroups.iter().enumerate() {
        let (scheme, exceptions) = match rg {
            alp::RowGroup::Alp(g) => {
                ("ALP", g.vectors.iter().map(|v| v.exception_count()).sum::<usize>())
            }
            alp::RowGroup::Rd(_, vs) => {
                ("ALP_rd", vs.iter().map(|v| v.exception_count()).sum::<usize>())
            }
        };
        println!("{i:<6} {scheme:<8} {:>8} {:>10} {exceptions:>12}", rg.vector_count(), rg.len());
    }
}

/// `alp verify` exit code: the column is clean.
pub const VERIFY_EXIT_CLEAN: u8 = 0;

/// `alp verify` exit code: damage was found, but a salvage pass recovers
/// *every* row-group (parity reconstruction and/or resync) — the data is
/// fully intact despite the strict-read failure.
pub const VERIFY_EXIT_REPAIRED: u8 = 2;

/// `alp verify` exit code: the column is damaged but a salvage pass recovers
/// part of it.
pub const VERIFY_EXIT_SALVAGEABLE: u8 = 3;

/// `alp verify` exit code: nothing is recoverable (damaged header, or no
/// row-group survives).
pub const VERIFY_EXIT_UNREADABLE: u8 = 4;

/// `alp verify <in.alp> [--threads N]` — integrity-check a stored column
/// without writing anything: validates the header, every row-group checksum
/// (`ALP2`), and the declared value count, then reports what a salvage pass
/// could recover if the strict read fails. The proving decode and the
/// salvage pass both run on `threads` morsel-claiming workers.
///
/// Returns the process exit code so scripts can triage archives:
/// [`VERIFY_EXIT_CLEAN`] (0), [`VERIFY_EXIT_REPAIRED`] (2, damage found but
/// fully repairable via parity), [`VERIFY_EXIT_SALVAGEABLE`] (3), or
/// [`VERIFY_EXIT_UNREADABLE`] (4). `Err` is reserved for operational
/// failures (unreadable file, unsupported width) and exits 1.
pub fn verify_column(input: &str, threads: usize) -> Result<u8> {
    let bytes = fs::read(input)?;
    let bits = *bytes.get(4).ok_or("file too short")?;
    match bits {
        64 => verify_typed::<f64>(input, &bytes, threads),
        32 => verify_typed::<f32>(input, &bytes, threads),
        other => Err(format!("unsupported float width {other}").into()),
    }
}

fn verify_typed<F: alp::AlpFloat>(input: &str, bytes: &[u8], threads: usize) -> Result<u8> {
    let layout = if bytes.starts_with(alp::format::MAGIC) {
        "ALP2 (per-row-group checksums)"
    } else if bytes.starts_with(alp::format::MAGIC_V1) {
        "ALP1 (legacy, no checksums)"
    } else {
        "unrecognized"
    };
    match alp::format::from_bytes::<F>(bytes) {
        Ok(col) => {
            // A column that parses strictly must also decode; do so to prove
            // the payload is usable, not just well-framed.
            let values = col.decompress_parallel(threads);
            println!(
                "{input}: OK — {layout}, {} values of f{}, {} row-groups",
                values.len(),
                F::BITS,
                col.rowgroups.len()
            );
            Ok(VERIFY_EXIT_CLEAN)
        }
        Err(e) => {
            println!("{input}: CORRUPT — {layout}: {e}");
            match alp::format::from_bytes_salvage_parallel::<F>(bytes, threads) {
                Ok(s) => {
                    for rg in &s.repaired_rowgroups {
                        println!("  row-group {rg}: repaired from parity (checksum verified)");
                    }
                    if s.lost_rowgroups.is_empty()
                        && s.column.len == s.expected_len
                        && s.total_rowgroups > 0
                    {
                        println!(
                            "  fully repaired: all {} values intact ({} of {} row-groups \
                             reconstructed)",
                            s.column.len,
                            s.repaired_rowgroups.len(),
                            s.total_rowgroups
                        );
                        Ok(VERIFY_EXIT_REPAIRED)
                    } else if s.column.len > 0 {
                        println!(
                            "  salvageable: {} of {} values ({} of {} row-groups; lost {:?})",
                            s.column.len,
                            s.expected_len,
                            s.total_rowgroups - s.lost_rowgroups.len(),
                            s.total_rowgroups,
                            s.lost_rowgroups
                        );
                        Ok(VERIFY_EXIT_SALVAGEABLE)
                    } else {
                        println!("  salvageable: nothing (no row-group survives)");
                        Ok(VERIFY_EXIT_UNREADABLE)
                    }
                }
                Err(_) => {
                    println!("  salvageable: nothing (header damaged)");
                    Ok(VERIFY_EXIT_UNREADABLE)
                }
            }
        }
    }
}

/// `alp scrub <in> [--threads N] [--rewrite]` — walk a stored column or
/// stream, verify every row-group checksum, reconstruct damaged row-groups
/// from parity, and report a per-row-group verdict. Report-only by default;
/// `--rewrite` atomically replaces a fully-repaired *column* file with its
/// repaired re-encoding (write to a temp file, then rename), preserving the
/// original parity group size.
///
/// Exit codes mirror `alp verify`: [`VERIFY_EXIT_CLEAN`] (0, no damage),
/// [`VERIFY_EXIT_REPAIRED`] (2, damage found and fully repaired),
/// [`VERIFY_EXIT_SALVAGEABLE`] (3, unrecoverable loss remains), or
/// [`VERIFY_EXIT_UNREADABLE`] (4). `Err` exits 1.
pub fn scrub(input: &str, threads: usize, rewrite: bool) -> Result<u8> {
    let bytes = fs::read(input)?;
    if is_stream(&bytes) {
        if rewrite {
            return Err("--rewrite supports column files; re-ingest to rewrite a stream".into());
        }
        let bits = *bytes.get(4).ok_or("file too short")?;
        return match bits {
            64 => scrub_stream_typed::<f64>(input, &bytes),
            32 => scrub_stream_typed::<f32>(input, &bytes),
            other => Err(format!("unsupported float width {other}").into()),
        };
    }
    let bits = *bytes.get(4).ok_or("file too short")?;
    match bits {
        64 => scrub_column::<f64>(input, &bytes, threads, rewrite),
        32 => scrub_column::<f32>(input, &bytes, threads, rewrite),
        other => Err(format!("unsupported float width {other}").into()),
    }
}

fn scrub_column<F: alp::AlpFloat>(
    input: &str,
    bytes: &[u8],
    threads: usize,
    rewrite: bool,
) -> Result<u8> {
    if alp::format::from_bytes::<F>(bytes).is_ok() {
        println!("{input}: clean — nothing to scrub");
        return Ok(VERIFY_EXIT_CLEAN);
    }
    let s = match alp::format::from_bytes_salvage_parallel::<F>(bytes, threads) {
        Ok(s) => s,
        Err(e) => {
            println!("{input}: unreadable — {e}");
            return Ok(VERIFY_EXIT_UNREADABLE);
        }
    };
    for rg in &s.repaired_rowgroups {
        println!("  row-group {rg}: repaired from parity (checksum verified)");
    }
    for rg in &s.lost_rowgroups {
        println!("  row-group {rg}: LOST (unrecoverable)");
    }
    if !s.lost_rowgroups.is_empty() {
        println!(
            "{input}: salvageable with loss — {} of {} values recoverable",
            s.column.len, s.expected_len
        );
        return Ok(VERIFY_EXIT_SALVAGEABLE);
    }
    if s.column.len != s.expected_len || s.total_rowgroups == 0 {
        println!("{input}: unreadable — no row-group survives");
        return Ok(VERIFY_EXIT_UNREADABLE);
    }
    println!(
        "{input}: fully repaired — {} row-groups reconstructed from parity, all {} values intact",
        s.repaired_rowgroups.len(),
        s.column.len
    );
    if rewrite {
        // Re-encode with the same protection the file carried; the repaired
        // row-groups are byte-identical to what the writer emitted, so the
        // rewritten file matches the pristine original.
        let repaired_bytes = match alp::format::parity_group_size(bytes) {
            Some(group_size) => {
                alp::format::to_bytes_with_parity(&s.column, alp::ParityConfig { group_size })?
            }
            None => alp::format::to_bytes(&s.column),
        };
        let tmp = format!("{input}.scrub-tmp");
        fs::write(&tmp, &repaired_bytes)?;
        fs::rename(&tmp, input)?;
        println!("  rewrote {input} ({} bytes, damage cleared)", repaired_bytes.len());
    }
    Ok(VERIFY_EXIT_REPAIRED)
}

fn scrub_stream_typed<F: alp::AlpFloat>(input: &str, bytes: &[u8]) -> Result<u8> {
    use alp::stream::ColumnReader;
    let mut reader = ColumnReader::<F, _>::new(bytes)?;
    let mut values = 0usize;
    while let Some(v) = reader.next_rowgroup_salvaged()? {
        values += v.len();
    }
    let committed = if reader.is_committed() { "committed" } else { "UNCOMMITTED" };
    for rg in reader.repaired_rowgroups() {
        println!("  row-group {rg}: repaired from parity (checksum verified)");
    }
    for rg in reader.lost_rowgroups() {
        println!("  row-group {rg}: LOST (unrecoverable)");
    }
    if !reader.lost_rowgroups().is_empty() {
        println!(
            "{input}: salvageable with loss — {values} values recoverable ({committed} stream)"
        );
        return Ok(if values > 0 { VERIFY_EXIT_SALVAGEABLE } else { VERIFY_EXIT_UNREADABLE });
    }
    if reader.repaired_rowgroups().is_empty() {
        println!("{input}: clean — {values} values, nothing to scrub ({committed} stream)");
        return Ok(VERIFY_EXIT_CLEAN);
    }
    println!(
        "{input}: fully repaired — {} row-groups reconstructed from parity, all {values} values \
         intact ({committed} stream)",
        reader.repaired_rowgroups().len()
    );
    Ok(VERIFY_EXIT_REPAIRED)
}

/// `alp stats <in> [--f32]`
pub fn stats(input: &str, f32_mode: bool) -> Result<()> {
    let data: Vec<f64> = if f32_mode {
        read_f32(input)?.into_iter().map(|v| v as f64).collect()
    } else {
        read_f64(input)?
    };
    if data.is_empty() {
        return Err("empty input".into());
    }
    let m = alp::analysis::dataset_metrics(&data);
    println!("values                 : {}", data.len());
    println!(
        "decimal precision      : max {} min {} avg {:.1}",
        m.precision.max, m.precision.min, m.precision.mean
    );
    println!("per-vector prec stddev : {:.2}", m.precision.std_dev);
    println!("non-unique per vector  : {:.1}%", m.non_unique_fraction * 100.0);
    println!("value mean / std       : {:.4} / {:.4}", m.magnitude.mean, m.magnitude.std_dev);
    println!("IEEE exponent mean/std : {:.1} / {:.1}", m.ieee_exponent_mean, m.ieee_exponent_std);
    println!("P_enc per-value        : {:.1}%", m.penc_per_value * 100.0);
    println!(
        "P_enc best exponent    : e={} ({:.1}%)",
        m.penc_best_exponent,
        m.penc_per_dataset * 100.0
    );
    println!("P_enc per-vector       : {:.1}%", m.penc_per_vector * 100.0);
    println!(
        "XOR leading/trailing 0 : {:.1} / {:.1} bits",
        m.xor_leading_zeros, m.xor_trailing_zeros
    );
    Ok(())
}

/// `alp gen <dataset> <n> <out>`
pub fn generate(dataset: &str, n: &str, output: &str) -> Result<()> {
    let n: usize = n.parse().map_err(|_| format!("bad count {n:?}"))?;
    if !datagen::DATASETS.iter().any(|d| d.name == dataset) {
        return Err(format!("unknown dataset {dataset:?} (try `alp datasets`)").into());
    }
    let data = datagen::generate(dataset, n, 42);
    write_f64(output, &data)?;
    println!("{dataset}: {n} values -> {output}");
    Ok(())
}

/// `alp datasets`
pub fn list_datasets() -> Result<()> {
    println!("{:<14} {:<6} generator", "name", "kind");
    for d in &datagen::DATASETS {
        let kind = if d.time_series { "TS" } else { "non-TS" };
        println!("{:<14} {:<6} {:?}", d.name, kind, d.spec);
    }
    Ok(())
}

/// `alp shootout <in> [--threads N]` — every registered codec, one loop.
/// Timed compression and decompression run through the morsel scheduler
/// (`par_compress`/`par_decompress`) at the requested thread count; ratio-only
/// schemes report bits/value with dashes for the timing columns.
pub fn shootout(input: &str, threads: usize) -> Result<()> {
    let data = read_f64(input)?;
    if data.is_empty() {
        return Err("empty input".into());
    }
    let chunk = alp_core::par::DEFAULT_CHUNK_VALUES;
    let mb = data.len() as f64 * 8.0 / 1e6;
    println!("threads: {threads}, chunk: {chunk} values");
    println!("{:<10} {:>11} {:>12} {:>12}", "scheme", "bits/value", "comp MB/s", "dec MB/s");

    let mut scratch = alp_core::Scratch::new();
    for codec in alp_core::Registry::all() {
        let bpv = codec.verified_compressed_bits(&data, &mut scratch)? as f64 / data.len() as f64;
        if codec.caps().ratio_only {
            println!("{:<10} {bpv:>11.2} {:>12} {:>12}", codec.name(), "-", "-");
            continue;
        }
        let t0 = Instant::now();
        let blocks = codec.par_compress(&data, chunk, threads)?;
        let c = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let back = codec.par_decompress(&blocks, threads)?;
        let d = t0.elapsed().as_secs_f64();
        verify(&data, &back, codec.name())?;
        println!("{:<10} {bpv:>11.2} {:>12.0} {:>12.0}", codec.name(), mb / c, mb / d);
    }
    Ok(())
}

/// `alp query <in.f64> <lo> <hi> [--threads N] [--deadline-ms M]
/// [--no-fused]` — a predicated sum served through the query service:
/// per-query deadline, quarantine-and-continue. A one-shot CLI query never
/// re-reads a page, so the cache is built with `max_entries: 0` and every
/// page is a predicted bypass: all pages are scanned with the fused
/// compressed-domain kernels unless `--no-fused` forces the materializing
/// path (the results are bit-identical either way). A nonzero
/// `ALP_FAULT_SEED` poisons a deterministic subset of pages so the degraded
/// path can be exercised from the shell.
pub fn query(
    input: &str,
    lo: &str,
    hi: &str,
    threads: usize,
    deadline_ms: Option<u64>,
    no_fused: bool,
) -> Result<()> {
    use vectorq::service::{PoisonPlan, QueryOptions, Service, ServiceConfig, Store};

    let (lo_text, hi_text) = (lo, hi);
    let lo: f64 = lo.parse().map_err(|_| format!("lo: {lo:?} is not a number"))?;
    let hi: f64 = hi.parse().map_err(|_| format!("hi: {hi:?} is not a number"))?;
    let data = read_f64(input)?;
    let t0 = Instant::now();
    let column = vectorq::Column::from_f64_parallel(&data, vectorq::Format::alp(), threads);
    let build_ms = t0.elapsed().as_secs_f64() * 1e3;
    // One-shot queries have no page reuse: a zero-entry cache turns every
    // lookup into a predicted bypass, which is what routes pages onto the
    // fused compressed-domain kernels instead of warming a cache that is
    // dropped on exit.
    let cache = vectorq::cache::CacheConfig {
        max_entries: 0,
        ..vectorq::cache::CacheConfig::default_config()
    };
    let store = std::sync::Arc::new(Store::with_poison(column, cache, PoisonPlan::from_env()));
    let service = Service::new(store, ServiceConfig { threads, ..ServiceConfig::default() });
    let opts = QueryOptions {
        deadline: deadline_ms.map(std::time::Duration::from_millis),
        threads: Some(threads),
        no_fused,
    };
    let result = service.sum_where(lo, hi, &opts).map_err(|e| e.to_string())?;
    println!(
        "{} values, {} pages  (compressed in {build_ms:.0} ms, {threads} threads)",
        data.len(),
        service.store().pages()
    );
    println!(
        "sum({lo_text} <= x <= {hi_text}) = {:.6}  ({} matches, {} vectors scanned ({} predicate-free), {} skipped, {:.1} ms)",
        result.value.sum,
        result.value.matches,
        result.value.vectors_scanned,
        result.value.vectors_all_in,
        result.value.vectors_skipped,
        result.elapsed.as_secs_f64() * 1e3
    );
    let path = match (result.pages_fused, result.pages_materialized) {
        (0, _) => "materialized",
        (_, 0) => "fused",
        _ => "mixed",
    };
    println!(
        "scan path: {path} ({} pages fused, {} materialized; {} valid / {} NaN values scanned)",
        result.pages_fused, result.pages_materialized, result.value.valid, result.value.invalid
    );
    if result.loss.is_complete() {
        println!("result complete: every page served");
    } else {
        println!(
            "PARTIAL result: {} pages / {} rows lost",
            result.loss.pages.len(),
            result.loss.rows_lost()
        );
        for loss in &result.loss.pages {
            println!("  page {:>4}  {:>7} rows  {}", loss.page, loss.rows, loss.reason);
        }
    }
    let cache = service.cache_stats();
    println!(
        "cache: {} hits, {} misses, {} evictions, {} bypasses, {} resident pages ({} KiB peak)",
        cache.hits,
        cache.misses,
        cache.evictions,
        cache.bypasses,
        cache.entries,
        cache.bytes_peak / 1024
    );
    Ok(())
}

/// `alp codecs` — list every registered codec with its capabilities.
pub fn list_codecs() -> Result<()> {
    println!("{:<12} {:<10} capabilities", "id", "name");
    for codec in alp_core::Registry::all() {
        let caps = codec.caps();
        let mut tags: Vec<&str> = Vec::new();
        if caps.random_vector_access {
            tags.push("random-vector-access");
        }
        if caps.f32 {
            tags.push("f32");
        }
        if caps.ratio_only {
            tags.push("ratio-only");
        }
        if caps.block_based {
            tags.push("block-based");
        }
        if caps.streaming_ingest {
            tags.push("streaming-ingest");
        }
        if tags.is_empty() {
            tags.push("-");
        }
        println!("{:<12} {:<10} {}", codec.id(), codec.name(), tags.join(", "));
    }
    Ok(())
}

fn verify(a: &[f64], b: &[f64], name: &str) -> Result<()> {
    if a.len() != b.len() || a.iter().zip(b).any(|(x, y)| x.to_bits() != y.to_bits()) {
        return Err(format!("{name} roundtrip failed").into());
    }
    Ok(())
}

/// `alp analyze [--root <path>] [--format text|json]` — run the workspace
/// static-analysis pass (see the `analyzer` crate). Exits 0 when clean, 1
/// when findings exist, 2 on usage or I/O errors.
pub fn analyze(args: &[String]) -> std::process::ExitCode {
    use std::process::ExitCode;

    let mut root: Option<std::path::PathBuf> = None;
    let mut format = "text";
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--root" if i + 1 < args.len() => {
                root = Some(std::path::PathBuf::from(&args[i + 1]));
                i += 2;
            }
            "--format" if i + 1 < args.len() => {
                format = &args[i + 1];
                i += 2;
            }
            other => {
                eprintln!("usage: alp analyze [--root <path>] [--format text|json] (got {other})");
                return ExitCode::from(2);
            }
        }
    }
    if format != "text" && format != "json" {
        eprintln!("unknown format {format} (expected text or json)");
        return ExitCode::from(2);
    }
    let root = match root.or_else(|| {
        std::env::current_dir().ok().and_then(|cwd| analyzer::find_workspace_root(&cwd))
    }) {
        Some(r) => r,
        None => {
            eprintln!("could not locate a workspace root (pass --root)");
            return ExitCode::from(2);
        }
    };
    match analyzer::analyze_workspace(&root) {
        Ok(findings) => {
            let rendered = if format == "json" {
                analyzer::report::render_json(&findings)
            } else {
                analyzer::report::render_text(&findings)
            };
            print!("{rendered}");
            if findings.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("analyze: I/O error: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("alp_cli_tests");
        fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_str().unwrap().to_string()
    }

    #[test]
    fn compress_decompress_cycle() {
        let input = tmp("cycle.f64");
        let packed = tmp("cycle.alp");
        let restored = tmp("cycle_restored.f64");
        let data: Vec<f64> = (0..50_000).map(|i| (i % 777) as f64 / 4.0).collect();
        write_f64(&input, &data).unwrap();
        compress(&input, &packed, false, None).unwrap();
        decompress(&packed, &restored).unwrap();
        assert_eq!(read_f64(&restored).unwrap(), data);
    }

    #[test]
    fn inspect_reports_structure() {
        let input = tmp("inspect.f64");
        let packed = tmp("inspect.alp");
        let data: Vec<f64> = (0..120_000).map(|i| (i % 100) as f64).collect();
        write_f64(&input, &data).unwrap();
        compress(&input, &packed, false, None).unwrap();
        inspect(&packed).unwrap();
    }

    #[test]
    fn gen_then_stats() {
        let out = tmp("gen.f64");
        generate("City-Temp", "20000", &out).unwrap();
        assert_eq!(read_f64(&out).unwrap().len(), 20_000);
        stats(&out, false).unwrap();
    }

    #[test]
    fn unknown_dataset_is_an_error() {
        assert!(generate("Nope", "10", &tmp("x.f64")).is_err());
    }

    #[test]
    fn bad_file_length_is_an_error() {
        let p = tmp("bad.f64");
        fs::write(&p, [1, 2, 3]).unwrap();
        assert!(read_f64(&p).is_err());
        assert!(read_f32(&p).is_err());
    }

    #[test]
    fn verify_accepts_clean_and_rejects_flipped_bit() {
        let input = tmp("verify.f64");
        let packed = tmp("verify.alp");
        let data: Vec<f64> = (0..120_000).map(|i| (i % 500) as f64 / 4.0).collect();
        write_f64(&input, &data).unwrap();
        compress(&input, &packed, false, None).unwrap();
        assert_eq!(verify_column(&packed, 2).unwrap(), VERIFY_EXIT_CLEAN);

        // One flipped payload bit: damaged, but the other row-group survives.
        let mut bytes = fs::read(&packed).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        let damaged = tmp("verify_damaged.alp");
        fs::write(&damaged, &bytes).unwrap();
        assert_eq!(verify_column(&damaged, 2).unwrap(), VERIFY_EXIT_SALVAGEABLE);

        // A wrecked magic makes the header unrecoverable.
        let mut bytes = fs::read(&packed).unwrap();
        bytes[0] = b'X';
        let unreadable = tmp("verify_unreadable.alp");
        fs::write(&unreadable, &bytes).unwrap();
        assert_eq!(verify_column(&unreadable, 2).unwrap(), VERIFY_EXIT_UNREADABLE);
    }

    #[test]
    fn parity_column_repairs_scrubs_and_verifies() {
        let input = tmp("parity.f64");
        let packed = tmp("parity.alp");
        let restored = tmp("parity_restored.f64");
        let data: Vec<f64> = (0..250_000).map(|i| (i % 999) as f64 / 8.0).collect();
        write_f64(&input, &data).unwrap();
        compress(&input, &packed, false, Some(4)).unwrap();
        let pristine = fs::read(&packed).unwrap();
        assert_eq!(verify_column(&packed, 2).unwrap(), VERIFY_EXIT_CLEAN);
        assert_eq!(scrub(&packed, 2, false).unwrap(), VERIFY_EXIT_CLEAN);

        // Corrupt one byte deep inside the first row-group's frame body.
        let mut bytes = pristine.clone();
        bytes[600] ^= 0xFF;
        fs::write(&packed, &bytes).unwrap();

        // Report-only scrub finds and repairs the damage (exit 2) without
        // touching the file; verify agrees.
        assert_eq!(scrub(&packed, 2, false).unwrap(), VERIFY_EXIT_REPAIRED);
        assert_eq!(fs::read(&packed).unwrap(), bytes, "report-only scrub must not rewrite");
        assert_eq!(verify_column(&packed, 2).unwrap(), VERIFY_EXIT_REPAIRED);

        // Repair-on-read decompression recovers the original data exactly.
        decompress(&packed, &restored).unwrap();
        assert_eq!(read_f64(&restored).unwrap(), data);

        // --rewrite replaces the file with its repaired re-encoding, which
        // matches the pristine bytes exactly (repair is byte-identical and
        // the parity group size is preserved).
        assert_eq!(scrub(&packed, 2, true).unwrap(), VERIFY_EXIT_REPAIRED);
        assert_eq!(fs::read(&packed).unwrap(), pristine);
        assert_eq!(verify_column(&packed, 2).unwrap(), VERIFY_EXIT_CLEAN);
    }

    #[test]
    fn parity_stream_repairs_on_read_and_scrubs() {
        let input = tmp("pstream.f64");
        let packed = tmp("pstream.alpt");
        let restored = tmp("pstream_restored.f64");
        let data: Vec<f64> = (0..250_000).map(|i| (i % 123) as f64 / 2.0).collect();
        write_f64(&input, &data).unwrap();
        compress_stream(&input, &packed, false, 2, None, Some(2)).unwrap();
        assert_eq!(scrub(&packed, 2, false).unwrap(), VERIFY_EXIT_CLEAN);

        // Corrupt a byte inside the first data frame's body.
        let mut bytes = fs::read(&packed).unwrap();
        bytes[600] ^= 0xFF;
        fs::write(&packed, &bytes).unwrap();
        assert_eq!(scrub(&packed, 2, false).unwrap(), VERIFY_EXIT_REPAIRED);
        decompress(&packed, &restored).unwrap();
        assert_eq!(read_f64(&restored).unwrap(), data);

        // Two damaged frames in one parity group exceed the repair budget:
        // scrub degrades to an honest loss report.
        let mut bytes = fs::read(&packed).unwrap();
        bytes[600] ^= 0xFF;
        let second_frame = bytes.len() / 3;
        bytes[second_frame] ^= 0xFF;
        fs::write(&packed, &bytes).unwrap();
        let code = scrub(&packed, 2, false).unwrap();
        assert!(code == VERIFY_EXIT_SALVAGEABLE || code == VERIFY_EXIT_REPAIRED);
    }

    #[test]
    fn shootout_runs_across_thread_counts() {
        let input = tmp("shootout.f64");
        let data: Vec<f64> = (0..120_000).map(|i| (i % 321) as f64 / 8.0).collect();
        write_f64(&input, &data).unwrap();
        for threads in [1, 3] {
            shootout(&input, threads).unwrap();
        }
    }

    #[test]
    fn f32_compress_cycle() {
        let input = tmp("c32.f32");
        let packed = tmp("c32.alp");
        let restored = tmp("c32_restored.f32");
        let data: Vec<f32> = (0..30_000).map(|i| (i % 300) as f32 / 2.0).collect();
        let raw: Vec<u8> = data.iter().flat_map(|v| v.to_le_bytes()).collect();
        fs::write(&input, raw).unwrap();
        compress(&input, &packed, true, None).unwrap();
        decompress(&packed, &restored).unwrap();
        assert_eq!(read_f32(&restored).unwrap(), data);
    }
}
