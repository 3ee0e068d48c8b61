//! Implementations of the CLI subcommands.

use std::error::Error;
use std::fs;
use std::time::Instant;

use alp::archive::{self, Layout, Opened, Verdict};
use alp::{AlpFloat, ParityConfig, PipelineConfig, PipelinedColumnWriter};

type Result<T> = std::result::Result<T, Box<dyn Error + Send + Sync>>;

/// Reads a raw little-endian file of `F`s.
fn read_raw<F: AlpFloat>(path: &str) -> Result<Vec<F>> {
    let (bytes, width) = (fs::read(path)?, F::BITS as usize / 8);
    if bytes.len() % width != 0 {
        return Err(format!("{path}: length {} is not a multiple of {width}", bytes.len()).into());
    }
    let value = |raw: &[u8]| {
        let mut le = [0u8; 8];
        le[..width].copy_from_slice(raw);
        F::from_bits_u64(u64::from_le_bytes(le))
    };
    Ok(bytes.chunks_exact(width).map(value).collect())
}

/// Writes `data` as raw little-endian `F`s.
fn write_raw<F: AlpFloat>(path: &str, data: &[F]) -> Result<()> {
    let width = F::BITS as usize / 8;
    let le = |v: &F| v.to_bits_u64().to_le_bytes().into_iter().take(width);
    fs::write(path, data.iter().flat_map(le).collect::<Vec<u8>>())?;
    Ok(())
}

/// `alp compress <in> <out> [--f32] [--parity K] [--stream [--threads N]
/// [--pipeline-depth D]]`
///
/// Without `--stream`: an `"ALP2"` column. With it (`stream` is the resolved
/// pipeline configuration): the incremental `"ALPT"` stream layout through
/// the pipelined ingest path — row-group N compresses on a worker pool while
/// row-group N+1 fills; the bytes are identical to the serial stream writer
/// at every thread count and depth, and `--threads 1` runs fully inline.
/// `--parity K` adds one XOR parity frame per `K` row-group frames (trailing
/// in a column, interleaved in a stream, computed on the commit path so the
/// byte-identity guarantee holds with parity too), making any single damaged
/// row-group per group reconstructible by `alp scrub` / on read.
///
/// Both layouts print one figure: bits/value = file bytes × 8 / values —
/// headers, checksums and parity included — with the protection named next
/// to it, and the instruction tier the kernels ran at ([`alp::tier`]).
pub fn compress(
    input: &str,
    output: &str,
    f32_mode: bool,
    parity: Option<usize>,
    stream: Option<PipelineConfig>,
) -> Result<()> {
    fn run<F: AlpFloat>(
        input: &str,
        output: &str,
        parity: Option<ParityConfig>,
        stream: Option<PipelineConfig>,
    ) -> Result<()> {
        let t0 = Instant::now();
        let data = read_raw::<F>(input)?;
        let raw_bits = f64::from(F::BITS);
        let bits_per_value = |file_bytes: usize| file_bytes as f64 * 8.0 / data.len().max(1) as f64;
        let protection = parity.map_or(String::new(), |p| format!(", parity 1/{}", p.group_size));
        let kernels = alp::tier::active();
        let Some(config) = stream else {
            let compressed = alp::Compressor::new().compress(&data);
            let bytes = match parity {
                Some(parity) => alp::format::to_bytes_with_parity(&compressed, parity)?,
                None => alp::format::to_bytes(&compressed),
            };
            fs::write(output, &bytes)?;
            let bpv = bits_per_value(bytes.len());
            println!(
                "{} values -> {} bytes  ({bpv:.2} bits/value, {:.1}x, {:.0} ms{protection}, \
                 {kernels} kernels)",
                data.len(),
                bytes.len(),
                raw_bits / bpv,
                t0.elapsed().as_secs_f64() * 1e3
            );
            return Ok(());
        };
        let sink = std::io::BufWriter::new(fs::File::create(output)?);
        let mut writer = match parity {
            Some(parity) => PipelinedColumnWriter::<F, _>::with_parity(sink, config, parity)?,
            None => PipelinedColumnWriter::<F, _>::new(sink, config),
        };
        // Chunked pushes, as a real source would deliver them.
        for chunk in data.chunks(64 * 1024) {
            writer.push(chunk)?;
        }
        let summary = writer.finish()?;
        let secs = t0.elapsed().as_secs_f64();
        let stats = summary.stats;
        println!(
            "{} values -> {} bytes streamed in {} row-groups: {} ALP, {} ALP_rd \
             ({} decided before level 1 finished), {} of {} vectors rescued  \
             ({:.2} bits/value, {:.0} ms, {:.0} MB/s, threads={}, depth={}{protection}, \
             {kernels} kernels)",
            summary.values,
            summary.total_bytes,
            summary.rowgroups,
            stats.rowgroups_alp,
            stats.rowgroups_rd,
            stats.rd_proven,
            stats.rescued_vectors,
            stats.vectors_encoded,
            bits_per_value(summary.total_bytes),
            secs * 1e3,
            summary.values as f64 * raw_bits / 8.0 / 1e6 / secs.max(1e-9),
            config.threads,
            config.depth,
        );
        Ok(())
    }
    let parity = parity.map(|group_size| ParityConfig { group_size });
    if f32_mode {
        run::<f32>(input, output, parity, stream)
    } else {
        run::<f64>(input, output, parity, stream)
    }
}

/// What `alp decompress | inspect | verify | scrub` does with the opened file.
pub enum Action<'a> {
    /// Write the values out as raw little-endian floats.
    Decompress { output: &'a str },
    /// List the row-groups.
    Inspect,
    /// Report the verdict.
    Verify,
    /// Report the verdict row-group by row-group; `rewrite` atomically
    /// replaces a fully repaired *column* file with its repaired re-encoding
    /// (temp file, then rename), preserving the original parity group size.
    Scrub { rewrite: bool },
}

/// `alp decompress | inspect | verify | scrub <in> [--threads N]` — the one
/// path from a stored file to a report: read it, sniff it, dispatch once on
/// the float width, [`alp::archive::open`] (strict read, salvage fallback,
/// verdict — DESIGN.md §7), act. Columns and streams, current and legacy,
/// take the same path.
///
/// Returns the process exit code. `verify` and `scrub` triage through it, and
/// it is the [`Verdict`]'s own number: 0 clean, 2 damaged but fully repaired,
/// 3 salvageable with loss, 4 unreadable (no row-group survives, or the
/// header is damaged). `decompress` and `inspect` return 0 or `Err`:
/// `decompress` never writes a column with rows missing. `Err` (a missing
/// file, a refused action) exits 1.
pub fn open_archive(input: &str, threads: usize, action: &Action<'_>) -> Result<u8> {
    let bytes = fs::read(input)?;
    let acted = archive::sniff(&bytes).and_then(|kind| match kind.bits {
        32 => archive::open::<f32>(&bytes, threads).map(|o| action.run(input, &bytes, threads, o)),
        _ => archive::open::<f64>(&bytes, threads).map(|o| action.run(input, &bytes, threads, o)),
    });
    match (acted, action) {
        (Ok(result), _) => result,
        // No usable header: the triaging commands answer "unreadable" too.
        (Err(e), Action::Verify | Action::Scrub { .. }) => {
            match action {
                Action::Verify => println!(
                    "{input}: CORRUPT — unrecognized: {e}\n  salvageable: nothing (header damaged)"
                ),
                _ => println!("{input}: unreadable — {e}"),
            }
            Ok(Verdict::Unreadable as u8)
        }
        (Err(e), _) => Err(e.into()),
    }
}

impl Action<'_> {
    fn run<F: AlpFloat>(
        &self,
        input: &str,
        bytes: &[u8],
        threads: usize,
        opened: Opened<F>,
    ) -> Result<u8> {
        let code = opened.verdict as u8;
        match *self {
            Action::Decompress { output } => {
                let mut notes: Vec<String> = Vec::new();
                notes.extend((F::BITS == 32).then(|| "f32".into()));
                notes.extend(commit_state(&opened).map(String::from));
                if !opened.repaired.is_empty() {
                    notes.push(format!("repaired row-groups {:?} from parity", opened.repaired));
                }
                let data = opened.complete_values(threads)?;
                write_raw(output, &data)?;
                println!("{} values{} -> {output}", data.len(), parenthesized(notes));
                Ok(0)
            }
            Action::Inspect => match &opened.strict_error {
                Some(e) if opened.verdict == Verdict::Unreadable => Err(e.to_string().into()),
                _ => {
                    inspect(bytes.len(), &opened);
                    Ok(0)
                }
            },
            Action::Verify => {
                report(input, &opened, false);
                Ok(code)
            }
            Action::Scrub { rewrite } => {
                if rewrite && opened.kind.layout == Layout::Stream {
                    return Err(
                        "--rewrite supports column files; re-ingest to rewrite a stream".into()
                    );
                }
                report(input, &opened, true);
                if (rewrite, opened.verdict) == (true, Verdict::Repaired) {
                    // Re-frame with the same protection the file carried; the
                    // repaired bodies are byte-identical to what the writer
                    // emitted, so the rewritten file matches the pristine
                    // original.
                    let parity = alp::format::parity_group_size(bytes)
                        .map(|group_size| ParityConfig { group_size });
                    let repaired = opened.survivors.to_bytes(parity)?;
                    let tmp = format!("{input}.scrub-tmp");
                    fs::write(&tmp, &repaired)?;
                    fs::rename(&tmp, input)?;
                    println!("  rewrote {input} ({} bytes, damage cleared)", repaired.len());
                }
                Ok(code)
            }
        }
    }
}

/// `Some("committed stream" | "UNCOMMITTED stream")` for a stream, `None` for
/// a column (which has no commit record: it is written whole).
fn commit_state<F: AlpFloat>(opened: &Opened<F>) -> Option<&'static str> {
    match (opened.kind.layout, opened.committed) {
        (Layout::Column, _) => None,
        (Layout::Stream, true) => Some("committed stream"),
        (Layout::Stream, false) => Some("UNCOMMITTED stream"),
    }
}

/// `" (a, b)"`, or nothing for no notes.
fn parenthesized<S: AsRef<str>>(notes: impl IntoIterator<Item = S>) -> String {
    let notes: Vec<String> = notes.into_iter().map(|note| note.as_ref().to_string()).collect();
    if notes.is_empty() {
        String::new()
    } else {
        format!(" ({})", notes.join(", "))
    }
}

/// `alp inspect <in>`: the surviving row-groups in file order — scheme,
/// vectors, values and exceptions, read from their bodies — and the repaired
/// and lost ones marked.
fn inspect<F: AlpFloat>(file_bytes: usize, opened: &Opened<F>) {
    let survivors = &opened.survivors;
    let what = match opened.kind.layout {
        Layout::Column => "column",
        Layout::Stream => "stream",
    };
    println!(
        "ALP {what}: {} values of f{}, {} row-groups, {file_bytes} bytes{}",
        survivors.len(),
        F::BITS,
        survivors.rowgroup_count(),
        parenthesized(commit_state(opened)),
    );
    println!("{:<6} {:<8} {:>8} {:>10} {:>12}", "rg", "scheme", "vectors", "values", "exceptions");
    let mut survivor = 0;
    for rg in 0..survivors.rowgroup_count() + opened.lost.len() {
        if opened.lost.contains(&rg) {
            println!("{rg:<6} LOST");
        } else if let Some(view) = survivors.rowgroup(survivor) {
            survivor += 1;
            let scheme = match view.scheme() {
                alp::Scheme::Alp => "ALP",
                alp::Scheme::AlpRd => "ALP_rd",
            };
            let exceptions: usize = view.vectors().map(|v| v.exceptions()).sum();
            let (vectors, len) = (view.vector_count(), view.len());
            let repaired =
                if opened.repaired.contains(&rg) { "  repaired from parity" } else { "" };
            println!("{rg:<6} {scheme:<8} {vectors:>8} {len:>10} {exceptions:>12}{repaired}");
        }
    }
}

/// The one report under `alp verify` (`scrub == false`) and `alp scrub`: what
/// the strict read said, each repaired (and, for `scrub`, lost) row-group,
/// and the verdict's line.
fn report<F: AlpFloat>(input: &str, opened: &Opened<F>, scrub: bool) {
    let kind = opened.kind;
    let layout = match (kind.layout, kind.legacy) {
        (Layout::Column, false) => "per-row-group checksums",
        (Layout::Stream, false) => "checksummed frames, commit footer",
        (_, true) => "legacy, no checksums",
    };
    let layout = format!("{} ({layout})", kind.magic);
    let state = parenthesized(commit_state(opened));
    let (values, rowgroups) = (opened.survivors.len(), opened.survivors.rowgroup_count());
    let (total, repaired) = (opened.total_rowgroups(), opened.repaired.len());
    if let (Some(e), false) = (&opened.strict_error, scrub) {
        println!("{input}: CORRUPT — {layout}: {e}");
    }
    for rg in &opened.repaired {
        println!("  row-group {rg}: repaired from parity (checksum verified)");
    }
    for rg in opened.lost.iter().filter(|_| scrub) {
        println!("  row-group {rg}: LOST (unrecoverable)");
    }
    let promised = opened.promised.map_or("an unknown number of".into(), |p| p.values.to_string());
    match (opened.verdict, scrub) {
        (Verdict::Clean, false) => println!(
            "{input}: OK — {layout}, {values} values of f{}, {rowgroups} row-groups{state}",
            F::BITS
        ),
        (Verdict::Clean, true) => println!("{input}: clean — nothing to scrub{state}"),
        (Verdict::Repaired, false) => println!(
            "  fully repaired: all {values} values intact ({repaired} of {total} row-groups \
             reconstructed){state}"
        ),
        (Verdict::Repaired, true) => println!(
            "{input}: fully repaired — {repaired} row-groups reconstructed from parity, all \
             {values} values intact{state}"
        ),
        (Verdict::Salvageable, false) => println!(
            "  salvageable: {values} of {promised} values ({rowgroups} of {total} row-groups; \
             lost {:?}){state}",
            opened.lost
        ),
        (Verdict::Salvageable, true) => println!(
            "{input}: salvageable with loss — {values} of {promised} values recoverable{state}"
        ),
        (Verdict::Unreadable, false) => {
            println!("  salvageable: nothing (no row-group survives){state}")
        }
        (Verdict::Unreadable, true) => {
            println!("{input}: unreadable — no row-group survives{state}")
        }
    }
}

/// `alp stats <in> [--f32]`
pub fn stats(input: &str, f32_mode: bool) -> Result<()> {
    let data: Vec<f64> = if f32_mode {
        read_raw::<f32>(input)?.into_iter().map(f64::from).collect()
    } else {
        read_raw(input)?
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
    write_raw(output, &data)?;
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

/// `alp query <in.f64> <lo> <hi> [--threads N] [--deadline-ms M]
/// [--no-fused]` — a predicated sum served through the query service:
/// per-query deadline, quarantine-and-continue. Every page of the ALP column
/// is scanned with the fused compressed-domain kernels — a vector inside the
/// band answered from its zone map, unread — unless `--no-fused` forces the
/// materializing path, which decodes every vector the zone maps do not rule
/// out. The sum line is the same either way, counts included: "inside the
/// band" counts the scanned vectors whose zone map lies within it.
/// A nonzero `ALP_FAULT_SEED` poisons a deterministic subset of pages so the
/// degraded path can be exercised from the shell.
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
    let data: Vec<f64> = read_raw(input)?;
    let t0 = Instant::now();
    let column = vectorq::Column::from_f64_parallel(&data, vectorq::Format::alp(), threads);
    let build_ms = t0.elapsed().as_secs_f64() * 1e3;
    // A one-shot query reads each page once: with no cache, the ALP pages are
    // summed from the stored bytes instead of decoded for nobody to reuse.
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
        "sum({lo_text} <= x <= {hi_text}) = {:.6}  ({} matches, {} vectors scanned ({} inside the band), {} skipped, {:.1} ms)",
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
    Ok(())
}

#[cfg(test)]
mod tests {
    //! The commands that never open an archive; `tests/drills.rs` drives
    //! `compress`, `decompress`, `inspect`, `verify`, `scrub` and `query`
    //! through the binary.
    use super::*;

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("alp_cli_tests");
        fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_str().unwrap().to_string()
    }

    #[test]
    fn gen_then_stats() {
        let out = tmp("gen.f64");
        generate("City-Temp", "20000", &out).unwrap();
        assert_eq!(read_raw::<f64>(&out).unwrap().len(), 20_000);
        stats(&out, false).unwrap();
    }

    #[test]
    fn unknown_dataset_is_an_error() {
        assert!(generate("Nope", "10", &tmp("x.f64")).is_err());
    }

    #[test]
    fn raw_files_round_trip_at_both_widths_and_refuse_a_ragged_length() {
        let p = tmp("raw.bin");
        let doubles = [1.5f64, -0.0, f64::from_bits(0x7ff8_0000_0000_1234)];
        write_raw(&p, &doubles).unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&read_raw::<f64>(&p).unwrap()), bits(&doubles));
        write_raw(&p, &[2.5f32, f32::MIN_POSITIVE]).unwrap();
        assert_eq!(read_raw::<f32>(&p).unwrap(), [2.5f32, f32::MIN_POSITIVE]);
        fs::write(&p, [1, 2, 3]).unwrap();
        assert!(read_raw::<f64>(&p).is_err());
        assert!(read_raw::<f32>(&p).is_err());
    }
}
