//! `alp` — command-line front end for the ALP compression library.
//!
//! ```text
//! alp compress   <in.f64> <out.alp> [--f32] [--parity K]   raw LE floats -> ALP column
//!                [--stream [--threads N] [--pipeline-depth D]]
//!                --stream writes the incremental "ALPT" stream layout via
//!                the pipelined ingest path (compression overlapped with
//!                file reads; identical bytes at every N and D);
//!                --parity K emits one XOR parity frame per K row-groups so
//!                any single damaged row-group per group repairs on read
//! alp decompress <in.alp> <out.f64>  [--threads N]   ALP column/stream -> raw LE floats
//!                (repair-on-read: parity-reconstructible damage decompresses
//!                byte-identically, with the repaired row-groups named; never
//!                writes a column with rows missing)
//! alp inspect    <in.alp>                       row-groups of a column or stream:
//!                scheme, vectors, values, exceptions; repaired / lost marked
//! alp verify     <in.alp> [--threads N]         verdict on a column or stream
//!                exit codes: 0 clean, 2 damaged-but-fully-repaired,
//!                3 salvageable, 4 unreadable, 1 error
//! alp scrub      <in.alp> [--threads N] [--rewrite]
//!                the same verdict, row-group by row-group; --rewrite
//!                atomically replaces a fully-repaired column file
//!                exit codes: same as verify
//! alp stats      <in.f64> [--f32]               Table 2-style dataset metrics
//! alp gen        <dataset> <n> <out.f64>        synthetic dataset to a file
//! alp shootout   <in.f64> [--threads N]         ratio/speed of every codec
//! alp query      <in.f64> <lo> <hi> [--threads N] [--deadline-ms M] [--no-fused]
//!                predicated sum through the query service (fused scan, deadlines,
//!                quarantine — ALP_FAULT_SEED injects bad pages; --no-fused
//!                forces the materializing scan path)
//! alp codecs                                    list the codec registry
//! alp datasets                                  list generatable datasets
//! ```

mod commands;

use commands::Action;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // Value-taking flags come out (with their arguments) before the
    // boolean-flag partition below.
    let ValueFlags { threads: threads_flag, depth: depth_flag, parity: parity_flag, deadline_ms } =
        match ValueFlags::take(&mut args) {
            Ok(values) => values,
            Err(message) => {
                eprintln!("{message}");
                return usage();
            }
        };
    let threads = alp_core::par::resolve_threads(threads_flag);
    let (flags, positional): (Vec<&String>, Vec<&String>) =
        args.iter().partition(|a| a.starts_with("--"));
    let f32_mode = flags.iter().any(|f| f.as_str() == "--f32");
    let no_fused = flags.iter().any(|f| f.as_str() == "--no-fused");
    let stream_mode = flags.iter().any(|f| f.as_str() == "--stream");
    let rewrite = flags.iter().any(|f| f.as_str() == "--rewrite");
    if let Some(unknown) = flags
        .iter()
        .find(|f| !matches!(f.as_str(), "--f32" | "--no-fused" | "--stream" | "--rewrite"))
    {
        eprintln!("unknown flag {unknown}");
        return usage();
    }

    let Some((cmd, rest)) = positional.split_first() else { return usage() };
    let rest: Vec<&str> = rest.iter().map(|s| s.as_str()).collect();
    // The four commands that open a stored file share one path and answer
    // with an exit code (`verify` and `scrub` triage through it).
    let open = |input, action| commands::open_archive(input, threads, &action);
    let result = match (cmd.as_str(), rest.as_slice()) {
        ("decompress", [input, output]) => open(input, Action::Decompress { output }),
        ("inspect", [input]) => open(input, Action::Inspect),
        ("verify", [input]) => open(input, Action::Verify),
        ("scrub", [input]) => open(input, Action::Scrub { rewrite }),
        command => match command {
            ("compress", [input, output]) => {
                let stream =
                    stream_mode.then(|| alp::PipelineConfig::resolve(Some(threads), depth_flag));
                commands::compress(input, output, f32_mode, parity_flag, stream)
            }
            ("stats", [input]) => commands::stats(input, f32_mode),
            ("gen", [dataset, n, output]) => commands::generate(dataset, n, output),
            ("shootout", [input]) => commands::shootout(input, threads),
            ("query", [input, lo, hi]) => {
                commands::query(input, lo, hi, threads, deadline_ms, no_fused)
            }
            ("codecs", []) => commands::list_codecs(),
            ("datasets", []) => commands::list_datasets(),
            _ => return usage(),
        }
        .map(|()| 0),
    };

    match result {
        Ok(code) => ExitCode::from(code),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The flags that take a value.
struct ValueFlags {
    threads: Option<usize>,
    depth: Option<usize>,
    parity: Option<usize>,
    deadline_ms: Option<u64>,
}

impl ValueFlags {
    /// Takes each flag and its value out of `args`; the first complaint
    /// otherwise.
    fn take(args: &mut Vec<String>) -> Result<Self, String> {
        Ok(ValueFlags {
            threads: take_value(args, "--threads", "", usize::MAX)?,
            depth: take_value(args, "--pipeline-depth", "", usize::MAX)?,
            parity: take_value(args, "--parity", " (row-groups per parity frame)", 255)?,
            deadline_ms: take_value(args, "--deadline-ms", "", usize::MAX)?.map(|ms| ms as u64),
        })
    }
}

/// Removes `flag` and the value after it, an integer in `1..=max`, from
/// `args`. `Ok(None)` when the flag is absent; `Err` is the message for a
/// missing value (`what` says what the value means) or an unacceptable one.
fn take_value(
    args: &mut Vec<String>,
    flag: &str,
    what: &str,
    max: usize,
) -> Result<Option<usize>, String> {
    let Some(i) = args.iter().position(|a| a == flag) else { return Ok(None) };
    let Some(value) = args.get(i + 1) else {
        return Err(format!("{flag} requires a value{what}"));
    };
    let Some(n) = value.parse().ok().filter(|n| (1..=max).contains(n)) else {
        let expects = match max {
            usize::MAX => "a positive integer".to_string(),
            _ => format!("an integer in 1..={max}"),
        };
        return Err(format!("{flag} expects {expects}, got {value:?}"));
    };
    args.drain(i..=i + 1);
    Ok(Some(n))
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  alp compress   <in.f64> <out.alp> [--f32] [--parity K] [--stream [--threads N] [--pipeline-depth D]]\n  alp decompress <in.alp|in.alpt> <out.f64> [--threads N]\n  alp inspect    <in.alp|in.alpt>\n  alp verify     <in.alp|in.alpt> [--threads N]\n  alp scrub      <in.alp|in.alpt> [--threads N] [--rewrite]\n  alp stats      <in.f64> [--f32]\n  alp gen        <dataset> <n> <out.f64>\n  alp shootout   <in.f64> [--threads N]\n  alp query      <in.f64> <lo> <hi> [--threads N] [--deadline-ms M] [--no-fused]\n  alp codecs\n  alp datasets"
    );
    ExitCode::FAILURE
}
