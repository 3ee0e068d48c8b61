//! The pinned benchmark of the two user journeys — floats → committed file,
//! store → predicated aggregate — with the layer ladder underneath.
//! See `README.md` for the one command, the metric glossary and how to read
//! the output.

mod compare;
mod host;
mod journey;
mod json;
mod ladder;
mod run;
mod spec;
mod stats;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use json::Json;

/// Variables the crates consult when a count is not passed explicitly. Every
/// count here *is* passed explicitly; removing them as well means ambient
/// settings cannot change the program under test.
const AMBIENT: [&str; 3] = ["ALP_THREADS", "ALP_PIPELINE_DEPTH", "ALP_FAULT_SEED"];

const USAGE: &str = "usage:
  alp-benchmark [--seed N] [--trace] [--out FILE]
      all four workloads, one child process each; --trace makes the separate
      traced run that yields the per-layer metrics
  alp-benchmark --workload NAME --seed N --seconds S --trace 0|1
      one workload in this process; the last line of output is the result as JSON
  alp-benchmark --compare A.json B.json
  alp-benchmark --selfcheck [--seed N]
  alp-benchmark --smoke
  alp-benchmark --print-benchmark-json
      the root BENCHMARK.json, rendered from the tables in src/spec.rs";

#[derive(Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<u64>,
    trace: bool,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
    selfcheck: bool,
    smoke: bool,
    print_benchmark_json: bool,
    scale: Option<usize>,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args::default();
    let mut pending: Option<String> = None;
    while let Some(flag) = pending.take().or_else(|| argv.next()) {
        let mut value = |what: &str| argv.next().ok_or_else(|| format!("{flag} needs {what}"));
        let number =
            |text: String| text.parse::<u64>().map_err(|_| format!("{text:?} is not a number"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a name")?),
            "--seed" => args.seed = Some(number(value("a number")?)?),
            "--seconds" => args.seconds = Some(number(value("a number")?)?),
            "--scale" => args.scale = Some(number(value("a number")?)? as usize),
            "--out" => args.out = Some(PathBuf::from(value("a path")?)),
            // Bare `--trace` or the driver's `--trace 0|1`.
            "--trace" => match argv.next() {
                Some(v) if v == "0" => args.trace = false,
                Some(v) if v == "1" => args.trace = true,
                other => {
                    args.trace = true;
                    pending = other;
                }
            },
            "--compare" => {
                args.compare =
                    Some((PathBuf::from(value("two files")?), PathBuf::from(value("two files")?)))
            }
            "--selfcheck" => args.selfcheck = true,
            "--smoke" => args.smoke = true,
            "--print-benchmark-json" => args.print_benchmark_json = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    Ok(args)
}

/// The driver's form: one workload in this process.
fn run_one(
    name: &str,
    seed: u64,
    seconds: u64,
    traced: bool,
    scale: usize,
) -> Result<bool, String> {
    let w = spec::workload(name).ok_or_else(|| {
        let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; the workloads are {names:?}")
    })?;
    let report = if traced {
        run::run_traced(w, seed, seconds, scale)?
    } else {
        run::run_untraced(w, seed, seconds, scale)?
    };
    report.print();
    report.to_json().write_file(&report_path(name, traced)?)?;
    println!("{}", report.driver_line());
    Ok(report.correct())
}

fn report_path(workload: &str, traced: bool) -> Result<PathBuf, String> {
    Ok(host::out_dir()?
        .join(format!("run-{workload}-{}.json", if traced { "traced" } else { "untraced" })))
}

/// All workloads, one child process each, one after the other. Returns the
/// result document and whether every workload was correct.
fn run_all(seed: u64, seconds: u64, traced: bool, scale: usize) -> Result<(Json, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    let started = Instant::now();
    let mut reports = Vec::new();
    let mut all_correct = true;
    for w in &spec::WORKLOADS {
        let mut child = Command::new(&exe);
        child
            .args(["--workload", w.name, "--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string(), "--trace", if traced { "1" } else { "0" }])
            .args(["--scale", &scale.to_string()])
            .stdin(Stdio::null());
        for var in AMBIENT {
            child.env_remove(var);
        }
        let status = child.status().map_err(|e| format!("cannot start {}: {e}", w.name))?;
        all_correct &= status.success();
        let path = report_path(w.name, traced)?;
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("{} left no report at {}: {e}", w.name, path.display()))?;
        reports.push((w.name, json::parse(&text)?));
    }
    let wall_s = started.elapsed().as_secs_f64();
    println!("all wall_s {wall_s} s  ({})", if traced { "traced run" } else { "untraced run" });
    let doc = Json::obj([
        ("fingerprint", host::fingerprint(seed, seconds, scale, traced)),
        ("wall_s", Json::Num(wall_s)),
        ("workloads", Json::obj(reports)),
    ]);
    Ok((doc, all_correct))
}

fn write_result(doc: &Json, path: &Path) -> Result<(), String> {
    doc.write_file(path)?;
    println!("wrote {}", path.display());
    Ok(())
}

fn read_result(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Prints the comparison; `Ok(true)` when no row is regressed or unresolved.
fn compare_docs(a: &Json, b: &Json) -> Result<bool, String> {
    let bounds = compare::bounds_from_benchmark_json()?;
    let rows = compare::compare(a, b, &bounds)?;
    Ok(!compare::print_rows(&rows))
}

/// Two full sets of the same binary must agree within the benchmark's own
/// bounds: the repeatability acceptance check.
fn selfcheck(seed: u64) -> Result<bool, String> {
    let out = host::out_dir()?;
    let mut docs = Vec::new();
    for set in ["a", "b"] {
        let (doc, correct) = run_all(seed, spec::RUN_SECONDS, false, 1)?;
        write_result(&doc, &out.join(format!("selfcheck-{set}.json")))?;
        if !correct {
            return Err(format!("set {set} had failed operations"));
        }
        docs.push(doc);
    }
    compare_docs(&docs[0], &docs[1])
}

/// 1/64 sizes and the minimum number of rounds: every workload, untraced and
/// traced, end to end, and the output parsed back.
fn smoke() -> Result<bool, String> {
    for traced in [false, true] {
        let (doc, correct) = run_all(spec::DEFAULT_SEED, 0, traced, spec::SMOKE_SCALE)?;
        if !correct {
            return Ok(false);
        }
        for w in &spec::WORKLOADS {
            let report =
                doc.get("workloads").and_then(|x| x.get(w.name)).ok_or("missing workload")?;
            let metrics = report.get("metrics").ok_or("missing metrics")?;
            let expected: Vec<&str> = if traced {
                spec::PER_LAYER.iter().map(|m| m.name).collect()
            } else {
                spec::END_TO_END.iter().map(|m| m.name).collect()
            };
            for name in expected {
                let value = metrics.get(name).and_then(|m| m.get("value")).and_then(Json::as_f64);
                if !value.is_some_and(f64::is_finite) {
                    return Err(format!("smoke: {} reported no {name}", w.name));
                }
            }
        }
    }
    println!("smoke ok");
    Ok(true)
}

fn real_main() -> Result<bool, String> {
    for var in AMBIENT {
        std::env::remove_var(var);
    }
    let args = parse_args(std::env::args().skip(1))?;
    let seed = args.seed.unwrap_or(spec::DEFAULT_SEED);
    if let Some((a, b)) = &args.compare {
        return compare_docs(&read_result(a)?, &read_result(b)?);
    }
    if args.print_benchmark_json {
        print!("{}", spec::benchmark_json().render_pretty());
        return Ok(true);
    }
    if args.selfcheck {
        return selfcheck(seed);
    }
    if args.smoke {
        return smoke();
    }
    let seconds = args.seconds.unwrap_or(spec::RUN_SECONDS);
    let scale = args.scale.unwrap_or(1).max(1);
    if let Some(name) = &args.workload {
        return run_one(name, seed, seconds, args.trace, scale);
    }
    let (doc, correct) = run_all(seed, seconds, args.trace, scale)?;
    let default_name =
        format!("result-{seed}-{}.json", if args.trace { "traced" } else { "untraced" });
    let path = match args.out {
        Some(p) => p,
        None => host::out_dir()?.join(default_name),
    };
    write_result(&doc, &path)?;
    Ok(correct)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
