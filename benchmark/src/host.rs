//! What identifies the host and the build a result came from, and where the
//! benchmark may write.

use std::path::PathBuf;
use std::process::Command;

use crate::json::Json;
use crate::spec;

/// The benchmark's own directory: where `cargo run` found the manifest, or
/// where it was when the binary was built.
pub fn package_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")))
}

/// `benchmark/out`, created on demand; everything a run writes lands here.
pub fn out_dir() -> Result<PathBuf, String> {
    let dir = package_dir().join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(package_dir())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The `[profile.release]` table this binary was built under.
fn release_profile() -> String {
    let manifest = include_str!("../Cargo.toml");
    let table = manifest.split("[profile.release]").nth(1).unwrap_or("");
    let end = table.find("\n[").unwrap_or(table.len());
    let settings = table[..end].lines().map(str::trim).filter(|l| !l.starts_with('#'));
    settings.flat_map(str::split_whitespace).collect::<Vec<_>>().join(" ")
}

/// Host, toolchain, commit, build flags, seed, sizes and run lengths. Two
/// result files are comparable only when these agree.
pub fn fingerprint(seed: u64, seconds: u64, scale: usize, traced: bool) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let sizes = spec::WORKLOADS
        .iter()
        .map(|w| (w.name, Json::Num(w.total_values(scale) as f64)))
        .collect::<Vec<_>>();
    Json::obj([
        ("nproc", Json::Num(nproc as f64)),
        ("cpu_model", Json::str(cpu_model())),
        ("rustc", Json::str(command_line("rustc", &["-V"]))),
        ("git_head", Json::str(command_line("git", &["rev-parse", "HEAD"]))),
        ("release_profile", Json::str(release_profile())),
        ("seed", Json::Num(seed as f64)),
        ("run_seconds", Json::Num(seconds as f64)),
        ("traced", Json::Bool(traced)),
        ("values", Json::obj(sizes)),
        ("min_rounds", Json::Num(spec::MIN_ROUNDS as f64)),
        ("warmup_rounds", Json::Num(spec::WARMUP_ROUNDS as f64)),
        ("setup_repeats", Json::Num(spec::SETUP_REPEATS as f64)),
        ("trace_rounds", Json::Num(spec::TRACE_ROUNDS as f64)),
        ("build_threads", Json::Num(spec::BUILD_THREADS as f64)),
        ("pipeline_depth", Json::Num(spec::PIPELINE_DEPTH as f64)),
    ])
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024.0 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn release_profile_is_the_manifests() {
        assert_eq!(release_profile(), "lto = \"thin\" codegen-units = 1");
    }

    #[test]
    fn peak_rss_is_readable_here() {
        assert!(peak_rss_mb().is_some_and(|mb| mb > 1.0));
    }
}
