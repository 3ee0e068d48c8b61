//! `--smoke`: 1/64 sizes, the minimum number of rounds, every workload,
//! untraced and traced, end to end through the real binary.

use std::process::Command;
use std::time::{Duration, Instant};

#[test]
fn smoke_runs_every_workload_and_parses_its_own_output() {
    let started = Instant::now();
    let out = Command::new(env!("CARGO_BIN_EXE_alp-benchmark"))
        .arg("--smoke")
        .output()
        .expect("the benchmark binary starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "--smoke failed\n{stdout}\n{stderr}");
    assert!(stdout.trim_end().ends_with("smoke ok"), "{stdout}");

    // Four workloads, untraced then traced: eight result lines, all correct.
    let results: Vec<&str> = stdout.lines().filter(|l| l.starts_with('{')).collect();
    assert_eq!(results.len(), 8, "{stdout}");
    for line in &results {
        assert!(line.starts_with(r#"{"correct": true, "attempted": "#), "{line}");
        assert!(line.contains(r#""failed": 0, "metrics": {"#), "{line}");
    }
    for workload in ["decimal_ts", "real_rd", "mixed_wide", "hot_small"] {
        for metric in ["ingest_mbps", "query_p50_ms", "read.unattributed_share"] {
            let prefix = format!("{workload} {metric} ");
            assert!(stdout.lines().any(|l| l.starts_with(&prefix)), "no line {prefix:?}");
        }
    }
    assert!(stdout.contains("real_rd fastlanes.ffor_unpack_mbps note: off the journey"));
    assert!(stdout.contains("decimal_ts alp.rd.decode_mbps note: off the journey"));
    assert!(started.elapsed() < Duration::from_secs(15), "smoke took {:?}", started.elapsed());
}
