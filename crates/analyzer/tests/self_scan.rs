//! The workspace itself must scan clean: a lost-update atomic, a Relaxed
//! gate access or a lock guard held across an expensive call fails this test
//! (and `cargo run -p analyzer` in CI). It runs under `cargo test -p analyzer`
//! and `cargo test --workspace`, not under the umbrella package's tier-1
//! `cargo test`.

use std::path::Path;

#[test]
fn workspace_scans_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let findings = analyzer::analyze_workspace(&root).expect("workspace sources readable");
    assert!(
        findings.is_empty(),
        "analyzer found {} issue(s) in the workspace:\n{}",
        findings.len(),
        findings.iter().map(ToString::to_string).collect::<Vec<_>>().join("\n")
    );
}
