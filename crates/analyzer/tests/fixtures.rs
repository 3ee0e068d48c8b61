//! Fixture tests: each known-bad snippet must produce exactly the expected
//! (rule, line) findings, and each known-good twin must produce none. The
//! snippets live under `tests/fixtures/` (which cargo does not compile and
//! the workspace walker skips).

use analyzer::analyze_sources;

/// Runs the analyzer on a single in-memory file and returns the sorted
/// (rule id, line) pairs of every finding.
fn scan(src: &str) -> Vec<(&'static str, usize)> {
    let files = vec![("fixture.rs".to_string(), src.to_string())];
    analyze_sources(&files).into_iter().map(|f| (f.rule, f.line)).collect()
}

#[test]
fn atomic_rmw_bad_flags_load_store_races() {
    // Line 13: the pre-fix EWMA store (value derived through two bindings),
    // 17: an inline load-increment-store.
    let found = scan(include_str!("fixtures/atomic_rmw_bad.rs"));
    assert_eq!(found, [("atomic-rmw", 13), ("atomic-rmw", 17)]);
}

#[test]
fn atomic_rmw_good_is_clean() {
    assert_eq!(scan(include_str!("fixtures/atomic_rmw_good.rs")), []);
}

#[test]
fn atomic_ordering_bad_flags_relaxed_gate_accesses() {
    // Line 10: Relaxed store through the `q` alias, 15: Relaxed load on the
    // `quarantined` gate field.
    let found = scan(include_str!("fixtures/atomic_ordering_bad.rs"));
    assert_eq!(found, [("atomic-ordering", 10), ("atomic-ordering", 15)]);
}

#[test]
fn atomic_ordering_good_accepts_release_acquire_and_relaxed_counters() {
    assert_eq!(scan(include_str!("fixtures/atomic_ordering_good.rs")), []);
}

#[test]
fn guard_bad_flags_decompression_under_the_lock() {
    // Line 18: `try_decompress_page` called while `guard` is live.
    assert_eq!(scan(include_str!("fixtures/guard_bad.rs")), [("guard-across-call", 18)]);
}

#[test]
fn guard_good_accepts_drop_and_scope_release() {
    assert_eq!(scan(include_str!("fixtures/guard_good.rs")), []);
}
