//! Fixture tests: each known-bad snippet must produce exactly the expected
//! (rule, line) findings, and each known-good twin must produce none. The
//! snippets live under `tests/fixtures/` (which cargo does not compile and
//! the workspace walker skips) and are labeled with synthetic workspace
//! paths so the scoping rules treat them like real sources.

use analyzer::{analyze_sources, Config};

/// Runs the analyzer on a single in-memory file and returns the sorted
/// (rule id, line) pairs of every finding.
fn scan(label: &str, src: &str) -> Vec<(String, usize)> {
    let files = vec![(label.to_string(), src.to_string())];
    let mut found: Vec<(String, usize)> =
        analyze_sources(&files, &Config::default()).into_iter().map(|f| (f.rule, f.line)).collect();
    found.sort();
    found
}

fn pairs(expected: &[(&str, usize)]) -> Vec<(String, usize)> {
    expected.iter().map(|&(r, l)| (r.to_string(), l)).collect()
}

#[test]
fn no_panic_bad_flags_every_panic_site() {
    let found = scan("crates/alp/src/decode.rs", include_str!("fixtures/no_panic_bad.rs"));
    // Line 4: slice indexing, 5: unwrap, 6: narrowing cast, 7: indexed
    // store, 8: unreachable! macro.
    assert_eq!(
        found,
        pairs(&[
            ("no-panic", 4),
            ("no-panic", 5),
            ("no-panic", 6),
            ("no-panic", 7),
            ("no-panic", 8),
        ])
    );
}

#[test]
fn no_panic_good_is_clean() {
    let found = scan("crates/alp/src/decode.rs", include_str!("fixtures/no_panic_good.rs"));
    assert_eq!(found, pairs(&[]));
}

#[test]
fn repair_bad_flags_the_panicking_xor_fold() {
    // Labeled as the real frame module: `repair_rowgroup` matches the
    // `repair` decode-name pattern inside the `alp` decode crate.
    let found = scan("crates/alp/src/frame.rs", include_str!("fixtures/repair_bad.rs"));
    assert_eq!(found, pairs(&[("no-panic", 9)]));
}

#[test]
fn repair_good_is_clean() {
    let found = scan("crates/alp/src/frame.rs", include_str!("fixtures/repair_good.rs"));
    assert_eq!(found, pairs(&[]));
}

#[test]
fn undocumented_unsafe_bad_flags_the_block() {
    let found = scan("crates/alp/src/unsafe_fix.rs", include_str!("fixtures/unsafe_bad.rs"));
    assert_eq!(found, pairs(&[("undocumented-unsafe", 4)]));
}

#[test]
fn undocumented_unsafe_good_is_clean() {
    let found = scan("crates/alp/src/unsafe_fix.rs", include_str!("fixtures/unsafe_good.rs"));
    assert_eq!(found, pairs(&[]));
}

#[test]
fn forbid_bad_flags_missing_declaration() {
    let found = scan("crates/fakecrate/src/lib.rs", include_str!("fixtures/forbid_bad.rs"));
    assert_eq!(found, pairs(&[("undocumented-unsafe", 1)]));
}

#[test]
fn forbid_good_is_clean() {
    let found = scan("crates/fakecrate/src/lib.rs", include_str!("fixtures/forbid_good.rs"));
    assert_eq!(found, pairs(&[]));
}

#[test]
fn wire_bad_flags_orphans_duplicates_and_unread_tags() {
    let found = scan("crates/alp/src/format.rs", include_str!("fixtures/wire_bad.rs"));
    // Line 4: MAGIC written but never read, 5: ORPHAN_TAG orphan, 6:
    // SCHEME_A never read, 7: SCHEME_B duplicates SCHEME_A's value AND is
    // never read.
    assert_eq!(
        found,
        pairs(&[
            ("wire-tag-sync", 4),
            ("wire-tag-sync", 5),
            ("wire-tag-sync", 6),
            ("wire-tag-sync", 7),
            ("wire-tag-sync", 7),
        ])
    );
}

#[test]
fn wire_good_is_clean() {
    let found = scan("crates/alp/src/format.rs", include_str!("fixtures/wire_good.rs"));
    assert_eq!(found, pairs(&[]));
}

#[test]
fn registry_bad_flags_unregistered_duplicate_and_ghost() {
    let found = scan("crates/core/src/registry.rs", include_str!("fixtures/registry_bad.rs"));
    // Line 6: `Beta` implements the trait but is never registered, 11: the
    // `DELTA` instance of the shared `Adapter` is never registered, 16: the
    // second `Alpha` entry is a duplicate, 17: `Ghost` names nothing, 19:
    // `Adapter` is a type with instances, not itself a registrable value.
    assert_eq!(
        found,
        pairs(&[
            ("registry-sync", 6),
            ("registry-sync", 11),
            ("registry-sync", 16),
            ("registry-sync", 17),
            ("registry-sync", 19),
        ])
    );
}

#[test]
fn registry_good_is_clean() {
    let found = scan("crates/core/src/registry.rs", include_str!("fixtures/registry_good.rs"));
    assert_eq!(found, pairs(&[]));
}

#[test]
fn contained_unwind_bad_flags_catch_unwind_outside_the_seam() {
    let found = scan("crates/core/src/worker.rs", include_str!("fixtures/unwind_bad.rs"));
    // Line 4: the `use std::panic::catch_unwind` import, 7: the call site.
    assert_eq!(found, pairs(&[("contained-unwind", 4), ("contained-unwind", 7)]));
}

#[test]
fn contained_unwind_good_exempts_test_functions() {
    let found = scan("crates/core/src/worker.rs", include_str!("fixtures/unwind_good.rs"));
    assert_eq!(found, pairs(&[]));
}

#[test]
fn contained_unwind_allows_the_scheduler_containment_file() {
    // The same known-bad source is legal inside `alp::par`, the one file
    // hosting the containment module.
    let found = scan("crates/alp/src/par.rs", include_str!("fixtures/unwind_bad.rs"));
    assert_eq!(found, pairs(&[]));
}

#[test]
fn atomic_rmw_bad_flags_load_store_races() {
    let found = scan("crates/vectorq/src/stats.rs", include_str!("fixtures/atomic_rmw_bad.rs"));
    // Line 13: the pre-fix EWMA store (value derived through two bindings),
    // 17: an inline load-increment-store.
    assert_eq!(found, pairs(&[("atomic-rmw", 13), ("atomic-rmw", 17)]));
}

#[test]
fn atomic_rmw_good_is_clean() {
    let found = scan("crates/vectorq/src/stats.rs", include_str!("fixtures/atomic_rmw_good.rs"));
    assert_eq!(found, pairs(&[]));
}

#[test]
fn atomic_ordering_bad_flags_relaxed_gate_accesses() {
    let found =
        scan("crates/vectorq/src/store.rs", include_str!("fixtures/atomic_ordering_bad.rs"));
    // Line 10: Relaxed store through the `q` alias, 15: Relaxed load on the
    // `quarantined` gate field.
    assert_eq!(found, pairs(&[("atomic-ordering", 10), ("atomic-ordering", 15)]));
}

#[test]
fn atomic_ordering_good_accepts_release_acquire_and_relaxed_counters() {
    let found =
        scan("crates/vectorq/src/store.rs", include_str!("fixtures/atomic_ordering_good.rs"));
    assert_eq!(found, pairs(&[]));
}

#[test]
fn condvar_bad_flags_unlooped_and_unwrapped_waits() {
    let found = scan("crates/vectorq/src/gate.rs", include_str!("fixtures/condvar_bad.rs"));
    // Line 12 twice: the wait sits in an `if` (no re-check loop) AND its
    // poison result is unwrapped.
    assert_eq!(found, pairs(&[("condvar-discipline", 12), ("condvar-discipline", 12)]));
}

#[test]
fn condvar_good_is_clean() {
    let found = scan("crates/vectorq/src/gate.rs", include_str!("fixtures/condvar_good.rs"));
    assert_eq!(found, pairs(&[]));
}

#[test]
fn guard_bad_flags_decompression_under_the_lock() {
    let found = scan("crates/vectorq/src/svc.rs", include_str!("fixtures/guard_bad.rs"));
    // Line 18: `try_decompress_page` called while `guard` is live.
    assert_eq!(found, pairs(&[("guard-across-call", 18)]));
}

#[test]
fn guard_good_accepts_drop_and_scope_release() {
    let found = scan("crates/vectorq/src/svc.rs", include_str!("fixtures/guard_good.rs"));
    assert_eq!(found, pairs(&[]));
}

#[test]
fn cancel_poll_bad_flags_unpolled_claim_loops() {
    let found = scan("crates/vectorq/src/queue.rs", include_str!("fixtures/cancel_poll_bad.rs"));
    // Line 22: the `while let … claim()` loop never consults cancellation.
    assert_eq!(found, pairs(&[("cancel-poll", 22)]));
}

#[test]
fn cancel_poll_good_accepts_token_and_stop_flag_polls() {
    let found = scan("crates/vectorq/src/queue.rs", include_str!("fixtures/cancel_poll_good.rs"));
    assert_eq!(found, pairs(&[]));
}

#[test]
fn reachability_bad_flags_panic_behind_try_entry() {
    let found = scan("crates/vectorq/src/reach.rs", include_str!("fixtures/reach_bad.rs"));
    // Line 13: `unwrap` in `inner`, three calls deep behind `try_fetch` —
    // outside every textual no-panic scope, caught only via the call graph.
    assert_eq!(found, pairs(&[("no-panic", 13)]));
}

#[test]
fn reachability_good_ignores_panics_no_try_entry_reaches() {
    let found = scan("crates/vectorq/src/reach.rs", include_str!("fixtures/reach_good.rs"));
    assert_eq!(found, pairs(&[]));
}

#[test]
fn malformed_allow_is_reported_and_does_not_suppress() {
    let found = scan("crates/alp/src/decode.rs", include_str!("fixtures/allow_bad.rs"));
    // Line 4: ALLOW missing its reason, 9: ALLOW naming an unknown rule;
    // neither suppresses the indexing on the line below it.
    assert_eq!(
        found,
        pairs(&[("allow-syntax", 4), ("allow-syntax", 9), ("no-panic", 5), ("no-panic", 10),])
    );
}
