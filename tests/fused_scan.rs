//! The compressed-domain scan is bit-identical to materialize-then-scan, in
//! the column's operators and on every service route — names the test floor
//! pins, each one a slice of the differential driver's aggregate axis
//! (`tests/differential.rs` runs all of it; DESIGN.md §17) on the inputs that
//! tell a correct fused kernel from a plausible one, over the two storages
//! that have a fused path.

mod driver;

use driver::*;
use vectorq::Format;

fn fused_matches_the_oracle(inputs: &[Input<f64>]) {
    for input in inputs {
        for format in [Format::Uncompressed, Format::alp()] {
            assert_aggregates(&input.values, false, format, &input.name);
        }
    }
}

/// Mid-stream patching order: every vector carries many exceptions.
#[test]
fn fused_scan_matches_materialized_on_exception_heavy_vectors() {
    fused_matches_the_oracle(&arbitrary_of("mixed", 2, 11_000));
}

/// Validity counts and min/max emptiness.
#[test]
fn fused_scan_matches_materialized_on_nan_dense_and_all_nan_pages() {
    fused_matches_the_oracle(&nan_shapes());
}

/// A partial final block and a partial final vector.
#[test]
fn fused_scan_matches_materialized_on_ragged_tails() {
    fused_matches_the_oracle(&vector_lengths());
    fused_matches_the_oracle(&[Input::new("three vectors and 777", ramp(3 * 1024 + 777))]);
}

/// −0.0 == 0.0 but the bits differ: the keep-the-earlier tie rule.
#[test]
fn fused_scan_handles_signed_zero_ties() {
    let zeros = bit_patterns().into_iter().filter(|input| input.name.starts_with("signed zeros"));
    fused_matches_the_oracle(&zeros.collect::<Vec<_>>());
}

#[test]
fn fused_scan_is_bit_identical_for_arbitrary_data() {
    fused_matches_the_oracle(&arbitrary(9, 4000));
}

#[test]
fn fused_scan_is_bit_identical_for_pure_noise() {
    fused_matches_the_oracle(&arbitrary_of("noise", 4, 3000));
}

/// Two 100-vector pages, every route, every thread count.
#[test]
fn service_fused_and_materializing_paths_agree_at_every_thread_count() {
    assert_aggregates(&exact_column(Format::alp()), true, Format::alp(), "two pages");
}

/// NaNs in every page: the counts a fused page reports are the column's own.
#[test]
fn service_fused_path_reports_validity_counts() {
    let gauge = fcbench::<f64>(9000).swap_remove(3);
    assert!(gauge.values.iter().any(|x| x.is_nan()), "{} holds NaNs", gauge.name);
    fused_matches_the_oracle(&[gauge]);
}
