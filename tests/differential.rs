//! The differential driver: *paths* × *inputs* × `f64` and `f32` × threads
//! `{1, 2, 4, ALP_THREADS}`, held to three invariants against one oracle
//! (`tests/driver/mod.rs` writes each once; DESIGN.md §17 has the axis table
//! and the map from every older per-feature test to its axis here):
//!
//! 1. decoded bits equal the input, on every path;
//! 2. aggregates equal `alp_core::scan::scan_values` over the plain values,
//!    bit for bit, on every storage and every service route;
//! 3. written bytes are identical at every thread count and pipeline depth;
//!
//! plus the reader contract over seeded, structure-aware mutations of all five
//! readable layouts: every reader returns, and no single allocation request
//! exceeds the layout's ceiling. Seeds come from `ALP_FAULT_SEED`.

mod driver;

use driver::*;

#[global_allocator]
static GLOBAL: common::CountingAlloc = common::CountingAlloc;

/// Values per generated column: four 2-vector row-groups and a ragged fifth.
const N: usize = 8 * 1024 + 333;

fn inputs<F: Float>() -> Vec<Input<F>> {
    let mut inputs = bit_patterns();
    inputs.extend(vector_lengths());
    inputs.extend(datasets(N));
    inputs.extend(fcbench(N));
    inputs.extend(arbitrary(12, 5000));
    inputs
}

// --- Invariant 1 -----------------------------------------------------------

/// The ALP-native paths also take the lengths that straddle the paper's
/// 102 400-value row-group: that is where a row-group is a thing.
#[test]
fn lossless_on_every_alp_path_as_f64() {
    lossless::<f64>(&alp_paths(), &inputs());
    lossless::<f64>(&alp_paths(), &rowgroup_lengths());
}

#[test]
fn lossless_on_every_alp_path_as_f32() {
    lossless::<f32>(&alp_paths(), &inputs());
    lossless::<f32>(&alp_paths(), &rowgroup_lengths()[2..]);
}

#[test]
fn lossless_through_every_registry_codec_at_both_widths() {
    lossless::<f64>(&codecs(), &inputs());
    lossless::<f32>(&codecs(), &inputs());
}

/// The `f64`-only layers above the codecs: chunked parallel compression, the
/// `"ALPC"` container and `vectorq`'s stored columns. They add framing and
/// chunking, not value handling, so they sweep the inputs that stress those:
/// every bit pattern, every vector-straddling length, every FCBench domain.
/// (`oracle_matches_every_operator…` below crosses a row-group boundary.)
#[test]
fn lossless_through_chunks_containers_and_stored_columns() {
    let mut inputs = bit_patterns::<f64>();
    inputs.extend(vector_lengths());
    inputs.extend(fcbench(4 * 1024 + 333));
    lossless(&codec_chunks(), &inputs);
    lossless(&containers(), &inputs);
    lossless(&stored_columns(), &inputs);
}

/// The driver bites: a path that loses what a float compare cannot see — it
/// canonicalises NaN payloads and drops the sign of −0.0 — fails invariant 1
/// on the bit-pattern classes, at both widths. (With the assertion in
/// `assert_lossless` removed, this test fails.)
#[test]
fn lossless_bites_a_lossy_path_on_the_bit_pattern_classes() {
    fn lossy<F: Float>() -> Path<F> {
        Path::new("lossy", false, |_, data: &[F]| {
            let flatten = |&x: &F| match () {
                _ if x.is_nan() => F::of(f64::NAN),
                _ if x == F::of(0.0) => F::of(0.0),
                _ => x,
            };
            vec![("flattened".into(), data.iter().map(flatten).collect())]
        })
    }
    fn caught<F: Float>(class: &str) -> bool {
        let inputs = bit_patterns::<F>();
        let input = inputs.iter().find(|i| i.name.starts_with(class)).expect("a class");
        let check = || assert_lossless(&lossy::<F>(), input, 1);
        std::thread::scope(|s| s.spawn(check).join().is_err())
    }
    for class in ["NaN payloads", "signed zeros", "every class amid decimals"] {
        assert!(caught::<f64>(class) && caught::<f32>(class), "{class}: the lossy path passed");
    }
    // …and only there: it is faithful on the classes it does not touch.
    assert!(!caught::<f64>("subnormals") && !caught::<f32>("infinities"));
}

// --- Invariant 2 -----------------------------------------------------------

/// Every storage × every operator × every service route × the thread sweep
/// on the column that holds every bit-pattern class and spans a ragged second
/// row-group; its partial sums are exact, so the routes that add in their own
/// order are held to the oracle's bits too.
#[test]
fn oracle_matches_every_operator_on_every_storage() {
    for format in formats() {
        assert_aggregates(&exact_column(format), true, format, "every class at chosen places");
    }
}

/// The same on shapes whose sums round: every FCBench domain, a spread of the
/// dataset shapes (decimals, heavy tails, sparse, real doubles), the special
/// values amid decimals (±0 ties, NaN and infinite members of a sum), NaN-dense
/// and all-NaN pages, decimals with noise (exception-heavy vectors) and pure
/// noise, and the shortest columns — the generated ones a ragged four vectors,
/// two pages.
#[test]
fn oracle_matches_on_every_input_shape() {
    let n = 3 * 1024 + 333;
    let mut inputs = fcbench::<f64>(n);
    inputs.extend(datasets(n).into_iter().step_by(7));
    inputs.extend(bit_patterns().pop());
    inputs.extend(nan_shapes());
    inputs.extend(arbitrary(3, n).into_iter().skip(1));
    inputs.extend(vector_lengths().into_iter().step_by(2));
    for input in &inputs {
        for format in formats() {
            assert_aggregates(&input.values, false, format, &input.name);
        }
    }
}

/// Vectors inside the band, answered from their zone maps, on the shapes
/// that make a stored sum hard: NaN payloads, ±0, ±∞ and extremes,
/// subnormals, each alone and amid decimals, NaN-dense and all-NaN vectors,
/// ALP and ALP_rd row-groups with a short tail vector — on raw values and
/// ALP.
#[test]
fn zone_answered_vectors_match_the_oracle_on_every_shape() {
    let n = 3 * 1024 + 333;
    let mut inputs = bit_patterns::<f64>();
    inputs.extend(nan_shapes());
    let alp_rd = [("City-Temp", alp::Scheme::Alp), ("POI-lat", alp::Scheme::AlpRd)];
    for (name, scheme) in alp_rd {
        let input = dataset::<f64>(name, n);
        let compressed = alp::Compressor::new().compress(&input.values);
        assert!(compressed.rowgroups.iter().all(|rg| rg.scheme() == scheme), "{name}");
        inputs.push(input);
    }
    for input in &inputs {
        for format in formats() {
            assert_zone_answers(&input.values, format, &input.name);
        }
    }
}

/// Vectors that straddle the band, summed block by block from their block
/// zones, on the shapes that make a plan hard: band edges on, just inside
/// and between 64-value block boundaries; ragged tails of 333 and 40 values;
/// `±0.0` at the edges; `±∞` bounds and a vector holding `+∞` and `−∞`
/// (NaN-free, and beside a NaN, whose matched sum is NaN: the one band that
/// holds both infinities holds every non-NaN value, so only a NaN makes such
/// a vector straddle it); vectors holding a
/// NaN, which keep the vector route; ALP row-groups with exceptions behind
/// skipped blocks, and ALP_rd row-groups — on raw values and ALP, through
/// `sum_where` and every service route.
#[test]
fn block_pruned_answers_match_the_oracle_on_every_shape() {
    let n = 3 * 1024 + 333;
    let mut inputs = block_shapes();
    inputs.extend(nan_shapes());
    let alp_rd = [("City-Temp", alp::Scheme::Alp), ("POI-lat", alp::Scheme::AlpRd)];
    for (name, scheme) in alp_rd {
        let input = dataset::<f64>(name, n);
        let compressed = alp::Compressor::new().compress(&input.values);
        assert!(compressed.rowgroups.iter().all(|rg| rg.scheme() == scheme), "{name}");
        inputs.push(input);
    }
    let ascending = &inputs[0].values;
    let compressed = alp::Compressor::new().compress(ascending);
    let exceptions = compressed.rowgroups.iter().map(|rg| match rg {
        alp::RowGroup::Alp(group) => group.vectors.iter().map(|v| v.exc_count as usize).sum(),
        alp::RowGroup::Rd(..) => 0,
    });
    assert!(exceptions.sum::<usize>() >= 16, "every block of the ascending decimals has one");
    for input in &inputs {
        for format in formats() {
            assert_zone_answers(&input.values, format, &input.name);
        }
    }
}

// --- Invariant 3 -----------------------------------------------------------

/// The shapes the writers are swept over: every bit pattern, every length,
/// every FCBench domain, a spread of the datasets and the arbitrary columns.
fn shapes<F: Float>() -> Vec<Input<F>> {
    let mut inputs = bit_patterns();
    inputs.extend(vector_lengths());
    inputs.extend(fcbench(N));
    inputs.extend(datasets(N).into_iter().step_by(4));
    inputs.extend(arbitrary(6, 5000));
    inputs
}

#[test]
fn same_bytes_from_the_alp_writers_at_every_thread_count_and_depth() {
    same_bytes::<f64>(&alp_writers(), &shapes());
    same_bytes::<f64>(&alp_writers(), &rowgroup_lengths()[2..]);
    same_bytes::<f32>(&alp_writers(), &shapes());
}

#[test]
fn same_bytes_from_every_codec_chunk_at_every_thread_count() {
    let mut every_other: Vec<_> = shapes::<f64>().into_iter().step_by(2).collect();
    // The stride skips the empty column; add it back.
    every_other.extend(vector_lengths().into_iter().take(1));
    same_bytes(&chunk_writers(), &every_other);
}

// --- Readers are total -------------------------------------------------------

#[test]
fn total_and_bounded_over_mutated_alp2_and_alpt_bytes() {
    // At `f32`: the plain column (whose strict reader must refuse every flip)
    // and the protected stream (every frame kind there is).
    let [narrow_column, _, _, narrow_stream] = written_layouts(&mutation_column::<f32>(4));
    for layout in
        written_layouts(&mutation_column::<f64>(4)).iter().chain([&narrow_column, &narrow_stream])
    {
        assert_total(layout, seed());
    }
}

#[test]
fn total_and_bounded_over_mutated_legacy_bytes() {
    for layout in &legacy_layouts() {
        assert_total(layout, seed());
    }
}

#[test]
fn total_and_bounded_over_mutated_container_and_codec_bytes() {
    let doubles = mutation_column::<f64>(4).values;
    let floats = mutation_column::<f32>(4).values;
    for &codec in alp_core::Registry::all() {
        if f64::speaks(codec) {
            // The envelope's readers do not look inside the payload: one
            // protected container is as good as eleven, and a short column as
            // a long one.
            let short = &doubles[3000..5000];
            assert_total(&container_layout(codec, short, codec.id() == "alp"), seed());
            assert_total(&codec_layout::<f64>(codec, &doubles), seed());
        }
        if f32::speaks(codec) {
            assert_total(&codec_layout::<f32>(codec, &floats), seed());
        }
    }
}
