//! Pipelined-ingest suite. That the `PipelinedColumnWriter` writes byte for
//! byte the serial `ColumnWriter`'s `"ALPT"` stream at every thread count and
//! pipeline depth is invariant 3 of the differential driver (the first three
//! tests are slices of it; `tests/differential.rs` runs all of it, DESIGN.md
//! §17). What is this suite's own: the same holds under `ALP_FAULT_SEED`-driven
//! transient sink faults, and hard faults and quarantined worker panics
//! degrade to the serial writer's torn-tail shapes (a salvage-readable
//! whole-frame prefix, never a torn frame).

mod driver;

use alp::io::{fault_seed, FaultPlan, FaultyWrite};
use alp::pipeline::{IngestError, PipelineConfig, PipelinedColumnWriter};
use alp::stream::{ColumnReader, ColumnWriter};
use alp::SamplerParams;
use alp_repro::corruption::transient_plans;

/// Small row-groups (4 × 1024 values) keep the sweep cheap while giving the
/// pipeline several frames to keep in flight.
const ROWGROUP: usize = 4 * 1024;
/// Six full row-groups plus a ragged 1500-value tail: seven frames.
const VALUES: usize = 6 * ROWGROUP + 1500;

const THREADS: [usize; 3] = [1, 2, 7];
const DEPTHS: [usize; 3] = [1, 2, 4];

fn params() -> SamplerParams {
    SamplerParams { vectors_per_rowgroup: 4, sample_vectors: 2, ..SamplerParams::default() }
}

fn dataset() -> Vec<f64> {
    (0..VALUES).map(|i| ((i % 577) as f64) * 0.25 + (i / 577) as f64).collect()
}

fn serial_stream(data: &[f64]) -> Vec<u8> {
    let mut sink = Vec::new();
    let mut writer =
        ColumnWriter::<f64, _>::with_params(&mut sink, params()).expect("valid params");
    writer.push(data).expect("push");
    writer.finish().expect("finish");
    sink
}

/// The driver's two `"ALPT"` writers, plain and parity-protected, each swept
/// over threads × depths against the serial writer (depth 0).
fn same_bytes(inputs: &[driver::Input<f64>]) {
    driver::same_bytes(&driver::alp_writers()[2..], inputs);
}

/// The headline equivalence claim: every (threads, depth) combination
/// produces the identical stream — frames, terminator, commit footer — and
/// the identical summary.
#[test]
fn pipelined_matches_serial_across_threads_and_depths() {
    same_bytes(&[driver::Input::new("the suite's column", dataset())]);
}

/// Push granularity must not matter: the driver's pipelined writer is fed
/// ragged pushes (1, 778, 1555, … values) against the serial writer's one.
#[test]
fn pipelined_is_insensitive_to_push_chunking() {
    same_bytes(&driver::arbitrary(6, 9000));
}

/// A column shorter than one row-group (pure ragged tail) and exact
/// row-group multiples.
#[test]
fn pipelined_handles_tail_only_and_aligned_columns() {
    let column = |n| driver::Input::new(format!("length {n}"), driver::ramp(n));
    same_bytes(&[137, 2048, 3 * 2048].map(column));
}

/// Transient sink faults (retryable `Interrupted`/`WouldBlock`/short writes,
/// plans derived from `ALP_FAULT_SEED`) are absorbed by the inner writer's
/// retry policy: the faulty-sink pipelined stream stays byte-identical.
#[test]
fn pipelined_absorbs_transient_write_faults() {
    let seed = fault_seed(42);
    let data = dataset();
    let serial = serial_stream(&data);
    for (label, plan) in transient_plans(seed) {
        for threads in [2usize, 7] {
            let mut sink = FaultyWrite::new(Vec::new(), plan);
            let config = PipelineConfig { threads, depth: 2, panic_at: None };
            let mut writer =
                PipelinedColumnWriter::<f64, _>::with_params(&mut sink, params(), config)
                    .expect("valid params");
            for c in data.chunks(2048) {
                writer.push(c).unwrap_or_else(|e| panic!("{label}: push failed: {e}"));
            }
            writer.finish().unwrap_or_else(|e| panic!("{label}: finish failed: {e}"));
            assert_eq!(
                sink.into_inner(),
                serial,
                "{label} threads={threads}: faulty-sink stream diverged"
            );
        }
    }
}

/// A torn write — the process dying mid-stream — surfaces as a typed I/O
/// error from the pipelined writer, persists exactly the bytes before the
/// tear, and salvage-reads to the committed whole-frame prefix.
#[test]
fn pipelined_torn_write_salvages_committed_prefix() {
    let seed = fault_seed(42);
    let data = dataset();
    let serial = serial_stream(&data);
    // Tear mid-way through the stream: inside some frame's payload.
    let torn = serial.len() / 2;
    let plan = FaultPlan::clean(seed).with_torn_write_at(torn as u64);
    let mut sink = FaultyWrite::new(Vec::new(), plan);
    let config = PipelineConfig { threads: 4, depth: 2, panic_at: None };
    let mut writer = PipelinedColumnWriter::<f64, _>::with_params(&mut sink, params(), config)
        .expect("valid params");
    let mut died = Ok(());
    for c in data.chunks(2048) {
        died = writer.push(c).and(died);
        if died.is_err() {
            break;
        }
    }
    let died = match died {
        Err(e) => {
            drop(writer);
            Err(e)
        }
        Ok(()) => writer.finish().map(|_| ()),
    };
    match died {
        Err(IngestError::Io(_)) => {}
        other => panic!("a torn write must surface IngestError::Io, got {other:?}"),
    }

    let torn_bytes = sink.into_inner();
    assert_eq!(torn_bytes.len(), torn, "exactly the pre-tear bytes persist");
    assert_eq!(torn_bytes[..], serial[..torn], "persisted prefix matches the clean stream");
    let mut reader = ColumnReader::<f64, _>::new(torn_bytes.as_slice()).expect("open torn");
    let mut restored = Vec::new();
    while let Some(values) = reader.next_rowgroup_salvaged().expect("salvage torn") {
        restored.extend(values);
    }
    assert!(!reader.is_committed(), "a torn stream must not read as committed");
    assert_eq!(restored.len() % ROWGROUP, 0, "only whole committed row-groups come back");
    for (i, (a, b)) in data.iter().zip(&restored).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "salvaged value {i}");
    }
}

/// A worker panic is quarantined by the morsel scheduler and surfaces as
/// `IngestError::Poisoned` carrying the row-group sequence number; the sink
/// holds only whole frames from before the poisoned row-group.
#[test]
fn worker_panic_quarantines_and_leaves_salvageable_sink() {
    let data = dataset();
    let poison_seq = 3u64;
    let mut sink = Vec::new();
    let config = PipelineConfig { threads: 4, depth: 2, panic_at: Some(poison_seq) };
    let mut writer = PipelinedColumnWriter::<f64, _>::with_params(&mut sink, params(), config)
        .expect("valid params");
    let mut outcome = Ok(());
    for c in data.chunks(2048) {
        outcome = writer.push(c);
        if outcome.is_err() {
            break;
        }
    }
    let err = match outcome {
        Err(e) => {
            drop(writer);
            e
        }
        Ok(()) => match writer.finish() {
            Err(e) => e,
            Ok(_) => panic!("the injected panic must surface from push or finish"),
        },
    };
    match err {
        IngestError::Poisoned(failure) => {
            assert_eq!(failure.morsel, poison_seq as usize, "failure names the row-group");
            assert!(
                failure.message.contains("injected pipeline fault"),
                "failure carries the rendered panic message, got {:?}",
                failure.message
            );
        }
        other => panic!("expected IngestError::Poisoned, got {other:?}"),
    }

    // Never a torn frame: the sink salvage-reads to a whole-row-group prefix
    // of the column, and only row-groups before the poisoned one.
    let mut reader = ColumnReader::<f64, _>::new(sink.as_slice()).expect("open poisoned sink");
    let mut restored = Vec::new();
    while let Some(values) = reader.next_rowgroup_salvaged().expect("salvage poisoned") {
        restored.extend(values);
    }
    assert!(!reader.is_committed(), "a poisoned stream is never committed");
    assert!(restored.len() <= poison_seq as usize * ROWGROUP);
    assert_eq!(restored.len() % ROWGROUP, 0, "only whole frames reach the sink");
    for (i, (a, b)) in data.iter().zip(&restored).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "committed-prefix value {i}");
    }
}

/// The summary says what the encoder decided — and says the same whoever
/// encoded: ALP and ALP_rd row-groups, skipped level-2 searches and rescued
/// vectors sum to what `Compressor::compress` reports for the column, at
/// every thread count and depth.
#[test]
fn summaries_agree_with_the_serial_writer_and_the_column_compressor() {
    // Two decimal row-groups, one whose second and fourth vectors hold a burst
    // level 1 does not sample (it takes the first and the third: rescued per
    // vector), two of real doubles, a decimal tail.
    let mut data: Vec<f64> = (0..2 * ROWGROUP).map(|i| (i % 577) as f64 * 0.25).collect();
    data.extend((0..ROWGROUP).map(|i| match i / 1024 {
        1 | 3 => (i as f64 + 0.5).sqrt(),
        _ => (i % 91) as f64 / 4.0,
    }));
    data.extend((0..2 * ROWGROUP).map(|i| ((i as f64) * 0.31).cos() * 1e-5));
    data.extend((0..1500).map(|i| i as f64 / 8.0));

    let column = alp::Compressor::with_params(params()).expect("valid params").compress(&data);
    let mut sink = Vec::new();
    let mut writer =
        ColumnWriter::<f64, _>::with_params(&mut sink, params()).expect("valid params");
    writer.push(&data).expect("push");
    let serial = writer.finish().expect("finish");
    assert_eq!(serial.stats, column.stats);
    assert_eq!(serial.stats.rowgroups_alp + serial.stats.rowgroups_rd, serial.rowgroups);
    assert!(serial.stats.rowgroups_alp >= 3 && serial.stats.rowgroups_rd >= 2, "{serial:?}");
    assert!(serial.stats.rescued_vectors > 0, "{serial:?}");

    for threads in THREADS {
        for depth in DEPTHS {
            let mut sink = Vec::new();
            let config = PipelineConfig { threads, depth, panic_at: None };
            let mut writer =
                PipelinedColumnWriter::<f64, _>::with_params(&mut sink, params(), config)
                    .expect("valid params");
            for c in data.chunks(1777) {
                writer.push(c).expect("push");
            }
            let pipelined = writer.finish().expect("finish");
            assert_eq!(pipelined, serial, "threads={threads} depth={depth}");
        }
    }
}
