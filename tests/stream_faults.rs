//! Stream-layer truncation suite: a writer killed at an arbitrary byte
//! offset — mid-header, mid-payload, or mid-footer — leaves a stream that
//! salvage-reads to exactly the committed row-group prefix, reports the rest
//! as lost, and never claims to be committed. Offsets are seeded draws
//! (`ALP_FAULT_SEED`); the boundary cuts (frame edges, terminator, footer) run
//! exhaustively.

use alp::io::{fault_seed, FaultyRead, RetryPolicy};
use alp::stream::{ColumnReader, ColumnWriter};
use alp::SamplerParams;
use alp_repro::corruption::{stream_frame_spans, transient_plans, SplitMix64};

mod driver;

/// Small row-groups (4 × 1024 values) keep each case cheap while still
/// giving several frames to cut between.
const ROWGROUP: usize = 4 * 1024;
/// Four full row-groups plus a 1000-value tail group: five frames.
const VALUES: usize = 4 * ROWGROUP + 1000;

fn params() -> SamplerParams {
    SamplerParams { vectors_per_rowgroup: 4, sample_vectors: 2, ..SamplerParams::default() }
}

fn dataset() -> Vec<f64> {
    (0..VALUES).map(|i| ((i % 577) as f64) * 0.25 + (i / 577) as f64).collect()
}

fn clean_stream(data: &[f64]) -> Vec<u8> {
    let mut sink = Vec::new();
    let mut writer =
        ColumnWriter::<f64, _>::with_params(&mut sink, params()).expect("valid params");
    writer.push(data).expect("push");
    writer.finish().expect("finish");
    sink
}

/// Exclusive end offset of every frame up to the terminator.
fn frame_ends(bytes: &[u8]) -> Vec<usize> {
    stream_frame_spans(bytes).iter().map(|&(_, end, _)| end).collect()
}

/// Values held by the first `frames` row-groups of the dataset.
fn values_in(frames: usize) -> usize {
    (frames * ROWGROUP).min(VALUES)
}

/// The invariant every truncation must satisfy: drains a salvage read of
/// `bytes[..cut]` and checks the recovered prefix, the loss report, and the
/// commit verdict against the frame layout.
fn check_cut(data: &[f64], clean: &[u8], ends: &[usize], cut: usize) {
    let torn = &clean[..cut];
    if cut < 5 {
        // Mid-header: not even the magic survives; the stream is unreadable.
        assert!(ColumnReader::<f64, _>::new(torn).is_err(), "cut {cut}: header must not parse");
        return;
    }
    let mut reader =
        ColumnReader::<f64, _>::new(torn).unwrap_or_else(|e| panic!("cut {cut}: open failed: {e}"));
    let mut restored = Vec::new();
    while let Some(values) =
        reader.next_rowgroup_salvaged().unwrap_or_else(|e| panic!("cut {cut}: salvage failed: {e}"))
    {
        restored.extend(values);
    }
    // The committed prefix: every frame wholly inside the cut decodes
    // bit-exactly, in order.
    let committed_frames = ends.iter().filter(|&&e| e <= cut).count();
    let expected = values_in(committed_frames);
    assert_eq!(restored.len(), expected, "cut {cut}: salvaged prefix length");
    for (i, (a, b)) in data[..expected].iter().zip(&restored).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "cut {cut}: value {i}");
    }
    // A truncated stream never reads as committed, and any frame loss is
    // reported.
    assert!(!reader.is_committed(), "cut {cut}: truncation must clear the commit");
    if committed_frames < ends.len() {
        assert!(!reader.lost_rowgroups().is_empty(), "cut {cut}: loss must be reported");
    }
}

#[test]
fn every_boundary_cut_salvages_the_committed_prefix() {
    let data = dataset();
    let clean = clean_stream(&data);
    let ends = frame_ends(&clean);
    assert_eq!(ends.len(), 5);

    let mut cuts: Vec<usize> = (0..=5).collect(); // mid-header and header edge
    for &e in &ends {
        cuts.extend([e - 1, e, e + 1]); // frame edges: last byte, exact, first of next
    }
    let term = ends[ends.len() - 1] + 4;
    cuts.extend([term - 2, term, term + 1]); // terminator edges
    cuts.extend([clean.len() - 1, clean.len() - 12, clean.len() - 23]); // mid-footer
    for cut in cuts {
        check_cut(&data, &clean, &ends, cut);
    }
}

/// 64 seeded cuts anywhere before the last byte.
#[test]
fn any_cut_salvages_the_committed_prefix() {
    let data = dataset();
    let clean = clean_stream(&data);
    let ends = frame_ends(&clean);
    let mut rng = SplitMix64::new(driver::seed() ^ 0xC07);
    for _ in 0..64 {
        check_cut(&data, &clean, &ends, rng.below(clean.len() - 1));
    }
}

/// A torn stream read through a flaky source: the salvage path must retry
/// transients and recover exactly what a fault-free read of the same torn
/// bytes recovers. 64 seeded (cut past the header, transient plan) cases.
#[test]
fn salvage_retries_transient_reads_while_truncated() {
    let data = dataset();
    let clean = clean_stream(&data);
    let plans = transient_plans(fault_seed(42));
    let mut rng = SplitMix64::new(driver::seed() ^ 0x7EA2);
    for _ in 0..64 {
        let cut = 5 + rng.below(clean.len() - 6);
        let (name, plan) = &plans[rng.below(3)];
        let torn = &clean[..cut];

        let mut reference = ColumnReader::<f64, _>::new(torn).expect("open reference");
        let mut want = Vec::new();
        while let Some(values) = reference.next_rowgroup_salvaged().expect("reference salvage") {
            want.extend(values);
        }

        let source = FaultyRead::new(torn, *plan);
        let mut reader =
            ColumnReader::<f64, _>::with_retry_policy(source, RetryPolicy::immediate(64))
                .expect("open faulty");
        let mut got = Vec::new();
        while let Some(values) = reader.next_rowgroup_salvaged().expect("faulty salvage") {
            got.extend(values);
        }
        let label = format!("cut {cut}, plan {name}");
        assert_eq!(got.len(), want.len(), "{label}");
        for (a, b) in want.iter().zip(&got) {
            assert_eq!(a.to_bits(), b.to_bits(), "{label}");
        }
        assert_eq!(reader.is_committed(), reference.is_committed(), "{label}");
        assert_eq!(reader.lost_rowgroups(), reference.lost_rowgroups(), "{label}");
    }
}

#[test]
fn legacy_streams_commit_at_the_terminator() {
    // `"ALPS"` has no footer: reaching the terminator *is* the commit
    // record, and a truncated legacy stream still reads as uncommitted. No
    // V1 writer is left; the frozen golden stream stands in for one.
    let clean = std::fs::read(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/alps_f64.bin"))
        .expect("tests/golden/alps_f64.bin");

    let mut reader = ColumnReader::<f64, _>::new(clean.as_slice()).expect("open legacy");
    while reader.next_rowgroup().expect("read legacy").is_some() {}
    assert!(reader.is_committed());
    assert!(reader.footer().is_none(), "legacy streams carry no footer");

    let torn = &clean[..clean.len() - 3];
    let mut reader = ColumnReader::<f64, _>::new(torn).expect("open torn legacy");
    while reader.next_rowgroup_salvaged().expect("salvage torn legacy").is_some() {}
    assert!(!reader.is_committed());
}
