//! Acceptance suite for the fault-tolerant I/O subsystem (DESIGN.md §11).
//!
//! One seeded fault schedule demonstrates the two recovery guarantees of the
//! serial stream:
//!
//! * (a) transient faults (`Interrupted`, `WouldBlock`, short ops) are
//!   absorbed by the retry layer with output byte-identical to a fault-free
//!   run, on both the write and the read path;
//! * (b) a torn write — the process dying mid-stream — is detected via the
//!   commit footer and salvaged to exactly the last committed row-group.
//!
//! The third fault of DESIGN.md §11, a poisoned morsel, is held by
//! `alp::par`'s unit tests (the containment seam itself),
//! `tests/pipelined_ingest.rs` (a worker panic during ingest) and the
//! service's poison suites (`tests/query_service.rs`, `tests/self_healing.rs`).
//!
//! Every schedule is a pure function of the base seed, which comes from
//! `ALP_FAULT_SEED` (default 42) so CI can sweep a matrix; any failure
//! reproduces from the seed alone.

use alp::io::{fault_seed, FaultPlan, FaultyRead, FaultyWrite, RetryPolicy};
use alp::stream::{ColumnReader, ColumnWriter};
use alp_repro::corruption::transient_plans;

/// Values per row-group at the paper's default parameters (100 × 1024).
const ROWGROUP: usize = 102_400;

/// 250 000 decimal-friendly values: two full row-groups plus a tail group.
fn dataset() -> Vec<f64> {
    (0..250_000).map(|i| ((i % 901) as f64) / 8.0 + (i / 901) as f64).collect()
}

/// The fault-free control arm: the exact bytes a healthy writer produces.
fn clean_stream(data: &[f64]) -> Vec<u8> {
    let mut sink = Vec::new();
    let mut writer = ColumnWriter::<f64, _>::new(&mut sink);
    writer.push(data).expect("clean push");
    writer.finish().expect("clean finish");
    sink
}

/// Exclusive end offset of every frame in a `"ALPT"` stream: walks the
/// 5-byte header, then each `len:u32 | xxh64:u64 | body` frame up to the
/// zero-length terminator.
fn frame_ends(bytes: &[u8]) -> Vec<usize> {
    let mut at = 5;
    let mut ends = Vec::new();
    loop {
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().expect("frame length")) as usize;
        if len == 0 {
            return ends;
        }
        at += 4 + 8 + len;
        ends.push(at);
    }
}

#[test]
fn transient_faults_are_absorbed_byte_identically() {
    let seed = fault_seed(42);
    let data = dataset();
    let clean = clean_stream(&data);
    // No backoff sleeps, and a budget no deterministic schedule outlasts.
    let retry = RetryPolicy::immediate(64);

    for (label, plan) in transient_plans(seed) {
        // Write side: every transient and short write retried away, and the
        // bytes that reach the sink are exactly the fault-free stream.
        let mut sink = FaultyWrite::new(Vec::new(), plan);
        let mut writer = ColumnWriter::<f64, _>::new(&mut sink);
        writer.set_retry_policy(retry);
        writer.push(&data).unwrap_or_else(|e| panic!("{label}: push failed: {e}"));
        let summary = writer.finish().unwrap_or_else(|e| panic!("{label}: finish failed: {e}"));
        assert_eq!(summary.rowgroups, 3, "{label}");
        let written = sink.into_inner();
        // Retried transients must not double-count: the summary tracks the
        // bytes that reached the sink, not the attempts.
        assert_eq!(summary.total_bytes, written.len(), "{label}: byte accounting drifted");
        assert_eq!(written, clean, "{label}: faulty write is not byte-identical");

        // Read side: same schedule on the source; the stream must still read
        // committed and bit-exact.
        let source = FaultyRead::new(clean.as_slice(), plan);
        let mut reader = ColumnReader::<f64, _>::with_retry_policy(source, retry)
            .unwrap_or_else(|e| panic!("{label}: open failed: {e}"));
        let mut restored = Vec::new();
        loop {
            match reader.next_rowgroup() {
                Ok(Some(values)) => restored.extend(values),
                Ok(None) => break,
                Err(e) => panic!("{label}: read failed: {e}"),
            }
        }
        assert!(reader.is_committed(), "{label}: commit footer lost to transients");
        assert_eq!(restored.len(), data.len(), "{label}");
        for (i, (a, b)) in data.iter().zip(&restored).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{label}: value {i}");
        }
    }
}

#[test]
fn torn_write_is_detected_and_salvaged_to_committed_prefix() {
    let seed = fault_seed(42);
    let data = dataset();
    let clean = clean_stream(&data);
    let ends = frame_ends(&clean);
    assert_eq!(ends.len(), 3);

    // Control arm: the intact stream reads committed, footer attesting the
    // full contents.
    let mut reader = ColumnReader::<f64, _>::new(clean.as_slice()).expect("open clean");
    while reader.next_rowgroup().expect("read clean").is_some() {}
    assert!(reader.is_committed());
    let footer = reader.footer().expect("clean stream has a footer");
    assert_eq!(footer.values, data.len() as u64);
    assert_eq!(footer.rowgroups, 3);

    // Kill the writer mid-second-frame: exactly `torn` bytes persist, then
    // every write hard-fails, exactly like a crashed process.
    let torn = (ends[0] + ends[1]) / 2;
    let plan = FaultPlan::clean(seed).with_torn_write_at(torn as u64);
    let mut sink = FaultyWrite::new(Vec::new(), plan);
    let mut writer = ColumnWriter::<f64, _>::new(&mut sink);
    writer.set_retry_policy(RetryPolicy::immediate(4));
    let died = match writer.push(&data) {
        Err(e) => Err(e),
        Ok(()) => writer.finish().map(|_| ()),
    };
    assert!(died.is_err(), "a torn write must surface a hard error");
    let torn_bytes = sink.into_inner();
    assert_eq!(torn_bytes.len(), torn);
    assert_eq!(torn_bytes[..], clean[..torn]);

    // Salvage: the first row-group (fully framed before the tear) comes back
    // bit-exact; the tear is reported and the stream is uncommitted.
    let mut reader = ColumnReader::<f64, _>::new(torn_bytes.as_slice()).expect("open torn");
    let mut restored = Vec::new();
    while let Some(values) = reader.next_rowgroup_salvaged().expect("salvage torn") {
        restored.extend(values);
    }
    assert!(!reader.is_committed(), "a torn stream must not read as committed");
    assert!(reader.footer().is_none());
    assert!(!reader.lost_rowgroups().is_empty(), "the tear must be reported");
    assert_eq!(restored.len(), ROWGROUP);
    for (i, (a, b)) in data[..ROWGROUP].iter().zip(&restored).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "salvaged value {i}");
    }

    // Tear inside the footer itself: every frame persisted, so all data
    // salvages with nothing lost — but the commit record is gone, and only
    // `is_committed` tells this apart from a clean shutdown.
    let torn_bytes = &clean[..clean.len() - 10];
    let mut reader = ColumnReader::<f64, _>::new(torn_bytes).expect("open footer-torn");
    let mut restored = Vec::new();
    while let Some(values) = reader.next_rowgroup_salvaged().expect("salvage footer-torn") {
        restored.extend(values);
    }
    assert!(!reader.is_committed(), "a footer-torn stream must not read as committed");
    assert!(reader.lost_rowgroups().is_empty());
    assert_eq!(restored.len(), data.len());
    for (i, (a, b)) in data.iter().zip(&restored).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "footer-torn value {i}");
    }
}
