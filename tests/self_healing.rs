//! Acceptance suite for the self-healing storage layer (DESIGN.md §16).
//!
//! Four guarantees, end to end:
//!
//! * (a) a parity-protected stream repairs *any* single corrupted data frame
//!   per group byte-identically, for every group size, at seed-derived
//!   corruption offsets;
//! * (b) the three parity fault families uphold their contracts on every
//!   framed format — `"ALPT"` stream, `"ALP2"` column, `"ALPC"` container —
//!   from one table and one seed: one fault per group repairs, two faults in
//!   one group degrade to an honest loss report, damaged parity frames cost
//!   no data;
//! * (c) the pipelined parity writer is byte-identical to the serial parity
//!   writer at every thread count × pipeline depth;
//! * (d) the query-service scrubber un-quarantines healed pages while query
//!   workers race it — results only ever improve (partial → complete, loss
//!   never grows), and the final result is complete and bit-identical to a
//!   never-poisoned store.
//!
//! Plus the registry-wide container check: every codec's `"ALPC"` envelope,
//! written with `ParityConfig { group_size: 4 }`, survives a corrupted
//! payload slice and decodes byte-identically through the salvage path.
//!
//! Everything derives from `ALP_FAULT_SEED` (default 42 for corruption
//! offsets, 1 for poison plans) so CI sweeps seeds without recompiling.

use std::sync::Arc;

use alp::io::fault_seed;
use alp::pipeline::{PipelineConfig, PipelinedColumnWriter};
use alp::stream::{ColumnReader, ColumnWriter};
use alp::{ParityConfig, SamplerParams};
use alp_repro::corruption::{
    frame_spans, parity_fault_family, stream_frame_spans, ParityExpectation, SplitMix64,
};
use fastlanes::VECTOR_SIZE;
use vectorq::cache::CacheConfig;
use vectorq::scrub::ScrubOptions;
use vectorq::service::{LossReason, PoisonPlan, QueryOptions, Service, ServiceConfig, Store};
use vectorq::{Column, Format};

mod driver;

/// 250 000 decimal-friendly values: two full row-groups plus a tail group.
fn dataset() -> Vec<f64> {
    (0..250_000).map(|i| ((i % 901) as f64) / 8.0 + (i / 901) as f64).collect()
}

/// A parity-protected `"ALPT"` stream over `data`.
fn parity_stream(data: &[f64], group_size: usize) -> Vec<u8> {
    let mut sink = Vec::new();
    let mut writer = ColumnWriter::<f64, _>::with_parity(&mut sink, ParityConfig { group_size })
        .expect("valid group size");
    writer.push(data).expect("clean push");
    writer.finish().expect("clean finish");
    sink
}

/// Drains `bytes` through the repairing salvage reader; returns the values
/// plus the loss and repair reports.
fn drain_salvaged(bytes: &[u8]) -> (Vec<f64>, Vec<usize>, Vec<usize>) {
    let mut reader = ColumnReader::<f64, _>::new(bytes).expect("open stream");
    let mut values = Vec::new();
    while let Some(chunk) = reader.next_rowgroup_salvaged().expect("salvage walk") {
        values.extend(chunk);
    }
    (values, reader.lost_rowgroups().to_vec(), reader.repaired_rowgroups().to_vec())
}

fn assert_bits_eq(expect: &[f64], got: &[f64], label: &str) {
    assert_eq!(expect.len(), got.len(), "{label}: length");
    for (i, (a, b)) in expect.iter().zip(got).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{label}: value {i}");
    }
}

/// (a) For every group size and a seed-derived corruption offset inside a
/// seed-picked data frame's body, the salvage reader reconstructs the stream
/// byte-identically and names exactly the repaired row-group. 24 seeded cases.
#[test]
fn any_single_corrupt_frame_per_group_repairs_byte_identically() {
    let data = dataset();
    let streams: Vec<(usize, Vec<u8>)> =
        [2, 4, 8].into_iter().map(|gs| (gs, parity_stream(&data, gs))).collect();
    let mut rng = SplitMix64::new(driver::seed() ^ 0x5E1F);
    for _ in 0..24 {
        let (group_size, clean) = &streams[rng.below(streams.len())];
        let spans = stream_frame_spans(clean);
        let data_frames: Vec<(usize, usize)> =
            spans.iter().filter(|&&(_, _, p)| !p).map(|&(s, e, _)| (s, e)).collect();
        assert_eq!(data_frames.len(), 3);

        let victim = rng.below(data_frames.len());
        let (s, e) = data_frames[victim];
        // Land strictly inside the frame body, past the len|xxh64 prefix.
        let pos = s + 12 + rng.below(e - s - 12);
        let mut bytes = clean.clone();
        bytes[pos] ^= 0xFF;

        let label = format!("group {group_size}, frame {victim}, byte {pos}");
        let (values, lost, repaired) = drain_salvaged(&bytes);
        assert!(lost.is_empty(), "{label}: lost {lost:?}");
        assert_eq!(repaired, vec![victim], "{label}");
        assert_bits_eq(&data, &values, &label);
    }
}

/// Where an `"ALPC"` envelope's frames start: magic, id length, id, then the
/// value count, payload length and whole-payload checksum.
fn container_frames_at(codec: &dyn alp_core::ColumnCodec) -> usize {
    4 + 1 + codec.id().len() + 8 + 8 + 8
}

/// What one salvaging read recovered: the surviving values plus the loss and
/// repair reports, in data-frame indices. `Err` is the all-or-nothing
/// formats' honest loss — a typed error instead of partial values.
type Salvaged = Result<(Vec<f64>, Vec<usize>, Vec<usize>), String>;

/// One framed format under the shared fault table.
struct Surface {
    name: &'static str,
    /// Pristine parity-protected bytes (group size 4) over [`table_dataset`].
    clean: Vec<u8>,
    /// Where the frames start: the format's header length.
    frames_at: usize,
    /// Values per data frame, for "the rest is intact" on partial reads;
    /// `None` where frames are opaque slices and loss is all-or-nothing.
    values_per_frame: Option<usize>,
    read: fn(&[u8]) -> Salvaged,
}

/// Two-vector row-groups, so the stream and column get 13 data frames: three
/// full parity groups of 4 and a partial tail group.
const TABLE_ROWGROUP: usize = 2 * VECTOR_SIZE;

fn table_dataset() -> Vec<f64> {
    (0..12 * TABLE_ROWGROUP + 700).map(|i| ((i % 901) as f64) * 0.05 + (i / 901) as f64).collect()
}

fn table_surfaces(data: &[f64]) -> Vec<Surface> {
    let params = SamplerParams { vectors_per_rowgroup: 2, ..SamplerParams::default() };
    let parity = ParityConfig { group_size: 4 };

    let mut stream = Vec::new();
    let mut writer = ColumnWriter::<f64, _>::with_params_and_parity(&mut stream, params, parity)
        .expect("valid config");
    writer.push(data).expect("push");
    writer.finish().expect("finish");

    let compressed = alp::Compressor::with_params(params).expect("valid params").compress(data);
    let column = alp::format::to_bytes_with_parity(&compressed, parity).expect("valid parity");

    let codec = alp_core::Registry::get("alp").expect("registered");
    let container =
        alp_core::write_container_with_parity(codec, data, &mut alp_core::Scratch::new(), parity)
            .expect("container write");

    vec![
        Surface {
            name: "ALPT stream",
            clean: stream,
            frames_at: 5,
            values_per_frame: Some(TABLE_ROWGROUP),
            read: |bytes| Ok(drain_salvaged(bytes)),
        },
        Surface {
            name: "ALP2 column",
            clean: column,
            frames_at: 4 + 1 + 8 + 4,
            values_per_frame: Some(TABLE_ROWGROUP),
            read: |bytes| {
                let serial =
                    alp::format::from_bytes_salvage_parallel::<f64>(bytes, 1).expect("salvage");
                let par = alp::format::from_bytes_salvage_parallel::<f64>(bytes, 4).expect("par");
                assert_eq!(par.lost_rowgroups, serial.lost_rowgroups);
                assert_eq!(par.repaired_rowgroups, serial.repaired_rowgroups);
                assert_eq!(serial.is_complete(), serial.lost_rowgroups.is_empty());
                Ok((serial.column.decompress(1), serial.lost_rowgroups, serial.repaired_rowgroups))
            },
        },
        Surface {
            name: "ALPC container",
            clean: container,
            frames_at: container_frames_at(codec),
            values_per_frame: None,
            read: |bytes| {
                let mut out = Vec::new();
                let mut scratch = alp_core::Scratch::new();
                let mut chunks = None;
                for threads in [1usize, 4] {
                    let read = alp_core::try_read_container_salvaged(
                        bytes,
                        &mut out,
                        &mut scratch,
                        threads,
                    )
                    .map_err(|e| e.to_string())?;
                    assert!(chunks.is_none_or(|c| c == read.repaired_chunks), "t={threads}");
                    chunks = Some(read.repaired_chunks);
                }
                Ok((out, Vec::new(), chunks.unwrap_or_default()))
            },
        },
    ]
}

/// (b) One table, one seed, three formats: the seeded fault families against
/// group-size-4 parity on the stream, the column and the container.
/// Repairable damage repairs bit-exactly and names exactly the frames hit;
/// over-budget damage degrades to an honest loss report with everything else
/// intact; parity-only damage costs no data.
#[test]
fn parity_fault_families_uphold_their_contracts() {
    let seed = fault_seed(42);
    let data = table_dataset();
    for surface in table_surfaces(&data) {
        let spans = frame_spans(&surface.clean, surface.frames_at);
        let groups = spans.iter().filter(|s| s.2).count();
        assert!(groups >= 4, "{}: {groups} parity groups", surface.name);
        let (values, lost, repaired) = (surface.read)(&surface.clean).expect("clean read");
        assert!(lost.is_empty() && repaired.is_empty(), "{}: clean read", surface.name);
        assert_bits_eq(&data, &values, surface.name);

        let cases = parity_fault_family(&surface.clean, &spans, seed);
        assert_eq!(cases.len(), 3, "{}: expected all three fault families", surface.name);
        for case in cases {
            let label = format!("{}: {}", surface.name, case.label);
            let read = (surface.read)(&case.bytes);
            match (case.expect, read) {
                (ParityExpectation::Repairs, Ok((values, lost, repaired))) => {
                    assert_eq!(case.damaged.len(), groups, "{label}: one victim per group");
                    assert!(lost.is_empty(), "{label}: lost {lost:?}");
                    assert_eq!(repaired, case.damaged, "{label}: repaired");
                    assert_bits_eq(&data, &values, &label);
                }
                (ParityExpectation::DegradesToLoss, Ok((values, lost, repaired))) => {
                    let per_frame = surface.values_per_frame.expect("partial reads carry values");
                    assert_eq!(lost, case.damaged, "{label}: lost");
                    assert!(repaired.is_empty(), "{label}: repaired {repaired:?}");
                    let survivors: Vec<f64> = data
                        .chunks(per_frame)
                        .enumerate()
                        .filter(|(i, _)| !lost.contains(i))
                        .flat_map(|(_, c)| c.iter().copied())
                        .collect();
                    assert_bits_eq(&survivors, &values, &label);
                }
                (ParityExpectation::DegradesToLoss, Err(e)) => {
                    assert!(surface.values_per_frame.is_none(), "{label}: {e}");
                }
                (ParityExpectation::DataClean, Ok((values, lost, repaired))) => {
                    assert!(lost.is_empty(), "{label}: lost {lost:?}");
                    assert!(repaired.is_empty(), "{label}: repaired {repaired:?}");
                    assert_bits_eq(&data, &values, &label);
                }
                (_, Err(e)) => panic!("{label}: {e}"),
            }
        }
    }
}

/// (c) The pipelined parity writer commits the exact bytes of the serial
/// parity writer at every thread count × pipeline depth (PR-9 byte-identity
/// extended to the parity frames, which are folded in at the commit seam).
#[test]
fn pipelined_parity_is_byte_identical_across_threads_and_depths() {
    let data = dataset();
    let reference = parity_stream(&data, 4);

    for threads in [1usize, 2, 7] {
        for depth in [1usize, 2, 4] {
            let config = PipelineConfig { threads, depth, ..PipelineConfig::default() };
            let mut sink = Vec::new();
            let mut writer = PipelinedColumnWriter::<f64, _>::with_parity(
                &mut sink,
                config,
                ParityConfig { group_size: 4 },
            )
            .expect("valid parity config");
            writer.push(&data).expect("pipelined push");
            writer.finish().expect("pipelined finish");
            assert_eq!(
                sink, reference,
                "threads {threads} depth {depth}: pipelined parity stream diverged"
            );
        }
    }
}

/// Registry-wide container repair: every serializable codec's checksummed
/// `"ALPC"` envelope, written with parity group size 4, survives a corrupted
/// payload byte — the salvage read repairs the damaged chunk and decodes
/// byte-identically, while the strict read proves the damage was real.
#[test]
fn every_registry_codec_container_repairs_single_chunk_damage() {
    use alp_core::{try_read_container_into, Registry, Scratch};

    let seed = fault_seed(42);
    let data: Vec<f64> = (0..40_000).map(|i| ((i % 523) as f64) / 4.0).collect();
    let mut scratch = Scratch::new();
    for codec in Registry::all().iter().filter(|c| !c.caps().ratio_only) {
        let frame = alp_core::write_container_with_parity(
            *codec,
            &data,
            &mut scratch,
            ParityConfig { group_size: 4 },
        )
        .unwrap_or_else(|e| panic!("{}: parity container write failed: {e}", codec.id()));

        // Probe seed-derived offsets until one provably damages the strict
        // read (a flip inside the parity section would not), then demand the
        // salvage read repair it. Offsets start past the envelope header: a
        // damaged header is unrecoverable by design.
        let mut rng = SplitMix64::new(seed ^ alp::hash::xxh64(codec.id().as_bytes(), 2));
        let mut out = Vec::new();
        let mut repaired_one = false;
        for _ in 0..64 {
            let header = container_frames_at(*codec);
            let pos = header + rng.below(frame.len() - header);
            let mut bytes = frame.clone();
            bytes[pos] ^= 0xFF;
            if try_read_container_into(&bytes, &mut out, &mut scratch).is_ok() {
                continue; // flip landed outside the checksummed payload
            }
            let salvage = alp_core::try_read_container_salvaged(&bytes, &mut out, &mut scratch, 2)
                .unwrap_or_else(|e| panic!("{}: repair at byte {pos} failed: {e}", codec.id()));
            assert!(
                !salvage.repaired_chunks.is_empty(),
                "{}: salvage at byte {pos} repaired nothing",
                codec.id()
            );
            assert_bits_eq(&data, &out, codec.id());
            repaired_one = true;
            break;
        }
        assert!(repaired_one, "{}: no probe damaged the strict read", codec.id());
    }
}

/// (d) The concurrent healing drill: a poisoned store serves partial results;
/// after the fault heals, a scrubber un-quarantines pages while 8 query
/// workers race it. Loss must shrink monotonically per worker, and the final
/// result must be complete and bit-identical to a never-poisoned store.
#[test]
fn scrubber_heals_pages_while_query_workers_race() {
    let data: Vec<f64> = (0..60 * 10 * VECTOR_SIZE).map(|i| ((i % 9173) as f64) / 100.0).collect();
    let cache = CacheConfig {
        max_entries: 8,
        page_size_rows: 10 * VECTOR_SIZE,
        max_bytes: 6 * 10 * VECTOR_SIZE * 8,
    };
    let poison = PoisonPlan::seeded(fault_seed(1));
    let pages = data.len().div_ceil(10 * VECTOR_SIZE);
    let expected_bad: Vec<usize> = (0..pages).filter(|&p| poison.poisons(p)).collect();
    assert!(
        !expected_bad.is_empty(),
        "seed poisons no page out of {pages}; pick a different ALP_FAULT_SEED"
    );

    let store = Arc::new(Store::with_poison(Column::from_f64(&data, Format::alp()), cache, poison));
    let service = Service::new(
        Arc::clone(&store),
        ServiceConfig { max_concurrent: 9, max_queued: 64, threads: 2 },
    );

    // Reference: the same column, never poisoned.
    let clean_store = Arc::new(Store::new(Column::from_f64(&data, Format::alp()), cache));
    let clean = Service::new(clean_store, ServiceConfig::default())
        .sum_where(f64::NEG_INFINITY, f64::INFINITY, &QueryOptions::default())
        .expect("clean reference query");
    assert!(clean.loss.is_complete());

    // Detect + contain: the first full scan quarantines the poisoned pages
    // and degrades to a partial result.
    let opts = QueryOptions::default();
    let first = service.sum_where(f64::NEG_INFINITY, f64::INFINITY, &opts).expect("first query");
    assert!(!first.loss.is_complete(), "poisoned store served a complete result");
    assert_eq!(store.quarantined_pages(), expected_bad);

    // Heal the underlying fault, then race the scrubber against 8 workers.
    store.heal_poison();
    std::thread::scope(|scope| {
        let service = &service;
        scope.spawn(move || {
            // Repair: scrub until the quarantine drains. Each pass
            // re-verifies every quarantined page, so one pass suffices once
            // the fault is healed; the loop guards against scheduling races.
            while !service.store().quarantined_pages().is_empty() {
                let report = service.scrub_once(&ScrubOptions::default());
                assert!(!report.cancelled, "scrub pass cancelled without a deadline");
            }
        });
        for worker in 0..8usize {
            let (expected_bad, clean) = (&expected_bad, &clean);
            scope.spawn(move || {
                let mut last_lost = usize::MAX;
                for round in 0..20 {
                    let result = service
                        .sum_where(f64::NEG_INFINITY, f64::INFINITY, &QueryOptions::default())
                        .unwrap_or_else(|e| panic!("worker {worker} round {round}: {e}"));
                    let lost = result.loss.rows_lost();
                    assert!(
                        lost <= last_lost,
                        "worker {worker} round {round}: loss regressed {last_lost} -> {lost}"
                    );
                    last_lost = lost;
                    // A page's verdict and its residency are one state: every
                    // lost page is a poisoned one and says why, and each page
                    // is either summed or reported lost — never both, never
                    // neither (the data has no NaN, so every row matches).
                    for loss in &result.loss.pages {
                        assert!(
                            expected_bad.contains(&loss.page),
                            "worker {worker} round {round}: healthy page {} lost",
                            loss.page
                        );
                        let said = match &loss.reason {
                            LossReason::Quarantined => true,
                            LossReason::Decode(why) | LossReason::Poisoned(why) => !why.is_empty(),
                        };
                        assert!(
                            said,
                            "worker {worker} round {round}: page {} lost without a reason",
                            loss.page
                        );
                    }
                    assert_eq!(
                        result.value.matches + lost,
                        clean.value.matches,
                        "worker {worker} round {round}: rows summed + rows lost != rows"
                    );
                }
            });
        }
    });

    // After the race: fully healed, complete, and bit-identical to the
    // never-poisoned store — with the scrub counters on the report.
    assert!(store.quarantined_pages().is_empty());
    let healed = service.sum_where(f64::NEG_INFINITY, f64::INFINITY, &opts).expect("healed query");
    assert!(healed.loss.is_complete(), "healed store still partial: {:?}", healed.loss.pages);
    assert_eq!(healed.value.sum.to_bits(), clean.value.sum.to_bits());
    assert_eq!(healed.value.matches, clean.value.matches);
    assert!(healed.loss.scrub_repaired >= expected_bad.len() as u64);
    assert!(healed.loss.scrub_checked >= healed.loss.scrub_repaired);
}
