//! Hot-loop allocation discipline, enforced by a counting allocator: once
//! scratch buffers are warm, decompression must touch the heap zero times
//! per vector.
//!
//! Scope matches the scratch-buffer design (DESIGN.md §9):
//!
//! * every registered byte-serializable codec's `try_decompress_into`,
//!   except the gpzip modes — their entropy stages build per-block Huffman /
//!   match tables on the heap by design, which is why `Capabilities::
//!   block_based` exists and why they are excluded here;
//! * ALP's per-vector random access (`BodyColumn::vector` → `decode`, straight
//!   from a row-group body's bytes), the skip-friendly path the paper's query
//!   engine relies on. ALP's registry `try_decompress_into` parses the
//!   checksummed column format first, and building that column index
//!   allocates once per *column*, not per vector.
//!
//! * the scan kernels and the SUM route above them: no kernel stages through
//!   the heap, and `Column::sum_where` / `Service::sum_where` over an ALP column
//!   larger than its resident set cost the same number of allocation events
//!   however many vectors and pages they cover, apart from one page buffer
//!   per page the set admits.
//!
//! * the strict stream read: `ColumnReader::next_rowgroup_into` decodes from
//!   the frame bytes into the caller's buffer, so once both are warm a
//!   row-group costs no allocation, and `next_rowgroup` exactly one (the
//!   `Vec` it returns); the salvage read decodes a row-group only when it
//!   hands it out, so its first call costs no event per further row-group.
//!
//! * the serial stream write: `ColumnWriter::push` encodes a row-group from
//!   its values straight into the frame's bytes, so once the writer's buffers
//!   are warm a full row-group — ALP or ALP_rd — costs no allocation at all
//!   (at the parent commit: an owned `RowGroup` first, one `Vec` per ALP
//!   vector and up to four per ALP_rd vector).
//!
//! * the bulk write: `Compressor::compress{,_parallel}` builds owned
//!   row-groups (so it allocates per vector), but its encoding scratch is one
//!   per worker, not one per row-group.
//!
//! * the query engine's column build: `vectorq::Column::from_f64` encodes each
//!   row-group straight into its body, so a row-group costs the same few
//!   allocation events whatever its scheme and however many vectors and
//!   exceptions it holds.
//!
//! The same allocator also gauges the largest single request, which pins the
//! other half of the discipline: no reader sizes a buffer from a length or a
//! count field it has not yet seen the bytes for.

mod common;

#[global_allocator]
static GLOBAL: common::CountingAlloc = common::CountingAlloc;

/// Allocation events triggered by `f` on this thread.
fn allocations_in(f: impl FnOnce()) -> u64 {
    common::gauge(f).1
}

/// Largest single allocation request `f` makes on this thread, in bytes.
fn largest_request_in(f: impl FnOnce()) -> usize {
    common::gauge(f).2
}

/// Decimal-flavored data with a sprinkle of exceptions, so ALP exercises its
/// patch path and the XOR codecs see realistic tails.
fn sample(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| if i % 1000 == 999 { (i as f64).sqrt() * 1e-7 } else { i as f64 * 0.05 - 31.7 })
        .collect()
}

#[test]
fn registry_decompression_is_allocation_free_after_warmup() {
    let excluded = ["alp", "lwc-alp", "gpzip", "gpzip-fast"];
    let data = sample(4 * alp::VECTOR_SIZE);
    let mut scratch = alp_core::Scratch::new();
    let mut out = Vec::new();
    for codec in alp_core::Registry::all().iter().filter(|c| !excluded.contains(&c.id())) {
        let mut bytes = Vec::new();
        codec.try_compress_into(&data, &mut bytes, &mut scratch).expect("compress");
        for _ in 0..2 {
            codec.try_decompress_into(&bytes, data.len(), &mut out, &mut scratch).expect("warm-up");
        }
        let allocs = allocations_in(|| {
            for _ in 0..8 {
                codec
                    .try_decompress_into(&bytes, data.len(), &mut out, &mut scratch)
                    .expect("decode");
            }
        });
        assert_eq!(allocs, 0, "{}: decompression allocated after warm-up", codec.id());
        assert_eq!(out.len(), data.len(), "{}", codec.id());
    }
}

#[test]
fn alp_per_vector_decode_is_allocation_free_after_warmup() {
    let vectors = 6;
    let data = sample(vectors * alp::VECTOR_SIZE);
    let mut body = Vec::new();
    let (mut scratch, mut stats) = (Default::default(), Default::default());
    alp::Compressor::new().encode_rowgroup_body(&data, &mut body, &mut scratch, &mut stats);
    let column = alp::format::BodyColumn::<f64>::from_bodies(vec![body]).expect("a fresh body");
    let mut buf = vec![0.0f64; alp::VECTOR_SIZE];
    for v in 0..vectors {
        column.vector(v).expect("warm-up sweep").decode(&mut buf);
    }
    let allocs = allocations_in(|| {
        for _ in 0..4 {
            for v in 0..vectors {
                column.vector(v).expect("in range").decode(&mut buf);
            }
        }
    });
    assert_eq!(allocs, 0, "ALP per-vector decode allocated after warm-up");
}

/// Level-2 sampling runs once per encoded vector: its sample lives on the
/// stack, so picking a vector's combination — the skipped case, the greedy
/// search over several candidates, and the rescue's full search alike — never
/// touches the heap.
#[test]
fn second_level_sampling_is_allocation_free() {
    use alp::sampler::{first_level, second_level};
    let data = sample(8 * alp::VECTOR_SIZE);
    let noise: Vec<f64> = (0..alp::VECTOR_SIZE).map(|i| (i as f64 + 0.1).sqrt().sin()).collect();
    let params = alp::SamplerParams::default();
    let mut stats = alp::SamplerStats::default();
    let outcome = first_level(&data, &params);
    let several = [(14, 12), (2, 0), (10, 5), (16, 16)].map(|(e, f)| alp::Combination { e, f });
    for candidates in [&outcome.combinations[..], &several[..], &[]] {
        for vector in data.chunks(alp::VECTOR_SIZE).chain([&noise[..], &data[..3]]) {
            second_level(vector, candidates, &params, &mut stats); // warm-up
            let allocs = allocations_in(|| {
                second_level(vector, candidates, &params, &mut stats);
            });
            assert_eq!(allocs, 0, "second_level allocated ({} candidates)", candidates.len());
        }
    }
    assert!(stats.rescued_vectors > 0, "the rescue's full search must have run");
}

#[test]
fn baseline_codec_layer_is_allocation_free_after_warmup() {
    // The same guarantee one layer down, where the registry impls delegate:
    // `codecs::Codec::try_decompress_f64_into` over a caller-owned scratch.
    let data = sample(2 * alp::VECTOR_SIZE);
    let mut scratch = codecs::DecodeScratch::default();
    let mut out = Vec::new();
    for codec in codecs::Codec::EXTENDED {
        let bytes = codec.compress_f64(&data);
        for _ in 0..2 {
            codec
                .try_decompress_f64_into(&bytes, data.len(), &mut out, &mut scratch)
                .expect("warm");
        }
        let allocs = allocations_in(|| {
            for _ in 0..8 {
                codec
                    .try_decompress_f64_into(&bytes, data.len(), &mut out, &mut scratch)
                    .expect("decode");
            }
        });
        assert_eq!(allocs, 0, "{}: codec layer allocated after warm-up", codec.name());
    }
}

/// The scan kernels stage on the stack, exceptions included.
#[test]
fn scan_kernels_never_touch_the_heap() {
    use alp::decode::{scan_vector, sum_vector};
    use alp::encode::encode_vector;

    let owned = encode_vector(&sample(alp::VECTOR_SIZE)[..1000], 14, 12);
    let exc = owned.view();
    assert!(exc.positions.len() > 1, "the sample must hold exceptions");
    let (lo, hi) = (-10.0, 10.0);
    let mut answers = None;
    let allocs = allocations_in(|| {
        let scan = scan_vector::<f64>(&owned, exc, lo, hi, true);
        let sum = sum_vector::<f64>(&owned, exc, Some((lo, hi)));
        answers = Some((scan.sum.to_bits(), scan.matches, sum.sum.to_bits(), sum.matches));
    });
    assert_eq!(allocs, 0, "a scan kernel allocated");
    let want = scan_vector::<f64>(&owned, exc, lo, hi, false);
    let want = (want.sum.to_bits(), want.matches);
    assert_eq!(answers, Some((want.0, want.1, want.0, want.1)), "the bitmap and sum routes agree");
}

/// The SUM route allocates per call (a scratch), never per vector or per
/// page: `Column::sum_where` over ALP storage costs the same events over 4
/// vectors as over 64. `Service::sum_where` over a column twice its resident
/// set costs the same on a repeat — half the pages hit, half summed from the
/// stored bytes — whether the column is 4 pages or 64, and on a fresh store's
/// first query exactly one page buffer more per page it admits. At the
/// parent commit such a column never reached the page cache, so no page was
/// admitted and none ever hit.
#[test]
fn the_sum_route_allocates_nothing_per_vector() {
    use std::sync::Arc;
    use vectorq::cache::CacheConfig;
    use vectorq::service::{QueryOptions, Service, ServiceConfig, Store};
    use vectorq::{Column, Format};

    let opts = QueryOptions { threads: Some(1), ..QueryOptions::default() };
    // What admitting a one-vector page costs: its values and the `Arc`.
    let page_buffer = allocations_in(|| {
        drop(std::hint::black_box(Arc::new(Vec::<f64>::with_capacity(alp::VECTOR_SIZE))));
    });
    // The default ceilings, except that the set holds half of `pages`.
    let half_of = |vectors: usize, pages: usize| CacheConfig {
        max_entries: pages / 2,
        page_size_rows: vectors / pages * alp::VECTOR_SIZE,
        ..CacheConfig::default_config()
    };
    let service = |data: &[f64], cache| {
        let store = Store::new(Column::from_f64(data, Format::alp()), cache);
        Service::new(Arc::new(store), ServiceConfig::default())
    };
    // Overlaps every vector of `sample` (each holds a tiny exception).
    let (lo, hi) = (0.0, 5.0);
    let events = |vectors: usize, pages: usize| {
        let data = sample(vectors * alp::VECTOR_SIZE);
        let column = Column::from_f64(&data, Format::alp());
        let direct = column.sum_where(lo, hi); // warm-up
        assert_eq!(direct.vectors_scanned, vectors);
        let per_call = allocations_in(|| {
            std::hint::black_box(column.sum_where(lo, hi));
        });
        let cache = half_of(vectors, pages);
        service(&data, cache).sum_where(lo, hi, &opts).expect("admitted"); // warm-up
        let fresh = service(&data, cache);
        let mut first = None;
        let cold = allocations_in(|| first = fresh.sum_where(lo, hi, &opts).ok());
        let first = first.expect("admitted");
        let admitted = pages / 2;
        assert_eq!((first.pages_fused, first.pages_materialized), (pages - admitted, admitted));
        assert_eq!(first.value.matches, direct.matches);
        if pages == 1 {
            assert_eq!(first.value.sum.to_bits(), direct.sum.to_bits());
        }
        let repeat = allocations_in(|| {
            std::hint::black_box(fresh.sum_where(lo, hi, &opts).expect("admitted"));
        });
        assert_eq!(fresh.cache_stats().entries, admitted);
        (per_call, cold, repeat, admitted as u64)
    };
    let (per_call, cold, repeat, _) = events(4, 1);
    assert_eq!(cold, repeat, "a zero-entry set admits nothing");
    for (vectors, pages) in [(64, 1), (4, 4), (64, 64)] {
        let (calls, first, again, admitted) = events(vectors, pages);
        let label = format!("{vectors} vectors in {pages} pages");
        assert_eq!((calls, again), (per_call, repeat), "{label}: (sum_where, repeat) events");
        assert_eq!(first, again + admitted * page_buffer, "{label}: first query");
    }

    // Repeated full-band scans of a column twice its set: the first admits
    // the half that fits, every later one hits it and sums the rest from the
    // bytes; nothing is ever evicted.
    let twice = service(&sample(512 * alp::VECTOR_SIZE), half_of(512, 512));
    let all = |lo, hi| twice.sum_where(lo, hi, &opts).expect("admitted");
    assert_eq!(all(f64::NEG_INFINITY, f64::INFINITY).pages_fused, 256);
    for _ in 0..2 {
        let before = twice.cache_stats();
        assert_eq!(all(f64::NEG_INFINITY, f64::INFINITY).pages_fused, 256);
        let after = twice.cache_stats();
        assert_eq!(after.hits - before.hits, 256, "hits are the resident pages");
        assert_eq!(after.misses - before.misses, 256, "misses are the rest");
        assert_eq!(after.bypasses - before.bypasses, 256, "and found no room");
    }
    let stats = twice.cache_stats();
    assert_eq!((stats.entries, stats.evictions), (256, 0));
    assert_eq!(stats.bytes, 256 * alp::VECTOR_SIZE * 8);
}

/// Regression: both stream readers used to size their frame buffer from the
/// untrusted length prefix before reading a byte of body, so 17 bytes of
/// input — a header, a length of 1 GiB, 8 more bytes — cost a 1 GiB request.
/// The frame layer grows the buffer only as bytes arrive: every read path
/// must return its typed error (or record the loss) within one bounded step.
#[test]
fn stream_readers_never_allocate_from_an_unbacked_length() {
    use alp::stream::{ColumnReader, StreamError};
    const CEILING: usize = 2 << 20;

    let is_eof = |r: Result<bool, StreamError>| matches!(r, Err(StreamError::Io(e)) if e.kind() == std::io::ErrorKind::UnexpectedEof);
    for magic in [b"ALPT", b"ALPS"] {
        for len in [0x4000_0000u32, u32::MAX] {
            let mut input = magic.to_vec();
            input.push(64);
            input.extend_from_slice(&len.to_le_bytes());
            input.extend_from_slice(&[0u8; 8]);
            assert_eq!(input.len(), 17);
            let label = format!("{} len={len:#x}", String::from_utf8_lossy(magic));

            let mut typed_error = false;
            let largest = largest_request_in(|| {
                let mut reader = ColumnReader::<f64, _>::new(&input[..]).expect("header");
                typed_error = is_eof(reader.next_rowgroup().map(|v| v.is_some()));
            });
            assert!(typed_error, "{label}: next_rowgroup must report UnexpectedEof");
            assert!(largest <= CEILING, "{label}: next_rowgroup requested {largest} bytes");

            let largest = largest_request_in(|| {
                let mut reader = ColumnReader::<f64, _>::new(&input[..]).expect("header");
                typed_error = is_eof(reader.next_rowgroup_compressed().map(|v| v.is_some()));
            });
            assert!(typed_error, "{label}: next_rowgroup_compressed must report UnexpectedEof");
            assert!(largest <= CEILING, "{label}: compressed read requested {largest} bytes");

            let mut lost = Vec::new();
            let largest = largest_request_in(|| {
                let mut reader = ColumnReader::<f64, _>::new(&input[..]).expect("header");
                assert!(reader.next_rowgroup_salvaged().expect("salvage is total").is_none());
                assert!(!reader.is_committed());
                lost = reader.lost_rowgroups().to_vec();
            });
            assert_eq!(lost, [0], "{label}: the torn frame is the recorded loss");
            assert!(largest <= CEILING, "{label}: salvage requested {largest} bytes");
        }
    }
}

/// A stream of `rowgroups` identical row-groups (so every frame is the size
/// of the first and the reader's frame buffer is warm after one read) of
/// four vectors each.
fn periodic_stream(rowgroup: &[f64], rowgroups: usize) -> Vec<u8> {
    use alp::stream::ColumnWriter;
    let params = alp::SamplerParams { vectors_per_rowgroup: 4, ..alp::SamplerParams::default() };
    assert_eq!(rowgroup.len(), 4 * alp::VECTOR_SIZE);
    let mut file = Vec::new();
    let mut writer = ColumnWriter::<f64, _>::with_params(&mut file, params).expect("valid params");
    for _ in 0..rowgroups {
        writer.push(rowgroup).expect("in-memory sink");
    }
    assert_eq!(writer.finish().expect("in-memory sink").rowgroups, rowgroups);
    file
}

/// A strict read goes frame bytes → borrowed view → values: no owned
/// row-group is rebuilt (at the parent commit that was one `Vec<u64>` per
/// ALP vector and four `Vec`s per ALP_rd vector — 100 to 400 allocations per
/// default row-group).
#[test]
fn strict_stream_reads_allocate_nothing_per_rowgroup_after_warmup() {
    use alp::stream::ColumnReader;
    // Two-decimal values with an exception every 500, so the patch path runs.
    let decimals: Vec<f64> = (0..4 * alp::VECTOR_SIZE)
        .map(|i| if i % 500 == 499 { (i as f64).sqrt() } else { (i % 977) as f64 / 100.0 })
        .collect();
    let reals: Vec<f64> =
        (0..4 * alp::VECTOR_SIZE).map(|i| 0.5 + ((i as f64) * 0.7234).sin() * 1e-4).collect();
    for (what, rowgroup, scheme) in
        [("ALP", &decimals, alp::Scheme::Alp), ("ALP_rd", &reals, alp::Scheme::AlpRd)]
    {
        let file = periodic_stream(rowgroup, 6);
        let mut reader = ColumnReader::<f64, _>::new(&file[..]).expect("header");
        let first = reader.next_rowgroup_compressed().expect("clean").expect("six row-groups");
        assert_eq!(first.scheme(), scheme, "{what}: the data must pick the scheme under test");

        let mut values = Vec::new();
        assert!(reader.next_rowgroup_into(&mut values).expect("clean"), "{what}: warm-up");
        for rg in 2..4 {
            let mut more = false;
            let allocs =
                allocations_in(|| more = reader.next_rowgroup_into(&mut values).expect("clean"));
            assert!(more && values == *rowgroup, "{what}: row-group {rg}");
            assert_eq!(allocs, 0, "{what}: next_rowgroup_into allocated on row-group {rg}");
        }
        for rg in 4..6 {
            let mut owned = None;
            let allocs = allocations_in(|| owned = reader.next_rowgroup().expect("clean"));
            assert_eq!(owned.as_ref(), Some(rowgroup), "{what}: row-group {rg}");
            assert_eq!(allocs, 1, "{what}: next_rowgroup allocates the Vec it returns, only");
        }
        assert!(!reader.next_rowgroup_into(&mut values).expect("clean") && values.is_empty());
        assert!(reader.is_committed());
    }
}

/// A salvage read keeps the walk's surviving bodies in one column and decodes
/// a row-group only when it hands it out, so its first call on a clean stream
/// costs about the same allocation events whatever the stream's length (the
/// read buffer and the walk's lists grow by doubling). Copying each frame out
/// and decoding every survivor before handing out the first costs at least
/// two events per row-group.
#[test]
fn the_first_salvaged_read_decodes_one_rowgroup() {
    use alp::stream::ColumnReader;
    let rowgroup = sample(4 * alp::VECTOR_SIZE);
    let first_call = |rowgroups: usize| {
        let file = periodic_stream(&rowgroup, rowgroups);
        let mut reader = ColumnReader::<f64, _>::new(&file[..]).expect("header");
        let mut first = None;
        let allocs = allocations_in(|| first = reader.next_rowgroup_salvaged().expect("clean"));
        assert_eq!(first.as_ref(), Some(&rowgroup), "{rowgroups} row-groups");
        assert!(reader.lost_rowgroups().is_empty() && reader.repaired_rowgroups().is_empty());
        allocs
    };
    let (two, ten) = (first_call(2), first_call(10));
    let extra = ten.saturating_sub(two);
    assert!(extra < 8, "8 more row-groups cost {extra} more events ({two} at 2, {ten} at 10)");
}

/// A legacy `"ALP1"` column has no frames: each body is delimited by the one
/// parse that takes it in, which copies exactly that row-group into the
/// column. Neither the strict open nor the salvage read asks for a buffer
/// larger than the file (copying the rest of the file per body would).
#[test]
fn a_legacy_column_copies_exactly_its_bodies() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/alp1_f64.bin");
    let bytes = std::fs::read(path).expect("the golden legacy column");
    let largest = largest_request_in(|| {
        let opened = alp::archive::open::<f64>(&bytes, 1).expect("a clean legacy column");
        assert_eq!(opened.verdict, alp::archive::Verdict::Clean);
        let salvage = alp::format::from_bytes_salvage_parallel::<f64>(&bytes, 1).expect("header");
        assert!(salvage.is_complete());
    });
    assert!(largest <= bytes.len(), "asked for {largest} bytes on a {}-byte file", bytes.len());
}

/// Regression: the owned read of a body (`RowGroupView::parse`, then
/// `to_owned`; once `read_rowgroup`) reserved `min(count, 65536)` vector slots from
/// the body's `vectors:u32` before reading one — ≈ 3 MiB (≈ 6.5 MiB for
/// ALP_rd) for a 9-byte body that then fails `Truncated`, once per candidate
/// frame under salvage. A body is validated before anything is reserved, and
/// what is reserved then is sized by what was parsed.
#[test]
fn a_vector_count_the_body_cannot_back_reserves_nothing() {
    use alp::format::{from_bytes, from_bytes_salvage_parallel, FormatError, RowGroupView};
    use alp::stream::{ColumnReader, StreamError};
    const CEILING: usize = 64 << 10;

    let alp_body = [&[0u8][..], &u32::MAX.to_le_bytes(), &[0; 4]].concat();
    let rd_body =
        [&[1u8][..], &u32::MAX.to_le_bytes(), &[16, 1, 2, 0xF0, 0x3F, 0xF0, 0xBF]].concat();
    assert_eq!(alp_body.len(), 9);
    for (what, body) in [("ALP", alp_body), ("ALP_rd", rd_body)] {
        let truncated =
            |r: Result<(), FormatError>| assert_eq!(r, Err(FormatError::Truncated), "{what}");
        let largest = largest_request_in(|| {
            truncated(RowGroupView::<f64>::parse(&body).and_then(|v| v.to_owned()).map(drop));
        });
        assert!(largest < CEILING, "{what}: the owned read requested {largest} bytes");

        // The same body as the one frame of an "ALP2" column…
        let mut column = b"ALP2".to_vec();
        column.push(64);
        column.extend_from_slice(&102_400u64.to_le_bytes());
        column.extend_from_slice(&1u32.to_le_bytes());
        alp::frame::encode(&mut column, |o| o.extend_from_slice(&body));
        let largest = largest_request_in(|| truncated(from_bytes::<f64>(&column).map(drop)));
        assert!(largest < CEILING, "{what}: from_bytes requested {largest} bytes");
        let largest = largest_request_in(|| {
            let salvage =
                from_bytes_salvage_parallel::<f64>(&column, 1).expect("the header is intact");
            assert_eq!(salvage.lost_rowgroups, [0], "{what}");
        });
        assert!(largest < CEILING, "{what}: from_bytes_salvage_parallel requested {largest} bytes");

        // …and of an "ALPT" stream, on all four read paths.
        let mut stream = b"ALPT".to_vec();
        stream.push(64);
        alp::frame::encode(&mut stream, |o| o.extend_from_slice(&body));
        stream.extend_from_slice(&0u32.to_le_bytes());
        let open = || ColumnReader::<f64, _>::new(&stream[..]).expect("header");
        let format_error = |r: Result<(), StreamError>| match r {
            Err(StreamError::Format(e)) => truncated(Err(e)),
            other => panic!("{what}: expected a format error, got {other:?}"),
        };
        let largest = largest_request_in(|| {
            format_error(open().next_rowgroup().map(drop));
            format_error(open().next_rowgroup_into(&mut Vec::new()).map(drop));
            format_error(open().next_rowgroup_compressed().map(drop));
            let mut reader = open();
            assert!(reader.next_rowgroup_salvaged().expect("salvage is total").is_none());
            assert_eq!(reader.lost_rowgroups(), [0], "{what}");
        });
        assert!(largest < CEILING, "{what}: a stream reader requested {largest} bytes");
    }

    // The other side of the bound: a well-formed body's one reservation is
    // its own value count, at most `vectors × 1024`.
    let file = periodic_stream(&sample(4 * alp::VECTOR_SIZE), 1);
    let mut reader = ColumnReader::<f64, _>::new(&file[..]).expect("header");
    let mut values = None;
    let largest = largest_request_in(|| values = reader.next_rowgroup().expect("clean"));
    assert_eq!(values.map(|v| v.len()), Some(4 * alp::VECTOR_SIZE));
    assert!(largest <= 4 * alp::VECTOR_SIZE * 8, "a clean read requested {largest} bytes");
}

fn rowgroup_values() -> usize {
    alp::SamplerParams::default().vectors_per_rowgroup * alp::VECTOR_SIZE
}

/// One row-group of two-decimal values with an exception every 500, so the
/// patch path runs: goes ALP.
fn decimal_rowgroup() -> Vec<f64> {
    (0..rowgroup_values())
        .map(|i| if i % 500 == 499 { (i as f64).sqrt() } else { (i % 977) as f64 / 100.0 })
        .collect()
}

/// One row-group of real doubles at three magnitudes, so several dictionary
/// entries are in use, and one in 64 far outside them (an exception): goes
/// ALP_rd.
fn real_rowgroup() -> Vec<f64> {
    (0..rowgroup_values())
        .map(|i| {
            let x = 0.5 + ((i as f64) * 0.7234).sin() * 1e-4;
            if i % 64 == 0 {
                x * 10f64.powi(20 + (i / 64 % 200) as i32)
            } else {
                x * [1.0, 64.0, 4096.0][i % 3]
            }
        })
        .collect()
}

/// A stream write goes values → frame bytes: no owned row-group is built, so
/// a warm writer allocates nothing for a full row-group of either scheme —
/// and while warming up it never asks for more than one row-group of raw
/// values at once (its own value buffer is that size).
#[test]
fn stream_writes_allocate_nothing_per_rowgroup_after_warmup() {
    use alp::stream::ColumnWriter;
    let (rowgroup_values, decimals, reals) =
        (rowgroup_values(), decimal_rowgroup(), real_rowgroup());
    for (what, rowgroup, schemes) in [("ALP", &decimals, (5, 0)), ("ALP_rd", &reals, (0, 5))] {
        // Sized up front: the sink's growth is the caller's, not the writer's.
        let mut sink = Vec::with_capacity(6 * 8 * rowgroup_values);
        let mut writer = None;
        let largest = largest_request_in(|| {
            let warm = writer.insert(ColumnWriter::<f64, _>::new(&mut sink));
            for _ in 0..2 {
                warm.push(rowgroup).expect("in-memory sink");
            }
        });
        assert!(
            largest <= 8 * rowgroup_values,
            "{what}: the writer requested {largest} bytes at once while warming up"
        );
        let mut writer = writer.expect("just built");
        for rg in 2..5 {
            let allocs = allocations_in(|| writer.push(rowgroup).expect("in-memory sink"));
            assert_eq!(allocs, 0, "{what}: push allocated on full row-group {rg}");
        }
        let summary = writer.finish().expect("in-memory sink");
        assert_eq!(summary.rowgroups, 5, "{what}");
        let stats = summary.stats;
        assert_eq!(
            (stats.rowgroups_alp, stats.rowgroups_rd),
            schemes,
            "{what}: the data must pick the scheme under test"
        );
        if what == "ALP_rd" {
            let first = alp::stream::ColumnReader::<f64, _>::new(&sink[..])
                .expect("header")
                .next_rowgroup_compressed()
                .expect("clean");
            let Some(alp::RowGroup::Rd(meta, vectors)) = first else {
                panic!("an ALP_rd row-group")
            };
            assert!(meta.dict.len() > 1, "several dictionary entries in use: {meta:?}");
            assert!(vectors.iter().all(|v| v.exception_count() > 0), "every vector has exceptions");
        }
    }
}

/// The bulk path builds owned row-groups, so it allocates per vector — but
/// what encoding a row-group needs beside them (the level-1 winners, the
/// candidate list, the ALP_rd sample and its probe table) is one
/// `EncodeScratch` per worker, as in the stream writers. So every row-group
/// after a worker's first costs the same number of allocation events, and the
/// first costs exactly one scratch more — what `encode_rowgroup_body` spends
/// on a fresh scratch over a warm one — plus a per-run overhead that is the
/// same whichever scheme the data picks. (At the parent commit every
/// row-group built its own scratch: the ALP_rd run's overhead then comes out
/// two events short of the ALP run's.)
#[test]
fn bulk_compression_builds_its_scratch_once_per_worker() {
    let compressor = alp::Compressor::new();
    let overhead = |what: &str, rowgroup: Vec<f64>| {
        let mut body = Vec::with_capacity(8 * rowgroup.len());
        let mut encode = |scratch: &mut alp::rowgroup::EncodeScratch| {
            body.clear();
            let mut stats = alp::SamplerStats::default();
            allocations_in(|| {
                compressor.encode_rowgroup_body(&rowgroup, &mut body, scratch, &mut stats)
            })
        };
        let mut scratch = alp::rowgroup::EncodeScratch::default();
        let (fresh, warm) = (encode(&mut scratch), encode(&mut scratch));
        assert!(fresh > 0 && warm == 0, "{what}: a scratch costs {fresh} events once, then {warm}");

        let compress = |rowgroups: usize| {
            let column = rowgroup.repeat(rowgroups);
            let mut compressed = None;
            let allocs = allocations_in(|| compressed = Some(compressor.compress(&column)));
            assert_eq!(compressed.map(|c| c.rowgroups.len()), Some(rowgroups), "{what}");
            allocs
        };
        let [none, one, two, three] = [0, 1, 2, 3].map(compress);
        assert_eq!(three - two, two - one, "{what}: every further row-group costs the same");
        (one - none) - (two - one) - fresh
    };
    assert_eq!(overhead("ALP", decimal_rowgroup()), overhead("ALP_rd", real_rowgroup()));
}

/// The query engine's column build encodes each row-group straight into its
/// body on the morsel's worker and builds its zone maps there too: at one
/// thread a row-group costs the same allocation events — its body, copied
/// out of the worker's buffer at its exact size, and its zones — whether it
/// goes ALP or ALP_rd, and with or without exceptions. (A build through
/// owned row-groups costs one packed `Vec` per ALP vector and four per ALP_rd
/// vector.)
#[test]
fn column_builds_allocate_per_rowgroup_not_per_vector() {
    use vectorq::{Column, Format};
    let no_exceptions: Vec<f64> =
        (0..rowgroup_values()).map(|i| (i % 977) as f64 / 100.0).collect();
    let per_rowgroup = |what: &str, rowgroup: &[f64]| {
        let build = |rowgroups: usize| {
            let column = rowgroup.repeat(rowgroups);
            allocations_in(|| drop(std::hint::black_box(Column::from_f64(&column, Format::alp()))))
        };
        let [one, two, three] = [1, 2, 3].map(build);
        assert_eq!(three - two, two - one, "{what}: every further row-group costs the same");
        two - one
    };
    let alp = per_rowgroup("ALP", &decimal_rowgroup());
    assert_eq!(per_rowgroup("ALP without exceptions", &no_exceptions), alp);
    assert_eq!(per_rowgroup("ALP_rd", &real_rowgroup()), alp);
    assert!(alp <= 2, "a row-group costs {alp} events: its body and its zones");
}
