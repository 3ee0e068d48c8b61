//! The one table: workloads, sizes, run lengths and metric definitions.
//!
//! Everything a result depends on is a constant here (never an environment
//! variable), is echoed into every result file's fingerprint, and must agree
//! with the root `BENCHMARK.json` — `tests::benchmark_json_matches_table`
//! fails when the two drift.

use alp::rowgroup::Scheme;
use vectorq::cache::CacheConfig;

/// Values per row-group under the compressor's default parameters; also the
/// service's page size, so one page is one row-group.
pub const ROWGROUP_VALUES: usize = 100 * 1024;

/// Push granularity of the ingest journey: smaller than a row-group, as a
/// streaming source delivering batches would.
pub const PUSH_CHUNK: usize = 64 * 1024;

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`); the driver
/// passes it back as `--seconds`.
pub const RUN_SECONDS: u64 = 25;

/// A run never reports fewer timed rounds than this, however short
/// `--seconds` is.
pub const MIN_ROUNDS: usize = 5;

/// Untimed rounds at the end of every set-up.
pub const WARMUP_ROUNDS: usize = 2;

/// Set-ups per run; `setup_s` is the best of them.
pub const SETUP_REPEATS: usize = 5;

/// Rounds of the traced run (each is one journey plus one ladder replay),
/// half of them preceded by an untraced twin for `trace.overhead_share`.
pub const TRACE_ROUNDS: usize = 5;

/// Row-groups (or, on `hot_small`, streams) the ladder replays per round.
pub const LADDER_ROWGROUPS: usize = 18;

/// Seed of the documented one-command run.
pub const DEFAULT_SEED: u64 = 20240609;

/// Size divisor of `--smoke`.
pub const SMOKE_SCALE: usize = 64;

/// Threads of `Column::from_f64_parallel` in set-up, and of the pipelined
/// writer's rung (caller included) with its depth.
pub const BUILD_THREADS: usize = 2;
pub const PIPELINE_DEPTH: usize = 2;

/// How a workload's datasets are laid out in its column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// One dataset after the other, each generated in `segments` pieces from
    /// independent sub-seeds. One long random walk makes pruning, bit widths
    /// and so every metric a lottery of the seed; many shorter ones average
    /// out.
    Concat { segments: usize },
    /// Round-robin in row-group-sized blocks, so neighbouring row-groups come
    /// from different datasets.
    InterleaveRowgroups,
}

/// How the workload's query mix is built from its own quantiles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mix {
    /// Bands of each width around each centre (both as quantile positions).
    Bands { centres: &'static [f64], widths: &'static [f64] },
    /// `per_client` seeded narrow bands per client, widths uniform in
    /// `min_width..max_width`.
    Narrow { per_client: usize, min_width: f64, max_width: f64 },
}

/// One workload: the inputs of both journeys and the service configuration.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`: what it stresses and what it bypasses.
    pub why: &'static str,
    pub datasets: &'static [&'static str],
    /// Values generated per dataset at full size.
    pub values_per_dataset: usize,
    pub layout: Layout,
    /// Values per ingested stream (one file each); `None` = one stream.
    pub stream_values: Option<usize>,
    /// `max_entries` and `max_bytes` of the page cache (pages are row-groups).
    pub cache_entries: usize,
    pub cache_bytes: usize,
    /// Closed-loop query clients, one thread each.
    pub clients: usize,
    pub mix: Mix,
}

impl Workload {
    pub fn cache_config(&self) -> CacheConfig {
        CacheConfig {
            max_entries: self.cache_entries,
            page_size_rows: ROWGROUP_VALUES,
            max_bytes: self.cache_bytes,
        }
    }

    /// Values per dataset at `scale` (1 = full size). Interleaved layouts
    /// keep whole row-group blocks so the documented interleave survives.
    pub fn dataset_values(&self, scale: usize) -> usize {
        let n = self.values_per_dataset / scale.max(1);
        match self.layout {
            Layout::Concat { .. } => n.max(1),
            Layout::InterleaveRowgroups => (n / ROWGROUP_VALUES).max(1) * ROWGROUP_VALUES,
        }
    }

    pub fn total_values(&self, scale: usize) -> usize {
        self.dataset_values(scale) * self.datasets.len()
    }
}

const FOUR_CENTRES: [f64; 4] = [0.2, 0.4, 0.6, 0.8];
/// For `decimal_ts`, where zone maps prune and a query's cost follows where
/// its band falls on the seed's walks: over 12 queries the median latency
/// moves by 8-11 % between seeds, over 24 by 5 %.
const EIGHT_CENTRES: [f64; 8] = [0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.75, 0.85];
const BAND_WIDTHS: [f64; 3] = [0.005, 0.05, 0.25];
const DEFAULT_CACHE: (usize, usize) = (256, 64 << 20);

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "decimal_ts",
        why: "16M values of 4 decimal time series, all-ALP at 7-13 bits: kernels, encode and \
              sampler do the work, hashing/framing/I/O little; zero-entry cache, so queries run fused",
        datasets: &["City-Temp", "Stocks-USA", "Dew-Temp", "Air-Pressure"],
        values_per_dataset: 4_000_000,
        layout: Layout::Concat { segments: 16 },
        stream_values: None,
        cache_entries: 0,
        cache_bytes: DEFAULT_CACHE.1,
        clients: 1,
        mix: Mix::Bands { centres: &EIGHT_CENTRES, widths: &BAND_WIDTHS },
    },
    Workload {
        name: "real_rd",
        why: "4M POI coordinates, every row-group ALP_rd at ~56 bits: rd, xxh64, framing and file \
              I/O do the work, decimal kernels none; cache holds half the column, so scans evict",
        datasets: &["POI-lat", "POI-lon"],
        values_per_dataset: 2_000_000,
        layout: Layout::Concat { segments: 16 },
        stream_values: None,
        cache_entries: DEFAULT_CACHE.0,
        cache_bytes: 16 << 20,
        clients: 1,
        mix: Mix::Bands { centres: &FOUR_CENTRES, widths: &BAND_WIDTHS },
    },
    Workload {
        name: "mixed_wide",
        why: "6.1M values of 6 wide datasets interleaved per row-group, 25-43 bits, heavy-tail \
              exceptions, unsorted: sampler levels, wide pack/unpack, patching; zone maps skip only \
              foreign datasets",
        datasets: &["NYC/29", "CMS/25", "Blockchain", "Gov/10", "Food-prices", "Arade/4"],
        values_per_dataset: 10 * ROWGROUP_VALUES,
        layout: Layout::InterleaveRowgroups,
        stream_values: None,
        cache_entries: 0,
        cache_bytes: DEFAULT_CACHE.1,
        clients: 1,
        mix: Mix::Bands { centres: &FOUR_CENTRES, widths: &BAND_WIDTHS },
    },
    Workload {
        name: "hot_small",
        why: "2M Stocks-USA values (128 walks) as 62 one-row-group streams, 2 clients x 400 narrow \
              cached queries: per-stream and per-query overheads, cache hits and pruning; decode idle",
        datasets: &["Stocks-USA"],
        values_per_dataset: 2_000_000,
        layout: Layout::Concat { segments: 128 },
        stream_values: Some(32 * 1024),
        cache_entries: DEFAULT_CACHE.0,
        cache_bytes: DEFAULT_CACHE.1,
        clients: 2,
        mix: Mix::Narrow { per_client: 400, min_width: 0.001, max_width: 0.02 },
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric: what a user of the system sees, with the share of
/// the base's median by which it may worsen before that is a regression.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// `failed_share` is reported on every run but is not in this table: it is 0
/// on a healthy tree, and a bound relative to 0 means nothing. Any failure
/// makes the run incorrect and the process exit non-zero instead.
///
/// The timing and memory bounds are the widest the contract allows: ten runs
/// of one binary spread by 2-7 % on this host in a quiet hour and by up to 25 %
/// in a noisy one (README, noise floor), and a bound inside three times the
/// noise decides nothing. `bits_per_value` is exact for a seed and moves by up
/// to 0.33 % between seeds (`hot_small`).
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "ingest_mbps", unit: "MB/s", better: Better::Higher, bound: 0.25 },
    EndToEnd { name: "read_mbps", unit: "MB/s", better: Better::Higher, bound: 0.25 },
    EndToEnd { name: "query_qps", unit: "1/s", better: Better::Higher, bound: 0.25 },
    EndToEnd { name: "query_p50_ms", unit: "ms", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "bits_per_value", unit: "bits", better: Better::Lower, bound: 0.015 },
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: Better::Lower, bound: 0.25 },
];

/// A per-layer metric of the traced run.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The one encoding scheme whose vectors the rung runs on. On a workload
    /// whose row-groups never take that scheme the rung is off the journey:
    /// it is measured on a forced encoding of sampled row-groups and marked
    /// so in the readable output and the trace file, because the driver's
    /// result line carries every rung for every workload.
    pub scheme: Option<Scheme>,
}

const fn rung(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better, scheme: None }
}

const fn alp_rung(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better, scheme: Some(Scheme::Alp) }
}

const fn rd_rung(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better, scheme: Some(Scheme::AlpRd) }
}

use Better::{Higher, Lower};

pub const PER_LAYER: [PerLayer; 61] = [
    rung("host.memcpy_mbps", "MB/s", Higher),
    rung("host.sum_f64_mbps", "MB/s", Higher),
    rung("host.file_write_mbps", "MB/s", Higher),
    rung("host.file_read_mbps", "MB/s", Higher),
    rung("fastlanes.pack_mbps", "MB/s", Higher),
    rung("fastlanes.unpack_mbps", "MB/s", Higher),
    alp_rung("fastlanes.ffor_pack_mbps", "MB/s", Higher),
    alp_rung("fastlanes.ffor_unpack_mbps", "MB/s", Higher),
    alp_rung("fastlanes.for_unfused_mbps", "MB/s", Higher),
    alp_rung("fastlanes.fused_scan_mbps", "MB/s", Higher),
    rung("alp.sampler.first_level_us", "us", Lower),
    alp_rung("alp.sampler.second_level_ns", "ns", Lower),
    alp_rung("alp.sampler.early_exit_share", "share", Higher),
    alp_rung("alp.encode.vector_mbps", "MB/s", Higher),
    alp_rung("alp.encode.exception_share", "share", Lower),
    alp_rung("alp.decode.vector_mbps", "MB/s", Higher),
    alp_rung("alp.decode.unfused_mbps", "MB/s", Higher),
    alp_rung("alp.decode.scan_vector_mbps", "MB/s", Higher),
    rung("alp.decode.scan_decoded_mbps", "MB/s", Higher),
    rd_rung("alp.rd.choose_cut_us", "us", Lower),
    rd_rung("alp.rd.encode_mbps", "MB/s", Higher),
    rd_rung("alp.rd.decode_mbps", "MB/s", Higher),
    rung("alp.rowgroup.compress_mbps", "MB/s", Higher),
    rung("alp.rowgroup.decompress_mbps", "MB/s", Higher),
    rung("alp.rowgroup.rd_share", "share", Lower),
    rung("alp.rowgroup.mean_bit_width", "bits", Lower),
    rung("alp.hash.xxh64_mbps", "MB/s", Higher),
    rung("alp.format.to_bytes_mbps", "MB/s", Higher),
    rung("alp.format.from_bytes_mbps", "MB/s", Higher),
    rung("alp.stream.write_serial_mbps", "MB/s", Higher),
    rung("alp.stream.read_mem_mbps", "MB/s", Higher),
    rung("alp.stream.read_compressed_mbps", "MB/s", Higher),
    rung("alp.stream.write_parity_mbps", "MB/s", Higher),
    rung("alp.stream.read_salvaged_mbps", "MB/s", Higher),
    rung("alp.pipeline.write_mbps", "MB/s", Higher),
    rung("alp.pipeline.speedup_vs_serial", "ratio", Higher),
    rung("alp.par.morsel_overhead_us", "us", Lower),
    rung("core.scan_values_mbps", "MB/s", Higher),
    rung("core.container_write_mbps", "MB/s", Higher),
    rung("core.container_read_mbps", "MB/s", Higher),
    rung("vectorq.column_build_mbps", "MB/s", Higher),
    rung("vectorq.sum_where_mbps", "MB/s", Higher),
    rung("vectorq.scan_fused_mbps", "MB/s", Higher),
    rung("vectorq.decompress_vector_mbps", "MB/s", Higher),
    rung("vectorq.zonemap_skip_share", "share", Higher),
    rung("vectorq.cache.hit_share", "share", Higher),
    rung("vectorq.cache.bypass_share", "share", Lower),
    rung("vectorq.cache.evictions_per_query", "count", Lower),
    rung("vectorq.cache.get_ns", "ns", Lower),
    rung("vectorq.cache.insert_us", "us", Lower),
    rung("vectorq.service.admit_ns", "ns", Lower),
    rung("vectorq.service.overhead_us", "us", Lower),
    rung("vectorq.service.fused_page_share", "share", Higher),
    rung("vectorq.service.nofused_qps", "1/s", Higher),
    rung("vectorq.service.query_p95_ms", "ms", Lower),
    rung("vectorq.service.refused", "count", Lower),
    rung("vectorq.scrub.pass_ms", "ms", Lower),
    rung("vectorq.scrub.pages_repaired", "count", Higher),
    rung("ingest.unattributed_share", "share", Lower),
    rung("read.unattributed_share", "share", Lower),
    rung("trace.overhead_share", "share", Lower),
];

pub fn per_layer(name: &str) -> Option<&'static PerLayer> {
    PER_LAYER.iter().find(|m| m.name == name)
}

/// The command `BENCHMARK.json` names; the driver appends
/// `--workload W --seed N --seconds S --trace 0|1`.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// The root `BENCHMARK.json`, rendered from the tables above
/// (`--print-benchmark-json` regenerates the file).
pub fn benchmark_json() -> crate::json::Json {
    use crate::json::Json;
    let strings = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::str(*s)).collect());
    Json::obj([
        ("command", strings(&COMMAND)),
        ("paths", strings(&["benchmark"])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_matches_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
        let on_disk = crate::json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "BENCHMARK.json drifted from spec.rs; regenerate it with --print-benchmark-json"
        );
    }

    #[test]
    fn the_contracts_limits_hold() {
        let names: Vec<&str> = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        for name in &names {
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{name}");
        }
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for w in &WORKLOADS {
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}: why is {}",
                w.name,
                w.why.len()
            );
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Lower));
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(PER_LAYER.len() <= 128);
        let units = END_TO_END.iter().map(|m| m.unit).chain(PER_LAYER.iter().map(|m| m.unit));
        for unit in units {
            assert!(
                unit.len() <= 16
                    && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
    }
}
