//! One workload, one process: set-up, then either the untraced run that
//! yields the end-to-end metrics or the traced run that yields the per-layer
//! ones.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::host;
use crate::journey::{Bench, Counters, Round};
use crate::json::Json;
use crate::ladder::{Ladder, Samples};
use crate::spec::{self, Better, Workload, MIN_ROUNDS, SETUP_REPEATS, TRACE_ROUNDS, WARMUP_ROUNDS};
use crate::stats::{highest_percentile, quantile_sorted, Summary};
use crate::trace::{self_times_ns, Trace};
use crate::workload::{generate, Oracle};

/// What one run of one workload reports.
pub struct Report {
    pub workload: &'static str,
    pub attempted: usize,
    pub failed: usize,
    pub rounds: usize,
    pub wall_s: f64,
    /// Metric name, unit and summary, in table order.
    pub metrics: Vec<(&'static str, &'static str, Summary)>,
    /// Rungs measured off this workload's journey, with the reason.
    pub off_journey: Vec<(&'static str, &'static str)>,
    /// Lines that are context, not metrics (tail percentile, failures).
    pub notes: Vec<String>,
    /// Per-round samples behind the timing metrics, in round order, so a
    /// result file shows how a run drifted and not only where it ended up.
    pub series: Vec<(&'static str, Vec<f64>)>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// `workload metric value unit` for every metric, spreads alongside.
    pub fn print(&self) {
        for (name, unit, s) in &self.metrics {
            let spread = if s.n > 1 {
                format!(
                    "  [median {} q1 {} q3 {} n {}; over the run's batches q1 {} q3 {}]",
                    s.median, s.q1, s.q3, s.n, s.batch_q1, s.batch_q3
                )
            } else {
                String::new()
            };
            println!("{} {} {} {}{}", self.workload, name, s.value, unit, spread);
        }
        for (name, why) in &self.off_journey {
            println!("{} {} note: {}", self.workload, name, why);
        }
        let share = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "{} failed_share {} share  [{} of {}]",
            self.workload, share, self.failed, self.attempted
        );
        println!("{} rounds {} count", self.workload, self.rounds);
        println!("{} wall_s {} s", self.workload, self.wall_s);
        for note in &self.notes {
            println!("{} note: {}", self.workload, note);
        }
    }

    /// The driver's result line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`, the latter holding the metrics `BENCHMARK.json` lists
    /// for this kind of run.
    pub fn driver_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, unit, s)| {
                (*name, Json::obj([("value", Json::Num(s.value)), ("unit", Json::str(*unit))]))
            })
            .collect::<Vec<_>>();
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
        .render()
    }

    /// Everything above, with spreads, for result files.
    pub fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, unit, s)| {
                (
                    *name,
                    Json::obj([
                        ("value", Json::Num(s.value)),
                        ("median", Json::Num(s.median)),
                        ("q1", Json::Num(s.q1)),
                        ("q3", Json::Num(s.q3)),
                        ("n", Json::Num(s.n as f64)),
                        ("batch_q1", Json::Num(s.batch_q1)),
                        ("batch_q3", Json::Num(s.batch_q3)),
                        ("unit", Json::str(*unit)),
                    ]),
                )
            })
            .collect::<Vec<_>>();
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("rounds", Json::Num(self.rounds as f64)),
            ("wall_s", Json::Num(self.wall_s)),
            ("metrics", Json::obj(metrics)),
            ("off_journey", Json::obj(self.off_journey.iter().map(|(n, w)| (*n, Json::str(*w))))),
            ("notes", Json::Arr(self.notes.iter().map(Json::str).collect())),
            (
                "series",
                Json::obj(self.series.iter().map(|(name, samples)| {
                    (*name, Json::Arr(samples.iter().map(|&x| Json::Num(x)).collect()))
                })),
            ),
        ])
    }
}

/// A directory of this process's own under `benchmark/out`, removed on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn create(workload: &str) -> Result<ScratchDir, String> {
        let dir = host::out_dir()?.join(format!("tmp-{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(ScratchDir(dir))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Counts a round's checks into the run's totals.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
    messages: Vec<String>,
}

impl Tally {
    fn count(&mut self, round: &Round) {
        self.attempted += round.attempted();
        for failure in round.failures() {
            self.failed += 1;
            if self.messages.len() < 10 {
                self.messages.push(failure.clone());
            }
        }
    }
}

/// The timed half of set-up: generate the data, build column, store and
/// service, run the warm-up rounds (the first is the `no_fused` reference
/// pass). Returns the bench and the seconds it took.
fn set_up<'a>(
    w: &'static Workload,
    oracle: &'a Oracle,
    seed: u64,
    scale: usize,
    dir: &Path,
) -> Result<(Bench<'a>, f64), String> {
    let started = Instant::now();
    let data = generate(w, scale, seed);
    let mut bench = Bench::build(w, oracle, data, dir);
    for warmup in 0..WARMUP_ROUNDS {
        let round = bench.round(warmup == 0);
        let failure = round.failures().next().cloned();
        if let Some(failure) = failure {
            return Err(format!("set-up of {} failed its checks: {failure}", w.name));
        }
    }
    Ok((bench, started.elapsed().as_secs_f64()))
}

fn oracle_for(w: &'static Workload, seed: u64, scale: usize) -> Result<Oracle, String> {
    Oracle::build(w, &generate(w, scale, seed), seed)
}

/// The untraced run: `SETUP_REPEATS` set-ups, then rounds for `seconds`.
pub fn run_untraced(
    w: &'static Workload,
    seed: u64,
    seconds: u64,
    scale: usize,
) -> Result<Report, String> {
    let wall = Instant::now();
    let dir = ScratchDir::create(w.name)?;
    let oracle = oracle_for(w, seed, scale)?;

    let mut setups = Vec::new();
    let mut bench = None;
    for _ in 0..SETUP_REPEATS {
        drop(bench.take());
        let (b, seconds) = set_up(w, &oracle, seed, scale, &dir.0)?;
        setups.push(seconds);
        bench = Some(b);
    }
    let mut bench = bench.expect("SETUP_REPEATS is at least 1");

    let raw_mb = bench.raw_mb();
    let (mut ingest, mut read, mut qps, mut p50_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut latencies_ms = Vec::new();
    let mut tally = Tally::default();
    let mut file_bytes = 0u64;
    let budget = Duration::from_secs(seconds);
    let started = Instant::now();
    while ingest.len() < MIN_ROUNDS || started.elapsed() < budget {
        let round = bench.round(false);
        tally.count(&round);
        ingest.push(raw_mb / round.ingest.seconds);
        read.push(raw_mb / round.read.seconds);
        qps.push(round.mix.answers.len() as f64 / round.mix.seconds);
        let mut pass_ms: Vec<f64> = round.mix.answers.iter().map(|a| a.seconds * 1e3).collect();
        pass_ms.sort_by(f64::total_cmp);
        p50_ms.push(quantile_sorted(&pass_ms, 0.5));
        latencies_ms.extend(pass_ms);
        if file_bytes != 0 && file_bytes != round.file_bytes {
            tally.failed += 1;
            tally.messages.push("committed size changed between rounds".to_string());
        }
        file_bytes = round.file_bytes;
    }

    let bits_per_value = file_bytes as f64 * 8.0 / bench.data.len() as f64;
    let peak_rss = host::peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
    let mut notes = tally.messages.clone();
    if let Some(p) = highest_percentile(latencies_ms.len()) {
        latencies_ms.sort_by(f64::total_cmp);
        notes.push(format!(
            "query latency p{} = {} ms over {} queries (highest percentile with 10 samples beyond it)",
            p * 100.0,
            quantile_sorted(&latencies_ms, p),
            latencies_ms.len()
        ));
    }
    // Every timing is reported by its best repetition (see `stats::best`).
    let best = |samples: &[f64], better: Better| Summary::best(samples, better == Better::Higher);
    let metrics = spec::END_TO_END
        .iter()
        .map(|m| {
            let summary = match m.name {
                "setup_s" => best(&setups, m.better),
                "ingest_mbps" => best(&ingest, m.better),
                "read_mbps" => best(&read, m.better),
                "query_qps" => best(&qps, m.better),
                "query_p50_ms" => best(&p50_ms, m.better),
                "bits_per_value" => Summary::exact(bits_per_value),
                "peak_rss_mb" => Summary::exact(peak_rss),
                other => panic!("{other} is in the table but not measured"),
            };
            (m.name, m.unit, summary)
        })
        .collect();
    Ok(Report {
        workload: w.name,
        attempted: tally.attempted,
        failed: tally.failed,
        rounds: ingest.len(),
        wall_s: wall.elapsed().as_secs_f64(),
        metrics,
        off_journey: Vec::new(),
        notes,
        series: vec![
            ("ingest_mbps", ingest),
            ("read_mbps", read),
            ("query_qps", qps),
            ("query_p50_ms", p50_ms),
        ],
    })
}

/// The traced run: each round is an untraced twin (the base of
/// `trace.overhead_share`) followed by a traced round whose journey steps
/// are spans and under which the ladder replays. Writes
/// `out/trace-<workload>.json`.
pub fn run_traced(
    w: &'static Workload,
    seed: u64,
    seconds: u64,
    scale: usize,
) -> Result<Report, String> {
    let wall = Instant::now();
    let dir = ScratchDir::create(w.name)?;
    let oracle = oracle_for(w, seed, scale)?;
    let (mut bench, _) = set_up(w, &oracle, seed, scale, &dir.0)?;
    let mut ladder = Ladder::prepare(&bench, dir.0.clone(), seed);

    let raw_mb = bench.raw_mb();
    let mut trace = Trace::new();
    let mut tally = Tally::default();
    let mut counters = Counters::default();
    let (mut ingest_s, mut read_s, mut mix_s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut latencies_ms = Vec::new();
    let budget = Duration::from_secs(seconds);
    let started = Instant::now();
    let mut rounds = 0;
    while rounds < TRACE_ROUNDS && (rounds < 2 || started.elapsed() < budget) {
        let plain = bench.round(false);
        tally.count(&plain);
        counters.add(&plain.mix.counters);
        plain_s.push(plain.ingest.seconds + plain.read.seconds + plain.mix.seconds);
        latencies_ms.extend(plain.mix.answers.iter().map(|a| a.seconds * 1e3));

        trace.set_round(rounds);
        trace.enter("round");
        trace.enter("ingest");
        let ingest = bench.ingest();
        trace.record("ingest.journey", ingest.started, ingest.seconds);
        ladder.replay_ingest(&mut trace);
        trace.exit();
        trace.enter("read");
        let (read, file_bytes) = bench.read_back();
        trace.record("read.journey", read.started, read.seconds);
        ladder.replay_read(&mut trace);
        trace.exit();
        let mix = bench.query_mix(false);
        for a in &mix.answers {
            trace.record("query", a.started, a.seconds);
        }
        trace.enter("query.ladder");
        ladder.replay_query(&mut bench, &mut trace);
        trace.exit();
        trace.exit();

        let round = Round { ingest, read, mix, file_bytes };
        tally.count(&round);
        counters.add(&round.mix.counters);
        ingest_s.push(round.ingest.seconds);
        read_s.push(round.read.seconds);
        mix_s.push(round.mix.seconds);
        traced_s.push(round.ingest.seconds + round.read.seconds + round.mix.seconds);
        latencies_ms.extend(round.mix.answers.iter().map(|a| a.seconds * 1e3));
        rounds += 1;
    }

    let (mut samples, off_journey) = ladder.finish();
    let median = |samples: &Samples, name: &str| {
        Summary::median(samples.get(name).unwrap_or_else(|| panic!("{name} was not measured")))
            .median
    };
    let ingest_mbps = raw_mb / Summary::median(&ingest_s).median;
    let read_mbps = raw_mb / Summary::median(&read_s).median;
    let query_qps = bench.queries_per_pass() as f64 / Summary::median(&mix_s).median;

    // Seconds per raw MB each rung explains. Both journeys run on one
    // thread, so their stages add up: the writer fills its buffer and writes
    // the file, compresses and frames.
    let per_mb = |name: &str| 1.0 / median(&samples, name);
    let ingest_explained = per_mb("host.memcpy_mbps")
        + per_mb("host.file_write_mbps")
        + per_mb("alp.rowgroup.compress_mbps")
        + per_mb("alp.format.to_bytes_mbps");
    let read_explained = per_mb("host.file_read_mbps")
        + per_mb("alp.stream.read_compressed_mbps")
        + per_mb("alp.rowgroup.decompress_mbps");
    let lookups = (counters.cache_hits + counters.cache_misses).max(1) as f64;
    let vectors = (counters.vectors_scanned + counters.vectors_skipped).max(1) as f64;
    let pages = (counters.pages_fused + counters.pages_materialized).max(1) as f64;
    let mut sorted = latencies_ms.clone();
    sorted.sort_by(f64::total_cmp);
    let one = |name: &'static str, value: f64| (name, vec![value]);
    samples.extend([
        one("ingest.unattributed_share", 1.0 - ingest_explained * ingest_mbps),
        one("read.unattributed_share", 1.0 - read_explained * read_mbps),
        one(
            "trace.overhead_share",
            Summary::median(&traced_s).median / Summary::median(&plain_s).median - 1.0,
        ),
        one("vectorq.zonemap_skip_share", counters.vectors_skipped as f64 / vectors),
        one("vectorq.cache.hit_share", counters.cache_hits as f64 / lookups),
        // A zero-entry cache never inserts, so its own bypass counter only
        // sees materializing misses; a fused page is a predicted bypass.
        one(
            "vectorq.cache.bypass_share",
            (counters.cache_bypasses + counters.pages_fused) as f64 / lookups,
        ),
        one(
            "vectorq.cache.evictions_per_query",
            counters.cache_evictions as f64 / counters.queries.max(1) as f64,
        ),
        one("vectorq.service.fused_page_share", counters.pages_fused as f64 / pages),
        one("vectorq.service.query_p95_ms", quantile_sorted(&sorted, 0.95)),
        one("vectorq.service.refused", counters.refused as f64),
    ]);

    let metrics = spec::PER_LAYER
        .iter()
        .map(|m| {
            let rounds =
                samples.get(m.name).unwrap_or_else(|| panic!("{} was not measured", m.name));
            (m.name, m.unit, Summary::median(rounds))
        })
        .collect();

    let report = Report {
        workload: w.name,
        attempted: tally.attempted,
        failed: tally.failed,
        rounds,
        wall_s: wall.elapsed().as_secs_f64(),
        metrics,
        off_journey,
        notes: tally.messages.clone(),
        series: Vec::new(),
    };

    // Self time per span name: where a traced round's time went.
    let own = self_times_ns(trace.spans());
    let mut by_name: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
    for (span, own_ns) in trace.spans().iter().zip(&own) {
        let e = by_name.entry(&span.name).or_default();
        e.0 += 1;
        e.1 += span.duration_ns();
        e.2 += own_ns;
    }
    let by_name = by_name.into_iter().map(|(name, (count, total, own))| {
        (
            name,
            Json::obj([
                ("spans", Json::Num(count as f64)),
                ("total_ns", Json::Num(total as f64)),
                ("self_ns", Json::Num(own as f64)),
            ]),
        )
    });
    let doc = Json::obj([
        ("workload", Json::str(w.name)),
        ("fingerprint", host::fingerprint(seed, seconds, scale, true)),
        (
            "context",
            Json::obj([
                ("rounds", Json::Num(rounds as f64)),
                ("column_values", Json::Num(bench.data.len() as f64)),
                ("ladder_values", Json::Num(ladder.sample_values() as f64)),
                ("ladder_alp_vectors", Json::Num(ladder.alp_vectors() as f64)),
                ("ladder_rd_vectors", Json::Num(ladder.rd_vectors() as f64)),
                ("journey_ingest_mbps", Json::Num(ingest_mbps)),
                ("journey_read_mbps", Json::Num(read_mbps)),
                ("journey_query_qps", Json::Num(query_qps)),
                ("ingest_explained_s_per_mb", Json::Num(ingest_explained)),
                ("read_explained_s_per_mb", Json::Num(read_explained)),
            ]),
        ),
        ("report", report.to_json()),
        ("self_time_by_span_name", Json::obj(by_name)),
        ("spans", trace.to_json()),
    ]);
    doc.write_file(&host::out_dir()?.join(format!("trace-{}.json", w.name)))?;
    Ok(report)
}
