//! The CLI drills: the `alp` binary driven end to end, as an operator would.
//!
//! One table — damage × layout × width → exit code — holds `verify` and
//! `scrub` to the same verdict on the same bytes (DESIGN.md §7), `decompress`
//! to "succeeds, bit-exactly, iff the verdict is complete" and `inspect` to a
//! listing whenever anything survives. Beside it: the `--rewrite` heal,
//! `inspect`'s rows for a stream against a column's, byte
//! identity of `--stream` across threads and depths, the one bits/value
//! definition, and fused vs `--no-fused` queries.

use std::fs;
use std::path::PathBuf;
use std::process::{Command, Output};

/// A scratch directory, removed on drop.
struct Dir(PathBuf);

impl Dir {
    fn new(name: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("alp_drills_{}_{name}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        Dir(dir)
    }
    fn path(&self, file: &str) -> String {
        self.0.join(file).to_str().unwrap().to_string()
    }
}

impl Drop for Dir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// Runs `alp <args>`; returns its exit code and stdout.
fn alp(args: &[&str]) -> (i32, String) {
    let Output { status, stdout, stderr } =
        Command::new(env!("CARGO_BIN_EXE_alp")).args(args).output().expect("spawn alp");
    let code = status.code().expect("exited");
    println!("$ alp {} -> {code}\n{}", args.join(" "), String::from_utf8_lossy(&stderr));
    (code, String::from_utf8(stdout).expect("utf-8"))
}

/// 300 000 City-Temp values (three row-groups) as a raw file of each width.
fn inputs(dir: &Dir) -> [(&'static str, String); 2] {
    let wide = dir.path("col.f64");
    assert_eq!(alp(&["gen", "City-Temp", "300000", &wide]).0, 0);
    let narrow = dir.path("col.f32");
    let doubles = fs::read(&wide).unwrap();
    let floats = doubles
        .chunks_exact(8)
        .flat_map(|c| (f64::from_le_bytes(c.try_into().unwrap()) as f32).to_le_bytes());
    fs::write(&narrow, floats.collect::<Vec<u8>>()).unwrap();
    [("f64", wide), ("f32", narrow)]
}

/// `alp compress` with the width's and the layout's flags.
fn compress(input: &str, output: &str, width: &str, stream: bool, parity: Option<&str>) -> String {
    let mut args = vec!["compress", input, output];
    args.extend((width == "f32").then_some("--f32"));
    args.extend(stream.then_some("--stream"));
    args.extend(parity.iter().flat_map(|k| ["--parity", k]));
    let (code, stdout) = alp(&args);
    assert_eq!(code, 0, "{args:?}");
    stdout
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Damage {
    Clean,
    OneRowGroup,
    OneRowGroupUnderParity,
    Torn,
    EveryRowGroup,
    BadMagic,
}

/// Damage → the exit code of `verify` and of `scrub`.
const TABLE: [(Damage, i32); 6] = [
    (Damage::Clean, 0),
    (Damage::OneRowGroup, 3),
    (Damage::OneRowGroupUnderParity, 2),
    (Damage::Torn, 3),
    (Damage::EveryRowGroup, 4),
    (Damage::BadMagic, 4),
];

impl Damage {
    fn apply(self, bytes: &mut Vec<u8>) {
        match self {
            Damage::Clean => {}
            Damage::OneRowGroup | Damage::OneRowGroupUnderParity => {
                bytes[600..604].copy_from_slice(&[0xDE, 0xAD, 0xBE, 0xEF])
            }
            Damage::Torn => bytes.truncate(bytes.len() * 2 / 3),
            // Past either header, a byte of every 512: no frame escapes.
            Damage::EveryRowGroup => {
                bytes.iter_mut().skip(32).step_by(512).for_each(|b| *b ^= 0xFF)
            }
            Damage::BadMagic => bytes[..4].copy_from_slice(b"XXXX"),
        }
    }
}

#[test]
fn verify_and_scrub_agree_on_every_damage_of_every_layout_at_both_widths() {
    let dir = Dir::new("table");
    for (width, input) in inputs(&dir) {
        let original = fs::read(&input).unwrap();
        for stream in [false, true] {
            let pristine = |parity| {
                let file = dir.path("pristine.alp");
                compress(&input, &file, width, stream, parity);
                fs::read(&file).unwrap()
            };
            // Two row-groups per parity group: three row-groups fill one and a half.
            let (plain, protected) = (pristine(None), pristine(Some("2")));
            for (damage, expected) in TABLE {
                let what =
                    format!("{damage:?} / {} / {width}", if stream { "stream" } else { "column" });
                let mut bytes = match damage {
                    Damage::OneRowGroupUnderParity => protected.clone(),
                    _ => plain.clone(),
                };
                damage.apply(&mut bytes);
                let (file, back) = (dir.path("case.alp"), dir.path("back.raw"));
                fs::write(&file, &bytes).unwrap();

                let (verify, verified) = alp(&["verify", &file]);
                let (scrub, _) = alp(&["scrub", &file, "--threads", "3"]);
                assert_eq!((verify, scrub), (expected, expected), "{what}: verify, scrub");
                assert_eq!(fs::read(&file).unwrap(), bytes, "{what}: report-only commands wrote");
                if stream && damage != Damage::BadMagic {
                    let state = if damage == Damage::Torn { "UNCOMMITTED" } else { "committed" };
                    assert!(verified.contains(state), "{what}: verify names the commit state");
                }

                let (inspect, listing) = alp(&["inspect", &file]);
                assert_eq!(inspect == 0, expected != 4, "{what}: inspect lists what survives");
                if damage == Damage::Clean {
                    // A header, the column titles and one line per row-group.
                    assert_eq!(listing.lines().count(), 2 + 3, "{what}: {listing}");
                }

                let (decompress, _) = alp(&["decompress", &file, &back]);
                assert_eq!(decompress == 0, expected == 0 || expected == 2, "{what}: decompress");
                if decompress == 0 {
                    assert!(fs::read(&back).unwrap() == original, "{what}: decompressed bytes");
                }
            }
        }
    }
}

#[test]
fn scrub_rewrite_heals_a_column_in_place_and_refuses_a_stream() {
    let dir = Dir::new("rewrite");
    let [(width, input), _] = inputs(&dir);
    let (column, stream) = (dir.path("col.alp"), dir.path("col.alpt"));
    compress(&input, &column, width, false, Some("4"));
    let pristine = fs::read(&column).unwrap();
    let mut damaged = pristine.clone();
    Damage::OneRowGroupUnderParity.apply(&mut damaged);
    fs::write(&column, &damaged).unwrap();
    assert_eq!(alp(&["scrub", &column, "--rewrite"]).0, 2);
    assert!(fs::read(&column).unwrap() == pristine, "the rewrite is the writer's own bytes");
    assert_eq!(alp(&["verify", &column]).0, 0);
    // A clean file is left alone; a stream is re-ingested, not rewritten.
    assert_eq!(alp(&["scrub", &column, "--rewrite"]).0, 0);
    compress(&input, &stream, width, true, Some("4"));
    assert_eq!(alp(&["scrub", &stream, "--rewrite"]).0, 1);
}

/// `inspect` reads scheme, vectors, values and exceptions from the surviving
/// bodies, so a stream lists the same row-groups as a column of the same
/// values.
#[test]
fn inspect_lists_a_stream_like_a_column_of_the_same_values() {
    let dir = Dir::new("inspect");
    for (width, input) in inputs(&dir) {
        let rows = |stream: bool| {
            let file = dir.path(if stream { "col.alpt" } else { "col.alp" });
            compress(&input, &file, width, stream, None);
            let (code, listing) = alp(&["inspect", &file]);
            assert_eq!(code, 0, "{width}: {listing}");
            // Past the file's own line: the column titles, one row per row-group.
            listing.lines().skip(1).map(String::from).collect::<Vec<_>>()
        };
        let column = rows(false);
        assert_eq!(column.len(), 1 + 3, "{width}: {column:?}");
        assert_eq!(rows(true), column, "{width}: the stream's rows");
    }
}

#[test]
fn stream_bytes_do_not_depend_on_threads_or_depth() {
    let dir = Dir::new("stream");
    let [(_, input), _] = inputs(&dir);
    let written = |file: &str, flags: &[&str]| {
        let file = dir.path(file);
        let args = [&["compress", &input, &file, "--stream", "--parity", "2"], flags].concat();
        assert_eq!(alp(&args).0, 0);
        fs::read(&file).unwrap()
    };
    let serial = written("serial.alpt", &["--threads", "1"]);
    let pipelined = written("pipelined.alpt", &["--threads", "4", "--pipeline-depth", "4"]);
    assert!(serial == pipelined);
}

/// `--parity K` files of the two layouts differ by 16 bytes; both print
/// file bytes × 8 / values, with the protection named.
#[test]
fn compress_prints_one_bits_per_value_definition() {
    let dir = Dir::new("bpv");
    let [(width, input), _] = inputs(&dir);
    for stream in [false, true] {
        let file = dir.path("col.alp");
        let printed = compress(&input, &file, width, stream, Some("4"));
        let bits = fs::metadata(&file).unwrap().len() as f64 * 8.0 / 300_000.0;
        assert!(printed.contains(&format!("({bits:.2} bits/value")), "{printed}");
        assert!(printed.contains("parity 1/4"), "{printed}");
    }
}

#[test]
fn fused_and_materialized_queries_print_the_same_sum() {
    let dir = Dir::new("query");
    let [(_, input), _] = inputs(&dir);
    let query = |band: [&str; 2], flags: &[&str], fault_seed: Option<&str>| {
        let args = [&["query", &input], &band[..], flags].concat();
        let mut command = Command::new(env!("CARGO_BIN_EXE_alp"));
        command.args(&args).env_remove("ALP_FAULT_SEED");
        fault_seed.map(|seed| command.env("ALP_FAULT_SEED", seed));
        let output = command.output().expect("spawn alp");
        assert!(output.status.success(), "{args:?}");
        String::from_utf8(output.stdout).unwrap()
    };
    let everything = ["-1e300", "1e300"];
    // An injected bad page (seed 4 poisons one of the three) degrades to a
    // partial result, never a failure.
    assert!(query(everything, &["--deadline-ms", "60000"], Some("4")).contains("PARTIAL result"));
    // Without them the two scan paths print the same sum line, apart from the
    // elapsed time that ends it.
    let sum_line = |stdout: String| {
        let line = stdout.lines().find(|line| line.starts_with("sum")).expect("a sum line");
        line[..line.rfind(", ").expect("a timing")].to_string()
    };
    // Every vector lies inside the widest band, so the fused path answers
    // each from its zone map; the interquartile range straddles most
    // vectors, so there it sums them block by block; and a narrow band
    // around the median has its edges inside vectors, most of whose blocks
    // it skips.
    let mut sorted: Vec<f64> = fs::read(&input)
        .unwrap()
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
        .collect();
    sorted.sort_by(f64::total_cmp);
    let quartile = |q: usize| sorted[sorted.len() * q / 4].to_string();
    let (q1, q3) = (quartile(1), quartile(3));
    let around_median = |offset: isize| sorted[(sorted.len() / 2).wrapping_add_signed(offset)];
    let (m1, m2) = (around_median(-300).to_string(), around_median(300).to_string());
    // `(vectors scanned, of them inside the band)` from a sum line.
    let counts = |line: &str| {
        let number_before = |text: &str| {
            let head = &line[..line.find(text).expect(text)];
            head.rsplit(['(', ' ']).next().unwrap().parse::<usize>().unwrap()
        };
        (number_before(" vectors scanned"), number_before(" inside the band"))
    };
    let (quartiles, median) = ([q1.as_str(), q3.as_str()], [m1.as_str(), m2.as_str()]);
    for (band, all_inside) in [(everything, true), (quartiles, false), (median, false)] {
        let (fused, materialized) = (query(band, &[], None), query(band, &["--no-fused"], None));
        assert!(fused.contains("scan path: fused"), "{band:?}: {fused}");
        assert!(materialized.contains("scan path: materialized"), "{band:?}: {materialized}");
        let line = sum_line(fused);
        assert_eq!(line, sum_line(materialized), "{band:?}");
        let (scanned, inside) = counts(&line);
        assert!(scanned > 0 && (inside == scanned) == all_inside, "{band:?}: {line}");
    }
}
