//! `--compare A.json B.json`: applies the bounds of `BENCHMARK.json` to every
//! (workload, end-to-end metric) pair of two result files. A is the base of
//! every ratio.

use crate::host;
use crate::json::{self, Json};
use crate::spec::Better;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// A side's median wandered by more than the bound while it ran (the
    /// quartile range of its batch medians), and the two ranges overlap: the
    /// runs cannot tell a change from noise.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side's median of one metric and the quartiles of its batch medians
/// (see `stats::Summary`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Side {
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Side {
    fn spread(&self) -> f64 {
        if self.value == 0.0 {
            0.0
        } else {
            ((self.q3 - self.q1) / self.value).abs()
        }
    }
}

/// The rule. `worse` is the change from `a` to `b` as a share of `a`, signed
/// so that positive is worse.
pub fn judge(a: Side, b: Side, better: Better, bound: f64) -> Verdict {
    let worse = match better {
        Better::Higher => (a.value - b.value) / a.value,
        Better::Lower => (b.value - a.value) / a.value,
    };
    if a.spread().max(b.spread()) > bound {
        // Too noisy for the medians alone; only ranges that do not touch
        // still decide.
        let b_all_better = match better {
            Better::Higher => b.q1 > a.q3,
            Better::Lower => b.q3 < a.q1,
        };
        let b_all_worse = match better {
            Better::Higher => b.q3 < a.q1,
            Better::Lower => b.q1 > a.q3,
        };
        return if b_all_better && worse < -bound {
            Verdict::Improved
        } else if b_all_worse && worse > bound {
            Verdict::Regressed
        } else {
            Verdict::Unresolved
        };
    }
    if worse > bound {
        Verdict::Regressed
    } else if worse < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

pub struct Row {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    pub a: Side,
    pub b: Side,
    pub bound: f64,
    pub verdict: Verdict,
}

/// `(name, better, bound)` of every end-to-end metric in `BENCHMARK.json`.
pub fn bounds_from_benchmark_json() -> Result<Vec<(String, Better, f64)>, String> {
    let path = host::package_dir().join("..").join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = json::parse(&text)?;
    let list = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str).ok_or("a metric without a name")?;
            let better = match m.get("better").and_then(Json::as_str) {
                Some("higher") => Better::Higher,
                Some("lower") => Better::Lower,
                other => return Err(format!("{name}: better is {other:?}")),
            };
            let bound =
                m.get("bound").and_then(Json::as_f64).ok_or_else(|| format!("{name}: no bound"))?;
            Ok((name.to_string(), better, bound))
        })
        .collect()
}

fn side(metric: &Json) -> Option<Side> {
    Some(Side {
        value: metric.get("value")?.as_f64()?,
        q1: metric.get("batch_q1")?.as_f64()?,
        q3: metric.get("batch_q3")?.as_f64()?,
    })
}

/// Refuses files whose fingerprints differ in anything but the commit: the
/// commit is what a comparison is usually *about*.
fn check_comparable(a: &Json, b: &Json) -> Result<(), String> {
    let fa = json::flatten(a.get("fingerprint").ok_or("A has no fingerprint")?);
    let fb = json::flatten(b.get("fingerprint").ok_or("B has no fingerprint")?);
    let mut differing: Vec<String> = fa
        .keys()
        .chain(fb.keys())
        .filter(|k| k.as_str() != "git_head" && fa.get(*k) != fb.get(*k))
        .map(|k| {
            let show = |f: &std::collections::BTreeMap<String, String>| {
                f.get(k).cloned().unwrap_or_else(|| "-".to_string())
            };
            format!("{k}: {} vs {}", show(&fa), show(&fb))
        })
        .collect();
    differing.sort();
    differing.dedup();
    if differing.is_empty() {
        Ok(())
    } else {
        Err(format!("fingerprints differ, refusing to compare:\n  {}", differing.join("\n  ")))
    }
}

pub fn compare(a: &Json, b: &Json, bounds: &[(String, Better, f64)]) -> Result<Vec<Row>, String> {
    check_comparable(a, b)?;
    let workloads = a.get("workloads").and_then(Json::as_obj).ok_or("A has no workloads")?;
    let mut rows = Vec::new();
    for (workload, report_a) in workloads {
        let report_b = b
            .get("workloads")
            .and_then(|w| w.get(workload))
            .ok_or_else(|| format!("B has no workload {workload}"))?;
        for (metric, better, bound) in bounds {
            let find = |report: &Json, which: &str| {
                report
                    .get("metrics")
                    .and_then(|m| m.get(metric))
                    .ok_or_else(|| format!("{which} has no {workload} {metric}"))
                    .and_then(|m| side(m).ok_or_else(|| format!("{which}: {metric} is malformed")))
            };
            let (sa, sb) = (find(report_a, "A")?, find(report_b, "B")?);
            let unit = report_a
                .get("metrics")
                .and_then(|m| m.get(metric))
                .and_then(|m| m.get("unit"))
                .and_then(Json::as_str)
                .unwrap_or("");
            rows.push(Row {
                workload: workload.clone(),
                metric: metric.clone(),
                unit: unit.to_string(),
                a: sa,
                b: sb,
                bound: *bound,
                verdict: judge(sa, sb, *better, *bound),
            });
        }
        for (which, report) in [("A", report_a), ("B", report_b)] {
            if report.get("failed").and_then(Json::as_f64) != Some(0.0) {
                return Err(format!(
                    "{which}: {workload} has failed operations; nothing to compare"
                ));
            }
        }
    }
    Ok(rows)
}

/// Prints every row with its ratio and base; returns whether any row is
/// `regressed` or `unresolved`.
pub fn print_rows(rows: &[Row]) -> bool {
    println!("workload metric verdict  B/A  (A = base, B, unit; bound; quartile ranges of batch medians)");
    let mut undecided = false;
    for r in rows {
        println!(
            "{} {} {}  {:.4}x  (A {} B {} {}; bound {}; A [{} {}] B [{} {}])",
            r.workload,
            r.metric,
            r.verdict.as_str(),
            r.b.value / r.a.value,
            r.a.value,
            r.b.value,
            r.unit,
            r.bound,
            r.a.q1,
            r.a.q3,
            r.b.q1,
            r.b.q3,
        );
        undecided |= matches!(r.verdict, Verdict::Regressed | Verdict::Unresolved);
    }
    undecided
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tight(value: f64) -> Side {
        Side { value, q1: value * 0.99, q3: value * 1.01 }
    }

    #[test]
    fn medians_inside_the_bound_are_unchanged() {
        assert_eq!(judge(tight(100.0), tight(95.0), Better::Higher, 0.10), Verdict::Unchanged);
        assert_eq!(judge(tight(100.0), tight(105.0), Better::Lower, 0.10), Verdict::Unchanged);
    }

    #[test]
    fn direction_decides_which_way_is_worse() {
        assert_eq!(judge(tight(100.0), tight(80.0), Better::Higher, 0.10), Verdict::Regressed);
        assert_eq!(judge(tight(100.0), tight(80.0), Better::Lower, 0.10), Verdict::Improved);
        assert_eq!(judge(tight(100.0), tight(125.0), Better::Higher, 0.10), Verdict::Improved);
        assert_eq!(judge(tight(100.0), tight(125.0), Better::Lower, 0.10), Verdict::Regressed);
    }

    #[test]
    fn a_wide_side_is_unresolved_unless_the_ranges_are_disjoint() {
        let noisy = Side { value: 100.0, q1: 90.0, q3: 110.0 };
        assert_eq!(judge(noisy, tight(95.0), Better::Higher, 0.10), Verdict::Unresolved);
        assert_eq!(judge(tight(100.0), noisy, Better::Higher, 0.10), Verdict::Unresolved);
        assert_eq!(judge(noisy, tight(150.0), Better::Higher, 0.10), Verdict::Improved);
        assert_eq!(judge(noisy, tight(50.0), Better::Higher, 0.10), Verdict::Regressed);
    }

    #[test]
    fn fingerprints_must_agree_except_for_the_commit() {
        let file = |seed: f64, head: &str| {
            Json::obj([(
                "fingerprint",
                Json::obj([("seed", Json::Num(seed)), ("git_head", Json::str(head))]),
            )])
        };
        assert!(check_comparable(&file(1.0, "abc"), &file(1.0, "def")).is_ok());
        let err = check_comparable(&file(1.0, "abc"), &file(2.0, "abc")).unwrap_err();
        assert!(err.contains("seed: 1 vs 2"), "{err}");
    }
}
