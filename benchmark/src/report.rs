//! How results leave the process: the table a person reads, the one
//! line the driver reads, and the result file `compare` reads. One
//! writer serves all per-layer sources.
//!
//! A result file is JSON lines: the environment first, then one line
//! per workload, so each workload's process appends its own line.

use crate::catalog::{self, Better};
use crate::run::{Options, Outcome};
use crate::stats::Summary;
use crate::sys;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use stem_obs::json::{self, Value};

pub fn quoted(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit the measurement has.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// The metrics a pass reports: every end-to-end metric untraced, every
/// per-layer metric traced.
fn pass_metrics(traced: bool) -> Vec<String> {
    if traced {
        catalog::per_layer().into_iter().map(|m| m.0).collect()
    } else {
        catalog::END_TO_END
            .iter()
            .map(|m| m.name.to_owned())
            .collect()
    }
}

/// The metrics the outcome's pass promises and the outcome lacks.
pub fn missing_metrics(outcome: &Outcome, traced: bool) -> Vec<String> {
    pass_metrics(traced)
        .into_iter()
        .filter(|n| !outcome.metrics.contains_key(n))
        .collect()
}

pub fn print_outcome(outcome: &Outcome, opts: &Options) {
    let units = catalog::units();
    println!(
        "\n== {}  seed {}  {} pass  {} cores",
        outcome.workload,
        opts.seed,
        if opts.traced { "traced" } else { "untraced" },
        sys::nproc()
    );
    for (key, value) in &outcome.info {
        println!("   {key}: {value}");
    }
    println!(
        "{:<40} {:>7} {:>16} {:>16} {:>16} {:>4} {:>6}",
        "metric", "unit", "median", "q1", "q3", "n", "bound"
    );
    let end_to_end = catalog::END_TO_END.iter().map(|m| m.name.to_owned());
    let rest = outcome
        .metrics
        .keys()
        .filter(|n| catalog::end_to_end(n).is_none())
        .cloned();
    for name in end_to_end.chain(rest) {
        let Some(s) = outcome.metrics.get(&name) else {
            continue;
        };
        let bound = catalog::end_to_end(&name)
            .map_or_else(String::new, |m| format!("{:.0}%", m.bound * 100.0));
        println!(
            "{:<40} {:>7} {:>16.4} {:>16.4} {:>16.4} {:>4} {:>6}",
            name, units[&name].0, s.median, s.q1, s.q3, s.n, bound
        );
    }
    println!(
        "{:<40} {:>7} {:>16} (ops_failed {} / ops_attempted {})",
        "failed_share",
        "ratio",
        number(outcome.failed_share()),
        outcome.failed,
        outcome.attempted
    );
}

/// The driver's line: `correct`, `attempted`, `failed`, and each metric
/// of the pass as `{"value", "unit"}`, the value being the median over
/// the run's reps.
pub fn driver_line(outcome: &Outcome, traced: bool) -> String {
    let units = catalog::units();
    let metrics: Vec<String> = pass_metrics(traced)
        .iter()
        .map(|name| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quoted(name),
                number(outcome.metrics[name].median),
                quoted(units[name].0)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

/// The first line of a result file: where and how the run was made.
pub fn env_line(opts: &Options) -> String {
    format!(
        "{{\"env\": {{\"commit\": {}, \"seed\": {}, \"nproc\": {}, \"rustc\": {}, \"seconds\": {}, \
         \"traced\": {}, \"quick\": {}, \"claim\": null}}}}",
        quoted(&sys::commit()),
        opts.seed,
        sys::nproc(),
        quoted(&sys::rustc_version()),
        number(opts.seconds),
        opts.traced,
        opts.quick
    )
}

/// One workload's line of a result file.
pub fn workload_line(outcome: &Outcome) -> String {
    let units = catalog::units();
    let info: Vec<String> = outcome
        .info
        .iter()
        .map(|(k, v)| format!("{}: {}", quoted(k), quoted(v)))
        .collect();
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, s)| {
            format!(
                "{}: {{\"unit\": {}, \"median\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}}}",
                quoted(name),
                quoted(units[name].0),
                number(s.median),
                number(s.q1),
                number(s.q3),
                s.n
            )
        })
        .collect();
    format!(
        "{{\"workload\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"info\": {{{}}}, \"metrics\": {{{}}}}}",
        quoted(outcome.workload),
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        info.join(", "),
        metrics.join(", ")
    )
}

pub fn append_line(path: &Path, line: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(file, "{line}")
}

/// One workload's row of a result file, read back.
pub struct WorkloadResult {
    pub attempted: u64,
    pub failed: u64,
    /// Whether the open loop kept its schedule (no `latency_invalid`
    /// note in the run's info).
    pub latency_valid: bool,
    pub metrics: BTreeMap<String, Summary>,
}

/// Reads a result file into `workload -> result`.
///
/// # Errors
///
/// Returns a message naming the file and line that does not parse.
pub fn read_results(path: &Path) -> Result<BTreeMap<String, WorkloadResult>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let mut out = BTreeMap::new();
    for (number, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let bad = |what: &str| format!("{}:{}: {what}", path.display(), number + 1);
        let value = json::parse(line).map_err(|e| bad(&e))?;
        let Some(workload) = value.get("workload").and_then(Value::as_str) else {
            continue; // the environment line
        };
        let field =
            |v: &Value, key: &str| v.get(key).and_then(Value::as_f64).ok_or_else(|| bad(key));
        let Some(Value::Object(metrics)) = value.get("metrics") else {
            return Err(bad("metrics"));
        };
        let metrics = metrics
            .iter()
            .map(|(name, m)| {
                Ok((
                    name.clone(),
                    Summary {
                        median: field(m, "median")?,
                        q1: field(m, "q1")?,
                        q3: field(m, "q3")?,
                        n: field(m, "n")? as usize,
                    },
                ))
            })
            .collect::<Result<_, String>>()?;
        out.insert(
            workload.to_owned(),
            WorkloadResult {
                attempted: field(&value, "attempted")? as u64,
                failed: field(&value, "failed")? as u64,
                latency_valid: value
                    .get("info")
                    .is_none_or(|info| info.get("latency_invalid").is_none()),
                metrics,
            },
        );
    }
    Ok(out)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Within,
    Regressed,
    Improved,
    /// The quartile spread of either side exceeds the bound, so a
    /// difference of the bound's size cannot be told from noise.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Within => "within",
            Verdict::Regressed => "regressed",
            Verdict::Improved => "improved",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `b`'s median is than `a`'s, as a share of `a`'s
/// (negative = better), and what that means against `bound`.
pub fn verdict(better: Better, bound: f64, a: &Summary, b: &Summary) -> (f64, Verdict) {
    let (va, vb) = (a.median, b.median);
    let change = if va == 0.0 { 0.0 } else { (vb - va) / va.abs() };
    let worse = match better {
        Better::Lower => change,
        Better::Higher => -change,
    };
    let verdict = if a.spread() > bound || b.spread() > bound {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else if worse < -bound {
        Verdict::Improved
    } else {
        Verdict::Within
    };
    (worse, verdict)
}

/// Prints every (workload, end-to-end metric) pair of two result files
/// and returns the verdicts that are not `within`.
///
/// # Errors
///
/// Returns a message when a file cannot be read or the two files do not
/// cover the same workloads and metrics.
pub fn compare(a_path: &Path, b_path: &Path) -> Result<Vec<(String, String, Verdict)>, String> {
    let (a, b) = (read_results(a_path)?, read_results(b_path)?);
    println!(
        "{:<14} {:<26} {:>14} {:>22} {:>14} {:>22} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "A q1..q3", "B median", "B q1..q3", "worse", "bound"
    );
    let mut flagged = Vec::new();
    for (workload, ra) in &a {
        let rb = b
            .get(workload)
            .ok_or_else(|| format!("{}: no {workload} row", b_path.display()))?;
        for m in &catalog::END_TO_END {
            let missing = |p: &Path| {
                format!(
                    "{}: {workload} has no {} (a traced pass reports no end-to-end metric)",
                    p.display(),
                    m.name
                )
            };
            let sa = ra.metrics.get(m.name).ok_or_else(|| missing(a_path))?;
            let sb = rb.metrics.get(m.name).ok_or_else(|| missing(b_path))?;
            let (worse, mut v) = verdict(m.better, m.bound, sa, sb);
            if m.name.starts_with("notify_latency") && !(ra.latency_valid && rb.latency_valid) {
                v = Verdict::Unresolved;
            }
            println!(
                "{:<14} {:<26} {:>14.4} {:>22} {:>14.4} {:>22} {:>+7.1}% {:>5.0}%  {}",
                workload,
                m.name,
                sa.median,
                format!("{:.4}..{:.4}", sa.q1, sa.q3),
                sb.median,
                format!("{:.4}..{:.4}", sb.q1, sb.q3),
                worse * 100.0,
                m.bound * 100.0,
                v.as_str()
            );
            if v != Verdict::Within {
                flagged.push((workload.clone(), m.name.to_owned(), v));
            }
        }
        // failed_share has an absolute bound of zero.
        let share = |r: &WorkloadResult| r.failed as f64 / r.attempted.max(1) as f64;
        let v = if share(rb) > share(ra) {
            Verdict::Regressed
        } else {
            Verdict::Within
        };
        println!(
            "{:<14} {:<26} {:>14} {:>22} {:>14} {:>22} {:>8} {:>6}  {}",
            workload,
            "failed_share",
            number(share(ra)),
            "",
            number(share(rb)),
            "",
            "",
            "0 abs",
            v.as_str()
        );
        if v != Verdict::Within {
            flagged.push((workload.clone(), "failed_share".to_owned(), v));
        }
    }
    for (workload, metric, verdict) in &flagged {
        println!("{}: {workload} {metric}", verdict.as_str());
    }
    Ok(flagged)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(median: f64, q1: f64, q3: f64) -> Summary {
        Summary {
            median,
            q1,
            q3,
            n: 7,
        }
    }

    #[test]
    fn verdict_table() {
        use Better::{Higher, Lower};
        use Verdict::{Improved, Regressed, Unresolved, Within};
        let tight = |m: f64| s(m, m * 0.99, m * 1.01);
        let cases = [
            // (better, bound, a, b, verdict)
            (Lower, 0.10, tight(100.0), tight(105.0), Within),
            (Lower, 0.10, tight(100.0), tight(111.0), Regressed),
            (Lower, 0.10, tight(100.0), tight(89.0), Improved),
            (Higher, 0.10, tight(100.0), tight(95.0), Within),
            (Higher, 0.10, tight(100.0), tight(89.0), Regressed),
            (Higher, 0.10, tight(100.0), tight(111.0), Improved),
            // Just inside the bound is still within.
            (Lower, 0.10, tight(100.0), tight(109.9), Within),
            // A spread wider than the bound on either side hides the change.
            (Lower, 0.10, s(100.0, 90.0, 105.0), tight(150.0), Unresolved),
            (Higher, 0.05, tight(100.0), s(50.0, 48.0, 52.0), Unresolved),
        ];
        for (better, bound, a, b, want) in cases {
            let (_, got) = verdict(better, bound, &a, &b);
            assert_eq!(got, want, "{better:?} bound {bound} a {a:?} b {b:?}");
        }
    }

    #[test]
    fn worse_is_signed_by_direction() {
        let (worse, _) = verdict(
            Better::Higher,
            0.1,
            &s(200.0, 200.0, 200.0),
            &s(150.0, 150.0, 150.0),
        );
        assert!((worse - 0.25).abs() < 1e-12);
        let (worse, _) = verdict(
            Better::Lower,
            0.1,
            &s(200.0, 200.0, 200.0),
            &s(150.0, 150.0, 150.0),
        );
        assert!((worse + 0.25).abs() < 1e-12);
    }

    #[test]
    fn result_lines_round_trip() {
        let mut metrics = BTreeMap::new();
        metrics.insert("setup_s".to_owned(), s(0.25, 0.2, 0.3));
        metrics.insert("recover_s".to_owned(), crate::stats::summarize(&[1.5]));
        let outcome = Outcome {
            workload: "dense_match",
            attempted: 1234,
            failed: 0,
            metrics,
            info: BTreeMap::from([("wal_fs", "ext4 \"quoted\"".to_owned())]),
        };
        let dir = std::env::temp_dir().join(format!("stem-benchmark-test-{}", std::process::id()));
        let path = dir.join("r.json");
        let _ = std::fs::remove_file(&path);
        let opts = Options {
            seed: 17,
            seconds: 2.0,
            traced: false,
            quick: true,
        };
        append_line(&path, &env_line(&opts)).unwrap();
        append_line(&path, &workload_line(&outcome)).unwrap();
        let back = read_results(&path).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        let row = &back["dense_match"];
        assert_eq!((row.attempted, row.failed), (1234, 0));
        assert!(row.latency_valid);
        assert_eq!(row.metrics["setup_s"], s(0.25, 0.2, 0.3));
        assert_eq!(row.metrics["recover_s"].n, 1);
    }

    #[test]
    fn driver_line_is_json_with_exactly_the_contract_keys() {
        let metrics = catalog::END_TO_END
            .iter()
            .map(|m| (m.name.to_owned(), crate::stats::summarize(&[1.25])))
            .collect();
        let outcome = Outcome {
            workload: "dense_match",
            attempted: 10,
            failed: 0,
            metrics,
            info: BTreeMap::new(),
        };
        let Value::Object(line) = json::parse(&driver_line(&outcome, false)).unwrap() else {
            panic!("not an object");
        };
        let keys: Vec<&str> = line.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let Value::Object(reported) = &line["metrics"] else {
            panic!("metrics is not an object");
        };
        assert_eq!(reported.len(), catalog::END_TO_END.len());
        assert_eq!(
            reported["setup_s"].get("unit").and_then(Value::as_str),
            Some("s")
        );
    }
}
