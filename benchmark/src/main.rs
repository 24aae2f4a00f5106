//! The STEM engine benchmark. See `README.md` beside this package for
//! the workloads, metrics and how to read the output.
//!
//! ```text
//! stem-benchmark run --workload <W|all> [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out FILE]
//! stem-benchmark compare A B
//! stem-benchmark selfcheck [--seed N] [--seconds S] [--quick]
//! ```

mod catalog;
mod gen;
mod legs;
mod mem;
mod report;
mod rng;
mod run;
mod sink;
mod spans;
mod stats;
mod sys;
mod workloads;

use run::Options;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: mem::Counting = mem::Counting;

const DEFAULT_SEED: u64 = 17;
/// `--seconds` of a `--quick` run.
const QUICK_SECONDS: f64 = 2.0;

const USAGE: &str = "usage:
  stem-benchmark run --workload <name|all> [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out FILE]
  stem-benchmark compare A.json B.json
  stem-benchmark selfcheck [--seed N] [--seconds S] [--quick]
workloads: dense_match durable_match pattern_skew tenant_churn";

struct Args {
    positional: Vec<String>,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    quick: bool,
    out: Option<PathBuf>,
}

fn parse_args(mut raw: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        positional: Vec::new(),
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        traced: false,
        quick: false,
        out: None,
    };
    while let Some(arg) = raw.next() {
        let mut value = |flag: &str| raw.next().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.traced = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--quick" => args.quick = true,
            "--out" => args.out = Some(PathBuf::from(value("--out")?)),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => args.positional.push(arg),
        }
    }
    Ok(args)
}

impl Args {
    fn options(&self) -> Options {
        let default = if self.quick {
            QUICK_SECONDS
        } else {
            catalog::RUN_SECONDS as f64
        };
        Options {
            seed: self.seed,
            seconds: self.seconds.unwrap_or(default),
            traced: self.traced,
            quick: self.quick,
        }
    }
}

/// Runs one workload in this process. The last line printed is the
/// driver's JSON object.
fn run_one(name: &str, opts: &Options, out: Option<&Path>) -> Result<bool, String> {
    let spec = workloads::spec(name, opts.quick)
        .ok_or_else(|| format!("unknown workload {name}\n{USAGE}"))?;
    let outcome = run::run(&spec, opts)?;
    let missing = report::missing_metrics(&outcome, opts.traced);
    if !missing.is_empty() {
        return Err(format!("{name}: metrics not produced: {missing:?}"));
    }
    report::print_outcome(&outcome, opts);
    if let Some(path) = out {
        report::append_line(path, &report::workload_line(&outcome))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    if outcome.failed > 0 {
        eprintln!(
            "{name}: {} of {} operations failed (failed_share {})",
            outcome.failed,
            outcome.attempted,
            outcome.failed_share()
        );
    }
    println!("{}", report::driver_line(&outcome, opts.traced));
    Ok(outcome.failed == 0)
}

/// Runs every workload, each in a process of its own, appending to
/// `out`. Returns whether every one succeeded.
fn run_all(opts: &Options, out: &Path) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate own executable: {e}"))?;
    let mut ok = true;
    for name in workloads::NAMES {
        let mut child = std::process::Command::new(&exe);
        child
            .args(["run", "--workload", name])
            .args(["--seed", &opts.seed.to_string()])
            .args(["--seconds", &opts.seconds.to_string()])
            .args(["--trace", if opts.traced { "1" } else { "0" }])
            .arg("--out")
            .arg(out);
        if opts.quick {
            child.arg("--quick");
        }
        // `status` waits for the child to end.
        let status = child.status().map_err(|e| format!("start {name}: {e}"))?;
        if !status.success() {
            eprintln!("{name}: exited with {status}");
            ok = false;
        }
    }
    Ok(ok)
}

fn start_result_file(path: &Path, opts: &Options) -> Result<(), String> {
    let _ = std::fs::remove_file(path);
    report::append_line(path, &report::env_line(opts))
        .map_err(|e| format!("write {}: {e}", path.display()))
}

fn main_inner() -> Result<bool, String> {
    let args = parse_args(std::env::args().skip(1))?;
    let opts = args.options();
    let positional: Vec<&str> = args.positional.iter().map(String::as_str).collect();
    match (&positional[..], args.workload.as_deref()) {
        (["run"], Some("all")) => {
            let out = args
                .out
                .clone()
                .unwrap_or_else(|| sys::out_dir().join(format!("result-seed{}.json", opts.seed)));
            start_result_file(&out, &opts)?;
            let ok = run_all(&opts, &out)?;
            println!("\nresults: {}", out.display());
            Ok(ok)
        }
        (["run"], Some(name)) => {
            if let Some(out) = &args.out {
                if !out.exists() {
                    start_result_file(out, &opts)?;
                }
            }
            run_one(name, &opts, args.out.as_deref())
        }
        (["compare", a, b], None) => {
            let flagged = report::compare(Path::new(a), Path::new(b))?;
            Ok(!flagged
                .iter()
                .any(|(_, _, v)| *v == report::Verdict::Regressed))
        }
        (["selfcheck"], None) => {
            if opts.traced {
                return Err(
                    "selfcheck compares end-to-end metrics, which a traced pass does not report"
                        .to_owned(),
                );
            }
            let files = ["selfcheck-a.json", "selfcheck-b.json"].map(|f| sys::out_dir().join(f));
            let mut ok = true;
            for file in &files {
                start_result_file(file, &opts)?;
                ok &= run_all(&opts, file)?;
            }
            let flagged = report::compare(&files[0], &files[1])?;
            println!(
                "\nselfcheck: {} of {} pairs within their bound",
                workloads::NAMES.len() * (catalog::END_TO_END.len() + 1) - flagged.len(),
                workloads::NAMES.len() * (catalog::END_TO_END.len() + 1)
            );
            // Two runs of the same code must agree: anything else than
            // `within` means the benchmark cannot resolve its own bounds.
            Ok(ok && flagged.is_empty())
        }
        _ => Err(USAGE.to_owned()),
    }
}

fn main() -> ExitCode {
    match main_inner() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
