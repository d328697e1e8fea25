//! dcp-benchmark — the one benchmark for the three pipelines.
//!
//! Seven seconds-long workloads (see `workload.rs`), each run in its own
//! process; end-to-end metrics from an untraced run, per-layer metrics
//! from a traced one, measured by this harness around `pub` calls into
//! the workspace crates — never from inside them. The README has the
//! definitions, the interaction table and the limits.
//!
//! ```text
//! dcp-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     One workload in this process (what BENCHMARK.json's command runs).
//!     The last line of output is the result object.
//! dcp-benchmark run [--seed N] [--seconds S] [--traced] [--smoke]
//!     Every workload, each in a child process; prints every metric by
//!     name with unit, median, sample count and bound, and writes
//!     benchmark/out/<rev>-<seed>.json (+ history.jsonl).
//! dcp-benchmark compare <a.json> <b.json>
//! dcp-benchmark calibrate [--seed N] [--seconds S]
//! dcp-benchmark check [--seed N]
//! ```

mod host;
mod inputs;
mod json;
mod metric;
mod report;
mod sizes;
mod stats;
mod trace;
mod wl_analyze;
mod wl_cluster;
mod wl_serve;
mod wl_sim;
mod workload;

use std::process::ExitCode;

use sizes::Sizes;
use workload::Workload;

/// Flags shared by every mode. Unknown flags are an error: a mistyped
/// `--seconds` must not silently run the default.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Option<Workload>,
    pub seed: u64,
    /// `None`: the mode's default (`RUN_SECONDS`, or a fraction of a
    /// second under `--smoke`).
    pub seconds: Option<f64>,
    pub trace: bool,
    pub smoke: bool,
    pub passes: usize,
    pub files: Vec<String>,
}

/// Seconds one run measures, as recorded in `BENCHMARK.json`.
pub const RUN_SECONDS: f64 = 8.0;

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        passes: 1,
        files: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                a.workload = Some(
                    Workload::from_name(name)
                        .ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => {
                a.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(format!("--seconds {s} is outside (0, 60]"));
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other:?}: want 0 or 1")),
                }
            }
            "--traced" => a.trace = true,
            "--smoke" => a.smoke = true,
            "--passes" => {
                a.passes = value("a number")?
                    .parse()
                    .map_err(|e| format!("--passes: {e}"))?
            }
            other if other.starts_with("--") => return Err(format!("unknown flag {other}")),
            file => a.files.push(file.to_string()),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mode, rest) = match argv.first().map(String::as_str) {
        Some(m @ ("run" | "compare" | "calibrate" | "check" | "serial-sim")) => (m, &argv[1..]),
        // No subcommand: the driver's `--workload ... --trace ...` form.
        _ => ("workload", &argv[..]),
    };
    let args = match parse_args(rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dcp-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let sizes = if args.smoke {
        Sizes::smoke()
    } else {
        Sizes::full()
    };
    let ok = match mode {
        "workload" => match args.workload {
            Some(w) => report::workload_main(w, &args, sizes),
            None => {
                eprintln!("dcp-benchmark: --workload <name> or a subcommand (run, compare, calibrate, check)");
                return ExitCode::from(2);
            }
        },
        "serial-sim" => {
            let w = args.workload.expect("serial-sim needs --workload");
            wl_sim::serial_sim_main(w, &sizes, args.passes);
            true
        }
        "run" => report::run_main(&args),
        "compare" => report::compare_main(&args),
        "calibrate" => report::calibrate_main(&args),
        "check" => report::check_main(&args),
        _ => unreachable!("mode matched above"),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
