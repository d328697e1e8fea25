//! The commands: one workload in this process, the whole set in child
//! processes, `compare`, `calibrate` and `check`.

use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, Stdio};

use crate::host::{git_rev, out_dir, peak_rss_mib, provenance};
use crate::json::{self, obj, Value};
use crate::metric::{def, Better, Def, Metric, Outcome, END_TO_END, PER_LAYER, PIPELINE};
use crate::sizes::Sizes;
use crate::trace::Recorder;
use crate::workload::{self, Ctx, Workload};
use crate::{Args, RUN_SECONDS};

/// Seconds a smoke run measures per workload unless told otherwise.
const SMOKE_SECONDS: f64 = 0.2;

fn seconds_of(args: &Args) -> f64 {
    args.seconds.unwrap_or(if args.smoke {
        SMOKE_SECONDS
    } else {
        RUN_SECONDS
    })
}

// ------------------------------------------------ one workload, in process

/// Run one workload here and print its result: human-readable lines, a
/// `DETAIL` line with everything measured (what `run` collects), and
/// last the result object the driver reads.
pub fn workload_main(w: Workload, args: &Args, sizes: Sizes) -> bool {
    let seconds = seconds_of(args);
    let mut ctx = Ctx {
        workload: w,
        seed: args.seed,
        seconds,
        sizes,
        rec: Recorder::new(args.trace),
    };
    let mut out = workload::run(&mut ctx);
    let reported: &[Def] = if args.trace {
        // A traced run reports every per-layer metric; a layer this
        // workload does not exercise did no work and reads 0.
        for d in PER_LAYER {
            if out.get(d.name).is_none() {
                out.push(Metric::one(d.name, 0.0));
            }
        }
        let path = out_dir().join(format!("trace-{}.jsonl", w.name()));
        if let Err(e) = ctx.rec.write_jsonl(&path) {
            out.check(false, || format!("write {}: {e}", path.display()));
        }
        PER_LAYER
    } else {
        out.push(Metric::one("peak_rss_mib", peak_rss_mib()));
        let failed_share = out.failed as f64 / out.attempted.max(1) as f64;
        out.push(Metric::one("ok_op_share", 1.0 - failed_share));
        out.push(Metric::one("failed_op_share", failed_share));
        END_TO_END
    };
    for d in reported {
        assert!(
            out.get(d.name).is_some(),
            "{} did not report {}",
            w.name(),
            d.name
        );
    }

    print_outcome(w, &out);
    let detail = detail_json(w, args, seconds, &out);
    println!("DETAIL {detail}");
    let metrics: Vec<(String, Value)> = reported
        .iter()
        .map(|d| {
            let m = out.get(d.name).expect("asserted above");
            (
                m.name.to_string(),
                obj([("value", m.value.into()), ("unit", m.unit.into())]),
            )
        })
        .collect();
    println!(
        "{}",
        obj([
            ("correct", out.correct().into()),
            ("attempted", out.attempted.max(1).into()),
            ("failed", out.failed.into()),
            ("metrics", Value::Obj(metrics)),
        ])
    );
    true
}

fn detail_json(w: Workload, args: &Args, seconds: f64, out: &Outcome) -> Value {
    obj([
        ("workload", w.name().into()),
        ("seed", args.seed.into()),
        ("seconds", seconds.into()),
        ("traced", args.trace.into()),
        ("smoke", args.smoke.into()),
        ("correct", out.correct().into()),
        ("attempted", out.attempted.into()),
        ("failed", out.failed.into()),
        (
            "failures",
            Value::Arr(out.failures.iter().map(|f| f.as_str().into()).collect()),
        ),
        (
            "notes",
            Value::Arr(out.notes.iter().map(|n| n.as_str().into()).collect()),
        ),
        (
            "metrics",
            Value::Arr(out.metrics.iter().map(Metric::to_json).collect()),
        ),
        ("provenance", provenance(args.seed)),
    ])
}

fn bound_text(d: &Def) -> String {
    if d.exact {
        "exact".to_string()
    } else if d.bound > 0.0 {
        format!("{:.0}%", 100.0 * d.bound)
    } else {
        "-".to_string()
    }
}

fn print_metric_row(m: &Metric) {
    let d = def(m.name).expect("metrics come from the catalogue");
    let [min, q1, _, q3, max] = m.spread;
    println!(
        "  {:<38} {:>16.6} {:<7} n={:<5} min {:<12.6} q1 {:<12.6} q3 {:<12.6} max {:<12.6} {} better, bound {}",
        m.name,
        m.value,
        m.unit,
        m.samples,
        min,
        q1,
        q3,
        max,
        d.better.as_str(),
        bound_text(d),
    );
}

fn print_outcome(w: Workload, out: &Outcome) {
    let (unit, op) = w.work_unit();
    println!(
        "{} (work = {unit}; op = {op}): {} of {} operations and checks failed",
        w.name(),
        out.failed,
        out.attempted
    );
    for m in &out.metrics {
        print_metric_row(m);
    }
    for n in &out.notes {
        println!("  note: {n}");
    }
    for f in &out.failures {
        println!("  FAILED: {f}");
    }
}

// ------------------------------------------------- the set, in children

/// Run one workload in a child of this binary, wait for it, and return
/// what it printed.
fn spawn_workload(
    name: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if smoke {
        cmd.arg("--smoke");
    }
    let done = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {name}: {e}"))?;
    let text = String::from_utf8_lossy(&done.stdout).to_string();
    if done.status.success() {
        Ok(text)
    } else {
        Err(format!(
            "{name} exited with {:?}\n{text}",
            done.status.code()
        ))
    }
}

/// `(workload, metrics)` of every workload in a result document.
fn workload_metrics(doc: &Value) -> Vec<(String, Vec<Metric>)> {
    doc.get("workloads")
        .and_then(Value::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|w| {
            let name = w.get("workload")?.as_str()?.to_string();
            let metrics = w.get("metrics")?.as_arr()?;
            Some((name, metrics.iter().filter_map(Metric::from_json).collect()))
        })
        .collect()
}

/// Run every workload, each in its own child, echoing what each prints
/// for a reader as it finishes. Returns the result document and whether
/// every output check passed.
fn run_set(args: &Args) -> (Value, bool) {
    let seconds = seconds_of(args);
    let mut all_ok = true;
    let mut docs = Vec::new();
    for w in Workload::ALL {
        let detail =
            spawn_workload(w.name(), args.seed, seconds, args.trace, args.smoke).and_then(|text| {
                let (human, rest) = text
                    .split_once("DETAIL ")
                    .ok_or_else(|| format!("{} printed no DETAIL line", w.name()))?;
                print!("{human}");
                json::parse(rest.lines().next().unwrap_or(""))
            });
        match detail {
            Ok(detail) => {
                all_ok &= detail
                    .get("correct")
                    .and_then(Value::as_bool)
                    .unwrap_or(false);
                docs.push(detail);
            }
            Err(e) => {
                println!("{}: {e}", w.name());
                all_ok = false;
            }
        }
    }
    let doc = obj([
        ("provenance", provenance(args.seed)),
        ("seed", args.seed.into()),
        ("seconds", seconds.into()),
        ("traced", args.trace.into()),
        ("smoke", args.smoke.into()),
        ("correct", all_ok.into()),
        ("workloads", Value::Arr(docs)),
    ]);
    (doc, all_ok)
}

/// `run`: the set, a result file named after revision and seed, and one
/// more line in the history (a series, never overwritten).
pub fn run_main(args: &Args) -> bool {
    let (doc, ok) = run_set(args);
    let mut name = format!("{}-{}", git_rev(), args.seed);
    if args.trace {
        name.push_str("-traced");
    }
    if args.smoke {
        name.push_str("-smoke");
    }
    let path = out_dir().join(format!("{name}.json"));
    match write_result(&path, &doc) {
        Ok(()) => println!(
            "wrote {} and appended to {}",
            path.display(),
            history_path().display()
        ),
        Err(e) => {
            eprintln!("dcp-benchmark: could not write results: {e}");
            return false;
        }
    }
    println!(
        "{}",
        if ok {
            "all output checks passed"
        } else {
            "OUTPUT CHECKS FAILED"
        }
    );
    ok
}

fn history_path() -> PathBuf {
    out_dir().join("history.jsonl")
}

fn write_result(path: &std::path::Path, doc: &Value) -> std::io::Result<()> {
    std::fs::create_dir_all(out_dir())?;
    std::fs::write(path, format!("{doc}\n"))?;
    let mut history = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(history_path())?;
    writeln!(history, "{doc}")
}

// ----------------------------------------------------------------- compare

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Not worse than the base by more than the bound.
    Same,
    Worse,
    /// Run-to-run spread wider than the bound: no claim either way.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `b` is than `a`, as a share of `a`; negative when `b`
/// is better.
fn worsening(d: &Def, a: f64, b: f64) -> f64 {
    let delta = match d.better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    if a == 0.0 {
        if delta > 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    } else {
        delta / a.abs()
    }
}

/// Interquartile range of a metric's samples as a share of its median.
fn spread_share(m: &Metric) -> f64 {
    let [_, q1, med, q3, _] = m.spread;
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// Judge `b` against the base `a`.
///
/// An exact metric may not worsen at all. A timing whose spread (on
/// either side) is wider than its bound is unresolved, unless every
/// sample of `b` reads better than every sample of `a`; otherwise it is
/// worse when the median worsened by more than the bound.
pub fn verdict(d: &Def, a: &Metric, b: &Metric) -> Verdict {
    let w = worsening(d, a.value, b.value);
    if d.exact {
        return if w > 0.0 {
            Verdict::Worse
        } else {
            Verdict::Same
        };
    }
    if spread_share(a).max(spread_share(b)) > d.bound {
        let [a_min, .., a_max] = a.spread;
        let [b_min, .., b_max] = b.spread;
        let all_better = match d.better {
            Better::Lower => b_max < a_min,
            Better::Higher => b_min > a_max,
        };
        return if all_better {
            Verdict::Same
        } else {
            Verdict::Unresolved
        };
    }
    if w > d.bound {
        Verdict::Worse
    } else {
        Verdict::Same
    }
}

/// `(workload, metrics)` of a result file written by `run`.
fn load_result(path: &str) -> Result<Vec<(String, Vec<Metric>)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let workloads = workload_metrics(&doc);
    if workloads.is_empty() {
        return Err(format!("{path}: no workloads"));
    }
    Ok(workloads)
}

/// `compare <a.json> <b.json>`: one row per end-to-end metric and
/// workload, the ratio given with its base; fails on any `worse`.
pub fn compare_main(args: &Args) -> bool {
    let [a_path, b_path] = args.files.as_slice() else {
        eprintln!("dcp-benchmark: compare wants two result files");
        return false;
    };
    let (a, b) = match (load_result(a_path), load_result(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("dcp-benchmark: {e}");
            return false;
        }
    };
    println!("base a = {a_path}\n     b = {b_path}");
    println!(
        "{:<22} {:<26} {:>16} {:>16} {:>9} {:>7}  verdict",
        "workload", "metric", "a median", "b median", "b/a", "bound"
    );
    let mut counts = [0usize; 3];
    for (workload, a_metrics) in &a {
        let Some((_, b_metrics)) = b.iter().find(|(w, _)| w == workload) else {
            println!("{workload:<22} missing from b");
            counts[Verdict::Worse as usize] += 1;
            continue;
        };
        for am in a_metrics {
            // Per-layer metrics explain a change; they do not judge it.
            let Some(d) = END_TO_END
                .iter()
                .chain(PIPELINE)
                .find(|d| d.name == am.name)
            else {
                continue;
            };
            let Some(bm) = b_metrics.iter().find(|m| m.name == am.name) else {
                println!("{workload:<22} {:<26} missing from b", am.name);
                counts[Verdict::Worse as usize] += 1;
                continue;
            };
            let v = verdict(d, am, bm);
            counts[v as usize] += 1;
            // A ratio needs a base: none when the base reads 0.
            let ratio = if am.value == 0.0 {
                "-".to_string()
            } else {
                format!("{:.4}", bm.value / am.value)
            };
            println!(
                "{workload:<22} {:<26} {:>16.6} {:>16.6} {ratio:>9} {:>7}  {}",
                am.name,
                am.value,
                bm.value,
                bound_text(d),
                v.as_str(),
            );
        }
    }
    println!(
        "{} same, {} worse, {} unresolved",
        counts[Verdict::Same as usize],
        counts[Verdict::Worse as usize],
        counts[Verdict::Unresolved as usize]
    );
    counts[Verdict::Worse as usize] == 0
}

// --------------------------------------------------------------- calibrate

/// `calibrate`: the set twice, then for every metric the worst relative
/// difference between the two runs over all workloads, beside its bound.
pub fn calibrate_main(args: &Args) -> bool {
    let (first, ok_a) = run_set(args);
    let (second, ok_b) = run_set(args);
    let (a, b) = (workload_metrics(&first), workload_metrics(&second));
    println!("\ncalibration: worst relative difference between two runs of the set");
    println!("{:<38} {:>10} {:>8}  on", "metric", "worst", "bound");
    let catalogue: Vec<&Def> = if args.trace {
        PER_LAYER.iter().collect()
    } else {
        END_TO_END.iter().chain(PIPELINE).collect()
    };
    let mut within = true;
    for d in catalogue {
        let mut worst: Option<(f64, &str)> = None;
        for (workload, a_metrics) in &a {
            let pair = a_metrics.iter().find(|m| m.name == d.name).zip(
                b.iter()
                    .find(|(w, _)| w == workload)
                    .and_then(|(_, ms)| ms.iter().find(|m| m.name == d.name)),
            );
            if let Some((am, bm)) = pair {
                let base = am.value.abs().min(bm.value.abs());
                let rel = if base == 0.0 {
                    0.0
                } else {
                    (am.value - bm.value).abs() / base
                };
                if worst.is_none_or(|(w, _)| rel > w) {
                    worst = Some((rel, workload));
                }
            }
        }
        if let Some((rel, workload)) = worst {
            println!(
                "{:<38} {:>9.2}% {:>8}  {workload}",
                d.name,
                100.0 * rel,
                bound_text(d)
            );
            within &= d.bound == 0.0 || rel <= d.bound;
        }
    }
    println!(
        "{}",
        if within {
            "every metric repeated within its bound"
        } else {
            "SOME METRIC MOVED MORE THAN ITS BOUND"
        }
    );
    ok_a && ok_b
}

// ------------------------------------------------------------------- check

/// `check`: `BENCHMARK.json` against the catalogue, then every workload
/// it names, untraced and traced at smoke sizes, against the contract:
/// every metric named is emitted exactly once with its unit, no name
/// outside `[A-Za-z0-9_.-]`, and all output checks pass.
pub fn check_main(args: &Args) -> bool {
    let mut problems: Vec<String> = Vec::new();
    let manifest = match std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| e.to_string())
        .and_then(|t| json::parse(&t))
    {
        Ok(m) => m,
        Err(e) => {
            eprintln!("dcp-benchmark: BENCHMARK.json (run from the repository root): {e}");
            return false;
        }
    };
    let listed = |key: &str| -> Vec<Value> {
        manifest
            .get(key)
            .and_then(Value::as_arr)
            .map(<[Value]>::to_vec)
            .unwrap_or_default()
    };
    for (key, catalogue, bounded) in [
        ("end_to_end", END_TO_END, true),
        ("per_layer", PER_LAYER, false),
    ] {
        let entries = listed(key);
        if entries.len() != catalogue.len() {
            problems.push(format!(
                "BENCHMARK.json lists {} {key} metrics, the harness {}",
                entries.len(),
                catalogue.len()
            ));
        }
        for d in catalogue {
            let Some(e) = entries
                .iter()
                .find(|e| e.get("name").and_then(Value::as_str) == Some(d.name))
            else {
                problems.push(format!("{key}: {} is not in BENCHMARK.json", d.name));
                continue;
            };
            if e.get("unit").and_then(Value::as_str) != Some(d.unit)
                || e.get("better").and_then(Value::as_str) != Some(d.better.as_str())
                || (bounded && e.get("bound").and_then(Value::as_f64) != Some(d.bound))
            {
                problems.push(format!(
                    "{key}: {} disagrees with the harness catalogue: {e}",
                    d.name
                ));
            }
        }
    }
    if manifest.get("run_seconds").and_then(Value::as_f64) != Some(RUN_SECONDS) {
        problems.push(format!(
            "run_seconds is not the harness default {RUN_SECONDS}"
        ));
    }
    let names: Vec<String> = listed("workloads")
        .iter()
        .filter_map(|w| w.get("name").and_then(Value::as_str).map(str::to_string))
        .collect();
    if names != Workload::ALL.map(|w| w.name().to_string()) {
        problems.push(format!("workloads {names:?} are not the harness's seven"));
    }

    for name in &names {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let text = match spawn_workload(name, args.seed, SMOKE_SECONDS, trace == "1", true) {
                Ok(text) => text,
                Err(e) => {
                    problems.push(format!("{name} --trace {trace}: {e}"));
                    continue;
                }
            };
            let want: Vec<(String, String)> = listed(key)
                .iter()
                .filter_map(|e| {
                    Some((
                        e.get("name")?.as_str()?.to_string(),
                        e.get("unit")?.as_str()?.to_string(),
                    ))
                })
                .collect();
            for p in check_result_line(text.lines().last().unwrap_or(""), &want) {
                problems.push(format!("{name} --trace {trace}: {p}"));
            }
        }
        println!("checked {name}");
    }
    for p in &problems {
        println!("PROBLEM: {p}");
    }
    println!(
        "{}",
        if problems.is_empty() {
            "check passed"
        } else {
            "CHECK FAILED"
        }
    );
    problems.is_empty()
}

/// Hold one result line against the contract and the `(name, unit)`
/// pairs it must carry.
fn check_result_line(line: &str, want: &[(String, String)]) -> Vec<String> {
    let mut problems = Vec::new();
    let v = match json::parse(line) {
        Ok(v) => v,
        Err(e) => return vec![format!("last line is not JSON: {e}")],
    };
    let keys: Vec<&str> = v
        .as_obj()
        .unwrap_or(&[])
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    if keys != ["correct", "attempted", "failed", "metrics"] {
        problems.push(format!("keys are {keys:?}"));
    }
    if v.get("correct").and_then(Value::as_bool) != Some(true) {
        problems.push("an output check failed (correct is not true)".to_string());
    }
    if v.get("attempted")
        .and_then(Value::as_f64)
        .is_none_or(|n| n < 1.0)
        || v.get("failed").and_then(Value::as_f64) != Some(0.0)
    {
        problems.push("attempted < 1 or failed != 0".to_string());
    }
    let metrics = v.get("metrics").and_then(Value::as_obj).unwrap_or(&[]);
    for (name, m) in metrics {
        if !name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
        {
            problems.push(format!(
                "metric name {name:?} has a character outside [A-Za-z0-9_.-]"
            ));
        }
        if metrics.iter().filter(|(n, _)| n == name).count() != 1 {
            problems.push(format!("{name} is emitted more than once"));
        }
        match want.iter().find(|(n, _)| n == name) {
            None => problems.push(format!("{name} is not named in BENCHMARK.json")),
            Some((_, unit)) => {
                if m.get("unit").and_then(Value::as_str) != Some(unit) {
                    problems.push(format!(
                        "{name} has unit {:?}, want {unit:?}",
                        m.get("unit")
                    ));
                }
                if m.get("value").and_then(Value::as_f64).is_none() {
                    problems.push(format!("{name} has no numeric value"));
                }
            }
        }
    }
    for (name, _) in want {
        if !metrics.iter().any(|(n, _)| n == name) {
            problems.push(format!("{name} is not emitted"));
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(name: &str, samples: &[f64]) -> Metric {
        Metric::of(name, samples)
    }

    fn d(name: &str) -> &'static Def {
        def(name).expect("in the catalogue")
    }

    #[test]
    fn timing_within_bound_is_same_and_beyond_is_worse() {
        // work_per_s: higher is better, bound 25 %.
        let base = m("work_per_s", &[100.0, 101.0, 99.0, 100.5, 99.5]);
        let close = m("work_per_s", &[80.0, 81.0, 79.0, 80.5, 79.5]);
        let far = m("work_per_s", &[70.0, 71.0, 69.0, 70.5, 69.5]);
        let faster = m("work_per_s", &[150.0, 151.0, 149.0, 150.5, 149.5]);
        assert_eq!(verdict(d("work_per_s"), &base, &close), Verdict::Same);
        assert_eq!(verdict(d("work_per_s"), &base, &far), Verdict::Worse);
        assert_eq!(verdict(d("work_per_s"), &base, &faster), Verdict::Same);
        // op_ms_p50: lower is better.
        let slow = m("op_ms_p50", &[1.30, 1.31, 1.29]);
        let quick = m("op_ms_p50", &[1.00, 1.01, 0.99]);
        assert_eq!(verdict(d("op_ms_p50"), &quick, &slow), Verdict::Worse);
        assert_eq!(verdict(d("op_ms_p50"), &slow, &quick), Verdict::Same);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let noisy = m("work_per_s", &[60.0, 100.0, 140.0, 90.0, 110.0]);
        let steady = m("work_per_s", &[100.0, 100.0, 100.0, 100.0, 100.0]);
        assert_eq!(
            verdict(d("work_per_s"), &noisy, &steady),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(d("work_per_s"), &steady, &noisy),
            Verdict::Unresolved
        );
        // ... unless every run of b reads better than every run of a.
        let clear = m("work_per_s", &[200.0, 260.0, 320.0, 240.0, 280.0]);
        assert_eq!(verdict(d("work_per_s"), &noisy, &clear), Verdict::Same);
    }

    #[test]
    fn exact_metrics_may_not_worsen_at_all() {
        let a = Metric::one("output_bytes", 1000.0);
        assert_eq!(
            verdict(d("output_bytes"), &a, &Metric::one("output_bytes", 1000.0)),
            Verdict::Same
        );
        assert_eq!(
            verdict(d("output_bytes"), &a, &Metric::one("output_bytes", 1001.0)),
            Verdict::Worse
        );
        assert_eq!(
            verdict(d("output_bytes"), &a, &Metric::one("output_bytes", 900.0)),
            Verdict::Same
        );
        let zero = Metric::one("failed_op_share", 0.0);
        assert_eq!(
            verdict(
                d("failed_op_share"),
                &zero,
                &Metric::one("failed_op_share", 0.0)
            ),
            Verdict::Same
        );
        assert_eq!(
            verdict(
                d("failed_op_share"),
                &zero,
                &Metric::one("failed_op_share", 0.01)
            ),
            Verdict::Worse
        );
    }

    #[test]
    fn result_line_is_held_to_the_contract() {
        let want = vec![
            ("setup_s".to_string(), "s".to_string()),
            ("work_per_s".to_string(), "1/s".to_string()),
        ];
        let good = r#"{"correct": true, "attempted": 10, "failed": 0, "metrics": {"setup_s": {"value": 0.5, "unit": "s"}, "work_per_s": {"value": 7.25, "unit": "1/s"}}}"#;
        assert!(check_result_line(good, &want).is_empty());
        let missing = r#"{"correct": true, "attempted": 10, "failed": 0, "metrics": {"setup_s": {"value": 0.5, "unit": "s"}}}"#;
        assert_eq!(
            check_result_line(missing, &want),
            vec!["work_per_s is not emitted".to_string()]
        );
        let wrong_unit = r#"{"correct": true, "attempted": 10, "failed": 0, "metrics": {"setup_s": {"value": 0.5, "unit": "ms"}, "work_per_s": {"value": 7.25, "unit": "1/s"}}}"#;
        assert_eq!(check_result_line(wrong_unit, &want).len(), 1);
        let twice = r#"{"correct": true, "attempted": 10, "failed": 0, "metrics": {"setup_s": {"value": 0.5, "unit": "s"}, "setup_s": {"value": 0.6, "unit": "s"}, "work_per_s": {"value": 7.25, "unit": "1/s"}}}"#;
        assert!(check_result_line(twice, &want)
            .iter()
            .any(|p| p.contains("more than once")));
        let failed = r#"{"correct": false, "attempted": 10, "failed": 1, "metrics": {"setup_s": {"value": 0.5, "unit": "s"}, "work_per_s": {"value": 7.25, "unit": "1/s"}}}"#;
        assert_eq!(check_result_line(failed, &want).len(), 2);
    }
}
