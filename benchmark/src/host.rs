//! What the harness needs from the host: provenance for every result,
//! peak memory, and the two timing loops (set-up, timed passes).

use std::process::Command;
use std::time::{Duration, Instant};

use crate::json::{obj, Value};
use crate::stats::median;

/// Host shape and build identity, attached to every result so a number
/// is never read without knowing where it came from.
pub fn provenance(seed: u64) -> Value {
    obj([
        ("nproc", online_cpus().into()),
        (
            "available_parallelism",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .into(),
        ),
        ("pool_slots", dcp_support::pool::parallelism().into()),
        (
            "DCP_THREADS",
            std::env::var("DCP_THREADS").map_or(Value::Null, Value::from),
        ),
        ("git_rev", git_rev().into()),
        (
            "rustc",
            command_line("rustc", &["-V"])
                .unwrap_or_else(|| "unknown".into())
                .into(),
        ),
        ("seed", seed.into()),
    ])
}

/// CPUs the kernel reports online (what `nproc --all` counts); differs
/// from `available_parallelism` under a cgroup or affinity limit.
fn online_cpus() -> usize {
    std::fs::read_to_string("/proc/cpuinfo")
        .map(|t| t.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(0)
}

/// Short revision of the checkout, or `unknown` outside a git work tree
/// (the driver's checkout is a plain directory).
pub fn git_rev() -> String {
    command_line("git", &["rev-parse", "--short=12", "HEAD"]).unwrap_or_else(|| "unknown".into())
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&out.stdout).trim().to_string();
    (!text.is_empty()).then_some(text)
}

/// This process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|t| {
            t.lines().find_map(|l| {
                let kb = l.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?.trim();
                kb.parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Set a workload up several times and keep the first product.
///
/// Returns the product and the seconds of one set-up, one sample per
/// repetition. Set-up repeats at least three times and until `budget`
/// has been spent. A set-up shorter than a millisecond (building a
/// program takes microseconds) is timed in batches of a few milliseconds
/// and each sample is the batch's mean, so the clock's granularity and a
/// stray interrupt do not decide the median. `drop_extra` disposes of the
/// products that are not kept (a daemon has to be shut down).
pub fn timed_setup<T>(
    budget: Duration,
    mut setup: impl FnMut() -> T,
    mut drop_extra: impl FnMut(T),
) -> (T, Vec<f64>) {
    const MIN_SAMPLES: usize = 3;
    const MAX_SAMPLES: usize = 400;
    const BATCH: Duration = Duration::from_millis(4);
    let started = Instant::now();
    let t0 = Instant::now();
    let kept = setup();
    let first = t0.elapsed();
    let batch = if first < Duration::from_millis(1) {
        (BATCH.as_secs_f64() / first.as_secs_f64().max(1e-9))
            .ceil()
            .clamp(1.0, 100_000.0) as usize
    } else {
        1
    };
    let mut secs = if batch == 1 {
        vec![first.as_secs_f64()]
    } else {
        Vec::new()
    };
    while secs.len() < MIN_SAMPLES || (started.elapsed() < budget && secs.len() < MAX_SAMPLES) {
        let t0 = Instant::now();
        for _ in 0..batch {
            drop_extra(setup());
        }
        secs.push(t0.elapsed().as_secs_f64() / batch as f64);
    }
    (kept, secs)
}

/// Run passes until `seconds` have gone by, and at least `min_passes`.
/// `pass` times what it wants timed (a pass also checks its outputs,
/// which nobody waits for) and returns what the workload keeps of it.
pub fn timed_passes<T>(
    seconds: f64,
    min_passes: usize,
    mut pass: impl FnMut(usize) -> T,
) -> Vec<T> {
    let started = Instant::now();
    let mut out = Vec::new();
    while out.len() < min_passes || started.elapsed().as_secs_f64() < seconds {
        out.push(pass(out.len()));
    }
    out
}

/// Median seconds of `f` over `reps` calls after one untimed call.
pub fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let times: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

/// A scratch directory under `benchmark/out/tmp`, inside the checkout
/// (the benchmark reads and writes nowhere else). Removed and recreated.
pub fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = out_dir()
        .join("tmp")
        .join(format!("{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch directory under benchmark/out");
    dir
}

/// `benchmark/out`, relative to the checkout root the command runs from.
pub fn out_dir() -> std::path::PathBuf {
    std::path::PathBuf::from("benchmark").join("out")
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &std::path::Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .filter_map(Result::ok)
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}
