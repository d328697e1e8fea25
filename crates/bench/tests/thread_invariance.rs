//! Differential test: simulation results are invariant under host
//! parallelism.
//!
//! The epoch-sharded scheduler's core promise is that `DCP_THREADS` is a
//! pure performance knob — machine stats, wall cycles, sample streams,
//! and encoded v2 profile bytes must be bit-for-bit identical whether the
//! simulation runs sequentially or spread over many pool workers. The
//! pool size is latched once per process (`OnceLock`), so the sweep runs
//! the `fingerprint` binary as a subprocess per setting and compares
//! whole stdouts: one digest line per reduced Table-1 workload, covering
//! accesses, wall, sample count, profile bytes, and the combined
//! stats-and-profile fingerprint.

use std::process::Command;

/// Run the fingerprint binary for `workloads` at a given pool size.
fn digest(threads: &str, workloads: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_fingerprint"))
        .args(workloads)
        .env("DCP_THREADS", threads)
        .output()
        .expect("spawn fingerprint binary");
    assert!(
        out.status.success(),
        "fingerprint (DCP_THREADS={threads}) failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("digest output is UTF-8");
    assert_eq!(
        stdout.lines().count(),
        workloads.len(),
        "one FP line per workload expected:\n{stdout}"
    );
    stdout
}

/// Compare `workloads` at DCP_THREADS=0 (fully sequential) with three
/// runs each at 2 (one worker per core on a 2-core host) and 8
/// (oversubscribed on small hosts — the harsher schedule-interleaving
/// case). A pool race shows up on some runs only, as a crash or a
/// differing digest, hence the repeats.
fn assert_thread_invariant(workloads: &[&str], what: &str) {
    let serial = digest("0", workloads);
    for threads in ["2", "8"] {
        for run in 1..=3 {
            let parallel = digest(threads, workloads);
            assert_eq!(
                serial, parallel,
                "DCP_THREADS={threads} (run {run}) must not change {what}"
            );
        }
    }
}

/// Every Table-1 workload (reduced size) produces identical machine
/// stats, wall cycles, and v2 profile bytes at every pool size.
#[test]
fn all_workloads_identical_at_0_2_and_8_threads() {
    assert_thread_invariant(
        &["amg", "sweep3d", "lulesh", "streamcluster", "nw"],
        "any observable simulation output",
    );
}

/// The multi-node cluster workloads route rank traffic through the
/// `dcp-net` fabric; the network calendar's total event order (and hence
/// the fingerprint, which now covers per-link counters and exchange
/// waits) must also be invariant under host parallelism.
#[test]
fn cluster_workloads_identical_at_0_2_and_8_threads() {
    assert_thread_invariant(&["cluster_halo", "cluster_hypercube"], "multi-node simulation output");
}

/// Intermediate pool sizes agree too: at DCP_THREADS=1 the pool has no
/// workers and every call runs inline on the caller, while at 2 one
/// worker claims indices alongside the caller.
#[test]
fn intermediate_thread_counts_agree_on_amg() {
    let one = digest("1", &["amg"]);
    let two = digest("2", &["amg"]);
    assert_eq!(one, two, "DCP_THREADS=1 vs 2 diverged");
}
