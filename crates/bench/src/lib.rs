//! # dcp-bench — reproduction harness
//!
//! One binary per table/figure of the paper (see `src/bin/`). The
//! binaries print the regenerated rows/series next to the paper's
//! reported values; EXPERIMENTS.md records both. Performance is measured
//! by the separate `benchmark/` package, which reuses the helpers here.

use dcp_core::prelude::*;
use dcp_machine::{Cycles, MarkedEvent, PmuConfig};
use dcp_runtime::{Program, WorldConfig};

/// Default marked-event sampling used by the POWER7-style studies.
pub fn rmem_sampling(threshold: u64) -> PmuConfig {
    PmuConfig::Marked { event: MarkedEvent::DataFromRmem, threshold, skid: 2 }
}

/// Default IBS sampling used by the AMD-style studies.
pub fn ibs_sampling(period: u64) -> PmuConfig {
    PmuConfig::Ibs { period, skid: 2 }
}

/// Run baseline + profiled and return the overhead measurement.
pub fn profile_with(
    program: &Program,
    world: &WorldConfig,
    pmu: PmuConfig,
) -> dcp_core::session::Overhead {
    let mut w = world.clone();
    w.sim.pmu = Some(pmu);
    measure_overhead(program, &w, ProfilerConfig::default())
}

/// Hash everything a perf change must not alter about a profiled run:
/// per-node machine stats, node wall clocks, DRAM histograms, op counts,
/// and every encoded v2 profile blob. Shared by `fingerprint` (the
/// `DCP_THREADS` invariance harness behind `tests/thread_invariance.rs`)
/// and the `benchmark/` package's output checks.
pub fn run_fingerprint(prog: &Program, run: &dcp_core::session::ProfiledRun) -> u64 {
    use std::hash::Hasher;
    let mut h = dcp_support::FxHasher::default();
    h.write_u64(run.wall);
    for n in &run.nodes {
        let s = &n.machine_stats;
        for v in [
            s.accesses,
            s.loads,
            s.stores,
            s.total_latency,
            s.l1_hits,
            s.l2_hits,
            s.l3_hits,
            s.remote_l3_hits,
            s.local_dram,
            s.remote_dram,
            s.tlb_misses,
            s.prefetch_fills,
            s.prefetch_hidden,
            s.prefetch_late,
            n.wall,
            n.ops,
            n.net_wait,
            n.exchanges,
        ] {
            h.write_u64(v);
        }
        for &d in &n.dram_histogram {
            h.write_u64(d);
        }
    }
    if let Some(net) = &run.net {
        h.write_u64(net.flows);
        h.write_u64(net.bytes);
        h.write_u64(net.retransmits);
        h.write_u64(net.horizon);
        for (label, s) in &net.links {
            h.write(label.as_bytes());
            for v in [
                s.bytes,
                s.msgs,
                s.busy,
                s.queue_delay_sum,
                s.queue_delay_max,
                s.stalls,
                s.drops,
            ] {
                h.write_u64(v);
            }
        }
    }
    for m in run.encode_measurements(prog) {
        for blobs in &m.profiles {
            for b in blobs {
                h.write(b.as_ref());
            }
        }
    }
    h.finish()
}

/// Simulated cycles rendered as seconds at a nominal 3 GHz clock — the
/// unit the paper's tables use.
pub fn secs(cycles: Cycles) -> f64 {
    cycles as f64 / 3.0e9
}

/// Percent-difference helper: how much faster `new` is than `old`.
pub fn speedup_pct(old: Cycles, new: Cycles) -> f64 {
    100.0 * (old as f64 - new as f64) / old as f64
}

/// Render one paper-vs-measured comparison line.
pub fn compare_line(label: &str, paper: &str, measured: String) -> String {
    format!("{label:<46} paper: {paper:<20} measured: {measured}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speedup_pct_basics() {
        assert!((speedup_pct(100, 85) - 15.0).abs() < 1e-9);
        assert!((speedup_pct(200, 200)).abs() < 1e-9);
    }

    #[test]
    fn secs_scaling() {
        assert!((secs(3_000_000_000) - 1.0).abs() < 1e-12);
    }
}
