//! Table 1 — measurement configuration and overhead of benchmarks.
//!
//! Paper row format: code | cores | monitored events | execution time |
//! execution time with profiling (+%). Paper overheads: AMG2006 +9.6%,
//! Sweep3D +2.3%, LULESH +12%, Streamcluster +8.0%, NW +3.9%; profile
//! sizes 8–33 MB.
//!
//! We run each workload bare and profiled on the simulator and report the
//! same columns (times in simulated cycles; the shape target is the
//! low-single-digit to ~12% overhead band and compact profile sizes).
//! On top of the paper's columns this binary tracks the codec trajectory:
//! per-workload v1-vs-v2 profile bytes and the wall time of the
//! post-mortem merge, both streamed (out-of-core over encoded profiles)
//! and in-memory.

use std::time::Instant;

use dcp_bench::{ibs_sampling, rmem_sampling, speedup_pct};
use dcp_cct::{merge_encoded, merge_reduction_tree};
use dcp_core::session::Overhead;
use dcp_core::METRIC_WIDTH;
use dcp_machine::PmuConfig;
use dcp_runtime::{Program, WorldConfig};
use dcp_support::bytes::Bytes;
use dcp_workloads as wl;

struct Row {
    code: &'static str,
    config: String,
    events: &'static str,
    overhead: Overhead,
    /// Streamed (out-of-core) merge of all encoded per-thread profiles.
    merge_streamed_ms: f64,
    /// In-memory reduction merge of the same profiles, decoded up front.
    merge_in_mem_ms: f64,
}

fn measure(
    code: &'static str,
    config: String,
    events: &'static str,
    prog: &Program,
    world: &WorldConfig,
    pmu: PmuConfig,
) -> Row {
    let overhead = dcp_bench::profile_with(prog, world, pmu);

    // Merge wall-time: flatten every node's per-class encoded profiles
    // and reduce each class, exactly what the post-mortem analyzer does.
    let encoded = overhead.run.encode_measurements(prog);
    let mut per_class: Vec<Vec<Bytes>> = Vec::new();
    for m in &encoded {
        per_class.resize(m.profiles.len(), Vec::new());
        for (i, blobs) in m.profiles.iter().enumerate() {
            per_class[i].extend(blobs.iter().cloned());
        }
    }

    let t0 = Instant::now();
    for blobs in per_class.iter().cloned() {
        merge_encoded(blobs, METRIC_WIDTH).expect("freshly encoded profiles are valid");
    }
    let merge_streamed_ms = t0.elapsed().as_secs_f64() * 1e3;

    // In-memory comparison: decode everything first (unmeasured), then
    // time only the merge.
    let decoded: Vec<Vec<dcp_cct::Cct>> = per_class
        .iter()
        .map(|blobs| {
            blobs.iter().map(|b| dcp_cct::decode(b.clone()).expect("valid")).collect()
        })
        .collect();
    let t0 = Instant::now();
    for trees in decoded {
        merge_reduction_tree(trees, METRIC_WIDTH);
    }
    let merge_in_mem_ms = t0.elapsed().as_secs_f64() * 1e3;

    Row { code, config, events, overhead, merge_streamed_ms, merge_in_mem_ms }
}

/// The Table-1 workload set: (code, config, events, program, world, pmu).
fn workloads() -> Vec<(&'static str, String, &'static str, Program, WorldConfig, PmuConfig)> {
    let mut set = Vec::new();
    {
        let cfg = wl::amg2006::AmgConfig::paper(wl::amg2006::AmgVariant::Original);
        set.push((
            "AMG2006",
            format!("{} MPI x {} threads", cfg.ranks, cfg.threads),
            "PM_MRK_DATA_FROM_RMEM",
            wl::amg2006::build(&cfg),
            wl::amg2006::world(&cfg),
            rmem_sampling(16),
        ));
    }
    {
        let cfg = wl::sweep3d::SweepConfig::paper(wl::sweep3d::SweepVariant::Original);
        set.push((
            "Sweep3D",
            format!("{} MPI ranks, no threads", cfg.ranks),
            "AMD IBS",
            wl::sweep3d::build(&cfg),
            wl::sweep3d::world(&cfg),
            ibs_sampling(16384),
        ));
    }
    {
        let cfg = wl::lulesh::LuleshConfig::paper(wl::lulesh::LuleshVariant::ORIGINAL);
        set.push((
            "LULESH",
            format!("{} threads", cfg.threads),
            "AMD IBS",
            wl::lulesh::build(&cfg),
            wl::lulesh::world(&cfg),
            ibs_sampling(64),
        ));
    }
    {
        let cfg = wl::streamcluster::ScConfig::paper(wl::streamcluster::ScVariant::Original);
        set.push((
            "Streamcluster",
            format!("{} threads", cfg.threads),
            "PM_MRK_DATA_FROM_RMEM",
            wl::streamcluster::build(&cfg),
            wl::streamcluster::world(&cfg),
            rmem_sampling(2),
        ));
    }
    {
        let cfg = wl::nw::NwConfig::paper(wl::nw::NwVariant::Original);
        set.push((
            "NW",
            format!("{} threads", cfg.threads),
            "PM_MRK_DATA_FROM_RMEM",
            wl::nw::build(&cfg),
            wl::nw::world(&cfg),
            rmem_sampling(6),
        ));
    }
    set
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let set = workloads();

    if args.iter().any(|a| a == "--probe-serial") {
        // Child of a parallel parent: time one profiled run per workload
        // fully sequentially (the pool size is per-process, so this is
        // the only way to get a serial number next to a parallel one).
        use dcp_core::prelude::*;
        let t0 = Instant::now();
        for (_, _, _, prog, world, pmu) in &set {
            let mut w = world.clone();
            w.sim.pmu = Some(*pmu);
            let _ = run_profiled(prog, &w, ProfilerConfig::default());
        }
        println!("SERIAL_JSON {{\"host_secs\": {:.4}}}", t0.elapsed().as_secs_f64());
        return;
    }

    let mut rows = Vec::new();
    for (code, config, events, prog, world, pmu) in &set {
        rows.push(measure(code, config.clone(), events, prog, world, *pmu));
    }

    println!("TABLE 1 — measurement configuration and overhead (simulated cycles)");
    println!(
        "{:<14} {:<26} {:<22} {:>14} {:>14} {:>8} {:>12} {:>10}",
        "code", "cores", "monitored events", "exec", "exec+prof", "ovh%", "profile B", "samples"
    );
    let paper = [9.6, 2.3, 12.0, 8.0, 3.9];
    for (row, paper_ovh) in rows.iter().zip(paper) {
        let o = &row.overhead;
        println!(
            "{:<14} {:<26} {:<22} {:>14} {:>14} {:>7.1}% {:>12} {:>10}   (paper +{paper_ovh}%)",
            row.code,
            row.config,
            row.events,
            o.baseline_wall,
            o.profiled_wall,
            o.overhead_pct,
            o.profile_bytes,
            o.run.stats.samples,
        );
        let neg = -speedup_pct(o.baseline_wall, o.profiled_wall);
        debug_assert!((neg - o.overhead_pct).abs() < 1e-6);
    }
    println!();
    println!("simulator throughput and profiler share (see DESIGN.md, \"Performance of the simulator itself\")");
    println!(
        "{:<14} {:>14} {:>10} {:>12} {:>10}",
        "code", "sim accesses", "host s", "Macc/s", "prof shr"
    );
    let mut total_acc = 0u64;
    let mut total_secs = 0.0f64;
    for row in &rows {
        let r = &row.overhead.run;
        let accesses: u64 = r.nodes.iter().map(|n| n.machine_stats.accesses).sum();
        // Profiler cycles as a share of all cycles the monitored threads
        // executed (retired ops + memory latency + the profiler itself).
        let work: u64 = r.nodes.iter().map(|n| n.ops + n.machine_stats.total_latency).sum();
        let ovh = r.stats.overhead_cycles;
        let share = ovh as f64 / (ovh + work).max(1) as f64;
        total_acc += accesses;
        total_secs += row.overhead.profiled_host_secs;
        println!(
            "{:<14} {:>14} {:>10.3} {:>12.3} {:>9.1}%",
            row.code,
            accesses,
            row.overhead.profiled_host_secs,
            accesses as f64 / row.overhead.profiled_host_secs / 1e6,
            100.0 * share,
        );
    }
    println!(
        "aggregate simulated-accesses/sec: {:.3} Macc/s",
        total_acc as f64 / total_secs / 1e6
    );

    // Host parallelism of the epoch-sharded scheduler: with one pool
    // slot the profiled runs above already were serial; otherwise a
    // DCP_THREADS=0 subprocess re-times one profiled run per workload.
    let slots = dcp_support::pool::parallelism();
    let serial_secs = if slots <= 1 {
        Some(total_secs)
    } else if args.iter().any(|a| a == "--no-serial-probe") {
        None
    } else {
        let exe = std::env::current_exe().expect("own path");
        let out = std::process::Command::new(exe)
            .env("DCP_THREADS", "0")
            .arg("--probe-serial")
            .output()
            .expect("spawn serial probe");
        assert!(out.status.success(), "serial probe subprocess failed");
        let text = String::from_utf8_lossy(&out.stdout);
        text.lines().find(|l| l.starts_with("SERIAL_JSON ")).and_then(|line| {
            let key = "\"host_secs\": ";
            let at = line.find(key)? + key.len();
            let rest = &line[at..];
            let end =
                rest.find(|c: char| !(c.is_ascii_digit() || c == '.')).unwrap_or(rest.len());
            rest[..end].parse().ok()
        })
    };
    let efficiency = serial_secs.map(|s| s / (total_secs * slots as f64));
    match (serial_secs, efficiency) {
        (Some(s), Some(e)) => println!(
            "host parallelism: {slots} slot(s); serial {s:.3} s vs parallel {total_secs:.3} s \
             = {:.2}x speedup, {:.0}% efficiency",
            s / total_secs,
            100.0 * e
        ),
        _ => println!("host parallelism: {slots} slot(s); serial probe skipped"),
    }

    println!();
    println!(
        "space check: compact profiles vs MemProf-style traces: {} B vs {} B ({}x smaller)",
        rows.iter().map(|r| r.overhead.run.profile_bytes).sum::<usize>(),
        rows.iter().map(|r| r.overhead.run.trace_bytes).sum::<usize>(),
        rows.iter().map(|r| r.overhead.run.trace_bytes).sum::<usize>().max(1)
            / rows.iter().map(|r| r.overhead.run.profile_bytes).sum::<usize>().max(1)
    );

    println!();
    println!("codec: wire-format v1 vs v2 and post-mortem merge wall-time");
    println!(
        "{:<14} {:>12} {:>12} {:>8} {:>14} {:>14}",
        "code", "v1 B", "v2 B", "saved", "merge(str) ms", "merge(mem) ms"
    );
    for row in &rows {
        let r = &row.overhead.run;
        let saved = 100.0 * (1.0 - r.profile_bytes as f64 / r.profile_bytes_v1.max(1) as f64);
        println!(
            "{:<14} {:>12} {:>12} {:>7.1}% {:>14.2} {:>14.2}",
            row.code,
            r.profile_bytes_v1,
            r.profile_bytes,
            saved,
            row.merge_streamed_ms,
            row.merge_in_mem_ms,
        );
    }
    let v1_total: usize = rows.iter().map(|r| r.overhead.run.profile_bytes_v1).sum();
    let v2_total: usize = rows.iter().map(|r| r.overhead.run.profile_bytes).sum();
    println!(
        "total: v1 {} B -> v2 {} B ({:.1}% saved)",
        v1_total,
        v2_total,
        100.0 * (1.0 - v2_total as f64 / v1_total.max(1) as f64)
    );

    println!();
    println!("cluster fabric — per-link utilization and queueing (dcp-net, 32 ranks over 8 nodes)");
    println!(
        "{:<18} {:>10} {:>12} {:>10} {:>9}",
        "workload", "exchanges", "net wait", "wall", "comm shr"
    );
    let mut fabric_rows = Vec::new();
    for (name, pattern) in [
        ("cluster_halo", wl::cluster::ClusterPattern::Halo),
        ("cluster_hypercube", wl::cluster::ClusterPattern::Hypercube),
    ] {
        let cfg = wl::cluster::ClusterConfig::scaled(pattern, 32);
        let prog = wl::cluster::build(&cfg);
        let mut w = wl::cluster::world(&cfg);
        w.sim.pmu = Some(ibs_sampling(128));
        let run = {
            use dcp_core::prelude::*;
            run_profiled(&prog, &w, ProfilerConfig::default())
        };
        let exchanges: u64 = run.nodes.iter().map(|n| n.exchanges).sum();
        let net_wait: u64 = run.nodes.iter().map(|n| n.net_wait).sum();
        // net_wait accumulates per rank main, so the communication share
        // is taken against total rank-time, not node walls.
        let rank_time = run.wall * u64::from(cfg.ranks);
        println!(
            "{name:<18} {exchanges:>10} {net_wait:>12} {:>10} {:>8.1}%",
            run.wall,
            100.0 * net_wait as f64 / rank_time.max(1) as f64,
        );
        fabric_rows.push((name, run));
    }
    println!(
        "{:<18} {:<18} {:>8} {:>7} {:>10} {:>10} {:>7}",
        "workload", "hottest links", "msgs", "util%", "mean qdly", "max qdly", "stalls"
    );
    for (name, run) in &fabric_rows {
        let net = run.net.as_ref().expect("cluster worlds have a fabric");
        for (label, s) in net.hottest_links(3) {
            let util = 100.0 * s.busy as f64 / net.horizon.max(1) as f64;
            let mean_q = s.queue_delay_sum as f64 / s.msgs.max(1) as f64;
            println!(
                "{name:<18} {label:<18} {:>8} {:>6.1}% {:>10.1} {:>10} {:>7}",
                s.msgs, util, mean_q, s.queue_delay_max, s.stalls
            );
        }
    }
}
