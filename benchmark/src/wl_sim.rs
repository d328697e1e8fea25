//! `sim_stride` and `sim_numa_dense`: the simulate -> attribute half of
//! the first pipeline, timed around `run_profiled`.
//!
//! * `sim_stride` is Sweep3D `Original` on one Magny-Cours node under
//!   sparse IBS sampling: private caches, TLB, prefetcher and the epoch
//!   scheduler do nearly all the host work; PMU and profiler are almost
//!   idle. On a 2-core host the pool currently *slows it down*.
//! * `sim_numa_dense` is AMG2006 `Original` over four POWER7 nodes with
//!   every remote-DRAM access sampled: remote DRAM and the deferred
//!   shared commit, PMU delivery, attribution, unwind and the heap map at
//!   their largest share. Node-level parallelism means the pool currently
//!   *helps* — the opposite sign, so a pool or epoch change that trades
//!   one for the other shows.
//!
//! Untraced: timed passes of `run_profiled` at the default pool. Every
//! pass must agree on `dcp_bench::run_fingerprint`, and so must a
//! `DCP_THREADS=0` child of this binary.
//!
//! Traced: the ladder — bare run (PMU off, `NullObserver`), PMU only
//! (PMU on, `NullObserver`), profiled — so that host time per sample
//! splits into PMU delivery and profiler; the serial child's time gives
//! `runtime.pool_speedup`; direct `Machine::access` streams and a
//! `par_map` of empty tasks time the layers underneath.

use std::hint::black_box;
use std::process::Command;
use std::time::Instant;

use dcp_bench::{ibs_sampling, rmem_sampling, run_fingerprint};
use dcp_core::prelude::*;
use dcp_core::session::ProfiledRun;
use dcp_machine::{AccessKind, CoreId, DomainId, Machine, MachineConfig, MachineStats};
use dcp_runtime::{run_world, NullObserver, Program, WorldConfig};
use dcp_support::rng::SmallRng;
use dcp_workloads::{amg2006, sweep3d};

use crate::host::{median_secs, timed_passes, timed_setup};
use crate::json::{self, Value};
use crate::metric::{trace_overhead, Metric, Outcome};
use crate::sizes::{AmgSize, Sizes, SweepSize};
use crate::stats::median;
use crate::workload::{Ctx, Workload};

/// A program, its world, and the PMU programming of the profiled run.
pub struct SimCase {
    pub prog: Program,
    /// `sim.pmu` is set: clear it for a bare run.
    pub world: WorldConfig,
}

pub fn sweep_case(s: &SweepSize) -> SimCase {
    let cfg = sweep3d::SweepConfig {
        variant: sweep3d::SweepVariant::Original,
        ranks: s.ranks,
        i_dim: s.i_dim,
        j_dim: s.j_dim,
        k_dim: s.k_dim,
        octants: s.octants,
        iters: s.iters,
    };
    let mut world = sweep3d::world(&cfg);
    world.sim.pmu = Some(ibs_sampling(s.ibs_period));
    SimCase {
        prog: sweep3d::build(&cfg),
        world,
    }
}

pub fn amg_case(s: &AmgSize) -> SimCase {
    let cfg = amg2006::AmgConfig {
        variant: amg2006::AmgVariant::Original,
        ranks: s.ranks,
        threads: s.threads,
        rows: s.rows,
        solve_iters: s.solve_iters,
        setup_allocs: s.setup_allocs,
    };
    let mut world = amg2006::world(&cfg);
    world.sim.pmu = Some(rmem_sampling(s.rmem_threshold));
    SimCase {
        prog: amg2006::build(&cfg),
        world,
    }
}

fn case_for(workload: Workload, sizes: &Sizes) -> SimCase {
    match workload {
        Workload::SimStride => sweep_case(&sizes.stride),
        Workload::SimNumaDense => amg_case(&sizes.numa_dense),
        other => unreachable!("{} is not a simulator workload", other.name()),
    }
}

fn profiled(case: &SimCase) -> ProfiledRun {
    run_profiled(&case.prog, &case.world, ProfilerConfig::default())
}

fn accesses(run: &ProfiledRun) -> u64 {
    run.nodes.iter().map(|n| n.machine_stats.accesses).sum()
}

pub fn run(ctx: &mut Ctx) -> Outcome {
    if ctx.traced() {
        run_traced(ctx)
    } else {
        run_untraced(ctx)
    }
}

fn run_untraced(ctx: &mut Ctx) -> Outcome {
    let mut out = Outcome::default();
    let (workload, sizes) = (ctx.workload, ctx.sizes);
    let (case, setup_secs) = timed_setup(
        std::time::Duration::from_secs_f64(sizes.setup_budget_s),
        || case_for(workload, &sizes),
        drop,
    );

    // Untimed passes: the first runs in a process are not representative
    // (on the reference host the very first is more than twice as fast
    // as every later one under the default pool), and users run more
    // than one.
    for _ in 1..sizes.sim_warmup_passes {
        black_box(profiled(&case).wall);
    }
    let warm = profiled(&case);
    let reference = run_fingerprint(&case.prog, &warm);
    let accesses = accesses(&warm);
    let profile_bytes = warm.profile_bytes;
    let profiled_wall = warm.wall;
    drop(warm);

    let passes = timed_passes(ctx.seconds, sizes.min_sim_passes, |_| {
        // Only `run_profiled` is inside the timed window; the
        // fingerprint re-encodes every profile and is a check, not work
        // the user waits for.
        let t0 = Instant::now();
        let run = profiled(&case);
        let secs = t0.elapsed().as_secs_f64();
        (secs, run_fingerprint(&case.prog, &run))
    });
    for (i, (_, fp)) in passes.iter().enumerate() {
        out.check(*fp == reference, || {
            format!("pass {i}: fingerprint {fp:016x} differs from the warm-up's {reference:016x}")
        });
    }
    let pass_secs: Vec<f64> = passes.iter().map(|(secs, _)| *secs).collect();

    // Time column of the paper's Table 1, in simulated cycles: exact.
    let mut bare = case.world.clone();
    bare.sim.pmu = None;
    let (baseline_wall, _, _) = run_baseline(&case.prog, &bare);
    let overhead_pct = 100.0 * (profiled_wall as f64 - baseline_wall as f64) / baseline_wall as f64;

    let serial = serial_child(workload, sizes.smoke, 1);
    out.check(
        serial.as_ref().is_ok_and(|s| s.fingerprint == reference),
        || match &serial {
            Ok(s) => format!(
                "DCP_THREADS=0 child fingerprint {:016x} differs from {reference:016x}",
                s.fingerprint
            ),
            Err(e) => format!("DCP_THREADS=0 child: {e}"),
        },
    );

    let rates: Vec<f64> = pass_secs.iter().map(|s| accesses as f64 / s).collect();
    let pass_ms: Vec<f64> = pass_secs.iter().map(|s| s * 1e3).collect();
    out.push(Metric::of("setup_s", &setup_secs));
    out.push(Metric::of("work_per_s", &rates));
    out.push(Metric::of("op_ms_p50", &pass_ms));
    out.push(Metric::of("op_ms_tail", &pass_ms));
    out.push(Metric::one("output_bytes", profile_bytes as f64));
    out.push(Metric::of(
        "sim_macc_per_s",
        &rates.iter().map(|r| r / 1e6).collect::<Vec<_>>(),
    ));
    out.push(Metric::one("sim_overhead_pct", overhead_pct));
    out.push(Metric::one("profile_bytes", profile_bytes as f64));
    out.notes.push(format!(
        "{accesses} simulated accesses per pass, fingerprint {reference:016x}, \
         baseline {baseline_wall} / profiled {profiled_wall} cycles, {} pool slot(s)",
        dcp_support::pool::parallelism()
    ));
    out
}

fn run_traced(ctx: &mut Ctx) -> Outcome {
    let mut out = Outcome::default();
    let (workload, sizes) = (ctx.workload, ctx.sizes);
    let case = case_for(workload, &sizes);
    let mut bare_world = case.world.clone();
    bare_world.sim.pmu = None;

    for _ in 1..sizes.sim_warmup_passes {
        black_box(profiled(&case).wall);
    }
    let warm = profiled(&case);
    let reference = run_fingerprint(&case.prog, &warm);
    let accesses = accesses(&warm) as f64;
    let stats = warm.stats.clone();
    let mut machine = MachineStats::default();
    for n in &warm.nodes {
        machine.merge(&n.machine_stats);
    }
    let work: u64 = warm
        .nodes
        .iter()
        .map(|n| n.ops + n.machine_stats.total_latency)
        .sum();
    drop(warm);
    let samples = stats.samples.max(1) as f64;

    // Ladder rounds. Each rung is one span; the rung's host time is the
    // span's duration (it has no children).
    let rec = &mut ctx.rec;
    let mut untraced_secs = Vec::new();
    let rounds = timed_passes(ctx.seconds, 1, |round| {
        let op = round as u64;
        let id = rec.begin("runtime.bare_run", op);
        let bare = run_world(&case.prog, &bare_world, |_| NullObserver).expect("bare run");
        rec.end(id);
        black_box(bare.wall);
        let id = rec.begin("pmu.pmu_only_run", op);
        let pmu = run_world(&case.prog, &case.world, |_| NullObserver).expect("PMU-only run");
        rec.end(id);
        black_box(pmu.wall);
        let id = rec.begin("core.profiled_run", op);
        let run = profiled(&case);
        rec.end(id);
        let fp = run_fingerprint(&case.prog, &run);
        drop(run);
        // The same profiled run with no span around it: what tracing
        // costs end to end on this workload.
        let t0 = Instant::now();
        black_box(profiled(&case).wall);
        untraced_secs.push(t0.elapsed().as_secs_f64());
        fp
    });
    for (i, fp) in rounds.iter().enumerate() {
        out.check(*fp == reference, || {
            format!("ladder round {i}: fingerprint {fp:016x} differs from {reference:016x}")
        });
    }
    let secs_of =
        |name: &str| -> Vec<f64> { rec.self_ns_of(name).iter().map(|ns| ns / 1e9).collect() };
    let (bare, pmu, prof) = (
        secs_of("runtime.bare_run"),
        secs_of("pmu.pmu_only_run"),
        secs_of("core.profiled_run"),
    );
    let per_round = |f: &dyn Fn(usize) -> f64| -> Vec<f64> { (0..bare.len()).map(f).collect() };
    out.push(Metric::of(
        "runtime.bare_ns_per_access",
        &per_round(&|i| bare[i] * 1e9 / accesses),
    ));
    out.push(Metric::of(
        "pmu.host_ns_per_sample",
        &per_round(&|i| (pmu[i] - bare[i]) * 1e9 / samples),
    ));
    out.push(Metric::of(
        "core.profiler_host_ns_per_sample",
        &per_round(&|i| (prof[i] - pmu[i]) * 1e9 / samples),
    ));
    out.push(trace_overhead(&prof, &untraced_secs));

    // The same profiled run with no pool workers, in a child (the pool
    // size is latched once per process).
    let slots = dcp_support::pool::parallelism();
    match serial_child(workload, sizes.smoke, 2) {
        Ok(s) => {
            out.check(s.fingerprint == reference, || {
                format!(
                    "DCP_THREADS=0 child fingerprint {:016x} differs from {reference:016x}",
                    s.fingerprint
                )
            });
            let serial = median(&s.secs);
            out.push(Metric::one(
                "runtime.serial_ns_per_access",
                serial * 1e9 / accesses,
            ));
            out.push(Metric::one("runtime.pool_speedup", serial / median(&prof)));
        }
        Err(e) => out.check(false, || format!("DCP_THREADS=0 child: {e}")),
    }
    out.push(Metric::one("support.pool_slots", slots as f64));
    out.push(Metric::one(
        "support.pool_par_map_ns_per_task",
        par_map_ns_per_task(&sizes),
    ));

    // Exact counts from the profiled run's own reports: identical under
    // any change that alters speed only.
    let acc = machine.accesses.max(1) as f64;
    let fills = machine.prefetch_fills.max(1) as f64;
    out.push(Metric::one(
        "machine.l1_hit_share",
        machine.l1_hits as f64 / acc,
    ));
    out.push(Metric::one(
        "machine.l2_hit_share",
        machine.l2_hits as f64 / acc,
    ));
    out.push(Metric::one(
        "machine.l3_hit_share",
        machine.l3_hits as f64 / acc,
    ));
    out.push(Metric::one(
        "machine.remote_dram_share",
        machine.remote_dram as f64 / acc,
    ));
    out.push(Metric::one(
        "machine.tlb_miss_per_kacc",
        1e3 * machine.tlb_misses as f64 / acc,
    ));
    out.push(Metric::one(
        "machine.prefetch_useful_share",
        machine.prefetch_hidden as f64 / fills,
    ));
    out.push(Metric::one(
        "machine.prefetch_late_share",
        machine.prefetch_late as f64 / fills,
    ));
    out.push(Metric::one(
        "machine.mean_latency_cyc",
        machine.total_latency as f64 / acc,
    ));
    out.push(Metric::one("pmu.samples", stats.samples as f64));
    out.push(Metric::one(
        "core.unwind_frames_per_sample",
        stats.unwind_frames as f64 / samples,
    ));
    out.push(Metric::one(
        "core.allocs_tracked_share",
        stats.allocs_tracked as f64 / stats.allocs_seen.max(1) as f64,
    ));
    out.push(Metric::one(
        "core.overhead_cycles_share",
        stats.overhead_cycles as f64 / (stats.overhead_cycles + work).max(1) as f64,
    ));

    for (name, ns) in machine_streams(ctx.seed, &sizes) {
        out.push(Metric::of(name, &ns));
    }
    out.notes.push(format!(
        "{} ladder round(s) of bare / PMU-only / profiled; {slots} pool slot(s)",
        bare.len()
    ));
    out
}

/// What the `DCP_THREADS=0` child reports.
pub struct Serial {
    pub fingerprint: u64,
    pub secs: Vec<f64>,
}

/// Re-run the workload's profiled pass in a child of this binary with no
/// pool workers, and wait for it.
fn serial_child(workload: Workload, smoke: bool, passes: usize) -> Result<Serial, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.env("DCP_THREADS", "0").args([
        "serial-sim",
        "--workload",
        workload.name(),
        "--passes",
        &passes.to_string(),
    ]);
    if smoke {
        cmd.arg("--smoke");
    }
    let done = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    if !done.status.success() {
        return Err(format!(
            "exit {:?}: {}",
            done.status.code(),
            String::from_utf8_lossy(&done.stderr)
        ));
    }
    let text = String::from_utf8_lossy(&done.stdout);
    let line = text.lines().last().ok_or("no output")?;
    let v = json::parse(line)?;
    let fingerprint = v
        .get("fingerprint")
        .and_then(Value::as_str)
        .and_then(|h| u64::from_str_radix(h, 16).ok())
        .ok_or("no fingerprint in child output")?;
    let secs = v
        .get("secs")
        .and_then(Value::as_arr)
        .map(|a| a.iter().filter_map(Value::as_f64).collect::<Vec<_>>())
        .filter(|s| !s.is_empty())
        .ok_or("no timings in child output")?;
    Ok(Serial { fingerprint, secs })
}

/// The child side of [`serial_child`]: `passes` profiled runs, one JSON
/// line with the fingerprint and each pass's seconds.
pub fn serial_sim_main(workload: Workload, sizes: &Sizes, passes: usize) {
    assert_eq!(
        dcp_support::pool::parallelism(),
        1,
        "serial-sim must run with DCP_THREADS=0"
    );
    let case = case_for(workload, sizes);
    let mut fingerprint = 0;
    let secs: Vec<Value> = (0..passes.max(1))
        .map(|_| {
            let t0 = Instant::now();
            let run = profiled(&case);
            let secs = t0.elapsed().as_secs_f64();
            fingerprint = run_fingerprint(&case.prog, &run);
            secs.into()
        })
        .collect();
    println!(
        "{}",
        json::obj([
            ("fingerprint", format!("{fingerprint:016x}").into()),
            ("secs", Value::Arr(secs)),
        ])
    );
}

/// Host nanoseconds per task of a `par_map` over tasks that do nothing:
/// the pool's own hand-off cost.
fn par_map_ns_per_task(sizes: &Sizes) -> f64 {
    let items: Vec<u64> = (0..sizes.micro_tasks as u64).collect();
    let secs = median_secs(sizes.micro_reps * 4, || {
        black_box(dcp_support::pool::par_map(&items, |x| {
            black_box(*x).wrapping_add(1)
        }));
    });
    secs * 1e9 / items.len() as f64
}

/// Direct `Machine::access` streams: host nanoseconds per access, one
/// sample per repetition. The seed picks the scattered addresses.
fn machine_streams(seed: u64, sizes: &Sizes) -> Vec<(&'static str, Vec<f64>)> {
    let n = sizes.micro_accesses;
    let time = |mut step: Box<dyn FnMut(u64) -> u32>| -> Vec<f64> {
        (0..sizes.micro_reps)
            .map(|_| {
                let t0 = Instant::now();
                let mut sink = 0u64;
                for i in 0..n as u64 {
                    sink = sink.wrapping_add(step(i) as u64);
                }
                black_box(sink);
                t0.elapsed().as_secs_f64() * 1e9 / n as f64
            })
            .collect()
    };

    let l1_hit = {
        let mut m = Machine::new(MachineConfig::magny_cours());
        time(Box::new(move |_| {
            m.access(CoreId(0), 0x1000, AccessKind::Load, DomainId(0), 1, 0)
                .latency
        }))
    };
    let stream = {
        let mut m = Machine::new(MachineConfig::magny_cours());
        let (mut addr, mut now) = (0x10_0000u64, 0u64);
        time(Box::new(move |_| {
            addr += 64;
            let r = m.access(CoreId(0), addr, AccessKind::Load, DomainId(0), 7, now);
            now += r.latency as u64;
            r.latency
        }))
    };
    // The sweep kernel's pattern: 4 KiB between consecutive accesses,
    // more pages than the TLB holds, no prefetch stream to follow.
    let stride_4k = {
        let mut m = Machine::new(MachineConfig::magny_cours());
        let mut now = 0u64;
        time(Box::new(move |i| {
            let addr = 0x40_0000 + (i % 64) * 4096 + (i / 64 % 512) * 8;
            let r = m.access(CoreId(0), addr, AccessKind::Load, DomainId(0), 11, now);
            now += r.latency as u64;
            r.latency
        }))
    };
    // AMG's pattern: a core on the last domain reading lines scattered
    // over pages homed on the first.
    let remote_scatter = {
        let mut m = Machine::new(MachineConfig::power7_node());
        let mut g = SmallRng::seed_from_u64(seed ^ 0x5ca7_7e12);
        let mut now = 0u64;
        time(Box::new(move |_| {
            let addr = 0x10_0000 + g.gen_range(0u64..(64 << 20));
            let r = m.access(CoreId(96), addr, AccessKind::Load, DomainId(0), 9, now);
            now += r.latency as u64;
            r.latency
        }))
    };
    // Two cores on different domains storing to the same few lines: the
    // coherence (version table) path.
    let store_shared = {
        let mut m = Machine::new(MachineConfig::magny_cours());
        let mut now = 0u64;
        time(Box::new(move |i| {
            let core = if i % 2 == 0 { CoreId(0) } else { CoreId(7) };
            let addr = 0x20_0000 + (i / 2 % 16) * 64;
            let r = m.access(core, addr, AccessKind::Store, DomainId(1), 3, now);
            now += r.latency as u64;
            r.latency
        }))
    };
    vec![
        ("machine.access_ns.l1_hit", l1_hit),
        ("machine.access_ns.stream", stream),
        ("machine.access_ns.stride_4k", stride_4k),
        ("machine.access_ns.remote_scatter", remote_scatter),
        ("machine.access_ns.store_shared", store_shared),
    ]
}
