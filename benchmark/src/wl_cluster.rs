//! `cluster_hypercube`: rank -> fabric -> rank, the second pipeline.
//!
//! 256 ranks, four to a node, on the 64-node fat-tree, each iteration a
//! relaxation pass and `log2(ranks)` butterfly exchange stages;
//! `run_world` with `NullObserver`. dcp-net's calendar and ports and the
//! world loop's exchange matching and barrier tree dominate; the machine
//! model is nearly idle (tiny nodes, 256-element fields).
//!
//! Output check: every pass repeats the warm-up's fingerprint (wall,
//! per-node stats) and `NetStats` exactly.
//!
//! Traced: the harness computes the flow schedule the world loop must
//! have produced (two barriers of gather + broadcast control flows, two
//! flows per cross-node pair per stage), asserts its flow count equals
//! `NetStats::flows`, and replays it straight into `Network::inject` /
//! `Network::run`: the fabric's own host cost, which subtracted from the
//! world's gives the world loop's.

use std::hash::Hasher;
use std::hint::black_box;
use std::time::{Duration, Instant};

use dcp_net::{Calendar, Flow, NetStats, Network};
use dcp_runtime::{run_world, NullObserver, Program, WorldConfig, WorldReport};
use dcp_support::rng::SmallRng;
use dcp_support::FxHasher;
use dcp_workloads::cluster::{self, ClusterConfig, ClusterPattern};

use crate::host::{timed_passes, timed_setup};
use crate::metric::{trace_overhead, Metric, Outcome};
use crate::sizes::Sizes;
use crate::stats::median;
use crate::workload::Ctx;

/// Payload of a barrier control message (what `par.rs` sends).
const BARRIER_BYTES: u64 = 64;

fn config(sizes: &Sizes) -> ClusterConfig {
    ClusterConfig {
        pattern: ClusterPattern::Hypercube,
        ranks: sizes.cluster_ranks,
        ranks_per_node: sizes.cluster_ranks_per_node,
        elems: sizes.cluster_elems,
        iters: sizes.cluster_iters,
        bytes: sizes.cluster_bytes,
    }
}

fn world_run(prog: &Program, world: &WorldConfig) -> WorldReport<NullObserver> {
    run_world(prog, world, |_| NullObserver)
        .expect("the hypercube program has no communication bug")
}

/// Everything a speed-only change must leave alone.
fn fingerprint(r: &WorldReport<NullObserver>) -> u64 {
    let mut h = FxHasher::default();
    h.write_u64(r.wall);
    for n in &r.nodes {
        let s = &n.machine_stats;
        for v in [
            n.wall,
            n.ops,
            n.net_wait,
            n.exchanges,
            s.accesses,
            s.total_latency,
            s.l1_hits,
        ] {
            h.write_u64(v);
        }
    }
    h.finish()
}

fn net_of(r: &WorldReport<NullObserver>) -> &NetStats {
    r.net
        .as_ref()
        .expect("a multi-node world reports fabric counters")
}

fn same_net(a: &NetStats, b: &NetStats) -> bool {
    (a.flows, a.bytes, a.retransmits, a.horizon) == (b.flows, b.bytes, b.retransmits, b.horizon)
        && a.links == b.links
}

pub fn run(ctx: &mut Ctx) -> Outcome {
    let mut out = Outcome::default();
    let sizes = ctx.sizes;
    let cfg = config(&sizes);
    let ((prog, world), setup_secs) = timed_setup(
        Duration::from_secs_f64(sizes.setup_budget_s),
        || (cluster::build(&cfg), cluster::world(&cfg)),
        drop,
    );

    let reference = world_run(&prog, &world);
    let ref_fp = fingerprint(&reference);
    let exchanges: u64 = reference.nodes.iter().map(|n| n.exchanges).sum();

    let traced = ctx.traced();
    let (seconds, min_passes) = ctx.pass_budget();
    let rec = &mut ctx.rec;
    let mut untraced_secs = Vec::new();
    let passes = timed_passes(seconds, min_passes, |i| {
        let id = rec.begin("par.run_world", i as u64);
        let t0 = Instant::now();
        let r = world_run(&prog, &world);
        let secs = t0.elapsed().as_secs_f64();
        rec.end(id);
        if traced {
            let t0 = Instant::now();
            black_box(world_run(&prog, &world).wall);
            untraced_secs.push(t0.elapsed().as_secs_f64());
        }
        (
            secs,
            fingerprint(&r) == ref_fp && same_net(net_of(&r), net_of(&reference)),
        )
    });
    for (i, (_, same)) in passes.iter().enumerate() {
        out.check(*same, || {
            format!("pass {i}: fingerprint or NetStats differ from the warm-up run")
        });
    }
    let pass_secs: Vec<f64> = passes.iter().map(|(s, _)| *s).collect();
    let net = net_of(&reference);

    if !traced {
        let rates: Vec<f64> = pass_secs.iter().map(|s| exchanges as f64 / s).collect();
        let pass_ms: Vec<f64> = pass_secs.iter().map(|s| s * 1e3).collect();
        out.push(Metric::of("setup_s", &setup_secs));
        out.push(Metric::of("work_per_s", &rates));
        out.push(Metric::of("op_ms_p50", &pass_ms));
        out.push(Metric::of("op_ms_tail", &pass_ms));
        out.push(Metric::one("output_bytes", net.bytes as f64));
        out.push(Metric::of("cluster_exchanges_per_s", &rates));
    } else {
        let schedule = hypercube_schedule(&cfg);
        let scheduled: u64 = schedule.iter().map(|s| s.len() as u64).sum();
        out.check(scheduled == net.flows, || {
            format!(
                "the harness schedules {scheduled} flows, the world ran {}",
                net.flows
            )
        });
        let nodes = cfg.nodes();
        let (mut inject_ns, mut run_ns, mut replay_secs) = (Vec::new(), Vec::new(), Vec::new());
        let mut replay_stats = None;
        for rep in 0..sizes.micro_reps as u64 {
            let before = rec.spans().len();
            let t0 = Instant::now();
            let stats = replay(&schedule, nodes, rec, rep);
            replay_secs.push(t0.elapsed().as_secs_f64());
            let own = rec.self_times_ns();
            let sum = |name: &str| -> f64 {
                rec.spans()[before..]
                    .iter()
                    .zip(&own[before..])
                    .filter(|(s, _)| s.name == name)
                    .map(|(_, t)| *t as f64)
                    .sum()
            };
            inject_ns.push(sum("net.inject") / scheduled as f64);
            run_ns.push(sum("net.run") / scheduled as f64);
            replay_stats = Some(stats);
        }
        let replayed = replay_stats.expect("at least one replay");
        out.check(
            replayed.flows == net.flows && replayed.bytes == net.bytes,
            || {
                format!(
                    "replay moved {} flows / {} bytes, the world {} / {}",
                    replayed.flows, replayed.bytes, net.flows, net.bytes
                )
            },
        );
        out.push(Metric::of("net.inject_ns_per_flow", &inject_ns));
        out.push(Metric::of("net.run_ns_per_flow", &run_ns));
        out.push(Metric::of(
            "net.calendar_ns_per_event",
            &calendar_ns_per_event(ctx.seed, &sizes),
        ));

        let msgs: u64 = net.links.iter().map(|(_, l)| l.msgs).sum();
        let stalls: u64 = net.links.iter().map(|(_, l)| l.stalls).sum();
        out.push(Metric::one("net.flows", net.flows as f64));
        out.push(Metric::one(
            "net.stall_share",
            stalls as f64 / msgs.max(1) as f64,
        ));
        out.push(Metric::one("net.retransmits", net.retransmits as f64));
        out.push(Metric::one(
            "net.max_queue_delay_cyc",
            net.max_queue_delay() as f64,
        ));
        out.push(Metric::one("net.mean_utilization", net.mean_utilization()));

        let world_secs = median(&pass_secs);
        out.push(Metric::one(
            "par.world_ns_per_exchange",
            (world_secs - median(&replay_secs)) * 1e9 / exchanges as f64,
        ));
        // Simulated: communication wait against total rank time
        // (`net_wait` accumulates per rank main).
        let net_wait: u64 = reference.nodes.iter().map(|n| n.net_wait).sum();
        let rank_time = reference.wall * u64::from(cfg.ranks);
        out.push(Metric::one(
            "par.net_wait_share",
            net_wait as f64 / rank_time.max(1) as f64,
        ));
        out.push(trace_overhead(&pass_secs, &untraced_secs));
    }
    out.notes.push(format!(
        "{} ranks on {} nodes, {exchanges} exchanges and {} fabric flows per pass, wall {} cycles",
        cfg.ranks,
        cfg.nodes(),
        net.flows,
        reference.wall
    ));
    out
}

/// The batches of flows the world loop hands the fabric, in order: each
/// inner vector is injected together and followed by one `run`.
///
/// The program is: barrier; `iters` x (stage k = 1, 2, 4, ... of pairwise
/// exchanges with `rank ^ k`); barrier. A barrier is a gather of one
/// control flow per non-root node, then a broadcast back. A stage whose
/// partners share a node never reaches the fabric.
fn hypercube_schedule(cfg: &ClusterConfig) -> Vec<Vec<Flow>> {
    let nodes = cfg.nodes();
    let node_of = |rank: u32| rank / cfg.ranks_per_node;
    let barrier = || -> [Vec<Flow>; 2] {
        [
            (1..nodes)
                .map(|n| Flow {
                    src: n,
                    dst: 0,
                    bytes: BARRIER_BYTES,
                })
                .collect(),
            (1..nodes)
                .map(|n| Flow {
                    src: 0,
                    dst: n,
                    bytes: BARRIER_BYTES,
                })
                .collect(),
        ]
    };
    let mut batches: Vec<Vec<Flow>> = Vec::new();
    batches.extend(barrier());
    for _ in 0..cfg.iters {
        let mut k = 1;
        while k < cfg.ranks {
            let mut stage = Vec::new();
            for rank in (0..cfg.ranks).filter(|r| r & k == 0) {
                let (a, b) = (node_of(rank), node_of(rank ^ k));
                if a != b {
                    let bytes = cfg.bytes.max(1) as u64;
                    stage.push(Flow {
                        src: a,
                        dst: b,
                        bytes,
                    });
                    stage.push(Flow {
                        src: b,
                        dst: a,
                        bytes,
                    });
                }
            }
            if !stage.is_empty() {
                batches.push(stage);
            }
            k *= 2;
        }
    }
    batches.extend(barrier());
    batches
}

/// Drive the schedule through a fresh fabric. Each batch is injected at
/// the time the previous one finished delivering (plus a fixed compute
/// gap), which is the shape the symmetric ranks produce.
fn replay(
    schedule: &[Vec<Flow>],
    nodes: u32,
    rec: &mut crate::trace::Recorder,
    op: u64,
) -> NetStats {
    const COMPUTE_GAP: u64 = 20_000;
    let mut fabric = Network::new(cluster::net_config(nodes), nodes);
    let mut now = 0u64;
    for batch in schedule {
        let id = rec.begin("net.inject", op);
        for flow in batch {
            fabric.inject(now, *flow);
        }
        rec.end(id);
        let id = rec.begin("net.run", op);
        let done = fabric.run();
        rec.end(id);
        now = done.iter().map(|(_, t)| *t).max().unwrap_or(now) + COMPUTE_GAP;
    }
    fabric.stats()
}

/// Push a calendar full of seeded event times, then drain it: host
/// nanoseconds per event (one push and one pop).
fn calendar_ns_per_event(seed: u64, sizes: &Sizes) -> Vec<f64> {
    let n = sizes.micro_events;
    (0..sizes.micro_reps)
        .map(|rep| {
            let mut g = SmallRng::seed_from_u64(seed ^ (0xca1e + rep as u64));
            let keys: Vec<(u64, u32, u64)> = (0..n as u64)
                .map(|seq| (g.gen_range(0u64..1_000_000), g.gen_range(0u32..64), seq))
                .collect();
            let t0 = Instant::now();
            let mut cal: Calendar<u32> = Calendar::new();
            for (i, key) in keys.iter().enumerate() {
                cal.push(*key, i as u32);
            }
            let mut sink = 0u64;
            while let Some((key, ev)) = cal.pop() {
                sink = sink.wrapping_add(key.0 ^ ev as u64);
            }
            black_box(sink);
            t0.elapsed().as_secs_f64() * 1e9 / n as f64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_counts_cross_node_pairs_and_barriers() {
        // 8 ranks, 2 per node, 4 nodes: stage 1 stays on the node; stages
        // 2 and 4 cross with 4 pairs each, 2 flows a pair; 2 iterations.
        let cfg = ClusterConfig {
            pattern: ClusterPattern::Hypercube,
            ranks: 8,
            ranks_per_node: 2,
            elems: 64,
            iters: 2,
            bytes: 4096,
        };
        let s = hypercube_schedule(&cfg);
        let flows: usize = s.iter().map(Vec::len).sum();
        assert_eq!(flows, 2 * (2 * 4 * 2) + 2 * 2 * 3);
        assert_eq!(
            s.len(),
            2 * 2 + 4,
            "two barriers of two batches, two stages per iteration"
        );
    }
}
