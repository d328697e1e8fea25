//! The world runner: MPI ranks distributed over simulated nodes.
//!
//! Each node is an independent [`NodeSim`] (its own machine); nodes
//! couple only through MPI — barriers and paired exchanges. The world
//! loop runs every node to quiescence (all threads done or MPI-blocked)
//! — in parallel on the in-tree fork-join pool, which is sound because
//! nodes share nothing — then resolves the communication:
//!
//! * **Exchanges first.** Reciprocal `MpiExchange` pairs become network
//!   flows through the [`dcp_net`] switch fabric (when a [`NetConfig`]
//!   is attached and the partners sit on different nodes) or a
//!   shared-memory copy at `cost.mpi_node_bw` (same node, or no
//!   network). A rank resumes when its software post *and* the inbound
//!   payload have both completed. Pendings with no reciprocal partner
//!   anywhere are a typed [`SimError::ExchangeDeadlock`].
//! * **Barriers last.** A barrier can only complete once every rank has
//!   arrived; with a network attached and several nodes, the release is
//!   a gather-to-root + broadcast of 64-byte control messages over the
//!   same fabric, so barrier cost feels fabric congestion. A single
//!   node (or no network) degenerates to the flat global-max release —
//!   bit-identical to the pre-network runtime.
//!
//! Everything stays bit-for-bit deterministic regardless of host
//! parallelism: nodes are data-parallel between resolutions, and the
//! network advances through a calendar keyed `(time, src_node, seq)`.

use dcp_machine::Cycles;
use dcp_net::{Flow, MsgId, NetConfig, NetStats, NetTime, Network};
use dcp_support::pool::par_map_mut;

use crate::exec::PhaseRecord;
use crate::ir::Program;
use crate::observer::NodeObserver;
use crate::sched::{NetPending, NodeSim, Quiescence, SimConfig};

/// Payload of a barrier control message (gather/broadcast) on the wire.
const BARRIER_BYTES: u64 = 64;

/// A world: how many ranks, and how they map onto nodes.
#[derive(Debug, Clone)]
pub struct WorldConfig {
    pub sim: SimConfig,
    /// Total MPI ranks.
    pub ranks: u32,
    /// Ranks co-located per node (each node is one [`dcp_machine::Machine`]).
    pub ranks_per_node: u32,
    /// Inter-node fabric. `None` (the default everywhere) keeps the flat
    /// cost model: exchanges move at `cost.mpi_node_bw`, barriers align
    /// to the global max. Ignored for single-node worlds, which always
    /// degenerate to the flat model.
    pub net: Option<NetConfig>,
}

impl WorldConfig {
    /// Single-node world with `ranks` ranks.
    pub fn single_node(sim: SimConfig, ranks: u32) -> Self {
        Self { sim, ranks, ranks_per_node: ranks.max(1), net: None }
    }
}

/// A simulation that cannot make progress — the simulated program's
/// communication structure is broken (the simulator itself is fine, so
/// this is an error value, not a panic).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// Some ranks reached the MPI barrier while others ran to completion
    /// or blocked elsewhere: the barrier can never release.
    BarrierMismatch { waiting: usize, live: usize, ranks: u32 },
    /// Exchanges are pending but no two of them are reciprocal: every
    /// waiting rank names a partner that is not (and never will be)
    /// calling back. `pending` lists `(rank, peer)` per waiter.
    ExchangeDeadlock { pending: Vec<(u32, u32)> },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::BarrierMismatch { waiting, live, ranks } => write!(
                f,
                "deadlock (MPI barrier mismatch): {waiting} of {ranks} ranks at the barrier, \
                 {live} alive"
            ),
            SimError::ExchangeDeadlock { pending } => {
                write!(f, "deadlock (MPI exchange mismatch): no reciprocal pair among")?;
                for (rank, peer) in pending {
                    write!(f, " {rank}->{peer}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Post-run summary for one node.
#[derive(Debug, Clone)]
pub struct NodeReport {
    pub node: usize,
    /// Node wall time (max thread clock).
    pub wall: Cycles,
    pub machine_stats: dcp_machine::access::MachineStats,
    /// DRAM accesses per NUMA domain — the bandwidth-demand picture.
    pub dram_histogram: Vec<u64>,
    pub ops: u64,
    /// Cycles rank mains spent blocked in MPI exchanges.
    pub net_wait: Cycles,
    /// MPI exchanges issued by this node's ranks.
    pub exchanges: u64,
}

/// Everything a run produces.
#[derive(Debug)]
pub struct WorldReport<O> {
    /// Global wall time (max over nodes).
    pub wall: Cycles,
    pub nodes: Vec<NodeReport>,
    pub phases: Vec<PhaseRecord>,
    /// One observer per node, in node order (profilers harvest these).
    pub observers: Vec<O>,
    /// Fabric counters, when a network was attached and the world spanned
    /// several nodes.
    pub net: Option<NetStats>,
}

impl<O> WorldReport<O> {
    /// Wall-clock duration of a named phase: latest end minus earliest
    /// begin across all ranks (phases are assumed globally aligned, as in
    /// the paper's init/setup/solve decomposition). `None` when no rank
    /// ever recorded the phase — callers comparing workload variants hit
    /// this routinely (e.g. a variant without an `init` phase) and decide
    /// for themselves whether a missing phase is a hard error.
    pub fn phase_wall(&self, name: &str) -> Option<Cycles> {
        let mut begin = Cycles::MAX;
        let mut end = 0;
        for p in &self.phases {
            if p.name == name {
                begin = begin.min(p.begin);
                end = end.max(p.end);
            }
        }
        (begin != Cycles::MAX).then(|| end - begin)
    }

    /// All distinct phase names in first-appearance order.
    pub fn phase_names(&self) -> Vec<&'static str> {
        let mut names = Vec::new();
        for p in &self.phases {
            if !names.contains(&p.name) {
                names.push(p.name);
            }
        }
        names
    }
}

/// Run `program` across the world. `make_observer` builds one observer
/// per node (node index argument); observers are returned in the report.
/// Errors are the simulated program's communication bugs
/// ([`SimError`]); simulator invariant violations still panic.
pub fn run_world<O>(
    program: &Program,
    cfg: &WorldConfig,
    make_observer: impl Fn(usize) -> O,
) -> Result<WorldReport<O>, SimError>
where
    O: NodeObserver,
{
    assert!(cfg.ranks > 0 && cfg.ranks_per_node > 0);
    let node_count = cfg.ranks.div_ceil(cfg.ranks_per_node) as usize;
    let mut nodes: Vec<NodeSim<'_, O>> = (0..node_count)
        .map(|n| {
            let lo = n as u32 * cfg.ranks_per_node;
            let hi = (lo + cfg.ranks_per_node).min(cfg.ranks);
            let ranks: Vec<u32> = (lo..hi).collect();
            NodeSim::new(program, cfg.sim.clone(), &ranks, cfg.ranks, make_observer(n))
        })
        .collect();
    // The fabric persists across resolutions so per-link counters
    // accumulate over the whole run. Single-node worlds never touch it.
    let mut net: Option<Network> = if node_count > 1 {
        cfg.net.as_ref().map(|nc| Network::new(nc.clone(), node_count as u32))
    } else {
        None
    };

    loop {
        // Run every node to quiescence. Nodes are fully independent
        // between resolutions, so data-parallel execution is sound.
        let _qs: Vec<Quiescence> = par_map_mut(&mut nodes, |node| node.run_until_quiescent());

        let live: usize = nodes.iter().map(|n| n.live_mains()).sum();
        if live == 0 {
            break;
        }

        // Exchanges resolve before barriers: a barrier cannot complete
        // while any rank is still inside a sendrecv.
        let mut pend: Vec<(usize, NetPending)> = Vec::new();
        for (ni, node) in nodes.iter().enumerate() {
            pend.extend(node.net_pending().iter().map(|p| (ni, *p)));
        }
        if !pend.is_empty() {
            pend.sort_by_key(|(_, p)| p.rank);
            resolve_exchanges(&mut nodes, &mut net, &cfg.sim.cost, &pend)?;
            continue;
        }

        // Barrier resolution: every live rank must be at the barrier.
        let waiting: usize = nodes.iter().map(|n| n.barrier_waiting()).sum();
        if waiting != live || waiting != cfg.ranks as usize {
            return Err(SimError::BarrierMismatch { waiting, live, ranks: cfg.ranks });
        }
        release_barrier(&mut nodes, &mut net, cfg.sim.cost.mpi_msg);
    }

    let net_stats = net.map(|n| n.stats());
    let mut reports = Vec::with_capacity(node_count);
    let mut phases = Vec::new();
    let mut observers = Vec::with_capacity(node_count);
    let mut wall = 0;
    for (i, node) in nodes.into_iter().enumerate() {
        wall = wall.max(node.max_clock());
        phases.extend_from_slice(node.phases());
        reports.push(NodeReport {
            node: i,
            wall: node.max_clock(),
            machine_stats: node.machine().stats().clone(),
            dram_histogram: node.machine().dram_histogram(),
            ops: node.total_ops(),
            net_wait: node.net_wait(),
            exchanges: node.exchange_count(),
        });
        observers.push(node.into_observer());
    }
    Ok(WorldReport { wall, nodes: reports, phases, observers, net: net_stats })
}

/// Match reciprocal exchange pairs and release both sides with their
/// completion clocks. `pend` is sorted by rank and has at most one entry
/// per rank (exchanges are rank-main-only and blocking).
fn resolve_exchanges<O: NodeObserver>(
    nodes: &mut [NodeSim<'_, O>],
    net: &mut Option<Network>,
    cost: &crate::exec::CostModel,
    pend: &[(usize, NetPending)],
) -> Result<(), SimError> {
    let ranks = pend.iter().map(|(_, p)| p.rank).max().unwrap_or(0) as usize + 1;
    let mut pos = vec![usize::MAX; ranks];
    for (i, (_, p)) in pend.iter().enumerate() {
        debug_assert_eq!(pos[p.rank as usize], usize::MAX, "one pending per rank");
        pos[p.rank as usize] = i;
    }
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    for (i, (_, p)) in pend.iter().enumerate() {
        if p.rank < p.peer {
            match pos.get(p.peer as usize) {
                Some(&j) if j != usize::MAX && pend[j].1.peer == p.rank => pairs.push((i, j)),
                _ => {}
            }
        }
    }
    if pairs.is_empty() {
        // Nobody can proceed: every waiter names a partner that is not
        // exchanging back (finished, at a barrier, or exchanging with a
        // third rank that is itself stuck).
        return Err(SimError::ExchangeDeadlock {
            pending: pend.iter().map(|(_, p)| (p.rank, p.peer)).collect(),
        });
    }

    let msg = cost.mpi_msg;
    let bw = cost.mpi_node_bw.max(1);
    let mut releases: Vec<(usize, usize, Cycles)> = Vec::new();
    // Cross-node pairs share one fabric pass so they contend for links.
    let mut injected: Vec<(usize, MsgId, MsgId)> = Vec::new();
    for (k, &(i, j)) in pairs.iter().enumerate() {
        let (na, a) = pend[i];
        let (nb, b) = pend[j];
        let (post_a, post_b) = (a.clock + msg, b.clock + msg);
        match net.as_mut() {
            Some(fabric) if na != nb => {
                let ma = fabric.inject(
                    post_a,
                    Flow { src: na as u32, dst: nb as u32, bytes: a.bytes.max(1) },
                );
                let mb = fabric.inject(
                    post_b,
                    Flow { src: nb as u32, dst: na as u32, bytes: b.bytes.max(1) },
                );
                injected.push((k, ma, mb));
            }
            _ => {
                // Same node (shared memory) or no fabric: the copy runs
                // at mpi_node_bw once both sides have posted.
                let base = post_a.max(post_b);
                releases.push((na, a.tid, base + b.bytes.div_ceil(bw)));
                releases.push((nb, b.tid, base + a.bytes.div_ceil(bw)));
            }
        }
    }
    if !injected.is_empty() {
        let fabric = net.as_mut().expect("flows injected without a fabric");
        let done: Vec<(MsgId, NetTime)> = fabric.run();
        let arrival = |id: MsgId| -> NetTime {
            done.iter()
                .find(|(m, _)| *m == id)
                .map(|(_, t)| *t)
                .expect("injected flow must complete")
        };
        for (k, ma, mb) in injected {
            let (i, j) = pairs[k];
            let (na, a) = pend[i];
            let (nb, b) = pend[j];
            // Each side resumes when its own post is done and the
            // partner's payload has arrived through the fabric.
            releases.push((na, a.tid, (a.clock + msg).max(arrival(mb))));
            releases.push((nb, b.tid, (b.clock + msg).max(arrival(ma))));
        }
    }
    for (ni, tid, clk) in releases {
        nodes[ni].net_release(tid, clk);
    }
    Ok(())
}

/// Release a complete barrier. With a fabric: gather 64-byte control
/// messages to node 0, decide at the root, broadcast back — each node
/// resumes when its broadcast arrives, so barrier skew reflects fabric
/// congestion. Without one (or on one node): flat global-max alignment,
/// exactly the pre-network behavior.
fn release_barrier<O: NodeObserver>(
    nodes: &mut [NodeSim<'_, O>],
    net: &mut Option<Network>,
    msg: u64,
) {
    let arrivals: Vec<Cycles> = nodes.iter().map(|n| n.barrier_arrival()).collect();
    match net.as_mut() {
        Some(fabric) if nodes.len() > 1 => {
            let gathers: Vec<(usize, MsgId)> = (1..nodes.len())
                .map(|ni| {
                    let flow = Flow { src: ni as u32, dst: 0, bytes: BARRIER_BYTES };
                    (ni, fabric.inject(arrivals[ni] + msg, flow))
                })
                .collect();
            let done: Vec<(MsgId, NetTime)> = fabric.run();
            let mut root = arrivals[0] + msg;
            for &(_, m) in &gathers {
                let t = done
                    .iter()
                    .find(|(id, _)| *id == m)
                    .map(|(_, t)| *t)
                    .expect("gather flow must complete");
                root = root.max(t);
            }
            let bcasts: Vec<(usize, MsgId)> = (1..nodes.len())
                .map(|ni| {
                    let flow = Flow { src: 0, dst: ni as u32, bytes: BARRIER_BYTES };
                    (ni, fabric.inject(root, flow))
                })
                .collect();
            let done: Vec<(MsgId, NetTime)> = fabric.run();
            nodes[0].mpi_release(root);
            for (ni, m) in bcasts {
                let t = done
                    .iter()
                    .find(|(id, _)| *id == m)
                    .map(|(_, t)| *t)
                    .expect("broadcast flow must complete");
                nodes[ni].mpi_release(t);
            }
        }
        _ => {
            let gmax = arrivals.iter().copied().max().unwrap_or(0);
            for node in nodes.iter_mut() {
                node.mpi_release(gmax);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::ProgramBuilder;
    use crate::ir::ex::*;
    use crate::ir::{Cmp, Expr};
    use crate::observer::{AllocEvent, FreeEvent, NodeObserver, NullObserver, ThreadView};
    use dcp_machine::{MachineConfig, MarkedEvent, PmuConfig, Sample};

    fn tiny_sim() -> SimConfig {
        SimConfig::new(MachineConfig::tiny_test())
    }

    #[test]
    fn straight_line_program_completes() {
        let mut b = ProgramBuilder::new("t");
        let main = b.proc("main", 0, |p| {
            let buf = p.malloc(c(4096), "buf");
            p.for_(c(0), c(64), |p, i| {
                p.store(l(buf), l(i), 8);
            });
            p.free(l(buf));
        });
        let prog = b.build(main);
        let report =
            run_world(&prog, &WorldConfig::single_node(tiny_sim(), 1), |_| NullObserver).unwrap();
        assert!(report.wall > 0);
        assert_eq!(report.nodes.len(), 1);
        assert_eq!(report.nodes[0].machine_stats.stores, 64);
    }

    #[test]
    fn call_and_return_values_flow() {
        let mut b = ProgramBuilder::new("t");
        let double = b.proc("double", 1, |p| {
            let x = p.param(0);
            p.ret(Some(add(mul(l(x), c(2)), c(0))));
        });
        let mut probe_addr = 0;
        let main = b.proc("main", 0, |p| {
            let v = p.call_ret(double, vec![c(21)]);
            // Store the result as a value so the test can read it back.
            let sink = p.malloc(c(64), "sink");
            p.store_val(l(sink), c(0), 8, l(v));
            probe_addr = 0; // documented: heap base of rank 0
        });
        let prog = b.build(main);
        let _ = probe_addr;
        // Run and verify via machine stats that the store happened (one
        // store, value-path exercised without panic).
        let report =
            run_world(&prog, &WorldConfig::single_node(tiny_sim(), 1), |_| NullObserver).unwrap();
        assert_eq!(report.nodes[0].machine_stats.stores, 1);
    }

    #[test]
    fn nested_loops_and_if() {
        let mut b = ProgramBuilder::new("t");
        let main = b.proc("main", 0, |p| {
            let buf = p.malloc(c(8192), "buf");
            p.for_(c(0), c(8), |p, i| {
                p.for_(c(0), c(8), |p, j| {
                    p.if_(
                        l(j),
                        Cmp::Lt,
                        c(4),
                        |p| p.load(l(buf), add(mul(l(i), c(8)), l(j)), 8),
                        |p| p.compute(1),
                    );
                });
            });
        });
        let prog = b.build(main);
        let report =
            run_world(&prog, &WorldConfig::single_node(tiny_sim(), 1), |_| NullObserver).unwrap();
        assert_eq!(report.nodes[0].machine_stats.loads, 32, "half the 64 iterations load");
    }

    #[test]
    fn parallel_region_runs_all_threads() {
        let mut b = ProgramBuilder::new("t");
        let region = b.outlined("work", 1, |p| {
            let buf = p.param(0);
            p.omp_for(c(0), c(400), |p, i| {
                p.store(l(buf), l(i), 8);
            });
        });
        let main = b.proc("main", 0, |p| {
            let buf = p.malloc(c(8 * 400), "buf");
            p.parallel(region, vec![l(buf)]);
        });
        let prog = b.build(main);
        let mut cfg = tiny_sim();
        cfg.omp_threads = 4;
        let report = run_world(&prog, &WorldConfig::single_node(cfg, 1), |_| NullObserver).unwrap();
        // All 400 iterations execute exactly once across the team.
        assert_eq!(report.nodes[0].machine_stats.stores, 400);
    }

    #[test]
    fn omp_for_partitions_disjointly() {
        // Each thread writes a distinct value to its chunk; serial check
        // via a second pass would need value reads, so instead verify op
        // counts: with 4 threads and 100 iterations, exactly 100 stores.
        let mut b = ProgramBuilder::new("t");
        let region = b.outlined("fill", 1, |p| {
            let buf = p.param(0);
            p.omp_for(c(0), c(100), |p, i| p.store_val(l(buf), l(i), 8, Expr::ThreadId));
        });
        let main = b.proc("main", 0, |p| {
            let buf = p.malloc(c(800), "buf");
            p.parallel(region, vec![l(buf)]);
        });
        let prog = b.build(main);
        let mut cfg = tiny_sim();
        cfg.omp_threads = 4;
        let report = run_world(&prog, &WorldConfig::single_node(cfg, 1), |_| NullObserver).unwrap();
        assert_eq!(report.nodes[0].machine_stats.stores, 100);
    }

    #[test]
    fn omp_barrier_aligns_team() {
        let mut b = ProgramBuilder::new("t");
        let region = b.outlined("skewed", 1, |p| {
            let buf = p.param(0);
            // Thread 0 does much more work before the barrier.
            p.if_(
                Expr::ThreadId,
                Cmp::Eq,
                c(0),
                |p| p.compute(50_000),
                |p| p.compute(10),
            );
            p.omp_barrier();
            p.omp_for(c(0), c(4), |p, i| p.store(l(buf), l(i), 8));
        });
        let main = b.proc("main", 0, |p| {
            let buf = p.malloc(c(64), "buf");
            p.parallel(region, vec![l(buf)]);
        });
        let prog = b.build(main);
        let mut cfg = tiny_sim();
        cfg.omp_threads = 4;
        let report = run_world(&prog, &WorldConfig::single_node(cfg, 1), |_| NullObserver).unwrap();
        // Wall must reflect the slow thread's pre-barrier work.
        assert!(report.wall > 50_000);
    }

    #[test]
    fn mpi_barrier_aligns_ranks_across_nodes() {
        let mut b = ProgramBuilder::new("t");
        let main = b.proc("main", 0, |p| {
            // Rank 1 works 100k cycles, rank 0 works 10.
            p.if_(Expr::RankId, Cmp::Eq, c(1), |p| p.compute(100_000), |p| p.compute(10));
            p.mpi_barrier();
            p.compute(5);
        });
        let prog = b.build(main);
        let cfg = WorldConfig { sim: tiny_sim(), ranks: 2, ranks_per_node: 1, net: None };
        let report = run_world(&prog, &cfg, |_| NullObserver).unwrap();
        assert_eq!(report.nodes.len(), 2);
        // Both nodes end past the barrier release (>= 100k).
        for n in &report.nodes {
            assert!(n.wall > 100_000, "node {} wall {}", n.node, n.wall);
        }
    }

    #[test]
    fn phases_are_recorded_and_measured() {
        let mut b = ProgramBuilder::new("t");
        let main = b.proc("main", 0, |p| {
            p.phase("setup", |p| p.compute(1_000));
            p.phase("solve", |p| p.compute(9_000));
        });
        let prog = b.build(main);
        let report =
            run_world(&prog, &WorldConfig::single_node(tiny_sim(), 1), |_| NullObserver).unwrap();
        assert_eq!(report.phase_names(), vec!["setup", "solve"]);
        let solve = report.phase_wall("solve").expect("solve phase recorded");
        let setup = report.phase_wall("setup").expect("setup phase recorded");
        assert!(solve >= 9_000);
        assert!(setup >= 1_000);
        assert!(setup < solve);
    }

    #[test]
    fn unknown_phase_is_none_not_a_panic() {
        let mut b = ProgramBuilder::new("t");
        let main = b.proc("main", 0, |p| {
            p.phase("solve", |p| p.compute(100));
        });
        let prog = b.build(main);
        let report =
            run_world(&prog, &WorldConfig::single_node(tiny_sim(), 1), |_| NullObserver).unwrap();
        assert_eq!(report.phase_wall("warmup"), None, "unrecorded phase must be None");
        assert!(report.phase_wall("solve").is_some());
    }

    /// Observer that records events for assertions.
    #[derive(Default)]
    struct Recorder {
        samples: Vec<(Sample, u32, u32, usize)>, // sample, rank, thread, depth
        allocs: Vec<AllocEvent>,
        frees: Vec<FreeEvent>,
        modules: Vec<String>,
    }

    impl NodeObserver for Recorder {
        fn on_sample(&mut self, s: &Sample, v: &ThreadView<'_>) -> u64 {
            self.samples.push((*s, v.rank, v.thread, v.frames.len()));
            0
        }
        fn on_alloc(&mut self, e: &AllocEvent, _v: &ThreadView<'_>) -> u64 {
            self.allocs.push(*e);
            0
        }
        fn on_free(&mut self, e: &FreeEvent, _v: &ThreadView<'_>) -> u64 {
            self.frees.push(*e);
            0
        }
        fn on_module(&mut self, ev: &crate::observer::ModuleEvent<'_>) {
            if let crate::observer::ModuleEvent::Loaded { def, .. } = ev {
                self.modules.push(def.name.clone());
            }
        }
    }

    /// Serialized statements (allocation, free, realloc, phase markers)
    /// last in every kind of block — a `for_` body, both `if_` arms, a
    /// callee, an outlined region body — and first in a region body. The
    /// shard parks on each and the commit runs it, then hands the thread
    /// back at the block exit. Period-1 IBS makes the commit-side calloc
    /// zero-fill and realloc copy feed the sampler too.
    #[test]
    fn serialized_statements_at_block_boundaries() {
        let mut b = ProgramBuilder::new("t");
        let grow = b.proc("grow", 1, |p| {
            let buf = p.param(0);
            p.store(l(buf), c(0), 8);
            p.realloc(l(buf), c(8192), "grown");
        });
        let region = b.outlined("region", 0, |p| {
            let t = p.malloc(c(512), "scratch");
            p.store(l(t), c(0), 8);
            p.free(l(t));
        });
        let main = b.proc("main", 0, |p| {
            p.for_(c(0), c(3), |p, i| {
                p.if_(
                    l(i),
                    Cmp::Lt,
                    c(2),
                    |p| {
                        let z = p.calloc(c(1024), "zeroed");
                        p.free(l(z));
                    },
                    |p| p.phase("odd", |p| p.compute(5)),
                );
                let a = p.malloc(c(2048), "a");
                p.call(grow, vec![l(a)]);
                p.calloc(c(4096), "kept");
            });
            p.parallel(region, vec![]);
        });
        let prog = b.build(main);
        let mut cfg = tiny_sim();
        cfg.omp_threads = 2;
        cfg.pmu = Some(PmuConfig::Ibs { period: 1, skid: 0 });
        let report =
            run_world(&prog, &WorldConfig::single_node(cfg, 1), |_| Recorder::default()).unwrap();
        let rec = &report.observers[0];
        // Allocs: per iteration `a`, the moved realloc and `kept`, plus
        // `zeroed` on two iterations and `scratch` on both team threads.
        assert_eq!(rec.allocs.len(), 3 * 3 + 2 + 2);
        // Frees: the moved realloc's old block per iteration, `zeroed`
        // twice and `scratch` twice.
        assert_eq!(rec.frees.len(), 3 + 2 + 2);
        // Stores: `zeroed` zero-fill 2 x 16 lines, `kept` zero-fill 3 x 64
        // lines, realloc copy 3 x 32 lines, and one program store per
        // `grow` call and per team thread.
        assert_eq!(report.nodes[0].machine_stats.stores, 2 * 16 + 3 * 64 + 3 * 32 + 3 + 2);
        // Period 1 delivers one sample per op record or quiet batch.
        assert_eq!(rec.samples.len(), 352);
        assert_eq!(report.phase_names(), vec!["odd"]);
    }

    #[test]
    fn sampling_observer_sees_memory_samples_with_context() {
        let mut b = ProgramBuilder::new("t");
        let kernel = b.proc("kernel", 1, |p| {
            let buf = p.param(0);
            p.for_(c(0), c(5_000), |p, i| {
                p.load(l(buf), rem(l(i), c(512)), 8);
            });
        });
        let main = b.proc("main", 0, |p| {
            let buf = p.calloc(c(4096), "buf");
            p.call(kernel, vec![l(buf)]);
        });
        let prog = b.build(main);
        let mut cfg = tiny_sim();
        cfg.pmu = Some(PmuConfig::Ibs { period: 100, skid: 2 });
        let report = run_world(&prog, &WorldConfig::single_node(cfg, 1), |_| Recorder::default()).unwrap();
        let rec = &report.observers[0];
        assert!(!rec.samples.is_empty(), "IBS must deliver samples");
        // Samples inside `kernel` see a two-deep stack (main -> kernel).
        let with_mem: Vec<_> = rec.samples.iter().filter(|(s, ..)| s.ea.is_some()).collect();
        assert!(!with_mem.is_empty());
        assert!(with_mem.iter().any(|(_, _, _, depth)| *depth == 2));
        // Alloc event was observed with the calloc flag.
        assert_eq!(rec.allocs.len(), 1);
        assert!(rec.allocs[0].zeroed);
        assert_eq!(rec.modules, vec!["t".to_string()]);
    }

    #[test]
    fn master_calloc_places_pages_on_one_domain() {
        // The NUMA pathology in miniature: master callocs and the region
        // reads; every page homes on the master's domain, so the other
        // domain's threads go remote.
        let mut b = ProgramBuilder::new("t");
        let region = b.outlined("read", 1, |p| {
            let buf = p.param(0);
            p.omp_for(c(0), c(4096), |p, i| p.load(l(buf), l(i), 8));
        });
        let main = b.proc("main", 0, |p| {
            let buf = p.calloc(c(8 * 4096), "buf");
            p.parallel(region, vec![l(buf)]);
        });
        let prog = b.build(main);
        let mut cfg = tiny_sim();
        cfg.omp_threads = 4; // tiny_test has 4 hw threads over 2 domains
        let report = run_world(&prog, &WorldConfig::single_node(cfg, 1), |_| NullObserver).unwrap();
        let s = &report.nodes[0].machine_stats;
        assert!(
            s.remote_dram + s.remote_l3_hits > 0,
            "threads on domain 1 must hit remote data: {s:?}"
        );
        // All DRAM demand lands on domain 0 (master's).
        let h = &report.nodes[0].dram_histogram;
        assert!(h[0] > 0);
        assert!(h[0] > h[1] * 4, "dram demand skewed to master domain: {h:?}");
    }

    #[test]
    fn marked_event_pmu_only_samples_remote() {
        let mut b = ProgramBuilder::new("t");
        let region = b.outlined("read", 1, |p| {
            let buf = p.param(0);
            // Line-stride reads (one element per 64-byte line): too fast
            // for prefetch to hide the remote latency completely.
            p.omp_for(c(0), c(8192), |p, i| p.load(l(buf), mul(l(i), c(8)), 8));
        });
        let main = b.proc("main", 0, |p| {
            let buf = p.calloc(c(8 * 8 * 8192), "buf");
            p.parallel(region, vec![l(buf)]);
        });
        let prog = b.build(main);
        let mut cfg = tiny_sim();
        cfg.omp_threads = 4;
        cfg.pmu = Some(PmuConfig::Marked {
            event: MarkedEvent::DataFromRmem,
            threshold: 8,
            skid: 1,
        });
        let report = run_world(&prog, &WorldConfig::single_node(cfg, 1), |_| Recorder::default()).unwrap();
        let rec = &report.observers[0];
        assert!(!rec.samples.is_empty(), "remote traffic must produce marked samples");
        for (s, ..) in &rec.samples {
            assert_eq!(s.source, Some(dcp_machine::DataSource::RemoteDram));
        }
    }

    #[test]
    fn determinism_across_runs() {
        let build = || {
            let mut b = ProgramBuilder::new("t");
            let region = b.outlined("w", 1, |p| {
                let buf = p.param(0);
                p.omp_for(c(0), c(2000), |p, i| {
                    p.store(l(buf), l(i), 8);
                    p.load(l(buf), rem(mul(l(i), c(7)), c(2000)), 8);
                });
            });
            let main = b.proc("main", 0, |p| {
                let buf = p.calloc(c(16000), "buf");
                p.parallel(region, vec![l(buf)]);
                p.free(l(buf));
            });
            b.build(main)
        };
        let mut cfg = tiny_sim();
        cfg.omp_threads = 3;
        cfg.pmu = Some(PmuConfig::Ibs { period: 64, skid: 3 });
        let p1 = build();
        let p2 = build();
        let r1 = run_world(&p1, &WorldConfig::single_node(cfg.clone(), 1), |_| Recorder::default()).unwrap();
        let r2 = run_world(&p2, &WorldConfig::single_node(cfg, 1), |_| Recorder::default()).unwrap();
        assert_eq!(r1.wall, r2.wall);
        assert_eq!(r1.observers[0].samples.len(), r2.observers[0].samples.len());
        for (a, b) in r1.observers[0].samples.iter().zip(&r2.observers[0].samples) {
            assert_eq!(a.0.precise_ip, b.0.precise_ip);
            assert_eq!(a.0.ea, b.0.ea);
        }
    }

    #[test]
    fn observer_overhead_slows_simulated_time() {
        struct Expensive;
        impl NodeObserver for Expensive {
            fn on_alloc(&mut self, _: &AllocEvent, _: &ThreadView<'_>) -> u64 {
                50_000
            }
        }
        let build = || {
            let mut b = ProgramBuilder::new("t");
            let main = b.proc("main", 0, |p| {
                p.for_(c(0), c(20), |p, _| {
                    let a = p.malloc(c(64), "tmp");
                    p.free(l(a));
                });
            });
            b.build(main)
        };
        let p1 = build();
        let p2 = build();
        let base = run_world(&p1, &WorldConfig::single_node(tiny_sim(), 1), |_| NullObserver).unwrap();
        let slow = run_world(&p2, &WorldConfig::single_node(tiny_sim(), 1), |_| Expensive).unwrap();
        assert!(slow.wall > base.wall + 19 * 50_000);
    }

    #[test]
    fn brk_allocations_complete_without_alloc_events() {
        let mut b = ProgramBuilder::new("t");
        let main = b.proc("main", 0, |p| {
            let v = p.brk_alloc(c(4096));
            p.for_(c(0), c(16), |p, i| p.store(l(v), l(i), 8));
        });
        let prog = b.build(main);
        let report =
            run_world(&prog, &WorldConfig::single_node(tiny_sim(), 1), |_| Recorder::default()).unwrap();
        assert!(report.observers[0].allocs.is_empty(), "brk is invisible to wrappers");
        assert_eq!(report.nodes[0].machine_stats.stores, 16);
    }

    #[test]
    fn stack_allocations_are_frame_scoped() {
        let mut b = ProgramBuilder::new("t");
        let leaf = b.proc("leaf", 0, |p| {
            // 1 KiB local array, touched, released at return.
            let local = p.stack_alloc(c(1024));
            p.for_(c(0), c(16), |p, i| p.store(l(local), l(i), 8));
            p.ret(None);
        });
        let main = b.proc("main", 0, |p| {
            // Repeated calls reuse the same stack addresses (frame pop
            // restores the cursor), so the touched page set stays tiny.
            p.for_(c(0), c(100), |p, _| p.call(leaf, vec![]));
        });
        let prog = b.build(main);
        let report =
            run_world(&prog, &WorldConfig::single_node(tiny_sim(), 1), |_| NullObserver).unwrap();
        let s = &report.nodes[0].machine_stats;
        assert_eq!(s.stores, 1600);
        // All 1600 stores hit the same 1 KiB: after the first call the
        // lines are L1-resident.
        assert!(s.l1_hits > 1400, "stack reuse must stay cached: {s:?}");
    }

    #[test]
    fn worker_stacks_are_disjoint() {
        let mut b = ProgramBuilder::new("t");
        let region = b.outlined("w", 0, |p| {
            let local = p.stack_alloc(c(4096));
            p.omp_for(c(0), c(64), |p, i| p.store(l(local), rem(l(i), c(64)), 8));
        });
        let main = b.proc("main", 0, |p| p.parallel(region, vec![]));
        let prog = b.build(main);
        let mut cfg = tiny_sim();
        cfg.omp_threads = 4;
        let report = run_world(&prog, &WorldConfig::single_node(cfg, 1), |_| NullObserver).unwrap();
        // 4 threads x 4096-byte locals on distinct windows: each thread
        // first-touches its own page (4 pages placed, not 1).
        assert_eq!(report.nodes[0].machine_stats.stores, 64);
    }

    #[test]
    #[should_panic(expected = "stack overflow")]
    fn stack_overflow_is_detected() {
        let mut b = ProgramBuilder::new("t");
        let main = b.proc("main", 0, |p| {
            p.for_(c(0), c(10_000), |p, _| {
                // Allocations in a loop within ONE frame accumulate until
                // the window blows.
                let x = p.stack_alloc(c(1 << 16));
                p.store(l(x), c(0), 8);
            });
        });
        let prog = b.build(main);
        let _ = run_world(&prog, &WorldConfig::single_node(tiny_sim(), 1), |_| NullObserver).unwrap();
    }

    #[test]
    fn mismatched_mpi_barriers_are_a_typed_error() {
        let mut b = ProgramBuilder::new("t");
        let main = b.proc("main", 0, |p| {
            p.if_(Expr::RankId, Cmp::Eq, c(0), |p| p.mpi_barrier(), |p| p.compute(1));
        });
        let prog = b.build(main);
        let cfg = WorldConfig { sim: tiny_sim(), ranks: 2, ranks_per_node: 2, net: None };
        let err = run_world(&prog, &cfg, |_| NullObserver).unwrap_err();
        assert!(matches!(err, SimError::BarrierMismatch { waiting: 1, live: 1, ranks: 2 }));
        assert!(
            err.to_string().contains("deadlock (MPI barrier mismatch)"),
            "error keeps the diagnostic text: {err}"
        );
    }

    /// Two ranks on two nodes exchanging through the fabric: both complete,
    /// both pay the network (latency + serialization), stats are recorded.
    #[test]
    fn cross_node_exchange_completes_through_the_fabric() {
        let mut b = ProgramBuilder::new("t");
        let main = b.proc("main", 0, |p| {
            p.compute(100);
            // peer = 1 - rank
            p.mpi_exchange(sub(c(1), Expr::RankId), c(4096));
            p.compute(10);
        });
        let prog = b.build(main);
        let cfg = WorldConfig {
            sim: tiny_sim(),
            ranks: 2,
            ranks_per_node: 1,
            net: Some(dcp_net::NetConfig::one_big_switch()),
        };
        let report = run_world(&prog, &cfg, |_| NullObserver).unwrap();
        let net = report.net.expect("fabric stats present");
        assert_eq!(net.flows, 2);
        assert_eq!(net.bytes, 2 * 4096);
        // 4096 B at 4 B/cycle is 1024 cycles of serialization per hop,
        // plus two 500-cycle links: the exchange dominates the compute.
        for n in &report.nodes {
            assert!(n.wall > 2000, "node {} wall {}", n.node, n.wall);
            assert_eq!(n.exchanges, 1);
            assert!(n.net_wait > 0, "exchange wait must be accounted");
        }
        // Per-link counters saw both directions.
        assert!(net.links.iter().any(|(l, s)| l == "node0->switch" && s.msgs == 1));
        assert!(net.links.iter().any(|(l, s)| l == "switch->node0" && s.msgs == 1));
    }

    /// Same program, same ranks, no fabric: the exchange falls back to the
    /// flat shared-memory model and still completes.
    #[test]
    fn exchange_without_fabric_uses_flat_cost() {
        let mut b = ProgramBuilder::new("t");
        let main = b.proc("main", 0, |p| {
            p.mpi_exchange(sub(c(1), Expr::RankId), c(4096));
        });
        let prog = b.build(main);
        let cfg = WorldConfig { sim: tiny_sim(), ranks: 2, ranks_per_node: 2, net: None };
        let report = run_world(&prog, &cfg, |_| NullObserver).unwrap();
        assert!(report.net.is_none());
        // mpi_msg (600) + 4096 / mpi_node_bw (16) = 856 at minimum.
        assert!(report.wall >= 856, "wall {}", report.wall);
        assert_eq!(report.nodes[0].exchanges, 2);
    }

    /// A cross-node exchange is strictly slower than the same exchange in
    /// shared memory: the fabric's latency and serialization are real.
    #[test]
    fn fabric_is_slower_than_shared_memory() {
        let build = || {
            let mut b = ProgramBuilder::new("t");
            let main = b.proc("main", 0, |p| {
                p.mpi_exchange(sub(c(1), Expr::RankId), c(65536));
            });
            b.build(main)
        };
        let p1 = build();
        let p2 = build();
        let shared = WorldConfig { sim: tiny_sim(), ranks: 2, ranks_per_node: 2, net: None };
        let fabric = WorldConfig {
            sim: tiny_sim(),
            ranks: 2,
            ranks_per_node: 1,
            net: Some(dcp_net::NetConfig::one_big_switch()),
        };
        let a = run_world(&p1, &shared, |_| NullObserver).unwrap();
        let b = run_world(&p2, &fabric, |_| NullObserver).unwrap();
        assert!(
            b.wall > a.wall,
            "fabric ({}) must cost more than shared memory ({})",
            b.wall,
            a.wall
        );
    }

    /// Rank 0 exchanges, rank 1 never calls back: typed deadlock, not a
    /// panic, and the message names the dangling request.
    #[test]
    fn unmatched_exchange_is_a_typed_error() {
        let mut b = ProgramBuilder::new("t");
        let main = b.proc("main", 0, |p| {
            p.if_(
                Expr::RankId,
                Cmp::Eq,
                c(0),
                |p| p.mpi_exchange(c(1), c(64)),
                |p| p.compute(1),
            );
        });
        let prog = b.build(main);
        let cfg = WorldConfig { sim: tiny_sim(), ranks: 2, ranks_per_node: 1, net: None };
        let err = run_world(&prog, &cfg, |_| NullObserver).unwrap_err();
        assert_eq!(err, SimError::ExchangeDeadlock { pending: vec![(0, 1)] });
        assert!(err.to_string().contains("deadlock (MPI exchange mismatch)"));
        assert!(err.to_string().contains("0->1"));
    }

    /// Neighbor exchange over four ranks on four nodes, twice, then a
    /// barrier — deterministic wall across repeated runs.
    #[test]
    fn exchange_chain_is_deterministic() {
        let build = || {
            let mut b = ProgramBuilder::new("t");
            let main = b.proc("main", 0, |p| {
                // Pair (0,1) and (2,3): peer = rank ^ 1 via parity.
                let peer = p.local();
                p.if_(
                    rem(Expr::RankId, c(2)),
                    Cmp::Eq,
                    c(0),
                    |p| p.let_(peer, add(Expr::RankId, c(1))),
                    |p| p.let_(peer, sub(Expr::RankId, c(1))),
                );
                p.compute(50);
                p.mpi_exchange(l(peer), mul(add(Expr::RankId, c(1)), c(1024)));
                p.mpi_exchange(l(peer), c(2048));
                p.mpi_barrier();
            });
            b.build(main)
        };
        let cfg = WorldConfig {
            sim: tiny_sim(),
            ranks: 4,
            ranks_per_node: 1,
            net: Some(dcp_net::NetConfig::lossless(dcp_net::TopologySpec::FatTree {
                leaves: 2,
                spines: 2,
            })),
        };
        let p1 = build();
        let p2 = build();
        let r1 = run_world(&p1, &cfg, |_| NullObserver).unwrap();
        let r2 = run_world(&p2, &cfg, |_| NullObserver).unwrap();
        assert_eq!(r1.wall, r2.wall);
        let n1 = r1.net.unwrap();
        let n2 = r2.net.unwrap();
        assert_eq!(n1.links, n2.links, "per-link counters are deterministic");
        // 4 ranks x 2 exchanges = 8 flows, plus 3 gathers + 3 broadcasts
        // for the closing barrier.
        assert_eq!(n1.flows, 8 + 6);
    }
}
