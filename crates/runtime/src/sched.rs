//! The node scheduler: epoch-parallel interleaved execution of every
//! software thread hosted on one simulated node.
//!
//! Simulated time is divided into fixed *epoch windows*. Within a window,
//! every runnable thread runs on the shard of its NUMA domain: the shard
//! owns the domain's core-private hardware ([`MachineShard`]) and sees
//! the node-shared state (L3s, DRAM, interconnect, coherence, page
//! tables, allocator) only through a frozen snapshot ([`FrozenNode`]).
//! Anything that must touch shared state is emitted as a timestamped
//! event keyed by `(cycle, thread, seq)`; after every shard finishes, the
//! scheduler sorts the per-shard event buffers and *commits* them
//! sequentially in key order — real L3 lookups, DRAM queueing, page
//! placement, allocation, fork/join and sample delivery all happen there.
//!
//! The shards themselves run via [`dcp_support::pool::par_map_mut`],
//! so with `DCP_THREADS=N` they execute on up to N host threads — and
//! with no workers, or when the node itself runs as a pool task of a
//! multi-node world, the very same code runs inline in shard order. Event
//! keys are a pure function of simulated time, so the committed schedule
//! (and therefore every latency, counter, placement and PMU sample) is
//! bit-identical at every `DCP_THREADS` value.
//!
//! Statements that need shared state (allocation, barriers, fork, phase
//! markers, dlopen) *park* their thread: the shard rewinds the cursor and
//! emits a `Park` event. So do the end of a thread and the end of a
//! parallel region its master runs. The commit phase executes what the
//! thread parked on with the commit-side interpreter
//! ([`NodeSim::exec_one`]), in event order, and keeps stepping the thread
//! serially while it stays on serialized statements (so alloc-heavy init
//! does not bounce through empty epochs). Every other statement and
//! block exit runs only shard-side ([`run_thread`]).

use dcp_machine::pmu::OpRecord;
use dcp_machine::{
    AccessKind, CoreId, Cycles, DataSource, DeferredAccess, DomainId, EpochKey, FrozenNode,
    Machine, MachineConfig, MachineShard, MachineStats, PagePolicy, PageTable, Pmu, PmuConfig,
    Sample, SampleOrigin,
};
use dcp_support::{pool, FxHashMap};

use crate::alloc::{HeapAllocator, STACK_BASE, STACK_WINDOW};
use crate::exec::{eval, eval_cmp, Ctrl, EvalCtx, Exit, PhaseRecord, Status, ThreadState};
use crate::ir::{AllocKind, Ip, ProcId, Program, Spanned, Stmt};
use crate::layout;
use crate::observer::{
    AllocEvent, FrameInfo, FreeEvent, ModuleEvent, NodeObserver, ThreadView,
};
pub use crate::exec::CostModel;

/// Configuration of one simulation run (shared by every node).
#[derive(Debug, Clone)]
pub struct SimConfig {
    pub machine: MachineConfig,
    /// PMU programming; `None` disables sampling entirely (baseline runs).
    pub pmu: Option<PmuConfig>,
    /// Base seed for PMU jitter (mixed with rank/thread ids).
    pub pmu_seed: u64,
    pub cost: CostModel,
    /// Default OpenMP team size per rank.
    pub omp_threads: u32,
    /// Scheduler quantum in cycles; the epoch window defaults to a small
    /// multiple of it (see [`SimConfig::window`]).
    pub quantum: Cycles,
    /// Process-wide default NUMA placement policy — what launching the
    /// program under `numactl` sets. `libnuma`-style per-allocation
    /// policies (on `Stmt::Alloc`) override it per range.
    pub default_policy: PagePolicy,
    /// Epoch window in cycles: how much simulated time every shard
    /// advances before the ordered commit. 0 (the default) derives the
    /// window from the quantum. Larger windows amortize commit overhead;
    /// smaller windows tighten the cross-shard coherence/value lag.
    pub epoch_window: Cycles,
}

impl SimConfig {
    /// A config with everything defaulted around the given machine.
    pub fn new(machine: MachineConfig) -> Self {
        Self {
            machine,
            pmu: None,
            pmu_seed: 0x5eed,
            cost: CostModel::default(),
            omp_threads: 1,
            quantum: 400,
            default_policy: PagePolicy::FirstTouch,
            epoch_window: 0,
        }
    }

    /// Effective epoch window: the explicit `epoch_window`, or four
    /// quanta when unset (so configs that shrink the quantum for finer
    /// interleaving get proportionally finer epochs too).
    pub fn window(&self) -> Cycles {
        if self.epoch_window != 0 {
            self.epoch_window
        } else {
            (self.quantum * 4).max(1)
        }
    }
}

/// Why `run_until_quiescent` stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Quiescence {
    /// Every thread finished.
    AllDone,
    /// Every still-live rank main is blocked at an MPI barrier.
    MpiBlocked {
        /// Number of rank mains waiting.
        waiting: usize,
        /// Max clock among the waiters (this node's barrier arrival time).
        max_clock: Cycles,
    },
    /// At least one rank main is parked inside an MPI exchange, waiting
    /// for the network (others may simultaneously sit at a barrier; the
    /// world must resolve exchanges before the barrier can complete).
    NetBlocked {
        /// Number of rank mains waiting on exchanges.
        pending: usize,
    },
}

/// A rank main parked in an MPI exchange, waiting for the world loop to
/// move its payload over the network (or the shared-memory fallback).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetPending {
    /// Node-local thread slot (pass back to [`NodeSim::net_release`]).
    pub tid: usize,
    /// Global rank issuing the exchange.
    pub rank: u32,
    /// Global rank of the exchange partner.
    pub peer: u32,
    /// Payload bytes this rank sends.
    pub bytes: u64,
    /// Thread clock at the call — the earliest injection time of its flow.
    pub clock: Cycles,
}

/// One process (MPI rank) hosted on this node.
struct ProcessState {
    page_table: PageTable,
    allocator: HeapAllocator,
    /// Backing values for index arrays (written by `store_val`).
    values: FxHashMap<u64, i64>,
    loaded: Vec<bool>,
    phase_stack: Vec<(&'static str, Cycles)>,
}

/// An active OpenMP team.
struct Team {
    master: usize,
    outstanding: u32,
    join_max: Cycles,
    barrier_waiters: Vec<usize>,
    size: u32,
}

enum Action {
    Ran,
    ThreadDone,
    RegionEnd,
    Fork { outlined: ProcId, args: Vec<i64>, n: u32, site: Ip },
    OmpBarrier,
    MpiBarrier,
    MpiExchange { peer: u32, bytes: u64 },
}

/// Scheduler step outcome (internal).
enum StepOut {
    Ran,
    Yield,
}

/// A PMU sample captured shard-side, with everything the commit phase
/// needs to deliver it: the calling-context view is cloned because the
/// thread keeps mutating its own view while the event waits in the
/// buffer. Samples are rare (sampling periods are thousands of ops), so
/// the clone is off the hot path.
struct SampleEv {
    sample: Sample,
    frames: Vec<FrameInfo>,
    leaf: Ip,
    clock: Cycles,
}

/// A shared-state interaction deferred from a shard to the ordered
/// commit.
enum Ev {
    /// A memory access that needs the node-shared hierarchy: the commit
    /// re-resolves the page placement, performs the real L3/DRAM/
    /// interconnect work and folds the latency correction into the
    /// thread's carry.
    Mem {
        tid: u32,
        addr: u64,
        d: DeferredAccess,
        /// What the shard charged optimistically from the snapshot.
        opt_latency: u32,
        /// The PMU tagged its sample on this access, capturing the
        /// optimistic latency/source. The commit parks the actual values
        /// in the thread's fix slot so the sample is corrected when its
        /// skid expires and it is delivered.
        tagged: bool,
    },
    /// Install a line in a domain's L3 (prefetch-resolved accesses).
    Fill { domain: u32, line: u64, version: u32 },
    /// Consume DRAM/interconnect occupancy for launched prefetches.
    Pf { from: DomainId, home: DomainId, now: Cycles, n: u32 },
    /// A delivered sample (the PMU's skid expired at this op). Values are
    /// final except when the thread's fix slot holds a correction for a
    /// sample tagged on a deferred access.
    Sample { tid: u32, s: Box<SampleEv> },
    /// A `store_val` value write, applied to the process value map in
    /// commit order (last writer in simulated time wins).
    Val { rank_local: u32, addr: u64, val: i64 },
    /// The thread stopped at a serialized statement, its own end or a
    /// region exit; the commit folds its carry and runs the commit-side
    /// interpreter.
    Park { tid: u32 },
}

/// An event plus its total-order key.
struct Keyed {
    key: EpochKey,
    ev: Ev,
}

/// Per-shard working set for one epoch: the threads routed to this shard
/// (with their scheduler slot index), the events they emitted, the
/// shard-local value-write overlay and a scratch buffer for call
/// arguments. Kept across epochs so the allocations are reused.
#[derive(Default)]
struct ShardRun<'p> {
    threads: Vec<(usize, ThreadState<'p>)>,
    events: Vec<Keyed>,
    /// `(rank_local, addr)` → value written this epoch by this shard's
    /// threads. Same-shard reads see it immediately; cross-shard reads
    /// see the committed map (at most one epoch stale — the store-buffer
    /// analogy the machine's version overlay also applies).
    vals: FxHashMap<(u32, u64), i64>,
    scratch: Vec<i64>,
}

/// Read-only context shared by every shard during the parallel phase.
struct ShardCtx<'a, 'p> {
    program: &'p Program,
    cfg: &'a SimConfig,
    processes: &'a [ProcessState],
    num_ranks_total: u32,
    overlap: Overlap,
    epoch_end: Cycles,
}

/// The memory-level-parallelism divisor `cost.mem_overlap.max(1)`: a
/// thread's clock advances by `latency / div` per access.
#[derive(Clone, Copy)]
struct Overlap {
    div: u32,
    /// `log2(div)` when it is a power of two (the default is 2): the hot
    /// path then shifts instead of dividing (unsigned division and shift
    /// agree exactly).
    shift: Option<u32>,
}

impl Overlap {
    fn new(mem_overlap: u32) -> Self {
        let div = mem_overlap.max(1);
        Self { div, shift: div.is_power_of_two().then(|| div.trailing_zeros()) }
    }

    #[inline]
    fn of(self, latency: u32) -> Cycles {
        match self.shift {
            Some(s) => (latency >> s) as Cycles,
            None => (latency / self.div) as Cycles,
        }
    }
}

/// Fold a signed carry into a clock, saturating at zero (a negative
/// correction larger than the clock cannot occur in practice — the carry
/// is bounded by optimistic-vs-actual latency differences — but the
/// scheduler must not wrap).
fn add_carry(clock: Cycles, carry: i64) -> Cycles {
    if carry >= 0 {
        clock + carry as Cycles
    } else {
        clock.saturating_sub(carry.unsigned_abs())
    }
}

/// Statements the shards cannot execute: they mutate node-shared state
/// (allocator, page-table policies, team/fork bookkeeping, phase records,
/// module tables) and therefore run commit-side, in event order.
fn is_serialized(kind: &Stmt) -> bool {
    matches!(
        kind,
        Stmt::Alloc { .. }
            | Stmt::Free { .. }
            | Stmt::Realloc { .. }
            | Stmt::Brk { .. }
            | Stmt::Parallel { .. }
            | Stmt::OmpBarrier
            | Stmt::MpiBarrier
            | Stmt::MpiExchange { .. }
            | Stmt::PhaseBegin(_)
            | Stmt::PhaseEnd(_)
            | Stmt::DlOpen(_)
            | Stmt::DlClose(_)
    )
}

/// Will the thread's next fetch hit another serialized statement (or the
/// end of its work)? Used by the commit phase to keep stepping a parked
/// thread serially instead of bouncing it through near-empty epochs.
fn next_is_serialized(th: &ThreadState) -> bool {
    match th.ctrl.last() {
        None => true,
        Some(c) => {
            if c.idx < c.stmts.len() {
                is_serialized(&c.stmts[c.idx].kind)
            } else {
                matches!(c.exit, Exit::Region)
            }
        }
    }
}

/// One simulated node: a machine plus the processes and threads pinned to
/// it.
pub struct NodeSim<'p, O: NodeObserver> {
    program: &'p Program,
    cfg: SimConfig,
    machine: Machine,
    processes: Vec<ProcessState>,
    /// Thread slots; `None` only while a thread is checked out to a shard
    /// during the parallel phase of an epoch.
    threads: Vec<Option<ThreadState<'p>>>,
    teams: Vec<Team>,
    observer: O,
    phases: Vec<PhaseRecord>,
    mpi_blocked: Vec<usize>,
    net_blocked: Vec<NetPending>,
    /// Cycles rank mains spent blocked in exchanges (communication wait).
    net_wait: Cycles,
    /// Exchanges issued on this node.
    exchanges: u64,
    pmu_pool: FxHashMap<(usize, u32), Pmu>,
    /// Per-domain epoch working sets, reused across epochs.
    epoch_runs: Vec<ShardRun<'p>>,
    /// Merged event buffer, reused across epochs.
    event_buf: Vec<Keyed>,
    overlap: Overlap,
    num_ranks_total: u32,
    hw_per_rank: u32,
    live_mains: usize,
}

impl<'p, O: NodeObserver> NodeSim<'p, O> {
    /// Create a node hosting `node_ranks` (global rank ids) of a world
    /// with `num_ranks_total` ranks.
    pub fn new(
        program: &'p Program,
        cfg: SimConfig,
        node_ranks: &[u32],
        num_ranks_total: u32,
        observer: O,
    ) -> Self {
        assert!(!node_ranks.is_empty());
        let machine = Machine::new(cfg.machine.clone());
        let hw = cfg.machine.topology.hw_threads();
        let hw_per_rank = (hw / node_ranks.len() as u32).max(1);
        let mut sim = Self {
            program,
            machine,
            processes: Vec::new(),
            threads: Vec::new(),
            teams: Vec::new(),
            observer,
            phases: Vec::new(),
            mpi_blocked: Vec::new(),
            net_blocked: Vec::new(),
            net_wait: 0,
            exchanges: 0,
            pmu_pool: FxHashMap::default(),
            epoch_runs: Vec::new(),
            event_buf: Vec::new(),
            overlap: Overlap::new(cfg.cost.mem_overlap),
            num_ranks_total,
            hw_per_rank,
            live_mains: node_ranks.len(),
            cfg,
        };
        for (i, &rank) in node_ranks.iter().enumerate() {
            let mut pt = PageTable::new(
                sim.cfg.machine.page_size,
                sim.cfg.machine.topology.domains,
            );
            pt.set_default_policy(sim.cfg.default_policy);
            let mut ps = ProcessState {
                page_table: pt,
                allocator: HeapAllocator::new(),
                values: FxHashMap::default(),
                loaded: vec![false; program.modules.len()],
                phase_stack: Vec::new(),
            };
            for (mid, m) in program.modules.iter().enumerate() {
                if m.load_at_start {
                    ps.loaded[mid] = true;
                    sim.observer.on_module(&ModuleEvent::Loaded {
                        module: crate::ir::ModuleId(mid as u16),
                        def: m,
                        rank,
                    });
                }
            }
            sim.processes.push(ps);
            // Rank main thread.
            let core = sim.pin(i, 0);
            let entry = program.entry;
            let mut th = ThreadState {
                rank,
                rank_local: i,
                thread: 0,
                core,
                domain: sim.cfg.machine.topology.domain_of(core),
                clock: 0,
                status: Status::Runnable,
                frames: Vec::new(),
                locals: Vec::new(),
                view: Vec::new(),
                ctrl: Vec::new(),
                pmu: sim.make_pmu(i, 0),
                team: None,
                team_size: 1,
                ops: 0,
                next_token: 0,
                stack_top: STACK_BASE,
                seq: 0,
                carry: 0,
                fix: None,
            };
            th.push_frame(entry, program.proc(entry).n_locals, &[], None, None);
            th.ctrl.push(Ctrl { stmts: &program.proc(entry).body, idx: 0, exit: Exit::Frame });
            sim.threads.push(Some(th));
        }
        sim
    }

    /// Pin software thread `thread` of local rank `rank_local` to a
    /// hardware thread. Each rank owns a contiguous window of hardware
    /// threads; within the window threads are *spread* across the NUMA
    /// domains the window covers (round-robin by domain, then by slot),
    /// matching `OMP_PROC_BIND=spread`. The master (thread 0) always
    /// lands on the window's first domain — which is why master-thread
    /// first-touch concentrates pages there.
    fn pin(&self, rank_local: usize, thread: u32) -> CoreId {
        let topo = &self.cfg.machine.topology;
        let hw = topo.hw_threads();
        let per_domain = topo.cores_per_domain * topo.smt;
        let window = self.hw_per_rank;
        let base = rank_local as u32 * window;
        let off = if window > per_domain {
            let ndom = window / per_domain;
            let d = thread % ndom;
            let slot = (thread / ndom) % per_domain;
            d * per_domain + slot
        } else {
            thread % window
        };
        CoreId((base + off) % hw)
    }

    fn make_pmu(&mut self, rank_local: usize, thread: u32) -> Option<Pmu> {
        let cfg = self.cfg.pmu?;
        Some(self.pmu_pool.remove(&(rank_local, thread)).unwrap_or_else(|| {
            let seed = self
                .cfg
                .pmu_seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add((rank_local as u64) << 20)
                .wrapping_add(thread as u64);
            Pmu::new(cfg, seed)
        }))
    }

    /// Run until every thread is done or blocked on MPI (barrier or
    /// exchange). Exchange blocking wins the summary: the world must move
    /// payloads before any co-blocked barrier can possibly complete.
    pub fn run_until_quiescent(&mut self) -> Quiescence {
        while self.run_epoch() {}
        if !self.net_blocked.is_empty() {
            Quiescence::NetBlocked { pending: self.net_blocked.len() }
        } else if self.mpi_blocked.is_empty() {
            Quiescence::AllDone
        } else {
            let max_clock = self
                .mpi_blocked
                .iter()
                .map(|&t| self.threads[t].as_ref().expect("live thread").clock)
                .max()
                .unwrap_or(0);
            Quiescence::MpiBlocked { waiting: self.mpi_blocked.len(), max_clock }
        }
    }

    /// Release every rank main blocked at the MPI barrier; they resume at
    /// `release_clock` (the global barrier time) plus the barrier cost.
    pub fn mpi_release(&mut self, release_clock: Cycles) {
        let cost = self.cfg.cost.mpi_barrier;
        for tid in std::mem::take(&mut self.mpi_blocked) {
            let th = self.threads[tid].as_mut().expect("live thread");
            th.clock = release_clock + cost;
            th.status = Status::Runnable;
        }
    }

    /// Rank mains currently parked in MPI exchanges (world loop input).
    pub fn net_pending(&self) -> &[NetPending] {
        &self.net_blocked
    }

    /// Release one exchange-parked rank main: its payload (and the
    /// peer's) has arrived at `release_clock`.
    pub fn net_release(&mut self, tid: usize, release_clock: Cycles) {
        let idx = self
            .net_blocked
            .iter()
            .position(|p| p.tid == tid)
            .expect("net_release of a thread that is not exchange-blocked");
        let p = self.net_blocked.swap_remove(idx);
        self.net_wait += release_clock.saturating_sub(p.clock);
        let th = self.threads[tid].as_mut().expect("live thread");
        debug_assert_eq!(th.status, Status::BlockedNet);
        th.clock = th.clock.max(release_clock);
        th.status = Status::Runnable;
    }

    /// Rank mains waiting at the MPI barrier.
    pub fn barrier_waiting(&self) -> usize {
        self.mpi_blocked.len()
    }

    /// This node's barrier arrival time: max clock among its waiters.
    pub fn barrier_arrival(&self) -> Cycles {
        self.mpi_blocked
            .iter()
            .map(|&t| self.threads[t].as_ref().expect("live thread").clock)
            .max()
            .unwrap_or(0)
    }

    /// Cycles rank mains spent blocked in exchanges.
    pub fn net_wait(&self) -> Cycles {
        self.net_wait
    }

    /// Exchanges issued on this node.
    pub fn exchange_count(&self) -> u64 {
        self.exchanges
    }

    /// Largest clock reached by any thread (node wall time).
    pub fn max_clock(&self) -> Cycles {
        self.threads.iter().flatten().map(|t| t.clock).max().unwrap_or(0)
    }

    /// Total retired ops across all threads.
    pub fn total_ops(&self) -> u64 {
        self.threads.iter().flatten().map(|t| t.ops).sum()
    }

    /// Phase records collected so far.
    pub fn phases(&self) -> &[PhaseRecord] {
        &self.phases
    }

    /// The simulated machine (read access for stats).
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// The attached observer.
    pub fn observer(&self) -> &O {
        &self.observer
    }

    /// Take the observer out after the run.
    pub fn into_observer(self) -> O {
        self.observer
    }

    /// Are any rank mains still alive (not Done)?
    pub fn live_mains(&self) -> usize {
        self.live_mains
    }

    /// Per-rank-local allocation/free counts (diagnostics).
    pub fn alloc_counts(&self, rank_local: usize) -> (u64, u64) {
        self.processes[rank_local].allocator.counts()
    }

    // ---------------------------------------------------------------
    // The epoch loop
    // ---------------------------------------------------------------

    /// Run one epoch: route runnable threads to their domain shards, run
    /// the shards (in parallel when the host pool has workers), then
    /// commit every emitted event in `(cycle, thread, seq)` order.
    /// Returns `false` when no thread was runnable (quiescence).
    fn run_epoch(&mut self) -> bool {
        let window = self.cfg.window();
        let Some(min) = self
            .threads
            .iter()
            .flatten()
            .filter(|t| t.status == Status::Runnable)
            .map(|t| t.clock)
            .min()
        else {
            return false;
        };
        let epoch_end = (min / window + 1) * window;

        let domains = self.cfg.machine.topology.domains as usize;
        if self.epoch_runs.len() != domains {
            self.epoch_runs.resize_with(domains, ShardRun::default);
        }
        for tid in 0..self.threads.len() {
            let eligible = matches!(
                &self.threads[tid],
                Some(th) if th.status == Status::Runnable && th.clock < epoch_end
            );
            if eligible {
                let th = self.threads[tid].take().expect("just matched");
                self.epoch_runs[th.domain.0 as usize].threads.push((tid, th));
            }
        }

        // Parallel phase: one shard per NUMA domain, each advancing its
        // threads against the frozen snapshot. With zero host workers
        // `par_map_mut` runs the shards sequentially in shard order —
        // the committed event order is identical either way because every
        // event carries a simulated-time key.
        {
            let Self {
                machine,
                epoch_runs,
                processes,
                program,
                cfg,
                num_ranks_total,
                overlap,
                ..
            } = self;
            let cx = ShardCtx {
                program,
                cfg,
                processes: processes.as_slice(),
                num_ranks_total: *num_ranks_total,
                overlap: *overlap,
                epoch_end,
            };
            let (fz, mshards) = machine.split_epoch();
            let mut paired: Vec<(&mut ShardRun<'p>, MachineShard<'_>)> =
                epoch_runs.iter_mut().zip(mshards).collect();
            pool::par_map_mut(&mut paired, |(run, shard)| run_shard(run, shard, &fz, &cx));
            let stats: Vec<MachineStats> =
                paired.iter().map(|(_, sh)| sh.stats.clone()).collect();
            drop(paired);

            for s in &stats {
                machine.merge_stats(s);
            }
        }

        // Reclaim threads and gather events.
        for run in &mut self.epoch_runs {
            for (tid, th) in run.threads.drain(..) {
                self.threads[tid] = Some(th);
            }
            run.vals.clear();
            self.event_buf.append(&mut run.events);
        }
        // Keys are unique — (clock, tid, seq) with a per-thread monotonic
        // seq — so this order is total and host-independent.
        self.event_buf.sort_unstable_by_key(|k| k.key);

        // Commit phase: shared-state interactions happen here, alone, in
        // simulated-time order.
        let events = std::mem::take(&mut self.event_buf);
        self.commit_events(&events);
        self.event_buf = events;
        self.event_buf.clear();
        self.machine.commit_epoch_versions();

        // Fold any carry not consumed by a Park event.
        for th in self.threads.iter_mut().flatten() {
            if th.carry != 0 {
                th.clock = add_carry(th.clock, th.carry);
                th.carry = 0;
            }
        }
        true
    }

    /// Apply one epoch's sorted events to the node-shared state.
    fn commit_events(&mut self, events: &[Keyed]) {
        let overlap = self.overlap;
        for k in events {
            match &k.ev {
                Ev::Mem { tid, addr, d, opt_latency, tagged } => {
                    let t = *tid as usize;
                    let (rank_local, domain) = {
                        let th = self.threads[t].as_ref().expect("live thread");
                        (th.rank_local, th.domain)
                    };
                    // The shard priced the access against a *predicted*
                    // placement; the authoritative first touch happens
                    // here, in commit order.
                    let mut d = *d;
                    d.home = self.processes[rank_local].page_table.touch(*addr, domain);
                    let (latency, source) = self.machine.commit_access(&d);
                    let extra =
                        overlap.of(latency) as i64 - overlap.of(*opt_latency) as i64;
                    let th = self.threads[t].as_mut().expect("live thread");
                    th.carry += extra;
                    if *tagged {
                        // The pending sample captured the optimistic
                        // values; patch it when it is delivered.
                        th.fix = Some((latency, source));
                    }
                }
                Ev::Fill { domain, line, version } => {
                    self.machine.commit_l3_fill(*domain, *line, *version);
                }
                Ev::Pf { from, home, now, n } => {
                    self.machine.commit_prefetches(*from, *home, *now, *n);
                }
                Ev::Sample { tid, s } => {
                    let th = self.threads[*tid as usize].as_mut().expect("live thread");
                    let view = ThreadView {
                        rank: th.rank,
                        thread: th.thread,
                        core: th.core,
                        clock: s.clock,
                        frames: &s.frames,
                        leaf_ip: s.leaf,
                    };
                    let fix = th.fix.take();
                    th.carry += deliver_sample(&mut self.observer, s.sample, fix, &view) as i64;
                }
                Ev::Val { rank_local, addr, val } => {
                    self.processes[*rank_local as usize].values.insert(*addr, *val);
                }
                Ev::Park { tid } => {
                    let t = *tid as usize;
                    {
                        let th = self.threads[t].as_mut().expect("live thread");
                        debug_assert_eq!(th.status, Status::Parked);
                        th.clock = add_carry(th.clock, th.carry);
                        th.carry = 0;
                        th.status = Status::Runnable;
                    }
                    // Execute the serialized statement — and keep going
                    // while the thread stays on serialized statements, so
                    // e.g. a run of allocations completes in one commit.
                    loop {
                        if let StepOut::Yield = self.step(t) {
                            break;
                        }
                        let th = self.threads[t].as_ref().expect("live thread");
                        if th.status != Status::Runnable || !next_is_serialized(th) {
                            break;
                        }
                    }
                }
            }
        }
    }

    // ---------------------------------------------------------------
    // Commit-side stepping
    // ---------------------------------------------------------------

    fn step(&mut self, tid: usize) -> StepOut {
        let action = self.exec_one(tid);
        match action {
            Action::Ran => StepOut::Ran,
            Action::ThreadDone => {
                self.finish_thread(tid);
                StepOut::Yield
            }
            Action::RegionEnd => {
                let team_id =
                    self.threads[tid].as_ref().expect("live thread").team.expect("region end outside team");
                let outstanding = self.teams[team_id].outstanding;
                if outstanding > 0 {
                    self.threads[tid].as_mut().expect("live thread").status = Status::BlockedJoin;
                    StepOut::Yield
                } else {
                    self.complete_join(tid, team_id);
                    StepOut::Ran
                }
            }
            Action::Fork { outlined, args, n, site } => {
                self.fork_region(tid, outlined, &args, n, site);
                StepOut::Ran
            }
            Action::OmpBarrier => self.omp_barrier(tid),
            Action::MpiBarrier => {
                self.threads[tid].as_mut().expect("live thread").status = Status::BlockedMpi;
                self.mpi_blocked.push(tid);
                StepOut::Yield
            }
            Action::MpiExchange { peer, bytes } => {
                let (rank, clock) = {
                    let th = self.threads[tid].as_mut().expect("live thread");
                    th.status = Status::BlockedNet;
                    (th.rank, th.clock)
                };
                self.net_blocked.push(NetPending { tid, rank, peer, bytes, clock });
                self.exchanges += 1;
                StepOut::Yield
            }
        }
    }

    fn finish_thread(&mut self, tid: usize) {
        let (rank, thread, clock, rank_local, team) = {
            let th = self.threads[tid].as_mut().expect("live thread");
            th.status = Status::Done;
            (th.rank, th.thread, th.clock, th.rank_local, th.team)
        };
        self.observer.on_thread_exit(rank, thread, clock);
        // Return the PMU to the pool so a future region's thread with the
        // same id continues the same sampling stream.
        if let Some(pmu) = self.threads[tid].as_mut().expect("live thread").pmu.take() {
            self.pmu_pool.insert((rank_local, thread), pmu);
        }
        if thread == 0 {
            self.live_mains -= 1;
            return;
        }
        // Worker: update its team; possibly wake the joining master.
        let team_id = team.expect("worker without team");
        let t = &mut self.teams[team_id];
        t.outstanding -= 1;
        t.join_max = t.join_max.max(clock);
        if t.outstanding == 0 {
            let master = t.master;
            if self.threads[master].as_ref().expect("live thread").status == Status::BlockedJoin {
                self.complete_join(master, team_id);
                self.threads[master].as_mut().expect("live thread").status = Status::Runnable;
            }
        }
    }

    fn complete_join(&mut self, master: usize, team_id: usize) {
        let join_max = self.teams[team_id].join_max;
        let th = self.threads[master].as_mut().expect("live thread");
        th.clock = th.clock.max(join_max) + self.cfg.cost.join as Cycles;
        th.team = None;
        th.team_size = 1;
    }

    fn fork_region(&mut self, master_tid: usize, outlined: ProcId, args: &[i64], n: u32, site: Ip) {
        let n = n.max(1);
        let team_id = self.teams.len();
        let proc = self.program.proc(outlined);
        // Master enters the region as thread 0 of the team.
        {
            let th = self.threads[master_tid].as_mut().expect("live thread");
            th.clock += self.cfg.cost.fork_master as Cycles;
            th.push_frame(outlined, proc.n_locals, args, Some(site), None);
            th.team = Some(team_id);
            th.team_size = n;
        }
        let (master_view, master_next_token, rank, rank_local, master_clock) = {
            let th = self.threads[master_tid].as_mut().expect("live thread");
            th.ctrl.push(Ctrl { stmts: &proc.body, idx: 0, exit: Exit::Region });
            (th.view.clone(), th.next_token, th.rank, th.rank_local, th.clock)
        };
        for t in 1..n {
            let core = self.pin(rank_local, t);
            let pmu = self.make_pmu(rank_local, t);
            // Workers inherit the master's calling context at the fork
            // point (context stitching), so merged CCTs show worker
            // samples under the parallel region's full path.
            let mut view = master_view.clone();
            view.pop(); // drop the master's own outlined entry; worker pushes its own
            let mut th = ThreadState {
                rank,
                rank_local,
                thread: t,
                core,
                domain: self.cfg.machine.topology.domain_of(core),
                clock: master_clock + self.cfg.cost.fork_worker as Cycles,
                status: Status::Runnable,
                frames: Vec::new(),
                locals: Vec::new(),
                view,
                ctrl: Vec::new(),
                pmu,
                team: Some(team_id),
                team_size: n,
                ops: 0,
                next_token: master_next_token,
                stack_top: STACK_BASE + t as u64 * STACK_WINDOW,
                seq: 0,
                carry: 0,
                fix: None,
            };
            th.push_frame(outlined, proc.n_locals, args, Some(site), None);
            th.ctrl.push(Ctrl { stmts: &proc.body, idx: 0, exit: Exit::Frame });
            self.threads.push(Some(th));
        }
        self.teams.push(Team {
            master: master_tid,
            outstanding: n - 1,
            join_max: 0,
            barrier_waiters: Vec::new(),
            size: n,
        });
    }

    fn omp_barrier(&mut self, tid: usize) -> StepOut {
        let team_id = self.threads[tid]
            .as_ref()
            .expect("live thread")
            .team
            .expect("omp barrier outside a parallel region");
        self.teams[team_id].barrier_waiters.push(tid);
        if (self.teams[team_id].barrier_waiters.len() as u32) < self.teams[team_id].size {
            self.threads[tid].as_mut().expect("live thread").status = Status::BlockedOmpBarrier;
            return StepOut::Yield;
        }
        // Last arriver releases everyone at the max clock.
        let waiters = std::mem::take(&mut self.teams[team_id].barrier_waiters);
        let max_clock = waiters
            .iter()
            .map(|&t| self.threads[t].as_ref().expect("live thread").clock)
            .max()
            .expect("non-empty");
        let release = max_clock + self.cfg.cost.omp_barrier as Cycles;
        for &w in &waiters {
            let th = self.threads[w].as_mut().expect("live thread");
            th.clock = release;
            if w != tid {
                th.status = Status::Runnable;
            }
        }
        StepOut::Ran
    }

    /// Execute, on `tid`, what its shard parked on: one serialized
    /// statement, the end of the thread, or the end of a parallel region
    /// the thread runs as master. Every other statement and block exit
    /// runs shard-side ([`run_thread`]). This is the commit-side
    /// interpreter: it may touch any node-shared state directly
    /// (allocator, page table, serial machine pipeline, observer) because
    /// commits are strictly sequential.
    fn exec_one(&mut self, tid: usize) -> Action {
        let overlap = self.overlap;
        let Self {
            program,
            cfg,
            machine,
            processes,
            threads,
            observer,
            phases,
            num_ranks_total,
            ..
        } = self;
        let th = threads[tid].as_mut().expect("live thread");
        let proc_table = &program.procs;

        // --- Phase A: fetch the statement, or take the exit parked on. ---
        let Some(ctrl) = th.ctrl.last_mut() else {
            return Action::ThreadDone;
        };
        let stmts: &'p [Spanned] = ctrl.stmts;
        let Some(spanned) = stmts.get(ctrl.idx) else {
            assert!(
                matches!(ctrl.exit, Exit::Region),
                "{:?} block exit reached the commit side",
                ctrl.exit
            );
            th.ctrl.pop();
            th.pop_frame(None);
            return Action::RegionEnd;
        };
        ctrl.idx += 1;

        let cur_proc = th.frames.last().expect("no frame").proc;
        let ip = Ip::new(proc_table[cur_proc.0 as usize].module, cur_proc, spanned.uid);
        let process = &mut processes[th.rank_local];
        let ectx = EvalCtx {
            omp_tid: th.thread as i64,
            team_size: th.team_size as i64,
            rank: th.rank as i64,
            num_ranks: *num_ranks_total as i64,
        };

        macro_rules! deliver {
            ($sample:expr) => {{
                let fix = th.fix.take();
                let overhead = deliver_sample(observer, $sample, fix, &th.view_at(ip));
                th.clock += overhead;
            }};
        }
        macro_rules! quiet_ops {
            ($n:expr) => {{
                let n: u64 = $n;
                th.ops += n;
                if let Some(pmu) = th.pmu.as_mut() {
                    if let Some(s) = pmu.observe_quiet(n, ip.0, th.core) {
                        deliver!(s);
                    }
                }
            }};
        }
        // One store through the serial pipeline, fed to the PMU.
        macro_rules! commit_store {
            ($addr:expr, $res:expr) => {{
                if let Some(pmu) = th.pmu.as_mut() {
                    let op = OpRecord { ip: ip.0, core: th.core, mem: Some((&$res, $addr, true)) };
                    if let Some(s) = pmu.observe_op(op) {
                        deliver!(s);
                    }
                }
            }};
        }

        // --- Phase B: execute the serialized statement. ---
        match &spanned.kind {
            Stmt::Alloc { dst, bytes, kind, policy } => {
                let bytes = eval(bytes, th.locals(), &ectx);
                assert!(bytes > 0, "non-positive allocation size");
                let local = process.allocator.malloc(bytes as u64);
                let gaddr = layout::global(th.rank, local);
                let class = process.allocator.size_of(local).expect("just allocated");
                if let Some(p) = policy {
                    process.page_table.set_range_policy(gaddr, class, *p);
                }
                th.set_local(*dst, gaddr as i64);
                th.clock += cfg.cost.alloc_base as Cycles;
                quiet_ops!(4);
                let zeroed = *kind == AllocKind::Calloc;
                let ev = AllocEvent { addr: gaddr, bytes: bytes as u64, zeroed, ip };
                let overhead = observer.on_alloc(&ev, &th.view_at(ip));
                th.clock += overhead;
                if zeroed {
                    // Zero-fill: the allocating thread stores to every
                    // line, first-touching every page.
                    let line = cfg.machine.line_size;
                    let lines = (bytes as u64).div_ceil(line);
                    let domain = th.domain;
                    for li in 0..lines {
                        let a = gaddr + li * line;
                        let home = process.page_table.touch(a, domain);
                        let res =
                            machine.access(th.core, a, AccessKind::Store, home, ip.0, th.clock);
                        th.clock += overlap.of(res.latency) + cfg.cost.op as Cycles;
                        th.ops += 1;
                        commit_store!(a, res);
                    }
                }
            }
            Stmt::Free { ptr } => {
                let gaddr = eval(ptr, th.locals(), &ectx);
                assert!(gaddr > 0, "free of null/negative pointer");
                let gaddr = gaddr as u64;
                let local = layout::local_of(gaddr);
                let class = process.allocator.free(local);
                process.page_table.clear_range_policy(gaddr);
                th.clock += cfg.cost.free_base as Cycles;
                quiet_ops!(2);
                let ev = FreeEvent { addr: gaddr, bytes: class, ip };
                let overhead = observer.on_free(&ev, &th.view_at(ip));
                th.clock += overhead;
            }
            Stmt::Realloc { dst, ptr, bytes } => {
                let gaddr = eval(ptr, th.locals(), &ectx);
                assert!(gaddr > 0, "realloc of null/negative pointer");
                let gaddr = gaddr as u64;
                let new_bytes = eval(bytes, th.locals(), &ectx);
                assert!(new_bytes > 0, "non-positive realloc size");
                let local = layout::local_of(gaddr);
                let (new_local, old_class, _new_class) =
                    process.allocator.realloc(local, new_bytes as u64);
                let new_gaddr = layout::global(th.rank, new_local);
                th.set_local(*dst, new_gaddr as i64);
                th.clock += cfg.cost.alloc_base as Cycles;
                quiet_ops!(4);
                // The profiler sees realloc as free(old) + malloc(new),
                // which is how real wrappers decompose it.
                if new_gaddr != gaddr {
                    let ev = FreeEvent { addr: gaddr, bytes: old_class, ip };
                    let overhead = observer.on_free(&ev, &th.view_at(ip));
                    th.clock += overhead;
                    let ev =
                        AllocEvent { addr: new_gaddr, bytes: new_bytes as u64, zeroed: false, ip };
                    let overhead = observer.on_alloc(&ev, &th.view_at(ip));
                    th.clock += overhead;
                    // Copy min(old, new) bytes, line by line: real loads
                    // and stores through the hierarchy.
                    let line = cfg.machine.line_size;
                    let copy = old_class.min(new_bytes as u64);
                    let domain = th.domain;
                    for li in 0..copy.div_ceil(line) {
                        let src = gaddr + li * line;
                        let dst_a = new_gaddr + li * line;
                        let home_s = process.page_table.touch(src, domain);
                        let r1 =
                            machine.access(th.core, src, AccessKind::Load, home_s, ip.0, th.clock);
                        th.clock += overlap.of(r1.latency) + 1;
                        let home_d = process.page_table.touch(dst_a, domain);
                        let r2 = machine
                            .access(th.core, dst_a, AccessKind::Store, home_d, ip.0, th.clock);
                        th.clock += overlap.of(r2.latency) + 1;
                        th.ops += 2;
                        commit_store!(dst_a, r2);
                    }
                }
            }
            Stmt::Brk { dst, bytes } => {
                let bytes = eval(bytes, th.locals(), &ectx);
                assert!(bytes > 0);
                let local = process.allocator.brk(bytes as u64);
                th.set_local(*dst, layout::global(th.rank, local) as i64);
                th.clock += cfg.cost.brk_base as Cycles;
                quiet_ops!(2);
            }
            Stmt::Parallel { outlined, args, num_threads } => {
                assert!(th.team.is_none(), "nested parallel regions are not supported");
                let n = num_threads
                    .as_ref()
                    .map(|e| eval(e, th.locals(), &ectx) as u32)
                    .unwrap_or(cfg.omp_threads)
                    .max(1);
                let vals: Vec<i64> = args.iter().map(|a| eval(a, th.locals(), &ectx)).collect();
                assert!(
                    vals.len() == proc_table[outlined.0 as usize].n_params as usize,
                    "arity mismatch forking {}",
                    proc_table[outlined.0 as usize].name
                );
                return Action::Fork { outlined: *outlined, args: vals, n, site: ip };
            }
            Stmt::OmpBarrier => return Action::OmpBarrier,
            Stmt::MpiBarrier => {
                assert!(th.thread == 0, "MPI barrier must be called by the rank main thread");
                assert!(th.team.is_none(), "MPI barrier inside a parallel region");
                return Action::MpiBarrier;
            }
            Stmt::MpiExchange { peer, bytes } => {
                assert!(th.thread == 0, "MPI exchange must be called by the rank main thread");
                assert!(th.team.is_none(), "MPI exchange inside a parallel region");
                let p = eval(peer, th.locals(), &ectx);
                let b = eval(bytes, th.locals(), &ectx).max(0) as u64;
                assert!(
                    p >= 0 && p < ectx.num_ranks,
                    "exchange peer {p} out of range (world has {} ranks)",
                    ectx.num_ranks
                );
                assert!(p as u32 != th.rank, "rank {} exchanging with itself", th.rank);
                th.clock += 2 * cfg.cost.op as Cycles;
                quiet_ops!(2);
                return Action::MpiExchange { peer: p as u32, bytes: b };
            }
            Stmt::PhaseBegin(name) => {
                process.phase_stack.push((name, th.clock));
            }
            Stmt::PhaseEnd(name) => {
                let (n, begin) = process.phase_stack.pop().expect("PhaseEnd without begin");
                assert_eq!(n, *name, "mismatched phase nesting");
                phases.push(PhaseRecord { rank: th.rank, name, begin, end: th.clock });
            }
            Stmt::DlOpen(m) => {
                let already = std::mem::replace(&mut process.loaded[m.0 as usize], true);
                assert!(!already, "module loaded twice");
                th.clock += cfg.cost.dl as Cycles;
                observer.on_module(&ModuleEvent::Loaded {
                    module: *m,
                    def: &program.modules[m.0 as usize],
                    rank: th.rank,
                });
            }
            Stmt::DlClose(m) => {
                let was = std::mem::replace(&mut process.loaded[m.0 as usize], false);
                assert!(was, "module closed while not loaded");
                th.clock += cfg.cost.dl as Cycles;
                observer.on_module(&ModuleEvent::Unloaded { module: *m, rank: th.rank });
            }
            kind => unreachable!("shard-safe statement reached the commit side: {kind:?}"),
        }
        Action::Ran
    }
}

/// Deliver one commit-side sample through the observer, returning the
/// handler's overhead. `fix` is the thread's fix slot: when the sample
/// was tagged on a deferred access, the committed latency and source
/// replace the optimistic capture, and a marked-event sample whose
/// committed source no longer matches the armed event is dropped — the
/// serial pipeline would never have tagged it.
fn deliver_sample<O: NodeObserver>(
    observer: &mut O,
    mut s: Sample,
    fix: Option<(u32, DataSource)>,
    view: &ThreadView<'_>,
) -> Cycles {
    if let Some((latency, source)) = fix {
        s.latency = latency;
        s.source = Some(source);
        if let SampleOrigin::Marked(ev) = s.origin {
            if !ev.matches(source) {
                return 0;
            }
        }
    }
    observer.on_sample(&s, view)
}

// -------------------------------------------------------------------
// Shard-side execution (the parallel phase)
// -------------------------------------------------------------------

/// Run every thread routed to this shard for the epoch, in `(clock, tid)`
/// order — the same order the serial scheduler would have picked them up
/// in, so a zero-worker pool reproduces the parallel schedule exactly.
fn run_shard<'p>(
    run: &mut ShardRun<'p>,
    shard: &mut MachineShard<'_>,
    fz: &FrozenNode<'_>,
    cx: &ShardCtx<'_, 'p>,
) {
    let ShardRun { threads, events, vals, scratch } = run;
    threads.sort_unstable_by_key(|(tid, th)| (th.clock, *tid));
    for (tid, th) in threads.iter_mut() {
        run_thread(*tid, th, shard, fz, events, vals, scratch, cx);
    }
}

/// Advance one thread until its clock crosses the epoch end or it parks
/// on a serialized statement, its own end or a region exit. This is the
/// only interpreter of shard-safe statements and block exits; every
/// shared-state touch becomes a keyed event, and the commit side
/// ([`NodeSim::exec_one`]) runs what the thread parks on.
#[allow(clippy::too_many_arguments, clippy::too_many_lines)]
fn run_thread<'p>(
    tid: usize,
    th: &mut ThreadState<'p>,
    shard: &mut MachineShard<'_>,
    fz: &FrozenNode<'_>,
    events: &mut Vec<Keyed>,
    vals: &mut FxHashMap<(u32, u64), i64>,
    scratch: &mut Vec<i64>,
    cx: &ShardCtx<'_, 'p>,
) {
    let cfg = cx.cfg;
    let proc_table = &cx.program.procs;
    let process = &cx.processes[th.rank_local];
    let tkey = tid as u32;
    let rl = th.rank_local as u32;
    let overlap = cx.overlap;
    let ectx = EvalCtx {
        omp_tid: th.thread as i64,
        team_size: th.team_size as i64,
        rank: th.rank as i64,
        num_ranks: cx.num_ranks_total as i64,
    };

    macro_rules! park {
        () => {{
            th.status = Status::Parked;
            th.seq += 1;
            events.push(Keyed { key: (th.clock, tkey, th.seq), ev: Ev::Park { tid: tkey } });
            return;
        }};
    }
    macro_rules! emit_sample {
        ($s:expr, $leaf:expr) => {{
            th.seq += 1;
            events.push(Keyed {
                key: (th.clock, tkey, th.seq),
                ev: Ev::Sample {
                    tid: tkey,
                    s: Box::new(SampleEv {
                        sample: $s,
                        frames: th.view.clone(),
                        leaf: $leaf,
                        clock: th.clock,
                    }),
                },
            });
        }};
    }

    'run: while th.clock < cx.epoch_end {
        // --- Phase A: advance the cursor to the next statement. ---
        let spanned: &'p Spanned = loop {
            let Some(ctrl) = th.ctrl.last_mut() else {
                // Thread finished: the commit runs the exit bookkeeping.
                park!();
            };
            if ctrl.idx < ctrl.stmts.len() {
                let s = &ctrl.stmts[ctrl.idx];
                ctrl.idx += 1;
                break s;
            }
            match ctrl.exit {
                Exit::Seq => {
                    th.ctrl.pop();
                }
                Exit::Loop { var, end, step } => {
                    let v = th.local(var) + step;
                    th.set_local(var, v);
                    let cont = if step > 0 { v < end } else { v > end };
                    th.clock += cfg.cost.op as Cycles;
                    th.ops += 1;
                    if cont {
                        let c = th.ctrl.last_mut().expect("just checked");
                        c.idx = 0;
                        // Charge the back-edge and poll the PMU.
                        let leaf = Ip::new(
                            proc_table[th.frames.last().unwrap().proc.0 as usize].module,
                            th.frames.last().unwrap().proc,
                            0,
                        );
                        if let Some(pmu) = th.pmu.as_mut() {
                            if let Some(s) = pmu.observe_quiet(1, leaf.0, th.core) {
                                emit_sample!(s, leaf);
                            }
                        }
                        continue 'run;
                    }
                    th.ctrl.pop();
                }
                Exit::Frame => {
                    th.ctrl.pop();
                    th.clock += cfg.cost.ret as Cycles;
                    if th.pop_frame(None) {
                        park!();
                    }
                }
                // Region exit = team join: commit-side. Leave the control
                // stack untouched; `exec_one` pops it and performs the
                // join.
                Exit::Region => park!(),
            }
        };

        let cur_proc = th.frames.last().expect("no frame").proc;
        let ip = Ip::new(proc_table[cur_proc.0 as usize].module, cur_proc, spanned.uid);

        macro_rules! emit_quiet {
            ($n:expr) => {{
                let n: u64 = $n;
                th.ops += n;
                if let Some(pmu) = th.pmu.as_mut() {
                    if let Some(s) = pmu.observe_quiet(n, ip.0, th.core) {
                        emit_sample!(s, ip);
                    }
                }
            }};
        }
        // One memory access through the shard pipeline. Placement is
        // *predicted* read-only; the authoritative first touch happens at
        // commit, where the Mem event re-resolves the home domain.
        macro_rules! mem_access {
            ($addr:expr, $kind:expr, $is_store:expr) => {{
                let addr: u64 = $addr;
                let home = process.page_table.predict(addr, th.domain);
                let now = th.clock;
                th.seq += 1;
                let akey: EpochKey = (now, tkey, th.seq);
                let out = shard.access(fz, th.core, addr, $kind, home, ip.0, now, akey);
                let res = out.result;
                th.clock += overlap.of(res.latency) + cfg.cost.op as Cycles;
                th.ops += 1;
                let mut tagged = false;
                let mut delivered: Option<Sample> = None;
                if let Some(pmu) = th.pmu.as_mut() {
                    let op = OpRecord {
                        ip: ip.0,
                        core: th.core,
                        mem: Some((&res, addr, $is_store)),
                    };
                    delivered = pmu.observe_op(op);
                    tagged = pmu.just_tagged();
                }
                if let Some(s) = delivered {
                    // The skid of a sample tagged up to `skid` ops earlier
                    // expired here; values are final (or fixed up at
                    // commit if the tag op's access was deferred).
                    emit_sample!(s, ip);
                }
                if let Some((line, version)) = out.l3_fill {
                    th.seq += 1;
                    events.push(Keyed {
                        key: (now, tkey, th.seq),
                        ev: Ev::Fill { domain: shard.domain, line, version },
                    });
                }
                if out.pf_issued > 0 {
                    th.seq += 1;
                    events.push(Keyed {
                        key: (now, tkey, th.seq),
                        ev: Ev::Pf {
                            from: DomainId(shard.domain),
                            home,
                            now: out.pf_now,
                            n: out.pf_issued as u32,
                        },
                    });
                }
                if let Some(d) = out.deferred {
                    events.push(Keyed {
                        key: akey,
                        ev: Ev::Mem {
                            tid: tkey,
                            addr,
                            d,
                            opt_latency: res.latency,
                            tagged,
                        },
                    });
                }
            }};
        }

        // --- Phase B: execute the statement (shard-safe subset). ---
        match &spanned.kind {
            Stmt::Let(dst, e) => {
                let v = eval(e, th.locals(), &ectx);
                th.set_local(*dst, v);
                th.clock += cfg.cost.op as Cycles;
                emit_quiet!(1);
            }
            Stmt::Compute { ops } => {
                th.clock += *ops as Cycles * cfg.cost.op as Cycles;
                emit_quiet!(*ops as u64);
            }
            Stmt::Load { base, index, elem, dst } => {
                let b = eval(base, th.locals(), &ectx);
                let i = eval(index, th.locals(), &ectx);
                let addr = b + i * *elem as i64;
                assert!(addr >= 0, "negative address");
                let addr = layout::to_global(th.rank, addr as u64);
                mem_access!(addr, AccessKind::Load, false);
                if let Some(d) = dst {
                    // Own-shard writes this epoch win over the committed
                    // map (program order within the shard); cross-shard
                    // writes land at the next commit.
                    let v = vals
                        .get(&(rl, addr))
                        .copied()
                        .or_else(|| process.values.get(&addr).copied())
                        .unwrap_or(0);
                    th.set_local(*d, v);
                }
            }
            Stmt::Store { base, index, elem, value } => {
                let b = eval(base, th.locals(), &ectx);
                let i = eval(index, th.locals(), &ectx);
                let addr = b + i * *elem as i64;
                assert!(addr >= 0, "negative address");
                let addr = layout::to_global(th.rank, addr as u64);
                if let Some(v) = value {
                    let v = eval(v, th.locals(), &ectx);
                    vals.insert((rl, addr), v);
                    th.seq += 1;
                    events.push(Keyed {
                        key: (th.clock, tkey, th.seq),
                        ev: Ev::Val { rank_local: rl, addr, val: v },
                    });
                }
                mem_access!(addr, AccessKind::Store, true);
            }
            Stmt::For { var, start, end, step, body } => {
                let s = eval(start, th.locals(), &ectx);
                let e = eval(end, th.locals(), &ectx);
                th.clock += cfg.cost.op as Cycles;
                emit_quiet!(1);
                let enter = if *step > 0 { s < e } else { s > e };
                if enter {
                    th.set_local(*var, s);
                    th.ctrl.push(Ctrl {
                        stmts: body,
                        idx: 0,
                        exit: Exit::Loop { var: *var, end: e, step: *step },
                    });
                }
            }
            Stmt::If { a, cmp, b, then_body, else_body } => {
                let av = eval(a, th.locals(), &ectx);
                let bv = eval(b, th.locals(), &ectx);
                th.clock += cfg.cost.op as Cycles;
                emit_quiet!(1);
                let body = if eval_cmp(av, *cmp, bv) { then_body } else { else_body };
                if !body.is_empty() {
                    th.ctrl.push(Ctrl { stmts: body, idx: 0, exit: Exit::Seq });
                }
            }
            Stmt::Call { callee, args, ret } => {
                scratch.clear();
                scratch.extend(args.iter().map(|a| eval(a, th.locals(), &ectx)));
                let callee_proc = &proc_table[callee.0 as usize];
                assert!(
                    scratch.len() == callee_proc.n_params as usize,
                    "arity mismatch calling {}",
                    callee_proc.name
                );
                th.clock += cfg.cost.call as Cycles;
                emit_quiet!(1);
                th.push_frame(*callee, callee_proc.n_locals, scratch, Some(ip), *ret);
                th.ctrl.push(Ctrl { stmts: &callee_proc.body, idx: 0, exit: Exit::Frame });
            }
            Stmt::Ret(v) => {
                let val = v.as_ref().map(|e| eval(e, th.locals(), &ectx));
                th.clock += cfg.cost.ret as Cycles;
                emit_quiet!(1);
                loop {
                    let c = th.ctrl.pop().expect("Ret outside any frame");
                    match c.exit {
                        Exit::Frame => break,
                        Exit::Region => panic!("Ret out of a parallel region is not allowed"),
                        _ => {}
                    }
                }
                if th.pop_frame(val) {
                    park!();
                }
            }
            Stmt::Salloc { dst, bytes } => {
                let bytes = eval(bytes, th.locals(), &ectx);
                assert!(bytes > 0, "non-positive stack allocation");
                let base = STACK_BASE + th.thread as u64 * STACK_WINDOW;
                let addr = th.stack_top;
                let new_top = (addr + bytes as u64 + 15) & !15;
                assert!(
                    new_top < base + STACK_WINDOW,
                    "stack overflow on thread {} of rank {}",
                    th.thread,
                    th.rank
                );
                th.stack_top = new_top;
                th.set_local(*dst, layout::global(th.rank, addr) as i64);
                th.clock += 2 * cfg.cost.op as Cycles;
                emit_quiet!(2);
            }
            Stmt::OmpFor { var, start, end, body } => {
                let s = eval(start, th.locals(), &ectx);
                let e = eval(end, th.locals(), &ectx);
                let t = th.thread as i64;
                let n = th.team_size as i64;
                th.clock += 2 * cfg.cost.op as Cycles;
                emit_quiet!(2);
                let total = (e - s).max(0);
                let chunk = (total + n - 1) / n;
                let lo = s + t * chunk;
                let hi = (lo + chunk).min(e);
                if lo < hi {
                    th.set_local(*var, lo);
                    th.ctrl.push(Ctrl {
                        stmts: body,
                        idx: 0,
                        exit: Exit::Loop { var: *var, end: hi, step: 1 },
                    });
                }
            }
            Stmt::MpiCost { cycles } => {
                th.clock += cycles;
                emit_quiet!(1);
            }
            // Everything else needs node-shared state: rewind the cursor
            // and park; the commit executes it serially.
            _ => {
                th.ctrl.last_mut().expect("statement just fetched").idx -= 1;
                park!();
            }
        }
    }
}
