//! Interpreter state: thread frames, control stack, expression evaluation
//! and the simulated cost model.
//!
//! One `ThreadState` exists per software thread (MPI rank main threads
//! and OpenMP workers). The control stack is explicit so the node
//! scheduler ([`crate::sched`]) can interleave threads at statement
//! granularity — that temporal interleaving is what makes DRAM-controller
//! queueing (bandwidth contention) meaningful.

use dcp_machine::{CoreId, Cycles, DataSource, DomainId, Pmu};

use crate::ir::{Cmp, Expr, Ip, LocalId, ProcId, Spanned};
use crate::observer::{FrameInfo, ThreadView};

/// Cycle costs of non-memory operations. Tuned for plausibility, not for
/// matching any specific microarchitecture; only ratios matter for the
/// reproduction.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// One retired ALU/branch op.
    pub op: u32,
    /// Call overhead (frame setup).
    pub call: u32,
    /// Return overhead.
    pub ret: u32,
    /// Allocator work per `malloc`, excluding any zero-fill.
    pub alloc_base: u32,
    /// Allocator work per `free`.
    pub free_base: u32,
    /// `brk` extension.
    pub brk_base: u32,
    /// Master-side cost of forking a parallel region.
    pub fork_master: u32,
    /// Startup cost charged to each forked worker.
    pub fork_worker: u32,
    /// Join cost at region end.
    pub join: u32,
    /// Team barrier cost (after clock alignment).
    pub omp_barrier: u32,
    /// MPI barrier cost (after global clock alignment).
    pub mpi_barrier: u64,
    /// Per-message software overhead of an MPI exchange (matching,
    /// envelope handling) charged before the payload moves.
    pub mpi_msg: u64,
    /// Intra-node exchange bandwidth in bytes/cycle (shared-memory copy
    /// between co-located ranks; also the no-network fallback rate).
    pub mpi_node_bw: u64,
    /// dlopen/dlclose cost.
    pub dl: u32,
    /// Memory-level-parallelism divisor: an out-of-order core overlaps
    /// outstanding misses, so a thread's clock advances by
    /// `latency / mem_overlap` per access while PMU samples still report
    /// the full latency (as real hardware does). 1 = strict in-order.
    pub mem_overlap: u32,
}

impl Default for CostModel {
    fn default() -> Self {
        Self {
            op: 1,
            call: 4,
            ret: 2,
            alloc_base: 150,
            free_base: 90,
            brk_base: 60,
            fork_master: 900,
            fork_worker: 400,
            join: 250,
            omp_barrier: 120,
            mpi_barrier: 4000,
            mpi_msg: 600,
            mpi_node_bw: 16,
            dl: 1500,
            mem_overlap: 2,
        }
    }
}

/// Context for evaluating intrinsics.
#[derive(Debug, Clone, Copy)]
pub struct EvalCtx {
    pub omp_tid: i64,
    pub team_size: i64,
    pub rank: i64,
    pub num_ranks: i64,
}

/// Resolve one operand of a binary expression without a recursive call
/// when it is a leaf. Almost every expression the builders emit is
/// `Local op Const` or `Local op Local` (loop indices, address math), so
/// inlining the two leaf shapes here flattens the hot path of [`eval`] to
/// straight-line code; anything deeper falls back to full recursion.
#[inline(always)]
fn operand(e: &Expr, locals: &[i64], ctx: &EvalCtx) -> i64 {
    match e {
        Expr::Const(v) => *v,
        Expr::Local(l) => locals[l.0 as usize],
        _ => eval(e, locals, ctx),
    }
}

/// Evaluate an expression against a frame's locals.
pub fn eval(e: &Expr, locals: &[i64], ctx: &EvalCtx) -> i64 {
    match e {
        Expr::Const(v) => *v,
        Expr::Local(l) => locals[l.0 as usize],
        Expr::Add(a, b) => operand(a, locals, ctx).wrapping_add(operand(b, locals, ctx)),
        Expr::Sub(a, b) => operand(a, locals, ctx).wrapping_sub(operand(b, locals, ctx)),
        Expr::Mul(a, b) => operand(a, locals, ctx).wrapping_mul(operand(b, locals, ctx)),
        Expr::Div(a, b) => {
            let d = operand(b, locals, ctx);
            assert!(d != 0, "division by zero in program expression");
            operand(a, locals, ctx) / d
        }
        Expr::Rem(a, b) => {
            let d = operand(b, locals, ctx);
            assert!(d != 0, "remainder by zero in program expression");
            operand(a, locals, ctx) % d
        }
        Expr::Min(a, b) => operand(a, locals, ctx).min(operand(b, locals, ctx)),
        Expr::Max(a, b) => operand(a, locals, ctx).max(operand(b, locals, ctx)),
        Expr::ThreadId => ctx.omp_tid,
        Expr::NumThreads => ctx.team_size,
        Expr::RankId => ctx.rank,
        Expr::NumRanks => ctx.num_ranks,
    }
}

/// Evaluate a comparison.
pub fn eval_cmp(a: i64, cmp: Cmp, b: i64) -> bool {
    match cmp {
        Cmp::Lt => a < b,
        Cmp::Le => a <= b,
        Cmp::Eq => a == b,
        Cmp::Ne => a != b,
        Cmp::Ge => a >= b,
        Cmp::Gt => a > b,
    }
}

/// How a control block behaves when its statement cursor reaches the end.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Exit {
    /// Plain nested block (If arms): just pop.
    Seq,
    /// Loop body: bump `var` by `step`, re-enter while the bound holds.
    Loop { var: LocalId, end: i64, step: i64 },
    /// Procedure body: pop the call frame too.
    Frame,
    /// Parallel-region body executed by the master: join the team.
    Region,
}

/// One entry of the control stack.
#[derive(Debug)]
pub(crate) struct Ctrl<'p> {
    pub stmts: &'p [Spanned],
    pub idx: usize,
    pub exit: Exit,
}

/// A live procedure frame. Locals live in the owning thread's arena
/// (`ThreadState::locals`), starting at `locals_base`; pushing a frame is
/// a bump of the arena cursor instead of a fresh `Vec` per call.
#[derive(Debug)]
pub(crate) struct FrameRt {
    pub proc: ProcId,
    /// First slot of this frame's locals within the thread's arena.
    pub locals_base: usize,
    /// Caller local receiving this frame's return value.
    pub ret_slot: Option<LocalId>,
    /// Stack pointer to restore when this frame pops (stack allocations
    /// made inside the frame are released wholesale, like real frames).
    pub saved_stack: u64,
}

/// Scheduler-visible thread status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Status {
    Runnable,
    /// Master waiting for its team's workers.
    BlockedJoin,
    /// Waiting at a team barrier.
    BlockedOmpBarrier,
    /// Rank main waiting at a global MPI barrier.
    BlockedMpi,
    /// Rank main waiting inside an MPI exchange for the network (or the
    /// peer's matching call).
    BlockedNet,
    /// Stopped at a statement that needs node-shared state (allocator,
    /// page table, fork/join, phases); the epoch commit executes it
    /// serially, in event order, and re-runs the thread next epoch.
    Parked,
    Done,
}

/// Full interpreter state of one software thread.
#[derive(Debug)]
pub(crate) struct ThreadState<'p> {
    /// Global MPI rank.
    pub rank: u32,
    /// Index of the owning process within this node.
    pub rank_local: usize,
    /// Thread index within the rank (OpenMP tid; 0 = master).
    pub thread: u32,
    pub core: CoreId,
    /// NUMA domain of `core`, precomputed at creation (pinning is fixed
    /// for the thread's lifetime) so memory ops skip the topology math.
    pub domain: DomainId,
    pub clock: Cycles,
    pub status: Status,
    pub frames: Vec<FrameRt>,
    /// Locals arena: every live frame's locals, contiguous in call order.
    /// Frame boundaries are the `FrameRt::locals_base` cursors; pushing
    /// and popping frames grows and truncates this one buffer.
    pub locals: Vec<i64>,
    /// Unwinder view parallel to `frames` (plus inherited context below
    /// `base_depth` for workers).
    pub view: Vec<FrameInfo>,
    pub ctrl: Vec<Ctrl<'p>>,
    pub pmu: Option<Pmu>,
    pub team: Option<usize>,
    pub team_size: u32,
    /// Retired ops (for reporting and sanity checks).
    pub ops: u64,
    pub next_token: u64,
    /// Bump cursor within this thread's stack window (process-local).
    pub stack_top: u64,
    /// Monotonic per-thread event sequence number; `(clock, tid, seq)`
    /// totally orders this thread's shared-state events within an epoch.
    pub seq: u64,
    /// Signed clock correction accumulated during an epoch: the committed
    /// (actual) cost of deferred accesses and sample-handler overhead
    /// minus what the shard charged optimistically. Folded into `clock`
    /// at the thread's next commit event or at epoch end.
    pub carry: i64,
    /// Correction for the PMU's pending sample: when the sample was
    /// tagged on a deferred access, the commit stores the actual
    /// `(latency, source)` here, and the next delivered sample for this
    /// thread (necessarily the tagged one — a PMU holds at most one
    /// pending sample) is patched with it before reaching the profiler.
    pub fix: Option<(u32, DataSource)>,
}

impl<'p> ThreadState<'p> {
    /// Push a procedure frame and its view entry.
    pub fn push_frame(
        &mut self,
        proc: ProcId,
        n_locals: u16,
        args: &[i64],
        call_site: Option<Ip>,
        ret_slot: Option<LocalId>,
    ) {
        let locals_base = self.locals.len();
        let n = n_locals.max(args.len() as u16) as usize;
        self.locals.resize(locals_base + n, 0);
        self.locals[locals_base..locals_base + args.len()].copy_from_slice(args);
        let token = self.next_token;
        self.next_token += 1;
        let saved_stack = self.stack_top;
        self.frames.push(FrameRt { proc, locals_base, ret_slot, saved_stack });
        self.view.push(FrameInfo { proc, call_site, token });
    }

    /// Pop the top frame, writing `ret` into the caller if requested.
    /// Returns `true` when the thread has no executable frames left.
    pub fn pop_frame(&mut self, ret: Option<i64>) -> bool {
        let fr = self.frames.pop().expect("frame underflow");
        self.stack_top = fr.saved_stack;
        self.locals.truncate(fr.locals_base);
        self.view.pop();
        if let (Some(slot), Some(v)) = (fr.ret_slot, ret) {
            if let Some(caller) = self.frames.last() {
                self.locals[caller.locals_base + slot.0 as usize] = v;
            }
        }
        self.frames.is_empty()
    }

    /// The observer's view of this thread, executing `leaf_ip`.
    pub fn view_at(&self, leaf_ip: Ip) -> ThreadView<'_> {
        ThreadView {
            rank: self.rank,
            thread: self.thread,
            core: self.core,
            clock: self.clock,
            frames: &self.view,
            leaf_ip,
        }
    }

    /// Locals of the executing frame (read-only).
    pub fn locals(&self) -> &[i64] {
        &self.locals[self.frames.last().expect("no live frame").locals_base..]
    }

    /// Read one local of the executing frame.
    #[inline]
    pub fn local(&self, l: LocalId) -> i64 {
        self.locals[self.frames.last().expect("no live frame").locals_base + l.0 as usize]
    }

    /// Write one local of the executing frame.
    #[inline]
    pub fn set_local(&mut self, l: LocalId, v: i64) {
        let base = self.frames.last().expect("no live frame").locals_base;
        self.locals[base + l.0 as usize] = v;
    }
}

/// One recorded phase interval (rank-main scope).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseRecord {
    pub rank: u32,
    pub name: &'static str,
    pub begin: Cycles,
    pub end: Cycles,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::ex::*;

    const CTX: EvalCtx = EvalCtx { omp_tid: 3, team_size: 8, rank: 2, num_ranks: 4 };

    #[test]
    fn eval_arithmetic() {
        let locals = [10i64, 7];
        assert_eq!(eval(&add(l(LocalId(0)), c(5)), &locals, &CTX), 15);
        assert_eq!(eval(&sub(l(LocalId(0)), l(LocalId(1))), &locals, &CTX), 3);
        assert_eq!(eval(&mul(c(6), c(7)), &locals, &CTX), 42);
        assert_eq!(eval(&div(c(22), c(7)), &locals, &CTX), 3);
        assert_eq!(eval(&rem(c(22), c(7)), &locals, &CTX), 1);
        assert_eq!(eval(&min(c(3), c(9)), &locals, &CTX), 3);
        assert_eq!(eval(&max(c(3), c(9)), &locals, &CTX), 9);
    }

    #[test]
    fn eval_intrinsics() {
        assert_eq!(eval(&Expr::ThreadId, &[], &CTX), 3);
        assert_eq!(eval(&Expr::NumThreads, &[], &CTX), 8);
        assert_eq!(eval(&Expr::RankId, &[], &CTX), 2);
        assert_eq!(eval(&Expr::NumRanks, &[], &CTX), 4);
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        eval(&div(c(1), c(0)), &[], &CTX);
    }

    #[test]
    fn cmp_table() {
        assert!(eval_cmp(1, Cmp::Lt, 2));
        assert!(eval_cmp(2, Cmp::Le, 2));
        assert!(eval_cmp(2, Cmp::Eq, 2));
        assert!(eval_cmp(1, Cmp::Ne, 2));
        assert!(eval_cmp(2, Cmp::Ge, 2));
        assert!(eval_cmp(3, Cmp::Gt, 2));
        assert!(!eval_cmp(3, Cmp::Lt, 2));
    }

    #[test]
    fn frame_push_pop_with_ret() {
        let mut th = ThreadState {
            rank: 0,
            rank_local: 0,
            thread: 0,
            core: CoreId(0),
            domain: DomainId(0),
            clock: 0,
            status: Status::Runnable,
            frames: Vec::new(),
            locals: Vec::new(),
            view: Vec::new(),
            ctrl: Vec::new(),
            pmu: None,
            team: None,
            team_size: 1,
            ops: 0,
            next_token: 0,
            stack_top: crate::alloc::STACK_BASE,
            seq: 0,
            carry: 0,
            fix: None,
        };
        th.push_frame(ProcId(0), 4, &[], None, None);
        th.push_frame(ProcId(1), 2, &[11, 22], Some(Ip(5)), Some(LocalId(3)));
        assert_eq!(th.locals(), &[11, 22]);
        assert_eq!(th.view.len(), 2);
        assert_eq!(th.view[1].call_site, Some(Ip(5)));
        assert_ne!(th.view[0].token, th.view[1].token);
        assert!(!th.pop_frame(Some(99)));
        assert_eq!(th.locals()[3], 99, "return value written to caller slot");
        assert!(th.pop_frame(None));
    }
}
