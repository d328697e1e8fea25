//! The seven workloads by name, and what a run of one is given.

use crate::metric::Outcome;
use crate::sizes::Sizes;
use crate::trace::Recorder;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SimStride,
    SimNumaDense,
    AnalyzeMerge,
    ServeIngestDurable,
    ServeQueryRacing,
    ServeQueryWarm,
    ClusterHypercube,
}

impl Workload {
    pub const ALL: [Workload; 7] = [
        Workload::SimStride,
        Workload::SimNumaDense,
        Workload::AnalyzeMerge,
        Workload::ServeIngestDurable,
        Workload::ServeQueryRacing,
        Workload::ServeQueryWarm,
        Workload::ClusterHypercube,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SimStride => "sim_stride",
            Workload::SimNumaDense => "sim_numa_dense",
            Workload::AnalyzeMerge => "analyze_merge",
            Workload::ServeIngestDurable => "serve_ingest_durable",
            Workload::ServeQueryRacing => "serve_query_racing",
            Workload::ServeQueryWarm => "serve_query_warm",
            Workload::ClusterHypercube => "cluster_hypercube",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The unit of work `work_per_s` counts on this workload, and the
    /// operation `op_ms_*` times.
    pub fn work_unit(self) -> (&'static str, &'static str) {
        match self {
            Workload::SimStride | Workload::SimNumaDense => {
                ("simulated access", "one profiled run of the program")
            }
            Workload::AnalyzeMerge => (
                "encoded profile byte",
                "one encode+validate+merge+views pass",
            ),
            Workload::ServeIngestDurable => ("acknowledged push", "push send to ack"),
            Workload::ServeQueryRacing | Workload::ServeQueryWarm => (
                "answered query",
                "one refresh: six views sent together, to the last reply",
            ),
            Workload::ClusterHypercube => ("completed exchange", "one run of the world"),
        }
    }
}

/// Everything one run of one workload is given.
pub struct Ctx {
    pub workload: Workload,
    /// Drives query and bundle schedules, replica order and micro-bench
    /// address streams. The simulated programs are fixed.
    pub seed: u64,
    /// How long to measure.
    pub seconds: f64,
    pub sizes: Sizes,
    /// On for `--trace 1`; a disabled recorder costs nothing.
    pub rec: Recorder,
}

impl Ctx {
    pub fn traced(&self) -> bool {
        self.rec.enabled()
    }

    /// How long the pass loop runs and its fewest passes. A traced run
    /// does every pass twice (recorder on, recorder off, for
    /// `trace.overhead_pct`), so it loops for half the time.
    pub fn pass_budget(&self) -> (f64, usize) {
        if self.traced() {
            (self.seconds / 2.0, 2)
        } else {
            (self.seconds, self.sizes.min_passes)
        }
    }
}

/// Run one workload: end-to-end metrics untraced, per-layer metrics
/// traced.
pub fn run(ctx: &mut Ctx) -> Outcome {
    match ctx.workload {
        Workload::SimStride | Workload::SimNumaDense => crate::wl_sim::run(ctx),
        Workload::AnalyzeMerge => crate::wl_analyze::run(ctx),
        Workload::ServeIngestDurable => crate::wl_serve::run_ingest_durable(ctx),
        Workload::ServeQueryRacing => crate::wl_serve::run_query_racing(ctx),
        Workload::ServeQueryWarm => crate::wl_serve::run_query_warm(ctx),
        Workload::ClusterHypercube => crate::wl_cluster::run(ctx),
    }
}
