//! Every size the workloads use, in one place.
//!
//! `full()` was tuned once, at the commit that added the benchmark, so
//! that one timed pass of each workload takes one to two seconds on the
//! 2-core reference sandbox and an untraced run of all seven finishes in
//! about 100 s; it is frozen since (changing a size changes what every
//! later number means). `smoke()` is the same workloads at sizes that
//! finish in a fraction of a second each, for `run --smoke` and
//! `check.sh`: it proves the plumbing and the output checks, and its
//! timings mean nothing.

/// Sweep3D `Original`: `(ranks, i_dim, j_dim, k_dim, octants, iters)`.
#[derive(Debug, Clone, Copy)]
pub struct SweepSize {
    pub ranks: u32,
    pub i_dim: i64,
    pub j_dim: i64,
    pub k_dim: i64,
    pub octants: i64,
    pub iters: i64,
    /// IBS sampling period.
    pub ibs_period: u64,
}

/// AMG2006 `Original`.
#[derive(Debug, Clone, Copy)]
pub struct AmgSize {
    pub ranks: u32,
    pub threads: u32,
    pub rows: i64,
    pub solve_iters: i64,
    pub setup_allocs: i64,
    /// Marked-event (remote DRAM) sampling threshold.
    pub rmem_threshold: u64,
}

#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub smoke: bool,
    /// Untimed passes before a simulator workload is timed: under the
    /// default pool the first runs in a process are much faster than
    /// every later one, and it takes two for the rate to settle.
    pub sim_warmup_passes: usize,
    /// Fewest timed passes of a simulator workload / of any other.
    pub min_sim_passes: usize,
    pub min_passes: usize,
    /// Wall time spent repeating set-up so that `setup_s` is a median.
    pub setup_budget_s: f64,

    /// `sim_stride`: the 4 KiB-stride sweep on one Magny-Cours node.
    pub stride: SweepSize,
    /// `sim_numa_dense`: 4 ranks x 96 threads over 4 POWER7 nodes, every
    /// remote-DRAM access sampled.
    pub numa_dense: AmgSize,

    /// `analyze_merge` inputs: scaled-down runs of the same two programs,
    /// whose per-node measurements are replicated `analyze_replicas`
    /// times in seeded order.
    pub analyze_sweep: SweepSize,
    pub analyze_amg: AmgSize,
    pub analyze_replicas: usize,
    /// Times one timed pass repeats the pipeline over those ranks.
    pub analyze_rounds: usize,

    /// Serve inputs: one small bundle (a Streamcluster node) and the large
    /// bundles of an AMG run (one per node).
    pub bundle_sc_paper: bool,
    pub bundle_amg: AmgSize,
    /// Outstanding pushes per ingesting connection.
    pub ingest_window: usize,
    /// `serve_ingest_durable`: pushes per client per pass; one in
    /// `large_every` is a large bundle.
    pub durable_pushes_per_client: usize,
    pub large_every: usize,
    /// `serve_query_racing`: pushes by the writer per pass, and the
    /// reader's pause between refreshes (microseconds).
    pub racing_pushes: usize,
    pub racing_think_us: u64,
    /// `serve_query_warm`: bundles preloaded per set, and queries (six to
    /// a refresh) per client per pass.
    pub warm_preload_per_set: usize,
    pub warm_queries_per_client: usize,

    /// `cluster_hypercube`.
    pub cluster_ranks: u32,
    pub cluster_ranks_per_node: u32,
    pub cluster_elems: i64,
    pub cluster_iters: i64,
    pub cluster_bytes: i64,

    /// Layer micro-measurements (traced runs): accesses per direct
    /// `Machine::access` stream, tasks per `par_map`, events per calendar
    /// fill, and repetitions of each.
    pub micro_accesses: usize,
    pub micro_tasks: usize,
    pub micro_events: usize,
    pub micro_reps: usize,
    /// Staged operations replayed against the private store.
    pub staged_ops: usize,
    /// Loopback round trips for ping / routed-vs-direct.
    pub rtt_samples: usize,
}

impl Sizes {
    pub fn full() -> Self {
        Self {
            smoke: false,
            sim_warmup_passes: 2,
            min_sim_passes: 3,
            min_passes: 5,
            setup_budget_s: 0.6,
            stride: SweepSize {
                ranks: 12,
                i_dim: 512,
                j_dim: 64,
                k_dim: 1,
                octants: 1,
                iters: 1,
                ibs_period: 16384,
            },
            numa_dense: AmgSize {
                ranks: 4,
                threads: 96,
                rows: 32768,
                solve_iters: 2,
                setup_allocs: 3000,
                rmem_threshold: 1,
            },
            analyze_sweep: SweepSize {
                ranks: 4,
                i_dim: 512,
                j_dim: 32,
                k_dim: 1,
                octants: 1,
                iters: 1,
                ibs_period: 512,
            },
            analyze_amg: AmgSize {
                ranks: 2,
                threads: 64,
                rows: 32768,
                solve_iters: 1,
                setup_allocs: 200,
                rmem_threshold: 1,
            },
            analyze_replicas: 24,
            analyze_rounds: 10,
            bundle_sc_paper: true,
            bundle_amg: AmgSize {
                ranks: 2,
                threads: 64,
                rows: 32768,
                solve_iters: 1,
                setup_allocs: 200,
                rmem_threshold: 1,
            },
            ingest_window: 16,
            durable_pushes_per_client: 6000,
            large_every: 4,
            racing_pushes: 6000,
            racing_think_us: 2000,
            warm_preload_per_set: 32,
            warm_queries_per_client: 60_000,
            cluster_ranks: 256,
            cluster_ranks_per_node: 4,
            cluster_elems: 256,
            cluster_iters: 200,
            cluster_bytes: 8192,
            micro_accesses: 400_000,
            micro_tasks: 4096,
            micro_events: 100_000,
            micro_reps: 5,
            staged_ops: 400,
            rtt_samples: 2000,
        }
    }

    pub fn smoke() -> Self {
        let sweep = SweepSize {
            ranks: 4,
            i_dim: 512,
            j_dim: 16,
            k_dim: 1,
            octants: 1,
            iters: 1,
            ibs_period: 512,
        };
        let amg = AmgSize {
            ranks: 2,
            threads: 16,
            rows: 2048,
            solve_iters: 1,
            setup_allocs: 40,
            rmem_threshold: 1,
        };
        Self {
            smoke: true,
            sim_warmup_passes: 1,
            min_sim_passes: 2,
            min_passes: 2,
            setup_budget_s: 0.0,
            stride: sweep,
            numa_dense: amg,
            analyze_sweep: sweep,
            analyze_amg: amg,
            analyze_replicas: 3,
            analyze_rounds: 2,
            bundle_sc_paper: false,
            bundle_amg: amg,
            ingest_window: 16,
            durable_pushes_per_client: 40,
            large_every: 4,
            racing_pushes: 48,
            racing_think_us: 200,
            warm_preload_per_set: 4,
            warm_queries_per_client: 240,
            cluster_ranks: 16,
            cluster_ranks_per_node: 4,
            cluster_elems: 64,
            cluster_iters: 2,
            cluster_bytes: 8192,
            micro_accesses: 2_000,
            micro_tasks: 256,
            micro_events: 1_000,
            micro_reps: 2,
            staged_ops: 24,
            rtt_samples: 50,
        }
    }
}
