//! Run-to-run determinism of the multi-node network model: the same
//! cluster workload run twice must agree on simulated wall and on every
//! per-link fabric counter, at more than one rank count, for both
//! exchange patterns. The event-calendar fabric orders injected flows by
//! simulated time only, so any dependence on host scheduling shows here.

use dcp_runtime::{run_world, NullObserver};
use dcp_workloads::cluster::{build, world, ClusterConfig, ClusterPattern};

#[test]
fn cluster_runs_repeat_wall_and_per_link_counters() {
    for (name, pattern) in
        [("halo", ClusterPattern::Halo), ("hypercube", ClusterPattern::Hypercube)]
    {
        for ranks in [8, 16] {
            let cfg = ClusterConfig::scaled(pattern, ranks);
            let (prog, w) = (build(&cfg), world(&cfg));
            let run =
                || run_world(&prog, &w, |_| NullObserver).expect("cluster workload completes");
            let (a, b) = (run(), run());
            assert_eq!(a.wall, b.wall, "{name} x{ranks}: wall diverged between runs");
            let na = a.net.as_ref().expect("multi-node world has fabric stats");
            let nb = b.net.as_ref().expect("multi-node world has fabric stats");
            assert!(na.flows > 0, "{name} x{ranks}: no traffic crossed the fabric");
            assert_eq!(na.links, nb.links, "{name} x{ranks}: per-link counters diverged");
        }
    }
}
