#!/usr/bin/env sh
# Tier-1 verification: hermetic build + full test suite, fully offline.
# The workspace has no registry dependencies (see DESIGN.md, "Hermetic
# dependencies"), so this must pass on a machine that has never contacted
# crates.io.
set -eu
cd "$(dirname "$0")/.."

cargo build --release --offline
cargo test -q --offline --workspace

# The thread pool reads DCP_THREADS once per process, so each pool shape
# needs its own test-process run. The workspace run above covers the
# default (core count), and `pool_stress` re-runs itself at 2 and 8
# workers; these legs run the pool's own tests with no workers (every
# call inline on the caller) and oversubscribed at 8.
DCP_THREADS=0 cargo test -q --offline -p dcp-support pool
DCP_THREADS=8 cargo test -q --offline -p dcp-support pool

# Lint stage: every target, tests and benches included, warning-free.
cargo clippy --workspace --release --offline --all-targets -- -D warnings

# Benchmark smoke stage: the benchmark package (its own workspace)
# still builds against the crates, passes its unit tests, runs every
# workload at tiny sizes, and emits every metric BENCHMARK.json names.
# The script uses bash-only options, so it is run with bash.
bash benchmark/check.sh

# The serving daemons are driven end to end by Rust tests in the run
# above, as real `memgaze serve` / `route` / `push` / `query` processes:
# tests/serve_cli.rs (the CLI paths, descriptor exhaustion),
# tests/durability_e2e.rs (kill at every WAL append, byte-identical
# recovery) and tests/shard_e2e.rs (sharded clusters, replica SIGKILL).

# Cluster fabric smoke: the fingerprint of the profiled multi-node runs
# must not depend on DCP_THREADS (run-to-run determinism of wall and
# per-link counters is tests/cluster_determinism.rs).
cargo build -q --release --offline -p dcp-bench --bin fingerprint
cluster_a="$(DCP_THREADS=0 ./target/release/fingerprint cluster_halo cluster_hypercube)"
cluster_b="$(DCP_THREADS=4 ./target/release/fingerprint cluster_halo cluster_hypercube)"
[ "$cluster_a" = "$cluster_b" ] \
    || { echo "verify: cluster fingerprint depends on DCP_THREADS" >&2; exit 1; }
echo "verify: cluster fabric smoke stage ok (thread-invariant fingerprints)" >&2

# Reproduction stage: every paper experiment at paper size, checked
# against the blocks committed in EXPERIMENTS.md. Fails, naming the
# experiment, on a false shape claim or a changed number.
repro_start="$(date +%s)"
cargo run -q --release --offline -p dcp-bench --bin reproduce -- --check
echo "verify: reproduction stage ok ($(( $(date +%s) - repro_start )) s, every claim holds, EXPERIMENTS.md byte-identical)" >&2
