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

# Lint stage: the hot-path rewrite is held warning-free.
cargo clippy --workspace --release --offline -- -D warnings

# Benchmark smoke stage: the benchmark package (its own workspace)
# still builds against the crates, passes its unit tests, runs every
# workload at tiny sizes, and emits every metric BENCHMARK.json names.
# The script uses bash-only options, so it is run with bash.
bash benchmark/check.sh

# Print the address a daemon announces in its log ("$2 on <addr>") once
# it is bound; fail naming the daemon ($3) if that takes over ~10 s.
wait_bound() {
    for _ in $(seq 1 100); do
        bound="$(sed -n "s/^$2 on //p" "$1")"
        [ -n "$bound" ] && { printf '%s\n' "$bound"; return 0; }
        sleep 0.1
    done
    echo "verify: $3 never bound" >&2
    return 1
}

# Serving-layer smoke stage: a daemon on an ephemeral port takes all
# five Table-1 workload profiles over the wire, answers one query of
# each kind, and drains cleanly. Any failed stage (bad ingest, bad
# query, hung shutdown) exits nonzero through set -eu.
serve_log="$(mktemp)"
./target/release/memgaze serve --addr 127.0.0.1:0 > "$serve_log" &
serve_pid=$!
trap 'kill "$serve_pid" 2>/dev/null || true; rm -f "$serve_log"' EXIT
addr="$(wait_bound "$serve_log" serving "serve daemon")"
for w in amg2006 sweep3d lulesh streamcluster nw; do
    ./target/release/memgaze push "$addr" "$w" "$w" > /dev/null
done
./target/release/memgaze query "$addr" ping                        > /dev/null
./target/release/memgaze query "$addr" sets                        > /dev/null
./target/release/memgaze query "$addr" ranking streamcluster remote 5 > /dev/null
./target/release/memgaze query "$addr" topdown nw heap remote      > /dev/null
./target/release/memgaze query "$addr" bottomup amg2006 remote     > /dev/null
./target/release/memgaze query "$addr" flat lulesh heap latency 5  > /dev/null
./target/release/memgaze query "$addr" vars sweep3d latency        > /dev/null
./target/release/memgaze query "$addr" diff nw nw remote           > /dev/null
./target/release/memgaze query "$addr" export nw heap              > /dev/null
./target/release/memgaze query "$addr" stats                       > /dev/null
./target/release/memgaze query "$addr" shutdown                    > /dev/null
wait "$serve_pid"
trap - EXIT
rm -f "$serve_log"
echo "verify: serve smoke stage ok (5 workloads ingested, every query kind served, clean drain)" >&2

# Durable-ingest smoke stage: a daemon with a data directory takes all
# five Table-1 workload profiles through pipelined pushes (--window 8,
# feeding the group-commit batcher), a spread of views is captured, the
# daemon is killed with SIGKILL (no drain, no snapshot opportunity),
# and a fresh daemon over the same directory must answer every one of
# those views with byte-identical output — ack implies durable, under
# batched fsyncs too.
dur_dir="$(mktemp -d)"
dur_log="$(mktemp)"
./target/release/memgaze serve --addr 127.0.0.1:0 --data-dir "$dur_dir" --snapshot-every 2 > "$dur_log" &
dur_pid=$!
trap 'kill -9 "$dur_pid" 2>/dev/null || true; rm -rf "$dur_dir" "$dur_log"' EXIT
addr="$(wait_bound "$dur_log" serving "durable daemon")"
for w in amg2006 sweep3d lulesh streamcluster nw; do
    ./target/release/memgaze push "$addr" "$w" "$w" --window 8 > /dev/null
done
dur_views() {
    ./target/release/memgaze query "$1" sets
    ./target/release/memgaze query "$1" export nw heap
    ./target/release/memgaze query "$1" export lulesh static
    ./target/release/memgaze query "$1" ranking streamcluster remote 5
    ./target/release/memgaze query "$1" vars sweep3d latency
    ./target/release/memgaze query "$1" diff nw amg2006 remote
}
before="$(dur_views "$addr")"
kill -9 "$dur_pid"
wait "$dur_pid" 2>/dev/null || true
: > "$dur_log"
./target/release/memgaze serve --addr 127.0.0.1:0 --data-dir "$dur_dir" > "$dur_log" &
dur_pid=$!
addr="$(wait_bound "$dur_log" serving "recovered daemon")"
grep -q '^recovered ' "$dur_log" || { echo "verify: recovered daemon printed no recovery report" >&2; exit 1; }
after="$(dur_views "$addr")"
[ "$before" = "$after" ] || { echo "verify: recovered views differ from pre-kill views" >&2; exit 1; }
./target/release/memgaze query "$addr" shutdown > /dev/null
wait "$dur_pid"
trap - EXIT
rm -rf "$dur_dir" "$dur_log"
echo "verify: durable-ingest smoke stage ok (5 workloads pushed --window 8, SIGKILL, recovery byte-identical)" >&2

# Sharded smoke stage: four shard daemons (2 groups x 2 replicas) on
# ephemeral ports behind a router. All five Table-1 workload profiles
# go in through the router (fanned to the owning group's replicas),
# every query kind is answered from recombined shard partials, and the
# router drains first, then the shards — clean exits all around.
shard_addrs=""
shard_pids=""
shard_logs=""
for i in 1 2 3 4; do
    log="$(mktemp)"
    ./target/release/memgaze serve --addr 127.0.0.1:0 > "$log" &
    shard_pids="$shard_pids $!"
    shard_logs="$shard_logs $log"
done
route_log="$(mktemp)"
trap 'kill $shard_pids 2>/dev/null || true; rm -f $shard_logs "$route_log"' EXIT
for log in $shard_logs; do
    addr="$(wait_bound "$log" serving "shard daemon")"
    shard_addrs="$shard_addrs $addr"
done
set -- $shard_addrs
./target/release/memgaze route --addr 127.0.0.1:0 --shard "$1,$2" --shard "$3,$4" > "$route_log" &
route_pid=$!
trap 'kill "$route_pid" $shard_pids 2>/dev/null || true; rm -f $shard_logs "$route_log"' EXIT
raddr="$(wait_bound "$route_log" routing "router")"
for w in amg2006 sweep3d lulesh streamcluster nw; do
    ./target/release/memgaze push "$raddr" "$w" "$w" > /dev/null
done
./target/release/memgaze query "$raddr" ping                        > /dev/null
./target/release/memgaze query "$raddr" sets                        > /dev/null
./target/release/memgaze query "$raddr" ranking streamcluster remote 5 > /dev/null
./target/release/memgaze query "$raddr" topdown nw heap remote      > /dev/null
./target/release/memgaze query "$raddr" bottomup amg2006 remote     > /dev/null
./target/release/memgaze query "$raddr" flat lulesh heap latency 5  > /dev/null
./target/release/memgaze query "$raddr" vars sweep3d latency        > /dev/null
./target/release/memgaze query "$raddr" diff nw nw remote           > /dev/null
./target/release/memgaze query "$raddr" export nw heap              > /dev/null
./target/release/memgaze query "$raddr" stats                       > /dev/null
./target/release/memgaze query "$raddr" shutdown                    > /dev/null
wait "$route_pid"
for a in $shard_addrs; do
    ./target/release/memgaze query "$a" shutdown > /dev/null
done
for p in $shard_pids; do
    wait "$p"
done
trap - EXIT
rm -f $shard_logs "$route_log"
echo "verify: sharded smoke stage ok (2x2 cluster behind router, every query kind, clean drain)" >&2

# Interleaved-serve smoke stage: view queries race a live pipelined
# ingest stream (--window 8), exercising the incremental read path —
# every query lands on a freshly bumped epoch, so snapshots rebuild
# only dirty classes and partials splice cached encodings. The racing
# queries only need to succeed (their bytes depend on arrival timing);
# the gate is afterwards: once the writers are drained, the quiesced
# views must be byte-identical to a fresh daemon fed the same stream
# with no readers attached.
int_log="$(mktemp)"
./target/release/memgaze serve --addr 127.0.0.1:0 > "$int_log" &
int_pid=$!
trap 'kill "$int_pid" 2>/dev/null || true; rm -f "$int_log"' EXIT
addr="$(wait_bound "$int_log" serving "interleaved daemon")"
# Seed the sets so the racing readers never query an empty store.
./target/release/memgaze push "$addr" streamcluster streamcluster > /dev/null
./target/release/memgaze push "$addr" nw nw > /dev/null
push_pids=""
for w in streamcluster nw; do
    ./target/release/memgaze push "$addr" "$w" "$w" --window 8 > /dev/null &
    push_pids="$push_pids $!"
done
for _ in $(seq 1 12); do
    ./target/release/memgaze query "$addr" ranking streamcluster remote 5 > /dev/null
    ./target/release/memgaze query "$addr" vars nw remote                 > /dev/null
    ./target/release/memgaze query "$addr" topdown streamcluster heap remote > /dev/null
done
for p in $push_pids; do
    wait "$p"
done
int_views() {
    ./target/release/memgaze query "$1" sets
    ./target/release/memgaze query "$1" ranking streamcluster remote 5
    ./target/release/memgaze query "$1" topdown streamcluster heap remote
    ./target/release/memgaze query "$1" vars nw remote
    ./target/release/memgaze query "$1" export nw heap
    ./target/release/memgaze query "$1" export streamcluster static
}
raced="$(int_views "$addr")"
./target/release/memgaze query "$addr" stats | grep -q '^dirty_class_rebuilds ' \
    || { echo "verify: stats lack dirty_class_rebuilds" >&2; exit 1; }
./target/release/memgaze query "$addr" shutdown > /dev/null
wait "$int_pid"
trap - EXIT
: > "$int_log"
./target/release/memgaze serve --addr 127.0.0.1:0 > "$int_log" &
int_pid=$!
trap 'kill "$int_pid" 2>/dev/null || true; rm -f "$int_log"' EXIT
addr="$(wait_bound "$int_log" serving "quiet daemon")"
./target/release/memgaze push "$addr" streamcluster streamcluster > /dev/null
./target/release/memgaze push "$addr" nw nw > /dev/null
for w in streamcluster nw; do
    ./target/release/memgaze push "$addr" "$w" "$w" --window 8 > /dev/null
done
quiet="$(int_views "$addr")"
[ "$raced" = "$quiet" ] || { echo "verify: interleaved views differ from the quiet daemon" >&2; exit 1; }
./target/release/memgaze query "$addr" shutdown > /dev/null
wait "$int_pid"
trap - EXIT
rm -f "$int_log"
echo "verify: interleaved smoke stage ok (queries raced --window 8 ingest, quiesced views byte-identical)" >&2

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
