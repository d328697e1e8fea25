#!/usr/bin/env bash
# Smoke-check the benchmark from the repository root: the package's unit
# tests, every workload at tiny sizes (under 15 s together), and every
# workload and metric named in BENCHMARK.json emitted exactly once with
# its unit, no name outside [A-Za-z0-9_.-], all output checks passing.
set -euo pipefail
cd "$(dirname "$0")/.."

manifest=benchmark/Cargo.toml
cargo test --release --offline --quiet --manifest-path "$manifest"
cargo build --release --offline --quiet --manifest-path "$manifest"
cargo run --release --offline --quiet --manifest-path "$manifest" -- run --smoke
cargo run --release --offline --quiet --manifest-path "$manifest" -- check
