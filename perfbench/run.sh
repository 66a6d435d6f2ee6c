#!/usr/bin/env bash
# Builds the benchmark from source (release profile, offline) and runs
# it; every argument is passed through:
#   bash perfbench/run.sh --workload replay-dds --seed 1 --seconds 30 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
