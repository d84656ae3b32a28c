#!/usr/bin/env bash
# Builds the `cinderella` daemon (from the repository's workspace) and the
# benchmark (this directory's own package), then runs the benchmark.
#
#   bash perfbench/run.sh --workload suite --seed 1 --seconds 20 --trace 0
#
# Run from the root of the repository. Build output goes to
# $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p cinderella
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml
exec "$CARGO_TARGET_DIR/release/perfbench" --cinderella "$CARGO_TARGET_DIR/release/cinderella" "$@"
