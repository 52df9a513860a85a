#!/usr/bin/env bash
# Build the release machid and the benchmark, then run the benchmark.
#
#   bash perfbench/run.sh --workload hot_read --seed 1 --seconds 30 --trace 0
#
# Run from the root of a checkout. Both builds share one target
# directory: $CARGO_TARGET_DIR if set, else ./target.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet -p machiavelli-repl --bin machid
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml
exec "$CARGO_TARGET_DIR/release/perfbench" --machid "$CARGO_TARGET_DIR/release/machid" "$@"
