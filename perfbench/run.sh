#!/usr/bin/env bash
# Builds the benchmark from source, then runs it with the given arguments:
#   bash perfbench/run.sh --workload <mesh64|soc256_build|fault_serve> \
#       --seed <n> --seconds <s> --trace <0|1>
# Run from the repository root. Build output goes to stderr, so the last
# line of stdout is the benchmark's JSON result.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
