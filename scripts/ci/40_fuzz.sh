#!/usr/bin/env bash
# CI stage 4 — differential fuzz: seed-pinned differential fuzzing over
# the four scalar engines. The (iters, seed, cycles) triple is pinned so a red run
# reproduces locally with exactly these flags; a failure prints the
# minimized design as a ready-to-paste Rust reproducer.
. "$(dirname "$0")/lib.sh"
ci_stage fuzz

echo "== fuzz: 25 iterations, seed 7"
cargo run -p mtl-bench --release --bin fuzz -- --iters 25 --seed 7
