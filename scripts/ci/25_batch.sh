#!/usr/bin/env bash
# CI stage 2.5 — bit-sliced batch engine gate. Three checks:
#
#   1. Batch differential fuzz: seed-pinned random RTL designs, each run
#      on one SpecializedBatch simulator (64 lanes, distinct stimulus
#      per lane) against a scalar Interpreted reference per lane,
#      comparing every signal of every lane after every cycle. Lane
#      transposition or plane-program miscompiles fail here. A second
#      run draws every width from 1..=128 (--wide): plane lowering of
#      u128 tapes and the per-lane fallback on both register words.
#   2. Batch fault-campaign throughput smoke: fault_sweep --smoke runs
#      its mesh4/rtl-ir batch bundle (batch lane reports are
#      cross-checked against scalar run_diff inside the job) and
#      --require-batch-speedup 1.0 turns "the batch engine must not be
#      slower than the scalar baseline" into the exit code.
#   3. Lane-exactness tests (crates/bench/tests/batch_lanes.rs): every
#      lane against scalar SpecializedOpt twins, under per-lane stimulus,
#      per-lane faults and broadcast faults.
#
# The (iters, seed) pair is pinned so a red run reproduces locally with
# exactly these flags.
. "$(dirname "$0")/lib.sh"
ci_stage batch

echo "== batch fuzz: 120 iterations, seed 7, 64 lanes vs interpreted references"
cargo run -p mtl-bench --release --bin fuzz -- --batch --iters 120 --seed 7

echo "== batch fuzz, wide shape: 100 iterations, seed 7, widths up to 128 bits"
cargo run -p mtl-bench --release --bin fuzz -- --batch --wide --iters 100 --seed 7

echo "== batch throughput smoke: batch bundle must not lose to scalar run_diff"
rm -f target/sweep-journal/ci_batch_smoke.jsonl
RUSTMTL_SWEEP_CACHE=0 RUSTMTL_BENCH_DIR=target \
    cargo run -q -p mtl-bench --release --bin fault_sweep -- \
    --smoke --journal target/sweep-journal/ci_batch_smoke.jsonl \
    --require-batch-speedup 1.0

echo "== batch lane-exactness tests"
cargo test -p mtl-bench --release --test batch_lanes
