#!/usr/bin/env bash
# CI stage 2.2 — tape optimizer gate. Six checks:
#
#   1. Opt-diff differential fuzz: 250 seed-pinned random RTL designs,
#      each run under every tape engine with the pass pipeline pinned
#      off AND pinned on (6 engine configurations), diffing every
#      net's settled value every cycle plus the logical event/call
#      profiles. This is the optimizer's correctness contract.
#      A second run draws every width from 1..=128 (--wide), so the
#      tapes that must stay on u128 registers are fuzzed too.
#   2. Body-dedup oracle: the engines optimize each distinct block body
#      once and stamp it into every instance; the oracle compares that
#      op for op (and the optimizer report) against compiling every
#      block on its own, over the design registry, 4/16/64-tile SoCs and
#      pinned random RTL seeds, with the optimizer off and on.
#   3. Pass-count golden: the per-pass rewrite counts of every registry
#      design must match crates/bench/tests/golden/opt_counts.txt
#      exactly (re-bless with MTL_BLESS=1 after an intended change).
#   4. Tape-word coverage: every registry design, 4/16/64-tile SoC and
#      the fig14 RTL mesh whose nets and memories all fit in 64 bits
#      must run every tape on u64 registers (OptReport::wide_tapes == 0),
#      so a width proof that silently stops firing fails here.
#   5. A/B speedup smoke: the fig14 RTL mesh measured with the
#      optimizer off and on; the run fails if the optimized
#      specialized-opt rate drops below the unoptimized one (the
#      pipeline must never pessimize the headline workload).
#
# The (iters, seed) pair is pinned so a red run reproduces locally with
# exactly these flags.
. "$(dirname "$0")/lib.sh"
ci_stage opt

echo "== opt-diff fuzz: 250 iterations, seed 7, optimizer off vs on"
cargo run -p mtl-bench --release --bin fuzz -- --opt-diff --iters 250 --seed 7

echo "== opt-diff fuzz, wide shape: 100 iterations, seed 7, widths up to 128 bits"
cargo run -p mtl-bench --release --bin fuzz -- --opt-diff --wide --iters 100 --seed 7

echo "== body-dedup oracle: per-body vs per-block compilation"
cargo test -p mtl-bench --release --test body_dedup

echo "== opt counts golden: per-pass rewrite counts per registry design"
cargo test -p mtl-bench --release --test opt_counts

echo "== tape words: designs within 64 bits run every tape on u64"
cargo test -p mtl-bench --release --test tape_words

echo "== opt speedup smoke: fig14 mesh, optimizer off vs on"
RUSTMTL_BENCH_DIR="${RUSTMTL_BENCH_DIR:-target}" \
    cargo run -p mtl-bench --release --bin opt_speedup -- --smoke
