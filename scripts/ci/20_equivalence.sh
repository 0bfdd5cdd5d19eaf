#!/usr/bin/env bash
# CI stage 2 — engine equivalence: the randomized agreement suite over
# the four scalar engines, in release mode.
. "$(dirname "$0")/lib.sh"
ci_stage equivalence

echo "== equivalence: four scalar engines"
cargo test -q --release --test engine_equivalence
