#!/usr/bin/env bash
# CI stage 1 — tier-1 gate: the offline release build and the full test
# suite (unit, integration, doc tests), first of the root package, then
# of every workspace crate. This stage must stay green on every commit.
. "$(dirname "$0")/lib.sh"
ci_stage build_test

echo "== tier-1: cargo build --release"
cargo build --release

echo "== tier-1: cargo test"
cargo test -q

echo "== every workspace crate: cargo test --release --workspace"
cargo test -q --release --workspace
