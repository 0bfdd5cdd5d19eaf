#!/usr/bin/env bash
# CI stage 4.5 — fault injection + campaign resilience:
#
#   (a) seed-pinned fault-differential fuzz: seeded random fault plans on
#       random RTL designs must produce byte-identical faulty traces and
#       identical masked/silent/detected reports on each of the four
#       scalar engines;
#   (b) checkpoint/resume smoke: the fault_sweep --smoke campaign is
#       killed after two of its five jobs (RUSTMTL_SWEEP_EXIT_AFTER)
#       and restarted; the restart must replay exactly the journalled
#       jobs and recompute none of them;
#   (c) watchdog smoke: injected hangs (RUSTMTL_SWEEP_INJECT_HANG) are
#       killed by the per-job watchdog and the campaign still completes
#       every healthy job;
#   (d) the mtl-sim and mtl-fault unit tests (optimizer passes, the
#       width proof, fault plans), which the root `cargo test` skips.
#
# Everything is seed-pinned: a red run reproduces locally with exactly
# these commands.
. "$(dirname "$0")/lib.sh"
ci_stage fault

echo "== fault fuzz: 15 iterations, seed 7 (4 engines must agree)"
cargo run -p mtl-bench --release --bin fuzz -- --fault --iters 15 --seed 7

JOURNAL=target/sweep-journal/ci_fault_smoke.jsonl
rm -f "$JOURNAL"

echo "== resume smoke: kill fault_sweep --smoke after 2 of 5 jobs"
set +e
RUSTMTL_SWEEP_CACHE=0 RUSTMTL_SWEEP_EXIT_AFTER=2 RUSTMTL_BENCH_DIR=target \
    cargo run -q -p mtl-bench --release --bin fault_sweep -- \
    --smoke --journal "$JOURNAL" >/dev/null 2>&1
status=$?
set -e
if [ "$status" -ne 99 ]; then
    echo "expected the simulated kill (exit 99), got exit $status"
    exit 1
fi

echo "== resume smoke: restart must replay 2 jobs and re-execute only the rest"
out=$(RUSTMTL_SWEEP_CACHE=0 RUSTMTL_BENCH_DIR=target \
    cargo run -q -p mtl-bench --release --bin fault_sweep -- \
    --smoke --journal "$JOURNAL")
echo "$out" | grep -q "2 replayed from journal" || {
    echo "$out"; echo "FAIL: resume did not replay the journalled jobs"; exit 1; }
echo "$out" | grep -q "3 executed" || {
    echo "$out"; echo "FAIL: resume recomputed already-finished jobs"; exit 1; }
echo "$out" | grep -q "0 failed" || {
    echo "$out"; echo "FAIL: resumed campaign had failures"; exit 1; }

echo "== watchdog smoke: injected hangs must time out; healthy jobs must finish"
rm -f "$JOURNAL"
out=$(RUSTMTL_SWEEP_CACHE=0 RUSTMTL_SWEEP_INJECT_HANG=mesh16 RUSTMTL_BENCH_DIR=target \
    cargo run -q -p mtl-bench --release --bin fault_sweep -- \
    --smoke --journal "$JOURNAL" --watchdog-ms 300)
echo "$out" | grep -q "2 timed out" || {
    echo "$out"; echo "FAIL: watchdog did not kill the injected hangs"; exit 1; }
# 5 jobs attempted (3 healthy, incl. the batch bundle, + 2 hung); only
# the hung pair failed. The hang substring is mesh16 so the mesh4 batch
# job stays healthy.
echo "$out" | grep -q "5 executed" || {
    echo "$out"; echo "FAIL: not every job was attempted"; exit 1; }
echo "$out" | grep -q "2 failed" || {
    echo "$out"; echo "FAIL: healthy jobs did not complete alongside the hangs"; exit 1; }
rm -f "$JOURNAL"

echo "== mtl-sim and mtl-fault unit tests"
cargo test -q --release -p mtl-sim -p mtl-fault

echo "== fault stage: OK"
