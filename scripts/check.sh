#!/usr/bin/env bash
# Pre-PR gate: formatting, lints, and the tier-1 suite.
#
# Everything here runs fully offline — the workspace has no external
# dependencies (see DESIGN.md §3), so `--offline` only asserts that this
# stays true.
#
# `./scripts/check.sh --deep` additionally re-runs the concurrency-core
# unit tests under Miri and ThreadSanitizer where the toolchain supports
# them (each is skipped with a one-line note otherwise).
set -euo pipefail
cd "$(dirname "$0")/.."

DEEP=0
if [ "${1:-}" = "--deep" ]; then
  DEEP=1
fi

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== cargo clippy (-D warnings) =="
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== sov-lint determinism house rules (DESIGN.md 13) =="
cargo run --offline --release -q -p sov-lint

echo "== tier-1: build --release =="
cargo build --offline --workspace --release

echo "== tier-1: test =="
cargo test --offline --workspace -q

echo "== fused score+NMS bit-identity proptest (tile-seam corners) =="
cargo test --offline -q -p sov-perception --test proptests fused_nms

echo "== fault-window overlap-merge proptests =="
cargo test --offline -q -p sov-fault --test proptests

echo "== scenario-generator regeneration proptests =="
cargo test --offline -q -p sov-world --test proptests

echo "== safety-invariant nominal acceptance (sites + generated) =="
cargo test --offline -q -p sov-core --test safety_invariants

echo "== latency-ledger attribution proptests (spans telescope exactly) =="
cargo test --offline -q -p sov-core --test ledger_attribution

echo "== bounded-schedule model checking of the concurrency core    =="
echo "== (SPSC ring protocol, pool chunk claiming, pipeline drain;  =="
echo "== exhaustive interleavings + seeded-broken-variant checks)   =="
cargo test --offline -q -p sov-runtime --test model_protocols

if [ "$DEEP" -eq 1 ]; then
  echo "== deep: queue/pool unit tests under Miri =="
  # `cargo miri --version` (not `command -v cargo-miri`): rustup installs
  # a proxy shim even when the component itself is absent.
  if cargo miri --version >/dev/null 2>&1; then
    cargo miri test --offline -q -p sov-runtime queue:: pool::
  elif cargo +nightly miri --version >/dev/null 2>&1; then
    cargo +nightly miri test --offline -q -p sov-runtime queue:: pool::
  else
    echo "skip: Miri not installed on this toolchain"
  fi

  echo "== deep: queue/pool unit tests under ThreadSanitizer =="
  if rustc +nightly --version >/dev/null 2>&1 &&
    rustup component list --toolchain nightly 2>/dev/null | grep -q "^rust-src.*(installed)"; then
    RUSTFLAGS="-Z sanitizer=thread" cargo +nightly test --offline -q -Z build-std \
      --target "$(rustc -vV | sed -n 's/host: //p')" -p sov-runtime queue:: pool::
  else
    echo "skip: nightly rust-src (required for -Z sanitizer=thread) not installed"
  fi
fi

echo "== bench bins build + perf_matrix smoke =="
cargo build --offline --release -p sov-bench --bins
./target/release/perf_matrix --smoke

echo "== fig05_tlp (Fig. 5 depth sweep on FramePipeline; exits non-zero =="
echo "== if any depth > 1 run fell back to the serial schedule or left  =="
echo "== a frame unpipelined — a deterministic check, not a timing gate) =="
./target/release/fig05_tlp

echo "== quickstart example (closed-loop drive end to end) =="
cargo run --offline --release -q --example quickstart

echo "== pipeline_matrix smoke (front-end-lane cells + tail gate; exits =="
echo "== non-zero on checksum mismatch, an idle lane in the d3 w4 drive =="
echo "== cell, or — on hosts with >= 3 cores — a drained p99.9 that     =="
echo "== fails to beat the undrained drive)                             =="
if [ "$(nproc 2>/dev/null || echo 0)" -lt 3 ]; then
  echo "warning: host has < 3 cores — pipeline_matrix tail gate is informational only"
fi
./target/release/pipeline_matrix --smoke

echo "== scenario_matrix smoke (generated scenarios × faults, safety =="
echo "== invariants per frame; proves worker-lane JSON invariance)   =="
./target/release/scenario_matrix --smoke --workers 3

echo "== fleet determinism proptests (byte-identity across workers × =="
echo "== shard sizes × fault injection; allocation-free steady state) =="
cargo test --offline -q -p sov-fleet --test proptests

echo "== fleet dispatch-equivalence proptest (indexed + sharded vs the =="
echo "== serial linear scan over full fields across workers × dispatch =="
echo "== shards × route budgets (resident fields or A* legs) × index   =="
echo "== cell sizes × stall requeues)                                  =="
cargo test --offline -q -p sov-fleet --test proptests dispatch_equivalence

echo "== A* leg == full route field (goal-directed reverse search on   =="
echo "== grids 2-40 x blocks: bit-identical distance, identical lane    =="
echo "== path, same-lane ahead/behind included)                         =="
cargo test --offline -q -p sov-fleet --test proptests astar_matches_full_field

echo "== gated ride demand == exact search (straight-line-gated RideGen =="
echo "== vs a route search on every draw: same requests, same RNG state =="
echo "== over grids 2-12 × blocks × trip minima; a gapped map falls back) =="
cargo test --offline -q -p sov-fleet --test proptests -- gated_demand_matches_exact_search \
  gapped_map_falls_back_to_exact_search

echo "== process-wide allocation checks (counting global allocator: a  =="
echo "== warm FrameArena take/recycle loop and steady-state fleet       =="
echo "== phase_advance make zero allocator calls)                       =="
cargo test --offline -q -p sov-runtime --test arena_alloc
cargo test --offline -q -p sov-fleet --test proptests steady_state_advance_is_allocation_free

echo "== fleet_matrix smoke (ride serving with the spatial index on: one =="
echo "== linear reference cell + the indexed worker sweep + a serial     =="
echo "== 40x40 cell; exits non-zero on any report diverging from the     =="
echo "== reference, work counters that see the pool, an eval reduction   =="
echo "== below 2x, or 40x40 rides settling >= the map's lanes each)      =="
if [ "$(nproc 2>/dev/null || echo 0)" -lt 3 ]; then
  echo "warning: host has < 3 cores — fleet_matrix throughput gate is informational only"
fi
./target/release/fleet_matrix --smoke

echo "== fleet_matrix smoke, index off (pure linear-scan sweep: the =="
echo "== sharded advance must stay byte-identical without the index) =="
./target/release/fleet_matrix --smoke --dispatch linear

echo "All checks passed."
