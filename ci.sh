#!/usr/bin/env bash
# The checks of the `build-test-lint` job in .github/workflows/ci.yml,
# which runs this script, so each check is defined only here.
#
# `./ci.sh --chaos` additionally replays the chaos suites under a
# fixed seed matrix (the `chaos` job in CI); a failure prints the
# IBDT_CHAOS_SEED value that reproduces it.
#
# `./ci.sh --soak` replays the incast/oversubscription soak suite
# (64→1 fan-in and 8×8 all-to-all, flow-control invariant auditor on)
# under the same fixed seed matrix (the `soak` job in CI).
#
# `./ci.sh --scale` runs the sharded scale-driver smoke: a 1024-rank
# vector Alltoall must finish inside its wall-clock and per-rank
# state budgets, and the 8-shard run must be bit-identical to the
# sequential reference (DESIGN.md §14, EXPERIMENTS.md X14). The `shm`
# job in CI runs it after its release build.
#
# `./ci.sh --chaos-scale` runs the crash-stop chaos matrix (the
# `chaos-scale` job in CI): the chaos_scale suite under the fixed seed
# matrix, plus the 4096-rank chaos smoke — a seeded crash-stop run
# must fingerprint bit-identically across 1/2/8 shards (DESIGN.md §15,
# EXPERIMENTS.md X15).
#
# `./ci.sh --shm` runs the shared-memory transport smoke: regenerates
# figure x17 (DDT vs manual pack across transports) and enforces the
# arXiv:1607.00178 guideline bounds — the datatype path must not lose
# to pack+send from 32 KiB up on any transport, and must stay within
# 1.2x below that (DESIGN.md §17, EXPERIMENTS.md X17).
set -euo pipefail
cd "$(dirname "$0")"

CHAOS=0
SOAK=0
SCALE=0
CHAOS_SCALE=0
SHM=0
for arg in "$@"; do
  case "$arg" in
    --chaos) CHAOS=1 ;;
    --soak) SOAK=1 ;;
    --scale) SCALE=1 ;;
    --chaos-scale) CHAOS_SCALE=1 ;;
    --shm) SHM=1 ;;
    *) echo "unknown argument: $arg (supported: --chaos, --soak, --scale, --chaos-scale, --shm)" >&2; exit 2 ;;
  esac
done

echo "==> lint: no HashMap on the hot path"
# The steady-state request path is dense-table/slab only (see DESIGN.md
# §12); a HashMap reintroduces per-message hashing and rehash
# allocation. The checked files are the protocol engine, its planner,
# and the transports with their shared delivery core. Escape hatch for
# a justified exception: put the token allow-hashmap in a comment on
# the same line.
if grep -n "HashMap" crates/mpicore/src/progress.rs crates/mpicore/src/plan.rs \
    crates/ibsim/src/fabric.rs crates/ibsim/src/shm.rs crates/ibsim/src/deliver.rs \
    | grep -v "allow-hashmap"; then
  echo "error: HashMap used in a hot-path module; use the dense tables" \
       "in mpicore::table / a simcore::Slab, or annotate the line with" \
       "an allow-hashmap comment explaining why." >&2
  exit 1
fi

echo "==> cargo fmt --check"
# The tree is rustfmt-clean; a change that is not fails here instead of
# leaving its formatting for the next change to revert by hand.
cargo fmt --all -- --check

echo "==> lines of code per crate (report only, no threshold)"
./tools/loc.sh

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> perfbench builds"
# perfbench reads RunStats fields; a change that breaks one fails here,
# on its own step, instead of inside the self-tests at the end. It is a
# workspace of its own, so its build lands under target/perfbench.
CARGO_TARGET_DIR=target/perfbench cargo build --release --manifest-path perfbench/Cargo.toml

echo "==> per-event smoke (fresh and recycled clusters bit-identical)"
./target/release/per_event --smoke

echo "==> figures byte-identical to results/"
./tools/figcheck.sh

echo "==> cargo test -q"
cargo test --workspace -q

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc -- -D warnings"
# A doc link to a renamed or deleted item, or a citation such as
# "ref [12]" written without escaping the brackets, fails here.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

if [[ "$CHAOS" == 1 ]]; then
  # Same matrix as the `chaos` CI job: each seed re-derives every
  # fault plan in the chaos suites, so four seeds exercise four
  # disjoint fault schedules per test.
  for seed in 0x1 0xBEEF 0xC4A0 0xFEED; do
    echo "==> chaos matrix: IBDT_CHAOS_SEED=$seed"
    IBDT_CHAOS_SEED=$seed cargo test -q --test chaos --test chaos_coll
  done
fi

if [[ "$SOAK" == 1 ]]; then
  # Incast soak matrix (the `soak` CI job): 64→1 eager incast and 8×8
  # all-to-all oversubscription with credits, bounded CQs, and the
  # flow-control invariant auditor enabled. Each seed re-derives the
  # per-case credit budgets, message sizes, and jitter plans.
  for seed in 0x1 0xBEEF 0xC4A0 0xFEED; do
    echo "==> incast soak matrix: IBDT_CHAOS_SEED=$seed"
    IBDT_CHAOS_SEED=$seed cargo test -q --test incast
  done
fi

if [[ "$SCALE" == 1 ]]; then
  echo "==> scale smoke (1024-rank Alltoall within budget, bit-identical shards)"
  ./target/release/scale --smoke
fi

if [[ "$CHAOS_SCALE" == 1 ]]; then
  # Crash-stop chaos matrix (the `chaos-scale` CI job): each seed
  # re-derives the node-failure plans in the chaos_scale suite
  # (membership, drain/recover, shrinker) and the seeded plan of the
  # 4096-rank chaos smoke.
  for seed in 0x1 0xBEEF 0xC4A0 0xFEED; do
    echo "==> chaos-scale matrix: IBDT_CHAOS_SEED=$seed"
    IBDT_CHAOS_SEED=$seed cargo test -q --test chaos_scale
  done
  echo "==> chaos smoke (4096-rank crash-stop run bit-identical across shards)"
  ./target/release/scale --chaos-smoke
fi

if [[ "$SHM" == 1 ]]; then
  echo "==> shm transport smoke (x17 guideline bounds)"
  mkdir -p target/shm_smoke
  ./target/release/figures x17 --csv target/shm_smoke > /dev/null
  python3 tools/x17_gate.py target/shm_smoke/x17.csv
fi

echo "==> perfbench self-tests"
# `cargo test --workspace` never reaches perfbench. This step runs last
# so that a failure here cannot keep the optional sections above from
# running; it still fails the script.
CARGO_TARGET_DIR=target/perfbench cargo test --release -q --manifest-path perfbench/Cargo.toml

echo "CI OK"
