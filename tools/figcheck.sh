#!/usr/bin/env bash
# Regenerates every figure with the release `figures` binary and fails
# on any byte of difference from the committed results/*.csv and, for
# the printed tables, results/figures.txt. It also renders the Fig. 3
# overlap diagram with the release `timeline` binary, the one run that
# records spans, and compares it with results/timeline.txt (its lanes
# and pack/wire overlap numbers). A change that moves a simulated
# result must regenerate results/ on purpose.
#
# x14/x15 are not checked: `scale` writes them with wall-clock columns,
# and `figures all` does not produce them.
#
# Usage: tools/figcheck.sh   (after `cargo build --release`)
set -euo pipefail
cd "$(dirname "$0")/.."

out=target/figcheck
rm -rf "$out"
mkdir -p "$out"
./target/release/figures all --csv "$out" > "$out/figures.txt" 2> "$out/figures.log" \
  || { cat "$out/figures.log" >&2; exit 1; }

fail=0
for f in results/*.csv; do
  name=$(basename "$f")
  case "$name" in x14.csv | x15.csv) continue ;; esac
  if ! cmp -s "$f" "$out/$name"; then
    echo "error: $name differs from results/$name" >&2
    fail=1
  fi
done
if ! cmp -s results/figures.txt "$out/figures.txt"; then
  echo "error: figures stdout differs from results/figures.txt" >&2
  fail=1
fi
./target/release/timeline > "$out/timeline.txt"
if ! cmp -s results/timeline.txt "$out/timeline.txt"; then
  echo "error: timeline stdout differs from results/timeline.txt" >&2
  fail=1
fi
exit "$fail"
