#!/usr/bin/env bash
# Lines of Rust per crate, split into production and test code, so the
# "net lines of code" the ROADMAP reports can be reproduced.
#
#   src      lines under src/ outside #[cfg(test)] items (production)
#   cfg_test lines of #[cfg(test)] items under src/ (unit tests)
#   tests    lines under tests/ and benches/ (integration tests)
#
# Counts are raw `wc -l` lines: blank lines and comments count like
# code. A #[cfg(test)] item runs from the attribute to the brace that
# closes it, or to its `;`. Braces are counted without a lexer, so a
# brace inside a string or char literal of a test item can shift the
# split (never the total).
#
# Usage: tools/loc.sh            (every crate, the root package, perfbench)
# Prints a report only; it checks no threshold.
set -euo pipefail
cd "$(dirname "$0")/.."

# Prints "<prod> <cfg_test>" for the given files.
split_src() {
  awk '
    FNR == 1 { intest = 0 }
    {
      if (!intest && $0 ~ /^[ \t]*#\[cfg\(test\)\]/) {
        intest = 1; depth = 0; opened = 0
      }
      if (!intest) { prod++; next }
      test++
      line = $0
      o = gsub(/\{/, "{", line); c = gsub(/\}/, "}", line)
      depth += o - c
      if (o > 0) opened = 1
      if ((opened && depth <= 0) || (!opened && line ~ /;[ \t]*$/)) intest = 0
    }
    END { printf "%d %d\n", prod, test }
  ' "$@" /dev/null
}

count_lines() {
  if [[ $# -eq 0 ]]; then echo 0; else cat "$@" | wc -l; fi
}

row() {
  local name=$1 dir=$2
  local src=() tests=()
  [[ -d $dir/src ]] && mapfile -t src < <(find "$dir/src" -name '*.rs' | sort)
  for d in tests benches; do
    [[ -d $dir/$d ]] && mapfile -t -O "${#tests[@]}" tests < <(find "$dir/$d" -name '*.rs' | sort)
  done
  local prod cfg_test
  read -r prod cfg_test < <(split_src "${src[@]}")
  local t
  t=$(count_lines "${tests[@]}")
  printf '%-12s %8d %9d %8d %8d\n' "$name" "$prod" "$cfg_test" "$t" $((prod + cfg_test + t))
  total_prod=$((total_prod + prod))
  total_cfg=$((total_cfg + cfg_test))
  total_tests=$((total_tests + t))
}

total_prod=0 total_cfg=0 total_tests=0
printf '%-12s %8s %9s %8s %8s\n' crate src cfg_test tests total
for dir in crates/*/; do
  row "$(basename "$dir")" "${dir%/}"
done
row "(root)" .
row perfbench perfbench
printf '%-12s %8d %9d %8d %8d\n' total "$total_prod" "$total_cfg" "$total_tests" \
  $((total_prod + total_cfg + total_tests))
