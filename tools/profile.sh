#!/usr/bin/env bash
# Where perfbench's host time goes: self time by function and by crate,
# from a SIGPROF sampler that walks frame pointers.
#
# Usage: tools/profile.sh <workload> [seconds] [top]
#   workload  one of perfbench's workloads, e.g. pt2pt_vector
#   seconds   perfbench --seconds (default 15)
#   top       functions listed (default 25)
#
# Builds perfbench with -C force-frame-pointers=yes into
# target/profile (apart from perfbench/run.py's build), compiles
# tools/profile_sampler.c into an LD_PRELOAD library, runs one
# untraced seed-1 repetition set under it, and symbolises the samples
# with nm. Samples whose program counter lies outside the perfbench
# executable (libc's memcpy, memset, malloc, ...) are charged to their
# direct caller: the return address at the top of the stack when it
# lies in the executable, else the first frame-pointer frame that does.
# The "libc" column is the share of a function's self time so charged.
# Needs gcc, nm and python3; x86-64 Linux only.
set -euo pipefail
cd "$(dirname "$0")/.."

workload=${1:?usage: tools/profile.sh <workload> [seconds] [top]}
seconds=${2:-15}
top=${3:-25}
out=target/profile
mkdir -p "$out"

gcc -O2 -shared -fPIC -o "$out/sampler.so" tools/profile_sampler.c
RUSTFLAGS="-C force-frame-pointers=yes" CARGO_TARGET_DIR="$out" \
  cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml
exe="$(realpath "$out/release/perfbench")"

# The same glibc thresholds as perfbench/run.py.
MALLOC_MMAP_THRESHOLD_=$((32 << 20)) MALLOC_TRIM_THRESHOLD_=$((1 << 30)) \
  PROF_OUT="$out/samples.txt" LD_PRELOAD="$(realpath "$out/sampler.so")" \
  "$exe" --workload "$workload" --seed 1 --seconds "$seconds" --trace 0 >"$out/run.log" 2>&1
nm -n -C --defined-only "$exe" >"$out/symbols.txt"

python3 - "$exe" "$out/samples.txt" "$out/symbols.txt" "$top" <<'EOF'
import bisect, collections, re, sys

exe, samples_path, symbols_path, top = sys.argv[1], sys.argv[2], sys.argv[3], int(sys.argv[4])

addrs, names = [], []
for line in open(symbols_path):
    parts = line.split(" ", 2)
    if len(parts) == 3 and parts[1] in "tTwWi":
        addrs.append(int(parts[0], 16))
        names.append(re.sub(r"::h[0-9a-f]{16}$", "", parts[2].strip()))

base, spans, samples, dropped = None, [], [], 0
for line in open(samples_path):
    kind, _, rest = line.partition(" ")
    if kind == "map":
        f = rest.split()
        if len(f) >= 6 and f[5] == exe:
            lo, hi = (int(x, 16) for x in f[0].split("-"))
            spans.append((lo, hi))
            if int(f[2], 16) == 0:
                base = lo
    elif kind == "dropped":
        dropped = int(rest)
    elif kind == "sample" and rest.strip():
        samples.append([int(x, 16) for x in rest.split()])
if base is None or not samples:
    sys.exit("profile: no samples of the perfbench executable")

def symbol(a):
    i = bisect.bisect_right(addrs, a - base) - 1
    return names[i] if i >= 0 else "?"

def in_exe(a):
    return any(lo <= a < hi for lo, hi in spans)

self_time, via_libc = collections.Counter(), collections.Counter()
for pc, *callers in samples:
    if in_exe(pc):
        self_time[symbol(pc)] += 1
        continue
    owner = next((symbol(a - 1) for a in callers if in_exe(a)), "[outside perfbench]")
    self_time[owner] += 1
    via_libc[owner] += 1

def crate(name):
    m = re.search(r"\b(ibdt_\w+)", name)
    if m or name.startswith("["):
        return m.group(1) if m else name
    return re.split(r"::|<|\s", name.lstrip("<&"))[0] or name

n = len(samples)
charged = sum(via_libc.values())
print(f"{n} samples ({dropped} dropped); {100 * charged / n:.1f}% outside perfbench, charged to callers")
print(f"\nself time by function (top {top}):")
print(f"{'share':>7} {'libc':>7}  function")
for name, k in self_time.most_common(top):
    print(f"{100 * k / n:6.1f}% {100 * via_libc[name] / n:6.1f}%  {name}")
by_crate = collections.Counter()
for name, k in self_time.items():
    by_crate[crate(name)] += k
print("\nself time by crate:")
for name, k in by_crate.most_common():
    print(f"{100 * k / n:6.1f}%  {name}")
EOF
