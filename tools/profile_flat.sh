#!/usr/bin/env bash
# Where one perfbench workload spends its CPU, and who copies its bytes.
#
#   tools/profile_flat.sh <workload> [seconds]
#
# workload: solo_attack | shared_gateway | capture_roundtrip; seconds
# defaults to 20. Seed 5, as in docs/PERFORMANCE.md. Two runs:
#
# 1. Flat profile. perfbench is compiled WITHOUT -pg and linked with
#    -pg -static into build-gprof-static/. gprof's sampler then covers libc
#    and libstdc++ (memmove, malloc, free), which a shared build hides, and no
#    mcount call is added to every function, which would overstate the ones
#    called millions of times. Prints the top 25 symbols of `gprof -b -p`.
#    Without -pg code there are no call counts: read the self-time shares.
# 2. Copy tally. A dynamically linked build (build-copy-shim/) runs under
#    tools/copy_shim.c (LD_PRELOAD), which adds up the bytes handed to
#    memcpy/memmove by return address. Each return address is resolved with
#    `addr2line -f -i -C` to the innermost simulator function (namespace
#    h2sim) around the call, and bytes and calls are printed per trial.
#
# Both builds use perfbench/CMakeLists.txt unchanged, at the repository root.
set -euo pipefail

workload=${1:?usage: tools/profile_flat.sh <solo_attack|shared_gateway|capture_roundtrip> [seconds]}
seconds=${2:-20}
root=$(cd "$(dirname "$0")/.." && pwd)
jobs=$(nproc 2>/dev/null || echo 2)
if [ "$jobs" -gt 4 ]; then jobs=4; fi

# build <dir> <linker flags>
build() {
  cmake -S "$root/perfbench" -B "$1" -DCMAKE_BUILD_TYPE=None \
    -DCMAKE_CXX_FLAGS="-O2 -g -DNDEBUG" -DCMAKE_EXE_LINKER_FLAGS="$2" >/dev/null
  cmake --build "$1" --target perfbench -j"$jobs" >/dev/null
}

# run <dir> [VAR=value ...]: one perfbench run inside <dir>; stdout (the
# result JSON) goes to <dir>/result.json, the readable report to
# <dir>/report.txt.
run() {
  local dir=$1
  shift
  (cd "$dir" && env "$@" ./perfbench --workload "$workload" --seed 5 \
    --seconds "$seconds" --trace 0 --work-dir run \
    --reference "$root/perfbench/reference.json" --trace-out trace.json \
    >result.json 2>report.txt)
}

static_dir=$root/build-gprof-static
build "$static_dir" "-pg -static"
rm -f "$static_dir/gmon.out"
run "$static_dir"
echo "== flat profile: $workload, ${seconds} s, seed 5 (static link, sampled) =="
gprof -b -p "$static_dir/perfbench" "$static_dir/gmon.out" | sed -n 1,30p

shim_dir=$root/build-copy-shim
build "$shim_dir" ""
cc -O2 -shared -fPIC -fno-builtin -fno-tree-loop-distribute-patterns \
  -o "$shim_dir/copy_shim.so" "$root/tools/copy_shim.c" -ldl
rm -f "$shim_dir"/copy_shim.*.txt
run "$shim_dir" LD_PRELOAD="$shim_dir/copy_shim.so"
echo
echo "== bytes to memcpy/memmove: $workload, ${seconds} s, seed 5 =="
python3 - "$shim_dir" <<'EOF'
import glob, json, subprocess, sys

shim_dir = sys.argv[1]
result = json.loads(open(f"{shim_dir}/result.json").read().strip().splitlines()[-1])
trials = max(1, result["attempted"])
sites, libs = [], []
for path in glob.glob(f"{shim_dir}/copy_shim.*.txt"):
    for line in open(path):
        f = line.split()
        if f[0] == "#" and f[1] == "unrecorded":
            libs.append(("table full", int(f[2]), int(f[3])))
        elif f[0] == "#":
            libs.append((f[1], int(f[3]), int(f[4])))
        else:
            sites.append((f[0], int(f[1]), int(f[2])))

# One addr2line call for every address: -a prints each address before its
# inline chain (innermost function first).
out = subprocess.run(
    ["addr2line", "-a", "-f", "-i", "-C", "-e", f"{shim_dir}/perfbench"]
    + ["0x" + s[0] for s in sites],
    capture_output=True, text=True, check=True).stdout.splitlines()
chains = []
for line in out:
    if line.startswith("0x") and all(c in "0123456789abcdefx" for c in line):
        chains.append([])
    else:
        chains[-1].append(line)

def site_name(chain):
    # The innermost simulator function around the call, skipping the byte
    # queue itself when it was inlined into a caller: the caller is the site.
    frames = [(fn.split("(")[0], loc.rsplit("/", 1)[-1])
              for fn, loc in zip(chain[0::2], chain[1::2])]
    ours = [f for f in frames if "h2sim::" in f[0]]
    if not ours:
        return frames[0][0] if frames else "?"
    queue = [f for f in ours if "sim::ByteQueue::" in f[0]]
    rest = [f for f in ours if "sim::ByteQueue::" not in f[0]]
    if queue and rest:
        return f"{rest[0][0]} via {queue[0][0].rsplit('::', 1)[-1]}  ({rest[0][1]})"
    return f"{ours[0][0]}  ({ours[0][1]})"

totals = {}
for (addr, b, c), chain in zip(sites, chains):
    name = site_name(chain)
    tb, tc = totals.get(name, (0, 0))
    totals[name] = (tb + b, tc + c)
for lib, b, c in libs:
    name = f"[{lib.rsplit('/', 1)[-1]}]"
    tb, tc = totals.get(name, (0, 0))
    totals[name] = (tb + b, tc + c)

all_bytes = sum(b for b, _ in totals.values())
all_calls = sum(c for _, c in totals.values())
print(f"{trials} trials; {all_bytes / trials / 1e6:.1f} MB and "
      f"{all_calls / trials:.0f} calls per trial in total")
print(f"{'MB/trial':>9} {'calls/trial':>12}  call site")
for name, (b, c) in sorted(totals.items(), key=lambda kv: -kv[1][0])[:25]:
    print(f"{b / trials / 1e6:9.2f} {c / trials:12.0f}  {name}")
EOF
