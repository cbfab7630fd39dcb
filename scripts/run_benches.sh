#!/usr/bin/env bash
# Builds the Release bench preset, runs the engine, message-path and
# scheduler microbenches, the grid-at-scale workload, and the retry
# ablation, and diffs each fresh
# BENCH_*.json
# against its committed baseline, warning when any throughput figure
# regressed by more than 20%, peak RSS grew by more than 5% or a heap
# allocation count rose at all.
#
# Usage: scripts/run_benches.sh
# Exit code: non-zero if a bench itself fails its shape check; regressions
# against the baseline only warn (wall-clock numbers are machine-relative).
set -u

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo_root"

echo "== configure + build (bench preset, Release) =="
cmake --preset bench >/dev/null || exit 1
cmake --build --preset bench -j "$(nproc)" >/dev/null || exit 1

status=0

echo
echo "== bench/micro_engine =="
fresh_engine_json="build-bench/BENCH_engine.json"
./build-bench/bench/micro_engine "$fresh_engine_json" || status=1

echo
echo "== bench/micro_net =="
fresh_net_json="build-bench/BENCH_net.json"
./build-bench/bench/micro_net "$fresh_net_json" || status=1

echo
echo "== bench/micro_sched =="
fresh_sched_json="build-bench/BENCH_sched.json"
./build-bench/bench/micro_sched "$fresh_sched_json" || status=1

echo
echo "== bench/app_grid_scale =="
fresh_scale_json="build-bench/BENCH_scale.json"
./build-bench/bench/app_grid_scale "$fresh_scale_json" || status=1

echo
echo "== bench/ablate_retry =="
./build-bench/bench/ablate_retry || status=1

# diff_json <committed baseline> <fresh output>
diff_json() {
  local baseline="$1" fresh="$2"
  [[ -f "$fresh" ]] || return 0
  if [[ ! -f "$baseline" ]]; then
    # A brand-new bench has no committed baseline yet: that is not an
    # error, but say so instead of silently skipping, and point at the
    # file to commit as the first baseline.
    echo
    echo "== no committed baseline $baseline yet =="
    echo "   first run: commit $fresh as $baseline to start tracking"
    return 0
  fi
  echo
  echo "== regression check vs committed $baseline (warn at >20%, RSS >5%, any allocation rise) =="
  python3 - "$baseline" "$fresh" <<'PY'
import json, sys

with open(sys.argv[1]) as f:
    base = json.load(f)
with open(sys.argv[2]) as f:
    fresh = json.load(f)

def walk(prefix, b, f, rows):
    for key, bv in b.items():
        fv = f.get(key)
        if isinstance(bv, dict) and isinstance(fv, dict):
            walk(prefix + key + ".", bv, fv, rows)
        elif isinstance(bv, (int, float)) and not isinstance(bv, bool) \
                and isinstance(fv, (int, float)) and bv > 0:
            rows.append((prefix + key, bv, fv))

rows = []
walk("", base, fresh, rows)
worst = 0
for name, bv, fv in rows:
    delta = (fv - bv) / bv
    if name.endswith("peak_rss_mb"):
        # Memory: larger is worse, and it repeats within about 1% between
        # runs, so a tighter band than throughput's still never flakes.
        regressed = delta > 0.05
    elif "alloc" in name.rsplit(".", 1)[-1]:
        # Heap-allocation counts: larger is worse, and a count repeats
        # exactly on one toolchain, so any rise is a real change.
        regressed = delta > 0
    elif name.endswith(("_s", "workers", "_us", "_mb", "threads")):
        # Skip wall-clock seconds, per-query microseconds and machine
        # shape, where smaller is better or the value is machine-relative.
        continue
    else:
        # Throughput-style fields: smaller is worse.
        regressed = delta < -0.20
    flag = ""
    if regressed:
        flag = "  <-- REGRESSION"
        worst += 1
    print(f"  {name:55s} {bv:10.2f} -> {fv:10.2f}  {delta:+6.1%}{flag}")
if worst:
    print(f"\nWARNING: {worst} figure(s) regressed beyond their band "
          f"against the committed baseline.")
else:
    print("\nno regressions beyond their bands against the committed baseline.")
PY
}

diff_json BENCH_engine.json "$fresh_engine_json"
diff_json BENCH_net.json "$fresh_net_json"
diff_json BENCH_sched.json "$fresh_sched_json"
diff_json BENCH_scale.json "$fresh_scale_json"

exit $status
