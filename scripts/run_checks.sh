#!/usr/bin/env bash
# The full correctness gauntlet, locally: gridlint (tree scan + fixture
# selftest), then build + ctest under every correctness preset — default,
# asan (ASan+UBSan), ubsan, tsan, and checked (GRID_CHECKED invariant
# tripwires) — and, with the default preset, the benchmark harness smoke
# check (gridbench/smoke.py builds the harness against the current API) and
# the pin of its seed-101 outputs (scripts/check_gridbench_seed101.py).
# clang-tidy runs if the binary is installed, and is skipped with a note
# otherwise.
#
# Usage: scripts/run_checks.sh [preset...]   (default: all presets)
# Exit code: non-zero on the first failing stage.
set -u

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo_root"

presets=("$@")
if [ ${#presets[@]} -eq 0 ]; then
  presets=(default asan ubsan tsan checked)
fi

echo "== gridlint =="
# --engine auto upgrades to the libclang AST engine when clang.cindex and
# build/compile_commands.json are present (regex engine otherwise).
python3 tools/gridlint/gridlint.py --root . --engine auto || exit 1
python3 tools/gridlint/gridlint.py --root . --selftest || exit 1

for preset in "${presets[@]}"; do
  echo "== ${preset}: configure + build + ctest =="
  cmake --preset "$preset" >/dev/null || exit 1
  cmake --build --preset "$preset" -j "$(nproc)" >/dev/null || exit 1
  ctest --preset "$preset" -j "$(nproc)" --output-on-failure || exit 1
  if [ "$preset" = default ]; then
    echo "== default: benchmark harness smoke =="
    python3 gridbench/smoke.py || exit 1
    echo "== default: gridbench seed-101 outputs =="
    python3 scripts/check_gridbench_seed101.py || exit 1
  fi
done

if command -v clang-tidy >/dev/null 2>&1; then
  echo "== clang-tidy =="
  cmake --build build --target tidy || exit 1
else
  echo "== clang-tidy: not installed, skipped =="
fi

echo "all checks passed"
