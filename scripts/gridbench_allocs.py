#!/usr/bin/env python3
"""Counts the heap allocations of gridbench's seed-101 simulations.

    python3 scripts/gridbench_allocs.py                    # all workloads
    python3 scripts/gridbench_allocs.py --workload coalloc_storm
    python3 scripts/gridbench_allocs.py --work-dir /tmp/allocs   # reusable

Copies gridbench/CMakeLists.txt and gridbench/harness.cpp into a work
directory next to a link to src/, adds one line after the harness's
untraced run_until that prints sim::AllocGuard's count of the process's
allocations so far to stderr, builds the copy Release, and runs each
workload with `--mode run --seed 101`.  Prints each workload's allocations
and allocations per attempted transaction (the `sim` block's
txn_attempted).  Allocation counts are deterministic, so two commits
compare exactly.

The added line prints to stderr only, so the `sim` block must match
tests/fixed_points/gridbench_seed101.json (fingerprint and SHA-256); a
workload that does not is refused and the script exits 1.  Nothing under
gridbench/ is written.  Without --work-dir the copy is built in a fresh
temporary directory and removed afterwards.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PIN = os.path.join(ROOT, "tests", "fixed_points", "gridbench_seed101.json")
SEED = 101
WORKLOADS = ("grid_day", "coalloc_storm", "forecast_detail")

RUN_LINE = "    grid_.run_until(w_.spec.duration);\n  } else {\n"
COUNT_LINE = ('    std::fprintf(stderr, "allocations %llu\\n",\n'
              "                 static_cast<unsigned long long>(\n"
              "                     grid::sim::AllocGuard::"
              "thread_allocations()));\n")
INCLUDE_AFTER = '#include "simkit/rng.hpp"\n'
INCLUDE = '#include "simkit/allocguard.hpp"\n'


def prepare(work):
    """Writes the instrumented copy of the harness under `work`."""
    src = os.path.join(ROOT, "gridbench")
    dst = os.path.join(work, "gridbench")
    os.makedirs(dst, exist_ok=True)
    link = os.path.join(work, "src")
    if not os.path.islink(link):
        os.symlink(os.path.join(ROOT, "src"), link)
    shutil.copyfile(os.path.join(src, "CMakeLists.txt"),
                    os.path.join(dst, "CMakeLists.txt"))
    with open(os.path.join(src, "harness.cpp")) as f:
        text = f.read()
    if text.count(RUN_LINE) != 1 or text.count(INCLUDE_AFTER) != 1:
        raise SystemExit("gridbench_allocs: harness.cpp no longer has the "
                         "untraced run_until this script instruments")
    text = text.replace(INCLUDE_AFTER, INCLUDE_AFTER + INCLUDE)
    text = text.replace(RUN_LINE, RUN_LINE.replace(
        "  } else {\n", COUNT_LINE + "  } else {\n"))
    path = os.path.join(dst, "harness.cpp")
    # Rewriting an unchanged copy would only force a rebuild.
    if not os.path.isfile(path) or open(path).read() != text:
        with open(path, "w") as f:
            f.write(text)
    build = os.path.join(work, "build")
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", dst, "-B", build,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, stderr=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build, "-j", "2"],
                   stdout=sys.stderr, stderr=sys.stderr, check=True)
    return os.path.join(build, "gridbench")


def count(binary, workload, want):
    """Runs one workload; returns (allocations, attempted) or a refusal."""
    proc = subprocess.run(
        [binary, "--workload", workload, "--seed", str(SEED), "--mode", "run"],
        capture_output=True, text=True, check=True)
    sim = json.loads(proc.stdout.strip().splitlines()[-1])["sim"]
    canonical = json.dumps(sim, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(canonical.encode()).hexdigest()
    if sim["fingerprint"] != want["fingerprint"] or \
            digest != want["sim_sha256"]:
        return None, "fingerprint %s (sim %s…), pinned %s (sim %s…)" % (
            sim["fingerprint"], digest[:12], want["fingerprint"],
            want["sim_sha256"][:12])
    lines = [line for line in proc.stderr.splitlines()
             if line.startswith("allocations ")]
    if len(lines) != 1:
        return None, "no allocation count on stderr"
    return (int(lines[0].split()[1]), sim["txn_attempted"]), None


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append", choices=WORKLOADS,
                   help="workload to count (repeatable; default: all)")
    p.add_argument("--work-dir",
                   help="build the instrumented copy here and keep it")
    args = p.parse_args()
    with open(PIN) as f:
        pin = json.load(f)["workloads"]
    work = args.work_dir or tempfile.mkdtemp(prefix="gridbench_allocs.")
    try:
        binary = prepare(os.path.abspath(work))
        refused = 0
        print("%-16s %14s %12s %16s" % (
            "workload", "allocations", "txn_attempted", "allocs/txn"))
        for workload in args.workload or WORKLOADS:
            got, why = count(binary, workload, pin[workload])
            if got is None:
                print("%-16s REFUSED: %s" % (workload, why))
                refused += 1
                continue
            allocations, attempted = got
            print("%-16s %14d %12d %16.1f" % (
                workload, allocations, attempted, allocations / attempted))
        return 1 if refused else 0
    finally:
        if args.work_dir is None:
            shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
