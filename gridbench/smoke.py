#!/usr/bin/env python3
"""Smoke test of the grid benchmark at a small size (a few seconds).

    python3 gridbench/smoke.py [--seeds 3,5]

For every workload and every seed it checks that the harness reproduces
testbed::ScaleScenario, that a rerun with the same seed gives identical
simulated outputs, that a traced run gives the same simulated outputs as an
untraced one, and that the per-simulation output checks hold.  Different
seeds must give different outputs.  Exits 0 when everything holds.
"""
import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as bench  # noqa: E402


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="3,5")
    args = p.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    binary = bench.build()
    failures = 0
    for workload in bench.WORKLOADS:
        fingerprints = set()
        for seed in seeds:
            try:
                bench.check_reference(binary, workload, seed)
                first = bench.run_child(binary, workload, seed, "run", True)
                again = bench.run_child(binary, workload, seed, "run", True)
                traced = bench.run_child(binary, workload, seed, "traced",
                                         True)
                for r in (first, again, traced):
                    bench.check_simulation(r)
                bench.same_outputs(first, again, "rerun")
                bench.same_outputs(first, traced, "traced vs untraced")
                bench.check(len(traced["samples"]) > 0, "no traced samples")
                fingerprints.add(first["sim"]["fingerprint"])
                print("ok   %-16s seed %d  fingerprint %s" % (
                    workload, seed, first["sim"]["fingerprint"]))
            except bench.CheckFailed as e:
                failures += 1
                print("FAIL %-16s seed %d  %s" % (workload, seed, e))
        if len(fingerprints) < len(set(seeds)) and failures == 0:
            failures += 1
            print("FAIL %-16s different seeds gave equal fingerprints" %
                  workload)
    print("smoke: %s" % ("HOLDS" if failures == 0 else "VIOLATED"))
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
