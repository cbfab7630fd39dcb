#!/usr/bin/env python3
"""Checks that gridbench's seed-101 simulated outputs are unchanged.

    python3 scripts/check_gridbench_seed101.py            # compare
    python3 scripts/check_gridbench_seed101.py --write    # re-pin

Builds the benchmark harness with gridbench/run.py's build(), runs
`--mode run --seed 101` once per workload, and compares each run with
tests/fixed_points/gridbench_seed101.json: the fingerprint,
events_executed, net_bytes, the SHA-256 of the run's whole `sim` block as
canonical JSON (sorted keys, no whitespace), and the SHA-256 of each
top-level `sim` key's value, so a mismatch names the keys that moved.
Host-time fields live outside the `sim` block, so the check is
deterministic.  Exits 0 when every workload matches.  --write records the
current outputs instead; a change that moves these outputs on purpose does
that and says so.
"""
import argparse
import hashlib
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "gridbench"))
import run as bench  # noqa: E402

SEED = 101
PIN = os.path.join(ROOT, "tests", "fixed_points", "gridbench_seed101.json")


def sha256(value):
    canonical = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def outputs(binary, workload):
    sim = bench.run_child(binary, workload, SEED, "run")["sim"]
    return {
        "fingerprint": sim["fingerprint"],
        "events_executed": sim["events_executed"],
        "net_bytes": sim["net_bytes"],
        "sim_sha256": sha256(sim),
        "sim_key_sha256": {k: sha256(v) for k, v in sim.items()},
    }


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--write", action="store_true",
                   help="record the current outputs as the pin")
    args = p.parse_args()
    binary = bench.build()
    got = {w: outputs(binary, w) for w in bench.WORKLOADS}
    if args.write:
        with open(PIN, "w") as f:
            json.dump({"seed": SEED, "workloads": got}, f, indent=2,
                      sort_keys=True)
            f.write("\n")
        print("gridbench seed %d: pinned %s" % (SEED, os.path.relpath(PIN)))
        return 0
    with open(PIN) as f:
        want = json.load(f)["workloads"]
    failures = 0
    for workload in bench.WORKLOADS:
        differ = [k for k, v in want[workload].items()
                  if got[workload].get(k) != v]
        for key in differ:
            if key == "sim_key_sha256":
                keys = want[workload][key].keys() | got[workload][key].keys()
                moved = sorted(k for k in keys if want[workload][key].get(k)
                               != got[workload][key].get(k))
                print("FAIL %-16s sim keys moved: %s" % (
                    workload, ", ".join(moved)))
            else:
                print("FAIL %-16s %s = %s, pinned %s" % (
                    workload, key, got[workload][key], want[workload][key]))
        if not differ:
            print("ok   %-16s fingerprint %s" % (
                workload, got[workload]["fingerprint"]))
        failures += len(differ)
    print("gridbench seed %d: %s" % (
        SEED, "unchanged" if failures == 0 else "CHANGED"))
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
