#!/usr/bin/env python3
"""Grid benchmark: end-to-end host cost and co-allocation latency.

    python3 gridbench/run.py --workload grid_day --seed 1 --seconds 35 --trace 0

Builds the simulator from source (gridbench/CMakeLists.txt, into
$CARGO_TARGET_DIR or .bench_build), then runs one workload for about
--seconds of host time, each simulation in its own process.  Prints every
metric by name and unit, and as the last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics from untraced runs; --trace 1
reports the per-layer metrics from traced runs, each paired with an
untraced run of the same seed whose simulated outputs must be identical.
"attempted" counts the simulations run and "failed" those that broke an
output check.  Exits non-zero when any output check fails.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("grid_day", "coalloc_storm", "forecast_detail")

# testbed::ScaleScenario's default spec at its default seed, as committed in
# BENCH_scale.json's "scale" block: grid_day at this seed must reproduce it.
REFERENCE_SEED = 0x5CA1E
REFERENCE_GRID_DAY = {
    "fingerprint": "0x2ab4ee595056ff66",
    "background_submitted": 949492,
    "background_completed": 856113,
    "txn_attempted": 23987,
    "txn_placed": 23987,
    "txn_released": 22232,
    "txn_done": 22196,
    "txn_aborted": 1750,
    "txn_select_failed": 0,
    "subjobs_requested": 84166,
    "gis_queries_served": 287844,
    "publish_rounds": 2880,
    "snapshots_refreshed": 1349536,
    "snapshots_skipped": 1531464,
    "events_executed": 7748133,
}

# Fields the harness and ScaleScenario both report; a summary-ranked harness
# run must match the scenario on all of them, a detail-ranked one too
# (the two ranking paths must agree).
REFERENCE_FIELDS = (
    "fingerprint", "events_executed", "background_submitted",
    "background_rejected", "background_completed", "txn_attempted",
    "txn_placed", "txn_select_failed", "txn_released", "txn_done",
    "txn_aborted", "subjobs_requested", "gis_queries_served",
    "publish_rounds", "snapshots_refreshed", "snapshots_skipped",
)

# Abort causes reported as metrics: ErrorCode x subjob category x phase.
# Transactions commit as soon as they are issued, so "post_commit" means
# before barrier release.  Every other combination lands in core.abort.other.
ABORT_CODES = ("ABORTED", "TIMEOUT", "UNAVAILABLE")
ABORT_CATEGORIES = ("required", "interactive")
ABORT_PHASES = ("post_commit", "post_release")
ABORT_METRICS = tuple(
    "core.abort.%s.%s.%s" % (c, k, p)
    for c in ABORT_CODES for k in ABORT_CATEGORIES for p in ABORT_PHASES)

# Simulation seeds in one pass of an untraced run: as many as fit in about
# 30 s of host time, since the latency tail varies most between seeds.
SEEDS_PER_PASS = {"grid_day": 2, "coalloc_storm": 2, "forecast_detail": 4}

# CPU seconds the machine-speed probe took on the machine the benchmark was
# written on (median of its runs there).  Normalized host times are CPU
# times scaled by this over the probe's time measured beside them, so they
# read in that machine's seconds.
PROBE_REFERENCE_S = 0.30


class CheckFailed(Exception):
    pass


def check(cond, what):
    if not cond:
        raise CheckFailed(what)


# ---- build ------------------------------------------------------------------

def build():
    """Configures and builds the harness; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "testbed", "scale.hpp")):
        raise SystemExit("gridbench: simulator sources (src/) not found "
                         "next to gridbench/")
    if shutil.which("cmake") is None:
        raise SystemExit("gridbench: cmake not found")
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    build_dir = os.path.join(build_dir, "gridbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", "2"],
                   stdout=sys.stderr, stderr=sys.stderr, check=True)
    return os.path.join(build_dir, "gridbench")


# ---- one harness process at a time -------------------------------------------

def harness(cmd):
    """Runs one harness process to completion; returns its JSON result."""
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise CheckFailed("%s exited %d: %s" % (
            " ".join(cmd[1:]), proc.returncode, proc.stderr.strip()))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_child(binary, workload, seed, mode, small=False, pool_seed=None):
    """One simulation in its own process."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--mode", mode]
    if small:
        cmd.append("--small")
    if pool_seed is not None:
        cmd += ["--pool-seed", str(pool_seed)]
    return harness(cmd)


def probe(binary):
    """CPU seconds of the harness's machine-speed probe."""
    return harness([binary, "--mode", "probe"])["probe_cpu_s"]


def check_simulation(r):
    """Per-simulation output checks; the harness counts the transaction
    invariants it saw broken (second terminal callback, release after the
    terminal one, done without release, second broker answer, broker
    silent past its deadline, abort with no failed subjob)."""
    name = "%s/%s" % (r["workload"], r["mode"])
    check(r["violation_count"] == 0,
          "%s: transaction invariants violated: %s" % (name, r["violations"]))
    check(r["sim"]["background_completed"] > 0 and r["sim"]["txn_released"] > 0,
          "%s: workload did no work" % name)


def check_reference(binary, workload, seed):
    """At smoke size, the harness must reproduce testbed::ScaleScenario,
    which draws its resource pool from the traffic seed."""
    mine = run_child(binary, workload, seed, "run", small=True,
                     pool_seed=seed)
    check_simulation(mine)
    ref = run_child(binary, workload, seed, "reference", small=True)
    for key in REFERENCE_FIELDS:
        check(mine["sim"][key] == ref["sim"][key],
              "%s seed %d: harness %s=%s but ScaleScenario has %s" % (
                  workload, seed, key, mine["sim"][key], ref["sim"][key]))


def check_fixed_point(r):
    if r["workload"] != "grid_day" or r["seed"] != REFERENCE_SEED:
        return
    for key, want in REFERENCE_GRID_DAY.items():
        check(r["sim"][key] == want,
              "grid_day at seed 0x5ca1e: %s=%s, committed %s" % (
                  key, r["sim"][key], want))


def same_outputs(a, b, what):
    check(a["sim"] == b["sim"], "%s: simulated outputs differ" % what)


# ---- measurement ------------------------------------------------------------

def run_seeds(workload, seed):
    """The simulation seeds of one pass: the given seed first (so grid_day
    at 0x5ca1e is the fixed point), then derived ones."""
    return [seed + i * 1000003 for i in range(SEEDS_PER_PASS[workload])]


def ratio(num, den):
    return num / den if den else 0.0


def nearest_rank(sorted_xs, q):
    return sorted_xs[min(len(sorted_xs) - 1, int(q * len(sorted_xs)))]


def end_to_end(binary, workload, seed, seconds):
    """Whole passes over the seeds while another pass fits in --seconds (at
    least one), so every seed weighs the same.  The probe runs before the
    first simulation and after each one; a simulation's CPU times are
    normalized by the mean of the probes on either side of it."""
    deadline = time.monotonic() + seconds
    seeds = run_seeds(workload, seed)
    runs = []
    probes = [probe(binary)]
    while True:
        start = time.monotonic()
        for s in seeds:
            r = run_child(binary, workload, s, "run")
            probes.append(probe(binary))
            check_simulation(r)
            if len(runs) >= len(seeds):
                same_outputs(runs[len(runs) - len(seeds)], r,
                             "%s seed %d rerun" % (workload, s))
            runs.append(r)
        took = time.monotonic() - start
        if time.monotonic() + took > deadline:
            break
    check_fixed_point(runs[0])
    scales = [2 * PROBE_REFERENCE_S / (a + b)
              for a, b in zip(probes, probes[1:])]
    sims = [r["sim"] for r in runs[:len(seeds)]]
    days = sims[0]["simulated_days"]
    latencies = sorted(x for s in sims for x in s["txn_release_latencies_ns"])
    attempted = sum(s["txn_attempted"] for s in sims)
    failed = sum(s["txn_aborted"] + s["txn_select_failed"] for s in sims)
    started = sum(s["background_started"] for s in sims)
    metrics = {
        "setup_s": statistics.median(
            r["setup_cpu_s"] * k for r, k in zip(runs, scales)),
        "cpu_per_simday_norm_s": statistics.median(
            r["run_cpu_s"] * k for r, k in zip(runs, scales)) / days,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "txn_release_p50_sim_s": nearest_rank(latencies, 0.50) / 1e9,
        "txn_release_p99_sim_s": nearest_rank(latencies, 0.99) / 1e9,
        "bg_wait_mean_sim_s": ratio(sum(
            s["bg_wait_mean_sim_s"] * s["background_started"] for s in sims),
            started),
        "bg_wait_p99_sim_s": statistics.median(
            s["bg_wait_p99_sim_s"] for s in sims),
        "txn_failed_ratio": ratio(failed, attempted),
    }
    notes = [
        "seeds: %s; passes: %d; simulated days each: %g" % (
            ",".join(map(str, seeds)), len(runs) // len(seeds), days),
        "txn_failed_ratio base: %d failed (aborted + select-failed) / %d "
        "attempted; %d in flight at the end, %d still selecting" % (
            failed, attempted, sum(s["txn_in_flight"] for s in sims),
            sum(s["txn_selecting"] for s in sims)),
        "txn_release_* base: %d released transactions, pooled" % len(
            latencies),
        "bg_wait_* base: %d background jobs started of %d submitted" % (
            started, sum(s["background_submitted"] for s in sims)),
        "fingerprints: %s" % ",".join(s["fingerprint"] for s in sims),
        "probe cpu s: %s" % " ".join("%.4f" % p for p in probes),
        "per simulation: wall s / cpu s / setup ms: %s" % "  ".join(
            "%.3f/%.3f/%.2f" % (r["run_wall_s"], r["run_cpu_s"],
                                r["setup_s"] * 1e3) for r in runs),
    ]
    return runs, metrics, notes


def per_layer(binary, workload, seed, seconds):
    deadline = time.monotonic() + seconds

    pairs = []
    while True:
        t0 = time.monotonic()
        pairs.append((run_child(binary, workload, seed, "run"),
                      run_child(binary, workload, seed, "traced")))
        took = time.monotonic() - t0
        if time.monotonic() + took > deadline:
            break
    for plain, traced in pairs:
        check_simulation(plain)
        check_simulation(traced)
        same_outputs(plain, traced, "%s seed %d traced vs untraced" % (
            workload, seed))
        same_outputs(pairs[0][0], plain, "%s seed %d rerun" % (workload, seed))
        unattributed = traced["run_wall_s"] - traced["layers"]["timed_s"]
        check(unattributed >= 0, "layer spans overlap: timed time exceeds "
              "traced wall time")
    check_fixed_point(pairs[0][0])
    plains = [p for p, _ in pairs]
    traceds = [t for _, t in pairs]
    sim = plains[0]["sim"]
    samples = traceds[0]["samples"]

    def layer(name):
        return statistics.median(t["layers"][name] for t in traceds)

    plain_wall = statistics.median(p["run_wall_s"] for p in plains)
    traced_wall = statistics.median(t["run_wall_s"] for t in traceds)
    aborts = sim["aborts"]
    m = {
        "wall_per_simday_s": plain_wall / sim["simulated_days"],
        "engine.events": sim["events_executed"],
        "engine.ns_per_event": plain_wall / sim["events_executed"] * 1e9,
        "engine.pending_peak": max(h["pending"] for h in samples),
        "sched.submit_s": layer("sched.submit_s"),
        "sched.bg_submits": sim["background_submitted"],
        "sched.bg_rejected": sim["background_rejected"],
        "sched.queued_jobs_peak": max(h["queued"] for h in samples),
        "sched.queued_jobs_end": sim["queued_jobs_end"],
        "info.publish_rounds": sim["publish_rounds"],
        "info.snapshots_refreshed": sim["snapshots_refreshed"],
        "info.snapshots_skipped": sim["snapshots_skipped"],
        "info.snapshot_s": layer("info.snapshot_s"),
        "info.summary_s": layer("info.summary_s"),
        "info.version_s": layer("info.version_s"),
        "info.snapshot_jobs_copied": traceds[0]["layers"][
            "info.snapshot_jobs_copied"],
        "info.gis_queries": sim["gis_queries_served"],
        "info.gis_cache_hit_ratio": ratio(
            sim["gis_cache_hits"], sim["gis_cache_hits"]
            + sim["gis_cache_misses"]),
        "info.select_s": layer("info.select_s"),
        "info.select_p50_sim_s": sim["select_p50_sim_s"],
        "net.messages": sim["net_messages"],
        "net.bytes": sim["net_bytes"],
        "net.dropped": sim["net_dropped"],
        "net.rpc_retries": sim["net_rpc_retries"],
        "net.payload_recycled_ratio": ratio(
            sim["net_payloads_recycled"], sim["net_payloads_recycled"]
            + sim["net_payloads_fresh"]),
        "net.nodes_live_peak": max(h["nodes"] for h in samples),
        "core.txn_attempted": sim["txn_attempted"],
        "core.txn_placed": sim["txn_placed"],
        "core.txn_released": sim["txn_released"],
        "core.txn_done": sim["txn_done"],
        "core.txn_aborted": sim["txn_aborted"],
        "core.issue_s": layer("core.issue_s"),
        "core.destroy_s": layer("core.destroy_s"),
    }
    for name in ABORT_METRICS:
        m[name] = aborts.get(name, 0)
    m["core.abort.other"] = sim["txn_aborted"] - sum(
        m[name] for name in ABORT_METRICS)
    m.update({
        "app.barrier_checkins_ok": sim["barrier_checkins_ok"],
        "app.barrier_checkins_failed": sim["barrier_checkins_failed"],
        "app.barrier_wait_p50_sim_s": sim["barrier_wait_p50_sim_s"],
        "gram.nis_lookups": sim["gram_nis_lookups"],
        "trace.sample_s": layer("trace.sample_s"),
        "trace.wall_s": traced_wall,
        "unattributed_s": statistics.median(
            t["run_wall_s"] - t["layers"]["timed_s"] for t in traceds),
        "trace.overhead_ratio": traced_wall / plain_wall,
    })
    notes = ["traced/untraced pairs: %d" % len(pairs)]
    notes.append("abort causes (code.category.phase): " + ", ".join(
        "%s=%d" % (k[len("core.abort."):], v) for k, v in sorted(
            aborts.items())) if aborts else "abort causes: none")
    notes.append("samples of the traced run (seed %d):" % seed)
    notes.append("  sim_h   wall_s   rss_mb   pending   queued    nodes  "
                 "live_requests")
    for h in samples:
        notes.append("  %5.2f %8.3f %8.1f %9d %8d %8d %14d" % (
            h["sim_h"], h["wall_s"], h["rss_mb"], h["pending"], h["queued"],
            h["nodes"], h["live_requests"]))
    return [r for p in pairs for r in p], m, notes


def unit_of(name):
    """Units follow the metric names: *_sim_s is simulated (virtual) time,
    every other *_s host time."""
    if name.endswith("_sim_s"):
        return "sim_s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_mb"):
        return "MB"
    if name == "engine.ns_per_event":
        return "ns"
    if name == "net.bytes":
        return "bytes"
    return "count"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seed < 0:
        raise SystemExit("gridbench: --seed must be non-negative")

    binary = build()
    result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        check_reference(binary, args.workload, args.seed)
        measure = per_layer if args.trace else end_to_end
        sims, metrics, notes = measure(binary, args.workload, args.seed,
                                       args.seconds)
        result["attempted"] = len(sims)
        result["correct"] = True
    except CheckFailed as e:
        print("OUTPUT CHECK FAILED: %s" % e)
        result["attempted"] = max(1, result["attempted"])
        result["failed"] = result["attempted"]
        print(json.dumps(result))
        return 1

    print("gridbench %s seed %d (%s)" % (
        args.workload, args.seed, "traced" if args.trace else "untraced"))
    for note in notes:
        print(note)
    for name, value in metrics.items():
        unit = unit_of(name)
        print("%-44s %16.6g %s" % (name, value, unit))
        result["metrics"][name] = {"value": value, "unit": unit}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
