#!/usr/bin/env python3
"""Fixed points: every listed program exits 0 and prints exactly the
committed stdout in <expected-dir>/<program name>.out.

Usage:
  check.py <expected-dir> <program>...

On a mismatch the unified diff (expected -> actual) is printed and the
exit code is 1.  A change that moves a fixed point on purpose regenerates
the file from a build, e.g.
  build/bench/fig2_gram_latency > tests/fixed_points/fig2_gram_latency.out
and says so in its description.
"""

from __future__ import annotations

import difflib
import os
import subprocess
import sys


def main(argv: list[str]) -> int:
    if len(argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    expected_dir, programs = argv[1], argv[2:]
    env = dict(os.environ)
    env.pop("ABLATE_DEBUG", None)  # ablate_retry's per-trial debug lines
    failures = 0
    for program in programs:
        name = os.path.basename(program)
        with open(os.path.join(expected_dir, name + ".out"), "rb") as f:
            expected = f.read()
        run = subprocess.run([program], stdout=subprocess.PIPE, env=env,
                             check=False)
        ok = True
        if run.returncode != 0:
            print(f"{name}: exit code {run.returncode}")
            ok = False
        if run.stdout != expected:
            print(f"{name}: stdout differs from {name}.out")
            sys.stdout.writelines(difflib.unified_diff(
                expected.decode(errors="replace").splitlines(keepends=True),
                run.stdout.decode(errors="replace").splitlines(keepends=True),
                fromfile=f"{name}.out", tofile=f"{name} (this build)"))
            ok = False
        if ok:
            print(f"{name}: ok")
        else:
            failures += 1
    print(f"fixed points: {len(programs) - failures}/{len(programs)} match")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
