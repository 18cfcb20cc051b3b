"""Reference figures of the host and toolchain, and a trace of host speed.

    python3 bench/reference.py --host-seconds 60

Prints the git commit (when the checkout is a repository), the Python,
numpy and scipy versions, the core count, the median start-up time of a
bare interpreter, of `import numpy` and of `import scipy.optimize` in fresh
interpreters, and then the fixed-loop host probe of run.py every five
seconds, so that host drift can be told apart from a program change.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import time

import numpy
import scipy

from run import host_probe_ms
from workloads import ROOT

STARTS = 7


def fresh_interpreter_s(code: str) -> float:
    samples = []
    for _ in range(STARTS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--host-seconds", type=float, default=60.0)
    args = parser.parse_args(argv)

    bare = fresh_interpreter_s("pass")
    print(f"git commit        {git_sha()}")
    print(f"python            {sys.version.split()[0]}")
    print(f"numpy             {numpy.__version__}")
    print(f"scipy             {scipy.__version__}")
    print(f"cores (nproc)     {os.cpu_count()}")
    print(f"bare interpreter  {bare * 1e3:.0f} ms (median of {STARTS} starts)")
    for module in ("numpy", "scipy.optimize"):
        took = fresh_interpreter_s(f"import {module}") - bare
        print(f"import {module:<14} {took * 1e3:.0f} ms beyond a bare start")

    print("host probe, median fixed-loop time per 5 s window:")
    start = time.perf_counter()
    while time.perf_counter() - start < args.host_seconds:
        window, began = [], time.perf_counter()
        while time.perf_counter() - began < 5.0:
            window.append(host_probe_ms(1))
        print(f"  t={time.perf_counter() - start:5.1f} s  {statistics.median(window):6.2f} ms "
              f"(n={len(window)})", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
