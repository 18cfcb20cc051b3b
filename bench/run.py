"""Benchmark of elastichain against the checkout's src/.

    python3 bench/run.py --workload table-sweep --seed 1 --seconds 25 --trace 0

Each workload is one process: a closed loop with a single client that
repeats one operation, a pass over the workload's fixed inputs, until
--seconds of wall time have passed. Every operation does the same work on
any commit, so the median operation time compares commits; the run's
length does not depend on how fast the host is today. Every operation's
outputs go through the independent checks in checks.py. With --trace 0
the last line of stdout is a JSON object with the end-to-end metrics;
with --trace 1 it holds the per-layer metrics of a traced run and the
spans are written under .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
import traceback

# One BLAS thread, for this process and every child (set before numpy loads).
# With two, OpenBLAS spins a second thread on a 2-core host, and anything
# else that runs there slows buckling_modes by an order of magnitude.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 3
IMPORT_PROBES = 3
HOST_PROBE_REPS = 3
# a median over fewer operations follows single slow ones
MIN_OPS = 5
UNITS = {
    "setup_s": "s", "op_p50_ms": "ms", "ops_per_s": "1/s", "peak_rss_mb": "MB",
    "residual_digits": "digits",
}


def host_probe_ms(reps: int = HOST_PROBE_REPS) -> float:
    """Median time of a fixed pure-Python loop: the host's speed right now.

    The loop does not touch elastichain, so a change in it between runs is
    host drift, not a program change.
    """
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        total = 0
        for i in range(1_000_000):
            total += i * i
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


def setup_seconds(workload: str, seed: int) -> float:
    """Median, over fresh interpreters, of process start to ready-to-time.

    Each child imports elastichain and builds the workload's inputs, then
    prints one line; the time is taken when the parent reads it.
    """
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
             "--setup-probe"],
            cwd=workloads.ROOT, env=workloads.child_env(),
            stdout=subprocess.PIPE)
        try:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - start)
            proc.stdout.read()
        finally:
            proc.stdout.close()
            code = proc.wait(timeout=workloads.CHILD_TIMEOUT_S)
        if line.strip() != b"ready" or code != 0:
            raise RuntimeError(f"setup probe exited with {code}")
    return statistics.median(samples)


def import_times_ms() -> tuple[float, float]:
    """(import of elastichain and its CLI, of scipy.optimize) by -X importtime."""
    cli, scipy_opt = [], []
    for _ in range(IMPORT_PROBES):
        code, _, err, _ = workloads.run_child(
            [sys.executable, "-X", "importtime", "-c", "import elastichain.cli"])
        if code != 0:
            raise RuntimeError(f"import probe exited with {code}: {err}")
        # "import time: self | cumulative | name", the name indented by depth;
        # top-level imports carry a single leading space
        cumulative = {}
        for line in err.splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
                cumulative.setdefault(parts[2].rstrip(), int(parts[1]))
        cli.append((cumulative.get(" elastichain", 0) + cumulative.get(" elastichain.cli", 0)) / 1e3)
        scipy_opt.append(max((us for name, us in cumulative.items()
                              if name.strip() == "scipy.optimize"), default=0) / 1e3)
    return statistics.median(cli), statistics.median(scipy_opt)


class Loop:
    """Times operations one after another and checks each one's outputs."""

    def __init__(self, workload):
        self.workload = workload
        self.times = []
        self.attempted = 0
        self.failed = 0
        self.worst = 0.0
        self.problems = []

    def run(self, indices, in_process=False, tracer=None, per_op_counts=None):
        """Run the operations; returns their total wall time in seconds."""
        first = len(self.times)
        for position, index in enumerate(indices):
            self.attempted += 1
            if tracer is not None:
                tracer.op = position
                before = tracer.snapshot()
            start = time.perf_counter()
            try:
                outputs = self.workload.operation(index, in_process)
            except Exception:
                self.failed += 1
                traceback.print_exc()
                continue
            finally:
                took = time.perf_counter() - start
                if tracer is not None:
                    per_op_counts.append(tracing.count_delta(before, tracer.snapshot()))
            self.times.append(took)
            try:
                self.worst = max(self.worst, self.workload.check(outputs))
            except checks.CheckFailed as exc:
                self.problems.append(f"operation {index}: {exc}")
        return sum(self.times[first:])

    def run_for(self, seconds, in_process=False) -> int:
        """Run operations 0, 1, ... until `seconds` of wall time have passed
        and at least MIN_OPS have run; returns how many ran."""
        start = time.perf_counter()
        count = 0
        while count < MIN_OPS or time.perf_counter() - start < seconds:
            self.run([count], in_process)
            count += 1
        return count


def report(loop, metrics, extra_lines) -> int:
    for line in extra_lines:
        print(line)
    for name, item in metrics.items():
        print(f"# {name} = {item['value']:.6g} {item['unit']}")
    for problem in loop.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    correct = not loop.problems
    print(json.dumps({"correct": correct, "attempted": loop.attempted,
                      "failed": loop.failed, "metrics": metrics}))
    return 0 if correct and loop.attempted > loop.failed else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be positive and --seed nonnegative")
    if not workloads.source_tree_present():
        print(f"error: no elastichain package under {workloads.SRC}", file=sys.stderr)
        return 2
    kind = workloads.WORKLOADS[args.workload]

    if args.setup_probe:
        kind(workloads.import_program(), args.seed)
        print("ready", flush=True)
        return 0

    workloads.OUT.mkdir(exist_ok=True)
    host_before = host_probe_ms()
    setup = setup_seconds(args.workload, args.seed) if not args.trace else None
    workload = kind(workloads.import_program(), args.seed)
    workload.warm_up()
    loop = Loop(workload)

    if not args.trace:
        loop.run_for(args.seconds)
        host_after = host_probe_ms()
        values = {
            "setup_s": setup,
            "op_p50_ms": statistics.median(loop.times) * 1e3 if loop.times else 0.0,
            "ops_per_s": len(loop.times) / sum(loop.times) if loop.times else 0.0,
            "peak_rss_mb": workload.peak_rss_kb() / 1024.0,
            "residual_digits": checks.digits(loop.worst),
        }
        metrics = {name: {"value": value, "unit": UNITS[name]} for name, value in values.items()}
    else:
        # half the time untraced, then the same operation indices traced;
        # the CLI runs in-process on both, since a child cannot be traced
        in_process = args.workload == "cli-calls"
        half = range(loop.run_for(args.seconds / 2, in_process))
        untraced_s = sum(loop.times)
        tracer = tracing.Tracer()
        per_op_counts = []
        with tracer.installed():
            traced_s = loop.run(half, in_process, tracer, per_op_counts)
        host_after = host_probe_ms()
        values = tracing.layer_metrics(tracer, per_op_counts)
        values["cli.import_ms"], values["cli.import_scipy_ms"] = import_times_ms()
        values["trace.overhead_s"] = traced_s - untraced_s
        tracer.write(workloads.OUT / f"trace-{args.workload}-seed{args.seed}.jsonl", per_op_counts)
        metrics = {name: {"value": value, "unit": tracing.UNITS[name]}
                   for name, value in sorted(values.items())}

    return report(loop, metrics, [
        f"# host_probe_ms before={host_before:.2f} after={host_after:.2f} "
        f"(fixed loop, not a metric)",
        f"# workload={args.workload} seed={args.seed} operations={loop.attempted} "
        f"failed={loop.failed}",
    ])


if __name__ == "__main__":
    sys.exit(main())
