"""Run one workload over several seeds and report each metric's spread.

    python3 bench/spread.py --workload table-sweep --seeds 1-10

For every end-to-end metric in BENCHMARK.json it prints the median, the
quartiles of statistics.quantiles(values, n=4), their distance as a share
of the median, and whether that share is within a third of the metric's
bound. The runs' last lines are kept in .bench_out/spread-<workload>-<tag>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(token) for token in text.split(",")]


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="a range 1-10 or a list 1,4,7")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--tag", default="set")
    args = parser.parse_args(argv)

    runs = []
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        probe = next((line for line in lines if line.startswith("# host_probe_ms")), "")
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        result["seed"] = seed
        result["host_probe"] = probe
        runs.append(result)
        values = " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: {values} failed={result['failed']}/{result['attempted']} {probe}",
              flush=True)

    out = ROOT / ".bench_out" / f"spread-{args.workload}-{args.tag}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(runs, indent=1), encoding="utf-8")

    steady = True
    print(f"{'metric':18} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for metric in spec["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median
        ok = metric["name"] == "setup_s" or spread < metric["bound"] / 3
        steady &= ok
        print(f"{metric['name']:18} {median:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{spread:8.4f} {metric['bound']:6.2f} {'ok' if ok else 'WIDE'}")
    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"failed share: {sorted(shares)}")
    return 0 if steady and len(shares) == 1 else 1


if __name__ == "__main__":
    sys.exit(main())
