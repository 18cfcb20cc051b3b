"""The four benchmark workloads: inputs, one operation, and its checks.

An operation is one pass over a workload's fixed list of inputs. Inputs
come from the paper's shapes and from --seed only; the program receives
nothing else. elastichain is imported from the checkout's src/ and from
nowhere else.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import resource
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np

import checks

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
CHILD_TIMEOUT_S = 120

# The paper's 4-link shapes (unit links, unit springs), both ending at (3.8, 0).
TABLE_U = (-0.3179, 0.0558, 0.3804, 0.3524)
TABLE_Z = (-0.2417, 0.6821, -0.7958, 0.5170)
# TABLE_Z with the trailing angles closed more tightly: swept to delta 1.5,
# restarts find lower minima that the loading path cannot reach.
DISCONNECTED = (-0.2417, 0.6821, -0.795745, 0.517015)
# 3-link chains with a passive base; springs relax at the listed angles and
# the base angle puts the tip on the axis.
U_PLUS = (0.8572772586, -math.pi / 4, -math.pi / 3)
NEAR_STRAIGHT = (-0.1043337889, math.pi / 10, -math.pi / 10)
HENCKY_SIZES = (50, 100, 200, 400)


def source_tree_present() -> bool:
    return (SRC / "elastichain" / "__init__.py").is_file()


def import_program():
    """Import elastichain from src/ of this checkout, or stop."""
    if not source_tree_present():
        raise SystemExit(f"no elastichain package under {SRC}")
    sys.path.insert(0, str(SRC))
    import elastichain
    import elastichain.cli  # noqa: F401  (the CLI layer is traced too)

    if Path(elastichain.__file__).resolve().parent != SRC / "elastichain":
        raise SystemExit(f"elastichain was imported from {elastichain.__file__}, not {SRC}")
    return elastichain


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv, timeout=CHILD_TIMEOUT_S):
    """Run a child to its end; returns (exit code, stdout, stderr, rusage).

    os.wait4 gives the child's own resource usage, which subprocess.run
    does not expose; a timer kills a child that hangs.
    """
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    err = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    try:
        out = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        killer.cancel()
        proc.stdout.close()
        proc.stderr.close()
    return proc.returncode, out.decode(), b"".join(err).decode(), usage


class Workload:
    """Inputs built in __init__; operation(j) is timed, check() is not."""

    name = ""

    def __init__(self, ec, seed: int):
        self.ec = ec
        self.seed = seed

    def warm_up(self) -> None:
        """Let lazy imports and thread pools start before timing."""

    def operation(self, index: int, in_process: bool = False):
        raise NotImplementedError

    def check(self, outputs) -> float:
        """Raise checks.CheckFailed or return the worst relative residual."""
        raise NotImplementedError

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# ---------------------------------------------------------------------------
# sweeps


def sweep_output(result, chain, raw_shape) -> checks.SweepOutput:
    points = result.points
    return checks.SweepOutput(
        lengths=np.array(chain.link_lengths),
        stiffness=np.array(chain.joint_stiffness),
        raw_shape=np.asarray(raw_shape, dtype=float),
        reference=np.array(points[0].configuration.reference_angles),
        deltas=np.array([p.deflection.delta_x for p in points]),
        angles=np.array([p.configuration.angles for p in points]),
        fx=np.array([p.force.fx for p in points]),
        fy=np.array([p.force.fy for p in points]),
        energy=np.array([p.strain_energy for p in points]),
        markers=list(result.quasi_buckling_markers),
        advisories=[(a.delta_x, a.primary_energy, a.alternative_energy, a.angle_gap)
                    for a in result.advisories],
        truncated=result.truncation is not None,
    )


class SweepWorkload(Workload):
    # (label, links, stiffness, unloaded shape, delta_max, steps, restarts)
    inputs: tuple = ()

    def __init__(self, ec, seed):
        super().__init__(ec, seed)
        self.requests = []
        for label, links, stiffness, shape, delta_max, steps, restarts in self.inputs:
            chain = ec.ChainModel(links, stiffness)
            q = np.asarray(shape, dtype=float)
            request = ec.SweepRequest(chain, ec.Configuration(q, q), delta_max, steps,
                                      seeds=restarts)
            self.requests.append((label, request, q))

    def warm_up(self):
        label, request, q = self.requests[0]
        short = self.ec.SweepRequest(request.chain, request.initial_config, 0.05, 3, seeds=1)
        self.ec.sweep_force_deflection(short, seed=self.seed)

    def operation(self, index, in_process=False):
        # the operation's index, not --seed, seeds the program's restarts
        return {label: (self.ec.sweep_force_deflection(request, seed=index), request, q)
                for label, request, q in self.requests}

    def outputs(self, results):
        return {label: sweep_output(result, request.chain, q)
                for label, (result, request, q) in results.items()}

    def check_common(self, results):
        outs = self.outputs(results)
        worst = 0.0
        for label, (result, request, q) in results.items():
            worst = max(worst, checks.check_sweep(outs[label], request.delta_max, request.steps))
        return outs, worst


class TableSweep(SweepWorkload):
    """Seedless continuation of the paper's shapes, their mirrors and a fold."""

    name = "table-sweep"
    unit4 = ((1.0,) * 4, (1.0,) * 4)
    passive3 = ((1.0,) * 3, (0.0, 1.0, 1.0))
    inputs = (
        ("U", *unit4, TABLE_U, 0.6, 30, 0),
        ("Z", *unit4, TABLE_Z, 0.6, 30, 0),
        ("-U", *unit4, tuple(-v for v in TABLE_U), 0.6, 30, 0),
        ("-Z", *unit4, tuple(-v for v in TABLE_Z), 0.6, 30, 0),
        ("fold", *passive3, NEAR_STRAIGHT, 1.2, 25, 0),
    )

    def check(self, results):
        outs, worst = self.check_common(results)
        checks.check_smooth(outs["U"])
        checks.check_smooth(outs["-U"])
        checks.check_collapse(outs["Z"])
        checks.check_collapse(outs["-Z"])
        checks.check_mirror(outs["U"], outs["-U"])
        checks.check_mirror(outs["Z"], outs["-Z"])
        checks.check_fold(outs["fold"])
        return worst


class RestartSweep(SweepWorkload):
    """Random restarts: disconnected lower minima and the deep fold.

    One restart per step and branch keeps an operation short, so a run
    holds about a dozen of them. Operation j passes j as the program's
    seed, so every run draws the same restarts in the same order and two
    commits meet the same draws; with --seed choosing them, the draws alone
    moved a run's median objective-evaluation count by 7% between seeds.
    """

    name = "restart-sweep"
    inputs = (
        ("disconnected", (1.0,) * 4, (1.0,) * 4, DISCONNECTED, 1.5, 16, 1),
        ("fold", (1.0,) * 3, (0.0, 1.0, 1.0), NEAR_STRAIGHT, 1.2, 25, 1),
    )

    def check(self, results):
        outs, worst = self.check_common(results)
        checks.check_fold(outs["fold"])
        return worst


# ---------------------------------------------------------------------------
# straight-chain buckling


class BucklingLadder(Workload):
    """buckling_modes on Hencky bar chains, the paper's 4-link chain and
    seeded random chains (some with a passive base). No sweep runs here."""

    name = "buckling-ladder"
    random_chains = 8

    def __init__(self, ec, seed):
        super().__init__(ec, seed)
        self.chains = [(f"n{n}", ec.ChainModel([1.0 / n] * n, [float(n)] * n))
                       for n in HENCKY_SIZES]
        self.chains.append(("four", ec.ChainModel([1.0] * 4, [1.0] * 4)))
        rng = np.random.default_rng(seed)
        for i in range(self.random_chains):
            n = int(rng.integers(3, 13))
            lengths = rng.uniform(0.5, 2.0, n)
            stiffness = rng.uniform(0.5, 2.0, n)
            if rng.random() < 0.3:
                stiffness[0] = 0.0
            self.chains.append((f"random{i}", ec.ChainModel(lengths, stiffness)))

    def warm_up(self):
        for _, chain in self.chains:
            self.ec.buckling_modes(chain)

    def operation(self, index, in_process=False):
        return [(label, chain, self.ec.buckling_modes(chain)) for label, chain in self.chains]

    def check(self, results):
        worst = 0.0
        hencky = {}
        for label, chain, modes in results:
            eigenvalues = np.array([m.eigenvalue for m in modes])
            worst = max(worst, checks.check_modes(
                chain.link_lengths, chain.joint_stiffness, eigenvalues,
                np.array([m.mode_vector for m in modes]),
                np.array([m.axial_force for m in modes])))
            if label == "four":
                checks.check_four_link_spectrum(eigenvalues)
            if label.startswith("n"):
                hencky[chain.n] = modes[0].axial_force
        checks.check_hencky(list(hencky), list(hencky.values()))
        return worst


# ---------------------------------------------------------------------------
# command-line calls


class CliCalls(Workload):
    """Sequential CLI calls; interpreter start and import dominate each."""

    name = "cli-calls"
    three_link_points = 20

    def __init__(self, ec, seed):
        super().__init__(ec, seed)
        rng = np.random.default_rng(seed)
        self.alpha = float(0.2 + 0.2 * rng.random())
        # about 20 deflections from 0.05 to 1.0, jittered by the seed
        grid = 0.05 * np.arange(1, self.three_link_points + 1)
        self.deltas = [float(d) for d in np.round(grid + rng.uniform(-0.01, 0.01, grid.size), 6)]
        folder = OUT / "inputs" / f"{self.name}-seed{seed}"
        folder.mkdir(parents=True, exist_ok=True)
        configs = {
            "four": {"links": [1, 1, 1, 1], "stiffness": [1, 1, 1, 1]},
            "uplus": {"links": [1, 1, 1], "stiffness": [0, 1, 1], "initial_angles": list(U_PLUS)},
            "table_u": {"links": [1, 1, 1, 1], "stiffness": [1, 1, 1, 1],
                        "initial_angles": list(TABLE_U),
                        "sweep": {"delta_max": 0.3, "steps": 16, "seeds": 0}},
        }
        paths = {}
        for key, payload in configs.items():
            paths[key] = folder / f"{key}.json"
            paths[key].write_text(json.dumps(payload), encoding="utf-8")
        self.calls = [
            ["twolink", "--alpha", repr(self.alpha), "--k", "1", "--L", "1",
             "--qmax", "1.0", "--samples", "50"],
            ["critical-force", "--config", str(paths["four"]), "--modes"],
            ["three-link", "--config", str(paths["uplus"]),
             "--deltas", ",".join(repr(d) for d in self.deltas)],
            ["sweep", "--config", str(paths["table_u"]), "--seed", str(seed)],
        ]
        self.first = None
        self.child_rss_kb = 0

    def warm_up(self):
        code, _, err, _ = run_child([sys.executable, "-c", "import elastichain.cli"])
        if code != 0:
            raise RuntimeError(f"importing the CLI failed: {err}")

    def operation(self, index, in_process=False):
        outputs = {}
        for argv in self.calls:
            if in_process:
                buffer = io.StringIO()
                with contextlib.redirect_stdout(buffer):
                    code = self.ec.cli.main(list(argv))
                text = buffer.getvalue()
            else:
                code, text, err, usage = run_child(
                    [sys.executable, "-m", "elastichain.cli", *argv])
                self.child_rss_kb = max(self.child_rss_kb, usage.ru_maxrss)
            if code != 0:
                raise RuntimeError(f"{argv[0]} exited with {code}")
            outputs[argv[0]] = text
        return outputs

    def peak_rss_kb(self):
        """The largest CLI child; the benchmark's own process is not the CLI."""
        return self.child_rss_kb

    def check(self, outputs):
        if self.first is None:
            self.first = outputs
        checks.require(outputs == self.first, "repeated CLI output is not byte-identical")
        worst = checks.check_twolink_rows(outputs["twolink"], self.alpha, 1.0, 1.0)
        lengths = np.ones(4)
        pencil, eigenvalues = checks.check_modes_output(outputs["critical-force"], lengths, lengths)
        checks.check_four_link_spectrum(eigenvalues)
        three = checks.check_three_link_rows(
            outputs["three-link"], np.ones(3), np.array([0.0, 1.0, 1.0]),
            np.array(U_PLUS), self.deltas)
        checks.check_sweep_rows(outputs["sweep"])
        return max(worst, pencil, three)


WORKLOADS = {w.name: w for w in (TableSweep, RestartSweep, BucklingLadder, CliCalls)}
