"""Command-line interface.

Four subcommands cover the analysis surface: critical-force (straight-chain
buckling loads and modes), sweep (force-deflection path of a non-straight
chain), three-link (exhaustive equilibria of a three-link chain), and
twolink (closed-form curve of the symmetric two-link mechanism). Output is
deterministic for a fixed config file and seed; no timestamps, no
environment-dependent text.

Each subcommand imports only the modules it runs, so a call does not pay
for the others: twolink needs the standard library only, critical-force
never loads the sweep, and three-link and sweep never load the eigen
solver. The three analysis entry points below load on first use as module
attributes (PEP 562); the handlers look them up there on every call, so a
caller that rebinds one (a profiler, a test double) sees its calls.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import numbers
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import (
    DegenerateModelError,
    ElasticChainError,
    SingularSampleError,
    UnreachableTargetError,
)

if TYPE_CHECKING:
    import numpy as np

    from .chain import ChainModel

# entry point -> its home module, imported on first use
_ENTRY_POINTS = {
    "buckling_modes": "buckling",
    "sweep_force_deflection": "sweep",
    "three_link_equilibria": "sweep",
}


def __getattr__(name):
    if name not in _ENTRY_POINTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    home = importlib.import_module(f".{_ENTRY_POINTS[name]}", __package__)
    value = globals()[name] = getattr(home, name)
    return value


def _entry(name):
    """The module attribute `name`, as currently bound, loaded on first use."""
    return getattr(sys.modules[__name__], name)


_BRANCH_TOKENS = {"+": "positive", "-": "negative", "both": "both"}


@dataclass(frozen=True)
class SweepSettings:
    delta_max: float
    steps: int
    seeds: int = 8
    drop_ratio: float = 0.1


@dataclass(frozen=True)
class AnalysisConfig:
    """Validated contents of a JSON config file."""

    chain: ChainModel
    initial_angles: np.ndarray
    branch_policy: str = "both"
    sweep: SweepSettings | None = None


def load_config(path: str) -> AnalysisConfig:
    """Read and validate a JSON config file.

    Recognized keys: links, stiffness, initial_angles (optional, default
    straight), branch ("+", "-", or "both"), and a sweep block with
    delta_max, steps, seeds, drop_ratio. Unknown keys are rejected so a
    typo cannot silently fall back to a default.
    """
    import numpy as np

    from .chain import ChainModel

    with open(path, encoding="utf-8") as handle:
        raw = json.load(handle)
    if not isinstance(raw, dict):
        raise ValueError("config must be a JSON object")

    allowed = {"links", "stiffness", "initial_angles", "branch", "sweep"}
    unknown = set(raw) - allowed
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for key in ("links", "stiffness"):
        if key not in raw:
            raise ValueError(f"config is missing required key {key!r}")

    chain = ChainModel(raw["links"], raw["stiffness"])
    angles = np.asarray(raw.get("initial_angles", np.zeros(chain.n)), dtype=float)
    if angles.shape != (chain.n,):
        raise ValueError(
            f"initial_angles has {angles.size} entries for a {chain.n}-link chain"
        )

    branch_token = raw.get("branch", "both")
    if branch_token not in _BRANCH_TOKENS:
        raise ValueError(f"branch must be '+', '-', or 'both', got {branch_token!r}")

    sweep_settings = None
    if "sweep" in raw:
        block = raw["sweep"]
        if not isinstance(block, dict):
            raise ValueError("sweep block must be a JSON object")
        sweep_keys = {"delta_max", "steps", "seeds", "drop_ratio"}
        unknown = set(block) - sweep_keys
        if unknown:
            raise ValueError(f"unknown sweep keys: {sorted(unknown)}")
        for key in ("delta_max", "steps"):
            if key not in block:
                raise ValueError(f"sweep block is missing required key {key!r}")
        sweep_settings = SweepSettings(
            delta_max=float(block["delta_max"]),
            steps=block["steps"],
            seeds=block.get("seeds", 8),
            drop_ratio=float(block.get("drop_ratio", 0.1)),
        )
        if not 0.0 < sweep_settings.drop_ratio < 1.0:
            raise ValueError("drop_ratio must lie strictly between 0 and 1")

    return AnalysisConfig(
        chain=chain,
        initial_angles=angles,
        branch_policy=_BRANCH_TOKENS[branch_token],
        sweep=sweep_settings,
    )


def _format_value(value, fmt: str) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, numbers.Integral):
        return str(int(value))
    value = float(value)
    return repr(value) if fmt == "csv" else format(value, ".6g")


def _emit(lines, out_path):
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _cmd_critical_force(args) -> int:
    import numpy as np

    config = load_config(args.config)
    if not np.allclose(config.initial_angles, 0.0, atol=1e-12):
        print(
            "error: initial_angles are nonzero; the eigenvalue analysis "
            "applies to straight chains only. Use the sweep command for "
            "non-straight shapes.",
            file=sys.stderr,
        )
        return 2

    modes = _entry("buckling_modes")(config.chain)
    fmt = args.format
    lines = [f"critical_force,{_format_value(modes[0].axial_force, fmt)}"]
    if args.modes:
        lines.append(
            "mode,eigenvalue,axial_force,energy_factor,shape,stability,mode_vector"
        )
        for index, mode in enumerate(modes, start=1):
            vector = ";".join(_format_value(v, fmt) for v in mode.mode_vector)
            stability = "stable" if mode.is_primary else "unstable"
            lines.append(
                ",".join(
                    [
                        str(index),
                        _format_value(mode.eigenvalue, fmt),
                        _format_value(mode.axial_force, fmt),
                        _format_value(mode.energy_factor, fmt),
                        mode.shape_label,
                        stability,
                        vector,
                    ]
                )
            )
    _emit(lines, args.out)
    return 0


def _cmd_sweep(args) -> int:
    from .chain import Configuration
    from .sweep import SweepRequest

    config = load_config(args.config)
    if config.sweep is None:
        print("error: the config file has no sweep block", file=sys.stderr)
        return 2

    initial = Configuration(config.initial_angles, config.initial_angles)
    request = SweepRequest(
        chain=config.chain,
        initial_config=initial,
        delta_max=config.sweep.delta_max,
        steps=config.sweep.steps,
        branch_policy=config.branch_policy,
        seeds=config.sweep.seeds,
    )
    drop_ratio = args.drop_ratio if args.drop_ratio is not None else config.sweep.drop_ratio
    result = _entry("sweep_force_deflection")(request, seed=args.seed, drop_ratio=drop_ratio)

    fmt = args.format
    lines = ["delta_x,fx,fy,energy,stability,quasi_buckling"]
    first_marker = (
        result.quasi_buckling_markers[0][0]
        if result.quasi_buckling_markers
        else math.inf
    )
    for point in result.points:
        delta = point.deflection.delta_x
        flagged = delta >= first_marker - 1e-12
        lines.append(
            ",".join(
                [
                    _format_value(delta, fmt),
                    _format_value(point.force.fx, fmt),
                    _format_value(point.force.fy, fmt),
                    _format_value(point.strain_energy, fmt),
                    point.stability,
                    _format_value(flagged, fmt),
                ]
            )
        )
    for delta, ratio in result.quasi_buckling_markers:
        lines.append(
            f"# quasi_buckling_marker,{_format_value(delta, fmt)},"
            f"{_format_value(ratio, fmt)}"
        )
    if result.truncation is not None:
        lines.append(
            f"# truncated,{_format_value(result.truncation.delta_x, fmt)},"
            f"{result.truncation.reason}"
        )
        _emit(lines, args.out)
        print(
            f"error: sweep truncated at delta_x = "
            f"{result.truncation.delta_x:.6g}: {result.truncation.reason}",
            file=sys.stderr,
        )
        return 4
    _emit(lines, args.out)
    return 0


def _cmd_three_link(args) -> int:
    from .chain import Configuration, forward_kinematics
    from .sweep import _snap_to_axis

    config = load_config(args.config)
    if config.chain.n != 3:
        print(
            f"error: the three-link command needs 3 links, config has "
            f"{config.chain.n}",
            file=sys.stderr,
        )
        return 2
    deltas = [float(token) for token in args.deltas.split(",") if token.strip()]
    if not deltas:
        print("error: --deltas is empty", file=sys.stderr)
        return 2

    initial = Configuration(config.initial_angles, config.initial_angles)
    point = forward_kinematics(config.chain, config.initial_angles)
    if abs(point.y) > 1e-9 * config.chain.total_length:
        snapped, _, _ = _snap_to_axis(config.chain, initial, (1, -1))
        initial = Configuration(snapped, snapped)

    fmt = args.format
    lines = ["delta_x,q1,q2,q3,fx,fy,energy,stability"]
    three_link_equilibria = _entry("three_link_equilibria")
    for delta in deltas:
        for eq in three_link_equilibria(config.chain, initial, delta):
            q = eq.configuration.angles
            lines.append(
                ",".join(
                    [
                        _format_value(delta, fmt),
                        _format_value(q[0], fmt),
                        _format_value(q[1], fmt),
                        _format_value(q[2], fmt),
                        _format_value(eq.force.fx, fmt),
                        _format_value(eq.force.fy, fmt),
                        _format_value(eq.strain_energy, fmt),
                        eq.stability,
                    ]
                )
            )
    _emit(lines, args.out)
    return 0


def _linspace(stop: float, samples: int) -> list[float]:
    """np.linspace(0.0, stop, samples), bit for bit, in plain floats: numpy
    divides by samples - 1 before scaling where the step underflows to 0,
    adds the start 0.0 (turning -0.0 into 0.0) and ends on stop itself."""
    div = samples - 1
    if div == 0:
        return [0.0 * stop + 0.0]
    step = stop / div
    if step == 0.0:
        grid = [i / div * stop + 0.0 for i in range(div)]
    else:
        grid = [i * step + 0.0 for i in range(div)]
    return grid + [stop]


def _cmd_twolink(args) -> int:
    from .twolink import TwoLinkMechanism, twolink_critical, twolink_curve

    if args.samples < 1:
        print("error: --samples must be at least 1", file=sys.stderr)
        return 2
    if not math.isfinite(args.qmax):
        print("error: --qmax must be finite", file=sys.stderr)
        return 2
    mech = TwoLinkMechanism(
        half_angle_init=args.alpha, spring_k=args.k, link_length=args.L
    )
    fmt = args.format
    lines = []
    if mech.half_angle_init == 0.0:
        lines.append(f"critical_force,{_format_value(twolink_critical(mech), fmt)}")
    lines.append("q,delta,force,potential")
    for q in _linspace(args.qmax, args.samples):
        try:
            ((delta, force, potential),) = twolink_curve(mech, [q])
        except SingularSampleError as exc:
            print(f"warning: skipped singular sample: {exc}", file=sys.stderr)
            continue
        lines.append(
            ",".join(
                [
                    _format_value(q, fmt),
                    _format_value(delta, fmt),
                    _format_value(force, fmt),
                    _format_value(potential, fmt),
                ]
            )
        )
    _emit(lines, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("csv", "text"), default="csv",
        help="csv keeps full float precision, text rounds to 6 significant digits",
    )
    common.add_argument("--seed", type=int, default=0, help="random restart seed")
    common.add_argument(
        "--out", default=None, help="write output to this file instead of stdout"
    )

    parser = argparse.ArgumentParser(
        prog="elastichain",
        description="Stiffness analysis of planar chains with elastic joints.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "critical-force", parents=[common],
        help="buckling loads of a straight chain",
    )
    p.add_argument("--config", required=True, help="JSON config file")
    p.add_argument(
        "--modes", action="store_true", help="also list every buckling mode"
    )
    p.set_defaults(handler=_cmd_critical_force)

    p = sub.add_parser(
        "sweep", parents=[common],
        help="force-deflection path of a non-straight chain",
    )
    p.add_argument("--config", required=True, help="JSON config file")
    p.add_argument(
        "--drop-ratio", type=float, default=None,
        help="override the quasi-buckling stiffness-drop threshold",
    )
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser(
        "three-link", parents=[common],
        help="all equilibria of a three-link chain at given deflections",
    )
    p.add_argument("--config", required=True, help="JSON config file")
    p.add_argument(
        "--deltas", required=True,
        help="comma-separated axial deflections, e.g. 0.1,0.3,0.5",
    )
    p.set_defaults(handler=_cmd_three_link)

    p = sub.add_parser(
        "twolink", parents=[common],
        help="closed-form curve of the symmetric two-link mechanism",
    )
    p.add_argument("--alpha", type=float, required=True, help="initial half-angle")
    p.add_argument("--k", type=float, required=True, help="joint stiffness")
    p.add_argument("--L", type=float, required=True, help="link length")
    p.add_argument("--qmax", type=float, required=True, help="largest sampled angle")
    p.add_argument("--samples", type=int, default=50, help="number of samples")
    p.set_defaults(handler=_cmd_twolink)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except DegenerateModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except UnreachableTargetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ElasticChainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
