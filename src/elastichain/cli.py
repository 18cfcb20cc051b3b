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

from .errors import DegenerateModelError, ElasticChainError, SingularSampleError

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
    seeds: int
    drop_ratio: float


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
    typo cannot silently fall back to a default, and a value of the wrong
    JSON type raises a ValueError that names its key.
    """
    import numpy as np

    from .chain import ChainModel

    def typed(key, value, convert=lambda v: np.asarray(v, dtype=float)):
        try:
            return convert(value)
        except TypeError:
            raise ValueError(f"config key {key!r} has the wrong type: {value!r}") from None

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

    chain = ChainModel(typed("links", raw["links"]), typed("stiffness", raw["stiffness"]))
    angles = typed("initial_angles", raw.get("initial_angles", np.zeros(chain.n)))
    if angles.shape != (chain.n,):
        raise ValueError(
            f"initial_angles has {angles.size} entries for a {chain.n}-link chain"
        )
    if not np.all(np.isfinite(angles)):
        raise ValueError("initial_angles must contain only finite values")

    branch_token = raw.get("branch", "both")
    if not isinstance(branch_token, str) or branch_token not in _BRANCH_TOKENS:
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
            delta_max=typed("delta_max", block["delta_max"], float),
            steps=block["steps"],
            seeds=block.get("seeds", 8),
            drop_ratio=typed("drop_ratio", block.get("drop_ratio", 0.1), float),
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


def _row(fmt: str, *values) -> str:
    """One table line: strings as they are, every other value by _format_value."""
    return ",".join(v if isinstance(v, str) else _format_value(v, fmt) for v in values)


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
    lines = [_row(fmt, "critical_force", modes[0].axial_force)]
    if args.modes:
        lines.append("mode,eigenvalue,axial_force,energy_factor,shape,stability,mode_vector")
        lines += [
            _row(fmt, index, mode.eigenvalue, mode.axial_force, mode.energy_factor,
                 mode.shape_label, "stable" if mode.is_primary else "unstable",
                 ";".join(_format_value(v, fmt) for v in mode.mode_vector))
            for index, mode in enumerate(modes, start=1)
        ]
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
    markers, truncation = result.quasi_buckling_markers, result.truncation
    first_marker = markers[0][0] if markers else math.inf
    lines = ["delta_x,fx,fy,energy,stability,quasi_buckling"]
    lines += [
        _row(fmt, p.deflection.delta_x, p.force.fx, p.force.fy, p.strain_energy, p.stability,
             p.deflection.delta_x >= first_marker - 1e-12)
        for p in result.points
    ]
    lines += [_row(fmt, "# quasi_buckling_marker", delta, ratio) for delta, ratio in markers]
    if truncation is not None:
        lines.append(_row(fmt, "# truncated", truncation.delta_x, truncation.reason))
    _emit(lines, args.out)
    if truncation is None:
        return 0
    print(
        f"error: sweep truncated at delta_x = {truncation.delta_x:.6g}: {truncation.reason}",
        file=sys.stderr,
    )
    return 4


def _cmd_three_link(args) -> int:
    from .chain import Configuration

    config = load_config(args.config)
    deltas = [float(token) for token in args.deltas.split(",") if token.strip()]
    if not deltas:
        print("error: --deltas is empty", file=sys.stderr)
        return 2

    initial = Configuration(config.initial_angles, config.initial_angles)
    lines = ["delta_x,q1,q2,q3,fx,fy,energy,stability"]
    three_link_equilibria = _entry("three_link_equilibria")
    for delta in deltas:
        lines += [
            _row(args.format, delta, *eq.configuration.angles, eq.force.fx, eq.force.fy,
                 eq.strain_energy, eq.stability)
            for eq in three_link_equilibria(config.chain, initial, delta)
        ]
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
        lines.append(_row(fmt, "critical_force", twolink_critical(mech)))
    lines.append("q,delta,force,potential")
    for q in _linspace(args.qmax, args.samples):
        try:
            ((delta, force, potential),) = twolink_curve(mech, [q])
        except SingularSampleError as exc:
            print(f"warning: skipped singular sample: {exc}", file=sys.stderr)
            continue
        lines.append(_row(fmt, q, delta, force, potential))
    _emit(lines, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("csv", "text"), default="csv",
        help="csv keeps full float precision, text rounds to 6 significant digits",
    )
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
    p.add_argument("--seed", type=int, default=0, help="random restart seed")
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
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ElasticChainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
