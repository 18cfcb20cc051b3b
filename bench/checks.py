"""Independent physics checks of elastichain outputs.

Nothing here imports elastichain. Kinematics, Jacobians, reach sums and
spring energies are recomputed from the link lengths and stiffnesses, so a
fault shared by a solver and the package's own audit helpers still shows.
Every check raises CheckFailed with a message; the ones that audit a
residual return the worst relative residual they saw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Closure targets are hit to rounding; 1e-9 of the reach leaves room for it.
ENDPOINT_TOL = 1e-9
# Torque balance relative to the largest spring torque of the same path.
TORQUE_TOL = 1e-6
# Energy equals work, trapezoid rule over the path.
WORK_TOL = 1e-2
# Mirror images are computed with mirrored arithmetic.
MIRROR_TOL = 1e-9
# Residual of one eigenpair of the straight-chain pencil, relative to the
# size of its two sides. The dense solve of B^-1 A reaches about 1e-13 on
# the primary mode but only 2.6e-6 on mode 77 of the 200-link Hencky chain
# with one BLAS thread (1.5e-5 on mode 150 of the 400-link chain with two);
# a 0.1% error in an eigenvalue gives 5e-4.
PENCIL_TOL = 1e-4
# Richardson estimate of the Hencky chain against the Euler load.
RICHARDSON_TOL = 1e-3
# Closed-form two-link rows, relative to the largest force printed.
TWOLINK_TOL = 1e-12
MACHINE_EPS = float(np.finfo(float).eps)


class CheckFailed(Exception):
    """A program output disagrees with the independent physics."""


def require(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# kinematics of a planar chain with relative joint angles


def suffix_sums(values) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    return np.cumsum(values[::-1])[::-1]


def end_point(lengths, q) -> tuple[float, float]:
    headings = np.cumsum(q)
    return (float(np.dot(lengths, np.cos(headings))),
            float(np.dot(lengths, np.sin(headings))))


def jacobian(lengths, q) -> np.ndarray:
    """2 x n; column m rotates every link at or beyond joint m."""
    headings = np.cumsum(q)
    lengths = np.asarray(lengths, dtype=float)
    return np.vstack([-suffix_sums(lengths * np.sin(headings)),
                      suffix_sums(lengths * np.cos(headings))])


def reach_sums(lengths) -> tuple[np.ndarray, np.ndarray]:
    """S1[i, m] = -sum of lengths from max(i, m) on; s0[i] = sum from i on."""
    s0 = suffix_sums(lengths)
    idx = np.arange(s0.size)
    return -s0[np.maximum.outer(idx, idx)], s0


def spring_energy(stiffness, q, q0) -> float:
    d = np.asarray(q, dtype=float) - np.asarray(q0, dtype=float)
    return 0.5 * float(np.dot(stiffness, d * d))


def sign_changes(q, floor: float = 1e-6) -> int:
    q = np.asarray(q, dtype=float)
    signs = np.sign(q[np.abs(q) > floor])
    return int(np.sum(signs[:-1] != signs[1:]))


def euler_clamped_pinned() -> float:
    """beta**2 with tan(beta) = beta, the clamped-pinned Euler load (EI/L**2)."""
    beta = 4.5
    for _ in range(50):
        f = math.sin(beta) - beta * math.cos(beta)
        step = f / (beta * math.sin(beta))
        beta -= step
        if abs(step) < 1e-15:
            break
    require(abs(math.tan(beta) - beta) < 1e-9, "tan(beta) = beta did not converge")
    return beta * beta


def digits(worst_relative: float) -> float:
    """Correct digits of the worst relative residual, capped at machine eps."""
    return -math.log10(max(worst_relative, MACHINE_EPS))


# ---------------------------------------------------------------------------
# force-deflection sweeps


@dataclass
class SweepOutput:
    """What the benchmark reads from one sweep, as plain arrays."""

    lengths: np.ndarray
    stiffness: np.ndarray
    raw_shape: np.ndarray  # the unloaded shape the benchmark asked for
    reference: np.ndarray  # the spring references the program swept with
    deltas: np.ndarray
    angles: np.ndarray  # points x n
    fx: np.ndarray
    fy: np.ndarray
    energy: np.ndarray  # strain energy as the program reports it
    markers: list
    advisories: list  # (delta_x, primary_energy, alternative_energy, angle_gap)
    truncated: bool


def check_sweep(out: SweepOutput, delta_max: float, steps: int) -> float:
    """Checks every sweep must pass; returns the worst torque residual."""
    require(not out.truncated, "sweep truncated")
    require(out.deltas.size == steps, f"{out.deltas.size} points, expected {steps}")
    require(np.allclose(out.deltas, np.linspace(0.0, delta_max, steps),
                        rtol=0.0, atol=1e-12), "deflection grid differs")
    check_reference(out)
    check_endpoints(out)
    worst = torque_residual(out)
    require(worst <= TORQUE_TOL, f"torque balance off by {worst:.3g} of the largest torque")
    energy = path_energy(out)
    require(np.allclose(out.energy, energy, rtol=1e-9, atol=1e-12),
            "reported strain energy differs from the spring energy")
    check_energy_work(out.deltas, out.fx, energy)
    check_advisories(out, energy)
    return worst


def check_reference(out: SweepOutput) -> None:
    """The program snaps a tabulated shape onto the sweep axis by re-solving
    its last two angles; the reference it swept with must be that shape."""
    n = out.lengths.size
    reach = float(out.lengths.sum())
    x0, y_raw = end_point(out.lengths, out.raw_shape)
    require(abs(y_raw) < 1e-2 * reach, "requested shape is far off the axis")
    require(np.array_equal(out.reference[: n - 2], out.raw_shape[: n - 2]),
            "snapped reference moved a leading angle")
    require(np.max(np.abs(out.reference - out.raw_shape)) < 1e-3,
            "snapped reference is far from the requested shape")
    xr, yr = end_point(out.lengths, out.reference)
    require(abs(xr - x0) <= ENDPOINT_TOL * reach and abs(yr) <= ENDPOINT_TOL * reach,
            "snapped reference does not end at (x0, 0)")


def check_endpoints(out: SweepOutput) -> None:
    """Every point ends at (x0 - delta, 0), x0 the unloaded shape's reach."""
    reach = float(out.lengths.sum())
    x0, _ = end_point(out.lengths, out.raw_shape)
    for q, delta in zip(out.angles, out.deltas):
        x, y = end_point(out.lengths, q)
        require(abs(x - (x0 - delta)) <= ENDPOINT_TOL * reach and abs(y) <= ENDPOINT_TOL * reach,
                f"end-point at delta {delta:.6g} is ({x:.12g}, {y:.3g}), "
                f"expected ({x0 - delta:.12g}, 0)")


def torque_residual(out: SweepOutput) -> float:
    """Worst |J^T f + K (q - q0)| over the path, relative to its largest torque."""
    torques = out.stiffness * (out.angles - out.reference)
    scale = float(np.max(np.linalg.norm(torques, axis=1)))
    require(scale > 0.0, "no spring is loaded anywhere on the path")
    worst = 0.0
    for q, fx, fy, tau in zip(out.angles, out.fx, out.fy, torques):
        residual = jacobian(out.lengths, q).T @ [fx, fy] + tau
        worst = max(worst, float(np.linalg.norm(residual)) / scale)
    return worst


def path_energy(out: SweepOutput) -> np.ndarray:
    return np.array([spring_energy(out.stiffness, q, out.reference) for q in out.angles])


def check_energy_work(deltas, fx, energy) -> None:
    """The axial force is the slope of the energy: its integral is the gain."""
    gain = energy[-1] - energy[0]
    work = float(np.trapezoid(fx, deltas))
    require(abs(work - gain) <= WORK_TOL * abs(gain),
            f"work {work:.6g} differs from energy gain {gain:.6g} by more than 1%")


def check_advisories(out: SweepOutput, energy) -> None:
    """Each advisory is a lower minimum away from the path point it shadows."""
    for delta, primary, alternative, gap in out.advisories:
        index = np.flatnonzero(np.abs(out.deltas - delta) < 1e-12)
        require(index.size == 1, f"advisory at delta {delta:.6g} is off the grid")
        require(abs(primary - energy[index[0]]) <= 1e-9 * max(1.0, primary),
                "advisory primary energy is not the path energy")
        require(alternative < primary - 1e-9, "advisory is not lower in energy")
        require(gap > 1e-3, "advisory lies on the path")


def discrete_stiffness(deltas, fx) -> np.ndarray:
    """d fx / d delta: one-sided at the ends, central inside."""
    deltas = np.asarray(deltas, dtype=float)
    fx = np.asarray(fx, dtype=float)
    out = np.empty(fx.size)
    out[0] = (fx[1] - fx[0]) / (deltas[1] - deltas[0])
    out[-1] = (fx[-1] - fx[-2]) / (deltas[-1] - deltas[-2])
    out[1:-1] = (fx[2:] - fx[:-2]) / (deltas[2:] - deltas[:-2])
    return out


def check_smooth(out: SweepOutput) -> None:
    """TABLE_U: no quasi-buckling marker and a strictly rising force."""
    require(not out.markers, "smooth shape reported a quasi-buckling marker")
    require(np.all(np.diff(out.fx) > 0.0), "axial force does not rise strictly")


def check_collapse(out: SweepOutput, drop_ratio: float = 0.1) -> None:
    """TABLE_Z: a marker, and stiffness below drop_ratio of its reference after it."""
    require(len(out.markers) >= 1, "collapsing shape reported no marker")
    stiffness = discrete_stiffness(out.deltas, out.fx)
    split = int(np.searchsorted(out.deltas, out.markers[0][0]))
    require(0 < split < out.deltas.size, "marker lies outside the path")
    require(np.min(stiffness[split:]) < drop_ratio * np.max(stiffness[:split]),
            "stiffness does not collapse after the marker")


def check_mirror(out: SweepOutput, mirror: SweepOutput) -> None:
    """The sweep of -q0 has the same fx and the negated fy."""
    scale = max(1.0, float(np.max(np.abs(out.fx))))
    require(out.fx.size == mirror.fx.size, "mirror sweep has another length")
    require(np.max(np.abs(out.fx - mirror.fx)) <= MIRROR_TOL * scale,
            "mirror sweep changes fx")
    require(np.max(np.abs(out.fy + mirror.fy)) <= MIRROR_TOL * scale,
            "mirror sweep does not negate fy")
    require(np.max(np.abs(out.angles + mirror.angles)) <= MIRROR_TOL,
            "mirror sweep does not negate the angles")


def check_fold(out: SweepOutput) -> None:
    """The near-straight chain leaves its Z-like family for a U-like fold."""
    first = sign_changes(out.angles[0])
    last = sign_changes(out.angles[-1])
    require(first == 2 and last == 1, f"sign changes go {first} -> {last}, expected 2 -> 1")


# ---------------------------------------------------------------------------
# straight-chain buckling


def pencil_residuals(lengths, stiffness, eigenvalues, vectors) -> np.ndarray:
    """Relative residual |A v - lambda B v| / (|A v| + |lambda| |B v|) per mode.

    A = [[S1, 0], [0, 0]] and B = [[K, s0], [s0^T, 0]] are assembled here
    from the link lengths, not read from the program.
    """
    s1, s0 = reach_sums(lengths)
    n = s0.size
    a = np.zeros((n + 1, n + 1))
    a[:n, :n] = s1
    b = np.zeros((n + 1, n + 1))
    b[:n, :n] = np.diag(stiffness)
    b[:n, n] = s0
    b[n, :n] = s0
    v = np.asarray(vectors, dtype=float).T  # (n+1) x modes
    lam = np.asarray(eigenvalues, dtype=float)
    av = a @ v
    bv = b @ v
    r = np.linalg.norm(av - bv * lam, axis=0)
    return r / (np.linalg.norm(av, axis=0) + np.abs(lam) * np.linalg.norm(bv, axis=0))


def check_modes(lengths, stiffness, eigenvalues, vectors, forces) -> float:
    """n-1 negative, real modes that satisfy the pencil; returns the worst error."""
    n = np.asarray(lengths).size
    eigenvalues = np.asarray(eigenvalues, dtype=float)
    require(eigenvalues.size == n - 1, f"{eigenvalues.size} modes for {n} links")
    require(np.all(eigenvalues < 0.0), "a buckling eigenvalue is not negative")
    require(np.allclose(forces, -1.0 / eigenvalues, rtol=1e-12, atol=0.0),
            "axial force is not -1/eigenvalue")
    require(np.all(np.diff(forces) >= 0.0), "modes are not sorted by force")
    norms = np.linalg.norm(np.asarray(vectors, dtype=float), axis=1)
    require(np.allclose(norms, 1.0, atol=1e-12), "mode vectors are not unit norm")
    errors = pencil_residuals(lengths, stiffness, eigenvalues, vectors)
    worst = float(np.max(errors))
    require(worst <= PENCIL_TOL, f"pencil residual {worst:.3g}")
    return worst


def check_four_link_spectrum(eigenvalues) -> None:
    """The unit 4-link chain: -e1 = 9/5, e2 = 9/10, -e3 = 2/15."""
    l1, l2, l3 = eigenvalues
    e1 = l1 + l2 + l3
    e2 = l1 * l2 + l1 * l3 + l2 * l3
    e3 = l1 * l2 * l3
    for got, want in ((-e1, 9 / 5), (e2, 9 / 10), (-e3, 2 / 15)):
        require(abs(got - want) < 1e-9, f"symmetric function {got!r} != {want!r}")


def check_hencky(ns, forces) -> None:
    """Hencky bar chains approach the Euler load at first order in 1/n.

    Links of length 1/n with stiffness n model a unit column of unit EI.
    The Richardson estimate 2F(2n) - F(n) cancels the 1/n term; what is
    left falls as 1/n**2, so it must be within 1e-3 of beta**2 from
    n = 100 on and shrink at least threefold per doubling.
    """
    target = euler_clamped_pinned()
    by_n = dict(zip(ns, forces))
    require(all(f < target for f in forces), "a Hencky chain exceeds the Euler load")
    require(all(by_n[m] < by_n[2 * m] for m in ns if 2 * m in by_n),
            "Hencky forces do not rise with n")
    remainders = [(m, 2 * by_n[2 * m] - by_n[m] - target) for m in sorted(ns) if 2 * m in by_n]
    for m, rem in remainders:
        if m >= 100:
            require(abs(rem) < RICHARDSON_TOL,
                    f"Richardson estimate at n={m} is {rem:.3g} off beta^2")
    for (_, coarse), (_, fine) in zip(remainders, remainders[1:]):
        require(abs(fine) < abs(coarse) / 3.0, "Richardson remainder is not second order")


# ---------------------------------------------------------------------------
# command-line output


def parse_rows(text: str, header: str) -> list[list[str]]:
    lines = text.splitlines()
    require(header in lines, f"missing header {header!r}")
    start = lines.index(header) + 1
    return [line.split(",") for line in lines[start:] if line and not line.startswith("#")]


def check_twolink_rows(text: str, alpha: float, k: float, length: float) -> float:
    """Rows of `twolink` against F = 2kq / (L sin(alpha + q))."""
    rows = np.array(parse_rows(text, "q,delta,force,potential"), dtype=float)
    require(rows.shape[0] > 0 and rows.shape[1] == 4, "twolink printed no rows")
    q, delta, force, potential = rows.T
    expect_f = 2.0 * k * q / (length * np.sin(alpha + q))
    expect_d = 2.0 * length * (math.cos(alpha) - np.cos(alpha + q))
    scale = max(float(np.max(np.abs(expect_f))), MACHINE_EPS)
    worst = float(np.max(np.abs(force - expect_f))) / scale
    require(worst <= TWOLINK_TOL, f"twolink force off by {worst:.3g}")
    require(np.allclose(delta, expect_d, rtol=0.0, atol=1e-12 * length), "twolink delta differs")
    require(np.allclose(potential, 2.0 * k * q * q - force * delta, rtol=1e-12, atol=1e-12),
            "twolink potential differs")
    return worst


def check_modes_output(text: str, lengths, stiffness) -> tuple[float, np.ndarray]:
    """`critical-force --modes` rows; returns (worst error, eigenvalues)."""
    first = text.splitlines()[0].split(",")
    require(first[0] == "critical_force", "missing critical_force line")
    rows = parse_rows(text, "mode,eigenvalue,axial_force,energy_factor,shape,stability,mode_vector")
    eigenvalues = np.array([float(r[1]) for r in rows])
    forces = np.array([float(r[2]) for r in rows])
    vectors = np.array([[float(v) for v in r[6].split(";")] for r in rows])
    require(float(first[1]) == forces[0], "critical force is not the first mode's")
    require([r[5] for r in rows] == ["stable"] + ["unstable"] * (len(rows) - 1),
            "only the primary mode may be stable")
    return check_modes(lengths, stiffness, eigenvalues, vectors, forces), eigenvalues


def check_three_link_rows(text: str, lengths, stiffness, reference, deltas) -> float:
    """Every printed equilibrium ends at (x0 - delta, 0) and balances torques."""
    rows = parse_rows(text, "delta_x,q1,q2,q3,fx,fy,energy,stability")
    lengths = np.asarray(lengths, dtype=float)
    reach = float(lengths.sum())
    x0, _ = end_point(lengths, reference)
    require(sorted({float(r[0]) for r in rows}) == sorted(deltas), "a deflection printed no rows")
    values = np.array([r[:7] for r in rows], dtype=float)
    angles = values[:, 1:4]
    torques = stiffness * (angles - reference)
    scale = float(np.max(np.linalg.norm(torques, axis=1)))
    worst = 0.0
    for row, q, tau in zip(values, angles, torques):
        delta, fx, fy, energy = row[0], row[4], row[5], row[6]
        x, y = end_point(lengths, q)
        require(abs(x - (x0 - delta)) <= ENDPOINT_TOL * reach and abs(y) <= ENDPOINT_TOL * reach,
                f"three-link end-point off at delta {delta:.6g}")
        residual = jacobian(lengths, q).T @ [fx, fy] + tau
        worst = max(worst, float(np.linalg.norm(residual)) / scale)
        require(abs(energy - spring_energy(stiffness, q, reference)) <= 1e-9 * max(1.0, energy),
                "three-link energy is not the spring energy")
    require(worst <= TORQUE_TOL, f"three-link torque balance off by {worst:.3g}")
    for delta in deltas:
        tags = [r[7] for r in rows if float(r[0]) == delta]
        require(len(tags) <= 4, f"{len(tags)} equilibria at delta {delta:.6g}")
        require("stable" in tags, f"no stable equilibrium at delta {delta:.6g}")
    return worst


def check_sweep_rows(text: str) -> None:
    """A seedless CLI sweep of TABLE_U: rising force, no marker, energy = work."""
    require("# truncated" not in text, "CLI sweep truncated")
    require("# quasi_buckling_marker" not in text, "smooth CLI sweep reported a marker")
    rows = parse_rows(text, "delta_x,fx,fy,energy,stability,quasi_buckling")
    values = np.array([r[:4] for r in rows], dtype=float)
    require(np.all(np.diff(values[:, 1]) > 0.0), "CLI sweep force does not rise strictly")
    check_energy_work(values[:, 0], values[:, 1], values[:, 3])
