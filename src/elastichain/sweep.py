"""Equilibrium paths of non-straight chains by constrained energy search.

An equilibrium balances J^T F + K (q - q0) = 0 with the end-point pinned at
(x0 - delta_x, 0); the force F is the constraint's Lagrange multiplier. A
sweep follows it in full coordinates (q, F): a second-order predictor from
the tangents at the last two points, then Newton steps on the bordered (KKT)
system that stop at rounding, their last solve giving the next tangent; a
step that fails is retried in halves. Past a fold in delta_x, Newton
minimization of the strain energy over the leading n-2 angles, the last two
closed onto the end-point, finds the shape the chain snaps to; minima of
that reduced energy are stable, maxima and saddles unstable. Its gradient
and Hessian are exact, from suffix sums of the forward kinematics, and it
runs over a stack of starts at once, as the random restarts of a sweep do.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .chain import (
    ChainModel,
    Configuration,
    DeflectionState,
    PlanarPoint,
    _close_chain_raw,
    _jacobian_raw,
    check_configuration,
    close_chain,
    forward_kinematics,
)
from .errors import NotApplicableError, SingularSampleError, UnreachableTargetError
from .statics import EquilibriumPoint, PlanarForce

# Eigenvalues of the reduced Hessian within this fraction of its largest
# entry are treated as zero when classifying stability.
STABILITY_TOLERANCE = 1e-6
# Newton solves of the reduced energy: converged once a step no longer halves
# the gradient and either the gradient is below GRADIENT_TOLERANCE times the
# largest stiffness or the step norm is below ROUNDING relative to the angles
# (stiff minima by a folded elbow); Hessian eigenvalues floored on the
# stiffness scale; Armijo factor, energy rounding forgiven (relative to
# energy plus that scale), smallest step.
NEWTON_ITERATIONS = 100
GRADIENT_TOLERANCE = 1e-12
CURVATURE_FLOOR = 1e-8
ARMIJO = 1e-4
ROUNDING = 1e-14
MIN_STEP = 1e-10
# Bordered Newton stops at |r| <= ROUNDING max k only after a solve at |r| <=
# TANGENT_RESIDUAL max k: the tangent that solve gave then holds to a few 1e-8.
TANGENT_RESIDUAL = 1e-9
# |sin q_n| at which the closure is singular (last two links collinear), and
# below which negative curvature while |sin q_n| still shrinks means a
# descent slides onto that boundary.
SINGULAR_SINE = 1e-8
BOUNDARY_SINE = 0.05
NO_CLOSURE = "no feasible closure from any start or branch"
NO_EQUILIBRIUM = "no start converged to an equilibrium"
# Most restarts one stacked descent takes, which bounds a long sweep's memory.
STACK_ROWS = 1024
# Levels of step halving when a path step fails: step-size control of the
# bordered continuation, not a retry in the reduced chart.
PATH_HALVINGS = 2
# Grid density of the closed-loop scan behind three_link_equilibria.
THREE_LINK_GRID = 1200
# Configurations closer than this (max angle gap, rad) count as duplicates.
DEDUPE_TOLERANCE = 1e-6


@dataclass(frozen=True)
class TwoLinkMechanism:
    """Symmetric two-link mechanism with closed-form force and energy.

    half_angle_init is the initial half-angle of the non-straight shape,
    spring_k the stiffness of each rotational spring, link_length the
    length of each of the two links.
    """

    half_angle_init: float
    spring_k: float
    link_length: float

    def __post_init__(self):
        if not (math.isfinite(self.half_angle_init)
                and math.isfinite(self.spring_k)
                and math.isfinite(self.link_length)):
            raise ValueError("mechanism parameters must be finite")
        if self.spring_k <= 0.0:
            raise ValueError("spring stiffness must be positive")
        if self.link_length <= 0.0:
            raise ValueError("link length must be positive")


def twolink_curve(mech: TwoLinkMechanism, q_samples) -> list[tuple[float, float, float]]:
    """Closed-form force-deflection curve of the two-link mechanism.

    For each configuration angle q the axial deflection, the equilibrium
    force, and the potential energy at that force are returned.

    Returns:
        List of (delta, force, potential) triples, one per sample.

    Raises:
        SingularSampleError: sin(alpha + q) vanishes at some sample, where
            the force expression is undefined.
    """
    alpha = mech.half_angle_init
    k = mech.spring_k
    length = mech.link_length
    samples = np.atleast_1d(np.asarray(q_samples, dtype=float))
    curve = []
    for index, q in enumerate(samples):
        s = math.sin(alpha + q)
        if abs(s) < 1e-12:
            raise SingularSampleError(
                f"sin(alpha + q) vanishes at sample {index} (q = {q:.6g})"
            )
        force = 2.0 * k * q / (length * s)
        delta = 2.0 * length * (math.cos(alpha) - math.cos(alpha + q))
        potential = 2.0 * k * q * q - force * delta
        curve.append((delta, force, potential))
    return curve


def twolink_critical(mech: TwoLinkMechanism) -> float:
    """Critical compressive force 2k/L of the straight two-link mechanism.

    Raises:
        NotApplicableError: the mechanism is not straight; a non-straight
            shape deflects from the first newton of load and has no
            bifurcation.
    """
    if abs(mech.half_angle_init) > 1e-12:
        raise NotApplicableError(
            "critical force is defined only for the straight mechanism "
            f"(half angle = {mech.half_angle_init:.6g})"
        )
    return 2.0 * mech.spring_k / mech.link_length


def classify_stability(hessian) -> tuple[str, bool]:
    """Stability tag from a reduced-energy Hessian.

    Eigenvalues are compared against a scale-aware tolerance. Mixed signs
    give a saddle, all-negative an unstable point, everything else stable.
    The flag reports a degenerate (near-zero) eigenvalue, which the tag
    alone cannot express.

    Returns:
        (tag, degenerate) with tag in {"stable", "unstable", "saddle"}.
    """
    h = np.atleast_2d(np.asarray(hessian, dtype=float))
    if h.shape[0] != h.shape[1]:
        raise ValueError("hessian must be square")
    return _stability(h)[:2]


def _stability(h):
    """classify_stability of a square h and its smallest eigenvalue (inf
    when h is empty)."""
    eigenvalues = np.linalg.eigvalsh(0.5 * (h + h.T))
    tol = STABILITY_TOLERANCE * float(np.abs(h).max()) if h.size else 0.0
    positive = int((eigenvalues > tol).sum())
    negative = int((eigenvalues < -tol).sum())
    degenerate = bool((np.abs(eigenvalues) <= tol).any())
    tag = "saddle" if positive and negative else "unstable" if negative else "stable"
    return tag, degenerate, float(eigenvalues.min(initial=math.inf))


def reduced_energy(
    chain: ChainModel,
    initial_config: Configuration,
    leading_angles,
    target: PlanarPoint,
    branch: int = +1,
) -> float:
    """Strain energy of the chain closed onto `target`.

    The first n-2 angles are the free coordinates; the last two come from
    the two-link closure with the requested elbow branch. Infeasible
    closures are reported as +inf so minimizers treat them as barriers.
    """
    check_configuration(chain, initial_config)
    lead = np.asarray(leading_angles, dtype=float).tolist()
    return _closed_energy(
        tuple(chain.link_lengths), chain.joint_stiffness,
        initial_config.reference_angles, lead, target.x, target.y, int(branch),
    )[0]


@dataclass(frozen=True)
class SweepRequest:
    """Inputs of a force-deflection sweep.

    initial_config is the actuated unloaded shape (angles equal to the
    reference angles); delta_max the largest axial displacement; steps the
    number of samples including delta_x = 0; branch_policy one of "both",
    "positive", "negative"; seeds the number of random restarts per step.
    """

    chain: ChainModel
    initial_config: Configuration
    delta_max: float
    steps: int
    branch_policy: str = "both"
    seeds: int = 8

    def __post_init__(self):
        check_configuration(self.chain, self.initial_config)
        if self.chain.n < 3:
            raise ValueError("sweeps need a chain of at least three links")
        if self.branch_policy not in ("both", "positive", "negative"):
            raise ValueError(
                f"branch_policy must be both/positive/negative, "
                f"got {self.branch_policy!r}"
            )
        steps = int(self.steps)
        if steps < 2:
            raise ValueError("a sweep needs at least two steps")
        object.__setattr__(self, "steps", steps)
        seeds = int(self.seeds)
        if seeds < 0:
            raise ValueError("seeds must be nonnegative")
        object.__setattr__(self, "seeds", seeds)
        delta_max = float(self.delta_max)
        if not math.isfinite(delta_max) or delta_max <= 0.0:
            raise ValueError("delta_max must be positive")
        x0 = forward_kinematics(self.chain, self.initial_config.angles).x
        if delta_max >= x0:
            raise ValueError(
                f"delta_max = {delta_max:.6g} reaches past the unloaded "
                f"end-point x0 = {x0:.6g}"
            )
        object.__setattr__(self, "delta_max", delta_max)

    @property
    def branches(self) -> tuple[int, ...]:
        return {"both": (1, -1), "positive": (1,), "negative": (-1,)}[
            self.branch_policy
        ]


@dataclass
class SweepStepRecord:
    """The elbow branch, sign(sin q_n), of the point at delta_x and the
    restart that produced it (0: the path itself)."""

    delta_x: float
    branch: int
    restart: int
    note: str = ""


@dataclass(frozen=True)
class SweepAdvisory:
    """A lower-energy minimum found by a restart, disconnected from the path."""

    delta_x: float
    primary_energy: float
    alternative_energy: float
    angle_gap: float


@dataclass(frozen=True)
class SweepTruncation:
    """Marker that the sweep stopped early at delta_x."""

    delta_x: float
    reason: str


@dataclass
class SweepResult:
    """Ordered equilibrium path with quasi-buckling markers.

    points are sorted strictly increasing in delta_x. branch_log has one
    record per point. truncation is set when some delta_x admitted no
    feasible equilibrium and the sweep stopped there.
    """

    points: list[EquilibriumPoint]
    quasi_buckling_markers: list[tuple[float, float]]
    branch_log: list[SweepStepRecord]
    advisories: list[SweepAdvisory] = field(default_factory=list)
    truncation: SweepTruncation | None = None


def detect_quasi_buckling(result, drop_ratio: float = 0.1) -> list[tuple[float, float]]:
    """Stiffness-collapse markers along a force-deflection path.

    The discrete stiffness d fx / d delta_x is compared against the maximum
    stiffness seen over the initial 20% of the path; a marker is emitted at
    every downward crossing below drop_ratio times that reference.

    Args:
        result: a SweepResult, or a sequence of (delta_x, fx) pairs.
        drop_ratio: fraction of the reference stiffness that counts as
            collapsed.

    Returns:
        List of (delta_x, stiffness/reference) markers, possibly empty.
    """
    if not 0.0 < drop_ratio < 1.0:
        raise ValueError("drop_ratio must lie strictly between 0 and 1")
    if hasattr(result, "points"):
        deltas = np.array([p.deflection.delta_x for p in result.points])
        fx = np.array([p.force.fx for p in result.points])
    else:
        pairs = np.asarray(list(result), dtype=float)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError("expected a SweepResult or (delta_x, fx) pairs")
        deltas, fx = pairs[:, 0], pairs[:, 1]
    if deltas.size < 3:
        raise ValueError("quasi-buckling detection needs at least 3 points")

    stiffness = np.gradient(fx, deltas)
    span = deltas[-1] - deltas[0]
    reference = float(np.max(stiffness[deltas <= deltas[0] + 0.2 * span]))
    if reference <= 0.0:
        return []
    threshold = drop_ratio * reference
    markers = []
    for i in range(deltas.size):
        if stiffness[i] < threshold and (i == 0 or stiffness[i - 1] >= threshold):
            markers.append((float(deltas[i]), float(stiffness[i] / reference)))
    return markers


# ---------------------------------------------------------------------------
# Newton steps: reduced (leading angles) and bordered (all angles and F)


def _closed_energy(lengths, stiffness, reference, lead, tx, ty, branch):
    """(spring energy, angles) of the closure onto (tx, ty), or (inf, None)."""
    full = _close_chain_raw(lengths, lead, tx, ty, branch)
    if full is None:
        return math.inf, None
    total = sum(k * (q - r) * (q - r) for k, q, r in zip(stiffness, full, reference))
    return 0.5 * total, full


def _closed_energies(lengths, stiffness, reference, lead, tx, branch):
    """_closed_energy onto (tx, 0) over a stack of starts lead (m, n-2).

    tx and branch are scalars or (m,). Row by row this is the arithmetic of
    _close_chain_raw, with its reach tolerance and q_{n-1} wrapped into
    [-pi, pi]; cumsum keeps its sums sequential. Returns (energies, angles
    (m, n)); infeasible rows have energy +inf and meaningless angles.
    """
    m = lead.shape[1]
    heading = lead.cumsum(axis=1)
    wx = (lengths[:m] * np.cos(heading)).cumsum(axis=1)[:, -1]
    wy = (lengths[:m] * np.sin(heading)).cumsum(axis=1)[:, -1]
    la, lb = lengths[m:]
    dx, dy = tx - wx, 0.0 - wy
    d2 = dx * dx + dy * dy
    reach, gap, tol = la + lb, la - lb, 1e-9 * (la + lb)
    d = np.sqrt(d2)
    c2 = np.minimum(np.maximum((d2 - la * la - lb * lb) / (2.0 * la * lb), -1.0), 1.0)
    s2 = branch * np.sqrt(np.maximum(0.0, (reach * reach - d2) * (d2 - gap * gap)))
    s2 /= 2.0 * la * lb
    qa = np.arctan2(dy, dx) - np.arctan2(lb * s2, la + lb * c2) - heading[:, -1]
    full = np.empty((len(lead), m + 2))
    full[:, :m] = lead
    full[:, m] = qa - math.tau * np.rint(qa / math.tau)
    full[:, m + 1] = np.arctan2(s2, c2)
    stretch = full - reference
    total = (stiffness * stretch * stretch).cumsum(axis=1)[:, -1]
    feasible = (d <= reach + tol) & (d >= abs(gap) - tol)
    return np.where(feasible, 0.5 * total, np.inf), full


@functools.lru_cache(maxsize=None)
def _suffix_index(n):
    """max(a, b) over an n x n grid: where the suffix sums of a pair start."""
    return np.maximum.outer(np.arange(n), np.arange(n))


def _curvature(stiffness, jac, force):
    """H = K - F_x Sc - F_y Ss, the Hessian of the energy less the work of F,
    for a Jacobian (2, n) and force or stacks of them. Sc[a, b] sums L_j
    cos(theta_j) over j >= max(a, b), i.e. J[1, max(a, b)]; Ss is -J[0, ...]."""
    n = jac.shape[-1]
    work = force[..., 1, None] * jac[..., 0, :] - force[..., 0, None] * jac[..., 1, :]
    curvature = work[..., _suffix_index(n)]
    curvature.reshape(-1, n * n)[:, :: n + 1] += stiffness
    return curvature


def _bordered(stiffness, jac, force):
    """The KKT matrix [[H, J^T], [J, 0]] of the equilibrium equations."""
    n = jac.shape[1]
    kkt = np.zeros((n + 2, n + 2))
    kkt[:n, :n] = _curvature(stiffness, jac, force)
    kkt[:n, n:] = jac.T
    kkt[n:, :n] = jac
    return kkt


def _derivatives(stiffness, reference, full, jac):
    """Force, reduced gradient and reduced Hessian at closed configurations:
    full (n,) with its Jacobian jac (2, n), or a stack (m, n) and (m, 2, n).

    Z = [I; -J_t^-1 J_l] spans the tangent space of the end-point constraint
    (J_t: the Jacobian columns of the last two joints). The force is the
    multiplier F = -J_t^-T tau_t with tau = K (q - q0), the gradient Z^T tau
    and the Hessian Z^T H Z with H from _curvature.

    Returns (force, gradient, hessian, tau).
    """
    tau = stiffness * (full - reference)
    block = jac[..., -2:]  # J_t
    det = block[..., 0, 0] * block[..., 1, 1] - block[..., 0, 1] * block[..., 1, 0]
    adjugate = block[..., ::-1, ::-1].swapaxes(-1, -2) * np.array([[1.0, -1.0], [-1.0, 1.0]])
    inverse = adjugate / det[..., None, None]
    force = -(inverse.swapaxes(-1, -2) @ tau[..., -2:, None])[..., 0]
    m = full.shape[-1] - 2
    trailing = -inverse @ jac[..., :m]  # the last two rows of Z
    curvature = _curvature(stiffness, jac, force)
    projected = curvature[..., :m] + curvature[..., m:] @ trailing  # H Z
    turned = trailing.swapaxes(-1, -2)
    hessian = projected[..., :m, :] + turned @ projected[..., m:, :]
    gradient = tau[..., :m] + (turned @ tau[..., m:, None])[..., 0]
    return force, gradient, hessian, tau


def _reduced_derivatives(chain, reference, full):
    """_derivatives at one closed configuration, with J^T F + tau for tau."""
    solve = _solve_at(chain, reference, full)
    return solve.force, solve.gradient, solve.hessian, solve.residual


@dataclass(frozen=True)
class _Solve:
    """A closed configuration with its energy, Jacobian and _derivatives."""

    energy: float
    full: np.ndarray
    jac: np.ndarray
    force: np.ndarray
    gradient: np.ndarray
    hessian: np.ndarray
    residual: np.ndarray

    def point(self, stability, delta, reference, pre_displacement):
        """The EquilibriumPoint at axial deflection delta."""
        # + 0.0 turns the -0.0 of an unloaded point into 0.0
        fx, fy = float(self.force[0]) + 0.0, float(self.force[1]) + 0.0
        return EquilibriumPoint(
            configuration=Configuration(self.full, reference),
            deflection=DeflectionState(delta, 0.0, pre_displacement),
            force=PlanarForce(fx, fy),
            strain_energy=self.energy,
            potential_energy=self.energy - fx * delta,
            stability=stability,
            residual_norm=float(np.linalg.norm(self.residual)),
        )


def _minimize_stack(chain, reference, lead, tx, branch):
    """Modified-Newton descents of the reduced energy from a stack of starts.

    lead is (m, n-2), tx and branch (m,); each row takes the steps it would
    take alone, and leaves the stack once it converges or fails. Steps use
    the reduced Hessian with its eigenvalues replaced by their floored
    magnitudes, so they always descend and cannot settle on a saddle. The
    Armijo backtracking treats infeasible closures as +inf and takes the
    first halving that passes, four halvings of every row per closure call
    and then the rest. At the closure boundary J_t is singular and the
    energy has a square-root singularity: a descent that meets negative
    curvature near it while still approaching it is sliding onto it, and
    this branch has no equilibrium there. Returns per row the _Solve at an
    equilibrium, or None when the start is infeasible or no equilibrium is
    reached.
    """
    lengths, stiffness = chain.link_lengths, chain.joint_stiffness
    closure = functools.partial(_closed_energies, lengths, stiffness, np.asarray(reference))
    scale = float(np.max(stiffness))
    alphas = 0.5 ** np.arange(1 + int(math.log2(1.0 / MIN_STEP)))  # 1, 1/2, ... >= MIN_STEP
    blocks = alphas[:4, None], alphas[4:, None]
    results, rows = [None] * len(lead), np.arange(len(lead))
    energy, full = closure(lead, tx, branch)
    # |gradient| one iterate back; the start has no direction of approach to
    # the boundary, so its previous |sin q_n| is 0
    previous, previous_sine = np.full(len(lead), np.inf), np.zeros(len(lead))
    keep = np.isfinite(energy)
    for _ in range(NEWTON_ITERATIONS):
        sine = np.abs(np.sin(full[:, -1]))
        keep &= sine > SINGULAR_SINE
        if not keep.all():
            rows, full, energy, sine, tx, branch, previous, previous_sine = (
                v[keep] for v in (rows, full, energy, sine, tx, branch, previous, previous_sine)
            )
        if not rows.size:
            break
        lead = full[:, :-2]
        jac = _jacobian_raw(lengths, full)
        force, gradient, hessian, tau = _derivatives(stiffness, reference, full, jac)
        values, vectors = np.linalg.eigh(hessian)
        curvature = np.maximum(np.abs(values), CURVATURE_FLOOR * scale)
        step = -(vectors @ ((gradient[:, None] @ vectors)[:, 0] / curvature)[..., None])[..., 0]
        norm = np.sqrt((gradient * gradient).sum(axis=1))
        small = (step * step).sum(axis=1) <= ROUNDING * ROUNDING * (1.0 + (lead * lead).sum(axis=1))
        converged = (norm >= 0.5 * previous) & ((norm <= GRADIENT_TOLERANCE * scale) | small)
        for i in np.flatnonzero(converged):
            results[rows[i]] = _Solve(float(energy[i]), full[i], jac[i], force[i], gradient[i],
                                      hessian[i], jac[i].T @ force[i] + tau[i])
        sliding = (values[:, 0] < 0.0) & (sine < np.minimum(BOUNDARY_SINE, previous_sine))
        previous, previous_sine = norm, sine
        # the line search: rows that pass update full and energy in place
        slope = (gradient * step).sum(axis=1)
        pending = np.flatnonzero(~(converged | sliding))
        keep = np.zeros(rows.size, dtype=bool)
        full, energy = full.copy(), energy.copy()
        for block in blocks:
            if not pending.size:
                break
            trial = lead[pending, None] + block * step[pending, None]
            trial_energy, trial_full = closure(
                trial.reshape(-1, lead.shape[1]), tx[pending].repeat(block.size),
                branch[pending].repeat(block.size))
            trial_energy = trial_energy.reshape(-1, block.size)
            base = energy[pending, None]
            slack = ARMIJO * block.T * slope[pending, None] + ROUNDING * (base + scale)
            passed = trial_energy <= base + slack
            hit = passed.any(axis=1)
            take, first = pending[hit], passed[hit].argmax(axis=1)
            full[take] = trial_full.reshape(-1, block.size, full.shape[1])[hit, first]
            energy[take] = trial_energy[hit, first]
            keep[take] = True
            pending = pending[~hit]
    return results


def _newton_minimize(chain, reference, lead, tx, branch):
    """_minimize_stack from one start: its _Solve or None."""
    lead = np.asarray(lead, dtype=float)[None]
    return _minimize_stack(chain, reference, lead, np.array([tx]), np.array([branch]))[0]


def _solve_at(chain, reference, full, jac=None):
    """The _Solve at a configuration that closes the chain (jac: its Jacobian)."""
    full = np.asarray(full, dtype=float)
    if jac is None:
        jac = _jacobian_raw(chain.link_lengths, full)
    stretch = full - np.asarray(reference)
    energy = 0.5 * float(chain.joint_stiffness @ (stretch * stretch))
    force, gradient, hessian, tau = _derivatives(chain.joint_stiffness, reference, full, jac)
    return _Solve(energy, full, jac, force, gradient, hessian, jac.T @ force + tau)


def _correct(chain, reference, full, force, tx):
    """Newton's method on r(q, F) = [J^T F + K (q - q0); p(q) - (tx, 0)].

    Its Jacobian is the _bordered matrix, and angles change additively, so no
    closure wraps them. In |r| the end-point miss is weighed by max k / sum L
    to count as a torque; the steps do not depend on that weight. Each solve
    also gives the _tangent. Iterates until |r| no longer halves or reaches
    rounding (TANGENT_RESIDUAL); returns (angles, their Jacobian, the last
    solve's tangent) if |r| then lies below GRADIENT_TOLERANCE times the
    largest stiffness, else Nones.
    """
    stiffness = chain.joint_stiffness
    scale = float(np.max(stiffness))
    weight = scale / chain.total_length
    n, reference = full.size, np.asarray(reference)
    rhs = np.zeros((n + 2, 2))
    rhs[n, 1] = 1.0
    previous = math.inf
    for _ in range(NEWTON_ITERATIONS):
        jac = _jacobian_raw(chain.link_lengths, full)
        rhs[:n, 0] = jac.T @ force + stiffness * (full - reference)
        rhs[n:, 0] = jac[1, 0] - tx, -jac[0, 0]  # J[:, 0] is (-y, x)
        norm = math.sqrt(rhs[:n, 0] @ rhs[:n, 0] + weight * weight * (rhs[n:, 0] @ rhs[n:, 0]))
        settled = norm <= ROUNDING * scale and previous <= TANGENT_RESIDUAL * scale
        if settled or not norm < 0.5 * previous:
            return (full, jac, step[:, 1]) if norm <= GRADIENT_TOLERANCE * scale else (None,) * 3
        previous = norm
        try:
            step = np.linalg.solve(_bordered(stiffness, jac, force), rhs)
        except np.linalg.LinAlgError:
            return (None,) * 3
        full, force = full - step[:n, 0], force - step[n:, 0]
    return (None,) * 3


def _tangent(chain, solve):
    """d(q, F)/d tx through the equilibrium `solve`: the _bordered system
    with right-hand side (0; e_x). Raises LinAlgError where it is singular."""
    n = solve.full.size
    kkt = _bordered(chain.joint_stiffness, solve.jac, solve.force)
    return np.linalg.solve(kkt, np.eye(n + 2)[n])


def _path_step(chain, reference, start, tx, branches, halvings=PATH_HALVINGS):
    """The loading path continued from start = (solve, tx_from, tangent, bend):
    an equilibrium, its d(q, F)/d tx (None: take _tangent) and that tangent's
    change per unit tx over the path step that reached it (else 0).

    _correct lands the prediction h t + h^2 bend / 2, h = tx - tx_from.
    Returns that tuple at tx and its classify_stability if it is stable
    (positive definite reduced Hessian), off the closure boundary and on an
    elbow sign(sin q_n) in `branches`; else retries as two half-steps,
    `halvings` levels deep, then gives None, e.g. past a fold in delta_x.
    """
    solve, tx_from, tangent, bend = start
    h, n = tx - tx_from, solve.full.size
    try:
        tangent = _tangent(chain, solve) if tangent is None else tangent
    except np.linalg.LinAlgError:
        return None
    step = h * tangent + 0.5 * h * h * bend
    full, jac, ahead = _correct(chain, reference, solve.full + step[:n], solve.force + step[n:], tx)
    if full is not None and abs(math.sin(full[-1])) > SINGULAR_SINE and _branch(full) in branches:
        point = _solve_at(chain, reference, full, jac)
        tag, degenerate, lowest = _stability(point.hessian)
        if lowest > 0.0:
            return (point, tx, ahead, (ahead - tangent) / h), (tag, degenerate)
    if not halvings:
        return None
    half = _path_step(chain, reference, (solve, tx_from, tangent, bend), 0.5 * (tx_from + tx),
                      branches, halvings - 1)
    return half and _path_step(chain, reference, half[0], tx, branches, halvings - 1)


def _branch(full):
    """The elbow branch of a configuration: the sign of sin q_n."""
    return 1 if math.sin(full[-1]) > 0.0 else -1


def _snap_to_axis(chain, config, branches):
    """Project the unloaded shape onto the sweep axis.

    Tabulated shapes carry rounding of a few 1e-4 rad, leaving the end-point
    slightly off axis; the trailing two angles are re-solved so the chain
    ends exactly at (x_raw, 0).

    Returns:
        (snapped angle vector, x0, elbow branch of the unloaded shape).
    """
    angles = config.angles
    if not np.allclose(angles, config.reference_angles, atol=1e-9):
        raise ValueError(
            "the sweep starts from the relaxed shape: initial angles must "
            "equal the reference angles"
        )
    point = forward_kinematics(chain, angles)
    total = chain.total_length
    if abs(point.y) > 0.01 * total:
        raise ValueError(
            f"unloaded end-point y = {point.y:.6g} is too far off the sweep "
            "axis to snap"
        )
    target = PlanarPoint(point.x, 0.0)
    best = None
    for branch in branches:
        try:
            full = close_chain(chain, angles[: chain.n - 2], target, branch)
        except UnreachableTargetError:
            continue
        gap = float(np.max(np.abs(full - angles)))
        if best is None or gap < best[2]:
            best = (full, branch, gap)
    if best is None or best[2] > 0.05:
        raise ValueError(
            "could not reproduce the unloaded shape on the sweep axis with "
            "the allowed elbow branches"
        )
    return best[0], point.x, best[1]


def _restart_offsets(seed, steps, seeds, width):
    """The random restart offsets of a sweep, (steps, seeds, width) angles in
    [-pi/2, pi/2): the numbers a draw of (seeds, width) per step gives."""
    if not seeds:  # a seedless sweep leaves numpy.random unimported
        return np.empty((steps, 0, width))
    return np.random.default_rng(seed).uniform(-0.5 * math.pi, 0.5 * math.pi, (steps, seeds, width))


def sweep_force_deflection(
    request: SweepRequest, seed: int = 0, drop_ratio: float = 0.1
) -> SweepResult:
    """Trace the force-deflection path of a non-straight chain.

    Each point continues the previous one along the path (_path_step), so
    the last elbow may straighten and bend the other way. Where that gives
    no stable point, e.g. past a fold in delta_x, the reduced energy is
    minimized from the previous leading angles on the previous elbow, which
    is where the chain snaps to. A point's branch is its elbow, the sign of
    sin q_n. Under branch_policy "both" the path may change elbow; under
    "positive" or "negative" it keeps the allowed one, and where the path
    would cross, the step is left to that minimization and the restarts on
    the allowed elbow. Restarts on every allowed branch only detect lower,
    disconnected minima, logged as advisories rather than jumped to, so with
    seeds=0 a sweep is pure continuation. A restart starts from the previous
    point's leading angles, so restarts wait until the path is traced, or
    until a step has no other point, and then run in stacked descents of up
    to STACK_ROWS rows (_minimize_stack), row by row the same as one at a
    time; `seeds` costs a few stacked descents. Solves that slide onto the
    closure boundary are not equilibria and count as neither. A point's
    force is the constraint multiplier, its stability comes from the
    analytic reduced Hessian. Strain energy is checked for monotone growth
    and any violation is noted on the branch log. A step whose end-point
    lies out of the chain's reach (NO_CLOSURE), or where no start converges
    to an equilibrium (NO_EQUILIBRIUM), truncates the sweep.
    """
    chain = request.chain
    snapped, x0, branch = _snap_to_axis(chain, request.initial_config, request.branches)
    reference = tuple(float(v) for v in snapped)
    ref_config = np.asarray(snapped, dtype=float)
    pre_displacement = chain.total_length - x0
    deltas = np.linspace(0.0, request.delta_max, request.steps)
    offsets = _restart_offsets(seed, request.steps, request.seeds, chain.n - 2)
    restarts = range(1, request.seeds + 1)

    # restarts wait in `queue`; `found` maps (step, elbow, restart) to the
    # equilibrium a restart reached
    queue, found = [], {}

    def run_queue():
        for i in range(0, len(queue), STACK_ROWS):
            keys, *stack = zip(*queue[i : i + STACK_ROWS])
            solves = _minimize_stack(chain, reference, *map(np.array, stack))
            found.update((key, s) for key, s in zip(keys, solves) if s is not None)
        queue.clear()

    def candidates(k, elbow, first):
        """Step k's candidates: `first` (the path or descent point), then the
        restarts on the previous elbow, then those on the other elbow."""
        out = [] if first is None else [first]
        for other in [elbow] + [b for b in request.branches if b != elbow]:
            out += [(found[k, other, r], other, r) for r in restarts if (k, other, r) in found]
        return out

    # pass 1: the path; per step (delta, previous elbow, first, the chosen
    # candidate, its stability if it is a path point)
    steps, truncation = [], None
    previous, lead = None, ref_config[:-2]  # the last point, as _path_step starts
    for k, delta in enumerate(deltas):
        tx = x0 - float(delta)
        first, stability, start = None, None, None
        if previous is None:
            # the unloaded start: the relaxed shape itself, off the boundary
            if abs(math.sin(ref_config[-1])) > SINGULAR_SINE:
                first = (_solve_at(chain, reference, ref_config), branch, 0)
        else:
            path = _path_step(chain, reference, previous, tx, request.branches)
            if path is not None:
                start, stability = path
                first = (start[0], _branch(start[0].full), 0)
            else:
                # past a fold: where the descent leads
                solve = _newton_minimize(chain, reference, lead, tx, branch)
                first = None if solve is None else (solve, branch, 0)
        queue += [((k, other, r), lead + offset, tx, other)
                  for other in request.branches for r, offset in zip(restarts, offsets[k])]
        chosen = first
        if first is None:
            run_queue()
            chosen = min(candidates(k, branch, None), key=lambda c: c[0].energy, default=None)
            if chosen is None:
                # no shape of the chain reaches closer to its base than this
                inner = 2.0 * float(np.max(chain.link_lengths)) - chain.total_length
                reason = NO_EQUILIBRIUM if abs(tx) >= inner else NO_CLOSURE
                truncation = SweepTruncation(delta_x=float(delta), reason=reason)
                break
        steps.append((float(delta), branch, first, chosen, stability))
        previous, lead, branch = start or (chosen[0], tx, None, 0.0), chosen[0].full[:-2], chosen[1]
    run_queue()

    # pass 2: advise and record, step by step
    points, log, advisories = [], [], []
    for k, (delta, elbow, first, (solve, branch, restart), stability) in enumerate(steps):
        note = "" if first is not None else "no warm equilibrium; continued from a restart"
        for other, other_branch, _ in candidates(k, elbow, first):
            gap = float(np.max(np.abs(other.full[:-2] - solve.full[:-2])))
            if other_branch == branch and gap <= 1e-3:
                continue
            if other.energy < solve.energy - 1e-9:
                advisories.append(SweepAdvisory(
                    delta_x=delta, primary_energy=solve.energy,
                    alternative_energy=other.energy, angle_gap=gap,
                ))
                break

        tag, degenerate = stability or classify_stability(solve.hessian)
        if degenerate:
            note = (note + "; " if note else "") + "degenerate stability"

        points.append(solve.point(tag, delta, ref_config, pre_displacement))
        log.append(SweepStepRecord(delta, branch, restart, note))

    for i in range(1, len(points)):
        drop = points[i - 1].strain_energy - points[i].strain_energy
        if drop > 1e-9 * max(1.0, abs(points[i - 1].strain_energy)):
            log[i].note = (log[i].note + "; " if log[i].note else "") + (
                f"strain energy decreased by {drop:.3g}"
            )

    markers = []
    if len(points) >= 3:
        markers = detect_quasi_buckling(
            [(p.deflection.delta_x, p.force.fx) for p in points], drop_ratio
        )
    return SweepResult(
        points=points,
        quasi_buckling_markers=markers,
        branch_log=log,
        advisories=advisories,
        truncation=truncation,
    )


# ---------------------------------------------------------------------------
# three-link enumeration


def _feasible_arcs(lengths, tx, ty):
    """First-joint intervals where the trailing pair can reach the target.

    The wrist of link 1 moves on a circle of radius L1; the closure is
    feasible where its distance to the target falls inside the annulus of
    the last two links. Returns a list of (lo, hi) angle intervals.
    """
    l1, la, lb = lengths
    distance = math.hypot(tx, ty)
    r_lo, r_hi = abs(la - lb), la + lb
    if distance < 1e-12:
        if r_lo - 1e-12 <= l1 <= r_hi + 1e-12:
            return [(-math.pi, math.pi)]
        return []
    psi = math.atan2(ty, tx)
    c_lo = (l1 * l1 + distance * distance - r_hi * r_hi) / (2.0 * l1 * distance)
    c_hi = (l1 * l1 + distance * distance - r_lo * r_lo) / (2.0 * l1 * distance)
    if c_lo > 1.0 + 1e-12 or c_hi < -1.0 - 1e-12 or c_lo > c_hi + 1e-12:
        return []
    c_lo = max(-1.0, min(1.0, c_lo))
    c_hi = max(-1.0, min(1.0, c_hi))
    inner = math.acos(c_hi)
    outer = math.acos(c_lo)
    if inner < 1e-12:
        return [(psi - outer, psi + outer)]
    return [(psi + inner, psi + outer), (psi - outer, psi - inner)]


def _newton_bisection(at, x, solve, other):
    """Zero of the reduced gradient g(phi) between x and `other`.

    `at` maps an angle to its _Solve (None on the closure boundary); g at
    `other` is taken to have the sign opposite to g at x. Newton steps are
    replaced by bisection of that bracket whenever they would leave it or
    shrink too slowly. Returns the iterate of smallest |g| (rounding can push
    the last step past it), or None once an iterate reaches the boundary.
    """
    best, step = solve, abs(other - x)
    for _ in range(NEWTON_ITERATIONS):
        g, h = solve.gradient[0], solve.hessian[0, 0]
        newton = x - g / h if h else math.inf
        if newton == x:
            break
        if (newton - x) * (newton - other) < 0.0 and abs(newton - x) < 0.5 * step:
            trial = newton
        else:
            trial = 0.5 * (x + other)
        step = abs(trial - x)
        trial_solve = at(trial)
        if trial_solve is None:
            return None
        if trial_solve.gradient[0] * g < 0.0:
            other = x
        x, solve = trial, trial_solve
        best = min(best, solve, key=lambda s: abs(s.gradient[0]))
        if step <= ROUNDING * (1.0 + abs(x)):
            break
    return best


def _interval_equilibria(chain, reference, tx, branch, ends):
    """Equilibria of one elbow branch with the first-joint angle within `ends`.

    g must change sign over the interval. An end on the closure boundary
    (|sin q3| <= SINGULAR_SINE, where g is infinite) takes the sign opposite
    to the other end's; so does an end across a 2 pi wrap of q2, where the
    energy jumps, and then either end may start the search. A limit that
    does not balance torques to 1e-9 max(1, max|tau|) is a kink of the
    wrapped energy or of the boundary, not an equilibrium; the others are
    polished by _correct.
    """
    lengths = tuple(float(v) for v in chain.link_lengths)

    def at(phi):
        full = _close_chain_raw(lengths, [phi], tx, 0.0, branch)
        if full is None or abs(math.sin(full[-1])) <= SINGULAR_SINE:
            return None
        return _solve_at(chain, reference, full)

    starts = [(phi, solve) for phi, solve in zip(ends, map(at, ends)) if solve is not None]
    if len(starts) == 2 and abs(starts[0][1].full[1] - starts[1][1].full[1]) < math.pi:
        if starts[0][1].gradient[0] * starts[1][1].gradient[0] > 0.0:
            return []
        starts = [min(starts, key=lambda item: abs(item[1].gradient[0]))]
    found = []
    for x, solve in starts:
        solve = _newton_bisection(at, x, solve, ends[1] if x == ends[0] else ends[0])
        if solve is None:
            continue
        tau = chain.joint_stiffness * (solve.full - reference)
        if np.linalg.norm(solve.residual) > 1e-9 * max(1.0, float(np.max(np.abs(tau)))):
            continue
        # near the boundary the chart's closure limits the balance; Newton
        # steps in full coordinates take it to rounding
        full, jac, _ = _correct(chain, reference, solve.full, solve.force, tx)
        if full is not None and abs(math.sin(full[-1])) > SINGULAR_SINE:
            solve = _solve_at(chain, reference, full, jac)
        found.append(solve)
    return found


def three_link_equilibria(
    chain: ChainModel, initial_config: Configuration, delta: float
) -> list[EquilibriumPoint]:
    """All static equilibria of a three-link chain at one axial deflection.

    With the end-point pinned, a single angle parameterizes the chain; its
    strain energy over the feasible intervals of both elbow branches forms
    closed loops. A grid scan of each loop brackets its extrema, and a
    safeguarded Newton iteration on the first-joint angle refines each to a
    zero of the reduced gradient (_interval_equilibria); minima are stable,
    maxima unstable. Kinks where the wrapped energy jumps are not
    equilibria and are dropped. Points are returned sorted by strain energy.

    Raises:
        UnreachableTargetError: no first-joint angle reaches the deflected
            end-point.
    """
    check_configuration(chain, initial_config)
    if chain.n != 3:
        raise ValueError("this enumeration is specific to three-link chains")
    delta = float(delta)
    if not math.isfinite(delta) or delta < 0.0:
        raise ValueError("delta must be nonnegative")
    angles = initial_config.angles
    if not np.allclose(angles, initial_config.reference_angles, atol=1e-9):
        raise ValueError(
            "equilibria are enumerated from the relaxed shape: initial "
            "angles must equal the reference angles"
        )
    start = forward_kinematics(chain, angles)
    total = chain.total_length
    if abs(start.y) > 1e-9 * total:
        raise ValueError(
            f"unloaded end-point y = {start.y:.6g} must lie on the axis"
        )

    lengths = tuple(float(v) for v in chain.link_lengths)
    stiffness = chain.joint_stiffness
    reference = tuple(float(v) for v in angles)
    tx = start.x - delta
    arcs = _feasible_arcs(lengths, tx, 0.0)
    if not arcs:
        raise UnreachableTargetError(
            f"no configuration reaches the deflected end-point x = {tx:.6g}"
        )

    found = []
    for lo, hi in arcs:
        span = hi - lo
        if span < 1e-10:
            # a single closure, kept when torque-free (the unloaded straight
            # chain); it has no free coordinate, so its reduced Hessian is empty
            for branch in (1, -1):
                energy, full = _closed_energy(
                    lengths, stiffness, reference, [0.5 * (lo + hi)], tx, 0.0, branch
                )
                if full is None:
                    continue
                full = np.asarray(full)
                tau = stiffness * (full - reference)
                if np.max(np.abs(tau)) <= 1e-9 * np.max(stiffness):
                    found.append(_Solve(
                        energy, full, _jacobian_raw(chain.link_lengths, full), np.zeros(2),
                        np.zeros(0), np.zeros((0, 0)), tau,
                    ))
            continue

        # walk the loop: + branch forward over [lo, hi], then - branch back
        ts = np.linspace(0.0, 1.0, THREE_LINK_GRID, endpoint=False)
        forward = ts < 0.5
        phis = np.where(forward, lo + 2.0 * ts * span, hi - (2.0 * ts - 1.0) * span)
        branches = np.where(forward, 1, -1)
        values = _closed_energies(lengths, stiffness, reference, phis[:, None], tx, branches)[0]
        before, after = np.roll(values, 1), np.roll(values, -1)
        low = (values <= before) & (values <= after) & ((values < before) | (values < after))
        high = (values >= before) & (values >= after) & ((values > before) | (values > after))
        for i in np.flatnonzero(np.isfinite(values) & (low | high)):
            # the grid intervals on either side, each on the branch of its start
            for j in (i - 1, i):
                ends = (float(phis[j]), float(phis[(j + 1) % ts.size]))
                found += _interval_equilibria(chain, reference, tx, int(branches[j]), ends)

    found.sort(key=lambda solve: solve.energy)
    unique = []
    for solve in found:
        if all(np.max(np.abs(solve.full - other.full)) > DEDUPE_TOLERANCE for other in unique):
            unique.append(solve)
    reference_vec = np.asarray(reference)
    pre_displacement = total - start.x
    return [
        solve.point(classify_stability(solve.hessian)[0], delta, reference_vec, pre_displacement)
        for solve in unique
    ]
