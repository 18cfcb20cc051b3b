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

three_link_equilibria enumerates every equilibrium of a three-link chain at
one deflection: one stacked grid scan over the first-joint angle, then one
stacked rescan of the cells it marks for sign changes of the reduced
gradient, from whose brackets the bordered Newton converges. The
closed-form two-link mechanism lives in the numpy-free elastichain.twolink.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .chain import (
    ChainModel,
    Configuration,
    DeflectionState,
    PlanarPoint,
    _check_branch,
    _check_leading,
    _close_chains,
    _jacobian_raw,
    check_configuration,
    close_chain,
    forward_kinematics,
)
from .errors import UnreachableTargetError
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
# Grid cells per elbow over a feasible arc in three_link_equilibria; its
# rescan splits brackets into CHART_SECTIONS sub-cells at a time until they are
# below CHART_BRACKET (rad), and reads a cell's end on the closure boundary
# BOUNDARY_READ_IN of the cell inside it.
THREE_LINK_GRID = 600
CHART_SECTIONS = 16
CHART_BRACKET = 1e-6
BOUNDARY_READ_IN = 1e-7
# Configurations closer than this (max angle gap, rad) count as duplicates.
DEDUPE_TOLERANCE = 1e-6


def classify_stability(hessian) -> tuple[str, bool]:
    """Stability tag from a reduced-energy Hessian.

    Eigenvalues are compared against a scale-aware tolerance. Mixed signs
    give a saddle, all-negative an unstable point, everything else stable.
    The flag reports a degenerate (near-zero) eigenvalue, which the tag
    alone cannot express.

    Returns:
        (tag, degenerate) with tag in {"stable", "unstable", "saddle"}.

    Raises:
        ValueError: hessian is not a square 2-D matrix or holds a value
            that is not finite.
    """
    h = np.asarray(hessian, dtype=float)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"hessian must be a square 2-D matrix, got shape {h.shape}")
    if not np.isfinite(h).all():
        raise ValueError("hessian must contain only finite values")
    return _stability(h)[:2]


def _stability(h):
    """classify_stability of a finite square h and its smallest eigenvalue
    (inf when h is empty), on Python floats: a path point has only n-2
    eigenvalues, too few for NumPy reductions to pay."""
    eigenvalues = np.linalg.eigvalsh(0.5 * (h + h.T)).tolist()
    tol = STABILITY_TOLERANCE * float(abs(h).max()) if h.size else 0.0
    positive = any(e > tol for e in eigenvalues)
    negative = any(e < -tol for e in eigenvalues)
    degenerate = any(abs(e) <= tol for e in eigenvalues)
    tag = "saddle" if positive and negative else "unstable" if negative else "stable"
    return tag, degenerate, min(eigenvalues, default=math.inf)


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

    Raises:
        DimensionMismatchError: the configuration or the leading angles do
            not match the chain.
        ValueError: a chain of fewer than three links, a leading angle that
            is not finite, or a branch other than +1 or -1.
    """
    check_configuration(chain, initial_config)
    lead = _check_leading(chain, leading_angles)[None]
    return float(_closed_energies(
        chain.link_lengths, chain.joint_stiffness, initial_config.reference_angles,
        lead, target.x, target.y, _check_branch(branch),
    )[0][0])


@dataclass(frozen=True)
class SweepRequest:
    """Inputs of a force-deflection sweep.

    initial_config is the actuated unloaded shape (angles equal to the
    reference angles); delta_max the largest axial displacement; steps the
    number of samples including delta_x = 0; branch_policy one of "both",
    "positive", "negative"; seeds the number of random restarts per step.
    steps and seeds must be integers (int or a numpy integer, not bool).
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
        for name in ("steps", "seeds"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be a whole number, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.steps < 2:
            raise ValueError("a sweep needs at least two steps")
        if self.seeds < 0:
            raise ValueError("seeds must be nonnegative")
        delta_max = float(self.delta_max)
        if not math.isfinite(delta_max) or delta_max <= 0.0:
            raise ValueError("delta_max must be positive and finite")
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
    restart that produced it (0: the path or the descent past a fold)."""

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
        result: a SweepResult, or a sequence of (delta_x, fx) pairs with
            delta_x strictly increasing and every value finite.
        drop_ratio: fraction of the reference stiffness that counts as
            collapsed.

    Returns:
        List of (delta_x, stiffness/reference) markers, possibly empty.

    Raises:
        ValueError: pairs whose delta_x does not strictly increase or that
            hold a value that is not finite.
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
        if not (np.isfinite(pairs).all() and (np.diff(deltas) > 0.0).all()):
            raise ValueError("delta_x must increase strictly and every value be finite")
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


def _closed_energies(lengths, stiffness, reference, lead, tx, ty, branch):
    """Spring energies and angles (m, n) of the _close_chains closures of a
    stack of starts lead (m, n-2); infeasible rows have energy +inf."""
    full, feasible = _close_chains(lengths, lead, tx, ty, branch)
    stretch = full - reference
    total = (stiffness * stretch * stretch).cumsum(axis=1)[:, -1]
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


@functools.lru_cache(maxsize=None)
def _bordered_index(n):
    """Where the _bordered matrix reads each entry from [work, J[0], J[1], 0]."""
    index = np.full((n + 2, n + 2), 3 * n)
    index[:n, :n] = _suffix_index(n)
    index[n:, :n] = np.arange(n, 3 * n).reshape(2, n)
    index[:n, n:] = index[n:, :n].T
    return index


def _bordered(stiffness, jac, force):
    """The KKT matrix [[H, J^T], [J, 0]] of the equilibrium equations, H the
    _curvature, in one gather: a path step builds many small ones."""
    n = jac.shape[1]
    work = force[1] * jac[0] - force[0] * jac[1]
    kkt = np.concatenate((work, jac[0], jac[1], (0.0,)))[_bordered_index(n)]
    kkt.reshape(-1)[: n * (n + 3) : n + 3] += stiffness
    return kkt


def _tangent_basis(jac):
    """J_t^-1, by its adjugate, and -J_t^-1 J_l, the last two rows of
    Z = [I; -J_t^-1 J_l], which spans the tangent space of the end-point
    constraint (J_t: the Jacobian columns of the last two joints), of one
    Jacobian (2, n) or a stack."""
    block = jac[..., -2:]
    det = block[..., 0, 0] * block[..., 1, 1] - block[..., 0, 1] * block[..., 1, 0]
    adjugate = block[..., ::-1, ::-1].swapaxes(-1, -2) * np.array([[1.0, -1.0], [-1.0, 1.0]])
    inverse = adjugate / det[..., None, None]
    return inverse, -inverse @ jac[..., :-2]


def _reduced_hessian(stiffness, jac, force, trailing):
    """Z^T H Z, H the _curvature at the force, Z's last two rows `trailing`."""
    m = jac.shape[-1] - 2
    curvature = _curvature(stiffness, jac, force)
    projected = curvature[..., :m] + curvature[..., m:] @ trailing  # H Z
    return projected[..., :m, :] + trailing.swapaxes(-1, -2) @ projected[..., m:, :]


def _derivatives(stiffness, reference, full, jac):
    """Force, reduced gradient and reduced Hessian at closed configurations:
    full (n,) with its Jacobian jac (2, n), or a stack (m, n) and (m, 2, n).

    The force is the multiplier F = -J_t^-T tau_t with tau = K (q - q0), the
    gradient Z^T tau and the Hessian the _reduced_hessian at F.

    Returns (force, gradient, hessian, tau).
    """
    tau = stiffness * (full - reference)
    inverse, trailing = _tangent_basis(jac)
    force = -(inverse.swapaxes(-1, -2) @ tau[..., -2:, None])[..., 0]
    m = full.shape[-1] - 2
    gradient = tau[..., :m] + (trailing.swapaxes(-1, -2) @ tau[..., m:, None])[..., 0]
    return force, gradient, _reduced_hessian(stiffness, jac, force, trailing), tau


@dataclass(frozen=True)
class _Solve:
    """A closed configuration with its energy, Jacobian, force, torque
    residual J^T F + K (q - q0), and the _stability of its reduced Hessian
    at that force, set where the solve is built: the tag, the degenerate
    flag and the margin (the smallest eigenvalue; inf for an empty Hessian).
    A point that Newton converged (_settled) reports the corrector's
    multiplier (zero at a sweep's unloaded start), one that a descent
    reached (_minimize_stack) the chart force -J_t^-T tau_t."""

    energy: float
    full: np.ndarray
    jac: np.ndarray
    force: np.ndarray
    residual: np.ndarray
    stability: str
    degenerate: bool
    margin: float

    def point(self, delta, reference, pre_displacement):
        """The EquilibriumPoint at axial deflection delta."""
        # + 0.0 turns the -0.0 of an unloaded point into 0.0
        fx, fy = float(self.force[0]) + 0.0, float(self.force[1]) + 0.0
        return EquilibriumPoint(
            configuration=Configuration(self.full, reference),
            deflection=DeflectionState(delta, 0.0, pre_displacement),
            force=PlanarForce(fx, fy),
            strain_energy=self.energy,
            potential_energy=self.energy - fx * delta,
            stability=self.stability,
            residual_norm=float(np.linalg.norm(self.residual)),
        )


def _minimize_stack(chain, reference, lead, tx, branch):
    """Modified-Newton descents of the reduced energy from a stack of starts.

    lead is (m, n-2), tx and branch (m,); each row takes the steps it would
    take alone, to rounding (stacked matrix products round differently from
    one row's), and leaves the stack once it converges or fails. Steps use
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
    closure = functools.partial(_closed_energies, lengths, stiffness, reference)
    scale = float(np.max(stiffness))
    alphas = 0.5 ** np.arange(1 + int(math.log2(1.0 / MIN_STEP)))  # 1, 1/2, ... >= MIN_STEP
    # four halvings per closure call: one per call took 22-26% more CPU per restart-sweep op
    blocks = alphas[:4, None], alphas[4:, None]
    results, rows = [None] * len(lead), np.arange(len(lead))
    energy, full = closure(lead, tx, 0.0, branch)
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
            results[rows[i]] = _Solve(float(energy[i]), full[i], jac[i], force[i],
                                      jac[i].T @ force[i] + tau[i], *_stability(hessian[i]))
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
                trial.reshape(-1, lead.shape[1]), tx[pending].repeat(block.size), 0.0,
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


def _settled(chain, reference, full, jac, force, residual):
    """The _Solve of an equilibrium that Newton converged, from its angles,
    Jacobian, force and torque residual, with the reduced Hessian taken at
    that force: the corrector's multiplier for a path point and a
    three-link point, zero at the unloaded start of a sweep."""
    stiffness = chain.joint_stiffness
    stretch = full - reference
    energy = 0.5 * float(stiffness @ (stretch * stretch))
    hessian = _reduced_hessian(stiffness, jac, force, _tangent_basis(jac)[1])
    return _Solve(energy, full, jac, force, residual, *_stability(hessian))


def _correct(chain, reference, full, force, tx):
    """Newton's method on r(q, F) = [J^T F + K (q - q0); p(q) - (tx, 0)].

    Its Jacobian is the _bordered matrix, and angles change additively, so no
    closure wraps them. In |r| the end-point miss is weighed by max k / sum L
    to count as a torque; the steps do not depend on that weight. Each solve
    also gives the _tangent. Iterates until |r| no longer halves or reaches
    rounding (TANGENT_RESIDUAL); returns the last iterate as (angles, their
    Jacobian, force, torque residual J^T F + K (q - q0) there, the last
    solve's tangent) if |r| then lies below GRADIENT_TOLERANCE times the
    largest stiffness, else Nones.
    """
    stiffness = chain.joint_stiffness
    scale = float(stiffness.max())
    weight = scale / chain.total_length
    n = full.size
    rhs = np.zeros((n + 2, 2))
    rhs[n, 1] = 1.0
    torque, miss = rhs[:n, 0], rhs[n:, 0]  # views: r, the solve's first column
    previous = math.inf
    for _ in range(NEWTON_ITERATIONS):
        jac = _jacobian_raw(chain.link_lengths, full)
        torque[:] = jac.T @ force + stiffness * (full - reference)
        miss_x, miss_y = float(jac[1, 0]) - tx, -float(jac[0, 0])  # J[:, 0] is (-y, x)
        miss[:] = miss_x, miss_y
        norm = math.sqrt(torque @ torque + weight * weight * (miss_x * miss_x + miss_y * miss_y))
        settled = norm <= ROUNDING * scale and previous <= TANGENT_RESIDUAL * scale
        if settled or not norm < 0.5 * previous:
            converged = norm <= GRADIENT_TOLERANCE * scale
            return (full, jac, force, torque.copy(), step[:, 1]) if converged else (None,) * 5
        previous = norm
        try:
            step = np.linalg.solve(_bordered(stiffness, jac, force), rhs)
        except np.linalg.LinAlgError:
            return (None,) * 5
        full, force = full - step[:n, 0], force - step[n:, 0]
    return (None,) * 5


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

    _correct lands the prediction h t + h^2 bend / 2, h = tx - tx_from, and
    its last iterate (angles, Jacobian, multiplier, torque residual) gives
    the solve through _settled: no chart force is solved for. Returns
    that tuple at tx, the next start, if its solve is stable
    (positive margin), off the closure boundary and on an elbow
    sign(sin q_n) in `branches`; else retries as two half-steps, `halvings`
    levels deep, then gives None, e.g. past a fold in delta_x.
    """
    solve, tx_from, tangent, bend = start
    h, n = tx - tx_from, solve.full.size
    try:
        tangent = _tangent(chain, solve) if tangent is None else tangent
    except np.linalg.LinAlgError:
        return None
    step = h * tangent + 0.5 * h * h * bend
    full, jac, force, residual, ahead = _correct(
        chain, reference, solve.full + step[:n], solve.force + step[n:], tx)
    if full is not None and abs(math.sin(full[-1])) > SINGULAR_SINE and _branch(full) in branches:
        point = _settled(chain, reference, full, jac, force, residual)
        if point.margin > 0.0:
            return point, tx, ahead, (ahead - tangent) / h
    if not halvings:
        return None
    half = _path_step(chain, reference, (solve, tx_from, tangent, bend), 0.5 * (tx_from + tx),
                      branches, halvings - 1)
    return half and _path_step(chain, reference, half, tx, branches, halvings - 1)


def _branch(full):
    """The elbow branch of a configuration: the sign of sin q_n."""
    return 1 if math.sin(full[-1]) > 0.0 else -1


def _snap_to_axis(chain, config, branches):
    """Project the unloaded shape onto the x axis.

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
            f"unloaded end-point y = {point.y:.6g} is too far off the x axis "
            "to snap"
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
            "could not reproduce the unloaded shape on the x axis with the "
            "allowed elbow branches"
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
    until a step leaves the path: that step runs the minimization, as its
    restart 0, with its own and all waiting restarts in one stacked descent
    of up to STACK_ROWS rows (_minimize_stack), row by row the same as one
    at a time to rounding; `seeds` costs a few stacked descents. Solves that
    slide onto the closure boundary are not equilibria and count as neither.
    A point's force is the constraint multiplier: the corrector's on a path
    point, the chart's on one a descent reached. Its stability is set when
    it is solved, from the analytic reduced Hessian at that force. Strain
    energy is checked for monotone growth and any violation is noted on the
    branch log. A step whose end-point lies out of the chain's reach
    (NO_CLOSURE), or where no start converges to an equilibrium
    (NO_EQUILIBRIUM), truncates the sweep.
    """
    if not 0.0 < drop_ratio < 1.0:
        raise ValueError("drop_ratio must lie strictly between 0 and 1")
    chain = request.chain
    reference, x0, branch = _snap_to_axis(chain, request.initial_config, request.branches)
    pre_displacement = chain.total_length - x0
    deltas = np.linspace(0.0, request.delta_max, request.steps)
    offsets = _restart_offsets(seed, request.steps, request.seeds, chain.n - 2)
    restarts = range(1, request.seeds + 1)

    # restarts wait in `queue`; `found` maps (step, elbow, restart) to the
    # equilibrium a restart reached, restart 0 being the descent past a fold
    queue, found = [], {}

    def run_queue():
        for i in range(0, len(queue), STACK_ROWS):
            keys, *stack = zip(*queue[i : i + STACK_ROWS])
            solves = _minimize_stack(chain, reference, *map(np.array, stack))
            found.update((key, s) for key, s in zip(keys, solves) if s is not None)
        queue.clear()

    def candidates(k, elbow):
        """Step k's restarts as (solve, restart), those on `elbow` first."""
        elbows = [elbow] + [b for b in request.branches if b != elbow]
        return [(found[k, b, r], r) for b in elbows for r in restarts if (k, b, r) in found]

    # pass 1: the path; per step (delta, previous elbow, the chosen (solve, restart))
    steps, truncation = [], None
    previous, lead = None, reference[:-2]  # the last point, as _path_step starts
    for k, delta in enumerate(deltas):
        tx = x0 - float(delta)
        if previous is None:
            # the unloaded start, the relaxed shape: torque-free at F = 0
            start = None
            if abs(math.sin(reference[-1])) > SINGULAR_SINE:
                jac = _jacobian_raw(chain.link_lengths, reference)
                solve = _settled(chain, reference, reference, jac, np.zeros(2), np.zeros(chain.n))
                start = solve, tx, None, 0.0
        else:
            start = _path_step(chain, reference, previous, tx, request.branches)
            if start is None:
                # past a fold: where the descent leads, restart 0 of the queue
                queue.append(((k, branch, 0), lead, tx, branch))
        queue += [((k, other, r), lead + offset, tx, other)
                  for other in request.branches for r, offset in zip(restarts, offsets[k])]
        chosen = start and (start[0], 0)
        if start is None:
            run_queue()
            chosen = ((found[k, branch, 0], 0) if (k, branch, 0) in found
                      else min(candidates(k, branch), key=lambda c: c[0].energy, default=None))
            if chosen is None:
                # no shape of the chain reaches closer to its base than this
                inner = 2.0 * float(np.max(chain.link_lengths)) - chain.total_length
                reason = NO_EQUILIBRIUM if abs(tx) >= inner else NO_CLOSURE
                truncation = SweepTruncation(delta_x=float(delta), reason=reason)
                break
        steps.append((float(delta), branch, chosen))
        previous = start or (chosen[0], tx, None, 0.0)
        lead, branch = chosen[0].full[:-2], _branch(chosen[0].full)
    run_queue()

    # pass 2: advise and record; recording inside pass 1 took 4-5% more CPU per table-sweep op
    points, log, advisories = [], [], []
    for k, (delta, elbow, (solve, restart)) in enumerate(steps):
        branch = _branch(solve.full)
        for other, _ in candidates(k, elbow):
            gap = float(np.max(np.abs(other.full[:-2] - solve.full[:-2])))
            duplicate = _branch(other.full) == branch and gap <= 1e-3
            if other.energy < solve.energy - 1e-9 and not duplicate:
                advisories.append(SweepAdvisory(
                    delta_x=delta, primary_energy=solve.energy,
                    alternative_energy=other.energy, angle_gap=gap,
                ))
                break

        notes = [] if restart == 0 else ["no warm equilibrium; continued from a restart"]
        if solve.degenerate:
            notes.append("degenerate stability")
        last = points[-1].strain_energy if points else solve.energy
        drop = last - solve.energy
        if drop > 1e-9 * max(1.0, abs(last)):
            notes.append(f"strain energy decreased by {drop:.3g}")
        points.append(solve.point(delta, reference, pre_displacement))
        log.append(SweepStepRecord(delta, branch, restart, "; ".join(notes)))

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


def _chart(lengths, stiffness, reference, phi, tx, branch, anchor):
    """The first-joint chart at angles phi (m,) on elbows branch (m,): the
    closures, with q2 moved by a multiple of 2 pi to within pi of anchor
    (m,), their chart forces and reduced gradients g; NaN g and zero force
    where a row does not close or lies on the closure boundary (|sin q3| <=
    SINGULAR_SINE)."""
    full, feasible = _close_chains(lengths, phi[:, None], tx, 0.0, branch)
    full[:, 1] += math.tau * np.rint((anchor - full[:, 1]) / math.tau)
    ok = feasible & (np.abs(np.sin(full[:, 2])) > SINGULAR_SINE)
    force, gradient = np.zeros((phi.size, 2)), np.full(phi.size, np.nan)
    closed = full[ok]
    force[ok], g, _, _ = _derivatives(stiffness, reference, closed, _jacobian_raw(lengths, closed))
    gradient[ok] = g[:, 0]
    return full, force, gradient


def three_link_equilibria(
    chain: ChainModel, initial_config: Configuration, delta: float
) -> list[EquilibriumPoint]:
    """All static equilibria of a three-link chain at one axial deflection.

    With the end-point pinned, the first-joint angle parameterizes each
    elbow branch over the feasible arcs. One grid scan of every arc on both
    elbows marks the cells next to a turn of an elbow's strain energy, the
    cells at the ends of each arc and the cells where q2 wraps by 2 pi. All
    marked cells are rescanned together, CHART_SECTIONS sub-cells at a
    time, until each bracket is below CHART_BRACKET. q2 is held 2
    pi-continuous from a cell's left end, and from its right end in a second
    rescan of a wrap cell, so the energy has no jump in a scan; a bracket
    narrows to its sub-cell nearest that end over which the reduced
    gradient changes sign. The
    bordered Newton (_correct) starts from each bracket's midpoint, at its
    chart force, and a point is kept exactly when it converges inside the
    bracket's cell, on its elbow, with q2 within [-pi, pi] and off the
    closure boundary; it reports the corrector's multiplier and residual,
    and its label comes from the reduced Hessian at that force. Minima
    are stable, maxima unstable; kinks of the closure boundary are not
    equilibria and fail that test. Points are returned sorted by strain
    energy. A relaxed shape whose tip is over 1e-9 of the total length off
    the axis, e.g. one tabulated to four decimals, is first snapped onto it
    as a sweep's start is (_snap_to_axis, either elbow); the snapped shape
    is then the springs' reference.

    Raises:
        ValueError: the chain has other than three links, delta is negative
            or not finite, the initial angles are not the reference angles,
            or the tip lies too far off the axis to snap.
        UnreachableTargetError: no first-joint angle reaches the deflected
            end-point.
    """
    check_configuration(chain, initial_config)
    if chain.n != 3:
        raise ValueError(f"three_link_equilibria needs a three-link chain, got {chain.n} links")
    delta = float(delta)
    if not math.isfinite(delta) or delta < 0.0:
        raise ValueError("delta must be finite and nonnegative")
    reference = initial_config.angles
    if not np.allclose(reference, initial_config.reference_angles, atol=1e-9):
        raise ValueError(
            "equilibria are enumerated from the relaxed shape: initial "
            "angles must equal the reference angles"
        )
    start = forward_kinematics(chain, reference)
    total = chain.total_length
    if abs(start.y) > 1e-9 * total:
        reference = _snap_to_axis(chain, initial_config, (1, -1))[0]
        start = forward_kinematics(chain, reference)

    lengths, stiffness = chain.link_lengths, chain.joint_stiffness
    tx = start.x - delta
    arcs = _feasible_arcs(lengths, tx, 0.0)
    if not arcs:
        raise UnreachableTargetError(
            f"no configuration reaches the deflected end-point x = {tx:.6g}"
        )

    found = []
    for lo, hi in arcs:
        if hi - lo < 1e-10:
            # a single closure, kept when torque-free (the unloaded straight
            # chain); it has no free coordinate, so its reduced Hessian is empty
            for branch in (1, -1):
                energy, full = _closed_energies(lengths, stiffness, reference,
                                                np.array([[0.5 * (lo + hi)]]), tx, 0.0, branch)
                energy, full = float(energy[0]), full[0]
                tau = stiffness * (full - reference)
                if energy < math.inf and np.max(np.abs(tau)) <= 1e-9 * np.max(stiffness):
                    found.append(_Solve(energy, full, _jacobian_raw(lengths, full), np.zeros(2),
                                        tau, *_stability(np.zeros((0, 0)))))

    # the grid: a row of closures per elbow and arc, all from one call
    arcs = np.array([arc for arc in arcs if arc[1] - arc[0] >= 1e-10]).reshape(-1, 2)
    phis = np.tile(np.linspace(arcs[:, 0], arcs[:, 1], THREE_LINK_GRID + 1, axis=1), (2, 1))
    elbows = np.repeat([1, -1], len(arcs))
    energy, full = _closed_energies(lengths, stiffness, reference, phis.reshape(-1, 1), tx, 0.0,
                                    elbows.repeat(THREE_LINK_GRID + 1))
    energy, full = energy.reshape(phis.shape), full.reshape(*phis.shape, 3)
    # marks: the cells next to a turn of the grid energy, at the ends of each
    # arc, and where q2 wraps by 2 pi
    rise = energy[:, 1:] > energy[:, :-1]
    turns = np.pad(rise[:, 1:] != rise[:, :-1], ((0, 0), (1, 1)), constant_values=True)
    wraps = np.abs(full[:, 1:, 1] - full[:, :-1, 1]) > math.pi
    marked, wrapped = np.nonzero(turns[:, 1:] | turns[:, :-1] | wraps), np.nonzero(wraps)
    row, cell = (np.concatenate(v) for v in zip(marked, wrapped))
    cell_lo, cell_hi, elbow = phis[row, cell], phis[row, cell + 1], elbows[row]
    # a bracket runs from the cell end that q2 is held 2 pi-continuous from:
    # the left end of each marked cell, and again the right end of each wrap
    # cell. An end on the closure boundary, where g is infinite, is read
    # BOUNDARY_READ_IN of the cell inside it
    right = np.arange(row.size) >= marked[0].size
    anchor = full[row, cell + right, 1]
    boundary = ~np.isfinite(energy) | (np.abs(np.sin(full[..., 2])) <= SINGULAR_SINE)
    read_in = BOUNDARY_READ_IN * (cell_hi - cell_lo)
    lo = cell_lo + read_in * boundary[row, cell]
    hi = cell_hi - read_in * boundary[row, cell + 1]
    near, far, index = np.where(right, hi, lo), np.where(right, lo, hi), np.arange(row.size)

    # the rescan: each bracket narrows to its sub-cell nearest the anchor over
    # which g changes sign, until all are below CHART_BRACKET. One bracket
    # per scan of a cell, so that a flat energy, whose g changes sign with
    # every rounding, cannot multiply them
    sections = np.linspace(0.0, 1.0, CHART_SECTIONS + 1)
    while np.any(np.abs(far - near) > CHART_BRACKET):
        phi = near[:, None] + (far - near)[:, None] * sections
        g = _chart(lengths, stiffness, reference, phi.ravel(), tx,
                   elbow[index].repeat(sections.size), anchor[index].repeat(sections.size))[2]
        g = g.reshape(phi.shape)
        change = g[:, :-1] * g[:, 1:] <= 0.0
        bracket = np.flatnonzero(change.any(axis=1))
        k = change[bracket].argmax(axis=1)
        near, far, index = phi[bracket, k], phi[bracket, k + 1], index[bracket]

    # keep: _correct, the bordered Newton from each bracket's midpoint,
    # converged inside its cell, on its elbow, with q2 within [-pi, pi] and
    # off the boundary
    starts = _chart(lengths, stiffness, reference, 0.5 * (near + far), tx, elbow[index],
                    anchor[index])
    for j, start_full, start_force in zip(index.tolist(), *starts[:2]):
        q, jac, force, residual, _ = _correct(chain, reference, start_full, start_force, tx)
        if (q is not None and cell_lo[j] <= q[0] <= cell_hi[j] and abs(q[1]) <= math.pi
                and elbow[j] * math.sin(q[2]) > SINGULAR_SINE):
            found.append(_settled(chain, reference, q, jac, force, residual))

    found.sort(key=lambda solve: solve.energy)
    unique = []
    for solve in found:
        if all(np.max(np.abs(solve.full - other.full)) > DEDUPE_TOLERANCE for other in unique):
            unique.append(solve)
    pre_displacement = total - start.x
    return [solve.point(delta, reference, pre_displacement) for solve in unique]
