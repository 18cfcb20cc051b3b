"""Critical forces and post-buckling modes of the straight configuration.

Linearizing the equilibrium equations about the straight shape under a
purely axial load couples the joint angles to the transverse reaction
through reach sums of the link lengths. build_system assembles that as an
(n+1) x (n+1) generalized eigenproblem whose nonzero eigenvalues are
reciprocal critical forces. buckling_modes solves the same problem in
heading coordinates (the cumulative joint angles), where it reduces to one
symmetric (n-1) x (n-1) matrix: its eigenvalues are the critical forces,
real and sorted, and its eigenvectors give the post-buckling mode
directions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import ChainModel, Configuration, DeflectionState, _finite_scalar
from .errors import DegenerateModeError, DegenerateModelError, DimensionMismatchError
from .statics import EquilibriumPoint, PlanarForce

# Entries smaller than this fraction of the vector norm have no usable sign.
SIGN_TOLERANCE = 1e-9
# Largest mode scaling for which the linearization is trusted.
SNAPSHOT_MU_LIMIT = 0.1


@dataclass(frozen=True)
class LinearizedSystem:
    """Matrices of the linearized straight-shape equilibrium.

    s1 is the symmetric n x n matrix of negated reach sums, s0 the n-vector
    of reach sums, and (a, b) the assembled (n+1) x (n+1) pencil whose
    eigenvalues are -1/F_x.
    """

    s1: np.ndarray
    s0: np.ndarray
    a: np.ndarray
    b: np.ndarray


@dataclass(frozen=True)
class BucklingMode:
    """One eigen solution of the linearized system.

    mode_vector has unit norm and n+1 entries: the first n span the joint
    angles, entry n is the transverse-force direction. The vector is
    canonicalized so its first nonzero angle entry is negative; the mirror
    configuration is obtained with a negative scaling factor.
    """

    eigenvalue: float
    mode_vector: np.ndarray
    axial_force: float
    energy_factor: float
    shape_label: str
    is_primary: bool


def build_reach_matrices(chain: ChainModel) -> tuple[np.ndarray, np.ndarray]:
    """Reach-sum matrices of the linearization.

    Returns:
        (s1, s0): s1[i, m] = -sum of link lengths from index max(i, m) on;
        s0[i] = sum of link lengths from index i on.
    """
    lengths = chain.link_lengths
    suffix = np.cumsum(lengths[::-1])[::-1]
    idx = np.arange(chain.n)
    s1 = -suffix[np.maximum(idx[:, None], idx[None, :])]
    return s1, suffix.copy()


def build_system(chain: ChainModel) -> LinearizedSystem:
    """Assemble the (n+1) x (n+1) eigen pencil (a, b) for the chain.

    Raises:
        DegenerateModelError: b is singular, e.g. when two or more joints
            have zero stiffness.
    """
    n = chain.n
    s1, s0 = build_reach_matrices(chain)
    a = np.zeros((n + 1, n + 1))
    a[:n, :n] = s1
    b = np.zeros((n + 1, n + 1))
    b[:n, :n] = np.diag(chain.joint_stiffness)
    b[:n, n] = s0
    b[n, :n] = s0
    svals = np.linalg.svd(b, compute_uv=False)
    if svals[-1] <= 1e-12 * svals[0]:
        raise DegenerateModelError(
            "linearized system matrix is singular; the stiffness pattern "
            "does not constrain every joint"
        )
    s1.setflags(write=False)
    s0.setflags(write=False)
    a.setflags(write=False)
    b.setflags(write=False)
    return LinearizedSystem(s1, s0, a, b)


def _energy_factors(chain: ChainModel, angles: np.ndarray) -> np.ndarray:
    """Energy factor of each column of an n x m array of angle directions."""
    numerator = chain.joint_stiffness @ (angles * angles)
    partial = np.cumsum(angles, axis=0)
    denominator = chain.link_lengths @ (partial * partial)
    if np.any(denominator <= 0.0):
        raise DegenerateModeError(
            "mode direction produces no axial deflection; energy factor "
            "is undefined"
        )
    return numerator / denominator


def _mode_vector(mode: BucklingMode, chain: ChainModel) -> np.ndarray:
    """The mode's vector, checked to hold the n + 1 entries of a mode of chain."""
    vector = np.asarray(mode.mode_vector, dtype=float)
    if vector.shape != (chain.n + 1,):
        raise DimensionMismatchError(
            f"mode vector has shape {vector.shape}, a mode of {chain.n} links "
            f"has ({chain.n + 1},)"
        )
    return vector


def energy_factor(mode: BucklingMode, chain: ChainModel) -> float:
    """Slope of strain energy versus axial deflection for the mode.

    Computed from the angle part of the mode vector; invariant under any
    rescaling of the vector. Equals the mode's equilibrium axial force in
    the linearized model.

    Raises:
        DimensionMismatchError: the mode is not one of a chain of chain.n
            links.
        DegenerateModeError: the mode's angles give no axial deflection.
    """
    angles = _mode_vector(mode, chain)[: chain.n]
    return float(_energy_factors(chain, angles[:, None])[0])


def _shape_labels(angles: np.ndarray) -> list[str]:
    """Shape label of each column of an n x m array of angle directions."""
    norms = np.linalg.norm(angles, axis=0)
    ambiguous = (norms == 0.0) | np.any(
        np.abs(angles) <= SIGN_TOLERANCE * norms, axis=0
    )
    signs = np.sign(angles)
    changes = np.sum(signs[:-1] != signs[1:], axis=0)
    last = angles.shape[0] - 1
    return [
        "unclassified" if bad else "U" if s == 1 else "Z" if s == last else f"ZU({s})"
        for bad, s in zip(ambiguous.tolist(), changes.tolist())
    ]


def classify_shape(angle_direction) -> str:
    """Shape label from the sign pattern of an angle direction.

    Counts sign changes s across consecutive entries: one change is the
    "U" family, n-1 changes the fully alternating "Z" family, anything in
    between "ZU(s)". Entries indistinguishable from zero make the pattern
    ambiguous and yield "unclassified".

    Raises:
        ValueError: an entry is not finite.
    """
    direction = np.asarray(angle_direction, dtype=float)
    if not np.isfinite(direction).all():
        raise ValueError("angle_direction must contain only finite values")
    return _shape_labels(direction[:, None])[0]


def _reduced_system(chain: ChainModel):
    """Buckling matrix in scaled headings psi = sqrt(L) * cumsum(theta).

    Returns (reduced, a, root, v, beta): a = L^-1/2 T L^-1/2 with T = D^T K D
    tridiagonal, root = sqrt(L), and the reflector H = I - beta v v^T that
    maps root onto the first axis. reduced, the trailing block of H a H, is a
    on the complement of root; its eigenvalues are the critical forces.
    """
    k = chain.joint_stiffness
    root = np.sqrt(chain.link_lengths)
    a = np.diag((k + np.append(k[1:], 0.0)) / chain.link_lengths)
    i = np.arange(chain.n - 1)
    a[i, i + 1] = a[i + 1, i] = -k[1:] / (root[:-1] * root[1:])
    v = root.copy()
    v[0] += np.linalg.norm(root)
    beta = 2.0 / float(v @ v)
    p = beta * (a @ v)
    q = p - 0.5 * beta * float(v @ p) * v
    return (a - np.outer(v, q) - np.outer(q, v))[1:, 1:], a, root, v, beta


def _checked_forces(forces: np.ndarray) -> np.ndarray:
    """Ascending forces, rejecting a spectrum with a zero force."""
    if forces[0] <= 1e-12 * forces[-1]:
        raise DegenerateModelError("reduced buckling matrix is singular; two or "
                                   "more passive joints leave a mechanism")
    return forces


def buckling_modes(chain: ChainModel) -> list[BucklingMode]:
    """All post-buckling modes of the straight configuration.

    Solves the pencil of build_system as one symmetric eigenproblem. In
    headings phi = cumsum(theta) the joint energy is phi^T T phi with T
    tridiagonal, the axial shortening is sum(L phi^2) and the end stays on
    the axis where L^T phi = 0. Scaling by sqrt(L) and reflecting sqrt(L)
    onto the first axis leaves a symmetric (n-1) x (n-1) matrix whose eigh
    gives the n-1 critical forces, real and ascending; the transverse entry
    of each mode comes from the bordered row. Modes are returned by
    ascending force (descending |eigenvalue|); the first is the primary,
    stable one.

    Raises:
        DegenerateModelError: a reduced force is zero, which happens when
            two or more joints have zero stiffness.
    """
    n = chain.n
    reduced, a, root, v, beta = _reduced_system(chain)
    forces, y = np.linalg.eigh(reduced)
    forces = _checked_forces(forces).tolist()
    psi = np.vstack([np.zeros(n - 1), y]) - beta * np.outer(v, v[1:] @ y)
    angles = np.diff(psi / root[:, None], axis=0, prepend=0.0)
    transverse = -((a @ root) @ psi) / chain.total_length
    vectors = np.vstack([angles, transverse])
    vectors /= np.linalg.norm(vectors, axis=0)
    lead = np.argmax(np.abs(vectors[:n]) > SIGN_TOLERANCE, axis=0)
    vectors *= np.where(vectors[lead, np.arange(n - 1)] > SIGN_TOLERANCE, -1.0, 1.0)
    factors = _energy_factors(chain, vectors[:n]).tolist()
    labels = _shape_labels(vectors[:n])
    vectors = np.ascontiguousarray(vectors.T)
    vectors.setflags(write=False)
    return [
        BucklingMode(-1.0 / f, vectors[r], f, factors[r], labels[r], r == 0)
        for r, f in enumerate(forces)
    ]


def critical_force(chain: ChainModel) -> float:
    """Smallest compressive load that buckles the straight chain."""
    return float(_checked_forces(np.linalg.eigvalsh(_reduced_system(chain)[0]))[0])


def mode_equilibrium_snapshot(
    mode: BucklingMode, chain: ChainModel, mu: float
) -> EquilibriumPoint:
    """Finite post-buckling equilibrium built from a mode at scaling mu.

    Within the small-angle envelope the joint angles are mu times the mode
    direction, the axial force stays at the mode's critical value, and the
    transverse force scales with mu. Deflection and strain energy are
    quadratic in mu, with the energy factor as their ratio.

    Raises:
        ValueError: mu is not finite or |mu| exceeds the trusted envelope
            of 0.1 rad.
        DimensionMismatchError: the mode is not one of a chain of chain.n
            links.
    """
    mu = _finite_scalar(mu, "mu")
    if abs(mu) > SNAPSHOT_MU_LIMIT:
        raise ValueError(
            f"|mu| = {abs(mu):.3g} outside the small-angle envelope "
            f"{SNAPSHOT_MU_LIMIT}"
        )
    n = chain.n
    vec = _mode_vector(mode, chain)
    angles = mu * vec[:n]
    config = Configuration(angles, np.zeros(n))
    force = PlanarForce(mode.axial_force, mu * vec[n])

    partial = np.cumsum(vec[:n])
    delta_x = 0.5 * mu * mu * float(np.dot(chain.link_lengths, partial * partial))
    energy = 0.5 * mu * mu * float(np.dot(chain.joint_stiffness, vec[:n] * vec[:n]))

    s1, s0 = build_reach_matrices(chain)
    residual = (
        chain.joint_stiffness * angles
        + force.fx * (s1 @ angles)
        + force.fy * s0
    )
    return EquilibriumPoint(
        configuration=config,
        deflection=DeflectionState(delta_x=delta_x, delta_y=0.0,
                                   pre_displacement=0.0),
        force=force,
        strain_energy=energy,
        potential_energy=energy - force.fx * delta_x,
        stability="stable" if mode.is_primary else "unstable",
        residual_norm=float(np.linalg.norm(residual)),
    )
