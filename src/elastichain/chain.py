"""Geometry of a planar serial chain with revolute joints.

Joint angles are relative: the heading of link j is the cumulative sum
q_1 + ... + q_j, and the chain is rooted at the origin pointing along +x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateModelError,
    DimensionMismatchError,
    UnreachableTargetError,
)


def _float_vector(values, name: str) -> np.ndarray:
    """A validated copy of `values`, so that the caller's array stays its own."""
    arr = np.atleast_1d(np.array(values, dtype=float))
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a one-dimensional sequence")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must contain only finite values")
    return arr


def _finite_scalar(value, name: str) -> float:
    out = float(value)
    if not math.isfinite(out):
        raise ValueError(f"{name} must be finite")
    return out


@dataclass(frozen=True)
class ChainModel:
    """Link lengths and joint stiffness coefficients of an n-link chain.

    Args:
        link_lengths: n positive link lengths, proximal to distal.
        joint_stiffness: n nonnegative rotational stiffnesses (torque per
            radian); entry i belongs to the joint at the base of link i.
            A zero entry models a passive joint. At least one entry must
            be positive.
    """

    link_lengths: np.ndarray
    joint_stiffness: np.ndarray

    def __post_init__(self):
        lengths = _float_vector(self.link_lengths, "link_lengths")
        stiffness = _float_vector(self.joint_stiffness, "joint_stiffness")
        if lengths.size < 2:
            raise ValueError("a chain needs at least two links")
        if stiffness.size != lengths.size:
            raise DimensionMismatchError(
                f"{lengths.size} links but {stiffness.size} joint stiffnesses"
            )
        if np.any(lengths <= 0.0):
            raise ValueError("link lengths must be positive")
        if np.any(stiffness < 0.0):
            raise ValueError("joint stiffnesses must be nonnegative")
        if not np.any(stiffness > 0.0):
            raise DegenerateModelError(
                "all joints are passive (zero stiffness); no elastic model exists"
            )
        lengths.setflags(write=False)
        stiffness.setflags(write=False)
        object.__setattr__(self, "link_lengths", lengths)
        object.__setattr__(self, "joint_stiffness", stiffness)

    @property
    def n(self) -> int:
        return self.link_lengths.size

    @property
    def total_length(self) -> float:
        return float(self.link_lengths.sum())


@dataclass(frozen=True)
class Configuration:
    """Joint angles together with the unloaded reference the springs relax at.

    Args:
        angles: current joint angles (radians, relative).
        reference_angles: joint angles at which every spring is unloaded.
    """

    angles: np.ndarray
    reference_angles: np.ndarray

    def __post_init__(self):
        q = _float_vector(self.angles, "angles")
        q0 = _float_vector(self.reference_angles, "reference_angles")
        if q.size != q0.size:
            raise DimensionMismatchError(
                f"{q.size} angles but {q0.size} reference angles"
            )
        q.setflags(write=False)
        q0.setflags(write=False)
        object.__setattr__(self, "angles", q)
        object.__setattr__(self, "reference_angles", q0)

    @property
    def displacement(self) -> np.ndarray:
        """Spring deflections q - q0."""
        return self.angles - self.reference_angles


@dataclass(frozen=True)
class PlanarPoint:
    """A point of the working plane."""

    x: float
    y: float

    def __post_init__(self):
        object.__setattr__(self, "x", _finite_scalar(self.x, "x"))
        object.__setattr__(self, "y", _finite_scalar(self.y, "y"))


@dataclass(frozen=True)
class DeflectionState:
    """End-effector displacement bookkeeping for a constrained analysis.

    delta_x is the axial displacement measured from the unloaded end-point,
    delta_y the transverse one (held at zero by every analysis in scope), and
    pre_displacement the gap between the fully extended length and the
    unloaded end-point of a non-straight shape.
    """

    delta_x: float
    delta_y: float = 0.0
    pre_displacement: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "delta_x", _finite_scalar(self.delta_x, "delta_x"))
        object.__setattr__(self, "delta_y", _finite_scalar(self.delta_y, "delta_y"))
        object.__setattr__(
            self,
            "pre_displacement",
            _finite_scalar(self.pre_displacement, "pre_displacement"),
        )


def _check_angles(chain: ChainModel, angles, name: str = "angles") -> np.ndarray:
    arr = np.asarray(angles, dtype=float)
    if arr.shape != (chain.n,):
        raise DimensionMismatchError(
            f"{name} has shape {arr.shape}, expected ({chain.n},)"
        )
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must contain only finite values")
    return arr


def check_configuration(chain: ChainModel, config: Configuration) -> None:
    """Raise if the configuration does not match the chain's joint count."""
    if config.angles.size != chain.n:
        raise DimensionMismatchError(
            f"configuration has {config.angles.size} joints, chain has {chain.n}"
        )


def forward_kinematics(chain: ChainModel, angles) -> PlanarPoint:
    """End-point position for the given joint angles.

    Args:
        chain: chain geometry.
        angles: n relative joint angles in radians.

    Returns:
        The end-point as a PlanarPoint.
    """
    q = _check_angles(chain, angles)
    headings = np.cumsum(q)
    x = float(np.dot(chain.link_lengths, np.cos(headings)))
    y = float(np.dot(chain.link_lengths, np.sin(headings)))
    return PlanarPoint(x, y)


def jacobian(chain: ChainModel, angles) -> np.ndarray:
    """Kinematic Jacobian of the end-point with respect to the joint angles.

    Column m holds the derivative of (x, y) with respect to q_m: moving
    joint m rotates every link at or beyond it, so the entries are suffix
    sums of the link projections.

    Returns:
        2 x n array; row 0 is dx/dq, row 1 is dy/dq.
    """
    return _jacobian_raw(chain.link_lengths, _check_angles(chain, angles))


def _jacobian_raw(lengths: np.ndarray, q: np.ndarray) -> np.ndarray:
    """jacobian without validation, of one angle vector or of a stack of rows
    (shape (m, n) gives (m, 2, n)). Its first column is (-y, x) of the end-point."""
    headings = np.cumsum(q, axis=-1)
    projections = lengths * np.array([-np.sin(headings), np.cos(headings)]).swapaxes(0, -2)
    return np.cumsum(projections[..., ::-1], axis=-1)[..., ::-1]


def _check_branch(branch) -> int:
    if branch in (+1, -1):
        return int(branch)
    raise ValueError(f"branch must be +1 or -1, got {branch!r}")


def _ik_two_link_raw(
    l_a: float,
    l_b: float,
    tx: float,
    ty: float,
    ox: float,
    oy: float,
    heading: float,
    branch: int,
):
    """Two-link closure without validation. Returns (q_a, q_b) or None."""
    dx = tx - ox
    dy = ty - oy
    d2 = dx * dx + dy * dy
    d = math.sqrt(d2)
    reach = l_a + l_b
    tol = 1e-9 * reach
    if d > reach + tol or d < abs(l_a - l_b) - tol:
        return None
    c2 = (d2 - l_a * l_a - l_b * l_b) / (2.0 * l_a * l_b)
    if c2 > 1.0:
        c2 = 1.0
    elif c2 < -1.0:
        c2 = -1.0
    # 1 - c2^2 = (1 - c2)(1 + c2), each factor from the squared distance to
    # one edge of the annulus; taken from c2 itself it loses digits near the
    # inner edge when the two links are nearly equal
    gap = l_a - l_b
    s2 = branch * math.sqrt(max(0.0, (reach * reach - d2) * (d2 - gap * gap)))
    s2 /= 2.0 * l_a * l_b
    q_b = math.atan2(s2, c2)
    q_a = math.atan2(dy, dx) - math.atan2(l_b * s2, l_a + l_b * c2) - heading
    # keep the proximal angle in (-pi, pi] so spring deflections stay bounded
    q_a = math.remainder(q_a, math.tau)
    return q_a, q_b


def ik_two_link(
    l_a: float,
    l_b: float,
    target: PlanarPoint,
    origin: PlanarPoint = PlanarPoint(0.0, 0.0),
    origin_heading: float = 0.0,
    branch: int = +1,
) -> tuple[float, float]:
    """Inverse kinematics of a two-link pair.

    Chains a link of length l_a then one of length l_b from `origin`, whose
    incoming heading is `origin_heading`, so that the tip lands on `target`.
    The elbow admits two mirror solutions; `branch` (+1 or -1) picks the sign
    of the elbow sine. At the workspace boundary both branches collapse onto
    the stretched solution q_b = 0.

    Returns:
        (q_a, q_b): relative joint angles.

    Raises:
        UnreachableTargetError: target outside the annulus
            |l_a - l_b| <= d <= l_a + l_b (tolerance 1e-9 of the reach).
    """
    if l_a <= 0.0 or l_b <= 0.0:
        raise ValueError("link lengths must be positive")
    sign = _check_branch(branch)
    result = _ik_two_link_raw(
        float(l_a), float(l_b), target.x, target.y, origin.x, origin.y,
        float(origin_heading), sign,
    )
    if result is None:
        d = math.hypot(target.x - origin.x, target.y - origin.y)
        raise UnreachableTargetError(
            f"target at distance {d:.6g} outside reachable annulus "
            f"[{abs(l_a - l_b):.6g}, {l_a + l_b:.6g}]"
        )
    return result


def _close_chain_raw(lengths, lead, tx: float, ty: float, branch: int):
    """Closure over the last two links without validation.

    Args:
        lengths: sequence of n link lengths (n >= 3).
        lead: n-2 leading joint angles.
        tx, ty: target end-point.
        branch: elbow sign, +1 or -1.

    Returns:
        List of n joint angles, or None when the wrist cannot reach.
    """
    heading = 0.0
    wx = 0.0
    wy = 0.0
    m = len(lengths) - 2
    for i in range(m):
        heading += lead[i]
        wx += lengths[i] * math.cos(heading)
        wy += lengths[i] * math.sin(heading)
    tail = _ik_two_link_raw(
        lengths[m], lengths[m + 1], tx, ty, wx, wy, heading, branch
    )
    if tail is None:
        return None
    return [*lead, tail[0], tail[1]]


def close_chain(chain: ChainModel, leading_angles, target: PlanarPoint,
                branch: int = +1) -> np.ndarray:
    """Complete a configuration so the end-point lands on `target`.

    The first n-2 joint angles are taken as given; the trailing two are
    solved by the two-link closure. Useful as the reduced-space
    parameterization of the end-point constraint.

    Returns:
        Full joint-angle vector of length n.

    Raises:
        UnreachableTargetError: the wrist of link n-2 cannot reach the
            target with the last two links (an infeasible reduced-space
            candidate, not a fault).
    """
    if chain.n < 3:
        raise ValueError("chain closure needs at least three links")
    lead = np.asarray(leading_angles, dtype=float)
    if lead.shape != (chain.n - 2,):
        raise DimensionMismatchError(
            f"expected {chain.n - 2} leading angles, got shape {lead.shape}"
        )
    if not np.all(np.isfinite(lead)):
        raise ValueError("leading angles must be finite")
    sign = _check_branch(branch)
    full = _close_chain_raw(
        tuple(chain.link_lengths), lead.tolist(), target.x, target.y, sign
    )
    if full is None:
        raise UnreachableTargetError(
            "wrist of the leading sub-chain cannot reach the target with the "
            "last two links"
        )
    return np.asarray(full, dtype=float)
