"""Closed-form curve of the symmetric two-link mechanism.

Two equal links joined by rotational springs of equal stiffness, loaded
axially: force, deflection and potential energy follow from the
configuration angle in closed form, and the straight mechanism buckles at
2k/L. The module needs the standard library only, so a caller that wants
just this curve does not load numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NotApplicableError, SingularSampleError


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

    For each configuration angle q (q_samples: one angle or a sequence of
    them) the axial deflection, the equilibrium force, and the potential
    energy at that force are returned.

    Returns:
        List of (delta, force, potential) triples, one per sample.

    Raises:
        ValueError: a sample is not finite.
        SingularSampleError: sin(alpha + q) vanishes at some sample, where
            the force expression is undefined.
    """
    alpha = mech.half_angle_init
    k = mech.spring_k
    length = mech.link_length
    try:
        samples = list(q_samples)
    except TypeError:  # a single angle
        samples = [q_samples]
    curve = []
    for index, q in enumerate(samples):
        q = float(q)
        if not math.isfinite(q):
            raise ValueError(f"sample {index} is not finite (q = {q})")
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
