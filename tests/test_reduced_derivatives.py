"""The sweep's analytic reduced derivatives against finite differences.

The Newton solver behind sweep_force_deflection takes the gradient and the
Hessian of the reduced energy from the constraint multiplier and the suffix
sums of the kinematics. Here they are compared with central differences of
the public reduced_energy, the only place such stencils are used.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from elastichain import (
    ChainModel,
    Configuration,
    classify_stability,
    close_chain,
    equilibrium_residual,
    forward_kinematics,
    jacobian,
    reduced_energy,
)
from elastichain.statics import PlanarForce
from elastichain.sweep import _bordered, _curvature, _derivatives, _settled

GRADIENT_STEP = 1e-6
HESSIAN_STEP = 1e-4


@st.composite
def closed_chains(draw):
    """A chain, spring references, a target and a feasible closure onto it.

    The elbow angle keeps |sin q_n| >= 0.3, so every stencil point stays
    inside the workspace and the closure keeps the drawn branch.
    """
    n = draw(st.integers(3, 6))
    unit = st.floats(0.5, 1.5)
    lengths = draw(st.lists(unit, min_size=n, max_size=n))
    stiffness = draw(st.lists(st.floats(0.5, 2.0), min_size=n, max_size=n))
    if draw(st.booleans()):
        stiffness[0] = 0.0
    angle = st.floats(-1.2, 1.2)
    leading = draw(st.lists(angle, min_size=n - 1, max_size=n - 1))
    branch = draw(st.sampled_from((1, -1)))
    elbow = branch * draw(st.floats(0.3, math.pi - 0.3))
    reference = np.array(draw(st.lists(angle, min_size=n, max_size=n)))
    chain = ChainModel(lengths, stiffness)
    angles = np.array(leading + [elbow])
    target = forward_kinematics(chain, angles)
    return chain, reference, angles[: n - 2], target, branch


@settings(max_examples=60, deadline=None)
@given(closed_chains())
def test_analytic_reduced_derivatives_match_differences(case):
    chain, reference, lead, target, branch = case
    config = Configuration(reference, reference)
    m = lead.size

    def energy(shift):
        return reduced_energy(chain, config, lead + shift, target, branch)

    full = close_chain(chain, lead, target, branch)
    jac = jacobian(chain, full)
    force, gradient, hessian, tau = _derivatives(chain.joint_stiffness, reference, full, jac)
    # _settled takes the reduced Hessian itself, at the force it is given
    solve = _settled(chain, reference, full, jac, force, jac.T @ force + tau)
    assert (solve.stability, solve.degenerate) == classify_stability(hessian)
    residual = solve.residual

    basis = np.eye(m)
    h = GRADIENT_STEP
    fd_gradient = np.array(
        [(energy(h * e) - energy(-h * e)) / (2.0 * h) for e in basis]
    )

    def fd_hessian(k):
        return np.array([
            [
                (energy(k * (a + b)) - energy(k * (a - b))
                 - energy(k * (b - a)) + energy(-k * (a + b))) / (4.0 * k * k)
                for b in basis
            ]
            for a in basis
        ])

    # Richardson extrapolation cancels the O(k^2) error of the stencil
    coarse, fine = fd_hessian(HESSIAN_STEP), fd_hessian(HESSIAN_STEP / 2)
    reference_hessian = (4.0 * fine - coarse) / 3.0
    scale = 1.0 + float(np.max(np.abs(reference_hessian)))
    np.testing.assert_allclose(gradient, fd_gradient, rtol=0.0, atol=1e-6 * scale)
    np.testing.assert_allclose(hessian, reference_hessian, rtol=0.0, atol=1e-5 * scale)
    np.testing.assert_allclose(hessian, hessian.T, rtol=0.0, atol=1e-12 * scale)

    # the multiplier balances the trailing joints exactly; the leading rows
    # of the torque residual are the reduced gradient
    check = equilibrium_residual(
        chain, Configuration(full, reference), PlanarForce(force[0], force[1])
    )
    np.testing.assert_allclose(residual, check, rtol=0.0, atol=1e-12 * scale)
    np.testing.assert_allclose(residual[:m], gradient, rtol=0.0, atol=1e-12 * scale)
    np.testing.assert_allclose(residual[m:], 0.0, atol=1e-12 * scale)


@settings(max_examples=30, deadline=None)
@given(closed_chains(), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
def test_bordered_matrix_is_its_blocks(case, fx, fy):
    """_bordered gathers [[H, J^T], [J, 0]] in one indexing; it must equal,
    bit for bit, the blocks set one by one with H from _curvature."""
    chain, _, lead, target, branch = case
    full = close_chain(chain, lead, target, branch)
    jac, force, n = jacobian(chain, full), np.array([fx, fy]), chain.n
    blocks = np.zeros((n + 2, n + 2))
    blocks[:n, :n] = _curvature(chain.joint_stiffness, jac, force)
    blocks[:n, n:], blocks[n:, :n] = jac.T, jac
    np.testing.assert_array_equal(_bordered(chain.joint_stiffness, jac, force), blocks)
