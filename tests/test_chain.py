import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elastichain import (
    ChainModel,
    Configuration,
    DeflectionState,
    DegenerateModelError,
    DimensionMismatchError,
    PlanarPoint,
    UnreachableTargetError,
    close_chain,
    forward_kinematics,
    ik_two_link,
    jacobian,
)
from elastichain.chain import _close_chains


class TestChainModel:
    def test_basic_properties(self):
        chain = ChainModel([2.0, 1.0, 3.0], [1.0, 0.5, 2.0])
        assert chain.n == 3
        assert chain.total_length == pytest.approx(6.0)

    def test_rejects_single_link(self):
        with pytest.raises(ValueError):
            ChainModel([1.0], [1.0])

    def test_rejects_nonpositive_length(self):
        with pytest.raises(ValueError):
            ChainModel([1.0, 0.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            ChainModel([1.0, -2.0], [1.0, 1.0])

    def test_rejects_negative_stiffness(self):
        with pytest.raises(ValueError):
            ChainModel([1.0, 1.0], [1.0, -0.1])

    def test_rejects_all_passive_joints(self):
        with pytest.raises(DegenerateModelError):
            ChainModel([1.0, 1.0], [0.0, 0.0])

    def test_rejects_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            ChainModel([1.0, 1.0, 1.0], [1.0, 1.0])

    def test_arrays_are_frozen(self):
        chain = ChainModel([1.0, 1.0], [0.0, 1.0])
        with pytest.raises(ValueError):
            chain.link_lengths[0] = 5.0


class TestConfiguration:
    def test_displacement(self):
        cfg = Configuration([0.3, -0.1], [0.1, 0.1])
        np.testing.assert_allclose(cfg.displacement, [0.2, -0.2])

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(DimensionMismatchError):
            Configuration([0.1, 0.2, 0.3], [0.0, 0.0])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Configuration([0.1, math.nan], [0.0, 0.0])


def test_deflection_state_defaults():
    d = DeflectionState(0.25)
    assert d.delta_y == 0.0
    assert d.pre_displacement == 0.0


def test_forward_kinematics_straight_chain():
    chain = ChainModel([2.0, 1.0, 3.0], [1.0, 1.0, 1.0])
    p = forward_kinematics(chain, [0.0, 0.0, 0.0])
    assert p.x == pytest.approx(6.0)
    assert p.y == pytest.approx(0.0)


def test_forward_kinematics_right_angle():
    chain = ChainModel([2.0, 1.0], [1.0, 1.0])
    p = forward_kinematics(chain, [math.pi / 2, 0.0])
    assert p.x == pytest.approx(0.0, abs=1e-12)
    assert p.y == pytest.approx(3.0)


def test_forward_kinematics_relative_angles_accumulate():
    # the second angle is measured from the first link's direction
    chain = ChainModel([1.0, 1.0], [1.0, 1.0])
    p = forward_kinematics(chain, [math.pi / 2, -math.pi / 2])
    assert p.x == pytest.approx(1.0)
    assert p.y == pytest.approx(1.0)


def test_jacobian_straight_chain():
    chain = ChainModel([1.0, 1.0, 1.0], [1.0, 1.0, 1.0])
    jac = jacobian(chain, [0.0, 0.0, 0.0])
    np.testing.assert_allclose(jac[0], [0.0, 0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(jac[1], [3.0, 2.0, 1.0])


def test_jacobian_right_angle():
    chain = ChainModel([2.0, 1.0], [1.0, 1.0])
    jac = jacobian(chain, [math.pi / 2, 0.0])
    np.testing.assert_allclose(jac, [[-3.0, -1.0], [0.0, 0.0]], atol=1e-12)


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        chain = ChainModel(rng.uniform(0.2, 3.0, n), rng.uniform(0.1, 2.0, n))
        q = rng.uniform(-2.0, 2.0, n)
        jac = jacobian(chain, q)
        step = 1e-7
        for m in range(n):
            e = np.zeros(n)
            e[m] = step
            plus = forward_kinematics(chain, q + e)
            minus = forward_kinematics(chain, q - e)
            assert jac[0, m] == pytest.approx((plus.x - minus.x) / (2 * step), abs=1e-6)
            assert jac[1, m] == pytest.approx((plus.y - minus.y) / (2 * step), abs=1e-6)


class TestIkTwoLink:
    def test_unit_links_to_corner(self):
        """Both elbow branches of the classic (1, 1) reach to (1, 1)."""
        up = ik_two_link(1.0, 1.0, PlanarPoint(1.0, 1.0), branch=+1)
        assert up[0] == pytest.approx(0.0, abs=1e-12)
        assert up[1] == pytest.approx(math.pi / 2)
        down = ik_two_link(1.0, 1.0, PlanarPoint(1.0, 1.0), branch=-1)
        assert down[0] == pytest.approx(math.pi / 2)
        assert down[1] == pytest.approx(-math.pi / 2)

    def test_unreachable_target(self):
        with pytest.raises(UnreachableTargetError):
            ik_two_link(1.0, 1.0, PlanarPoint(3.0, 0.0))

    def test_too_close_target(self):
        with pytest.raises(UnreachableTargetError):
            ik_two_link(2.0, 1.0, PlanarPoint(0.5, 0.0))

    def test_offset_origin_and_heading(self):
        # a chain whose wrist starts at (1, 0) with heading pi/6
        origin = PlanarPoint(1.0, 0.0)
        target = PlanarPoint(1.0 + math.sqrt(3.0), 1.0)
        qa, qb = ik_two_link(
            1.0, 1.0, target, origin=origin, origin_heading=math.pi / 6, branch=+1
        )
        # verify by replaying the two links
        t1 = math.pi / 6 + qa
        t2 = t1 + qb
        x = 1.0 + math.cos(t1) + math.cos(t2)
        y = math.sin(t1) + math.sin(t2)
        assert x == pytest.approx(target.x)
        assert y == pytest.approx(target.y)

    def test_boundary_straight_reach(self):
        qa, qb = ik_two_link(1.0, 1.0, PlanarPoint(2.0, 0.0), branch=+1)
        assert qa == pytest.approx(0.0, abs=1e-7)
        assert qb == pytest.approx(0.0, abs=1e-7)

    def test_rejects_bad_branch(self):
        with pytest.raises(ValueError):
            ik_two_link(1.0, 1.0, PlanarPoint(1.0, 1.0), branch=0)

    def test_roundtrip_random(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            la, lb = rng.uniform(0.2, 4.0, 2)
            qa, qb = rng.uniform(-3.0, 3.0, 2)
            x = la * math.cos(qa) + lb * math.cos(qa + qb)
            y = la * math.sin(qa) + lb * math.sin(qa + qb)
            branch = +1 if math.sin(qb) >= 0 else -1
            sa, sb = ik_two_link(la, lb, PlanarPoint(x, y), branch=branch)
            rx = la * math.cos(sa) + lb * math.cos(sa + sb)
            ry = la * math.sin(sa) + lb * math.sin(sa + sb)
            assert rx == pytest.approx(x, abs=1e-9)
            assert ry == pytest.approx(y, abs=1e-9)


class TestCloseChain:
    def test_reconstructs_known_shape(self):
        chain = ChainModel([1.0] * 4, [1.0] * 4)
        q = np.array([-0.3179, 0.0558, 0.3804, 0.3524])
        tip = forward_kinematics(chain, q)
        full = close_chain(chain, q[:2], tip, branch=+1)
        np.testing.assert_allclose(full, q, atol=1e-9)

    def test_straight_chain_stays_straight(self):
        chain = ChainModel([1.0, 1.0, 1.0], [0.0, 1.0, 1.0])
        full = close_chain(chain, [0.0], PlanarPoint(3.0, 0.0), branch=+1)
        np.testing.assert_allclose(full, [0.0, 0.0, 0.0], atol=1e-12)

    def test_leading_angles_pass_through(self):
        chain = ChainModel([1.0, 1.0, 1.0], [0.0, 1.0, 1.0])
        full = close_chain(chain, [0.4], PlanarPoint(2.0, 0.5), branch=+1)
        assert full[0] == pytest.approx(0.4)
        tip = forward_kinematics(chain, full)
        assert tip.x == pytest.approx(2.0)
        assert tip.y == pytest.approx(0.5)

    def test_unreachable_raises(self):
        chain = ChainModel([1.0, 1.0, 1.0], [0.0, 1.0, 1.0])
        with pytest.raises(UnreachableTargetError):
            close_chain(chain, [0.0], PlanarPoint(9.0, 0.0), branch=+1)

    def test_needs_three_links(self):
        chain = ChainModel([1.0, 1.0], [0.0, 1.0])
        with pytest.raises(ValueError):
            close_chain(chain, [], PlanarPoint(1.5, 0.0), branch=+1)

    def test_wrong_lead_count(self):
        chain = ChainModel([1.0] * 4, [1.0] * 4)
        with pytest.raises(DimensionMismatchError):
            close_chain(chain, [0.1], PlanarPoint(3.0, 0.0), branch=+1)

    def test_branches_mirror_about_wrist(self):
        chain = ChainModel([1.0, 1.0, 1.0], [0.0, 1.0, 1.0])
        up = close_chain(chain, [0.2], PlanarPoint(2.4, 0.1), branch=+1)
        down = close_chain(chain, [0.2], PlanarPoint(2.4, 0.1), branch=-1)
        assert up[2] == pytest.approx(-down[2], abs=1e-9)
        for full in (up, down):
            tip = forward_kinematics(chain, full)
            assert tip.x == pytest.approx(2.4)
            assert tip.y == pytest.approx(0.1)


@st.composite
def closure_stacks(draw):
    """A chain of 3 to 6 links, an off-axis target within its reach and a
    stack of leading angles with an elbow branch per row."""
    n = draw(st.integers(3, 6))
    lengths = draw(st.lists(st.floats(0.5, 1.5), min_size=n, max_size=n))
    reach = draw(st.floats(0.05, 1.0)) * sum(lengths)
    heading = draw(st.floats(-math.pi, math.pi))
    rows = draw(st.integers(1, 12))
    angle = st.floats(-math.pi, math.pi)
    lead = [draw(st.lists(angle, min_size=n - 2, max_size=n - 2)) for _ in range(rows)]
    branches = draw(st.lists(st.sampled_from((1, -1)), min_size=rows, max_size=rows))
    target = PlanarPoint(reach * math.cos(heading), reach * math.sin(heading))
    return ChainModel(lengths, [1.0] * n), np.array(lead), target, np.array(branches)


@settings(max_examples=60, deadline=None)
@given(closure_stacks())
def test_stacked_closures_match_close_chain(case):
    """Each row of one stacked closure is close_chain's closure of that row,
    and a row is infeasible exactly when close_chain raises."""
    chain, lead, target, branches = case
    angles, feasible = _close_chains(chain.link_lengths, lead, target.x, target.y, branches)
    for row, full, ok, branch in zip(lead, angles, feasible, branches):
        try:
            single = close_chain(chain, row, target, int(branch))
        except UnreachableTargetError:
            assert not ok
            continue
        assert ok
        np.testing.assert_allclose(full, single, rtol=0.0, atol=1e-15)


def test_models_copy_the_callers_arrays():
    """The caller's arrays stay writeable, and editing them later does not
    reach the model."""
    lengths, stiffness = np.array([1.0, 2.0, 1.5]), np.array([1.0, 0.5, 2.0])
    q, q0 = np.array([0.1, -0.2, 0.3]), np.array([0.0, 0.1, 0.2])
    chain = ChainModel(lengths, stiffness)
    config = Configuration(q, q0)
    same = Configuration(q, q)
    for array in (lengths, stiffness, q, q0):
        assert array.flags.writeable
    lengths[0], stiffness[1], q[2], q0[0] = 9.0, 9.0, 9.0, 9.0
    np.testing.assert_array_equal(chain.link_lengths, [1.0, 2.0, 1.5])
    np.testing.assert_array_equal(chain.joint_stiffness, [1.0, 0.5, 2.0])
    np.testing.assert_array_equal(config.angles, [0.1, -0.2, 0.3])
    np.testing.assert_array_equal(config.reference_angles, [0.0, 0.1, 0.2])
    np.testing.assert_array_equal(same.reference_angles, [0.1, -0.2, 0.3])
    for array in (chain.link_lengths, chain.joint_stiffness, config.angles, same.angles):
        assert not array.flags.writeable
