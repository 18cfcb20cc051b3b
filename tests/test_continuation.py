"""Path continuation of sweep_force_deflection in full coordinates.

The sweep predicts each point along the tangent of the equilibrium path and
corrects it by Newton steps on the bordered (KKT) system. These tests pin
what that buys over a chart that closes the last two links on a fixed elbow:
paths that cross a straight last elbow, paths whose angles pass +-pi, and
physical invariants of random sweeps.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from elastichain import (
    ChainModel,
    Configuration,
    SweepRequest,
    classify_stability,
    forward_kinematics,
    jacobian,
    sweep_force_deflection,
)
from elastichain import sweep as sweep_module
from elastichain.sweep import (
    NO_EQUILIBRIUM,
    _derivatives,
    _minimize_stack,
    _settled,
    _tangent,
)

TABLE_U = (-0.3179, 0.0558, 0.3804, 0.3524)
TABLE_Z = (-0.2417, 0.6821, -0.7958, 0.5170)
# three links, a passive base: its stable path ends at a fold in delta_x
NEAR_STRAIGHT = (-0.1043337889, math.pi / 10, -math.pi / 10)


def relaxed(angles):
    q = np.asarray(angles, dtype=float)
    return Configuration(q, q)


def on_axis(chain, angles):
    """The relaxed shape turned about the base so that its tip lies on +x."""
    q = np.array(angles, dtype=float)
    tip = forward_kinematics(chain, q)
    q[0] -= math.atan2(tip.y, tip.x)
    return relaxed(q)


def sweep(chain, config, delta_max, steps, **options):
    return sweep_force_deflection(SweepRequest(chain, config, delta_max, steps, **options))


def descend(chain, reference, lead, tx, branch):
    """_minimize_stack from one start: its _Solve or None."""
    lead = np.asarray(lead, dtype=float)[None]
    return _minimize_stack(chain, reference, lead, np.array([tx]), np.array([branch]))[0]


class TestElbowFlip:
    """A chain whose loading path straightens its last elbow and bends it back
    the other way, drawn at random (lengths in [0.6, 1.4], springs in
    [0.5, 2], relaxed angles in [-0.8, 0.8], rounded to four digits). A
    chart that closes the last two links on a fixed elbow stopped its
    seedless sweep at the third step."""

    chain = ChainModel([0.7389, 1.2793, 1.3282, 0.6354], [0.9986, 0.7887, 1.2043, 1.8824])
    raw_shape = (-0.6877, -0.526, -0.0208, 0.0385)

    def request(self, **options):
        config = on_axis(self.chain, self.raw_shape)
        x0 = forward_kinematics(self.chain, config.angles).x
        return SweepRequest(self.chain, config, 0.5 * x0, 40, seeds=0, **options)

    def test_both_elbows_follow_the_path_across(self):
        request = self.request()
        result = sweep_force_deflection(request)
        assert result.truncation is None
        assert len(result.points) == 40
        branches = [rec.branch for rec in result.branch_log]
        assert branches[:3] == [1, 1, 1] and set(branches[3:]) == {-1}
        assert {rec.restart for rec in result.branch_log} == {0}
        for point, rec in zip(result.points, result.branch_log):
            assert point.stability == "stable"
            assert point.residual_norm < 1e-10
            assert np.sign(math.sin(point.configuration.angles[-1])) == rec.branch

    def test_one_elbow_truncates_where_the_path_crosses(self):
        """Under a one-elbow policy the path stops where its elbow would flip."""
        request = self.request(branch_policy="positive")
        result = sweep_force_deflection(request)
        both = sweep_force_deflection(self.request())
        assert result.truncation is not None
        assert result.truncation.reason == NO_EQUILIBRIUM
        assert result.truncation.delta_x == both.points[3].deflection.delta_x
        assert [rec.branch for rec in result.branch_log] == [1, 1, 1]
        for mine, theirs in zip(result.points, both.points):
            assert mine.force.fx == pytest.approx(theirs.force.fx, abs=1e-12)


class TestAngleWrap:
    """Joint angles that pass +-pi along the path keep their spring energy.

    A closure that wraps the last two angles into (-pi, pi] adds 2 pi to a
    spring's deflection there, and a sweep through it jumped to another
    shape or stopped.
    """

    def test_coarse_sweep_matches_a_fine_one_past_the_wrap(self):
        chain = ChainModel([1.208, 0.7586, 1.175, 1.1056], [1.7918, 1.116, 1.2326, 1.4134])
        config = relaxed([0.4694, 0.4205, -2.545, 1.6867])
        coarse = sweep(chain, config, 1.0244, 20, seeds=0)
        fine = sweep(chain, config, 1.0244, 381, seeds=0)
        assert coarse.truncation is None and fine.truncation is None
        # delta = 1.0244 * 17 / 19 is grid point 17 of 20 and 340 of 381
        assert coarse.points[17].force.fx == pytest.approx(0.5714, abs=1e-4)
        assert coarse.points[17].force.fx == pytest.approx(fine.points[340].force.fx, abs=1e-9)
        np.testing.assert_allclose(
            coarse.points[17].configuration.angles, fine.points[340].configuration.angles,
            rtol=0.0, atol=1e-9,
        )

    def test_five_links_reach_delta_max(self):
        chain = ChainModel(
            [1.3467, 1.384, 1.0028, 1.2061, 1.0933], [0.6723, 0.974, 0.6016, 1.8303, 0.5331]
        )
        config = relaxed([0.0447, -0.3869, -0.4236, 3.0897, -2.1221])
        coarse = sweep(chain, config, 1.4473, 20, seeds=0)
        fine = sweep(chain, config, 1.4473, 381, seeds=0)
        assert coarse.truncation is None and len(coarse.points) == 20
        assert coarse.points[-1].force.fx == pytest.approx(fine.points[-1].force.fx, abs=1e-9)
        for point in coarse.points:
            assert point.stability == "stable"
            assert point.residual_norm < 1e-10


@pytest.mark.parametrize("shape, delta", [
    ((-0.3179, 0.0558, 0.3804, 0.3524), 0.3),
    ((-0.2417, 0.6821, -0.7958, 0.5170), 0.15),
    ((-0.2417, 0.6821, -0.7958, 0.5170), 0.45),
])
def test_tangent_matches_central_differences(shape, delta):
    """The predictor's d(q, F)/d delta against converged neighbouring points."""
    chain = ChainModel([1.0] * 4, [1.0] * 4)
    point = sweep(chain, relaxed(shape), delta, 2, seeds=0).points[-1]
    reference = point.configuration.reference_angles
    q = point.configuration.angles
    tx = forward_kinematics(chain, q).x
    branch = 1 if math.sin(q[-1]) > 0.0 else -1
    h = 1e-5  # the O(h^2) error of the differences stays below 1e-7 here
    ahead, behind = (
        descend(chain, reference, q[:-2], tx - sign * h, branch) for sign in (1, -1)
    )
    dq = (ahead.full - behind.full) / (2.0 * h)
    df = (ahead.force - behind.force) / (2.0 * h)
    # delta grows as the end-point x = x0 - delta shrinks
    jac = jacobian(chain, q)
    force, _, _, tau = _derivatives(chain.joint_stiffness, reference, q, jac)
    tangent = -_tangent(chain, _settled(chain, reference, q, jac, force, jac.T @ force + tau))
    np.testing.assert_allclose(tangent[:4], dq, rtol=0.0, atol=1e-6 * (1.0 + np.max(np.abs(dq))))
    np.testing.assert_allclose(tangent[4:], df, rtol=0.0, atol=1e-6 * (1.0 + np.max(np.abs(df))))


@pytest.mark.parametrize("steps", [3, 5])
def test_coarse_sweep_crosses_a_straight_last_elbow(steps):
    """A path step that fails is retried as two half-steps, two levels deep.

    The relaxed last elbow is straight, and the path flips it at once; a
    whole step of 0.15 or 0.075 did not converge, and the reduced descent
    is singular there, so such sweeps stopped at their first step."""
    chain = ChainModel([1.0] * 4, [1.0] * 4)
    config = on_axis(chain, (0.3, -0.5, 0.2, 0.0))
    coarse = sweep(chain, config, 0.3, steps, seeds=0)
    fine = sweep(chain, config, 0.3, 9, seeds=0)
    assert coarse.truncation is None and len(coarse.points) == steps
    assert {rec.restart for rec in coarse.branch_log} == {0}
    for point, twin in zip(coarse.points, fine.points[:: 8 // (steps - 1)]):
        assert point.deflection.delta_x == twin.deflection.delta_x
        assert point.force.fx == pytest.approx(twin.force.fx, abs=1e-9)
    assert fine.points[2].force.fx == pytest.approx(0.7116, abs=1e-4)
    assert fine.points[4].force.fx == pytest.approx(0.8330, abs=1e-4)


def test_path_points_balance_by_a_straight_last_elbow():
    """A path point keeps the corrector's multiplier as its force. The chart's
    multiplier -J_t^-T tau_t is ill-conditioned where the last elbow is
    nearly straight, as at point 21 with |sin q_n| = 4.4e-4, and amplifies
    rounding there to about 1e-12."""
    chain = ChainModel([1.0438, 0.9548, 1.1202, 1.3678, 0.7109],
                       [1.9481, 1.4986, 1.6938, 1.4527, 1.8055])
    config = on_axis(chain, (-0.0785, 0.3329, -0.3774, 0.0139, 0.2904))
    x0 = forward_kinematics(chain, config.angles).x
    result = sweep(chain, config, 0.5 * x0, 40, seeds=0)
    assert result.truncation is None and len(result.points) == 40
    assert abs(math.sin(result.points[21].configuration.angles[-1])) < 1e-3
    assert max(p.residual_norm for p in result.points) <= 1e-13


class TestPathWork:
    """Each path point costs few bordered solves: the last Newton solve also
    gives the tangent passed on, the predictor is second order, and Newton
    stops once the residual reaches rounding."""

    chain = ChainModel([1.0] * 4, [1.0] * 4)

    def test_few_solves_per_point(self, monkeypatch):
        calls, solve = [], np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: calls.append(a) or solve(a, b))
        result = sweep(self.chain, relaxed(TABLE_U), 0.6, 30, seeds=0)
        assert result.truncation is None and len(result.points) == 30
        # 4.6 solves a point with a fresh tangent at each point and one more
        # solve at rounding; 2.9 with a first-order predictor
        assert len(calls) <= 2.5 * len(result.points)

    def test_tangent_passed_on_is_the_tangent_there(self, monkeypatch):
        passed, step = [], sweep_module._path_step

        def spy(chain, reference, start, tx, branches, *rest):
            out = step(chain, reference, start, tx, branches, *rest)
            if out is not None:
                passed.append(out)
            return out

        monkeypatch.setattr(sweep_module, "_path_step", spy)
        sweep(self.chain, relaxed(TABLE_U), 0.6, 30, seeds=0)
        assert len(passed) == 29
        for solve, _, tangent, _ in passed:
            np.testing.assert_allclose(tangent, _tangent(self.chain, solve), rtol=0.0, atol=1e-8)

    def test_path_points_come_from_the_corrector(self, monkeypatch):
        """A path point is built from the corrector's last iterate and the
        unloaded start is torque-free at F = 0: the chart is never solved."""
        calls, derivatives = [], sweep_module._derivatives
        monkeypatch.setattr(sweep_module, "_derivatives",
                            lambda *args: calls.append(args) or derivatives(*args))
        result = sweep(self.chain, relaxed(TABLE_U), 0.6, 30, seeds=0)
        assert result.truncation is None and len(result.points) == 30
        assert {rec.restart for rec in result.branch_log} == {0}
        assert len(calls) == 0

    @pytest.mark.parametrize("chain, shape, delta_max, steps", [
        (ChainModel([1.0] * 4, [1.0] * 4), TABLE_Z, 0.6, 30),
        (ChainModel([1.0] * 3, [0.0, 1.0, 1.0]), NEAR_STRAIGHT, 1.2, 25),
    ])
    def test_labels_match_the_reduced_hessian_at_the_angles(self, chain, shape, delta_max, steps):
        """Every point's label and degenerate flag, whether from the path,
        with the corrector's multiplier, or from a descent past a fold, are
        classify_stability of the reduced Hessian at its angles."""
        result = sweep(chain, relaxed(shape), delta_max, steps, seeds=0)
        assert result.truncation is None and len(result.points) == steps
        for point, record in zip(result.points, result.branch_log):
            q = point.configuration.angles
            hessian = _derivatives(chain.joint_stiffness, point.configuration.reference_angles,
                                   q, jacobian(chain, q))[2]
            degenerate = "degenerate stability" in record.note
            assert (point.stability, degenerate) == classify_stability(hessian)


@st.composite
def bent_chains(draw):
    """Random bent chains of 3 to 6 links, turned so that the tip lies on
    the axis at least 0.3 of the chain's length from the base."""
    n = draw(st.integers(3, 6))
    lengths = draw(st.lists(st.floats(0.6, 1.4), min_size=n, max_size=n))
    stiffness = draw(st.lists(st.floats(0.5, 2.0), min_size=n, max_size=n))
    angles = draw(st.lists(st.floats(-0.8, 0.8), min_size=n - 1, max_size=n - 1))
    # a straight last elbow at rest is singular for the closure the sweep starts from
    elbow = draw(st.sampled_from((1, -1))) * draw(st.floats(0.1, 0.8))
    chain = ChainModel(lengths, stiffness)
    config = on_axis(chain, angles + [elbow])
    x0 = forward_kinematics(chain, config.angles).x
    assume(x0 >= 0.3 * chain.total_length)
    return chain, config, x0


@settings(max_examples=20, deadline=None)
@given(bent_chains(), st.floats(0.2, 5.0), st.floats(0.2, 5.0))
def test_scaling_lengths_and_stiffnesses_scales_the_force(case, s, t):
    """Lengths times s and stiffnesses times t: the same shapes at s delta,
    with forces times t / s."""
    chain, config, x0 = case
    scaled = ChainModel(s * chain.link_lengths, t * chain.joint_stiffness)
    plain = sweep(chain, config, 0.5 * x0, 21, seeds=0)
    other = sweep(scaled, config, 0.5 * s * x0, 21, seeds=0)
    assert len(other.points) == len(plain.points)
    assert [r.branch for r in other.branch_log] == [r.branch for r in plain.branch_log]
    force = max(1.0, max(abs(p.force.fx) + abs(p.force.fy) for p in plain.points))
    for a, b in zip(plain.points, other.points):
        assert b.force.fx * s / t == pytest.approx(a.force.fx, abs=1e-9 * force)
        assert b.force.fy * s / t == pytest.approx(a.force.fy, abs=1e-9 * force)
        np.testing.assert_allclose(
            b.configuration.angles, a.configuration.angles, rtol=0.0, atol=1e-9
        )


@settings(max_examples=15, deadline=None)
@given(bent_chains())
def test_work_of_the_force_is_the_energy_gain(case):
    """On a continuous path the trapezoid rule over fx d delta gives the
    strain energy gained, to within its own Richardson error estimate: the
    gap between the rule on the grid and on every other grid point."""
    chain, config, x0 = case
    result = sweep(chain, config, 0.5 * x0, 101, seeds=0)
    angles = np.array([p.configuration.angles for p in result.points])
    # a snap past a fold jumps to another shape and releases energy that no
    # work pays for; along the path a step of 0.005 x0 moves the angles less
    assume(len(angles) > 2 and np.max(np.abs(np.diff(angles, axis=0))) < 0.2)
    deltas = np.array([p.deflection.delta_x for p in result.points])
    fx = np.array([p.force.fx for p in result.points])
    last = len(deltas) - 1 - (len(deltas) - 1) % 2  # every other point ends here

    def trapezoid(y, x):  # np.trapezoid needs numpy >= 2.0
        return (np.diff(x) * (y[1:] + y[:-1]) / 2.0).sum()

    fine = trapezoid(fx[: last + 1], deltas[: last + 1])
    coarse = trapezoid(fx[: last + 1 : 2], deltas[: last + 1 : 2])
    gain = result.points[last].strain_energy - result.points[0].strain_energy
    assert abs(fine - gain) <= abs(fine - coarse) + 1e-12 * max(1.0, abs(gain))
