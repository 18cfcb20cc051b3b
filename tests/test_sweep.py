import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elastichain import (
    ChainModel,
    Configuration,
    DimensionMismatchError,
    NotApplicableError,
    PlanarPoint,
    SingularSampleError,
    SweepRequest,
    TwoLinkMechanism,
    UnreachableTargetError,
    classify_stability,
    close_chain,
    detect_quasi_buckling,
    equilibrium_residual,
    forward_kinematics,
    jacobian,
    reduced_energy,
    sweep_force_deflection,
    three_link_equilibria,
    twolink_critical,
    twolink_curve,
)
from elastichain import sweep as sweep_module
from elastichain.sweep import (
    NO_CLOSURE,
    _closed_energies,
    _feasible_arcs,
    _minimize_stack,
    _restart_offsets,
)

# unloaded shape of the three-link chain with spring references
# (-pi/4, -pi/3) at the two active joints, solved so the tip sits on the axis
U_PLUS_BASE = 0.8572772586
U_PLUS_REFS = (U_PLUS_BASE, -math.pi / 4, -math.pi / 3)

# nearly straight three-link shape with references (pi/10, -pi/10)
TABLE_U = (-0.3179, 0.0558, 0.3804, 0.3524)
NEAR_STRAIGHT_BASE = -0.1043337889
NEAR_STRAIGHT_REFS = (NEAR_STRAIGHT_BASE, math.pi / 10, -math.pi / 10)


def u_plus_chain():
    return ChainModel([1.0, 1.0, 1.0], [0.0, 1.0, 1.0])


def relaxed(angles):
    a = np.asarray(angles, dtype=float)
    return Configuration(a, a)


def descend(chain, reference, lead, tx, branch):
    """_minimize_stack from one start: its _Solve or None."""
    lead = np.asarray(lead, dtype=float)[None]
    return _minimize_stack(chain, reference, lead, np.array([tx]), np.array([branch]))[0]


class TestTwoLinkMechanism:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            TwoLinkMechanism(0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            TwoLinkMechanism(0.0, 1.0, -1.0)

    def test_quarter_fold(self):
        mech = TwoLinkMechanism(0.0, 1.0, 1.0)
        ((delta, force, potential),) = twolink_curve(mech, [math.pi / 2])
        assert delta == pytest.approx(2.0)
        assert force == pytest.approx(math.pi)
        assert potential == pytest.approx(2.0 * (math.pi / 2) ** 2 - 2.0 * math.pi)

    def test_small_angle_limit_is_critical_force(self):
        mech = TwoLinkMechanism(0.0, 1.0, 1.0)
        ((_, force, _),) = twolink_curve(mech, [1e-8])
        assert force == pytest.approx(2.0, abs=1e-9)

    def test_bent_mechanism_at_rest_carries_no_force(self):
        mech = TwoLinkMechanism(math.pi / 6, 1.0, 1.0)
        ((delta, force, potential),) = twolink_curve(mech, [0.0])
        assert delta == 0.0
        assert force == 0.0
        assert potential == 0.0

    def test_nonstraight_start_deflects_from_zero_force(self):
        mech = TwoLinkMechanism(math.pi / 6, 1.0, 1.0)
        curve = twolink_curve(mech, np.linspace(1e-3, 1.0, 20))
        forces = [f for _, f, _ in curve]
        assert forces[0] == pytest.approx(2e-3 / math.sin(math.pi / 6 + 1e-3), rel=1e-9)
        assert all(f > 0.0 for f in forces)

    def test_singular_sample(self):
        mech = TwoLinkMechanism(math.pi / 2, 1.0, 1.0)
        with pytest.raises(SingularSampleError) as info:
            twolink_curve(mech, [0.0, math.pi / 2])
        assert "sample 1" in str(info.value)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_a_sample_that_is_not_finite(self, bad):
        """A NaN sample gave (nan, nan, nan), an infinite one a bare math
        domain error."""
        mech = TwoLinkMechanism(math.pi / 6, 1.0, 1.0)
        with pytest.raises(ValueError, match="sample 1 is not finite"):
            twolink_curve(mech, [0.1, bad])

    def test_critical_force_formula(self):
        assert twolink_critical(TwoLinkMechanism(0.0, 3.0, 2.0)) == pytest.approx(3.0)

    def test_critical_force_needs_straight_mechanism(self):
        with pytest.raises(NotApplicableError):
            twolink_critical(TwoLinkMechanism(0.2, 1.0, 1.0))


class TestClassifyStability:
    def test_minimum(self):
        assert classify_stability(np.diag([1.0, 2.0])) == ("stable", False)

    def test_maximum(self):
        assert classify_stability(np.diag([-1.0, -2.0])) == ("unstable", False)

    def test_saddle(self):
        assert classify_stability(np.diag([1.0, -1.0])) == ("saddle", False)

    def test_degenerate_flag(self):
        tag, degenerate = classify_stability(np.diag([1.0, 1e-12]))
        assert tag == "stable"
        assert degenerate

    def test_tolerance_scales_with_matrix(self):
        # a 1e-3 eigenvalue is decisive next to 1.0 but degenerate next to 1e6
        tag, degenerate = classify_stability(np.diag([1.0, 1e-3]))
        assert (tag, degenerate) == ("stable", False)
        tag, degenerate = classify_stability(np.diag([1e6, 1e-3]))
        assert degenerate

    def test_scalar_hessian(self):
        assert classify_stability([[4.0]]) == ("stable", False)
        assert classify_stability([[-4.0]]) == ("unstable", False)

    @pytest.mark.parametrize("hessian", [
        [[math.nan]],
        [[1.0, math.inf], [math.inf, 1.0]],
        [[1.0, 0.0], [0.0, -math.inf]],
    ])
    def test_rejects_values_that_are_not_finite(self, hessian):
        # NaN and inf entries used to be labelled "stable"
        with pytest.raises(ValueError, match="finite"):
            classify_stability(hessian)

    @pytest.mark.parametrize("hessian", [np.ones((2, 2, 2)), [1.0, 2.0], 4.0, np.ones((2, 3))])
    def test_rejects_what_is_not_a_square_matrix(self, hessian):
        # a stack of 2 x 2 matrices used to be labelled "stable" and degenerate
        with pytest.raises(ValueError, match="square 2-D"):
            classify_stability(hessian)


class TestDetectQuasiBuckling:
    def test_linear_curve_has_no_markers(self):
        pairs = [(d, 3.0 * d) for d in np.linspace(0.0, 1.0, 30)]
        assert detect_quasi_buckling(pairs) == []

    def test_knee_produces_one_marker(self):
        deltas = np.linspace(0.0, 1.0, 101)
        fx = np.where(deltas < 0.4, 10.0 * deltas, 4.0 + 0.5 * (deltas - 0.4))
        markers = detect_quasi_buckling(list(zip(deltas, fx)))
        assert len(markers) == 1
        delta, ratio = markers[0]
        assert delta == pytest.approx(0.4, abs=0.02)
        assert ratio < 0.1

    def test_scale_invariance(self):
        deltas = np.linspace(0.0, 1.0, 101)
        fx = np.where(deltas < 0.4, 10.0 * deltas, 4.0 + 0.5 * (deltas - 0.4))
        base = detect_quasi_buckling(list(zip(deltas, fx)))
        scaled = detect_quasi_buckling(list(zip(1000.0 * deltas, 1e-3 * fx)))
        assert len(scaled) == len(base)
        assert scaled[0][1] == pytest.approx(base[0][1], rel=1e-9)
        assert scaled[0][0] == pytest.approx(1000.0 * base[0][0], rel=1e-9)

    def test_recovery_does_not_retrigger(self):
        # stiffness dips below threshold once, recovers, stays high
        deltas = np.linspace(0.0, 1.0, 201)
        fx = np.where(
            (deltas > 0.3) & (deltas < 0.5),
            3.0 + 0.001 * (deltas - 0.3),
            np.where(deltas <= 0.3, 10.0 * deltas, 2.8 + 10.0 * (deltas - 0.5)),
        )
        markers = detect_quasi_buckling(list(zip(deltas, fx)))
        assert len(markers) == 1

    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            detect_quasi_buckling([(0.0, 0.0), (0.1, 0.1)])

    def test_drop_ratio_bounds(self):
        pairs = [(d, d) for d in np.linspace(0.0, 1.0, 10)]
        with pytest.raises(ValueError):
            detect_quasi_buckling(pairs, drop_ratio=0.0)
        with pytest.raises(ValueError):
            detect_quasi_buckling(pairs, drop_ratio=1.0)

    @pytest.mark.parametrize("pairs", [
        [(0.0, 0.0), (0.0, 1.0), (0.1, 2.0), (0.2, 2.1)],
        [(0.0, 0.0), (0.1, math.nan), (0.2, 2.0), (0.3, 2.1)],
        [(0.3, 0.0), (0.2, 1.0), (0.1, 2.0), (0.0, 2.1)],
    ])
    def test_rejects_pairs_out_of_order_or_not_finite(self, pairs):
        with pytest.raises(ValueError, match="increase strictly"):
            detect_quasi_buckling(pairs)

    def test_sweep_result_gives_the_sweeps_markers(self):
        chain = ChainModel([1.0] * 4, [1.0] * 4)
        z = (-0.2417, 0.6821, -0.7958, 0.5170)
        result = sweep_force_deflection(SweepRequest(chain, relaxed(z), 0.6, 30, seeds=0))
        assert result.quasi_buckling_markers
        assert detect_quasi_buckling(result) == result.quasi_buckling_markers

    def test_path_softening_from_its_start_has_no_markers(self):
        # the stiffness is negative from the first point, so there is no
        # positive reference to collapse from
        pairs = [(d, -d * d - d) for d in np.linspace(0.0, 1.0, 11)]
        assert detect_quasi_buckling(pairs) == []


class TestReducedEnergy:
    def test_zero_at_relaxed_shape(self):
        # the relaxed shape bends downward, so its elbow is the minus branch
        chain = u_plus_chain()
        cfg = relaxed(U_PLUS_REFS)
        tip = forward_kinematics(chain, cfg.angles)
        e = reduced_energy(chain, cfg, cfg.angles[:1], PlanarPoint(tip.x, tip.y), -1)
        assert e == pytest.approx(0.0, abs=1e-18)

    def test_opposite_branch_costs_energy(self):
        chain = u_plus_chain()
        cfg = relaxed(U_PLUS_REFS)
        tip = forward_kinematics(chain, cfg.angles)
        e = reduced_energy(chain, cfg, cfg.angles[:1], PlanarPoint(tip.x, tip.y), +1)
        assert e > 1.0

    def test_infeasible_target_is_infinite(self):
        chain = u_plus_chain()
        cfg = relaxed(U_PLUS_REFS)
        e = reduced_energy(chain, cfg, [0.0], PlanarPoint(9.0, 0.0), +1)
        assert e == math.inf

    @pytest.mark.parametrize("branch", [2, 0, 0.5, -1.5])
    def test_rejects_a_branch_other_than_plus_or_minus_one(self, branch):
        # branch 2 used to return the energy of a shape whose tip missed the target
        chain = ChainModel([1.0] * 4, [1.0] * 4)
        with pytest.raises(ValueError, match="branch must be"):
            reduced_energy(chain, relaxed(TABLE_U), TABLE_U[:2], PlanarPoint(3.6, 0.0), branch)

    @pytest.mark.parametrize("lead", [TABLE_U[:1], TABLE_U[:3], [TABLE_U[:2]]])
    def test_rejects_leading_angles_of_another_shape(self, lead):
        chain = ChainModel([1.0] * 4, [1.0] * 4)
        with pytest.raises(DimensionMismatchError, match="expected 2 leading angles"):
            reduced_energy(chain, relaxed(TABLE_U), lead, PlanarPoint(3.6, 0.0), +1)

    def test_rejects_a_leading_angle_that_is_not_finite(self):
        # NaN used to give inf with a RuntimeWarning
        chain = ChainModel([1.0] * 4, [1.0] * 4)
        with pytest.raises(ValueError, match="finite"):
            reduced_energy(chain, relaxed(TABLE_U), [math.nan, 0.0], PlanarPoint(3.6, 0.0), +1)

    def test_rejects_a_two_link_chain(self):
        chain = ChainModel([1.0, 1.0], [1.0, 1.0])
        with pytest.raises(ValueError, match="at least three links"):
            reduced_energy(chain, relaxed([0.1, 0.2]), [], PlanarPoint(1.5, 0.0), +1)

    def test_four_link_landscape_critical_points(self):
        # frozen landscape scan at one constrained deflection: a minimum,
        # a maximum, and a saddle of the reduced energy over leading angles
        chain = ChainModel([1.0] * 4, [1.0] * 4)
        ref = np.array([-0.3179, 0.0558, 0.380584, 0.352176])
        cfg = relaxed(ref)
        x0 = forward_kinematics(chain, ref).x
        target = PlanarPoint(x0 - 0.4, 0.0)

        lead_min = np.array([-0.55049987, 0.10035841])
        e_min = reduced_energy(chain, cfg, lead_min, target, +1)
        assert e_min == pytest.approx(0.10447727, abs=1e-6)
        for shift in ([1e-3, 0.0], [-1e-3, 0.0], [0.0, 1e-3], [0.0, -1e-3]):
            assert reduced_energy(chain, cfg, lead_min + shift, target, +1) > e_min

        lead_max = np.array([-0.28640875, 1.17252920])
        e_max = reduced_energy(chain, cfg, lead_max, target, +1)
        assert e_max == pytest.approx(2.47375596, abs=1e-6)
        for shift in ([1e-3, 0.0], [0.0, 1e-3]):
            assert reduced_energy(chain, cfg, lead_max + shift, target, +1) < e_max

        lead_saddle = np.array([0.81180504, -0.89659630])
        e_saddle = reduced_energy(chain, cfg, lead_saddle, target, +1)
        assert e_saddle == pytest.approx(1.77403541, abs=1e-6)

    def test_landscape_critical_points_classify(self):
        # curvature tags at the three critical points of the frozen landscape
        chain = ChainModel([1.0] * 4, [1.0] * 4)
        ref = np.array([-0.3179, 0.0558, 0.380584, 0.352176])
        cfg = relaxed(ref)
        x0 = forward_kinematics(chain, ref).x
        target = PlanarPoint(x0 - 0.4, 0.0)

        def hessian(lead):
            h = 1e-4
            out = np.empty((2, 2))
            for i in range(2):
                for j in range(2):
                    pts = 0.0
                    for si in (1.0, -1.0):
                        for sj in (1.0, -1.0):
                            probe = np.array(lead, dtype=float)
                            probe[i] += si * h
                            probe[j] += sj * h
                            pts += si * sj * reduced_energy(
                                chain, cfg, probe, target, +1
                            )
                    out[i, j] = pts / (4.0 * h * h)
            return out

        cases = [
            ([-0.55049987, 0.10035841], "stable"),
            ([-0.28640875, 1.17252920], "unstable"),
            ([0.81180504, -0.89659630], "saddle"),
        ]
        for lead, expected in cases:
            tag, degenerate = classify_stability(hessian(lead))
            assert tag == expected
            assert not degenerate


class TestThreeLinkEquilibria:
    def test_u_plus_at_moderate_deflection(self):
        chain = u_plus_chain()
        eqs = three_link_equilibria(chain, relaxed(U_PLUS_REFS), 0.3)
        assert len(eqs) == 4
        tags = [e.stability for e in eqs]
        assert tags == ["stable", "stable", "unstable", "unstable"]
        energies = [e.strain_energy for e in eqs]
        np.testing.assert_allclose(
            energies, [0.03172743, 4.03218729, 4.44063056, 5.35232410], atol=1e-6
        )
        forces = [e.force.fx for e in eqs]
        np.testing.assert_allclose(
            forces, [0.200830, 2.289053, 3.421295, 4.037953], atol=1e-5
        )
        np.testing.assert_allclose(
            eqs[0].configuration.angles, [1.02258, -0.95680, -1.23180], atol=1e-4
        )

    def test_every_equilibrium_balances(self):
        chain = u_plus_chain()
        for delta in (0.1, 0.5):
            for eq in three_link_equilibria(chain, relaxed(U_PLUS_REFS), delta):
                r = equilibrium_residual(chain, eq.configuration, eq.force)
                assert np.linalg.norm(r) < 1e-6
                tip = forward_kinematics(chain, eq.configuration.angles)
                assert tip.x == pytest.approx(2.2128207049 - delta, abs=1e-9)
                assert tip.y == pytest.approx(0.0, abs=1e-9)

    def test_loop_energies_match_the_scalar_closure(self):
        """The grid energy of the loop scan, the stacked closure with the
        first-joint angle as a one-column lead: a feasible row puts the tip
        on (tx, 0) and carries the spring energy of its angles; a row is
        infeasible exactly when its wrist lies outside the annulus of the
        last two links by more than 1e-9 of their reach."""
        rng = np.random.default_rng(5)
        for _ in range(40):
            lengths = tuple(rng.uniform(0.5, 1.5, 3))
            stiffness = tuple(rng.uniform(0.0, 2.0, 3))
            reference = tuple(rng.uniform(-3.0, 3.0, 3))
            chain = ChainModel(lengths, stiffness)
            tx = float(rng.uniform(-0.5, 3.0))
            reach, gap = lengths[1] + lengths[2], abs(lengths[1] - lengths[2])
            tol = 1e-9 * reach
            # random angles, and wrists half and twice the tolerance inside
            # and outside each edge of the annulus
            edges = [r + f * tol for r in (reach, gap) for f in (-2.0, -0.5, 0.5, 2.0)]
            cosines = [(tx * tx + lengths[0] ** 2 - e * e) / (2.0 * tx * lengths[0]) for e in edges]
            phis = np.append(rng.uniform(-math.pi, math.pi, 200),
                             [math.acos(c) for c in cosines if abs(c) <= 1.0])
            branches = rng.choice([-1, 1], phis.size)
            grid, angles = _closed_energies(
                lengths, stiffness, reference, phis[:, None], tx, 0.0, branches
            )
            for phi, value, full in zip(phis, grid, angles):
                d = math.hypot(tx - lengths[0] * math.cos(phi), lengths[0] * math.sin(phi))
                outside = d > reach + tol or d < gap - tol
                assert math.isinf(value) == outside
                if outside:
                    continue
                assert full[0] == phi
                # within the tolerance the closure stretches or folds the pair
                tip = forward_kinematics(chain, full)
                miss = max(d - reach, gap - d, 0.0)
                assert math.hypot(tip.x - tx, tip.y) <= miss + 1e-12
                stretch = full - np.array(reference)
                energy = 0.5 * float(np.dot(stiffness, stretch * stretch))
                assert value == pytest.approx(energy, rel=1e-12, abs=1e-12)

    def test_u_plus_grid_balances_to_rounding(self):
        chain = u_plus_chain()
        for delta in np.round(0.05 * np.arange(1, 21), 2):
            for eq in three_link_equilibria(chain, relaxed(U_PLUS_REFS), delta):
                tau = chain.joint_stiffness * eq.configuration.displacement
                r = equilibrium_residual(chain, eq.configuration, eq.force)
                assert np.linalg.norm(r) <= 1e-12 * max(1.0, np.max(np.abs(tau)))
                assert eq.residual_norm == pytest.approx(np.linalg.norm(r), abs=1e-15)

    def test_kinks_of_the_wrapped_energy_are_not_equilibria(self):
        """Grid kinks at q3 = +-pi and at the +-pi wrap of q2 balance no torques.

        Five such kinks sit among the grid extrema here; refined onto, they
        leave torque residuals of 0.27 to 6.2. Only the three equilibria
        remain.
        """
        chain = ChainModel([1.2524, 0.8345, 1.0349], [0.0, 1.8465, 1.7663])
        cfg = self.on_axis(chain, (0.0932, 0.4241, -1.0541))
        eqs = three_link_equilibria(chain, cfg, 1.5627)
        for eq in eqs:
            tau = chain.joint_stiffness * eq.configuration.displacement
            r = equilibrium_residual(chain, eq.configuration, eq.force)
            assert np.linalg.norm(r) <= 1e-9 * max(1.0, np.max(np.abs(tau)))
        assert [e.stability for e in eqs] == ["stable", "stable", "unstable"]
        np.testing.assert_allclose(
            [e.strain_energy for e in eqs], [2.0512511, 4.4923259, 18.0959059], atol=1e-6
        )

    @staticmethod
    def on_axis(chain, angles):
        """The relaxed shape turned about the base so that its tip lies on +x."""
        q = np.array(angles, dtype=float)
        tip = forward_kinematics(chain, q)
        q[0] -= math.atan2(tip.y, tip.x)
        return relaxed(q)

    def test_equilibrium_just_past_the_q2_wrap_is_kept(self):
        """A minimum with q2 just past -pi, one grid step from the wrap.

        Across the wrap the energy jumps and g keeps its sign, so the grid
        interval holding the minimum has no sign change between its ends.
        """
        chain = ChainModel([0.5325, 1.3436, 0.9701], [0.4727, 1.4853, 0.6143])
        cfg = self.on_axis(chain, (-0.4047, -1.2596, -0.3295))
        eqs = three_link_equilibria(chain, cfg, 0.8161)
        wrapped = [e for e in eqs if e.configuration.angles[1] < -3.13]
        assert [e.stability for e in wrapped] == ["stable"]
        assert wrapped[0].residual_norm < 1e-12

    def test_equilibrium_by_the_closure_boundary_balances(self):
        """A minimum with the last two links 0.15 degrees from folded.

        Near the boundary 1 - cos(q3)^2 must come from the distances to the
        annulus edges. Computed from cos(q3) it lost enough digits to leave
        this point a torque residual of 1e-10, and at nearby deflections one
        above the 1e-9 that a kept point must meet.
        """
        chain = ChainModel([0.9631, 0.641, 0.6325], [1.2695, 1.0912, 1.2902])
        cfg = self.on_axis(chain, (0.5083, -1.133, 2.4138))
        eqs = three_link_equilibria(chain, cfg, 0.4478)
        folded = [e for e in eqs if abs(math.sin(e.configuration.angles[2])) < 3e-3]
        assert [e.stability for e in folded] == ["stable"]
        tau = chain.joint_stiffness * folded[0].configuration.displacement
        assert folded[0].residual_norm <= 1e-12 * max(1.0, np.max(np.abs(tau)))

    def test_equilibrium_nearer_the_closure_boundary_is_polished(self):
        """A maximum with the last two links 0.02 degrees from straight.

        In the first-joint chart the closure magnifies rounding there, and
        the refined point balanced torques only to 7.7e-10 relative; Newton
        steps in full coordinates take every kept point to rounding.
        """
        chain = ChainModel([1.4303, 1.3524, 0.6527], [0.0, 0.8483, 0.401])
        cfg = self.on_axis(chain, (0.0, 0.0215, 2.1573))
        eqs = three_link_equilibria(chain, cfg, 1.8965499319602188)
        near = [e for e in eqs if abs(math.sin(e.configuration.angles[2])) < 1e-3]
        assert [e.stability for e in near] == ["unstable"]
        for eq in eqs:
            tau = chain.joint_stiffness * eq.configuration.displacement
            r = equilibrium_residual(chain, eq.configuration, eq.force)
            assert np.linalg.norm(r) <= 1e-12 * max(1.0, np.max(np.abs(tau)))

    @pytest.mark.parametrize("links, springs, shape, delta, expected, others", [
        # a straight last elbow, the lowest-energy point of its case
        ((1.4237453573751813, 0.652007902522537, 1.0899605926495308),
         (1.5443226591551849, 0.7048151214513292, 0.9688934706517569),
         (0.8114586533095569, -0.7912867489693238, -1.3052814415435972), 3.573446057286485,
         (1.936319, 2.074246, -0.000843),
         [(2.881063, -2.209139, -3.025653, "unstable"), (3.651885, 0.123979, -2.327691, "stable")]),
        # a folded last elbow, by the inner edge of the annulus
        ((1.4622613949147543, 0.958860568981583, 1.4501350121123173),
         (0.5457981073753333, 0.5991653878598293, 0.5417238592959039),
         (-0.7333786042371998, 0.38210090646524275, 1.476830678027123), 3.889465851519233,
         (2.806814, -1.04128, -3.136153),
         [(1.530313, 1.675737, 1.240776, "stable"), (2.768707, -1.571415, -2.952827, "unstable"),
          (3.725058, -0.161641, -2.591005, "stable"), (5.281857, -2.741014, 0.105254, "unstable")]),
        # a full circle of first-joint angles, passive base, window end at 0
        ((0.5521213258128492, 0.7227031223121352, 0.5833192851148298),
         (0.0, 0.6873798282372572, 1.0599483203521531),
         (0.624192952144321, -2.3354394114033177, 2.4502680767755374), 0.7908394610675191,
         (0.014639, -2.231985, -2.271117),
         [(1.827933, 2.203239, 2.299058, "stable"), (4.93606, 2.250609, 2.288371, "unstable"),
          (3.157573, -2.222237, -2.316001, "unstable")]),
        # a full circle, window end at pi
        ((0.732271069176221, 0.8425381413233357, 0.926844601908827),
         (0.5318853421797552, 1.4062586296061297, 1.6551840425597544),
         (0.7399030018010546, -0.537937878381705, -0.9986263258242984), 1.651621717495756,
         (3.13286, 2.178801, 1.810168),
         [(1.418286, -1.430084, -2.250681, "stable"), (-1.416687, 1.429402, 2.251372, "stable"),
          (0.665105, 2.154725, 2.576548, "unstable")]),
        # q2 wraps by 2 pi within the cell, unloaded
        ((1.040022972411323, 0.5716941226712048, 0.8472257690715875),
         (1.344707828726149, 1.9640861671064784, 1.675477470308641),
         (0.5347377958907971, -1.150187649455342, -2.287879890406353), 0.0,
         (1.994816, 3.139483, 0.621539),
         [(0.534738, -1.150188, -2.28788, "stable"), (-1.253384, 1.617823, 1.594189, "stable"),
          (-2.157033, 2.946824, -0.215357, "unstable"),
          (0.800985, 2.327774, 2.056859, "unstable")]),
        # q2 wraps by 2 pi within the cell, loaded
        ((0.5654722048033689, 1.1174855964898012, 1.314485644825397),
         (1.044737964850623, 1.1756749752535056, 0.954043957108448),
         (-1.9137722087451734, -2.4981095755892477, -2.290365455423581), 1.4708974917178999,
         (3.569795, 3.1378, 2.889475),
         [(3.850541, 0.25321, -2.745311, "stable"), (0.635879, 1.622063, 2.033452, "stable"),
          (2.891214, 3.035655, -2.976397, "unstable")]),
    ], ids=["straight", "folded", "circle-end-0", "circle-end-pi", "wrap-unloaded",
            "wrap-loaded"])
    def test_minimum_in_the_last_cell_of_an_elbow_is_kept(
        self, links, springs, shape, delta, expected, others
    ):
        """A stable point in the last grid cell of an elbow is kept: where
        the two elbows meet with different energies (q3 = pi on one, -pi on
        the other), where they never meet (an arc end off the closure
        boundary, here on a full circle of first-joint angles), and by a
        straight last elbow, where the first-joint chart cannot balance
        torques to 1e-9. So is a stable point in a grid cell where q2 wraps
        by 2 pi, whose energy jumps there, so that the grid need show no
        turn next to it. The other points of each case stay."""
        eqs = three_link_equilibria(ChainModel(links, springs), relaxed(shape), delta)
        for *angles, stability in [(*expected, "stable")] + others:
            gaps = [np.max(np.abs(e.configuration.angles - angles)) for e in eqs]
            match = eqs[int(np.argmin(gaps))]
            assert min(gaps) <= 1e-6
            assert match.stability == stability
            assert match.residual_norm <= 1e-11

    def test_every_minimum_a_descent_reaches_is_enumerated(self):
        """Completeness against an independent method: stacked reduced
        descents (_minimize_stack) from 24 random first-joint angles on each
        elbow. Every stable minimum they reach with its first-joint angle in
        a feasible arc is among the enumerated points, labelled stable. The
        chains are drawn at random, plus the full circle whose minimum lies
        a grid cell from the window end at pi."""
        rng = np.random.default_rng(11)
        cases = []
        for _ in range(40):
            lengths, springs = rng.uniform(0.5, 1.5, 3), rng.uniform(0.5, 2.0, 3)
            if rng.uniform() < 0.3:
                springs[0] = 0.0
            chain = ChainModel(lengths, springs)
            cfg = self.on_axis(chain, rng.uniform(-2.5, 2.5, 3))
            reach = forward_kinematics(chain, cfg.angles).x + chain.total_length
            cases.append((chain, cfg, reach * np.array([0.25, 0.5, 0.75])))
        chain = ChainModel([0.732271069176221, 0.8425381413233357, 0.926844601908827],
                           [0.5318853421797552, 1.4062586296061297, 1.6551840425597544])
        cfg = relaxed((0.7399030018010546, -0.537937878381705, -0.9986263258242984))
        cases.append((chain, cfg, [1.651621717495756]))
        branch = np.repeat([1, -1], 24)
        for chain, cfg, deltas in cases:
            x0 = forward_kinematics(chain, cfg.angles).x
            for delta in deltas:
                try:
                    eqs = three_link_equilibria(chain, cfg, delta)
                except UnreachableTargetError:
                    continue
                arcs = _feasible_arcs(tuple(chain.link_lengths), x0 - delta, 0.0)
                lead = rng.uniform(-math.pi, math.pi, (48, 1))
                tx = np.full(48, x0 - delta)
                for solve in _minimize_stack(chain, cfg.reference_angles, lead, tx, branch):
                    if (solve is None or solve.stability != "stable"
                            or not any(lo <= solve.full[0] <= hi for lo, hi in arcs)):
                        continue
                    gaps = [np.max(np.abs(e.configuration.angles - solve.full)) for e in eqs]
                    assert min(gaps, default=math.inf) <= 1e-7, (delta, solve.full)
                    assert eqs[int(np.argmin(gaps))].stability == "stable"

    def test_straight_chain_unloaded_has_single_equilibrium(self):
        chain = ChainModel([1.0, 1.0, 1.0], [0.0, 1.0, 1.0])
        eqs = three_link_equilibria(chain, relaxed((0.0, 0.0, 0.0)), 0.0)
        assert len(eqs) == 1
        np.testing.assert_allclose(eqs[0].configuration.angles, 0.0, atol=1e-9)
        assert eqs[0].force.fx == 0.0
        assert eqs[0].force.fy == 0.0
        assert eqs[0].strain_energy == pytest.approx(0.0, abs=1e-18)

    def test_zero_deflection_returns_relaxed_shape(self):
        chain = u_plus_chain()
        eqs = three_link_equilibria(chain, relaxed(U_PLUS_REFS), 0.0)
        assert eqs[0].strain_energy == pytest.approx(0.0, abs=1e-12)
        assert eqs[0].force.fx == pytest.approx(0.0, abs=1e-8)
        assert eqs[0].force.fy == pytest.approx(0.0, abs=1e-8)
        np.testing.assert_allclose(
            eqs[0].configuration.angles, U_PLUS_REFS, atol=1e-8
        )

    def test_unreachable_deflection(self):
        chain = u_plus_chain()
        with pytest.raises(UnreachableTargetError):
            three_link_equilibria(chain, relaxed(U_PLUS_REFS), 9.0)

    def test_requires_three_links(self):
        chain = ChainModel([1.0] * 4, [1.0] * 4)
        q = np.zeros(4)
        with pytest.raises(ValueError, match="needs a three-link chain, got 4 links"):
            three_link_equilibria(chain, relaxed(q), 0.1)

    @pytest.mark.parametrize("delta", [-0.1, math.nan])
    def test_rejects_a_deflection_that_is_negative_or_not_finite(self, delta):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            three_link_equilibria(u_plus_chain(), relaxed(U_PLUS_REFS), delta)

    def test_tip_at_the_base(self):
        """At delta = x0 the three unit links close into a triangle over
        every first-joint angle (the full-circle arc). Joint 1 then carries
        no torque, so each of the two triangles is stable with q1 at its
        reference and q2 = q3 = +-2 pi/3."""
        chain = ChainModel([1.0, 1.0, 1.0], [1.0, 1.0, 1.0])
        cfg = self.on_axis(chain, (0.3, 0.5, -0.4))
        x0 = forward_kinematics(chain, cfg.angles).x
        assert sweep_module._feasible_arcs(chain.link_lengths, 0.0, 0.0) == [(-math.pi, math.pi)]
        stable = [e for e in three_link_equilibria(chain, cfg, x0) if e.stability == "stable"]
        assert len(stable) == 2
        turns = sorted(e.configuration.angles[1] for e in stable)
        assert turns == pytest.approx([-2.0 * math.pi / 3.0, 2.0 * math.pi / 3.0], abs=1e-12)
        for e in stable:
            q = e.configuration.angles
            assert q[0] == pytest.approx(cfg.angles[0], abs=1e-12)
            assert q[2] == pytest.approx(q[1], abs=1e-12)
            assert e.residual_norm < 1e-12

    def test_requires_relaxed_start(self):
        chain = u_plus_chain()
        cfg = Configuration(
            np.asarray(U_PLUS_REFS) + 0.01, np.asarray(U_PLUS_REFS)
        )
        with pytest.raises(ValueError):
            three_link_equilibria(chain, cfg, 0.1)

    def test_snaps_a_shape_rounded_off_the_axis(self):
        """A relaxed shape whose tip is off the axis, as a shape tabulated to
        four decimals is, is snapped as a sweep snaps it: the same points as
        from the snapped shape, each with its tip on the axis."""
        chain = u_plus_chain()
        rounded = relaxed((0.8573, -0.7854, -1.0472))
        assert abs(forward_kinematics(chain, rounded.angles).y) > 1e-5
        snapped = relaxed(sweep_module._snap_to_axis(chain, rounded, (1, -1))[0])
        eqs = three_link_equilibria(chain, rounded, 0.3)
        assert len(eqs) == 4
        for got, want in zip(eqs, three_link_equilibria(chain, snapped, 0.3), strict=True):
            np.testing.assert_array_equal(got.configuration.angles, want.configuration.angles)
            assert (got.force, got.strain_energy) == (want.force, want.strain_energy)
            assert forward_kinematics(chain, got.configuration.angles).y == pytest.approx(
                0.0, abs=1e-12)

    def test_rejects_a_shape_too_far_off_the_axis_to_snap(self):
        with pytest.raises(ValueError, match="too far off") as info:
            three_link_equilibria(u_plus_chain(), relaxed((0.9, -0.2, -0.3)), 0.1)
        assert "sweep" not in str(info.value)


class TestSweepRequest:
    def test_rejects_two_link_chain(self):
        chain = ChainModel([1.0, 1.0], [0.0, 1.0])
        with pytest.raises(ValueError):
            SweepRequest(chain, relaxed([0.0, 0.0]), 0.1, 5)

    def test_rejects_single_step(self):
        with pytest.raises(ValueError):
            SweepRequest(u_plus_chain(), relaxed(U_PLUS_REFS), 0.1, 1)

    def test_rejects_bad_branch_policy(self):
        with pytest.raises(ValueError):
            SweepRequest(
                u_plus_chain(), relaxed(U_PLUS_REFS), 0.1, 5, branch_policy="up"
            )

    def test_rejects_deflection_past_endpoint(self):
        with pytest.raises(ValueError):
            SweepRequest(u_plus_chain(), relaxed(U_PLUS_REFS), 2.5, 5)

    def test_rejects_negative_seeds(self):
        with pytest.raises(ValueError):
            SweepRequest(u_plus_chain(), relaxed(U_PLUS_REFS), 0.1, 5, seeds=-1)

    @pytest.mark.parametrize("delta_max", [0.0, math.inf])
    def test_rejects_a_deflection_that_is_not_positive_and_finite(self, delta_max):
        with pytest.raises(ValueError, match="positive and finite"):
            SweepRequest(u_plus_chain(), relaxed(U_PLUS_REFS), delta_max, 5)

    @pytest.mark.parametrize("counts", [
        {"steps": 2.9}, {"steps": 5.0}, {"steps": "5"}, {"steps": True},
        {"seeds": 0.9}, {"seeds": True}, {"seeds": "2"},
    ])
    def test_rejects_counts_that_are_not_whole_numbers(self, counts):
        name = next(iter(counts))
        with pytest.raises(ValueError, match=f"{name} must be a whole number"):
            SweepRequest(u_plus_chain(), relaxed(U_PLUS_REFS), 0.1, **{"steps": 5, **counts})

    def test_accepts_numpy_integer_counts(self):
        req = SweepRequest(u_plus_chain(), relaxed(U_PLUS_REFS), 0.1, np.int64(5),
                           seeds=np.int64(2))
        assert (req.steps, req.seeds) == (5, 2)
        assert type(req.steps) is int and type(req.seeds) is int

    def test_branches_follow_policy(self):
        req = SweepRequest(u_plus_chain(), relaxed(U_PLUS_REFS), 0.1, 5)
        assert req.branches == (1, -1)
        req = SweepRequest(
            u_plus_chain(), relaxed(U_PLUS_REFS), 0.1, 5, branch_policy="negative"
        )
        assert req.branches == (-1,)


class TestSweep:
    @pytest.mark.parametrize("drop_ratio", [0.0, 1.0, 7.0])
    def test_rejects_a_drop_ratio_out_of_range_before_it_sweeps(self, drop_ratio):
        # two steps give too few points for quasi-buckling detection, which
        # would otherwise be the first to look at the ratio
        req = SweepRequest(u_plus_chain(), relaxed(U_PLUS_REFS), 0.2, 2, seeds=0)
        with pytest.raises(ValueError, match="drop_ratio"):
            sweep_force_deflection(req, drop_ratio=drop_ratio)

    def test_starts_at_rest(self):
        req = SweepRequest(u_plus_chain(), relaxed(U_PLUS_REFS), 0.4, 5, seeds=1)
        result = sweep_force_deflection(req)
        first = result.points[0]
        assert first.deflection.delta_x == 0.0
        assert first.strain_energy == pytest.approx(0.0, abs=1e-15)
        assert first.force.fx == 0.0
        assert first.force.fy == 0.0
        np.testing.assert_allclose(
            first.configuration.angles, U_PLUS_REFS, atol=1e-9
        )

    def test_path_properties(self):
        req = SweepRequest(u_plus_chain(), relaxed(U_PLUS_REFS), 0.8, 9, seeds=2)
        result = sweep_force_deflection(req)
        assert len(result.points) == 9
        deltas = [p.deflection.delta_x for p in result.points]
        assert deltas == sorted(deltas)
        energies = [p.strain_energy for p in result.points]
        assert all(b >= a - 1e-12 for a, b in zip(energies, energies[1:]))
        assert all(p.stability == "stable" for p in result.points)
        assert len(result.branch_log) == 9
        assert result.truncation is None
        for p in result.points:
            r = equilibrium_residual(u_plus_chain(), p.configuration, p.force)
            assert np.linalg.norm(r) < 1e-6

    def test_energy_force_consistency(self):
        # the axial force is the slope of strain energy versus deflection,
        # so the trapezoid rule over the path must recover the energy gain
        req = SweepRequest(u_plus_chain(), relaxed(U_PLUS_REFS), 0.5, 41, seeds=0)
        result = sweep_force_deflection(req)
        deltas = np.array([p.deflection.delta_x for p in result.points])
        fx = np.array([p.force.fx for p in result.points])
        # the trapezoid rule written out: np.trapezoid needs numpy >= 2.0
        work = (np.diff(deltas) * (fx[1:] + fx[:-1]) / 2.0).sum()
        gain = result.points[-1].strain_energy - result.points[0].strain_energy
        assert work == pytest.approx(gain, rel=1e-2)

    def test_seedless_sweep_is_pure_continuation(self):
        req = SweepRequest(u_plus_chain(), relaxed(U_PLUS_REFS), 0.4, 6, seeds=0)
        result = sweep_force_deflection(req)
        assert all(rec.restart == 0 for rec in result.branch_log)
        assert all(rec.note == "" for rec in result.branch_log)

    def test_near_straight_chain_folds(self):
        """A barely bent chain collapses into a deep fold under compression.

        The sign-change count of the joint angles drops from 2 to 1 as the
        shape leaves the initial family, and the stiffness collapse leaves
        at least one quasi-buckling marker.
        """
        chain = u_plus_chain()
        req = SweepRequest(chain, relaxed(NEAR_STRAIGHT_REFS), 1.2, 25, seeds=2)
        result = sweep_force_deflection(req, seed=0)

        def changes(q):
            signs = np.sign(q[np.abs(q) > 1e-6])
            return int(np.sum(signs[:-1] != signs[1:]))

        counts = [changes(p.configuration.angles) for p in result.points]
        assert counts[0] == 2
        assert counts[-1] == 1
        assert len(result.quasi_buckling_markers) >= 1
        energies = [p.strain_energy for p in result.points]
        assert all(b >= a - 1e-12 for a, b in zip(energies, energies[1:]))

    def test_truncates_when_path_dies(self):
        # no shape of links (4, 1, 1, 1) reaches closer than 4 - 3 = 1 to
        # the base; the path is followed up to that wall and stops there
        chain = ChainModel([4.0, 1.0, 1.0, 1.0], [1.0] * 4)
        start = close_chain(chain, [0.1, -0.1], PlanarPoint(4.1, 0.0), +1)
        req = SweepRequest(chain, relaxed(start), 3.8, 10, seeds=2)
        result = sweep_force_deflection(req, seed=0)
        assert result.truncation is not None
        grid = np.linspace(0.0, 3.8, 10)
        assert result.truncation.delta_x == pytest.approx(grid[len(result.points)])
        assert 0 < len(result.points) < 10
        last = result.points[-1].deflection.delta_x
        assert last < result.truncation.delta_x
        assert result.truncation.reason == NO_CLOSURE
        assert 4.1 - result.truncation.delta_x < 1.0 < 4.1 - last
        for point in result.points:
            assert point.stability == "stable"
            assert point.residual_norm < 1e-10

    def test_warm_start_projected_past_folding_elbow(self):
        # the path runs towards a folded elbow (q_3 -> -pi), where the
        # previous leading angle no longer closes the chain at the next step;
        # the path step moves every joint, so it stays within reach
        chain = ChainModel([0.9956, 0.7463, 1.3385], [0.7702, 1.7932, 0.7674])
        start = close_chain(chain, [0.1778], PlanarPoint(1.83, 0.0), -1)
        req = SweepRequest(chain, relaxed(start), 0.73, 20, seeds=2)
        result = sweep_force_deflection(req, seed=3)
        assert result.truncation is None
        assert len(result.points) == 20
        assert {rec.restart for rec in result.branch_log} == {0}
        assert {rec.branch for rec in result.branch_log} == {-1}
        for point in result.points:
            assert point.stability == "stable"
            assert point.residual_norm < 1e-10
        folds = [p.configuration.angles[-1] for p in result.points]
        assert all(b < a for a, b in zip(folds, folds[1:]))
        assert abs(math.sin(folds[-1])) < 0.01

    def test_disconnected_lower_minima_become_advisories(self):
        # swept far enough, the folded shape family connected to this start
        # is overtaken by a disconnected one; the path must not jump to it
        chain = ChainModel([1.0] * 4, [1.0] * 4)
        ref = np.array([-0.2417, 0.6821, -0.795745, 0.517015])
        req = SweepRequest(chain, relaxed(ref), 1.5, 16, seeds=4)
        result = sweep_force_deflection(req, seed=1)
        assert result.advisories
        for adv in result.advisories:
            assert adv.alternative_energy < adv.primary_energy - 1e-9
            assert adv.angle_gap > 1e-3
        energies = [p.strain_energy for p in result.points]
        assert all(b >= a - 1e-12 for a, b in zip(energies, energies[1:]))

    def test_boundary_closures_are_not_advisories(self):
        # at delta = 1.3 this lead closes the chain on the closure boundary,
        # with the last two links collinear, below the path's energy; it is
        # no equilibrium, so it must not become an advisory
        chain = ChainModel([1.0] * 4, [1.0] * 4)
        ref = np.array([-0.2417, 0.6821, -0.795745, 0.517015])
        target = PlanarPoint(forward_kinematics(chain, ref).x - 1.3, 0.0)
        lead = [0.6064349101705053, 0.5970408286770328]
        assert close_chain(chain, lead, target, +1)[-1] == 0.0
        energy = reduced_energy(chain, relaxed(ref), lead, target, +1)
        assert energy == pytest.approx(1.28852, abs=1e-5)

        req = SweepRequest(chain, relaxed(ref), 1.5, 16, seeds=4)
        result = sweep_force_deflection(req, seed=1)
        assert result.advisories
        assert not [
            adv for adv in result.advisories
            if abs(adv.alternative_energy - energy) < 1e-4
        ]

    @pytest.mark.parametrize("shape", [
        (-0.3179, 0.0558, 0.3804, 0.3524),
        (-0.2417, 0.6821, -0.7958, 0.5170),
    ])
    def test_mirror_symmetry(self, shape):
        # q -> -q reflects the chain in the sweep axis: same fx, negated fy
        chain = ChainModel([1.0] * 4, [1.0] * 4)
        runs = [
            sweep_force_deflection(
                SweepRequest(chain, relaxed(sign * np.asarray(shape)), 0.6, 30, seeds=0)
            )
            for sign in (1.0, -1.0)
        ]
        plain, mirror = (run.points for run in runs)
        assert len(plain) == len(mirror) == 30
        for a, b in zip(plain, mirror):
            assert b.force.fx == pytest.approx(a.force.fx, abs=1e-9)
            assert b.force.fy == pytest.approx(-a.force.fy, abs=1e-9)
            np.testing.assert_allclose(
                b.configuration.angles, -a.configuration.angles, atol=1e-9
            )

    def test_rejects_preloaded_start(self):
        chain = u_plus_chain()
        cfg = Configuration(
            np.asarray(U_PLUS_REFS) + 0.02, np.asarray(U_PLUS_REFS)
        )
        with pytest.raises(ValueError):
            sweep_force_deflection(SweepRequest(chain, cfg, 0.2, 5))

    def test_rejects_off_axis_start(self):
        chain = u_plus_chain()
        bent = np.array([0.9, -0.2, -0.3])
        with pytest.raises(ValueError):
            sweep_force_deflection(SweepRequest(chain, relaxed(bent), 0.2, 5))

    def test_rejects_a_policy_that_excludes_the_relaxed_elbow(self):
        # TABLE_U ends on the positive elbow (sin q4 > 0)
        chain = ChainModel([1.0] * 4, [1.0] * 4)
        u = relaxed((-0.3179, 0.0558, 0.3804, 0.3524))
        request = SweepRequest(chain, u, 0.6, 5, branch_policy="negative", seeds=0)
        with pytest.raises(ValueError, match="could not reproduce the unloaded shape"):
            sweep_force_deflection(request)

    def test_deterministic_for_fixed_seed(self):
        req = SweepRequest(u_plus_chain(), relaxed(U_PLUS_REFS), 0.5, 6, seeds=2)
        a = sweep_force_deflection(req, seed=3)
        b = sweep_force_deflection(req, seed=3)
        for pa, pb in zip(a.points, b.points):
            assert pa.force.fx == pb.force.fx
            assert pa.strain_energy == pb.strain_energy
            np.testing.assert_array_equal(
                pa.configuration.angles, pb.configuration.angles
            )

    @pytest.mark.parametrize("index, delta, note", [
        (2, 3.2605, "no warm equilibrium; continued from a restart"),
        (30, 0.2173, "degenerate stability"),
        (248, 3.6135, "strain energy decreased by 0.00401"),
    ])
    def test_branch_log_note_texts(self, index, delta, note):
        """Chains of a survey of random bent chains (default_rng(0), each
        swept to 0.8 x0 in 20 steps with seeds=2 and seed=its index, the
        branch policy cycling by index) whose branch logs hold one note."""
        rng = np.random.default_rng(0)
        for _ in range(index + 1):
            n = int(rng.integers(3, 6))
            lengths, springs = rng.uniform(0.5, 1.5, n), rng.uniform(0.5, 2.0, n)
            if rng.random() < 0.3:
                springs[0] = 0.0
            angles = rng.uniform(-1.2, 1.2, n)
        chain = ChainModel(lengths, springs)
        config = TestThreeLinkEquilibria.on_axis(chain, angles)
        x0 = forward_kinematics(chain, config.angles).x
        policy = ("both", "positive", "negative")[index % 3]
        request = SweepRequest(chain, config, 0.8 * x0, 20, policy, seeds=2)
        log = sweep_force_deflection(request, seed=index).branch_log
        noted = [(record.delta_x, record.note) for record in log if record.note]
        assert len(noted) == 1
        assert noted[0][0] == pytest.approx(delta, abs=1e-4)
        assert noted[0][1] == note


class TestNewtonMinimize:
    def test_slide_onto_closure_boundary_stops_early(self, monkeypatch):
        # on the branch opposite the path the descent slides onto the
        # closure boundary (q_4 -> 0); it is given up at the first iterate
        # within |sin q_4| < 0.05 instead of running on towards q_4 = 0
        chain = ChainModel([1.0] * 4, [1.0] * 4)
        ref = np.array([-0.3179, 0.0558, 0.3804, 0.3524])
        tx = forward_kinematics(chain, ref).x - 0.1
        sines = []
        derivatives = sweep_module._derivatives

        def recorded(stiffness, reference, full, jac):
            sines.extend(np.abs(np.sin(full[:, -1])))
            return derivatives(stiffness, reference, full, jac)

        monkeypatch.setattr(sweep_module, "_derivatives", recorded)
        assert descend(chain, tuple(ref), ref[:2], tx, -1) is None
        assert sines[-1] < 0.05 <= min(sines[:-1])
        assert all(b < a for a, b in zip(sines, sines[1:]))

    def test_descent_leaving_closure_boundary_is_kept(self):
        # the start lies within |sin q_4| < 0.05 with negative curvature,
        # but the descent moves away from the boundary to a stable minimum
        chain = ChainModel(
            [0.7332, 0.9476, 0.6706, 0.9579], [1.2415, 1.6765, 0.6636, 1.0953]
        )
        ref = (0.5611, -0.3235, 0.6724, 0.4368)
        lead = np.array([-0.7208, 1.6736])
        start = close_chain(chain, lead, PlanarPoint(1.0757, 0.0), +1)
        assert abs(math.sin(start[-1])) < 0.05
        jac, reference = jacobian(chain, start), np.asarray(ref)
        force, _, _, tau = sweep_module._derivatives(chain.joint_stiffness, reference, start, jac)
        residual = jac.T @ force + tau
        assert sweep_module._settled(chain, reference, start, jac, force, residual).margin < 0.0

        solve = descend(chain, ref, lead, 1.0757, +1)
        assert solve is not None
        assert (solve.stability, solve.degenerate) == ("stable", False)
        assert np.linalg.norm(solve.residual) < 1e-12
        assert abs(math.sin(solve.full[-1])) > 0.5


@st.composite
def descent_stacks(draw):
    """A chain with spring references and m starts of the reduced descent:
    leading angles within pi/2 of the references, targets between 0.2 and
    0.95 of the chain's length from the base, either elbow."""
    n = draw(st.integers(3, 5))
    lengths = draw(st.lists(st.floats(0.6, 1.4), min_size=n, max_size=n))
    stiffness = draw(st.lists(st.floats(0.5, 2.0), min_size=n, max_size=n))
    reference = np.array(draw(st.lists(st.floats(-0.8, 0.8), min_size=n, max_size=n)))
    m = draw(st.integers(1, 8))
    offset = st.lists(st.floats(-0.5 * math.pi, 0.5 * math.pi), min_size=n - 2, max_size=n - 2)
    offsets = draw(st.lists(offset, min_size=m, max_size=m))
    reach = draw(st.lists(st.floats(0.2, 0.95), min_size=m, max_size=m))
    branch = draw(st.lists(st.sampled_from((1, -1)), min_size=m, max_size=m))
    chain = ChainModel(lengths, stiffness)
    lead = reference[: n - 2] + np.array(offsets)
    return chain, reference, lead, chain.total_length * np.array(reach), np.array(branch)


@settings(max_examples=40, deadline=None)
@given(descent_stacks())
def test_stacked_descents_match_one_row_descents(case):
    """Rows descended together end where each ends alone."""
    chain, reference, lead, tx, branch = case
    together = _minimize_stack(chain, reference, lead, tx, branch)
    alone = [descend(chain, reference, *row) for row in zip(lead, tx, branch)]
    assert [s is None for s in together] == [s is None for s in alone]
    for a, b in zip(together, alone):
        if a is not None:
            np.testing.assert_allclose(a.full, b.full, rtol=0.0, atol=1e-12)


def test_restart_offsets_are_the_per_step_draws():
    """Drawn at once, the offsets are the numbers a draw per step gave."""
    for seed, steps, seeds, width in [(0, 6, 3, 2), (7, 4, 1, 1), (3, 5, 8, 4), (1, 3, 0, 2)]:
        rng = np.random.default_rng(seed)
        per_step = [
            [rng.uniform(-0.5 * math.pi, 0.5 * math.pi, width) for _ in range(seeds)]
            for _ in range(steps)
        ]
        np.testing.assert_array_equal(
            _restart_offsets(seed, steps, seeds, width),
            np.reshape(per_step, (steps, seeds, width)),
        )


def test_jacobian_column_structure_supports_reduction():
    # the trailing two columns of the Jacobian are generically independent,
    # which is what lets the closure eliminate exactly two angles
    chain = u_plus_chain()
    jac = jacobian(chain, np.asarray(U_PLUS_REFS))
    assert np.linalg.matrix_rank(jac[:, 1:]) == 2
