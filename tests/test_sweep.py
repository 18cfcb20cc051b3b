import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elastichain import (
    ChainModel,
    Configuration,
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
    _closed_energy,
    _minimize_stack,
    _newton_minimize,
    _restart_offsets,
)

# unloaded shape of the three-link chain with spring references
# (-pi/4, -pi/3) at the two active joints, solved so the tip sits on the axis
U_PLUS_BASE = 0.8572772586
U_PLUS_REFS = (U_PLUS_BASE, -math.pi / 4, -math.pi / 3)

# nearly straight three-link shape with references (pi/10, -pi/10)
NEAR_STRAIGHT_BASE = -0.1043337889
NEAR_STRAIGHT_REFS = (NEAR_STRAIGHT_BASE, math.pi / 10, -math.pi / 10)


def u_plus_chain():
    return ChainModel([1.0, 1.0, 1.0], [0.0, 1.0, 1.0])


def relaxed(angles):
    a = np.asarray(angles, dtype=float)
    return Configuration(a, a)


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
        first-joint angle as a one-column lead, against _closed_energy."""
        rng = np.random.default_rng(5)
        for _ in range(40):
            lengths = tuple(rng.uniform(0.5, 1.5, 3))
            stiffness = tuple(rng.uniform(0.0, 2.0, 3))
            reference = tuple(rng.uniform(-3.0, 3.0, 3))
            tx = float(rng.uniform(-0.5, 3.0))
            phis = rng.uniform(-math.pi, math.pi, 200)
            branches = rng.choice([-1, 1], 200)
            grid, _ = _closed_energies(lengths, stiffness, reference, phis[:, None], tx, branches)
            for phi, branch, value in zip(phis, branches, grid):
                energy, _ = _closed_energy(
                    lengths, stiffness, reference, [float(phi)], tx, 0.0, int(branch)
                )
                if math.isinf(energy):
                    assert math.isinf(value)
                else:
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
        with pytest.raises(ValueError):
            three_link_equilibria(chain, relaxed(q), 0.1)

    def test_requires_relaxed_start(self):
        chain = u_plus_chain()
        cfg = Configuration(
            np.asarray(U_PLUS_REFS) + 0.01, np.asarray(U_PLUS_REFS)
        )
        with pytest.raises(ValueError):
            three_link_equilibria(chain, cfg, 0.1)


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

    def test_branches_follow_policy(self):
        req = SweepRequest(u_plus_chain(), relaxed(U_PLUS_REFS), 0.1, 5)
        assert req.branches == (1, -1)
        req = SweepRequest(
            u_plus_chain(), relaxed(U_PLUS_REFS), 0.1, 5, branch_policy="negative"
        )
        assert req.branches == (-1,)


class TestSweep:
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
        work = np.trapezoid(fx, deltas)
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
        assert _newton_minimize(chain, tuple(ref), ref[:2], tx, -1) is None
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
        hessian = sweep_module._reduced_derivatives(chain, np.asarray(ref), start)[2]
        assert np.linalg.eigvalsh(hessian)[0] < 0.0

        solve = _newton_minimize(chain, ref, lead, 1.0757, +1)
        assert solve is not None
        assert classify_stability(solve.hessian) == ("stable", False)
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
    alone = [_newton_minimize(chain, reference, *row) for row in zip(lead, tx, branch)]
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
