import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elastichain import (
    ChainModel,
    DegenerateModeError,
    DegenerateModelError,
    DimensionMismatchError,
    buckling_modes,
    build_reach_matrices,
    build_system,
    classify_shape,
    critical_force,
    energy_factor,
    equilibrium_residual,
    mode_equilibrium_snapshot,
    recover_force,
)


def test_reach_matrices_example():
    s1, s0 = build_reach_matrices(ChainModel([2.0, 1.0, 3.0], [1.0, 1.0, 1.0]))
    np.testing.assert_allclose(
        s1, [[-6.0, -4.0, -3.0], [-4.0, -4.0, -3.0], [-3.0, -3.0, -3.0]]
    )
    np.testing.assert_allclose(s0, [6.0, 4.0, 3.0])


def test_reach_matrices_unit_links():
    s1, s0 = build_reach_matrices(ChainModel([1.0, 1.0], [0.0, 1.0]))
    np.testing.assert_allclose(s1, [[-2.0, -1.0], [-1.0, -1.0]])
    np.testing.assert_allclose(s0, [2.0, 1.0])


def test_reach_matrices_four_unit_links():
    s1, s0 = build_reach_matrices(ChainModel([1.0] * 4, [1.0] * 4))
    expected = -np.minimum.outer(np.arange(4, 0, -1), np.arange(4, 0, -1))
    np.testing.assert_allclose(s1, expected)
    np.testing.assert_allclose(s0, [4.0, 3.0, 2.0, 1.0])


def test_build_system_block_layout():
    chain = ChainModel([1.0, 1.0], [0.0, 1.0])
    system = build_system(chain)
    n = chain.n
    np.testing.assert_allclose(system.a[:n, :n], system.s1)
    np.testing.assert_allclose(system.a[:, n], np.zeros(n + 1))
    np.testing.assert_allclose(system.a[n, :], np.zeros(n + 1))
    np.testing.assert_allclose(system.b[:n, :n], np.diag([0.0, 1.0]))
    np.testing.assert_allclose(system.b[:n, n], system.s0)
    np.testing.assert_allclose(system.b[n, :n], system.s0)
    assert system.b[n, n] == 0.0
    assert np.linalg.det(system.b) == pytest.approx(-4.0)


def test_build_system_singular_stiffness_pattern():
    # constructible chain (one active joint) whose pencil matrix is singular
    chain = ChainModel([1.0, 1.0, 1.0], [0.0, 0.0, 1.0])
    with pytest.raises(DegenerateModelError):
        build_system(chain)


@pytest.mark.parametrize("solve", [buckling_modes, critical_force])
def test_two_passive_joints_are_degenerate(solve):
    with pytest.raises(DegenerateModelError):
        solve(ChainModel([1.0, 1.0, 1.0], [0.0, 0.0, 1.0]))


def hencky(n):
    """n links of length 1/n with stiffness n: a unit bar of unit EI."""
    return ChainModel([1.0 / n] * n, [float(n)] * n)


def pencil_residuals(chain, modes):
    """|a v - lambda b v| / (|a v| + |lambda| |b v|) of each mode."""
    system = build_system(chain)
    v = np.array([m.mode_vector for m in modes]).T
    lam = np.array([m.eigenvalue for m in modes])
    av, bv = system.a @ v, system.b @ v
    scale = np.linalg.norm(av, axis=0) + np.abs(lam) * np.linalg.norm(bv, axis=0)
    return np.linalg.norm(av - lam * bv, axis=0) / scale


@st.composite
def small_chains(draw):
    n = draw(st.integers(2, 12))
    unit = st.floats(0.5, 2.0)
    stiffness = draw(st.lists(unit, min_size=n, max_size=n))
    if draw(st.booleans()):
        stiffness[0] = 0.0
    return ChainModel(draw(st.lists(unit, min_size=n, max_size=n)), stiffness)


@settings(max_examples=80, deadline=None)
@given(small_chains())
def test_every_mode_satisfies_the_pencil(chain):
    assert np.max(pencil_residuals(chain, buckling_modes(chain))) <= 1e-10


@pytest.mark.parametrize("n", [100, 200])
def test_long_chain_modes_satisfy_the_pencil(n):
    chain = hencky(n)
    assert np.max(pencil_residuals(chain, buckling_modes(chain))) <= 1e-10


def test_hencky_chains_converge_to_the_clamped_pinned_euler_load():
    # the clamped-pinned column buckles at beta^2 EI / L^2 with tan(beta) = beta
    beta = 4.5
    for _ in range(50):
        beta -= (math.tan(beta) - beta) / math.tan(beta) ** 2
    assert beta * beta == pytest.approx(20.1907, abs=1e-4)
    sizes = [50, 100, 200, 400]
    forces = [critical_force(hencky(n)) for n in sizes]
    assert all(np.diff(forces) > 0.0)
    assert all(f < beta * beta for f in forces)
    for coarse, fine in zip(forces[1:], forces[2:]):
        assert abs(2.0 * fine - coarse - beta * beta) < 1e-3


def test_localized_mode_matches_extended_precision_reference():
    # a chain of the c07 family whose highest mode decays toward the base;
    # the reference solves build_system's pencil with 40-digit arithmetic
    chain = ChainModel(
        [7.1677066457827365, 3.0159897632738724, 7.059856944821553,
         0.7408374389747823, 9.03742481412635, 5.753031201299063,
         8.73855765097321, 1.700422119252233, 3.172036250345554],
        [7.3992754068025155, 1.074911404880663, 8.13350295212529,
         3.976608555937571, 3.1347060261231476, 2.0252793654666856,
         0.26806460955806743, 8.060995087818428, 9.114034246175716],
    )
    reference = [
        -1.6510628177139927e-09, 1.2416738969173066e-07, -5.355125152087719e-07,
        7.814342985750092e-06, -1.1341092978719884e-05, 0.00019606492586026852,
        -0.04862011447885298, 0.6362883102631924, -0.7699176787547048,
        2.633705132805925e-10,
    ]
    mode = buckling_modes(chain)[-1]
    assert mode.eigenvalue == pytest.approx(-0.082298407072920920, rel=1e-12)
    np.testing.assert_allclose(mode.mode_vector, reference, rtol=0.0, atol=1e-14)
    assert mode.shape_label == "Z"


class TestBucklingModes:
    def test_two_link_single_mode(self):
        chain = ChainModel([1.0, 1.0], [0.0, 1.0])
        modes = buckling_modes(chain)
        assert len(modes) == 1
        mode = modes[0]
        assert mode.eigenvalue == pytest.approx(-0.5, abs=1e-12)
        assert mode.axial_force == pytest.approx(2.0, abs=1e-12)
        assert mode.shape_label == "U"
        assert mode.is_primary
        np.testing.assert_allclose(
            mode.mode_vector,
            [-1.0 / math.sqrt(5.0), 2.0 / math.sqrt(5.0), 0.0],
            atol=1e-12,
        )

    def test_four_link_spectrum(self):
        modes = buckling_modes(ChainModel([1.0] * 4, [1.0] * 4))
        assert len(modes) == 3
        lam = [m.eigenvalue for m in modes]
        np.testing.assert_allclose(
            lam, [-1.0822187664, -0.4337157194, -0.2840655142], atol=1e-9
        )
        assert [m.shape_label for m in modes] == ["U", "ZU(2)", "Z"]
        assert [m.is_primary for m in modes] == [True, False, False]

    def test_modes_sorted_by_descending_magnitude(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            n = int(rng.integers(2, 8))
            chain = ChainModel(rng.uniform(0.3, 3.0, n), rng.uniform(0.2, 4.0, n))
            modes = buckling_modes(chain)
            mags = [abs(m.eigenvalue) for m in modes]
            assert mags == sorted(mags, reverse=True)

    def test_mode_vectors_are_canonical(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            n = int(rng.integers(2, 8))
            chain = ChainModel(rng.uniform(0.3, 3.0, n), rng.uniform(0.2, 4.0, n))
            for mode in buckling_modes(chain):
                v = mode.mode_vector
                assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
                angles = v[:n]
                lead = angles[np.abs(angles) > 1e-9][0]
                assert lead < 0.0

    def test_critical_force_is_smallest(self):
        chain = ChainModel([1.0] * 4, [1.0] * 4)
        modes = buckling_modes(chain)
        assert critical_force(chain) == pytest.approx(modes[0].axial_force)
        assert modes[0].axial_force == min(m.axial_force for m in modes)

    def test_scaling_covariance(self):
        # doubling stiffness doubles forces; doubling lengths halves them
        base = ChainModel([1.0, 2.0, 1.5], [1.0, 0.5, 2.0])
        f0 = critical_force(base)
        stiffer = ChainModel([1.0, 2.0, 1.5], [2.0, 1.0, 4.0])
        assert critical_force(stiffer) == pytest.approx(2.0 * f0, rel=1e-9)
        longer = ChainModel([2.0, 4.0, 3.0], [1.0, 0.5, 2.0])
        assert critical_force(longer) == pytest.approx(0.5 * f0, rel=1e-9)

    def test_passive_base_joint_matches_two_link_mechanism(self):
        # a passive base joint turns the chain into the hinged mechanism
        chain = ChainModel([1.0, 1.0], [0.0, 1.0])
        assert critical_force(chain) == pytest.approx(2.0, abs=1e-12)


class TestEnergyFactor:
    def test_three_link_primary(self):
        chain = ChainModel([1.0, 1.0, 1.0], [0.0, 1.0, 1.0])
        modes = buckling_modes(chain)
        assert energy_factor(modes[0], chain) == pytest.approx(1.0, rel=1e-12)
        assert energy_factor(modes[1], chain) == pytest.approx(3.0, rel=1e-12)

    def test_equals_negative_inverse_eigenvalue(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            k = rng.uniform(0.1, 5.0, n)
            if rng.random() < 0.3:
                k[0] = 0.0
            chain = ChainModel(rng.uniform(0.2, 4.0, n), k)
            for mode in buckling_modes(chain):
                assert energy_factor(mode, chain) == pytest.approx(
                    -1.0 / mode.eigenvalue, rel=1e-9
                )

    def test_invariant_under_mode_scaling(self):
        chain = ChainModel([1.0] * 4, [1.0] * 4)
        mode = buckling_modes(chain)[1]
        scaled = dataclasses.replace(mode, mode_vector=7.0 * mode.mode_vector)
        assert energy_factor(scaled, chain) == pytest.approx(
            energy_factor(mode, chain), rel=1e-12
        )

    def test_zero_direction_is_degenerate(self):
        chain = ChainModel([1.0, 1.0, 1.0], [0.0, 1.0, 1.0])
        mode = buckling_modes(chain)[0]
        dead = dataclasses.replace(mode, mode_vector=np.zeros(4))
        with pytest.raises(DegenerateModeError):
            energy_factor(dead, chain)


def _loop_label(v):
    """Shape label by an explicit loop over the entries."""
    norm = math.sqrt(sum(x * x for x in v))
    if norm == 0.0 or any(abs(x) <= 1e-9 * norm for x in v):
        return "unclassified"
    changes = sum((a > 0.0) != (b > 0.0) for a, b in zip(v, v[1:]))
    return "U" if changes == 1 else "Z" if changes == len(v) - 1 else f"ZU({changes})"


def test_columnwise_labels_and_factors_match_a_loop():
    rng = np.random.default_rng(37)
    for _ in range(20):
        n = int(rng.integers(2, 12))
        chain = ChainModel(rng.uniform(0.5, 2.0, n), rng.uniform(0.5, 2.0, n))
        for mode in buckling_modes(chain):
            v = mode.mode_vector[:n].tolist()
            partial = np.cumsum(v)
            factor = sum(k * x * x for k, x in zip(chain.joint_stiffness, v)) / sum(
                length * p * p for length, p in zip(chain.link_lengths, partial)
            )
            assert mode.shape_label == _loop_label(v)
            assert mode.energy_factor == pytest.approx(factor, rel=1e-12)
            assert next(x for x in v if abs(x) > 1e-9) < 0.0


class TestClassifyShape:
    def test_single_change_is_u(self):
        assert classify_shape(np.array([1.0, -0.5, -0.5])) == "U"

    def test_alternating_is_z(self):
        assert classify_shape(np.array([-0.2, 0.571, -0.662])) == "Z"

    def test_intermediate_counts(self):
        assert classify_shape(np.array([-0.386, 0.601, 0.203, -0.663])) == "ZU(2)"

    def test_two_joint_vector_prefers_u(self):
        # one change is both s = 1 and s = n - 1; the U rule wins
        assert classify_shape(np.array([-0.447, 0.894])) == "U"

    def test_near_zero_component_unclassified(self):
        assert classify_shape(np.array([0.7, 1e-12, -0.7])) == "unclassified"

    def test_no_sign_change_keeps_count_label(self):
        assert classify_shape(np.array([0.5, 0.5, 0.5])) == "ZU(0)"

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_an_entry_that_is_not_finite(self, bad):
        """[nan, 1.0] was labelled "U"."""
        with pytest.raises(ValueError, match="finite"):
            classify_shape([bad, 1.0])


class TestModeSnapshot:
    def test_linearized_residual_is_small(self):
        chain = ChainModel([1.0] * 4, [1.0] * 4)
        for mode in buckling_modes(chain):
            snap = mode_equilibrium_snapshot(mode, chain, 0.01)
            assert snap.residual_norm < 1e-12

    def test_nonlinear_force_recovery_agrees(self):
        chain = ChainModel([1.0] * 4, [1.0] * 4)
        mode = buckling_modes(chain)[0]
        snap = mode_equilibrium_snapshot(mode, chain, 0.005)
        force, _ = recover_force(chain, snap.configuration)
        assert force.fx == pytest.approx(mode.axial_force, rel=1e-3)
        assert force.fy == pytest.approx(snap.force.fy, abs=1e-5)

    def test_energy_and_deflection_scale_quadratically(self):
        chain = ChainModel([1.0, 1.0, 1.0], [0.0, 1.0, 1.0])
        mode = buckling_modes(chain)[0]
        small = mode_equilibrium_snapshot(mode, chain, 0.01)
        large = mode_equilibrium_snapshot(mode, chain, 0.02)
        assert large.strain_energy == pytest.approx(4.0 * small.strain_energy)
        assert large.deflection.delta_x == pytest.approx(
            4.0 * small.deflection.delta_x
        )

    def test_zero_amplitude_is_the_straight_chain(self):
        chain = ChainModel([1.0, 1.0, 1.0], [0.0, 1.0, 1.0])
        mode = buckling_modes(chain)[0]
        snap = mode_equilibrium_snapshot(mode, chain, 0.0)
        np.testing.assert_array_equal(snap.configuration.angles, np.zeros(3))
        assert snap.deflection.delta_x == 0.0
        assert snap.strain_energy == 0.0
        assert snap.force.fx == pytest.approx(mode.axial_force)
        assert snap.force.fy == 0.0

    def test_amplitude_envelope_enforced(self):
        chain = ChainModel([1.0, 1.0], [0.0, 1.0])
        mode = buckling_modes(chain)[0]
        with pytest.raises(ValueError):
            mode_equilibrium_snapshot(mode, chain, 0.5)

    @pytest.mark.parametrize("mu", [math.nan, math.inf])
    def test_rejects_a_mu_that_is_not_finite(self, mu):
        """A NaN mu was reported as angles that are not finite."""
        chain = ChainModel([1.0] * 3, [1.0] * 3)
        with pytest.raises(ValueError, match="mu must be finite"):
            mode_equilibrium_snapshot(buckling_modes(chain)[0], chain, mu)

    def test_stability_follows_primary_flag(self):
        chain = ChainModel([1.0] * 4, [1.0] * 4)
        modes = buckling_modes(chain)
        tags = [
            mode_equilibrium_snapshot(m, chain, 0.01).stability for m in modes
        ]
        assert tags == ["stable", "unstable", "unstable"]

    def test_force_direction_flips_with_amplitude_sign(self):
        chain = ChainModel([1.0] * 4, [1.0] * 4)
        mode = buckling_modes(chain)[0]
        plus = mode_equilibrium_snapshot(mode, chain, 0.01)
        minus = mode_equilibrium_snapshot(mode, chain, -0.01)
        assert plus.force.fx == pytest.approx(minus.force.fx)
        assert plus.force.fy == pytest.approx(-minus.force.fy)
        np.testing.assert_allclose(
            plus.configuration.angles, -minus.configuration.angles
        )


@pytest.mark.parametrize("mode_links, chain_links", [(4, 3), (3, 4)])
@pytest.mark.parametrize("use", ["energy_factor", "snapshot"])
def test_rejects_a_mode_of_another_chain(use, mode_links, chain_links):
    """A 4-link mode with a 3-link chain gave an energy factor of 1.3459 and
    a 3-angle snapshot, a 3-link mode with a 4-link chain an IndexError."""
    mode = buckling_modes(ChainModel([1.0] * mode_links, [1.0] * mode_links))[0]
    chain = ChainModel([1.0] * chain_links, [1.0] * chain_links)
    with pytest.raises(DimensionMismatchError):
        if use == "energy_factor":
            energy_factor(mode, chain)
        else:
            mode_equilibrium_snapshot(mode, chain, 0.01)


def test_snapshot_residual_uses_linear_model():
    # the snapshot satisfies the linearized balance, so the audit must use
    # the reach matrices rather than the full Jacobian
    chain = ChainModel([1.0] * 5, [1.0] * 5)
    system = build_system(chain)
    mode = buckling_modes(chain)[0]
    snap = mode_equilibrium_snapshot(mode, chain, 0.01)
    q = snap.configuration.displacement
    r = (
        chain.joint_stiffness * q
        + snap.force.fx * (system.s1 @ q)
        + snap.force.fy * system.s0
    )
    assert np.linalg.norm(r) < 1e-12
    # while the fully nonlinear residual is small but nonzero
    full = equilibrium_residual(chain, snap.configuration, snap.force)
    assert 0.0 < np.linalg.norm(full) < 1e-3
