"""Each independent check accepts the program's real output and rejects a
deliberately perturbed copy of it.

    python3 -m pytest bench/test_checks.py

These tests sit outside the package's test paths, so the tier-1 suite does
not collect them.
"""

from __future__ import annotations

import copy
import dataclasses
import math

import numpy as np
import pytest

import checks
import run
import workloads
from checks import CheckFailed

ec = workloads.import_program()


@pytest.fixture(scope="module")
def table():
    workload = workloads.TableSweep(ec, 1)
    results = workload.operation(0)
    return workload, results, workload.outputs(results)


@pytest.fixture(scope="module")
def ladder():
    workload = workloads.BucklingLadder(ec, 1)
    return workload, workload.operation(0)


@pytest.fixture(scope="module")
def cli():
    workload = workloads.CliCalls(ec, 1)
    return workload, workload.operation(0, in_process=True)


def sweep_args(table, label):
    """delta_max and steps of the table-sweep request behind `label`."""
    request = table[1][label][1]
    return request.delta_max, request.steps


def perturbed(out, **changes):
    twin = copy.deepcopy(out)
    for name, value in changes.items():
        setattr(twin, name, value)
    return twin


# ---------------------------------------------------------------------------
# the benchmark's own mathematics


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(0)
    lengths = rng.uniform(0.5, 2.0, 5)
    q = rng.uniform(-1.0, 1.0, 5)
    h = 1e-6
    fd = np.empty((2, 5))
    for m in range(5):
        e = np.zeros(5)
        e[m] = h
        plus, minus = checks.end_point(lengths, q + e), checks.end_point(lengths, q - e)
        fd[:, m] = (np.subtract(plus, minus)) / (2 * h)
    np.testing.assert_allclose(checks.jacobian(lengths, q), fd, atol=1e-8)


def test_reach_sums_of_unit_links():
    s1, s0 = checks.reach_sums(np.ones(3))
    np.testing.assert_array_equal(s0, [3, 2, 1])
    np.testing.assert_array_equal(s1, [[-3, -2, -1], [-2, -2, -1], [-1, -1, -1]])


def test_euler_load_root():
    value = checks.euler_clamped_pinned()
    beta = math.sqrt(value)
    assert math.tan(beta) == pytest.approx(beta, rel=1e-12)
    assert value == pytest.approx(20.19072856, abs=1e-8)


# ---------------------------------------------------------------------------
# sweeps


def test_table_sweep_outputs_pass(table):
    workload, results, _ = table
    assert workload.check(results) < checks.TORQUE_TOL


def test_angle_moved_by_1e4_is_rejected(table):
    out = table[2]["U"]
    angles = out.angles.copy()
    angles[15, 0] += 1e-4
    with pytest.raises(CheckFailed, match="end-point"):
        checks.check_endpoints(perturbed(out, angles=angles))
    with pytest.raises(CheckFailed):
        checks.check_sweep(perturbed(out, angles=angles), *sweep_args(table, "U"))


def test_torque_balance_rejects_a_wrong_force(table):
    out = table[2]["Z"]
    fx = out.fx.copy()
    fx[20] *= 1.001
    assert checks.torque_residual(out) < checks.TORQUE_TOL
    assert checks.torque_residual(perturbed(out, fx=fx)) > checks.TORQUE_TOL


def test_reported_energy_must_be_the_spring_energy(table):
    out = table[2]["U"]
    energy = out.energy.copy()
    energy[10] += 1e-6
    with pytest.raises(CheckFailed, match="strain energy"):
        checks.check_sweep(perturbed(out, energy=energy), *sweep_args(table, "U"))


def test_energy_work_rejects_a_scaled_force(table):
    out = table[2]["Z"]
    energy = checks.path_energy(out)
    checks.check_energy_work(out.deltas, out.fx, energy)
    with pytest.raises(CheckFailed, match="work"):
        checks.check_energy_work(out.deltas, 1.02 * out.fx, energy)


def test_mirror_rejects_negated_fy(table):
    outs = table[2]
    checks.check_mirror(outs["Z"], outs["-Z"])
    with pytest.raises(CheckFailed, match="fy"):
        checks.check_mirror(outs["Z"], perturbed(outs["-Z"], fy=-outs["-Z"].fy))


def test_smooth_shape_rejects_a_marker_or_a_dip(table):
    out = table[2]["U"]
    with pytest.raises(CheckFailed, match="marker"):
        checks.check_smooth(perturbed(out, markers=[(0.3, 0.05)]))
    fx = out.fx.copy()
    fx[20] = fx[19]
    with pytest.raises(CheckFailed, match="rise"):
        checks.check_smooth(perturbed(out, fx=fx))


def test_collapse_needs_a_marker_and_a_drop(table):
    out = table[2]["Z"]
    with pytest.raises(CheckFailed, match="no marker"):
        checks.check_collapse(perturbed(out, markers=[]))
    straight = np.linspace(0.0, 1.0, out.fx.size)
    with pytest.raises(CheckFailed, match="collapse"):
        checks.check_collapse(perturbed(out, fx=straight))


def test_fold_rejects_a_path_that_keeps_its_family(table):
    out = table[2]["fold"]
    angles = out.angles.copy()
    angles[-1] = angles[0]
    with pytest.raises(CheckFailed, match="sign changes"):
        checks.check_fold(perturbed(out, angles=angles))


def test_snapped_reference_must_match_the_shape(table):
    out = table[2]["Z"]
    reference = out.reference.copy()
    reference[0] += 1e-4
    with pytest.raises(CheckFailed, match="leading angle"):
        checks.check_reference(perturbed(out, reference=reference))


def test_advisories_must_be_lower_and_away(table):
    out = table[2]["Z"]
    energy = checks.path_energy(out)
    i = 25
    good = (out.deltas[i], energy[i], energy[i] - 0.01, 0.5)
    checks.check_advisories(perturbed(out, advisories=[good]), energy)
    for bad, message in (
        ((out.deltas[i], energy[i], energy[i] + 0.01, 0.5), "lower"),
        ((out.deltas[i], energy[i], energy[i] - 0.01, 1e-4), "on the path"),
        ((out.deltas[i], energy[i] + 0.1, energy[i] - 0.01, 0.5), "path energy"),
    ):
        with pytest.raises(CheckFailed, match=message):
            checks.check_advisories(perturbed(out, advisories=[bad]), energy)


# ---------------------------------------------------------------------------
# buckling


def modes_of(results, label):
    for name, chain, modes in results:
        if name == label:
            return chain, modes
    raise KeyError(label)


def test_ladder_outputs_pass(ladder):
    workload, results = ladder
    assert workload.check(results) <= checks.PENCIL_TOL


@pytest.mark.parametrize("label", ["four", "n50", "random0"])
def test_scaled_eigenvalue_is_rejected(ladder, label):
    chain, modes = modes_of(ladder[1], label)
    eigenvalues = np.array([m.eigenvalue for m in modes])
    vectors = np.array([m.mode_vector for m in modes])
    for index in (0, len(modes) - 1):
        scaled = eigenvalues.copy()
        scaled[index] *= 1.001
        with pytest.raises(CheckFailed, match="pencil"):
            checks.check_modes(chain.link_lengths, chain.joint_stiffness, scaled, vectors,
                               -1.0 / scaled)


def test_moved_mode_vector_is_rejected(ladder):
    chain, modes = modes_of(ladder[1], "four")
    eigenvalues = np.array([m.eigenvalue for m in modes])
    vectors = np.array([m.mode_vector for m in modes])
    vectors[0, 1] += 1e-3
    vectors[0] /= np.linalg.norm(vectors[0])
    with pytest.raises(CheckFailed, match="pencil"):
        checks.check_modes(chain.link_lengths, chain.joint_stiffness, eigenvalues, vectors,
                           -1.0 / eigenvalues)


def test_mode_count_and_sign(ladder):
    chain, modes = modes_of(ladder[1], "four")
    eigenvalues = np.array([m.eigenvalue for m in modes])
    vectors = np.array([m.mode_vector for m in modes])
    with pytest.raises(CheckFailed, match="modes for"):
        checks.check_modes(chain.link_lengths, chain.joint_stiffness, eigenvalues[:2],
                           vectors[:2], -1.0 / eigenvalues[:2])
    flipped = eigenvalues.copy()
    flipped[2] = -flipped[2]
    with pytest.raises(CheckFailed, match="not negative"):
        checks.check_modes(chain.link_lengths, chain.joint_stiffness, flipped, vectors,
                           -1.0 / flipped)


def test_four_link_symmetric_functions(ladder):
    _, modes = modes_of(ladder[1], "four")
    eigenvalues = [m.eigenvalue for m in modes]
    checks.check_four_link_spectrum(eigenvalues)
    eigenvalues[1] *= 1 + 1e-6
    with pytest.raises(CheckFailed, match="symmetric"):
        checks.check_four_link_spectrum(eigenvalues)


def test_hencky_richardson(ladder):
    ns = list(workloads.HENCKY_SIZES)
    forces = [modes_of(ladder[1], f"n{n}")[1][0].axial_force for n in ns]
    checks.check_hencky(ns, forces)
    high = forces[:-1] + [forces[-1] + 2e-3]
    with pytest.raises(CheckFailed, match="Richardson"):
        checks.check_hencky(ns, high)


# ---------------------------------------------------------------------------
# command line


def test_cli_outputs_pass(cli):
    workload, outputs = cli
    assert workload.check(outputs) < checks.TORQUE_TOL


def replace_field(text, header, row, column, change):
    lines = text.splitlines()
    at = lines.index(header) + 1 + row
    fields = lines[at].split(",")
    fields[column] = change(fields[column])
    lines[at] = ",".join(fields)
    return "\n".join(lines) + "\n"


def test_twolink_rejects_a_wrong_force(cli):
    workload, outputs = cli
    text = replace_field(outputs["twolink"], "q,delta,force,potential", 20, 2,
                         lambda v: repr(float(v) * (1 + 1e-9)))
    with pytest.raises(CheckFailed, match="twolink force"):
        checks.check_twolink_rows(text, workload.alpha, 1.0, 1.0)


def test_critical_force_rejects_a_scaled_eigenvalue(cli):
    _, outputs = cli
    header = "mode,eigenvalue,axial_force,energy_factor,shape,stability,mode_vector"
    text = replace_field(outputs["critical-force"], header, 2, 1,
                         lambda v: repr(float(v) * 1.001))
    with pytest.raises(CheckFailed):
        checks.check_modes_output(text, np.ones(4), np.ones(4))


def test_three_link_rejects_a_moved_angle(cli):
    workload, outputs = cli
    text = replace_field(outputs["three-link"], "delta_x,q1,q2,q3,fx,fy,energy,stability",
                         5, 1, lambda v: repr(float(v) + 1e-4))
    with pytest.raises(CheckFailed, match="end-point"):
        checks.check_three_link_rows(text, np.ones(3), np.array([0.0, 1.0, 1.0]),
                                     np.array(workloads.U_PLUS), workload.deltas)


def test_three_link_rejects_a_wrong_force(cli):
    workload, outputs = cli
    text = replace_field(outputs["three-link"], "delta_x,q1,q2,q3,fx,fy,energy,stability",
                         5, 5, lambda v: repr(-float(v) if abs(float(v)) > 1e-3 else 0.1))
    with pytest.raises(CheckFailed, match="torque"):
        checks.check_three_link_rows(text, np.ones(3), np.array([0.0, 1.0, 1.0]),
                                     np.array(workloads.U_PLUS), workload.deltas)


def test_cli_sweep_rejects_a_dip(cli):
    _, outputs = cli
    text = replace_field(outputs["sweep"], "delta_x,fx,fy,energy,stability,quasi_buckling",
                         8, 1, lambda v: "0.0")
    with pytest.raises(CheckFailed, match="rise"):
        checks.check_sweep_rows(text)


def test_repeated_cli_output_must_be_identical(cli):
    workload, outputs = cli
    fresh = workloads.CliCalls(ec, 1)
    fresh.check(outputs)
    changed = dict(outputs, twolink=outputs["twolink"].replace("\n", "\n\n", 1))
    with pytest.raises(CheckFailed, match="byte-identical"):
        fresh.check(changed)


# ---------------------------------------------------------------------------
# a perturbed output fails the whole run


class ScaledLadder(workloads.BucklingLadder):
    def operation(self, index, in_process=False):
        results = super().operation(index, in_process)
        label, chain, modes = results[-1]
        modes = [dataclasses.replace(modes[0], eigenvalue=modes[0].eigenvalue * 1.001),
                 *modes[1:]]
        return results[:-1] + [(label, chain, modes)]


def test_perturbed_operation_fails_the_run(capsys):
    loop = run.Loop(ScaledLadder(ec, 1))
    loop.run([0])
    assert loop.problems and loop.failed == 0
    metrics = {"residual_digits": {"value": 1.0, "unit": "digits"}}
    assert run.report(loop, metrics, []) == 1
    assert '"correct": false' in capsys.readouterr().out
