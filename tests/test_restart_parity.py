"""Parity of sweeps with random restarts against recorded runs.

`restart_parity.json` holds fx, fy, stability labels, branch logs and
advisories of `seeds=4` sweeps, at seeds 0, 1 and 2, of two shapes: the
DISCONNECTED variant of the paper's Z shape swept in 16 steps to delta 1.5,
where restarts find lower minima the loading path cannot reach, and the
near-straight three-link fold. It was recorded from a checkout of the
commit before restarts ran as one stacked descent, with

    PYTHONPATH=src python tests/test_restart_parity.py > tests/restart_parity.json
"""

import json
import math
import pathlib

import numpy as np
import pytest

from elastichain import ChainModel, Configuration, SweepRequest, sweep_force_deflection
from elastichain import sweep as sweep_module

CASES = {
    "DISCONNECTED": ((1.0,) * 4, (1.0,) * 4, (-0.2417, 0.6821, -0.795745, 0.517015), 1.5, 16),
    "FOLD": ((1.0,) * 3, (0.0, 1.0, 1.0), (-0.1043337889, math.pi / 10, -math.pi / 10), 1.2, 25),
}
SEEDS = (0, 1, 2)
RECORD = pathlib.Path(__file__).with_name("restart_parity.json")


def record(name, seed):
    lengths, stiffness, shape, delta_max, steps = CASES[name]
    q = np.asarray(shape, dtype=float)
    request = SweepRequest(
        ChainModel(lengths, stiffness), Configuration(q, q), delta_max, steps, seeds=4
    )
    result = sweep_force_deflection(request, seed=seed)
    return {
        "fx": [p.force.fx for p in result.points],
        "fy": [p.force.fy for p in result.points],
        "stability": [p.stability for p in result.points],
        "branch_log": [[r.delta_x, r.branch, r.restart, r.note] for r in result.branch_log],
        "advisories": [
            [a.delta_x, a.primary_energy, a.alternative_energy, a.angle_gap]
            for a in result.advisories
        ],
    }


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_recorded_restarts(name, seed):
    expected = json.loads(RECORD.read_text())[name][str(seed)]
    got = record(name, seed)
    np.testing.assert_allclose(got["fx"], expected["fx"], rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(got["fy"], expected["fy"], rtol=0.0, atol=1e-12)
    assert got["stability"] == expected["stability"]
    assert got["branch_log"] == expected["branch_log"]
    assert len(got["advisories"]) == len(expected["advisories"])
    for advisory, reference in zip(got["advisories"], expected["advisories"]):
        assert advisory[0] == reference[0]
        np.testing.assert_allclose(advisory[1:], reference[1:], rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_descents_split_into_small_stacks_match(name, seed, monkeypatch):
    """Stacks of three rows, which give a fold's descent and each restart
    other neighbours than one whole stack does, give the same sweep bit for
    bit."""
    whole = record(name, seed)
    monkeypatch.setattr(sweep_module, "STACK_ROWS", 3)
    assert record(name, seed) == whole


def test_stacked_rows_match_their_descents_alone_to_rounding(monkeypatch):
    """The FOLD sweep's first stacked descent, at delta = 0.05 (17 rows), its
    leading angles perturbed by N(0, 1e-3) twelve times over into one stack
    of 204 rows, against each row descended alone. Stacked matrix products
    round differently from one row's, so a row may differ from its descent
    alone in the last bits, but the same rows converge and agree to 1e-13
    in angles and force."""
    stacks, descend = [], sweep_module._minimize_stack
    monkeypatch.setattr(sweep_module, "_minimize_stack",
                        lambda *args: stacks.append(args) or descend(*args))
    record("FOLD", 0)
    chain, reference, lead, tx, branch = stacks[0]
    assert len(lead) == 17
    rng = np.random.default_rng(0)
    lead = np.concatenate([lead + rng.normal(0.0, 1e-3, lead.shape) for _ in range(12)])
    tx, branch = np.tile(tx, 12), np.tile(branch, 12)
    together = descend(chain, reference, lead, tx, branch)
    alone = [descend(chain, reference, lead[i : i + 1], tx[i : i + 1], branch[i : i + 1])[0]
             for i in range(len(lead))]
    assert [s is None for s in together] == [s is None for s in alone]
    assert sum(s is not None for s in together) >= 10
    for a, b in zip(together, alone):
        if a is not None:
            np.testing.assert_allclose(a.full, b.full, rtol=0.0, atol=1e-13)
            np.testing.assert_allclose(a.force, b.force, rtol=0.0, atol=1e-13)


if __name__ == "__main__":
    print(json.dumps(
        {name: {str(seed): record(name, seed) for seed in SEEDS} for name in sorted(CASES)},
        indent=1,
    ))
