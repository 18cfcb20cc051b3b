"""Parity of three_link_equilibria with recorded enumerations.

`three_link_parity.json` holds the equilibria (angles and stability) that
the enumeration of commit fc74cea returned for the U+ and near-straight
three-link shapes at delta = 0.05, 0.06, ..., 1.0. That enumeration refined
its grid extrema with scipy's bounded `minimize_scalar`, and on these two
grids every point it returned was an equilibrium. It was generated from a
checkout of that commit with

    PYTHONPATH=src python tests/test_three_link_parity.py > tests/three_link_parity.json

The recorded points balance torques only to about 1e-7, which puts their
first-joint angle up to 7e-8 off. q2 and q3 follow that angle through the
two-link closure, which magnifies the offset near the closure boundary:
q3 of the near-straight shape at delta = 0.22 (|sin q3| = 0.04) is 2.8e-7
off. Hence 1e-7 on the first-joint angle and 3e-7 on the other two.
"""

import json
import math
import pathlib

import numpy as np
import pytest

from elastichain import ChainModel, Configuration, three_link_equilibria

SHAPES = {
    "U_PLUS": (0.8572772586, -math.pi / 4, -math.pi / 3),
    "NEAR_STRAIGHT": (-0.1043337889, math.pi / 10, -math.pi / 10),
}
DELTAS = [round(0.01 * i, 2) for i in range(5, 101)]
RECORD = pathlib.Path(__file__).with_name("three_link_parity.json")


def record(angles):
    chain = ChainModel([1.0, 1.0, 1.0], [0.0, 1.0, 1.0])
    cfg = Configuration(angles, angles)
    return [
        [[round(float(q), 10) for q in p.configuration.angles] + [p.stability]
         for p in three_link_equilibria(chain, cfg, delta)]
        for delta in DELTAS
    ]


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_matches_recorded_equilibria(name):
    expected = json.loads(RECORD.read_text())[name]
    got = record(SHAPES[name])
    for delta, want, have in zip(DELTAS, expected, got):
        assert len(have) == len(want), f"delta {delta}"
        unmatched = list(have)
        for *angles, stability in want:
            # the order can differ where two points have the same energy
            gaps = [np.max(np.abs(np.subtract(angles, p[:3]))) for p in unmatched]
            *match, match_stability = unmatched.pop(int(np.argmin(gaps)))
            assert match_stability == stability, f"delta {delta}"
            assert match[0] == pytest.approx(angles[0], abs=1e-7), f"delta {delta}"
            np.testing.assert_allclose(match, angles, rtol=0.0, atol=3e-7)


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_points_report_the_correctors_residual(name):
    """Each point reports the bordered Newton's multiplier and its torque
    residual, below 1e-14 here, where the chart force -J_t^-T tau_t at the
    same angles leaves up to 2.05e-14."""
    chain = ChainModel([1.0, 1.0, 1.0], [0.0, 1.0, 1.0])
    cfg = Configuration(SHAPES[name], SHAPES[name])
    for delta in DELTAS:
        for p in three_link_equilibria(chain, cfg, delta):
            assert p.residual_norm <= 1e-14, f"delta {delta}"


if __name__ == "__main__":
    print(json.dumps({name: record(angles) for name, angles in SHAPES.items()}))
