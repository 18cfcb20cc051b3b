"""Parity of the sweep solver with recorded table sweeps.

`sweep_parity.json` holds fx, fy, stability labels and quasi-buckling
markers of the 60-step, seeds=2, seed=0 sweeps of TABLE_U and TABLE_Z, as
traced by the derivative-free solver of commit 39611ff. It was generated
from a checkout of that commit with

    PYTHONPATH=src python tests/test_sweep_parity.py > tests/sweep_parity.json
"""

import json
import pathlib

import numpy as np
import pytest

from elastichain import ChainModel, Configuration, SweepRequest, sweep_force_deflection

TABLES = {
    "TABLE_U": (-0.3179, 0.0558, 0.3804, 0.3524),
    "TABLE_Z": (-0.2417, 0.6821, -0.7958, 0.5170),
}
RECORD = pathlib.Path(__file__).with_name("sweep_parity.json")


def record(angles):
    chain = ChainModel([1.0] * 4, [1.0] * 4)
    cfg = Configuration(angles, angles)
    result = sweep_force_deflection(
        SweepRequest(chain, cfg, delta_max=0.6, steps=60, seeds=2), seed=0
    )
    return {
        "fx": [p.force.fx for p in result.points],
        "fy": [p.force.fy for p in result.points],
        "stability": [p.stability for p in result.points],
        "markers": [list(m) for m in result.quasi_buckling_markers],
    }


@pytest.mark.parametrize("name", sorted(TABLES))
def test_matches_recorded_sweep(name):
    expected = json.loads(RECORD.read_text())[name]
    got = record(TABLES[name])
    np.testing.assert_allclose(got["fx"], expected["fx"], rtol=0.0, atol=1e-9)
    np.testing.assert_allclose(got["fy"], expected["fy"], rtol=0.0, atol=1e-9)
    assert got["stability"] == expected["stability"]
    assert len(got["markers"]) == len(expected["markers"])
    for (delta, ratio), (delta_ref, ratio_ref) in zip(got["markers"], expected["markers"]):
        assert delta == delta_ref
        assert ratio == pytest.approx(ratio_ref, abs=1e-6)


if __name__ == "__main__":
    print(json.dumps({name: record(angles) for name, angles in TABLES.items()}, indent=1))
