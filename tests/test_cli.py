import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import elastichain
from elastichain.cli import load_config, main


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


STRAIGHT4 = {"links": [1, 1, 1, 1], "stiffness": [1, 1, 1, 1]}

BENT3 = {
    "links": [1, 1, 1],
    "stiffness": [0, 1, 1],
    "initial_angles": [0.8572772586, -0.7853981634, -1.0471975512],
}

SWEEP3 = {
    "links": [1, 1, 1],
    "stiffness": [0, 1, 1],
    "initial_angles": [-0.1043337889, 0.3141592654, -0.3141592654],
    "sweep": {"delta_max": 0.8, "steps": 9, "seeds": 2},
}


class TestLoadConfig:
    def test_minimal(self, tmp_path):
        cfg = load_config(write_config(tmp_path, STRAIGHT4))
        assert cfg.chain.n == 4
        assert cfg.branch_policy == "both"
        assert cfg.sweep is None
        np.testing.assert_allclose(cfg.initial_angles, np.zeros(4))

    def test_branch_tokens(self, tmp_path):
        cfg = load_config(write_config(tmp_path, {**STRAIGHT4, "branch": "-"}))
        assert cfg.branch_policy == "negative"

    def test_rejects_unknown_key(self, tmp_path):
        with pytest.raises(ValueError, match="unknown config keys"):
            load_config(write_config(tmp_path, {**STRAIGHT4, "bogus": 1}))

    def test_rejects_unknown_sweep_key(self, tmp_path):
        payload = {**STRAIGHT4, "sweep": {"delta_max": 0.5, "steps": 5, "nope": 1}}
        with pytest.raises(ValueError, match="unknown sweep keys"):
            load_config(write_config(tmp_path, payload))

    def test_rejects_missing_links(self, tmp_path):
        with pytest.raises(ValueError, match="links"):
            load_config(write_config(tmp_path, {"stiffness": [1, 1]}))

    def test_rejects_wrong_angle_count(self, tmp_path):
        payload = {**STRAIGHT4, "initial_angles": [0.1, 0.2]}
        with pytest.raises(ValueError):
            load_config(write_config(tmp_path, payload))

    def test_rejects_bad_branch_token(self, tmp_path):
        with pytest.raises(ValueError, match="branch"):
            load_config(write_config(tmp_path, {**STRAIGHT4, "branch": "up"}))


class TestCriticalForceCommand:
    def test_basic_output(self, tmp_path, capsys):
        code = main(["critical-force", "--config", write_config(tmp_path, STRAIGHT4)])
        captured = capsys.readouterr()
        assert code == 0
        label, value = captured.out.strip().split(",")
        assert label == "critical_force"
        assert float(value) == pytest.approx(0.9240, abs=1e-3)

    def test_modes_table(self, tmp_path, capsys):
        code = main(
            ["critical-force", "--modes", "--config", write_config(tmp_path, STRAIGHT4)]
        )
        lines = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        assert lines[1] == (
            "mode,eigenvalue,axial_force,energy_factor,shape,stability,mode_vector"
        )
        rows = [line.split(",") for line in lines[2:]]
        assert len(rows) == 3
        assert [r[4] for r in rows] == ["U", "ZU(2)", "Z"]
        assert [r[5] for r in rows] == ["stable", "unstable", "unstable"]
        vector = [float(tok) for tok in rows[0][6].split(";")]
        assert len(vector) == 5
        assert np.linalg.norm(vector) == pytest.approx(1.0)

    def test_text_format_rounds(self, tmp_path, capsys):
        code = main(
            ["critical-force", "--format", "text",
             "--config", write_config(tmp_path, STRAIGHT4)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert out == "critical_force,0.924028\n"

    def test_rejects_bent_configuration(self, tmp_path, capsys):
        code = main(["critical-force", "--config", write_config(tmp_path, BENT3)])
        captured = capsys.readouterr()
        assert code == 2
        assert "sweep" in captured.err

    def test_degenerate_model_exit_code(self, tmp_path, capsys):
        payload = {"links": [1, 1], "stiffness": [0, 0]}
        code = main(["critical-force", "--config", write_config(tmp_path, payload)])
        assert code == 3
        assert "passive" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["critical-force", "--config", str(tmp_path / "absent.json")])
        assert code == 2

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code = main(["critical-force", "--config", str(path)])
        assert code == 2

    def test_out_file(self, tmp_path, capsys):
        out_path = tmp_path / "result.csv"
        code = main(
            ["critical-force", "--config", write_config(tmp_path, STRAIGHT4),
             "--out", str(out_path)]
        )
        assert code == 0
        assert capsys.readouterr().out == ""
        assert out_path.read_text().startswith("critical_force,")


class TestSweepCommand:
    def test_csv_shape_and_flag_column(self, tmp_path, capsys):
        code = main(["sweep", "--config", write_config(tmp_path, SWEEP3)])
        lines = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        assert lines[0] == "delta_x,fx,fy,energy,stability,quasi_buckling"
        rows = [line.split(",") for line in lines[1:] if not line.startswith("#")]
        assert len(rows) == 9
        markers = [line for line in lines if line.startswith("# quasi_buckling_marker")]
        assert markers, "the near-straight chain must flag a stiffness collapse"
        first_marked = float(markers[0].split(",")[1])
        for row in rows:
            flagged = float(row[0]) >= first_marked - 1e-12
            assert row[5] == ("true" if flagged else "false")
        assert any(row[5] == "true" for row in rows)
        assert rows[0][5] == "false"

    def test_deterministic_output(self, tmp_path, capsys):
        config = write_config(tmp_path, SWEEP3)
        main(["sweep", "--config", config, "--seed", "7"])
        first = capsys.readouterr().out
        main(["sweep", "--config", config, "--seed", "7"])
        second = capsys.readouterr().out
        assert first == second

    def test_requires_sweep_block(self, tmp_path, capsys):
        code = main(["sweep", "--config", write_config(tmp_path, STRAIGHT4)])
        assert code == 2
        assert "sweep block" in capsys.readouterr().err

    def test_truncation_exit_code_and_partial_rows(self, tmp_path, capsys):
        payload = {
            "links": [4, 1, 1, 1],
            "stiffness": [1, 1, 1, 1],
            "initial_angles": [0.1, -0.1, 2.50106, 2.13299],
            "sweep": {"delta_max": 3.8, "steps": 10, "seeds": 2},
        }
        code = main(["sweep", "--config", write_config(tmp_path, payload)])
        captured = capsys.readouterr()
        assert code == 4
        assert "truncated" in captured.err
        lines = captured.out.strip().splitlines()
        data_rows = [l for l in lines[1:] if not l.startswith("#")]
        assert 0 < len(data_rows) < 10
        assert lines[-1].startswith("# truncated,")

    def test_drop_ratio_flag(self, tmp_path, capsys):
        # a nearly-impossible threshold suppresses every marker
        config = write_config(tmp_path, SWEEP3)
        code = main(["sweep", "--config", config, "--drop-ratio", "0.001"])
        out = capsys.readouterr().out
        assert code == 0
        assert "# quasi_buckling_marker" not in out


class TestThreeLinkCommand:
    def test_rows_sorted_by_energy(self, tmp_path, capsys):
        code = main(
            ["three-link", "--config", write_config(tmp_path, BENT3),
             "--deltas", "0.1,0.3"]
        )
        lines = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        assert lines[0] == "delta_x,q1,q2,q3,fx,fy,energy,stability"
        by_delta = {}
        for line in lines[1:]:
            cols = line.split(",")
            by_delta.setdefault(cols[0], []).append(cols)
        assert set(by_delta) == {"0.1", "0.3"}
        for rows in by_delta.values():
            energies = [float(r[6]) for r in rows]
            assert energies == sorted(energies)
            assert any(r[7] == "stable" for r in rows)

    def test_snaps_rounded_angles(self, tmp_path, capsys):
        # tabulated to four decimals, the tip sits slightly off axis
        payload = {
            "links": [1, 1, 1],
            "stiffness": [0, 1, 1],
            "initial_angles": [0.8573, -0.7854, -1.0472],
        }
        code = main(
            ["three-link", "--config", write_config(tmp_path, payload),
             "--deltas", "0.3"]
        )
        lines = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        assert len(lines) == 5

    def test_wrong_link_count(self, tmp_path, capsys):
        code = main(
            ["three-link", "--config", write_config(tmp_path, STRAIGHT4),
             "--deltas", "0.1"]
        )
        assert code == 2

    def test_unreachable_delta(self, tmp_path, capsys):
        code = main(
            ["three-link", "--config", write_config(tmp_path, BENT3),
             "--deltas", "9.0"]
        )
        assert code == 4

    def test_empty_deltas(self, tmp_path, capsys):
        code = main(
            ["three-link", "--config", write_config(tmp_path, BENT3),
             "--deltas", ","]
        )
        assert code == 2


class TestTwolinkCommand:
    def test_straight_mechanism_reports_critical_force(self, capsys):
        code = main(
            ["twolink", "--alpha", "0", "--k", "1", "--L", "1",
             "--qmax", "1.0", "--samples", "5"]
        )
        lines = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        assert lines[0] == "critical_force,2.0"
        assert lines[1] == "q,delta,force,potential"
        # q = 0 is singular for alpha = 0 and is skipped, leaving 4 rows
        assert len(lines) == 6

    def test_bent_mechanism_has_no_critical_line(self, capsys):
        code = main(
            ["twolink", "--alpha", "0.5236", "--k", "1", "--L", "1",
             "--qmax", "0.8", "--samples", "3"]
        )
        lines = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        assert lines[0] == "q,delta,force,potential"
        assert len(lines) == 4
        q, delta, force, potential = (float(t) for t in lines[1].split(","))
        assert q == 0.0
        assert delta == pytest.approx(0.0, abs=1e-12)
        assert force == 0.0

    def test_singular_sample_warning(self, capsys):
        code = main(
            ["twolink", "--alpha", "1.5707963267948966", "--k", "1", "--L", "1",
             "--qmax", "3.141592653589793", "--samples", "3"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "skipped singular sample" in captured.err

    def test_rejects_zero_samples(self, capsys):
        code = main(
            ["twolink", "--alpha", "0", "--k", "1", "--L", "1",
             "--qmax", "1.0", "--samples", "0"]
        )
        assert code == 2

    def test_rejects_negative_stiffness(self, capsys):
        code = main(
            ["twolink", "--alpha", "0", "--k", "-1", "--L", "1", "--qmax", "1.0"]
        )
        assert code == 2

    def test_text_format_rounds_to_six_digits(self, capsys):
        code = main(
            ["twolink", "--alpha", "0", "--k", "1", "--L", "1",
             "--qmax", "0.5", "--samples", "2", "--format", "text"]
        )
        lines = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        row = lines[-1].split(",")
        assert row[0] == "0.5"
        expected = 2 * 0.5 / math.sin(0.5)
        assert row[2] == format(expected, ".6g")


def test_unknown_subcommand_exits_nonzero():
    with pytest.raises(SystemExit) as info:
        main(["polish"])
    assert info.value.code == 2


def test_import_leaves_scipy_out():
    """The package and its CLI need numpy and the standard library only."""
    src = pathlib.Path(elastichain.__file__).resolve().parents[1]
    check = "import sys, elastichain.cli; assert 'scipy' not in sys.modules"
    subprocess.run(
        [sys.executable, "-c", check], env={**os.environ, "PYTHONPATH": str(src)},
        check=True,
    )


def test_seedless_sweep_leaves_numpy_random_out():
    """A sweep with seeds=0 draws no restarts and so needs no generator."""
    src = pathlib.Path(elastichain.__file__).resolve().parents[1]
    check = (
        "import sys, numpy; print('numpy.random' in sys.modules)\n"
        "import elastichain as ec\n"
        "q = [-0.3179, 0.0558, 0.3804, 0.3524]\n"
        "chain, shape = ec.ChainModel([1] * 4, [1] * 4), ec.Configuration(q, q)\n"
        "ec.sweep_force_deflection(ec.SweepRequest(chain, shape, 0.3, 5, seeds=0))\n"
        "print('numpy.random' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", check], env={**os.environ, "PYTHONPATH": str(src)},
        check=True, capture_output=True, text=True,
    ).stdout.split()
    if out[0] == "True":
        pytest.skip("this numpy imports numpy.random with itself")
    assert out[1] == "False"
