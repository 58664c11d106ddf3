import csv
import json

import numpy as np
import pytest

from frbl.cli import main
from frbl.datum import datum_from_json, datum_to_json
from frbl.heatflow import GridFunction, grid_to_json
from frbl.instances import prekopa_leindler


@pytest.fixture
def pl_file(tmp_path):
    path = tmp_path / "pl.json"
    path.write_text(json.dumps(datum_to_json(prekopa_leindler(0.5))))
    return str(path)


@pytest.fixture
def negative_file(tmp_path):
    path = tmp_path / "neg.json"
    path.write_text(json.dumps({
        "in_dims": [1, 1], "out_dims": [1], "c": [0.5, 0.5], "d": [1.0],
        "Q": [[1.0, 1.0]],
    }))
    return str(path)


@pytest.fixture
def standard_tuple_file(tmp_path):
    path = tmp_path / "tuple.json"
    gaussian = {"log_prefactor": 0.0, "form": [[1.0]]}
    path.write_text(json.dumps({"f": [gaussian, gaussian], "g": [gaussian]}))
    return str(path)


def grids_file(tmp_path, name="grids.json", scale_f0=1.0):
    xs = np.linspace(-6, 6, 201)
    g = GridFunction([-6.0], [6.0], [201], np.exp(-xs**2))
    f0 = GridFunction([-6.0], [6.0], [201], scale_f0 * np.exp(-xs**2))
    path = tmp_path / name
    path.write_text(json.dumps({
        "f": [grid_to_json(f0), grid_to_json(g)],
        "g": [grid_to_json(g)],
    }))
    return str(path)


class TestGen:
    @pytest.mark.parametrize("argv", [
        ["gen", "prekopa-leindler", "--lam", "0.25"],
        ["gen", "young-frame"],
        ["gen", "loomis-whitney-2d"],
        ["gen", "holder", "--weights", "0.5,0.25,0.25"],
    ])
    def test_generated_instances_check_geometric(self, tmp_path, argv, capsys):
        out = str(tmp_path / "datum.json")
        assert main(argv + ["--out", out]) == 0
        datum = datum_from_json(json.loads(open(out).read()))
        assert main(["check", out]) == 0
        capsys.readouterr()
        assert datum.k >= 1

    def test_custom_roundtrip(self, tmp_path, pl_file, capsys):
        out = str(tmp_path / "copy.json")
        assert main(["gen", "custom", "--path", pl_file, "--out", out]) == 0
        assert json.loads(open(out).read()) == json.loads(open(pl_file).read())
        capsys.readouterr()

    def test_bad_parameter_is_input_error(self, capsys):
        assert main(["gen", "prekopa-leindler", "--lam", "1.5"]) == 2
        assert main(["gen", "holder", "--weights", "0.5,0.6"]) == 2
        assert "error" in capsys.readouterr().err


class TestCheck:
    def test_geometric_exit_zero(self, pl_file, capsys):
        assert main(["check", pl_file]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "geometric"
        assert report["tol"] == 1e-8
        np.testing.assert_allclose(report["sigma"], np.ones((2, 2)), atol=1e-8)

    def test_non_geometric_exit_one(self, negative_file, capsys):
        assert main(["check", negative_file]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "not-geometric-loewner"
        assert report["loewner_min_eig"] == pytest.approx(-1.5, abs=1e-12)

    def test_malformed_json_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"in_dims": [1, 1], ')
        assert main(["check", str(bad)]) == 2
        capsys.readouterr()

    def test_missing_file_exit_two(self, capsys):
        assert main(["check", "/nonexistent/datum.json"]) == 2
        capsys.readouterr()

    def test_wrong_value_types_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "typed.json"
        bad.write_text(json.dumps({
            "in_dims": [1, 1], "out_dims": [1], "c": "abc", "d": [1.0],
            "Q": [[0.5, 0.5]],
        }))
        assert main(["check", str(bad)]) == 2
        assert "error" in capsys.readouterr().err

    def test_invalid_datum_reports_all_violations(self, tmp_path, capsys):
        bad = tmp_path / "multi.json"
        bad.write_text(json.dumps({
            "in_dims": [1, 1], "out_dims": [1], "c": [0.5, -0.5], "d": [2.0],
            "Q": [[0.5, 0.5]],
        }))
        assert main(["check", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "positive" in err


class TestSigma:
    def test_found(self, pl_file, capsys):
        assert main(["sigma", pl_file]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "found"

    def test_infeasible(self, tmp_path, capsys):
        path = tmp_path / "scalar.json"
        path.write_text(json.dumps({
            "in_dims": [1], "out_dims": [1], "c": [1.0], "d": [1.0], "Q": [[2.0]],
        }))
        assert main(["sigma", str(path)]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["reason"] == "affine-infeasible"


class TestGaussian:
    def test_ratio(self, pl_file, standard_tuple_file, capsys):
        assert main(["gaussian", pl_file, standard_tuple_file, "--op", "ratio"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ratio"] == pytest.approx(1.0, abs=1e-12)

    def test_relation(self, pl_file, standard_tuple_file, capsys):
        assert main(["gaussian", pl_file, standard_tuple_file, "--op", "relation"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["holds"] is True
        capsys.readouterr()

    def test_relation_violation_exit_one(self, pl_file, tmp_path, capsys):
        tup = tmp_path / "boosted.json"
        tup.write_text(json.dumps({
            "f": [{"log_prefactor": 2.0, "form": [[1.0]]},
                  {"log_prefactor": 0.0, "form": [[1.0]]}],
            "g": [{"log_prefactor": 0.0, "form": [[1.0]]}],
        }))
        assert main(["gaussian", pl_file, str(tup), "--op", "relation"]) == 1
        capsys.readouterr()

    def test_extremizer(self, pl_file, standard_tuple_file, capsys):
        assert main(["gaussian", pl_file, standard_tuple_file, "--op", "extremizer"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["is_extremizer"] is True
        assert report["basis"] == "geometric-constant"

    def test_geometrize(self, negative_file, tmp_path, capsys):
        tup = tmp_path / "weights.json"
        tup.write_text(json.dumps({
            "f": [{"log_prefactor": 0.0, "form": [[0.25]]},
                  {"log_prefactor": 0.0, "form": [[0.25]]}],
            "g": [{"log_prefactor": 0.0, "form": [[1.0]]}],
        }))
        assert main(["gaussian", negative_file, str(tup), "--op", "geometrize"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["certificate"]["verdict"] == "geometric"
        np.testing.assert_allclose(report["datum"]["Q"], [[0.5, 0.5]], atol=1e-12)

    def test_layout_mismatch_exit_two(self, negative_file, tmp_path, capsys):
        tup = tmp_path / "short.json"
        tup.write_text(json.dumps({
            "f": [{"log_prefactor": 0.0, "form": [[1.0]]}],
            "g": [{"log_prefactor": 0.0, "form": [[1.0]]}],
        }))
        assert main(["gaussian", negative_file, str(tup), "--op", "ratio"]) == 2
        capsys.readouterr()

    def test_malformed_tuple_exit_two(self, pl_file, tmp_path, capsys):
        tup = tmp_path / "noform.json"
        tup.write_text(json.dumps({
            "f": [{"log_prefactor": 0.0}, {"log_prefactor": 0.0, "form": [[1.0]]}],
            "g": [{"log_prefactor": 0.0, "form": [[1.0]]}],
        }))
        assert main(["gaussian", pl_file, str(tup), "--op", "ratio"]) == 2
        capsys.readouterr()


class TestFlow:
    def test_verify_holds(self, pl_file, tmp_path, capsys):
        grids = grids_file(tmp_path)
        out = str(tmp_path / "defect.csv")
        code = main(["flow-verify", pl_file, grids, "--times", "0.1,0.5", "--out", out])
        assert code == 0
        rows = list(csv.reader(open(out)))
        assert rows[0] == ["t", "min_defect", "argmin_x1", "argmin_x2"]
        assert len(rows) == 3
        capsys.readouterr()

    def test_verify_two_dimensional_grids(self, tmp_path, capsys):
        # young frame: a 2-D f grid travels through the row-major JSON format
        datum_path = tmp_path / "young.json"
        assert main(["gen", "young-frame", "--out", str(datum_path)]) == 0
        datum = datum_from_json(json.loads(datum_path.read_text()))

        ys = np.linspace(-12, 12, 201)
        g = GridFunction([-12.0], [12.0], [201], np.clip(1 - (ys / 3) ** 2, 0, None) ** 2)
        axes = [np.linspace(-4, 4, 121)] * 2
        mesh = np.meshgrid(*axes, indexing="ij")
        nodes = np.stack([m.ravel() for m in mesh], axis=1)
        vals = np.ones(len(nodes))
        for j in range(3):
            vals *= g.interpolate(nodes @ datum.out_row(j).T) ** float(datum.d[j])
        f_grid = GridFunction([-4.0] * 2, [4.0] * 2, [121] * 2,
                              (0.95 * vals).reshape(121, 121))
        grids = tmp_path / "young_grids.json"
        grids.write_text(json.dumps({
            "f": [grid_to_json(f_grid)],
            "g": [grid_to_json(g)] * 3,
        }))
        out = str(tmp_path / "young_defect.csv")
        code = main(["flow-verify", str(datum_path), str(grids),
                     "--times", "0.1,0.5", "--out", out])
        assert code == 0
        rows = list(csv.reader(open(out)))
        assert rows[0] == ["t", "min_defect", "argmin_x1", "argmin_x2"]
        capsys.readouterr()

    def test_verify_precondition_violation_exit_one(self, pl_file, tmp_path, capsys):
        grids = grids_file(tmp_path, name="broken.json", scale_f0=2.0)
        code = main(["flow-verify", pl_file, grids, "--times", "0.1",
                     "--out", str(tmp_path / "d.csv")])
        assert code == 1
        assert "t=0" in capsys.readouterr().err

    def test_malformed_grids_exit_two(self, pl_file, tmp_path, capsys):
        grids = tmp_path / "badgrid.json"
        grids.write_text(json.dumps({
            "f": [{"lo": 5, "hi": [6.0], "n": [4], "values": [0, 0, 0, 0]}],
            "g": [],
        }))
        assert main(["flow-verify", pl_file, str(grids), "--times", "0.1"]) == 2
        capsys.readouterr()

    def test_verify_fields_dir(self, pl_file, tmp_path, capsys):
        grids = grids_file(tmp_path)
        fields = tmp_path / "fields"
        code = main(["flow-verify", pl_file, grids, "--times", "0.1",
                     "--out", str(tmp_path / "d.csv"), "--fields-dir", str(fields)])
        assert code == 0
        written = list(fields.glob("*.csv"))
        assert len(written) == 1
        rows = list(csv.reader(open(written[0])))
        assert rows[0] == ["x1", "x2", "defect"]
        capsys.readouterr()

    def test_monotone(self, tmp_path, capsys):
        datum = tmp_path / "lw.json"
        assert main(["gen", "loomis-whitney-2d", "--out", str(datum)]) == 0
        xs = np.linspace(-10, 10, 401)
        g = GridFunction([-10.0], [10.0], [401], np.exp(-xs**2))
        grids = tmp_path / "g.json"
        grids.write_text(json.dumps({"g": [grid_to_json(g), grid_to_json(g)]}))
        out = str(tmp_path / "q.csv")
        code = main(["flow-monotone", str(datum), str(grids),
                     "--times", "0,0.5,1", "--out", out,
                     "--box-lo=-10,-10", "--box-hi", "10,10", "--box-n", "401,401"])
        assert code == 0
        rows = list(csv.reader(open(out)))
        assert rows[0] == ["t", "Q"]
        values = [float(r[1]) for r in rows[1:]]
        assert all(b >= a * (1 - 1e-5) for a, b in zip(values, values[1:]))
        capsys.readouterr()

    def test_monotone_assertion_flag(self, tmp_path, capsys):
        datum = tmp_path / "lw.json"
        assert main(["gen", "loomis-whitney-2d", "--out", str(datum)]) == 0
        xs = np.linspace(-10, 10, 401)
        g = GridFunction([-10.0], [10.0], [401], np.exp(-xs**2))
        grids = tmp_path / "g.json"
        grids.write_text(json.dumps({"g": [grid_to_json(g), grid_to_json(g)]}))
        base = ["flow-monotone", str(datum), str(grids), "--times", "0,0.5,1",
                "--out", str(tmp_path / "q.csv"),
                "--box-lo=-10,-10", "--box-hi", "10,10", "--box-n", "401,401"]
        assert main(base + ["--assert-monotone", "1e-5"]) == 0
        # an impossible negative slack forces the exit-1 path
        assert main(base + ["--assert-monotone=-1.0"]) == 1
        capsys.readouterr()

    def test_log_env_var_accepted(self, pl_file, capsys, monkeypatch):
        monkeypatch.setenv("FRBL_LOG", "debug")
        assert main(["check", pl_file]) == 0
        capsys.readouterr()

    def test_monotone_wrong_k_exit_two(self, pl_file, tmp_path, capsys):
        xs = np.linspace(-6, 6, 101)
        g = GridFunction([-6.0], [6.0], [101], np.exp(-xs**2))
        grids = tmp_path / "g.json"
        grids.write_text(json.dumps({"g": [grid_to_json(g)]}))
        assert main(["flow-monotone", pl_file, str(grids)]) == 2
        capsys.readouterr()


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


class TestContract:
    @pytest.mark.parametrize("command", ["check", "sigma"])
    def test_exhausted_budget_is_strict_json(self, pl_file, command, capsys):
        assert main([command, pl_file, "--max-iter", "0"]) == 1
        report = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
        assert report["reason"] == "max-iter"
        assert report["residual_in"] is None and report["residual_out"] is None

    @pytest.mark.parametrize("command", ["check", "sigma"])
    def test_overflowing_datum_is_input_error(self, tmp_path, command, capsys):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({
            "in_dims": [1, 1], "out_dims": [1], "c": [0.5, 0.5], "d": [1.0],
            "Q": [[1e308, 1e308]],
        }))
        assert main([command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")

    def test_commands_share_one_process(self, pl_file, tmp_path, capsys):
        assert main(["check", pl_file]) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "geometric"
        grids = grids_file(tmp_path)
        assert main(["flow-verify", pl_file, grids, "--times", "0.1"]) == 0
        captured = capsys.readouterr()
        rows = list(csv.reader(captured.out.splitlines()))
        assert rows[0] == ["t", "min_defect", "argmin_x1", "argmin_x2"]
        assert float(rows[1][0]) == 0.1
        assert "verdict: holds" in captured.err
        broken = grids_file(tmp_path, name="broken.json", scale_f0=2.0)
        assert main(["flow-verify", pl_file, broken, "--times", "0.1"]) == 1
        assert "t=0" in capsys.readouterr().err
        assert main(["check", pl_file, "--tol", "1e-9"]) == 0
        assert json.loads(capsys.readouterr().out)["tol"] == 1e-9

    def test_precondition_outranks_failing_heat_step(self, pl_file, tmp_path, capsys):
        # t = 1e4 is far beyond what the grid resolves, so its heat step raises
        broken = grids_file(tmp_path, name="broken.json", scale_f0=2.0)
        assert main(["flow-verify", pl_file, broken, "--times", "1e4"]) == 1
        assert "t=0" in capsys.readouterr().err
        grids = grids_file(tmp_path)
        assert main(["flow-verify", pl_file, grids, "--times", "1e4"]) == 2
        assert "truncation radius" in capsys.readouterr().err
