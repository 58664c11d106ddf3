import csv
import functools
import json
import math
import operator
import os
import re
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

import frbl
from frbl import cli, heatflow
from frbl.cli import main
from frbl.datum import datum_to_json, validate_datum
from frbl.heatflow import MAX_BOX_AXIS, GridFunction, grid_to_json
from frbl.instances import holder, loomis_whitney_2d, prekopa_leindler, young_frame

from _oracles import (admissible_tuple, dense_interpolate, log_ratio, relation_gaps,
                      separator_verifies)

HARD = {"in_dims": [1, 1], "out_dims": [1], "c": [0.5, 0.5], "d": [1.0], "Q": [[0.6, 0.3]]}


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
def hard_file(tmp_path):
    path = tmp_path / "hard.json"
    path.write_text(json.dumps(HARD))
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


def _run_fresh(code, threads=None):
    """Run ``code`` in a fresh interpreter that imports frbl from this checkout;
    ``threads``, when given, replaces the BLAS thread-count variables."""
    src = os.path.dirname(os.path.dirname(frbl.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    if threads is not None:
        env = {**{k: v for k, v in env.items()
                  if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}, **threads}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)


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
        datum = validate_datum(json.loads(open(out).read()))
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

    def test_dimension_cap(self, capsys):
        assert main(["gen", "holder", "--dim", "33", "--weights", "1"]) == 2
        assert main(["gen", "holder", "--dim", "1", "--weights", ",".join(["0.03125"] * 32)]) == 0
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "MAX_DIM" in captured.err


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

    def test_separator_exit_one(self, hard_file, capsys):
        assert main(["check", hard_file]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "not-geometric-sigma"
        assert report["sigma"] is None
        assert separator_verifies(validate_datum(HARD), report["separator"])

    def test_loewner_failure_prints_null_residuals(self, negative_file, capsys):
        assert main(["check", negative_file]) == 1
        report = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
        assert report["iterations"] == 0
        assert report["sigma"] is None and report["separator"] is None
        assert report["residual_in"] is None and report["residual_out"] is None

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
        assert report["separator"] is None

    def test_separator(self, hard_file, capsys):
        assert main(["sigma", hard_file]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "infeasible"
        assert report["reason"] == "separator"
        assert report["sigma"] is None
        assert separator_verifies(validate_datum(HARD), report["separator"])


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

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_samples_below_one_exit_two(self, negative_file, standard_tuple_file, samples,
                                        capsys):
        code = main(["gaussian", negative_file, standard_tuple_file, "--op", "extremizer",
                     "--samples", samples])
        assert code == 2
        assert "error: --samples must be at least 1" in capsys.readouterr().err

    @staticmethod
    def _weak_tuple_file(tmp_path):
        # f forms 16 against g form 1: admissible on the control datum, with
        # ratio 1/4, below most sampled tuples
        path = tmp_path / "weak.json"
        path.write_text(json.dumps({
            "f": [{"log_prefactor": 0.0, "form": [[16.0]]}] * 2,
            "g": [{"log_prefactor": 0.0, "form": [[1.0]]}],
        }))
        return str(path)

    def test_sampled_extremizer_matches_reference_family(self, negative_file, tmp_path, capsys):
        code = main(["gaussian", negative_file, self._weak_tuple_file(tmp_path),
                     "--op", "extremizer", "--seed", "11", "--samples", "32"])
        report = json.loads(capsys.readouterr().out)
        datum = validate_datum(json.loads(open(negative_file).read()))
        rng = np.random.default_rng(11)
        family = [admissible_tuple(datum, rng) for _ in range(32)]
        admissible = [tup for tup in family
                      if min(relation_gaps(datum, *tup)) >= -report["tol"]]
        best = max(log_ratio(datum, *tup) for tup in admissible)
        assert report["basis"] == "comparison-family" and report["seed"] == 11
        assert report["log_ratio"] == pytest.approx(math.log(0.25), abs=1e-12)
        assert report["reference_log_ratio"] == best > report["log_ratio"]
        assert report["is_extremizer"] is False and code == 1

    def test_eigvalsh_calls_do_not_grow_with_samples(self, negative_file, tmp_path, capsys,
                                                     monkeypatch):
        counted = np.linalg.eigvalsh
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return counted(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        tup = self._weak_tuple_file(tmp_path)
        counts = []
        for samples in ("8", "64"):
            calls.clear()
            main(["gaussian", negative_file, tup, "--op", "extremizer", "--samples", samples])
            counts.append(len(calls))
        capsys.readouterr()
        assert counts[0] == counts[1] > 0

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

    def test_geometrize_with_large_scaled_weights(self, tmp_path, capsys):
        # C = 3.2e-5 I and D = 3.2e4 I: |det C| is far below 1e-12, yet C is
        # perfectly conditioned and the transformed datum is the identity
        datum, tup = tmp_path / "eye3.json", tmp_path / "weights.json"
        eye = np.eye(3).tolist()
        datum.write_text(json.dumps({"in_dims": [3], "out_dims": [3], "c": [1.0], "d": [1.0],
                                     "Q": eye}))
        form = (1e9 * np.eye(3)).tolist()
        tup.write_text(json.dumps({"f": [{"form": form}], "g": [{"form": form}]}))
        assert main(["gaussian", str(datum), str(tup), "--op", "geometrize"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["certificate"]["verdict"] == "geometric"
        np.testing.assert_allclose(report["datum"]["Q"], eye, atol=1e-12)

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
        datum = validate_datum(json.loads(datum_path.read_text()))

        ys = np.linspace(-12, 12, 201)
        g = GridFunction([-12.0], [12.0], [201], np.clip(1 - (ys / 3) ** 2, 0, None) ** 2)
        axes = [np.linspace(-4, 4, 121)] * 2
        mesh = np.meshgrid(*axes, indexing="ij")
        nodes = np.stack([m.ravel() for m in mesh], axis=1)
        vals = np.ones(len(nodes))
        for j in range(3):
            vals *= dense_interpolate(g, nodes @ datum.out_row(j).T) ** float(datum.d[j])
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

    def test_verdict_line_reports_interior_share(self, pl_file, tmp_path, capsys):
        # a g grid on [-3, 3] with the f grids' spacing: midpoints of f nodes
        # beyond it are skipped, so fewer than all 201^2 nodes are scanned
        xs = np.linspace(-3, 3, 101)
        narrow = GridFunction([-3.0], [3.0], [101], np.exp(-xs**2))
        wide = json.loads(open(grids_file(tmp_path)).read())
        grids = tmp_path / "narrow.json"
        grids.write_text(json.dumps({"f": wide["f"], "g": [grid_to_json(narrow)]}))
        code = main(["flow-verify", pl_file, str(grids), "--times", "0.1",
                     "--out", str(tmp_path / "d.csv")])
        err = capsys.readouterr().err
        match = re.search(r"^verdict: holds \(tol=0\.0001, nodes=(\d+) of (\d+)\)$", err, re.M)
        assert code == 0 and match, err
        assert 0 < int(match[1]) < int(match[2]) == 201**2

    def test_unresolved_time_keeps_the_grids(self, pl_file, tmp_path, capsys):
        # sqrt(2t) far below the 0.2 spacing: the step returns the grids up to
        # FFT rounding (~1e-17 in the tails, lifted to ~1e-8 by the power 1/2
        # of the f side), not scaled by h / sqrt(4 pi t) ~ 5.6e148
        xs = np.linspace(-10, 10, 101)
        g = grid_to_json(GridFunction([-10.0], [10.0], [101], np.exp(-xs**2)))
        grids = tmp_path / "g101.json"
        grids.write_text(json.dumps({"f": [g, g], "g": [g]}))
        code = main(["flow-verify", pl_file, str(grids), "--times", "1e-300"])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        (_, row) = list(csv.reader(captured.out.splitlines()))
        assert abs(float(row[1])) < 1e-8

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

    def test_verify_without_times_writes_header_only(self, pl_file, tmp_path, capsys):
        fields = tmp_path / "fields"
        code = main(["flow-verify", pl_file, grids_file(tmp_path), "--times", "",
                     "--fields-dir", str(fields)])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert list(csv.reader(captured.out.splitlines())) == [
            ["t", "min_defect", "argmin_x1", "argmin_x2"]]
        assert not any(fields.iterdir())

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

    def test_monotone_grid_axes_mismatch_exit_two(self, tmp_path, capsys):
        datum, grids = tmp_path / "lw.json", tmp_path / "g.json"
        datum.write_text(json.dumps(datum_to_json(loomis_whitney_2d())))
        plane = GridFunction([-5.0, -5.0], [5.0, 5.0], [11, 11], np.ones((11, 11)))
        line = GridFunction([-5.0], [5.0], [11], np.ones(11))
        grids.write_text(json.dumps({"g": [grid_to_json(plane), grid_to_json(line)]}))
        assert main(["flow-monotone", str(datum), str(grids)]) == 2
        captured = capsys.readouterr()
        _assert_one_error_line(captured)
        assert "grid axis counts" in captured.err

    def test_eps_band_projection_takes_the_edge_value(self, tmp_path, capsys):
        # 0.1 * 3.0 = 0.30000000000000004 lies in the eps band beyond the g
        # grids' edge, where g is 0: the interpolant is that 0, not a negative
        # extrapolation that the power 0.5 turns into NaN
        datum, grids = tmp_path / "datum.json", tmp_path / "grids.json"
        datum.write_text(json.dumps({"in_dims": [1], "out_dims": [1, 1], "c": [1.0],
                                     "d": [0.5, 0.5], "Q": [[0.1], [0.1]]}))
        f = {"lo": [-3.0], "hi": [3.0], "n": [7], "values": [0.0] + [0.5] * 5 + [0.0]}
        g = {"lo": [-0.3], "hi": [0.3], "n": [7], "values": [0.0] + [1.0] * 5 + [0.0]}
        grids.write_text(json.dumps({"f": [f], "g": [g, g]}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["flow-verify", str(datum), str(grids), "--times", "0"]) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines() == ["t,min_defect,argmin_x1", "0.0,0.0,-3.0"]
        assert captured.err == "verdict: holds (tol=0.0001, nodes=7 of 7)\n"

    def test_monotone_wrong_k_exit_two(self, pl_file, tmp_path, capsys):
        xs = np.linspace(-6, 6, 101)
        g = GridFunction([-6.0], [6.0], [101], np.exp(-xs**2))
        grids = tmp_path / "g.json"
        grids.write_text(json.dumps({"g": [grid_to_json(g)]}))
        assert main(["flow-monotone", pl_file, str(grids)]) == 2
        capsys.readouterr()


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def _with_token(obj, token: str) -> str:
    """``obj`` as JSON with the string "HUGE" replaced by the bare ``token``."""
    return json.dumps(obj).replace('"HUGE"', token)


def _assert_one_error_line(captured):
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


class TestContract:
    @pytest.mark.parametrize("case", ["check in_dims", "sigma in_dims", "grid n", "grid hi"])
    def test_non_finite_numbers_are_input_errors(self, case, pl_file, tmp_path, capsys):
        command, key = case.split()
        path = tmp_path / "input.json"
        grid = grid_to_json(GridFunction([-6.0], [6.0], [3], [0.0, 1.0, 0.0]))
        if key == "in_dims":
            obj, argv = {**HARD, "in_dims": ["HUGE"]}, [command, str(path)]
        else:
            obj = {"f": [{**grid, key: ["HUGE"]}, grid], "g": [grid]}
            argv = ["flow-verify", pl_file, str(path)]
        for token in ("1e400", "-1e400", "NaN", "Infinity"):
            path.write_text(_with_token(obj, token))
            assert main(argv) == 2, token
            _assert_one_error_line(capsys.readouterr())

    @pytest.mark.parametrize("shape", ["array", "object"])
    @pytest.mark.parametrize("command", ["check", "gaussian", "flow-verify", "gen"])
    def test_deep_nesting_is_input_error(self, command, shape, pl_file, tmp_path, capsys):
        # 100,000 levels: past the recursion limit of a recursive decoder,
        # and past the C stack of one that does not count its depth
        depth = 100_000
        path = tmp_path / "deep.json"
        if shape == "array":
            path.write_text("[" * depth + "]" * depth)
        else:
            path.write_text('{"a":' * depth + "1" + "}" * depth)
        argv = {"check": ["check", str(path)],
                "gaussian": ["gaussian", pl_file, str(path), "--op", "ratio"],
                "flow-verify": ["flow-verify", pl_file, str(path)],
                "gen": ["gen", "custom", "--path", str(path)]}[command]
        assert main(argv) == 2
        captured = capsys.readouterr()
        _assert_one_error_line(captured)
        assert "cannot read JSON" in captured.err and "nest deeper than 64" in captured.err

    def test_nesting_cap_counts_brackets_outside_strings_only(self, pl_file, tmp_path, capsys):
        path = tmp_path / "input.json"
        raw = json.loads(open(pl_file).read())
        # brackets and escaped quotes inside strings do not nest anything
        path.write_text(json.dumps({**raw, 'note "[\\': "[" * 100 + '\\"' + "]" * 100}))
        assert "\\" in path.read_text()
        assert main(["check", str(path)]) == 0
        capsys.readouterr()
        for depth, message in ((64, "invalid datum"), (65, "nest deeper than 64")):
            path.write_text(json.dumps({**raw, "Q": "HUGE"}).replace(
                '"HUGE"', "[" * (depth - 1) + "]" * (depth - 1)))
            assert main(["check", str(path)]) == 2
            captured = capsys.readouterr()
            _assert_one_error_line(captured)
            assert message in captured.err

    @pytest.mark.parametrize("tail", ["", "\\"], ids=["unclosed", "trailing-backslash"])
    def test_unclosed_string_is_rejected_in_linear_time(self, tail, tmp_path, capsys):
        # every escaped quote could open a string; a scan that retried each
        # one to the end of the text would take minutes here
        path = tmp_path / "input.json"
        path.write_text('"' + '\\"' * 200_000 + tail)
        start = time.perf_counter()
        assert main(["check", str(path)]) == 2
        assert time.perf_counter() - start < 5.0
        captured = capsys.readouterr()
        _assert_one_error_line(captured)
        assert "cannot read JSON" in captured.err

    def test_decoded_floats_match_float_bit_for_bit(self, tmp_path):
        rng = np.random.default_rng(12)
        tokens = ["2.4703282292062328e-324", "2.4703282292062327e-324",
                  "4.9406564584124654e-324", "2.2250738585072011e-308",
                  "2.2250738585072014e-308", "1.7976931348623157e308", "-0.0", "1e-400"]
        for _ in range(2000):
            digits = "".join(str(d) for d in rng.integers(0, 10, rng.integers(20, 26)))
            digits = str(rng.integers(1, 10)) + digits[1:]
            exponent = rng.integers(-330, 300)
            tokens.append(f"{rng.choice(['', '-'])}{digits[0]}.{digits[1:]}e{exponent}")
        tokens += [f"{m}e-{e}" for m in ("1", "2.5", "4.94065645841246544") for e in (310, 320)]
        path = tmp_path / "floats.json"
        path.write_text("[" + ",".join(tokens) + "]")
        decoded = cli._load_json(str(path))
        assert [x.hex() for x in decoded] == [float(t).hex() for t in tokens]

    @pytest.mark.parametrize("argv", [
        ["check", "--tol", "nan"], ["check", "--tol=-1"], ["check", "--tol", "inf"],
        ["sigma", "--tol", "nan"], ["sigma", "--max-iter=-5"], ["check", "--max-iter=-1"],
        ["gaussian", "--op", "relation", "--tol", "inf"],
        ["gaussian", "--op", "ratio", "--tol", "nan"],
        ["flow-verify", "--tol", "inf"], ["flow-verify", "--tol=-1e-4"],
        ["flow-monotone", "--assert-monotone", "nan"],
        ["flow-monotone", "--assert-monotone", "inf"],
        ["check", "--max-iter", "18446744073709551616"],
        ["sigma", "--max-iter", "18446744073709551616"],
        ["gaussian", "--op", "extremizer", "--seed", "18446744073709551616"],
    ], ids=" ".join)
    def test_unusable_options_are_input_errors(self, argv, pl_file, standard_tuple_file,
                                               tmp_path, capsys):
        files = {"check": [pl_file], "sigma": [pl_file],
                 "gaussian": [pl_file, standard_tuple_file],
                 "flow-verify": [pl_file, grids_file(tmp_path)],
                 "flow-monotone": [pl_file, grids_file(tmp_path)]}[argv[0]]
        assert main([argv[0], *files, *argv[1:]]) == 2
        captured = capsys.readouterr()
        _assert_one_error_line(captured)
        assert any(option in captured.err
                   for option in ("--tol", "--max-iter", "--assert-monotone", "--seed"))

    def test_reports_are_strict_json_with_non_finite_as_null(self, capsys):
        payload = {"nan": math.nan, "inf": math.inf, "minus_inf": -math.inf,
                   "np_float": np.float64(0.1), "np_nan": np.float64(math.nan),
                   "np_bool": np.bool_(False), "minus_zero": -0.0, "small": 1e-05,
                   "matrix": [[1.0, math.nan], (np.float64(2.5), -math.inf)],
                   "nested": {"empty": [], "none": None, "count": 3}}
        expected = {"nan": None, "inf": None, "minus_inf": None, "np_float": 0.1,
                    "np_nan": None, "np_bool": False, "minus_zero": -0.0, "small": 1e-05,
                    "matrix": [[1.0, None], [2.5, None]],
                    "nested": {"empty": [], "none": None, "count": 3}}
        cli._emit(payload, None)
        out = capsys.readouterr().out
        report = json.loads(out, parse_constant=_reject_constant)
        assert report == expected
        assert math.copysign(1.0, report["minus_zero"]) == -1.0
        # the stdlib's indent=2 layout; only the way 1e-05 is written differs
        assert out == json.dumps(expected, indent=2).replace("1e-05", "0.00001") + "\n"

    def test_largest_budget_is_echoed(self, pl_file, capsys):
        assert main(["sigma", pl_file, "--max-iter", str(2**64 - 1)]) == 0
        assert json.loads(capsys.readouterr().out)["max_iter"] == 2**64 - 1

    @pytest.mark.parametrize("which", ["datum", "grids"])
    def test_undecodable_file_is_input_error(self, which, pl_file, tmp_path, capsys):
        bad = tmp_path / "latin1.json"
        bad.write_bytes('{"caf\xe9": 1}'.encode("latin-1"))
        args = [str(bad), str(tmp_path / "unused.json")] if which == "datum" else [pl_file, str(bad)]
        assert main(["flow-verify", *args]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: cannot read JSON") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("command", ["check", "sigma"])
    def test_dimension_cap(self, tmp_path, command, capsys):
        # in_dims alone exceed the cap; Q is never read
        path = tmp_path / "big.json"
        path.write_text(json.dumps({**HARD, "in_dims": [33], "c": [1.0]}))
        assert main([command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "dim_in = 33 exceeds the cap" in captured.err

    def test_non_integer_box_counts_are_input_errors(self, tmp_path, capsys):
        datum, grids = tmp_path / "lw.json", tmp_path / "g.json"
        datum.write_text(json.dumps(datum_to_json(loomis_whitney_2d())))
        grid = grid_to_json(GridFunction([-6.0], [6.0], [3], [0.0, 1.0, 0.0]))
        grids.write_text(json.dumps({"g": [grid, grid]}))
        argv = ["flow-monotone", str(datum), str(grids), "--box-lo=-1,-1", "--box-hi=1,1"]
        assert main(argv + ["--box-n", "5,5"]) == 0
        for counts in ("inf,5", "nan,5"):
            assert main(argv + ["--box-n", counts]) == 2
            assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("box", [
        ["--box-lo=-1,-1", "--box-hi=1,1", "--box-n", "1,1"],
        ["--box-lo=-1,-1", "--box-hi=1,1", "--box-n", "0,0"],
        ["--box-lo=-1,-1", "--box-hi=1,1", "--box-n", "5.5,5"],
        ["--box-lo=-1,-1", "--box-hi=1,1", "--box-n", "5,5,5"],
        ["--box-lo=-1,-1,-1", "--box-hi=1,1", "--box-n", "5,5"],
        ["--box-lo=-1,-1,-1", "--box-hi=1,1,1", "--box-n", "5,5,5"],
        ["--box-lo=1,-1", "--box-hi=1,1", "--box-n", "5,5"],
    ], ids=["one-sample", "no-samples", "fractional", "extra-count", "extra-lo",
            "three-axes", "empty-axis"])
    def test_box_axis_rule(self, box, tmp_path, capsys):
        datum, grids = tmp_path / "lw.json", tmp_path / "g.json"
        datum.write_text(json.dumps(datum_to_json(loomis_whitney_2d())))
        grid = grid_to_json(GridFunction([-6.0], [6.0], [3], [0.0, 1.0, 0.0]))
        grids.write_text(json.dumps({"g": [grid, grid]}))
        assert main(["flow-monotone", str(datum), str(grids), *box]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("counts", [[101.9], ["101"], [101.0]],
                             ids=["fractional", "string", "float"])
    def test_grid_counts_must_be_integers(self, counts, pl_file, tmp_path, capsys):
        xs = np.linspace(-5.0, 5.0, 101)
        grid = {"lo": [-5.0], "hi": [5.0], "n": counts, "values": np.exp(-xs**2).tolist()}
        path = tmp_path / "grids.json"
        path.write_text(json.dumps({"f": [grid, grid], "g": [grid]}))
        assert main(["flow-verify", pl_file, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "integer count" in captured.err

    @pytest.mark.parametrize("key", ["in_dims", "out_dims"])
    def test_dimensions_must_be_integers(self, key, tmp_path, capsys):
        # a float equal to an integer is refused, as grid counts refuse 101.0
        raw = {**datum_to_json(prekopa_leindler(0.5)), "in_dims": [1, 1], "out_dims": [1]}
        raw[key] = [float(x) for x in raw[key]]
        path = tmp_path / "datum.json"
        path.write_text(json.dumps(raw))
        assert main(["check", str(path)]) == 2
        captured = capsys.readouterr()
        _assert_one_error_line(captured)
        assert "must be positive integers" in captured.err

    @pytest.mark.parametrize("case", ["datum c", "datum in_dims", "grid lo", "tuple form",
                                      "tuple log_prefactor"])
    def test_json_numbers_must_be_numbers(self, case, pl_file, tmp_path, capsys):
        # strings and booleans that float() or int() would read as numbers
        which, key = case.split()
        path = tmp_path / "input.json"
        xs = np.linspace(-10.0, 10.0, 101)
        grid = {"lo": [-10.0], "hi": [10.0], "n": [101], "values": np.exp(-xs**2).tolist()}
        gaussian = {"log_prefactor": 0.0, "form": [[1.0]]}
        if which == "datum":
            value = {"c": ["0.5", "0.5"], "in_dims": [True, True]}[key]
            obj, argv = {**datum_to_json(prekopa_leindler(0.5)), key: value}, ["check", str(path)]
        elif which == "grid":
            obj = {"f": [{**grid, "lo": ["-10"], "hi": ["1e1"]}, grid], "g": [grid]}
            argv = ["flow-verify", pl_file, str(path)]
        else:
            value = {"form": [["1.0"]], "log_prefactor": "0.5"}[key]
            obj = {"f": [{**gaussian, key: value}, gaussian], "g": [gaussian]}
            argv = ["gaussian", pl_file, str(path), "--op", "ratio"]
        path.write_text(json.dumps(obj))
        assert main(argv) == 2
        _assert_one_error_line(capsys.readouterr())

    @pytest.mark.parametrize("case", ["datum d", "grid values"])
    def test_booleans_among_numbers_are_input_errors(self, case, pl_file, tmp_path, capsys):
        # numpy reads [1.0, true] as [1.0, 1.0]; no input format holds a boolean
        path = tmp_path / "input.json"
        if case == "datum d":
            path.write_text(json.dumps({**datum_to_json(loomis_whitney_2d()), "d": [1.0, True]}))
            argv = ["check", str(path)]
        else:
            grid = grid_to_json(GridFunction([-6.0], [6.0], [3], [0.0, 1.0, 0.0]))
            bad = {**grid, "values": [0.0, False, 0.0]}
            path.write_text(json.dumps({"f": [grid, grid], "g": [bad]}))
            argv = ["flow-verify", pl_file, str(path)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        _assert_one_error_line(captured)
        assert "true and false are not numbers" in captured.err

    def test_true_and_false_inside_strings_are_read(self, pl_file, tmp_path, capsys):
        path = tmp_path / "datum.json"
        raw = json.loads(open(pl_file).read())
        path.write_text(json.dumps({**raw, "note": "true or false, [t] {f}"}))
        assert main(["check", str(path)]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("env, expected", [({}, "1"), ({"OMP_NUM_THREADS": "2"}, None),
                                               ({"OPENBLAS_NUM_THREADS": "3"}, "3")],
                             ids=["unset", "omp-set", "openblas-set"])
    def test_command_line_runs_one_blas_thread_unless_set(self, env, expected):
        code = ("import os, sys\n"
                "import frbl.cli\n"
                "print(os.environ.get('OPENBLAS_NUM_THREADS'))\n")
        done = _run_fresh(code, env)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == str(expected)

    @pytest.mark.parametrize("count", [100_000_000, MAX_BOX_AXIS + 1, MAX_BOX_AXIS])
    def test_box_axis_count_is_capped(self, count, tmp_path, capsys):
        # a box row is one chunk of the walk: 10^8 samples would be a 763-MB node array
        datum, grids = tmp_path / "holder.json", tmp_path / "g.json"
        datum.write_text(json.dumps(datum_to_json(holder([0.5, 0.5]))))
        grid = grid_to_json(GridFunction([-6.0], [6.0], [3], [0.0, 1.0, 0.0]))
        grids.write_text(json.dumps({"g": [grid, grid]}))
        argv = ["flow-monotone", str(datum), str(grids), "--box-lo=-1", "--box-hi=1",
                "--box-n", str(count)]
        if count <= MAX_BOX_AXIS:
            assert main(argv) == 0
            capsys.readouterr()
        else:
            assert main(argv) == 2
            _assert_one_error_line(capsys.readouterr())

    @pytest.mark.parametrize("command", ["flow-verify", "flow-monotone", "gen"])
    def test_unusable_arguments_are_input_errors(self, command, pl_file, tmp_path, capsys):
        line = tmp_path / "line.json"
        line.write_text(json.dumps(datum_to_json(holder([1.0]))))
        argv, message = {
            "flow-verify": ([pl_file, grids_file(tmp_path), "--times=-1"],
                            "times must be nonnegative"),
            "flow-monotone": ([str(line), grids_file(tmp_path), "--box-lo=-1"],
                              "must be given together"),
            "gen": (["custom"], "custom needs a path"),
        }[command]
        assert main([command, *argv]) == 2
        captured = capsys.readouterr()
        _assert_one_error_line(captured)
        assert message in captured.err

    @pytest.mark.parametrize("case", ["check missing-parent", "check directory",
                                      "flow-verify missing-parent", "flow-verify directory",
                                      "flow-verify fields-dir", "flow-verify field-file"])
    def test_unwritable_outputs_are_input_errors(self, case, pl_file, tmp_path, capsys):
        command, where = case.split()
        (tmp_path / "file").write_text("")
        option, path = {
            "missing-parent": ("--out", tmp_path / "missing" / "out.json"),
            "directory": ("--out", tmp_path),
            "fields-dir": ("--fields-dir", tmp_path / "file" / "fields"),
            "field-file": ("--fields-dir", tmp_path / "fields" / "defect_t0.1.csv"),
        }[where]
        value = path
        if where == "field-file":  # the first field file's name is taken by a directory
            path.mkdir(parents=True)
            value = path.parent
        files = [pl_file] if command == "check" else [pl_file, grids_file(tmp_path)]
        assert main([command, *files, option, str(value)]) == 2
        captured = capsys.readouterr()
        _assert_one_error_line(captured)
        assert captured.err.startswith(f"error: cannot write {path}: ")

    @pytest.mark.parametrize("times", ["nan", "0.1,nan"])
    @pytest.mark.parametrize("command", ["flow-verify", "flow-monotone"])
    def test_nan_times_are_input_errors(self, command, times, pl_file, tmp_path, capsys):
        line = tmp_path / "line.json"
        line.write_text(json.dumps(datum_to_json(holder([1.0]))))
        datum, message = {"flow-verify": (pl_file, "times must be nonnegative, got nan"),
                          "flow-monotone": (str(line), "must be positive, got nan")}[command]
        assert main([command, datum, grids_file(tmp_path), f"--times={times}"]) == 2
        captured = capsys.readouterr()
        _assert_one_error_line(captured)
        assert message in captured.err

    def test_flow_verify_caps_the_input_sum_at_three_axes(self, tmp_path, capsys):
        datum, grids = tmp_path / "four.json", tmp_path / "g.json"
        datum.write_text(json.dumps({"in_dims": [1] * 4, "out_dims": [1], "c": [0.25] * 4,
                                     "d": [1.0], "Q": [[0.25] * 4]}))
        grid = grid_to_json(GridFunction([-6.0], [6.0], [3], [0.0, 1.0, 0.0]))
        grids.write_text(json.dumps({"f": [grid] * 4, "g": [grid]}))
        assert main(["flow-verify", str(datum), str(grids)]) == 2
        captured = capsys.readouterr()
        assert captured.err == ("error: grid scans are limited to input sums of dimension "
                                "at most 3\n")

    def test_flow_monotone_caps_the_input_sum_at_three_axes(self, tmp_path, capsys):
        # an explicit 3^4 box: the default one would ask for 101^4 nodes
        datum, grids = tmp_path / "four.json", tmp_path / "g.json"
        datum.write_text(json.dumps({"in_dims": [4], "out_dims": [1] * 4, "c": [1.0],
                                     "d": [1.0] * 4, "Q": np.eye(4).tolist()}))
        grid = grid_to_json(GridFunction([-6.0], [6.0], [3], [0.0, 1.0, 0.0]))
        grids.write_text(json.dumps({"g": [grid] * 4}))
        argv = ["flow-monotone", str(datum), str(grids), "--box-lo=-1,-1,-1,-1",
                "--box-hi=1,1,1,1", "--box-n", "3,3,3,3"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == ("error: grid scans are limited to input sums of dimension "
                                "at most 3\n")

    @pytest.mark.parametrize("command", ["check", "sigma"])
    def test_exhausted_budget_is_strict_json(self, pl_file, command, capsys):
        assert main([command, pl_file, "--max-iter", "0"]) == 1
        report = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
        assert report["reason"] == "max-iter"
        assert report["residual_in"] is None and report["residual_out"] is None

    @pytest.mark.parametrize("command", ["check", "sigma"])
    def test_zero_budget_on_identity_coupled_data_is_found(self, tmp_path, command, capsys):
        # the identity start meets tol, so no projection is spent
        path = tmp_path / "young.json"
        path.write_text(json.dumps(datum_to_json(young_frame())))
        assert main([command, str(path), "--max-iter", "0"]) == 0
        report = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
        assert report["iterations"] == 0
        assert report["sigma"] == np.eye(2).tolist()

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

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("case", ["flow-verify", "flow-verify worker", "flow-monotone",
                                      "flow-monotone worker"])
    def test_overflow_in_the_scan_is_input_error(self, case, cpus, tmp_path, monkeypatch,
                                                  capsys):
        # Each "worker" case overflows in chunk 1 alone (one row per chunk),
        # which on two CPUs is the worker thread's; the flow-verify case
        # without it exited 0 with a verdict and the flow-monotone one printed
        # Q = inf.
        command, *worker = case.split()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))

        def grid(lo, hi, n, fn):
            xs = np.linspace(lo, hi, n)
            return grid_to_json(GridFunction([lo], [hi], [n], fn(xs)))

        datum, grids = tmp_path / "datum.json", tmp_path / "grids.json"
        if command == "flow-verify":
            datum.write_text(json.dumps({**datum_to_json(prekopa_leindler(0.5)),
                                         "Q": [1e308, -1e308]}))
            g = grid(-3.0, 3.0, 13, lambda x: np.exp(-x**2))
            f = [g, g]
            if worker:  # rows x1 = 0 and 3: the projection overflows in the second
                f = [grid(0.0, 3.0, 2, lambda x: np.exp(-x**2)),
                     grid(-1.5, 1.5, 13, lambda x: np.exp(-x**2))]
                monkeypatch.setattr(heatflow, "SCAN_CHUNK", 13)
            grids.write_text(json.dumps({"f": f, "g": [g]}))
            argv, message = [], "overflow encountered in matmul"
        else:
            datum.write_text(json.dumps(datum_to_json(young_frame())))
            g = grid(-15.0, 15.0, 601, lambda y: 1e200 * np.exp(-y**2 / 50))
            argv = ["--times", "0,1"]
            if worker:  # rows x1 = -1 and 1: the first g grid is 1e200 times larger at y >= 0
                g0 = grid(-15.0, 15.0, 601, lambda y: np.where(y < 0, 1.0, 1e200)
                          * np.exp(-y**2 / 50))
                grids.write_text(json.dumps({"g": [g0, g, g]}))
                argv = ["--times", "0", "--box-lo=-1,-1", "--box-hi=1,1", "--box-n", "2,3"]
                monkeypatch.setattr(heatflow, "SCAN_CHUNK", 3)
            else:
                grids.write_text(json.dumps({"g": [g] * 3}))
            message = "overflow encountered in multiply"
        assert main([command, str(datum), str(grids), *argv]) == 2
        captured = capsys.readouterr()
        _assert_one_error_line(captured)
        assert captured.err == f"error: input out of numerical range: {message}\n"

    @pytest.mark.parametrize("op", ["ratio", "relation"])
    def test_overflowing_prefactors_are_input_error(self, pl_file, tmp_path, op, capsys):
        path = tmp_path / "huge.json"
        f = {"log_prefactor": 1e308, "form": [[1.0]]}
        path.write_text(json.dumps({"f": [f, f], "g": [{**f, "log_prefactor": -1e308}]}))
        assert main(["gaussian", pl_file, str(path), "--op", op]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1

    def test_ratio_beyond_exp_range_is_null(self, pl_file, tmp_path, capsys):
        # the log ratio is finite, so the answer stands; only exp(log ratio) overflows
        path = tmp_path / "tall.json"
        f = {"log_prefactor": 1000.0, "form": [[1.0]]}
        path.write_text(json.dumps({"f": [f, f], "g": [{**f, "log_prefactor": 0.0}]}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["gaussian", pl_file, str(path), "--op", "ratio"]) == 0
        captured = capsys.readouterr()
        report = json.loads(captured.out, parse_constant=_reject_constant)
        assert report["ratio"] is None and report["log_ratio"] == pytest.approx(1000.0)
        assert captured.err == ""

    def test_certification_imports_no_scipy(self, pl_file, tmp_path):
        # scipy would add to every start-up of these commands
        code = (
            "import sys\n"
            "from frbl.cli import main\n"
            f"assert main(['check', {pl_file!r}, '--out', {str(tmp_path / 'c.json')!r}]) == 0\n"
            f"assert main(['sigma', {pl_file!r}, '--out', {str(tmp_path / 's.json')!r}]) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        done = _run_fresh(code)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_no_command_imports_scipy(self, pl_file, standard_tuple_file, tmp_path):
        # numpy and orjson are the only runtime dependencies: the heat steps
        # of the flow commands run on numpy's FFT
        grids = grids_file(tmp_path)
        xs = np.linspace(-10, 10, 101)
        g = grid_to_json(GridFunction([-10.0], [10.0], [101], np.exp(-xs**2)))
        mono = tmp_path / "mono.json"
        mono.write_text(json.dumps({"g": [g, g]}))
        lw = str(tmp_path / "lw.json")
        code = (
            "import sys, contextlib, io\n"
            "from frbl.cli import main\n"
            "runs = [\n"
            f"    ['check', {pl_file!r}],\n"
            f"    ['sigma', {pl_file!r}],\n"
            f"    ['gaussian', {pl_file!r}, {standard_tuple_file!r}, '--op', 'relation'],\n"
            f"    ['flow-verify', {pl_file!r}, {grids!r}, '--times', '0.1,0.5'],\n"
            f"    ['gen', 'loomis-whitney-2d', '--out', {lw!r}],\n"
            f"    ['flow-monotone', {lw!r}, {str(mono)!r}, '--times', '0,0.5',\n"
            "     '--box-lo=-10,-10', '--box-hi', '10,10', '--box-n', '101,101'],\n"
            "]\n"
            "for argv in runs:\n"
            "    with contextlib.redirect_stdout(io.StringIO()), \\\n"
            "            contextlib.redirect_stderr(io.StringIO()):\n"
            "        code = main(argv)\n"
            "    assert code == 0, argv\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        done = _run_fresh(code)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

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


# Each is put in place of every key of every input file in turn.
_FUZZ_VALUES = [None, [], {}, "x", -1, 0, 1e300, -1e300, [[]], [None], [1e308, -1e308], [0],
                [1, 2, 3]]


class TestFuzz:
    @pytest.mark.parametrize("command", ["check", "sigma", "gaussian relation", "gaussian ratio",
                                         "gaussian extremizer", "gaussian geometrize",
                                         "flow-verify", "flow-monotone"])
    def test_every_key_keeps_the_exit_contract(self, command, tmp_path, capsys):
        # every run exits 0, 1 or 2 without a traceback, a run that exits 2
        # prints one error line alone, and a JSON report is strict JSON
        axis = np.linspace(-3.0, 3.0, 13)
        grid = grid_to_json(GridFunction([-3.0], [3.0], [13], np.exp(-axis**2)))
        gaussian = {"log_prefactor": 0.0, "form": [[1.0]]}
        name, *op = command.split()
        inputs = {"datum": datum_to_json(holder([1.0]) if name == "flow-monotone"
                                         else prekopa_leindler(0.5))}
        if name == "gaussian":
            inputs["tuple"] = {"f": [gaussian, gaussian], "g": [gaussian]}
        elif name == "flow-verify":
            inputs["grids"] = {"f": [grid, grid], "g": [grid]}
        elif name == "flow-monotone":
            inputs["grids"] = {"g": [grid]}
        paths = {key: tmp_path / f"{key}.json" for key in inputs}
        argv = [name, *map(str, paths.values()), *(["--op", *op] if op else [])]
        for key, path in paths.items():
            path.write_text(json.dumps(inputs[key]))
        assert main(argv) in (0, 1)
        capsys.readouterr()
        for key, base in inputs.items():
            # the file's own keys, and those of the first grid or Gaussian of a list
            entries = [(k,) for k in base] + [(k, 0, sub) for k, v in base.items()
                                              if isinstance(v[0], dict) for sub in v[0]]
            for *parents, last in entries:
                for value in _FUZZ_VALUES:
                    obj = json.loads(json.dumps(base))
                    functools.reduce(operator.getitem, parents, obj)[last] = value
                    paths[key].write_text(json.dumps(obj))
                    rc = main(argv)
                    out, err = capsys.readouterr()
                    where = (key, *parents, last, value, out, err)
                    assert rc in (0, 1, 2), where
                    if rc == 2:
                        assert out == "" and err.startswith("error:") and err.count("\n") == 1, where
                    elif name in ("check", "sigma", "gaussian"):
                        json.loads(out, parse_constant=_reject_constant)
            paths[key].write_text(json.dumps(base))
