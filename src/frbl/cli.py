"""Command-line front end.

Commands: ``gen`` (instance generators), ``check`` (geometric
certification), ``sigma`` (the feasibility search alone), ``gaussian``
(relation / ratio / extremizer / geometrize on Gaussian tuples),
``flow-verify`` (grid preservation scan) and ``flow-monotone`` (the
monotone functional).

Exit codes are stable across commands: 0 when the checked property holds
(or the computation succeeded for pure computations), 1 when the property
fails, 2 on invalid input, including a datum whose magnitudes overflow
double precision.  Reports are strict JSON on stdout, with non-finite
numbers as null (CSV for the flow commands), and include the tolerances
used.  Set ``FRBL_LOG`` to a level name (debug, info, ...) for
diagnostics on stderr.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import logging
import math
import os
import sys

import numpy as np

from . import gaussian as gc
from . import heatflow as hf
from .datum import datum_from_json, datum_to_json, transform_to_json
from .geometry import check_geometric, find_sigma
from .instances import INSTANCE_NAMES, generate

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2

log = logging.getLogger("frbl.cli")


class InputError(Exception):
    """Any problem with user-supplied files or parameters (exit code 2)."""


def _configure_logging() -> None:
    level_name = os.environ.get("FRBL_LOG", "").strip().upper()
    if level_name:
        level = getattr(logging, level_name, None)
        if isinstance(level, int):
            logging.basicConfig(level=level, stream=sys.stderr,
                                format="%(name)s %(levelname)s %(message)s")


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read JSON from {path}: {exc}") from exc


def _load_datum(path: str):
    try:
        return datum_from_json(_load_json(path))
    except (ValueError, TypeError) as exc:
        raise InputError(f"invalid datum in {path}: {exc}") from exc


def _load_tuple(path: str):
    try:
        return gc.tuple_from_json(_load_json(path))
    except (ValueError, TypeError) as exc:
        raise InputError(f"invalid Gaussian tuple in {path}: {exc}") from exc


def _load_grids(path: str, need_f: bool = True):
    obj = _load_json(path)
    try:
        g_grids = [hf.grid_from_json(g) for g in obj["g"]]
        f_grids = [hf.grid_from_json(g) for g in obj["f"]] if need_f else []
    except (KeyError, ValueError, TypeError) as exc:
        raise InputError(f"invalid grids file {path}: {exc}") from exc
    return f_grids, g_grids


def _finite_or_null(obj):
    """``obj`` with every non-finite float replaced by ``None`` (JSON null)."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: _finite_or_null(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(val) for val in obj]
    return obj


def _emit(payload, out: str | None) -> None:
    text = json.dumps(_finite_or_null(payload), indent=2, allow_nan=False)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _write_csv(rows, out: str | None) -> None:
    if out:
        with open(out, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(rows)
    else:
        csv.writer(sys.stdout).writerows(rows)


def _parse_floats(text: str, what: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise InputError(f"cannot parse {what}: {text!r}") from exc


def _cmd_gen(args) -> int:
    weights = _parse_floats(args.weights, "--weights") if args.weights else None
    try:
        datum = generate(args.name, lam=args.lam, weights=weights, dim=args.dim,
                         path=args.path)
    except (ValueError, OSError) as exc:
        raise InputError(str(exc)) from exc
    _emit(datum_to_json(datum), args.out)
    return EXIT_OK


def _in_range(fn, datum, **kwargs):
    """Run a certification step; a datum whose magnitudes overflow double
    precision on the way is an input error, not a verdict."""
    try:
        with np.errstate(over="raise"):
            return fn(datum, **kwargs)
    except (FloatingPointError, ValueError, np.linalg.LinAlgError) as exc:
        raise InputError(f"datum out of numerical range: {exc}") from exc


def _cmd_check(args) -> int:
    datum = _load_datum(args.datum)
    cert = _in_range(check_geometric, datum, tol=args.tol, max_iter=args.max_iter)
    report = {"tol": args.tol, "max_iter": args.max_iter, **cert.to_json()}
    _emit(report, args.out)
    return EXIT_OK if cert.verdict == "geometric" else EXIT_FAIL


def _cmd_sigma(args) -> int:
    datum = _load_datum(args.datum)
    result = _in_range(find_sigma, datum, tol=args.tol, max_iter=args.max_iter)
    report = {
        "tol": args.tol,
        "max_iter": args.max_iter,
        "status": result.status,
        "sigma": None if result.sigma is None else result.sigma.mat.tolist(),
        "sigma_min_eig": result.sigma_min_eig,
        "residual_in": result.residual_in,
        "residual_out": result.residual_out,
        "iterations": result.iterations,
        "reason": result.reason,
    }
    _emit(report, args.out)
    return EXIT_OK if result.status == "found" else EXIT_FAIL


def _cmd_gaussian(args) -> int:
    datum = _load_datum(args.datum)
    tup = _load_tuple(args.tuple)
    try:
        tup.check_layout(datum)
    except ValueError as exc:
        raise InputError(str(exc)) from exc

    if args.op == "relation":
        rel = gc.relation_check(datum, tup, tol=args.tol)
        _emit({"tol": args.tol, "holds": rel.holds,
               "form_gap_min_eig": rel.form_gap_min_eig,
               "prefactor_gap": rel.prefactor_gap}, args.out)
        return EXIT_OK if rel.holds else EXIT_FAIL

    if args.op == "ratio":
        log_ratio = gc.log_frbl_ratio(datum, tup)
        _emit({"ratio": float(np.exp(log_ratio)), "log_ratio": log_ratio}, args.out)
        return EXIT_OK

    if args.op == "extremizer":
        cert = check_geometric(datum)
        comparison: tuple = ()
        if cert.verdict != "geometric":
            rng = np.random.default_rng(args.seed)
            comparison = tuple(
                gc.random_admissible_tuple(datum, rng) for _ in range(args.samples)
            )
        try:
            verdict = gc.extremizer_check(datum, tup, tol=args.tol,
                                          certificate=cert, comparison=comparison)
        except ValueError as exc:
            raise InputError(str(exc)) from exc
        _emit({"tol": args.tol, "seed": args.seed,
               "is_extremizer": verdict.is_extremizer, "ratio": verdict.ratio,
               "log_ratio": verdict.log_ratio,
               "reference_log_ratio": verdict.reference_log_ratio,
               "basis": verdict.basis}, args.out)
        return EXIT_OK if verdict.is_extremizer else EXIT_FAIL

    # geometrize: the tuple's form matrices are taken as the heat weights
    try:
        transform, transformed, cert = gc.geometrize_from_extremizers(
            datum,
            [g.form for g in tup.f],
            [g.form for g in tup.g],
        )
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    _emit({"transform": transform_to_json(transform),
           "datum": datum_to_json(transformed),
           "certificate": cert.to_json()}, args.out)
    return EXIT_OK if cert.verdict == "geometric" else EXIT_FAIL


def _cmd_flow_verify(args) -> int:
    datum = _load_datum(args.datum)
    f_grids, g_grids = _load_grids(args.grids, need_f=True)
    times = _parse_floats(args.times, "--times")
    try:
        field = hf.verify_preservation(datum, f_grids, g_grids, times, tol=args.tol,
                                       shift=args.shift,
                                       collect_fields=args.fields_dir is not None)
    except hf.PreservationPreconditionError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_FAIL
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    _write_csv(field.csv_rows(), args.out)
    if args.fields_dir is not None:
        os.makedirs(args.fields_dir, exist_ok=True)
        dim = len(field.argmin[0])
        header = [f"x{i + 1}" for i in range(dim)] + ["defect"]
        for t, data in zip(field.times, field.fields):
            rows = [header] + data.tolist()
            _write_csv(rows, os.path.join(args.fields_dir, f"defect_t{t:g}.csv"))
    print(f"verdict: {'holds' if field.holds else 'fails'} "
          f"(tol={args.tol}, nodes={field.nodes_evaluated})", file=sys.stderr)
    return EXIT_OK if field.holds else EXIT_FAIL


def _cmd_flow_monotone(args) -> int:
    datum = _load_datum(args.datum)
    _, g_grids = _load_grids(args.grids, need_f=False)
    times = _parse_floats(args.times, "--times")
    box = None
    if args.box_lo or args.box_hi or args.box_n:
        if not (args.box_lo and args.box_hi and args.box_n):
            raise InputError("--box-lo, --box-hi and --box-n must be given together")
        box = (
            tuple(_parse_floats(args.box_lo, "--box-lo")),
            tuple(_parse_floats(args.box_hi, "--box-hi")),
            tuple(int(x) for x in _parse_floats(args.box_n, "--box-n")),
        )
    try:
        series = hf.monotone_functional(datum, g_grids, times, box=box)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    _write_csv([["t", "Q"]] + [[t, q] for t, q in series], args.out)
    if args.assert_monotone is not None:
        slack = args.assert_monotone
        values = [q for _, q in series]
        if any(b < a * (1.0 - slack) for a, b in zip(values, values[1:])):
            print(f"monotonicity violated beyond relative slack {slack}", file=sys.stderr)
            return EXIT_FAIL
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frbl",
        description="Certify and numerically probe forward-reverse Brascamp-Lieb data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="emit a classical instance as datum JSON")
    p.add_argument("name", choices=INSTANCE_NAMES)
    p.add_argument("--lam", type=float, default=None, help="weight for prekopa-leindler")
    p.add_argument("--weights", default=None, help="comma-separated weights for holder")
    p.add_argument("--dim", type=int, default=1, help="factor dimension for holder")
    p.add_argument("--path", default=None, help="datum JSON file for custom")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("check", help="run the full geometric certification")
    p.add_argument("datum")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--max-iter", type=int, default=50_000)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("sigma", help="run only the feasibility search for sigma")
    p.add_argument("datum")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--max-iter", type=int, default=50_000)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_sigma)

    p = sub.add_parser("gaussian", help="closed-form checks on a Gaussian tuple")
    p.add_argument("datum")
    p.add_argument("tuple")
    p.add_argument("--op", choices=("relation", "ratio", "extremizer", "geometrize"),
                   required=True)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the sampled comparison family (non-geometric extremizer runs)")
    p.add_argument("--samples", type=int, default=64,
                   help="size of the sampled comparison family")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_gaussian)

    p = sub.add_parser("flow-verify", help="grid scan of the preserved relation")
    p.add_argument("datum")
    p.add_argument("grids", help='JSON file {"f": [grid...], "g": [grid...]}')
    p.add_argument("--times", default="0.1,0.5,1")
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--shift", type=float, default=0.0,
                   help="constant added to the g side before exponentiation")
    p.add_argument("--out", default=None, help="defect CSV (stdout by default)")
    p.add_argument("--fields-dir", default=None,
                   help="also write one full defect-field CSV per time into this directory")
    p.set_defaults(func=_cmd_flow_verify)

    p = sub.add_parser("flow-monotone", help="the monotone functional for k=1 data")
    p.add_argument("datum")
    p.add_argument("grids", help='JSON file {"g": [grid...]}')
    p.add_argument("--times", default="0,0.25,0.5,1,2")
    p.add_argument("--box-lo", default=None, help="integration box lower corner, comma-separated")
    p.add_argument("--box-hi", default=None, help="integration box upper corner")
    p.add_argument("--box-n", default=None, help="integration samples per axis")
    p.add_argument("--assert-monotone", type=float, default=None, metavar="RELTOL",
                   help="exit 1 if the series dips by more than this relative slack "
                        "(use a box aligned with the g grids to avoid interpolation noise)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_flow_monotone)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    _configure_logging()
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
