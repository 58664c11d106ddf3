"""Command-line front end.

Commands: ``gen`` (instance generators), ``check`` (geometric
certification), ``sigma`` (the feasibility search alone), ``gaussian``
(relation / ratio / extremizer / geometrize on Gaussian tuples),
``flow-verify`` (grid preservation scan) and ``flow-monotone`` (the
monotone functional).

Exit codes are stable across commands: 0 when the checked property holds
(or the computation succeeded for pure computations), 1 when the property
fails, 2 on invalid input: a datum, tuple or grid whose magnitudes overflow
double precision in any command (the flow commands' scans included), a
``--max-iter`` or ``--seed`` outside ``[0, 2**64)``, or an ``--out`` or
``--fields-dir`` that cannot be written.  :func:`main` alone turns an
exception into exit 2.
orjson is the JSON codec both ways.  Inputs are strict RFC 8259 JSON:
``NaN``, ``Infinity`` and numbers beyond double range are unreadable, as
is nesting deeper than :data:`MAX_JSON_DEPTH`.  Reports are strict JSON
on stdout (CSV for the flow commands), indented by two spaces, with
non-finite numbers as null and every float in its shortest round-trip
form (``1e-8``, ``0.00001``), and include the tolerances used.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import re
import sys
from dataclasses import asdict
from itertools import accumulate

# One BLAS thread unless the user sets a count.  Under OpenBLAS's default
# threading on two cores the LAPACK set-up of the sigma constraints now and
# then stalls for 0.1-0.6 s in a fresh process, and the projections of the
# defect scan compete with its own two threads.  The count takes effect only
# if set before numpy loads, so an import after numpy changes nothing.
if "numpy" not in sys.modules and not {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"} & set(os.environ):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402
import orjson  # noqa: E402

# ``gaussian``, ``heatflow`` and ``csv`` are imported by the commands that
# use them, so no command pays for loading code it never runs.
from . import datum as dm  # noqa: E402
from .datum import datum_to_json, transform_to_json  # noqa: E402
from .geometry import (DEFAULT_FEASIBILITY_TOL, DEFAULT_MAX_ITER, check_geometric,  # noqa: E402
                       find_sigma)
from .instances import INSTANCE_NAMES, generate  # noqa: E402
from .linalg import DEFAULT_DEFECT_TOL, DEFAULT_RELATION_TOL  # noqa: E402

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2


@contextlib.contextmanager
def _input_errors(prefix: str, kinds=(ValueError,)):
    """Turn an exception of the ``kinds`` raised inside the block into a
    ValueError whose message is ``prefix`` followed by its own."""
    try:
        yield
    except kinds as exc:
        raise ValueError(f"{prefix}{exc}") from exc


# No input format nests deeper than six levels.  orjson recurses on the C
# stack without a limit (3.8 crashes the process on ~60,000 nested objects),
# so deeper text is refused before it is decoded.
MAX_JSON_DEPTH = 64
# A string that never closes runs to the end of the text, so a match started
# at any quote succeeds and the scan stays linear on any input; orjson
# rejects the unclosed string itself.
_JSON_STRING = re.compile(rb'"[^"\\]*(?:\\.[^"\\]*)*(?:"|\\?\Z)', re.DOTALL)
_NOT_MARK = bytes(sorted(set(range(256)) - set(b'"[]{}tf')))
_NESTING = {ord("["): 1, ord("{"): 1, ord("]"): -1, ord("}"): -1, ord("t"): 0, ord("f"): 0}


def _json_marks(data: bytes) -> bytes:
    """The brackets of the JSON text ``data`` outside strings, with the
    letters ``t`` and ``f``, which outside strings begin only ``true`` and
    ``false``."""
    if b"\\" in data:  # an escaped quote does not end its string
        data = _JSON_STRING.sub(b"", data)
    # quotes, brackets and the two letters alone, then the strings among them dropped
    return _JSON_STRING.sub(b"", data.translate(None, _NOT_MARK))


def _load_json(path: str):
    """The JSON value in the file ``path``, decoded by orjson from one read.

    ValueError covers malformed JSON, bytes that are not UTF-8, the
    non-standard tokens, numbers beyond double range and ``true`` or
    ``false``, which no input format holds: numpy would read a boolean
    among floats as a number."""
    with _input_errors(f"cannot read JSON from {path}: ", (OSError, ValueError)):
        with open(path, "rb") as fh:
            data = fh.read()
        marks = _json_marks(data)
        if max(accumulate(map(_NESTING.__getitem__, marks)), default=0) > MAX_JSON_DEPTH:
            raise ValueError(f"arrays and objects nest deeper than {MAX_JSON_DEPTH} levels")
        value = orjson.loads(data)
        if b"t" in marks or b"f" in marks:
            raise ValueError("true and false are not numbers, and no input holds them")
        return value


def _load(path: str, what: str, parse):
    """``parse`` of the JSON in ``path``; any failure is an input error."""
    obj = _load_json(path)
    with _input_errors(f"invalid {what} in {path}: ", (KeyError, ValueError, TypeError,
                                                        OverflowError)):
        return parse(obj)


def _load_datum(path: str):
    # looked up through the module on every call, so a wrapper set there is seen
    return _load(path, "datum", dm.validate_datum)


def _load_grids(path: str, need_f: bool = True):
    from . import heatflow as hf

    def parse(obj):
        g_grids = [hf.grid_from_json(g) for g in obj["g"]]
        return [hf.grid_from_json(g) for g in obj["f"]] if need_f else [], g_grids

    return _load(path, "grids", parse)


def _write(out: str | None, write) -> None:
    """``write(stream)`` into the file ``out``, or to stdout without one."""
    if out:
        with _input_errors(f"cannot write {out}: ", (OSError,)), \
                open(out, "w", newline="", encoding="utf-8") as fh:
            write(fh)
    else:
        write(sys.stdout)


def _emit(payload, out: str | None) -> None:
    options = orjson.OPT_INDENT_2 | orjson.OPT_SERIALIZE_NUMPY
    text = orjson.dumps(payload, option=options).decode()
    _write(out, lambda fh: fh.write(text + "\n"))


def _write_csv(rows, out: str | None) -> None:
    import csv

    _write(out, lambda fh: csv.writer(fh).writerows(rows))


def _parse_numbers(text: str, what: str, kind=float) -> list:
    with _input_errors(f"cannot parse {what} {text!r}: "):
        return [kind(x) for x in text.split(",") if x.strip() != ""]


def _cmd_gen(args) -> int:
    if args.name == "custom":
        if args.path is None:
            raise ValueError("custom needs a path to a datum JSON file")
        datum = _load_datum(args.path)
    else:
        weights = _parse_numbers(args.weights, "--weights") if args.weights else None
        datum = generate(args.name, lam=args.lam, weights=weights, dim=args.dim)
    _emit(datum_to_json(datum), args.out)
    return EXIT_OK


def _check_options(args) -> None:
    """Reject a tolerance, slack, iteration budget, seed or sample count that
    no verdict can honour, before any file is read.  Reports echo
    ``--max-iter`` and ``--seed``, and orjson writes integers in 64 bits."""
    tol = getattr(args, "tol", 0.0)
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"--tol must be finite and non-negative, got {tol}")
    if not math.isfinite(getattr(args, "assert_monotone", None) or 0.0):
        raise ValueError(f"--assert-monotone must be finite, got {args.assert_monotone}")
    for name in ("max_iter", "seed"):
        value = getattr(args, name, 0)
        if not 0 <= value < 2**64:
            raise ValueError(f"--{name.replace('_', '-')} must be in [0, 2**64), got {value}")
    if getattr(args, "samples", 1) < 1:
        raise ValueError("--samples must be at least 1")


def _cmd_check(args) -> int:
    datum = _load_datum(args.datum)
    cert = check_geometric(datum, tol=args.tol, max_iter=args.max_iter)
    _emit({"tol": args.tol, "max_iter": args.max_iter, **cert.to_json()}, args.out)
    return EXIT_OK if cert.verdict == "geometric" else EXIT_FAIL


def _cmd_sigma(args) -> int:
    datum = _load_datum(args.datum)
    result = find_sigma(datum, tol=args.tol, max_iter=args.max_iter)
    _emit({"tol": args.tol, "max_iter": args.max_iter, **result.to_json()}, args.out)
    return EXIT_OK if result.status == "found" else EXIT_FAIL


def _cmd_gaussian(args) -> int:
    from . import gaussian as gc

    datum = _load_datum(args.datum)
    tup = _load(args.tuple, "Gaussian tuple", gc.tuple_from_json)
    tup.check_layout(datum)
    if args.op == "relation":
        rel = gc.relation_check(datum, tup, tol=args.tol)
        _emit({"tol": args.tol, **asdict(rel)}, args.out)
        return EXIT_OK if rel.holds else EXIT_FAIL

    if args.op == "ratio":
        log_ratio = gc.log_frbl_ratio(datum, tup)
        _emit({"ratio": gc._ratio(log_ratio), "log_ratio": log_ratio}, args.out)
        return EXIT_OK

    if args.op == "extremizer":
        # drawn only if extremizer_check finds the datum not geometric
        families = gc.sample_families(datum, np.random.default_rng(args.seed), args.samples)
        verdict = gc.extremizer_check(datum, tup, tol=args.tol, comparison=families)
        _emit({"tol": args.tol, "seed": args.seed, **asdict(verdict)}, args.out)
        return EXIT_OK if verdict.is_extremizer else EXIT_FAIL

    # geometrize: the tuple's form matrices are taken as the heat weights
    transform, transformed, cert = gc.geometrize_from_extremizers(
        datum,
        [g.form for g in tup.f],
        [g.form for g in tup.g],
    )
    _emit({"transform": transform_to_json(transform),
           "datum": datum_to_json(transformed),
           "certificate": cert.to_json()}, args.out)
    return EXIT_OK if cert.verdict == "geometric" else EXIT_FAIL


def _cmd_flow_verify(args) -> int:
    from . import heatflow as hf

    datum = _load_datum(args.datum)
    f_grids, g_grids = _load_grids(args.grids, need_f=True)
    times = _parse_numbers(args.times, "--times")
    try:
        field = hf.verify_preservation(datum, f_grids, g_grids, times, tol=args.tol,
                                       shift=args.shift,
                                       collect_fields=args.fields_dir is not None)
    except hf.PreservationPreconditionError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_FAIL
    if args.fields_dir is not None:  # first, so a write that fails leaves stdout empty
        with _input_errors(f"cannot write {args.fields_dir}: ", (OSError,)):
            os.makedirs(args.fields_dir, exist_ok=True)
        for t, data in zip(field.times, field.fields):
            rows = [[*field.columns("x"), "defect"]] + data.tolist()
            _write_csv(rows, os.path.join(args.fields_dir, f"defect_t{t:g}.csv"))
    _write_csv(field.csv_rows(), args.out)
    print(f"verdict: {'holds' if field.holds else 'fails'} (tol={args.tol}, "
          f"nodes={field.nodes_evaluated} of {math.prod(fg.values.size for fg in f_grids)})",
          file=sys.stderr)
    return EXIT_OK if field.holds else EXIT_FAIL


def _cmd_flow_monotone(args) -> int:
    from . import heatflow as hf

    datum = _load_datum(args.datum)
    _, g_grids = _load_grids(args.grids, need_f=False)
    times = _parse_numbers(args.times, "--times")
    box = None
    if args.box_lo or args.box_hi or args.box_n:
        if not (args.box_lo and args.box_hi and args.box_n):
            raise ValueError("--box-lo, --box-hi and --box-n must be given together")
        box = (_parse_numbers(args.box_lo, "--box-lo"), _parse_numbers(args.box_hi, "--box-hi"),
               _parse_numbers(args.box_n, "--box-n", int))
    series = hf.monotone_functional(datum, g_grids, times, box=box)
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
    p.add_argument("name", choices=INSTANCE_NAMES + ("custom",))
    p.add_argument("--lam", type=float, default=None, help="weight for prekopa-leindler")
    p.add_argument("--weights", default=None, help="comma-separated weights for holder")
    p.add_argument("--dim", type=int, default=1, help="factor dimension for holder")
    p.add_argument("--path", default=None, help="datum JSON file for custom")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_gen)

    for name, what, func in (("check", "run the full geometric certification", _cmd_check),
                             ("sigma", "run only the feasibility search for sigma", _cmd_sigma)):
        p = sub.add_parser(name, help=what)
        p.add_argument("datum")
        p.add_argument("--tol", type=float, default=DEFAULT_FEASIBILITY_TOL)
        p.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER)
        p.add_argument("--out", default=None)
        p.set_defaults(func=func)

    p = sub.add_parser("gaussian", help="closed-form checks on a Gaussian tuple")
    p.add_argument("datum")
    p.add_argument("tuple")
    p.add_argument("--op", choices=("relation", "ratio", "extremizer", "geometrize"),
                   required=True)
    p.add_argument("--tol", type=float, default=DEFAULT_RELATION_TOL)
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
    p.add_argument("--tol", type=float, default=DEFAULT_DEFECT_TOL)
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
    args = _parser().parse_args(argv)
    try:
        # input whose magnitudes overflow double precision on the way is an
        # input error, not a verdict; the scan's worker thread inherits the state
        with np.errstate(over="raise"):
            _check_options(args)
            return args.func(args)
    except (FloatingPointError, np.linalg.LinAlgError) as exc:  # LinAlgError is a ValueError
        print(f"error: input out of numerical range: {exc}", file=sys.stderr)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
    return EXIT_INPUT


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
