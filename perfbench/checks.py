"""Independent checks of the program's answers.

Everything here is plain numpy on the benchmark's own copy of each input;
nothing imports ``frbl``.  A check raises :class:`Failure` naming what went
wrong; the run counts the verdict as failed.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

SIGMA_TOL = 1e-8        # residual and eigenvalue floor of a returned sigma
LOEWNER_TOL = 1e-9      # agreement of the reported Loewner gap
RELATION_TOL = 1e-9     # form and prefactor gaps along a Gaussian ladder
RATIO_TOL = 1e-9        # ratio ceiling on geometric data
STANDARD_RATIO_TOL = 1e-12
DEFECT_TOL = 1e-4       # scaled, as in the acceptance module
MONOTONE_SLACK = 1e-5   # relative dip allowed in the monotone series


class Failure(Exception):
    """A verdict that raised, exited wrongly, printed bad output or a wrong answer."""

    def __init__(self, kind: str, message: str):
        super().__init__(f"{kind}: {message}")
        self.kind = kind  # "raised" | "exit" | "parse" | "check"


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise Failure("check", message)


def expect_rc(rc, wanted: int) -> None:
    if rc != wanted:
        raise Failure("exit", f"exit code {rc}, expected {wanted}")


def _reject_constant(name: str):
    raise ValueError(f"non-finite JSON constant {name}")


def strict_json(text: str) -> dict:
    try:
        obj = json.loads(text, parse_constant=_reject_constant)
    except ValueError as exc:
        raise Failure("parse", f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise Failure("parse", "JSON output is not an object")
    return obj


def strict_csv(text: str, header: list[str]) -> np.ndarray:
    """Rows of a numeric CSV with exactly ``header``; every cell a finite float."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != header:
        raise Failure("parse", f"CSV header {rows[0] if rows else None}, expected {header}")
    body = rows[1:]
    if not body:
        raise Failure("parse", "CSV has no data rows")
    try:
        values = np.array([[float(cell) for cell in row] for row in body])
    except ValueError as exc:
        raise Failure("parse", f"CSV cell is not a number: {exc}") from exc
    if values.shape != (len(body), len(header)) or not np.all(np.isfinite(values)):
        raise Failure("parse", "CSV rows are ragged or not finite")
    return values


# ---------------------------------------------------------------- data

class Datum:
    """The benchmark's own copy of a datum ``(c, d, Q)`` with its layout."""

    def __init__(self, in_dims, out_dims, c, d, q):
        self.in_dims = tuple(int(x) for x in in_dims)
        self.out_dims = tuple(int(x) for x in out_dims)
        self.c = np.asarray(c, dtype=float)
        self.d = np.asarray(d, dtype=float)
        self.q = np.atleast_2d(np.asarray(q, dtype=float))

    def to_json(self) -> dict:
        return {"in_dims": list(self.in_dims), "out_dims": list(self.out_dims),
                "c": self.c.tolist(), "d": self.d.tolist(), "Q": self.q.tolist()}

    @staticmethod
    def slices(dims):
        off = np.concatenate([[0], np.cumsum(dims)])
        return [slice(int(a), int(b)) for a, b in zip(off[:-1], off[1:])]

    def lambda_c(self) -> np.ndarray:
        return np.diag(np.repeat(self.c, self.in_dims))

    def lambda_d(self) -> np.ndarray:
        return np.diag(np.repeat(self.d, self.out_dims))


def blockdiag(blocks) -> np.ndarray:
    dims = [np.shape(b)[0] for b in blocks]
    out = np.zeros((sum(dims), sum(dims)))
    for sl, b in zip(Datum.slices(dims), blocks):
        out[sl, sl] = b
    return out


def loewner_min_eig(datum: Datum) -> float:
    """Minimum eigenvalue of ``Lambda_c - Q^T Lambda_d Q``."""
    gap = datum.lambda_c() - datum.q.T @ datum.lambda_d() @ datum.q
    return float(np.linalg.eigvalsh(0.5 * (gap + gap.T))[0])


def verify_sigma(datum: Datum, sigma) -> None:
    """PSD to -1e-8; diagonal blocks of sigma and Q sigma Q^T within 1e-8 of identities."""
    s = np.asarray(sigma, dtype=float)
    n = sum(datum.in_dims)
    expect(s.shape == (n, n), f"sigma has shape {s.shape}, expected {(n, n)}")
    expect(np.array_equal(s, s.T), "sigma is not symmetric")
    min_eig = float(np.linalg.eigvalsh(s)[0])
    expect(min_eig >= -SIGMA_TOL, f"sigma min eigenvalue {min_eig:.3e}")
    pushed = datum.q @ s @ datum.q.T
    for mat, dims, side in ((s, datum.in_dims, "input"), (pushed, datum.out_dims, "output")):
        for sl, dim in zip(Datum.slices(dims), dims):
            dev = float(np.abs(mat[sl, sl] - np.eye(dim)).max())
            expect(dev <= SIGMA_TOL, f"{side} block deviates from identity by {dev:.3e}")


def check_loewner_report(datum: Datum, reported) -> float:
    own = loewner_min_eig(datum)
    expect(isinstance(reported, (int, float)), "loewner_min_eig missing")
    expect(abs(reported - own) <= LOEWNER_TOL * (1.0 + abs(own)),
           f"loewner_min_eig {reported!r}, numpy gives {own!r}")
    return own


def check_certificate(datum: Datum, expected: str, rc, text: str) -> None:
    """``frbl check``: ``expected`` is geometric, loewner-fails or no-sigma."""
    expect_rc(rc, 0 if expected == "geometric" else 1)
    cert = strict_json(text)
    own = check_loewner_report(datum, cert.get("loewner_min_eig"))
    sigma = cert.get("sigma")
    if expected == "geometric":
        expect(cert.get("verdict") == "geometric", f"verdict {cert.get('verdict')!r}")
        expect(own >= -LOEWNER_TOL, "geometric datum fails the numpy Loewner test")
        expect(sigma is not None, "geometric certificate without sigma")
        verify_sigma(datum, sigma)
    elif expected == "loewner-fails":
        expect(own < -LOEWNER_TOL, "control passes the numpy Loewner test")
        expect(cert.get("verdict") == "not-geometric-loewner", f"verdict {cert.get('verdict')!r}")
        if sigma is not None:
            verify_sigma(datum, sigma)
    elif expected == "no-sigma":
        expect(own >= -LOEWNER_TOL, "no-sigma case fails the numpy Loewner test")
        expect(cert.get("verdict") not in ("geometric", "not-geometric-loewner"),
               f"verdict {cert.get('verdict')!r} on a datum with no sigma")
        expect(sigma is None, "sigma reported for a datum that has none")
    else:
        raise ValueError(expected)


def check_sigma_report(datum: Datum, found: bool, rc, text: str) -> None:
    """``frbl sigma``: a found sigma re-verifies; an infeasible datum reports none."""
    expect_rc(rc, 0 if found else 1)
    report = strict_json(text)
    if found:
        expect(report.get("status") == "found", f"status {report.get('status')!r}")
        verify_sigma(datum, report.get("sigma"))
    else:
        expect(report.get("status") != "found", "sigma found for an infeasible datum")
        expect(report.get("sigma") is None, "sigma reported for an infeasible datum")


def two_by_two_sigma_entry(a: float, b: float) -> float:
    """Off-diagonal entry forced on sigma by ``Q = [[a, b]]`` with unit diagonals.

    ``a^2 + b^2 + 2 a b s = 1``; a PSD sigma needs ``|s| <= 1``.
    """
    return (1.0 - a * a - b * b) / (2.0 * a * b)


# ------------------------------------------------------------ gaussians

class Tuple:
    """A Gaussian tuple: ``(form, log_prefactor)`` per input and output factor."""

    def __init__(self, f, g):
        self.f = [(np.atleast_2d(np.asarray(a, dtype=float)), float(l)) for a, l in f]
        self.g = [(np.atleast_2d(np.asarray(b, dtype=float)), float(m)) for b, m in g]

    def to_json(self) -> dict:
        enc = [{"log_prefactor": l, "form": a.tolist()} for a, l in self.f]
        return {"f": enc, "g": [{"log_prefactor": m, "form": b.tolist()} for b, m in self.g]}


def relation_gaps(datum: Datum, tup: Tuple) -> tuple[float, float]:
    """(min eigenvalue of the form gap, prefactor gap) of the pointwise relation."""
    p = blockdiag([ci * a for ci, (a, _) in zip(datum.c, tup.f)])
    s = datum.q.T @ blockdiag([dj * b for dj, (b, _) in zip(datum.d, tup.g)]) @ datum.q
    gap = p - s
    form = float(np.linalg.eigvalsh(0.5 * (gap + gap.T))[0])
    pref = float(sum(dj * m for dj, (_, m) in zip(datum.d, tup.g))
                 - sum(ci * l for ci, (_, l) in zip(datum.c, tup.f)))
    return form, pref


def log_integral(form: np.ndarray, log_pref: float) -> float:
    n = form.shape[0]
    return log_pref + 0.5 * (n * math.log(math.pi) - float(np.linalg.slogdet(form)[1]))


def log_ratio(datum: Datum, tup: Tuple) -> float:
    return float(sum(ci * log_integral(a, l) for ci, (a, l) in zip(datum.c, tup.f))
                 - sum(dj * log_integral(b, m) for dj, (b, m) in zip(datum.d, tup.g)))


def evolved_scalar(b: float, l: float, t: float) -> tuple[float, float]:
    """Identity-weight heat evolution of ``exp(l - b x^2)``: ``b/(1+4tb)``, ``l - log(1+4tb)/2``."""
    return b / (1.0 + 4.0 * t * b), l - 0.5 * math.log1p(4.0 * t * b)


def evolved_form(a: np.ndarray, l: float, t: float) -> tuple[np.ndarray, float]:
    n = a.shape[0]
    form = np.linalg.inv(np.linalg.inv(a) + 4.0 * t * np.eye(n))
    return form, l - 0.5 * float(np.linalg.slogdet(np.eye(n) + 4.0 * t * a)[1])


def close(x: float, y: float, tol: float) -> bool:
    return abs(x - y) <= tol * (1.0 + abs(y))


def check_ladder(datum: Datum, tup: Tuple, times, result, standard: bool) -> None:
    """A ladder: relation kept at every time, 1-D factors on the closed form, ratio <= 1."""
    steps, lr = result
    expect(len(steps) == len(times), "ladder returned the wrong number of steps")
    for t, (evolved, rel) in zip(times, steps):
        expect(bool(rel.holds), f"relation lost at t={t}")
        expect(rel.form_gap_min_eig >= -RELATION_TOL, f"form gap {rel.form_gap_min_eig:.3e} at t={t}")
        expect(rel.prefactor_gap >= -RELATION_TOL, f"prefactor gap {rel.prefactor_gap:.3e} at t={t}")
        for mine, theirs in ((tup.f, evolved.f), (tup.g, evolved.g)):
            for (a, l), g in zip(mine, theirs):
                if a.shape != (1, 1):
                    continue
                form, pref = evolved_scalar(float(a[0, 0]), l, t)
                expect(close(float(g.form.mat[0, 0]), form, 1e-12), f"1-D form at t={t}")
                expect(close(g.log_prefactor, pref, 1e-12), f"1-D prefactor at t={t}")
    expect(math.exp(lr) <= 1.0 + RATIO_TOL, f"ratio {math.exp(lr)!r} above one")
    expect(close(lr, log_ratio(datum, tup), 1e-9), "log ratio differs from numpy")
    if standard:
        expect(abs(math.exp(lr) - 1.0) <= STANDARD_RATIO_TOL, f"standard ratio {math.exp(lr)!r}")


def check_relation_report(datum: Datum, tup: Tuple, rc, text: str) -> None:
    form, pref = relation_gaps(datum, tup)
    expect(form >= 0.0 and pref >= 0.0, "input tuple is not admissible")
    expect_rc(rc, 0)
    report = strict_json(text)
    expect(report.get("holds") is True, "relation reported as failing")
    expect(close(report.get("form_gap_min_eig"), form, 1e-9), "form gap differs from numpy")
    expect(close(report.get("prefactor_gap"), pref, 1e-12), "prefactor gap differs from numpy")


def check_ratio_report(datum: Datum, tup: Tuple, standard: bool, rc, text: str) -> None:
    expect_rc(rc, 0)
    report = strict_json(text)
    ratio, lr = report.get("ratio"), report.get("log_ratio")
    expect(close(lr, log_ratio(datum, tup), 1e-9), "log ratio differs from numpy")
    expect(close(ratio, math.exp(lr), 1e-12), "ratio is not exp(log_ratio)")
    expect(ratio <= 1.0 + RATIO_TOL, f"ratio {ratio!r} above one on geometric data")
    if standard:
        expect(abs(ratio - 1.0) <= STANDARD_RATIO_TOL, f"standard ratio {ratio!r}")


def check_extremizer_report(datum: Datum, tup: Tuple, geometric: bool, rc, text: str) -> None:
    report = strict_json(text)
    own = log_ratio(datum, tup)
    expect(close(report.get("log_ratio"), own, 1e-9), "log ratio differs from numpy")
    is_ext = report.get("is_extremizer")
    expect(isinstance(is_ext, bool), "is_extremizer missing")
    expect_rc(rc, 0 if is_ext else 1)
    tol = report.get("tol")
    if geometric:
        expect(report.get("basis") == "geometric-constant", f"basis {report.get('basis')!r}")
        expect(is_ext == (abs(own) <= tol), "extremizer verdict disagrees with |log ratio|")
    else:
        ref = report.get("reference_log_ratio")
        expect(report.get("basis") == "comparison-family", f"basis {report.get('basis')!r}")
        expect(ref >= own - tol, "reference below the candidate's own ratio")
        expect(is_ext == (own >= ref - tol), "extremizer verdict disagrees with the reference")


def check_geometrize_report(target: Datum, rc, text: str) -> None:
    """Geometrizing must land on ``target`` (a geometric datum) and certify it."""
    expect_rc(rc, 0)
    report = strict_json(text)
    q = np.asarray(report.get("datum", {}).get("Q"), dtype=float)
    expect(q.shape == target.q.shape, f"transformed Q has shape {q.shape}")
    dev = float(np.abs(q - target.q).max())
    expect(dev <= 1e-9, f"transformed Q deviates from the target by {dev:.3e}")
    cert = report.get("certificate", {})
    expect(cert.get("verdict") == "geometric", f"certificate verdict {cert.get('verdict')!r}")
    verify_sigma(target, cert.get("sigma"))


# ------------------------------------------------------------ heat flow

def check_flow_report(times, rc, text: str, err: str, dim: int, closed_form=None) -> None:
    """``frbl flow-verify``: strict CSV, verdict holds; Gaussian inputs on the closed form.

    ``closed_form(t, argmin)`` returns (min defect over the scan nodes, defect
    at ``argmin``, max g side), all from the exactly evolved Gaussians.
    """
    header = ["t", "min_defect"] + [f"argmin_x{i + 1}" for i in range(dim)]
    expect_rc(rc, 0)
    rows = strict_csv(text, header)
    expect("verdict: holds" in err, "verdict line does not say holds")
    expect(np.array_equal(rows[:, 0], times), "CSV times differ from the request")
    if closed_form is None:
        return
    for row in rows:
        t, reported, argmin = row[0], row[1], row[2:]
        own_min, own_at, g_max = closed_form(float(t), argmin)
        tol = DEFECT_TOL * (1.0 + g_max)
        expect(abs(reported - own_min) <= tol,
               f"min defect {reported:.3e} at t={t}, closed form {own_min:.3e}")
        expect(abs(reported - own_at) <= tol,
               f"defect {reported:.3e} at the argmin, closed form {own_at:.3e}")


def check_monotone_report(times, rc, text: str) -> None:
    expect_rc(rc, 0)
    rows = strict_csv(text, ["t", "Q"])
    expect(np.array_equal(rows[:, 0], times), "CSV times differ from the request")
    q = rows[:, 1]
    expect(bool(np.all(q > 0)), "monotone functional is not positive")
    dips = q[1:] < q[:-1] * (1.0 - MONOTONE_SLACK)
    expect(not bool(np.any(dips)), f"series dips beyond relative slack {MONOTONE_SLACK}: {q}")
