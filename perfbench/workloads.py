"""The three workloads: seeded inputs, one round of verdicts, and their checks.

A verdict is one call of a public entry point that returns a checked
answer: an in-process ``frbl.cli.main`` command, or, for Gaussian heat
evolution (which has no command), one library ladder.  Every round of a
workload runs the same verdicts in the same interleaved order; only the
numbers inside the inputs depend on the seed, so the work per round does
not.  The first verdict of each round is a small command, which the
set-up probe replays in a fresh interpreter.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

import checks as ck
from checks import Datum, Tuple

LADDER_TIMES = (0.01, 0.1, 1.0, 10.0, 100.0)
FLOW_TIMES = (0.1, 0.5, 1.0)
MONOTONE_TIMES = (0.0, 0.25, 0.5, 1.0, 2.0)
CERTIFY_PASSES = 10  # passes over the other certify verdicts per hard case


@dataclass
class Verdict:
    kind: str
    label: str
    argv: list[str] | None            # a frbl.cli.main command ...
    check: Callable                   # check(rc, stdout, stderr) for commands, check(result) for ladders
    call: Callable | None = None      # ... or a library ladder


@dataclass
class Workload:
    name: str
    verdicts: list[Verdict]  # one round
    tail_q: float            # the verdict_s.tail percentile; runs hold >= 10 samples above it
    warmup: list[Verdict] | None = None  # untimed before the timed rounds; default: each distinct verdict once

    def warmup_verdicts(self) -> list[Verdict]:
        if self.warmup is not None:
            return self.warmup
        return list({v.label: v for v in self.verdicts}.values())

    @property
    def min_verdicts(self) -> int:
        return math.ceil(10.0 / (1.0 - self.tail_q))


class Inputs:
    """Writes input files into the run's work directory."""

    def __init__(self, work: Path):
        self.work = work
        self.count = 0

    def write(self, stem: str, obj) -> str:
        self.count += 1
        path = self.work / f"{self.count:03d}-{stem}.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        return str(path)


def interleave(*groups):
    """Round-robin merge, so input kinds alternate through the round."""
    out = []
    for i in range(max(len(g) for g in groups)):
        out.extend(g[i] for g in groups if i < len(g))
    return out


# ------------------------------------------------------------ data

def random_orthogonal(rng, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def rotation(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def prekopa_leindler(lam: float) -> Datum:
    return Datum((1, 1), (1,), (lam, 1.0 - lam), (1.0,), [[lam, 1.0 - lam]])


def young_frame() -> Datum:
    s = math.sqrt(3.0) / 2.0
    return Datum((2,), (1, 1, 1), (1.0,), (2.0 / 3.0,) * 3, [[1.0, 0.0], [-0.5, s], [-0.5, -s]])


def loomis_whitney() -> Datum:
    return Datum((2,), (1, 1), (1.0,), (1.0, 1.0), np.eye(2))


def holder(weights, dim: int) -> Datum:
    w = np.asarray(weights, dtype=float)
    return Datum((dim,), (dim,) * len(w), (1.0,), w, np.vstack([np.eye(dim)] * len(w)))


def rotate(datum: Datum, c_blocks, d_blocks) -> Datum:
    """Orthogonal equivalence ``Q' = D^T Q C^T`` blockwise; keeps the geometric property."""
    q = ck.blockdiag(d_blocks).T @ datum.q @ ck.blockdiag(c_blocks).T
    return Datum(datum.in_dims, datum.out_dims, datum.c, datum.d, q)


def signs(rng, n: int) -> list[np.ndarray]:
    return [np.array([[rng.choice((-1.0, 1.0))]]) for _ in range(n)]


def orthogonal_datum(rng, in_dims, out_dims, scale: float = 1.0) -> Datum:
    n = sum(in_dims)
    return Datum(in_dims, out_dims, (1.0,) * len(in_dims), (1.0,) * len(out_dims),
                 scale * random_orthogonal(rng, n))


# Frozen datum of tests/test_geometry.py::test_slow_convergence_case: Loewner
# fails, and the sigma search needs a few hundred projections.
SLOW = Datum((1, 1, 2), (1,),
             [0.62537719437472, 1.766995947758348, 0.8301889996603169], [4.052751141453702],
             [[-0.586630882730846, 0.7707802337475681, -0.49544904738287204, -1.8397186052226187]])

# Loewner holds but no PSD sigma exists: the constraint forces the
# off-diagonal entry to 0.55/0.36 > 1.  The search spends its whole budget.
HARD = Datum((1, 1), (1,), (0.5, 0.5), (1.0,), [[0.6, 0.3]])


# ------------------------------------------------------------ certify

def build_certify(rng, inputs: Inputs, smoke: bool) -> Workload:
    def check_cmd(label, datum, expected):
        path = inputs.write(label, datum.to_json())
        return Verdict("check", label, ["check", path],
                       partial(_cert_check, datum, expected)), path

    def sigma_cmd(label, datum, path, found):
        return Verdict("sigma", label, ["sigma", path],
                       partial(_sigma_check, datum, found))

    lam = float(rng.uniform(0.15, 0.85))
    bundled = [("pl", prekopa_leindler(lam)), ("young", young_frame()),
               ("lw", loomis_whitney()), ("holder2", holder(rng.dirichlet([4.0] * 3), 2))]
    h3 = holder(rng.dirichlet([4.0] * 2), 3)
    rotated = [
        ("rot-pl", rotate(bundled[0][1], signs(rng, 2), signs(rng, 1))),
        ("rot-young", rotate(bundled[1][1], [rotation(rng.uniform(0, 2 * math.pi))], signs(rng, 3))),
        ("rot-lw", rotate(bundled[2][1], [rotation(rng.uniform(0, 2 * math.pi))], signs(rng, 2))),
        ("rot-holder3", rotate(h3, [random_orthogonal(rng, 3)],
                               [random_orthogonal(rng, 3) for _ in range(2)])),
    ]
    layouts = [((1,) * 6, (2, 2, 2)), ((2,) * 4, (8,)), ((1,) * 10, (5, 5)),
               ((1,) * 12, (12,)), ((2,) * 7, (7, 7)), ((1,) * 16, (16,))]
    orth = [(f"orth{sum(i)}", orthogonal_datum(rng, i, o)) for i, o in layouts]
    a, b = rng.uniform(0.6, 1.0, size=2)
    a2, b2 = rng.uniform(0.6, 1.0, size=2)
    controls = [
        ("ctrl-2x2a", Datum((1, 1), (1,), (0.5, 0.5), (1.0,), [[a, b]])),
        ("ctrl-2x2b", Datum((1, 1), (1,), (0.5, 0.5), (1.0,), [[a2, b2]])),
        ("ctrl-scaled8", orthogonal_datum(rng, (1,) * 8, (8,), float(rng.uniform(1.1, 1.5)))),
    ]
    if abs(ck.two_by_two_sigma_entry(*HARD.q[0])) <= 1.0:
        raise RuntimeError("the hard case must admit no PSD sigma")

    checks_geo, paths = [], {}
    for label, datum in bundled + rotated + orth:
        verdict, paths[label] = check_cmd(label, datum, "geometric")
        checks_geo.append(verdict)
    checks_ctrl = []
    for label, datum in controls:
        verdict, paths[label] = check_cmd(label, datum, "loewner-fails")
        checks_ctrl.append(verdict)
    slow, _ = check_cmd("slow", SLOW, "loewner-fails")
    hard, _ = check_cmd("hard", HARD, "no-sigma")
    data = dict(bundled + rotated + orth + controls)
    sigmas = [sigma_cmd(f"sigma-{label}", data[label], paths[label], found)
              for label, found in (("orth12", True), ("rot-young", True), ("ctrl-2x2a", True),
                                   ("orth16", True), ("ctrl-scaled8", False))]
    one_pass = interleave(checks_geo[:4], checks_geo[4:8], checks_geo[8:], checks_ctrl,
                          sigmas, [slow])
    # The hard case takes most of a round.  Passes over every other verdict
    # on both sides of it spread their samples over the round, so short
    # stalls of the machine weigh less on the median and the tail.
    passes = 1 if smoke else CERTIFY_PASSES // 2
    round_ = one_pass * passes + [hard] + one_pass * passes
    # p80 sits amid the dimension-12 and -14 verdicts of every pass.  The
    # warm-up leaves out the hard case: it runs no code the others do not.
    return Workload("certify", round_, tail_q=0.8, warmup=one_pass)


def _cert_check(datum, expected, rc, out, err):
    ck.check_certificate(datum, expected, rc, out)


def _sigma_check(datum, found, rc, out, err):
    ck.check_sigma_report(datum, found, rc, out)


# ------------------------------------------------------------ gaussian

def admissible_tuple(rng, datum: Datum) -> Tuple:
    """A tuple satisfying the pointwise relation by construction.

    ``k * blockdiag(M_ii) >= M`` for PSD ``M``, so input forms built from the
    diagonal blocks of the pulled-back output form, inflated by the factor
    count plus a cushion, dominate it; prefactors leave the g side ahead.
    """
    def random_pd(dim):
        m = rng.standard_normal((dim, dim))
        return m @ m.T / dim + 0.3 * np.eye(dim)

    k = len(datum.in_dims)
    g_forms = [random_pd(dim) for dim in datum.out_dims]
    g_prefs = rng.normal(scale=0.5, size=len(g_forms))
    pulled = datum.q.T @ ck.blockdiag([dj * f for dj, f in zip(datum.d, g_forms)]) @ datum.q
    f_forms = []
    for sl, dim, ci in zip(Datum.slices(datum.in_dims), datum.in_dims, datum.c):
        cushion = float(rng.uniform(0.05, 0.5)) * np.eye(dim)
        f_forms.append((k * pulled[sl, sl] + cushion) / ci)
    budget = float(datum.d @ g_prefs) - abs(float(rng.normal(scale=0.3))) - 1e-3
    share = rng.dirichlet([2.0] * k)
    f_prefs = [budget * s / ci for s, ci in zip(share, datum.c)]
    return Tuple(zip(f_forms, f_prefs), zip(g_forms, g_prefs))


def standard_tuple(datum: Datum) -> Tuple:
    return Tuple([(np.eye(n), 0.0) for n in datum.in_dims],
                 [(np.eye(n), 0.0) for n in datum.out_dims])


def build_gaussian(rng, inputs: Inputs, smoke: bool) -> Workload:
    import frbl.gaussian as fg
    from frbl.datum import make_datum
    from frbl.linalg import SymMatrix

    def lib_datum(d: Datum):
        return make_datum(d.in_dims, d.out_dims, d.c, d.d, d.q)

    def lib_tuple(t: Tuple):
        return fg.GaussianTuple(
            tuple(fg.CenteredGaussian(SymMatrix(a), l) for a, l in t.f),
            tuple(fg.CenteredGaussian(SymMatrix(b), m) for b, m in t.g))

    def ladder(lib_d, lib_t):
        steps = []
        for t in LADDER_TIMES:
            evolved = fg.evolve_tuple(lib_t, t)
            steps.append((evolved, fg.relation_check(lib_d, evolved)))
        return steps, fg.log_frbl_ratio(lib_d, lib_t)

    pl = prekopa_leindler(float(rng.uniform(0.15, 0.85)))
    young, lw = young_frame(), loomis_whitney()
    h2 = holder(rng.dirichlet([4.0] * 3), 2)
    control = Datum((1, 1), (1,), (0.5, 0.5), (1.0,), [[1.0, 1.0]])

    ladders = []
    for label, datum, n_random, with_standard in (
            ("pl", pl, 3, False), ("young", young, 2, True),
            ("lw", lw, 1, True), ("holder2", h2, 3, False)):
        tuples = [(admissible_tuple(rng, datum), False) for _ in range(n_random)]
        if with_standard:
            tuples.append((standard_tuple(datum), True))
        lib_d = lib_datum(datum)
        for i, (tup, std) in enumerate(tuples):
            ladders.append(Verdict(
                "ladder", f"ladder-{label}-{i}", None,
                partial(ck.check_ladder, datum, tup, LADDER_TIMES, standard=std),
                call=partial(ladder, lib_d, lib_tuple(tup))))

    files = {label: inputs.write(label, d.to_json())
             for label, d in (("pl", pl), ("young", young), ("lw", lw), ("control", control))}

    def op(kind, label, datum_label, tup, check, *extra):
        tpath = inputs.write(f"tuple-{label}", tup.to_json())
        return Verdict(f"gaussian-{kind}", label,
                       ["gaussian", files[datum_label], tpath, "--op", kind, *extra],
                       lambda rc, out, err: check(rc, out))

    t_pl, t_ctrl = admissible_tuple(rng, pl), admissible_tuple(rng, control)
    t_young, t_ctrl2 = admissible_tuple(rng, young), admissible_tuple(rng, control)
    t_ctrl3 = admissible_tuple(rng, control)
    # Geometrize a seeded diagonal rescaling of a Prekopa-Leindler datum
    # back onto it: Q = b^{1/2} Q0 a^{-1/2} with heat weights a (inputs), b (output).
    target = prekopa_leindler(float(rng.uniform(0.15, 0.85)))
    a_w, b_w = rng.uniform(0.2, 2.0, size=2), float(rng.uniform(0.5, 2.0))
    scaled = Datum((1, 1), (1,), target.c, target.d, math.sqrt(b_w) * target.q / np.sqrt(a_w))
    files["scaled"] = inputs.write("scaled", scaled.to_json())
    weights_scaled = Tuple([([[a]], 0.0) for a in a_w], [([[b_w]], 0.0)])
    weights_ctrl = Tuple([([[0.25]], 0.0), ([[0.25]], 0.0)], [([[1.0]], 0.0)])
    seeds = [str(int(s)) for s in rng.integers(0, 2**31, size=2)]

    commands = [
        op("relation", "relation-pl", "pl", t_pl, partial(ck.check_relation_report, pl, t_pl)),
        op("ratio", "ratio-young", "young", t_young,
           partial(ck.check_ratio_report, young, t_young, False)),
        op("extremizer", "extremizer-ctrl-a", "control", t_ctrl2,
           partial(ck.check_extremizer_report, control, t_ctrl2, False), "--seed", seeds[0]),
        op("geometrize", "geometrize-ctrl", "control", weights_ctrl,
           partial(ck.check_geometrize_report, prekopa_leindler(0.5))),
        op("relation", "relation-ctrl", "control", t_ctrl,
           partial(ck.check_relation_report, control, t_ctrl)),
        op("ratio", "ratio-lw-standard", "lw", standard_tuple(lw),
           partial(ck.check_ratio_report, lw, standard_tuple(lw), True)),
        op("extremizer", "extremizer-pl-standard", "pl", standard_tuple(pl),
           partial(ck.check_extremizer_report, pl, standard_tuple(pl), True)),
        op("extremizer", "extremizer-ctrl-b", "control", t_ctrl3,
           partial(ck.check_extremizer_report, control, t_ctrl3, False), "--seed", seeds[1]),
        op("geometrize", "geometrize-scaled", "scaled", weights_scaled,
           partial(ck.check_geometrize_report, target)),
    ]
    round_ = interleave(commands, ladders[0::2], ladders[1::2])
    return Workload("gaussian", round_, tail_q=0.95)


# ------------------------------------------------------------ heat flow

def grid_json(lo: float, hi: float, values: np.ndarray) -> dict:
    dims = values.ndim
    return {"lo": [lo] * dims, "hi": [hi] * dims, "n": list(values.shape),
            "values": values.ravel().tolist()}


def _flow_check(times, dim, closed_form, rc, out, err):
    ck.check_flow_report(times, rc, out, err, dim, closed_form)


def _monotone_check(rc, out, err):
    ck.check_monotone_report(MONOTONE_TIMES, rc, out)


def _times_arg(times) -> str:
    return ",".join(f"{t:g}" for t in times)


class GaussianScan2D:
    """Young frame with ``f = exp(l - x^T A x)`` and ``g_j = exp(m_j - b y^2)``.

    ``A = sum_j d_j b u_j u_j^T`` (which is ``b I`` for the tight frame) and
    ``l = sum_j d_j m_j``, so the two sides are equal everywhere, and the
    heat flow keeps them equal: every node tests the evolution, and any
    one-sided error shows as a negative defect.
    """

    F_HALF, G_HALF, G_POINTS = 5.0, 15.0, 6001

    def __init__(self, rng, n: int):
        self.datum = young_frame()
        u, d = self.datum.q, self.datum.d
        self.b = np.full(3, rng.uniform(0.5, 1.5))
        self.m = rng.normal(scale=0.3, size=3)
        self.a = sum(d[j] * self.b[j] * np.outer(u[j], u[j]) for j in range(3))
        self.l = float(d @ self.m)
        self.axis = np.linspace(-self.F_HALF, self.F_HALF, n)

    def grids(self) -> dict:
        x1, x2 = np.meshgrid(self.axis, self.axis, indexing="ij")
        quad = self.a[0, 0] * x1**2 + 2 * self.a[0, 1] * x1 * x2 + self.a[1, 1] * x2**2
        ys = np.linspace(-self.G_HALF, self.G_HALF, self.G_POINTS)
        return {"f": [grid_json(-self.F_HALF, self.F_HALF, np.exp(self.l - quad))],
                "g": [grid_json(-self.G_HALF, self.G_HALF, np.exp(mj - bj * ys**2))
                      for bj, mj in zip(self.b, self.m)]}

    def _sides(self, t, x):
        a_t, l_t = ck.evolved_form(self.a, self.l, t)
        f_side = np.exp(l_t - np.einsum("...i,ij,...j->...", x, a_t, x))
        log_g = np.zeros(x.shape[:-1])
        for j in range(3):
            b_t, m_t = ck.evolved_scalar(self.b[j], self.m[j], t)
            log_g += self.datum.d[j] * (m_t - b_t * (x @ self.datum.q[j]) ** 2)
        return f_side, np.exp(log_g)

    def closed_form(self, t, argmin):
        x1, x2 = np.meshgrid(self.axis, self.axis, indexing="ij")
        f_side, g_side = self._sides(t, np.stack([x1, x2], axis=-1))
        f_at, g_at = self._sides(t, np.asarray(argmin, dtype=float))
        return float((g_side - f_side).min()), float(g_at - f_at), float(g_side.max())


def bump_grids_2d(rng, n: int) -> dict:
    """Young frame with bump g_j and ``f`` a shrunk product of the g side (holds at t = 0)."""
    datum = young_frame()
    ys = np.linspace(-12.0, 12.0, 1201)
    g_vals = [np.clip(1.0 - (ys / w) ** 2, 0.0, None) ** 2 for w in rng.uniform(2.0, 3.0, size=3)]
    axis = np.linspace(-4.0, 4.0, n)
    x1, x2 = np.meshgrid(axis, axis, indexing="ij")
    prod = np.ones_like(x1)
    for j in range(3):
        proj = datum.q[j, 0] * x1 + datum.q[j, 1] * x2
        prod *= np.interp(proj, ys, g_vals[j]) ** datum.d[j]
    f = float(rng.uniform(0.9, 0.97)) * prod
    return {"f": [grid_json(-4.0, 4.0, f)], "g": [grid_json(-12.0, 12.0, v) for v in g_vals]}


def monotone_grids(rng) -> dict:
    ys = np.linspace(-15.0, 15.0, 601)
    return {"g": [grid_json(-15.0, 15.0, np.clip(1 - ((ys - c) / 2) ** 2, 0, None) ** 2)
                  for c in rng.uniform(-1.0, 1.0, size=3)]}


def flow_2d_verdicts(rng, inputs: Inputs, smoke: bool) -> list[Verdict]:
    """The young frame: 2-D FFT heat steps and large grid files, plus flow-monotone."""
    young = inputs.write("young", young_frame().to_json())
    gauss_sizes, bump_sizes = ((41, 81), (61,)) if smoke else ((101, 201, 301, 401), (151, 251, 351))
    times = _times_arg(FLOW_TIMES)
    gauss = []
    for n in gauss_sizes:
        scan = GaussianScan2D(rng, n)
        path = inputs.write(f"gauss2d-{n}", scan.grids())
        gauss.append(Verdict("flow-verify", f"gauss-{n}", ["flow-verify", young, path, "--times", times],
                             partial(_flow_check, FLOW_TIMES, 2, scan.closed_form)))
    bumps = []
    for n in bump_sizes:
        path = inputs.write(f"bump2d-{n}", bump_grids_2d(rng, n))
        bumps.append(Verdict("flow-verify", f"bump-{n}", ["flow-verify", young, path, "--times", times],
                             partial(_flow_check, FLOW_TIMES, 2, None)))
    monotone = []
    for i in range(2):
        path = inputs.write(f"monotone-{i}", monotone_grids(rng))
        monotone.append(Verdict("flow-monotone", f"monotone-{i}",
                                ["flow-monotone", young, path, "--times", _times_arg(MONOTONE_TIMES)],
                                _monotone_check))
    return interleave(monotone, gauss[:2], bumps) + gauss[2:]


class GaussianScan3D:
    """Three one-axis factors into one line: ``Q = [lam]``, ``c = lam``, ``d = 1``.

    ``f_i = exp(l_i - b x^2)`` and ``g = exp(m - b y^2)`` with ``sum lam_i l_i
    = m``: by Jensen's inequality the relation holds, with equality on the
    diagonal ``x_1 = x_2 = x_3``, and the heat flow keeps that equality, so
    the minimum defect stays at zero and any one-sided error shows.  The g
    grid's spacing divides every f grid's, so diagonal nodes project onto g
    nodes.  Both sides are separable in log space, so the closed form is
    evaluated slice by slice.
    """

    F_HALF, G_HALF, G_POINTS = 6.0, 12.0, 33601

    def __init__(self, rng, lam: np.ndarray, n: int):
        self.lam = lam
        self.bg = float(rng.uniform(0.6, 1.4))
        self.a = np.full(3, self.bg)
        self.m = float(rng.normal(scale=0.3))
        self.l = self.m * rng.dirichlet([2.0] * 3) / lam
        self.axis = np.linspace(-self.F_HALF, self.F_HALF, n)

    def grids(self) -> dict:
        ys = np.linspace(-self.G_HALF, self.G_HALF, self.G_POINTS)
        return {"f": [grid_json(-self.F_HALF, self.F_HALF, np.exp(li - ai * self.axis**2))
                      for ai, li in zip(self.a, self.l)],
                "g": [grid_json(-self.G_HALF, self.G_HALF, np.exp(self.m - self.bg * ys**2))]}

    def _log_f(self, t):
        out = []
        for ai, li, lam in zip(self.a, self.l, self.lam):
            a_t, l_t = ck.evolved_scalar(ai, li, t)
            out.append(lam * (l_t - a_t * self.axis**2))
        return out

    def closed_form(self, t, argmin):
        lf = self._log_f(t)
        b_t, m_t = ck.evolved_scalar(self.bg, self.m, t)
        lam = self.lam
        s23 = lam[1] * self.axis[:, None] + lam[2] * self.axis[None, :]
        lf23 = lf[1][:, None] + lf[2][None, :]
        worst, g_max = math.inf, 0.0
        for x1, lf1 in zip(self.axis, lf[0]):
            g_side = np.exp(m_t - b_t * (lam[0] * x1 + s23) ** 2)
            worst = min(worst, float((g_side - np.exp(lf1 + lf23)).min()))
            g_max = max(g_max, float(g_side.max()))
        x = np.asarray(argmin, dtype=float)
        f_at = math.exp(sum(lam_i * (l_t - a_t * xi * xi) for lam_i, xi, (a_t, l_t) in
                            zip(lam, x, (ck.evolved_scalar(ai, li, t)
                                         for ai, li in zip(self.a, self.l)))))
        g_at = math.exp(m_t - b_t * float(lam @ x) ** 2)
        return worst, g_at - f_at, g_max


def flow_3d_verdicts(rng, inputs: Inputs, smoke: bool) -> list[Verdict]:
    """Three one-axis factors: tiny 1-D heat steps, time and memory in the scan."""
    lam = rng.dirichlet([4.0] * 3)
    datum = inputs.write("line3", Datum((1, 1, 1), (1,), lam, (1.0,), [lam]).to_json())
    if smoke:
        plan = [(31, (0.5,)), (41, FLOW_TIMES), (61, (0.1,))]
    else:
        # One 161^3 scan at the three default times (the hard case), the rest
        # single-time scans, so the 3-D verdicts span sizes 61^3 to 161^3.
        plan = [(61, (0.1,)), (161, FLOW_TIMES), (81, (0.5,)), (121, (1.0,)), (61, (0.5,)),
                (101, (0.1,)), (81, (1.0,)), (141, (0.5,)), (61, (1.0,)), (101, (0.5,)),
                (81, (0.1,))]
    verdicts = []
    for i, (n, times) in enumerate(plan):
        scan = GaussianScan3D(rng, lam, n)
        path = inputs.write(f"gauss3d-{n}", scan.grids())
        verdicts.append(Verdict("flow-verify", f"gauss3d-{n}-{i}",
                              ["flow-verify", datum, path, "--times", _times_arg(times)],
                              partial(_flow_check, times, 3, scan.closed_form)))
    return verdicts


def build_flow(rng, inputs: Inputs, smoke: bool) -> Workload:
    """The 2-D and the 3-D verdicts alternate; the round opens with flow-monotone.

    p50 falls amid the 81^3 scans and the 251^2 bump, p87.5 between the
    121^3 scan and the 401^2 Gaussian: both inside clusters of verdicts,
    not in a gap between them.
    """
    round_ = interleave(flow_2d_verdicts(rng, inputs, smoke), flow_3d_verdicts(rng, inputs, smoke))
    return Workload("flow", round_, tail_q=0.875)


BUILDERS = {
    "certify": build_certify,
    "gaussian": build_gaussian,
    "flow": build_flow,
}
