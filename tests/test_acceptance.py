"""Acceptance suite.

One test per criterion; each prints a single pass/fail line (visible with
``pytest -s``) and asserts the criterion at its stated tolerance.
"""

import math
import time

import numpy as np
import pytest

from frbl.datum import embed_blockdiag, make_datum
from frbl.gaussian import (
    CenteredGaussian,
    GaussianTuple,
    evolve_tuple,
    geometrize_from_extremizers,
    heat_evolve,
    log_frbl_ratio,
    log_gaussian_integral,
    long_time_limit,
    random_admissible_tuple,
    relation_check,
    rescaled_heat_value,
)
from frbl.geometry import (
    check_geometric,
    check_loewner,
    verify_adjoint_contraction,
    verify_trace_implication,
)
from frbl.heatflow import (
    GridFunction,
    extract_constant,
    monotone_functional,
    verify_preservation,
)
from frbl.instances import loomis_whitney_2d, prekopa_leindler, young_frame
from frbl.linalg import SymMatrix

from _oracles import (dense_interpolate, heat_quadrature_1d, heat_quadrature_2d, random_psd,
                      standard_gaussian)


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"acceptance {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def geometric_instances():
    return [
        ("prekopa-leindler(1/4)", prekopa_leindler(0.25)),
        ("prekopa-leindler(1/3)", prekopa_leindler(1 / 3)),
        ("prekopa-leindler(1/2)", prekopa_leindler(0.5)),
        ("young-frame", young_frame()),
        ("loomis-whitney-2d", loomis_whitney_2d()),
    ]


def standard_tuple(datum):
    return GaussianTuple(
        tuple(standard_gaussian(d) for d in datum.layout.in_dims),
        tuple(standard_gaussian(d) for d in datum.layout.out_dims),
    )


def test_01_geometric_certification():
    ok = True
    details = []
    for lam in (0.25, 1 / 3, 0.5):
        start = time.perf_counter()
        cert = check_geometric(prekopa_leindler(lam))
        elapsed = time.perf_counter() - start
        good = (
            cert.verdict == "geometric"
            and max(cert.residual_in, cert.residual_out) <= 1e-8
            and np.abs(cert.sigma.mat - np.ones((2, 2))).max() <= 1e-8
            and elapsed < 1.0
        )
        ok &= good
        details.append(f"pl({lam:.2f}) {elapsed * 1e3:.0f}ms")
    for name, datum in (("young-frame", young_frame()), ("loomis-whitney-2d", loomis_whitney_2d())):
        start = time.perf_counter()
        cert = check_geometric(datum)
        elapsed = time.perf_counter() - start
        good = (
            cert.verdict == "geometric"
            and max(cert.residual_in, cert.residual_out) <= 1e-8
            and np.abs(cert.sigma.mat - np.eye(2)).max() <= 1e-8
            and elapsed < 1.0
        )
        ok &= good
        details.append(f"{name} {elapsed * 1e3:.0f}ms")
    _report(1, "geometric-certification", ok, ", ".join(details))


def test_02_negative_control_and_geometrization():
    datum = make_datum((1, 1), (1,), (0.5, 0.5), (1.0,), [[1.0, 1.0]])
    loewner_ok, min_eig = check_loewner(datum, tol=1e-9)
    control_ok = (not loewner_ok) and abs(min_eig + 1.5) <= 1e-9

    _, transformed, cert = geometrize_from_extremizers(
        datum, [[[0.25]], [[0.25]]], [[[1.0]]]
    )
    geom_ok = (
        np.abs(transformed.q - np.array([[0.5, 0.5]])).max() <= 1e-12
        and cert.verdict == "geometric"
    )
    _report(2, "negative-control", control_ok and geom_ok,
            f"loewner min eig {min_eig:.6f}, re-certified {cert.verdict}")


def test_03_best_constant_is_one():
    ok = True
    worst = -math.inf
    for name, datum in geometric_instances():
        ratio = math.exp(log_frbl_ratio(datum, standard_tuple(datum)))
        ok &= abs(ratio - 1.0) <= 1e-12
        rng = np.random.default_rng(1003)
        for _ in range(1000):
            tup = random_admissible_tuple(datum, rng)
            log_ratio = log_frbl_ratio(datum, tup)
            worst = max(worst, log_ratio)
            ok &= math.exp(log_ratio) <= 1.0 + 1e-9
    _report(3, "best-constant-one", ok, f"worst log ratio {worst:.3e}")


def test_04_relation_preserved_for_gaussians():
    ok = True
    worst_gap = math.inf
    for name, datum in geometric_instances():
        rng = np.random.default_rng(1004)
        for _ in range(1000):
            tup = random_admissible_tuple(datum, rng)
            for t in (0.1, 1.0, 10.0):
                res = relation_check(datum, evolve_tuple(tup, t), tol=1e-9)
                worst_gap = min(worst_gap, res.form_gap_min_eig, res.prefactor_gap)
                ok &= res.holds and res.form_gap_min_eig >= -1e-9
    _report(4, "gaussian-flow-preservation", ok, f"worst gap {worst_gap:.3e}")


def test_05_grid_preservation():
    start = time.perf_counter()
    tol = 1e-4
    times = (0.1, 0.5, 1.0)

    pl = prekopa_leindler(0.5)
    xs = np.linspace(-6, 6, 201)
    g = GridFunction([-6.0], [6.0], [201], np.exp(-xs**2))
    field_pl = verify_preservation(pl, [g, g], [g], times, tol=tol)

    young = young_frame()
    g_grids = []
    for _ in range(3):
        ys = np.linspace(-12, 12, 201)
        g_grids.append(
            GridFunction([-12.0], [12.0], [201], np.clip(1 - (ys / 3) ** 2, 0, None) ** 2)
        )
    n = 201
    axes = [np.linspace(-4, 4, n)] * 2
    mesh = np.meshgrid(*axes, indexing="ij")
    nodes = np.stack([m.ravel() for m in mesh], axis=1)
    vals = np.ones(len(nodes))
    for j in range(3):
        vals *= dense_interpolate(g_grids[j], nodes @ young.out_row(j).T) ** float(young.d[j])
    f_grid = GridFunction([-4.0] * 2, [4.0] * 2, [n] * 2, (0.95 * vals).reshape(n, n))
    field_young = verify_preservation(young, [f_grid], g_grids, times, tol=tol)

    elapsed = time.perf_counter() - start
    ok = field_pl.holds and field_young.holds and elapsed < 60.0
    _report(5, "grid-preservation", ok,
            f"pl min defect {min(field_pl.min_defect):.2e}, "
            f"young min defect {min(field_young.min_defect):.2e}, {elapsed:.1f}s")


def test_06_closed_form_vs_quadrature():
    rng = np.random.default_rng(1006)
    ok = True
    worst = 0.0
    for t in (0.1, 1.0, 10.0):
        b = float(rng.uniform(0.5, 2.0))
        w = float(rng.uniform(0.5, 2.0))
        pref = float(rng.normal(scale=0.3))
        ev = heat_evolve(CenteredGaussian(SymMatrix([[b]]), pref), t, SymMatrix([[w]]))
        for x in (0.0, 1.1, -2.3):
            quad = heat_quadrature_1d(b, pref, w, t, x)
            rel = abs(math.exp(ev.log_value([x])) - quad) / abs(quad)
            worst = max(worst, rel)
            ok &= rel <= 1e-6
        form = SymMatrix(random_psd(rng, 2) / 2 + 0.6 * np.eye(2))
        weight = SymMatrix(random_psd(rng, 2) / 2 + 0.6 * np.eye(2))
        ev2 = heat_evolve(CenteredGaussian(form, pref), t, weight)
        for x in ([0.0, 0.0], [0.8, -0.5]):
            quad = heat_quadrature_2d(form.mat, pref, weight.mat, t, x)
            rel = abs(math.exp(ev2.log_value(x)) - quad) / abs(quad)
            worst = max(worst, rel)
            ok &= rel <= 1e-6
    _report(6, "closed-form-vs-quadrature", ok, f"worst rel err {worst:.2e}")


def test_07_long_time_rescaling():
    g = standard_gaussian(1)
    w = SymMatrix([[1.0]])
    ok = True
    worst = 0.0
    for x in (0.0, 0.5, -0.5, 1.0, 1.5):
        limit = long_time_limit(g, w, [x])
        finite = rescaled_heat_value(g, w, [x], 1e4)
        err = abs(finite - limit) / max(1.0, abs(limit))
        worst = max(worst, err)
        ok &= err <= 1e-3
    # anisotropic weight exercises the determinant normalisation
    g2 = standard_gaussian(2)
    w2 = SymMatrix(np.diag([1.0, 4.0]))
    limit = long_time_limit(g2, w2, [0.0, 0.0])
    finite = rescaled_heat_value(g2, w2, [0.0, 0.0], 1e4)
    ok &= limit == pytest.approx(math.pi / 2, rel=1e-12)
    err = abs(finite - limit) / max(1.0, abs(limit))
    worst = max(worst, err)
    ok &= err <= 1e-3
    _report(7, "long-time-rescaling", ok, f"worst err {worst:.2e} at t=1e4")


def test_08_matrix_inequalities():
    ok = True
    worst_slack = math.inf
    for name, datum in geometric_instances():
        rng = np.random.default_rng(1008)
        for _ in range(10_000):
            vs = [rng.standard_normal(d) for d in datum.layout.out_dims]
            res = verify_adjoint_contraction(datum, vs, tol=1e-10)
            worst_slack = min(worst_slack, res.rhs - res.lhs + 1e-10 * (1 + res.rhs))
            ok &= res.holds

    pairs_checked = 0
    for name, datum in geometric_instances():
        rng = np.random.default_rng(2008)
        cert = check_geometric(datum)
        layout = datum.layout
        accepted = 0
        while accepted < 200:
            ys = [random_psd(rng, d) for d in layout.out_dims]
            pulled = datum.q.T @ embed_blockdiag(
                layout.out_dims, [dj * y for dj, y in zip(datum.d, ys)]
            ) @ datum.q
            shrink = float(rng.uniform(-1.0, 1.0))
            xs = [
                shrink * pulled[layout.in_slice(i), layout.in_slice(i)] / datum.c[i]
                for i in range(layout.k)
            ]
            res = verify_trace_implication(datum, xs, ys, cert.sigma)
            if not res.hypothesis_holds:
                continue
            accepted += 1
            pairs_checked += 1
            ok &= bool(res.conclusion_holds)
    _report(8, "matrix-inequalities", ok,
            f"contraction worst slack {worst_slack:.2e}, {pairs_checked} trace pairs")


def test_09_monotone_functional():
    datum = young_frame()
    grids = []
    for center in (1.0, -0.5, 0.3):
        ys = np.linspace(-15, 15, 601)
        grids.append(GridFunction(
            [-15.0], [15.0], [601], np.clip(1 - ((ys - center) / 2) ** 2, 0, None) ** 2
        ))
    series = monotone_functional(datum, grids, [0.0, 0.25, 0.5, 1.0, 2.0])
    values = [q for _, q in series]
    ok = all(b >= a * (1 - 1e-5) for a, b in zip(values, values[1:]))
    _report(9, "monotone-functional", ok,
            "Q: " + ", ".join(f"{q:.4f}" for q in values))


def test_10_semigroup_algebra():
    rng = np.random.default_rng(1010)
    ok = True
    worst_mass = 0.0
    worst_semi = 0.0
    for _ in range(100):
        dim = int(rng.integers(1, 3))
        form = SymMatrix(random_psd(rng, dim) / dim + 0.4 * np.eye(dim))
        weight = SymMatrix(random_psd(rng, dim) / dim + 0.4 * np.eye(dim))
        g = CenteredGaussian(form, float(rng.normal()))
        s, t = float(rng.uniform(0.05, 3.0)), float(rng.uniform(0.05, 3.0))

        mass_err = abs(
            log_gaussian_integral(heat_evolve(g, t, weight)) - log_gaussian_integral(g)
        )
        two_step = heat_evolve(heat_evolve(g, s, weight), t, weight)
        one_step = heat_evolve(g, s + t, weight)
        semi_err = max(
            float(np.abs(two_step.form.mat - one_step.form.mat).max()),
            abs(two_step.log_prefactor - one_step.log_prefactor),
        )
        worst_mass = max(worst_mass, mass_err)
        worst_semi = max(worst_semi, semi_err)
        ok &= mass_err <= 1e-12 and semi_err <= 1e-12
    _report(10, "semigroup-algebra", ok,
            f"worst mass err {worst_mass:.2e}, worst semigroup err {worst_semi:.2e}")


def test_grid_constant_extraction_approaches_one():
    """Companion check: the grid-level constant extraction approaches one."""
    datum = prekopa_leindler(0.5)
    xs = np.linspace(-6, 6, 201)
    g = GridFunction([-6.0], [6.0], [201], np.exp(-xs**2))
    ratio = extract_constant(datum, [g, g], [g], 1e3)
    ok = abs(ratio - 1.0) <= 5e-3
    print(f"acceptance -- grid constant extraction: {'PASS' if ok else 'FAIL'}  "
          f"[ratio {ratio:.6f} at t=1e3]")
    assert ok
