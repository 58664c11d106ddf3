import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from frbl import gaussian
from frbl.datum import make_datum
from frbl.gaussian import (
    CenteredGaussian,
    GaussianFamily,
    GaussianTuple,
    evolve_tuple,
    extremizer_check,
    geometrize_from_extremizers,
    heat_evolve,
    log_frbl_ratio,
    log_gaussian_integral,
    long_time_limit,
    random_admissible_tuple,
    relation_check,
    rescaled_heat_value,
    sample_families,
    tuple_from_json,
    tuple_to_json,
)
from frbl.geometry import check_geometric, check_loewner
from frbl.heatflow import heat_step
from frbl.instances import loomis_whitney_2d, prekopa_leindler, young_frame
from frbl.linalg import SymMatrix

from _oracles import (
    admissible_tuple,
    eig2x2,
    geometrize_blocks,
    heat_quadrature_1d,
    identity_flow,
    heat_quadrature_2d,
    log_ratio,
    random_psd,
    relation_gaps,
    sample_grid,
    stack_family,
    standard_gaussian,
)


def standard_tuple(datum):
    return GaussianTuple(
        tuple(standard_gaussian(d) for d in datum.layout.in_dims),
        tuple(standard_gaussian(d) for d in datum.layout.out_dims),
    )


small_squares = st.integers(min_value=1, max_value=3).flatmap(
    lambda n: arrays(np.float64, (n, n), elements=st.floats(min_value=-1.0, max_value=1.0))
)

GEOMETRIC_INSTANCES = (
    prekopa_leindler(0.5),
    prekopa_leindler(1 / 3),
    young_frame(),
    loomis_whitney_2d(),
)


class TestCenteredGaussian:
    def test_rejects_indefinite_form(self):
        with pytest.raises(ValueError, match="positive definite"):
            CenteredGaussian(SymMatrix([[0.0]]))

    def test_rejects_non_finite_prefactor(self):
        with pytest.raises(ValueError, match="finite"):
            CenteredGaussian(SymMatrix([[1.0]]), math.inf)

    def test_value(self):
        g = CenteredGaussian(SymMatrix([[2.0]]), 0.5)
        assert math.exp(g.log_value([1.0])) == pytest.approx(math.exp(0.5 - 2.0))


class TestIntegral:
    def test_normalized(self):
        g = CenteredGaussian(SymMatrix([[math.pi]]))
        assert math.exp(log_gaussian_integral(g)) == pytest.approx(1.0, abs=1e-15)

    def test_standard_1d(self):
        g = standard_gaussian(1)
        assert math.exp(log_gaussian_integral(g)) == pytest.approx(math.sqrt(math.pi), rel=1e-15)

    def test_standard_2d(self):
        g = standard_gaussian(2)
        assert math.exp(log_gaussian_integral(g)) == pytest.approx(math.pi, rel=1e-15)

    def test_prefactor_scales(self):
        g = CenteredGaussian(SymMatrix([[1.0]]), 2.0)
        assert log_gaussian_integral(g) == pytest.approx(2.0 + 0.5 * math.log(math.pi))


class TestHeatEvolve:
    def test_unit_case_closed_form(self):
        g = standard_gaussian(1)
        ev = heat_evolve(g, 0.25, SymMatrix([[1.0]]))
        assert ev.form.mat[0, 0] == pytest.approx(0.5, abs=1e-15)
        assert ev.log_prefactor == pytest.approx(-0.5 * math.log(2.0), abs=1e-15)
        # against the quadrature oracle
        for x in (0.0, 0.8, -1.7):
            quad = heat_quadrature_1d(1.0, 0.0, 1.0, 0.25, x)
            assert math.exp(ev.log_value([x])) == pytest.approx(quad, rel=1e-10)

    @pytest.mark.parametrize("t", [0.1, 1.0, 10.0])
    def test_quadrature_oracle_1d(self, t):
        rng = np.random.default_rng(17)
        for _ in range(3):
            b = float(rng.uniform(0.5, 2.0))
            w = float(rng.uniform(0.5, 2.0))
            pref = float(rng.normal(scale=0.3))
            g = CenteredGaussian(SymMatrix([[b]]), pref)
            ev = heat_evolve(g, t, SymMatrix([[w]]))
            for x in (0.0, 0.9, -2.1):
                quad = heat_quadrature_1d(b, pref, w, t, x)
                assert math.exp(ev.log_value([x])) == pytest.approx(quad, rel=1e-6)

    @pytest.mark.parametrize("t", [0.1, 1.0])
    def test_quadrature_oracle_2d(self, t):
        rng = np.random.default_rng(23)
        g_mat = rng.standard_normal((2, 2))
        form = SymMatrix(g_mat @ g_mat.T / 2 + 0.6 * np.eye(2))
        w_mat = rng.standard_normal((2, 2))
        weight = SymMatrix(w_mat @ w_mat.T / 2 + 0.6 * np.eye(2))
        g = CenteredGaussian(form, 0.2)
        ev = heat_evolve(g, t, weight)
        for x in ([0.0, 0.0], [0.7, -0.4]):
            quad = heat_quadrature_2d(form.mat, 0.2, weight.mat, t, x)
            assert math.exp(ev.log_value(x)) == pytest.approx(quad, rel=1e-6)

    @pytest.mark.parametrize("t", [0.0, -1.0, math.nan])
    def test_time_that_is_not_positive_is_named(self, t):
        with pytest.raises(ValueError, match=f"must be positive, got {t}"):
            heat_evolve(standard_gaussian(1), t)

    def test_small_time_continuity(self):
        g = CenteredGaussian(SymMatrix([[1.5, 0.2], [0.2, 0.8]]), 0.3)
        ev = heat_evolve(g, 1e-10)
        assert np.abs(ev.form.mat - g.form.mat).max() <= 1e-8
        assert ev.log_prefactor == pytest.approx(g.log_prefactor, abs=1e-8)

    def test_semigroup_law(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            base = rng.standard_normal((2, 2))
            form = SymMatrix(base @ base.T / 2 + 0.5 * np.eye(2))
            wm = rng.standard_normal((2, 2))
            weight = SymMatrix(wm @ wm.T / 2 + 0.5 * np.eye(2))
            g = CenteredGaussian(form, float(rng.normal()))
            s, t = float(rng.uniform(0.1, 2)), float(rng.uniform(0.1, 2))
            two_step = heat_evolve(heat_evolve(g, s, weight), t, weight)
            one_step = heat_evolve(g, s + t, weight)
            assert np.abs(two_step.form.mat - one_step.form.mat).max() <= 1e-12
            assert abs(two_step.log_prefactor - one_step.log_prefactor) <= 1e-12

    def test_mass_conservation(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            base = rng.standard_normal((2, 2))
            form = SymMatrix(base @ base.T / 2 + 0.5 * np.eye(2))
            g = CenteredGaussian(form, float(rng.normal()))
            for t in (0.1, 1.0, 50.0):
                ev = heat_evolve(g, t)
                assert abs(log_gaussian_integral(ev) - log_gaussian_integral(g)) <= 1e-12

    @pytest.mark.parametrize("t", [0.01, 1.0, 100.0, 1e4])
    def test_identity_weight_matches_inverse_formula(self, t):
        rng = np.random.default_rng(43)
        for dim in (1, 2, 3):
            for _ in range(5):
                form = SymMatrix(random_psd(rng, dim, floor=0.3))
                g = CenteredGaussian(form, float(rng.normal()))
                ev = heat_evolve(g, t)
                explicit = heat_evolve(g, t, SymMatrix.identity(dim))
                expected = np.linalg.inv(np.linalg.inv(g.form.mat) + 4.0 * t * np.eye(dim))
                log_det = np.linalg.slogdet(np.eye(dim) + 4.0 * t * g.form.mat)[1]
                scale = np.abs(expected).max()
                assert np.abs(ev.form.mat - expected).max() <= 1e-14 * scale
                assert np.abs(explicit.form.mat - ev.form.mat).max() <= 1e-14 * scale
                pref = g.log_prefactor - 0.5 * log_det
                assert abs(ev.log_prefactor - pref) <= 1e-14 * max(1.0, abs(pref))
                assert abs(explicit.log_prefactor - pref) <= 1e-14 * max(1.0, abs(pref))

    @pytest.mark.parametrize("t", [0.01, 1.0, 100.0, 1e4])
    def test_weighted_path_matches_inverse_formula(self, t):
        rng = np.random.default_rng(47)
        for dim in (1, 2, 3):
            for _ in range(5):
                form = SymMatrix(random_psd(rng, dim, floor=0.3))
                g = CenteredGaussian(form, float(rng.normal()))
                weight = SymMatrix(random_psd(rng, dim, floor=0.3))
                ev = heat_evolve(g, t, weight)
                expected = np.linalg.inv(np.linalg.inv(g.form.mat) + 4.0 * t * weight.mat)
                log_det = np.linalg.slogdet(np.eye(dim) + 4.0 * t * weight.mat @ g.form.mat)[1]
                assert np.abs(ev.form.mat - expected).max() <= 1e-13 * np.abs(expected).max()
                pref = g.log_prefactor - 0.5 * log_det
                assert abs(ev.log_prefactor - pref) <= 1e-13 * max(1.0, abs(pref))

    @settings(max_examples=50)
    @given(raw=small_squares, pref=st.floats(-5.0, 5.0),
           s=st.floats(0.01, 10.0), t=st.floats(0.01, 10.0))
    def test_identity_semigroup_and_mass_property(self, raw, pref, s, t):
        dim = raw.shape[0]
        g = CenteredGaussian(SymMatrix(raw @ raw.T / dim + 0.3 * np.eye(dim)), pref)
        two_step = heat_evolve(heat_evolve(g, s), t)
        one_step = heat_evolve(g, s + t)
        assert np.abs(two_step.form.mat - one_step.form.mat).max() <= 1e-12
        assert abs(two_step.log_prefactor - one_step.log_prefactor) <= 1e-12
        assert abs(log_gaussian_integral(one_step) - log_gaussian_integral(g)) <= 1e-12

    def test_invalid_inputs(self):
        g = standard_gaussian(1)
        with pytest.raises(ValueError, match="positive"):
            heat_evolve(g, 0.0)
        with pytest.raises(ValueError, match="positive definite"):
            heat_evolve(g, 1.0, SymMatrix([[0.0]]))
        with pytest.raises(ValueError, match="does not match"):
            heat_evolve(g, 1.0, SymMatrix(np.eye(2)))


class TestRelationCheck:
    def test_prekopa_leindler_standard(self):
        datum = prekopa_leindler(0.5)
        res = relation_check(datum, standard_tuple(datum))
        expected = eig2x2([[0.25, -0.25], [-0.25, 0.25]])
        assert expected[0] == pytest.approx(0.0, abs=1e-15)
        assert res.holds
        assert res.form_gap_min_eig == pytest.approx(0.0, abs=1e-12)
        assert res.prefactor_gap == 0.0

    def test_standard_tuple_matches_loewner_gap(self):
        # with unit forms the relation gap is exactly the weight-map gap
        for datum in GEOMETRIC_INSTANCES:
            res = relation_check(datum, standard_tuple(datum))
            _, loewner_min_eig = check_loewner(datum)
            assert res.holds
            assert res.form_gap_min_eig == pytest.approx(loewner_min_eig, abs=1e-12)

    def test_prefactor_dominance_fails(self):
        datum = prekopa_leindler(0.5)
        tup = standard_tuple(datum)
        boosted = GaussianTuple(
            (CenteredGaussian(tup.f[0].form, 1.0 / datum.c[0]), tup.f[1]), tup.g
        )
        res = relation_check(datum, boosted)
        assert not res.holds
        assert res.prefactor_gap == pytest.approx(-1.0, abs=1e-12)

    def test_layout_mismatch(self):
        datum = prekopa_leindler(0.5)
        bad = GaussianTuple((standard_gaussian(2),), (standard_gaussian(1),))
        with pytest.raises(ValueError):
            relation_check(datum, bad)


class TestFrblRatio:
    def test_standard_tuples_give_one(self):
        for datum in GEOMETRIC_INSTANCES:
            ratio = math.exp(log_frbl_ratio(datum, standard_tuple(datum)))
            assert ratio == pytest.approx(1.0, abs=1e-12)

    def test_prefactor_homogeneity(self):
        datum = prekopa_leindler(0.5)
        tup = standard_tuple(datum)
        boosted = GaussianTuple(
            (CenteredGaussian(tup.f[0].form, 1.0 / datum.c[0]), tup.f[1]), tup.g
        )
        assert math.exp(log_frbl_ratio(datum, boosted)) == pytest.approx(math.e, rel=1e-12)


class TestExtremizer:
    def test_standard_tuple_is_extremizer(self):
        datum = prekopa_leindler(0.5)
        verdict = extremizer_check(datum, standard_tuple(datum))
        assert verdict.is_extremizer
        assert verdict.basis == "geometric-constant"
        assert verdict.ratio == pytest.approx(1.0, abs=1e-12)

    def test_minimal_g_tuple_is_not_extremizer(self):
        # f forms (2, 1); the largest admissible g form follows from the
        # 2x2 determinant condition, found here by bisection on the oracle
        datum = prekopa_leindler(0.5)

        def gap_min_eig(b):
            return eig2x2([[1.0 - b / 4.0, -b / 4.0], [-b / 4.0, 0.5 - b / 4.0]])[0]

        lo, hi = 1e-6, 10.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if gap_min_eig(mid) >= 0.0:
                lo = mid
            else:
                hi = mid
        b_max = lo
        assert b_max == pytest.approx(4.0 / 3.0, abs=1e-9)

        tup = GaussianTuple(
            (
                CenteredGaussian(SymMatrix([[2.0]])),
                CenteredGaussian(SymMatrix([[1.0]])),
            ),
            (CenteredGaussian(SymMatrix([[b_max]])),),
        )
        assert relation_check(datum, tup).holds
        oracle_ratio = (
            math.sqrt(math.pi / 2.0) * math.sqrt(math.pi)
        ) ** 0.5 / math.sqrt(math.pi / b_max)
        verdict = extremizer_check(datum, tup)
        assert verdict.ratio == pytest.approx(oracle_ratio, rel=1e-9)
        assert verdict.ratio < 1.0
        assert not verdict.is_extremizer

    def test_violating_tuple_rejected(self):
        datum = prekopa_leindler(0.5)
        tup = standard_tuple(datum)
        bad = GaussianTuple(
            (CenteredGaussian(tup.f[0].form, 5.0), tup.f[1]), tup.g
        )
        with pytest.raises(ValueError, match="does not satisfy"):
            extremizer_check(datum, bad)

    def test_comparison_family_for_non_geometric_datum(self):
        datum = make_datum((1, 1), (1,), (0.5, 0.5), (1.0,), [[1.0, 1.0]])
        assert check_geometric(datum).verdict != "geometric"

        def tup(f_form, g_form):
            return GaussianTuple(
                (
                    CenteredGaussian(SymMatrix([[f_form]])),
                    CenteredGaussian(SymMatrix([[f_form]])),
                ),
                (CenteredGaussian(SymMatrix([[g_form]])),),
            )

        # with f forms a and g form b the relation needs b <= a / 4 and the
        # ratio is sqrt(b / a), so b = a / 4 attains the family maximum 1/2
        family = tuple(tup(1.0, b) for b in (1 / 16, 1 / 8, 3 / 16, 1 / 4))
        best = tup(4.0, 1.0)
        assert relation_check(datum, best).holds
        verdict = extremizer_check(datum, best, comparison=[stack_family(family)])
        assert verdict.basis == "comparison-family"
        assert verdict.ratio == pytest.approx(0.5, rel=1e-12)
        assert verdict.is_extremizer

        worse = tup(1.0, 1 / 8)
        verdict = extremizer_check(datum, worse, comparison=[stack_family(family + (best,))])
        assert not verdict.is_extremizer

    def test_non_geometric_needs_comparison(self):
        datum = make_datum((1, 1), (1,), (0.5, 0.5), (1.0,), [[1.0, 1.0]])
        with pytest.raises(ValueError, match="comparison"):
            extremizer_check(datum, GaussianTuple(
                (CenteredGaussian(SymMatrix([[4.0]])),) * 2,
                (CenteredGaussian(SymMatrix([[1.0]])),),
            ))


class TestGeometrize:
    def test_scalar_construction(self):
        datum = make_datum((1, 1), (1,), (0.5, 0.5), (1.0,), [[1.0, 1.0]])
        transform, transformed, cert = geometrize_from_extremizers(
            datum, [[[0.25]], [[0.25]]], [[[1.0]]]
        )
        np.testing.assert_allclose(transform.c_blocks[0], [[2.0]], atol=1e-14)
        np.testing.assert_allclose(transform.d_blocks[0], [[1.0]], atol=1e-14)
        np.testing.assert_allclose(transformed.q, [[0.5, 0.5]], atol=1e-14)
        assert cert.verdict == "geometric"

    def test_identity_weights_on_geometric_datum(self):
        datum = young_frame()
        transform, transformed, cert = geometrize_from_extremizers(
            datum, [np.eye(2)], [np.eye(1)] * 3
        )
        np.testing.assert_allclose(transform.c_blocks[0], np.eye(2), atol=1e-14)
        np.testing.assert_allclose(transformed.q, datum.q, atol=1e-14)
        assert cert.verdict == "geometric"

    def test_arbitrary_weights_just_report(self):
        rng = np.random.default_rng(41)
        base = rng.standard_normal((2, 2))
        form = base @ base.T + 0.5 * np.eye(2)
        _, _, cert = geometrize_from_extremizers(
            young_frame(), [form], [[[0.7]], [[1.3]], [[2.0]]]
        )
        assert cert.verdict in ("geometric", "not-geometric-loewner", "sigma-not-found")

    def test_rejects_non_pd(self):
        with pytest.raises(ValueError, match="positive definite"):
            geometrize_from_extremizers(young_frame(), [np.zeros((2, 2))], [np.eye(1)] * 3)


class TestLongTime:
    def test_unit_weight_limit(self):
        g = standard_gaussian(1)
        w = SymMatrix([[1.0]])
        assert long_time_limit(g, w, [0.0]) == pytest.approx(math.sqrt(math.pi), rel=1e-14)
        fin = rescaled_heat_value(g, w, [0.0], 1e4)
        assert fin == pytest.approx(math.sqrt(math.pi), abs=1e-3)

    def test_decay_along_rays(self):
        g = standard_gaussian(1)
        w = SymMatrix([[1.0]])
        vals = [long_time_limit(g, w, [x]) for x in (0.5, 1.0, 2.0, 4.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_anisotropic_weight(self):
        g = standard_gaussian(2)
        w = SymMatrix(np.diag([1.0, 4.0]))
        assert long_time_limit(g, w, [0.0, 0.0]) == pytest.approx(math.pi / 2, rel=1e-14)

    def test_weight_of_another_dimension_raises(self):
        g = CenteredGaussian(SymMatrix(np.eye(2)))
        with pytest.raises(ValueError, match="does not match"):
            long_time_limit(g, SymMatrix([[2.0]]), [0.5])


WEIGHT = np.array([[1.3, 0.4], [0.4, 0.9]])  # positive definite, not diagonal
G2 = CenteredGaussian(SymMatrix([[0.8, -0.2], [-0.2, 1.1]]), 0.3)
GRID2 = sample_grid(lambda p: np.exp(-(p**2).sum(axis=1)), [-3.0, -3.0], [3.0, 3.0], [31, 31])


def _geometrized(w) -> list:
    transform, transformed, cert = geometrize_from_extremizers(
        young_frame(), [w], [[[0.7]], [[1.3]], [[2.0]]])
    return [*transform.c_blocks, *transform.d_blocks, transformed.q, cert.loewner_min_eig,
            cert.verdict]


# each entry point that takes a heat weight, as the values it computes from one
WEIGHT_ENTRY_POINTS = {
    "heat_step": lambda w: [heat_step(GRID2, 0.05, w).values],
    "heat_evolve": lambda w: [(e := heat_evolve(G2, 0.7, w)).form.mat, e.log_prefactor],
    "evolve_tuple": lambda w: [x.form.mat for x in evolve_tuple(
        GaussianTuple((G2,), (standard_gaussian(1),) * 3), 0.7, [w]).f],
    "long_time_limit": lambda w: [long_time_limit(G2, w, [0.3, -0.5])],
    "rescaled_heat_value": lambda w: [rescaled_heat_value(G2, w, [0.3, -0.5], 2.0)],
    "geometrize_from_extremizers": _geometrized,
}


def _bits(values: list) -> list:
    return [v if isinstance(v, str) else np.asarray(v, dtype=float).tobytes() for v in values]


class TestHeatWeights:
    """Every heat-weight entry point reads a weight by one rule: a
    ``SymMatrix`` or any square array-like, its upper triangle mirrored."""

    @pytest.mark.parametrize("name", WEIGHT_ENTRY_POINTS)
    def test_every_form_of_a_weight_gives_the_same_bits(self, name):
        call = WEIGHT_ENTRY_POINTS[name]
        want = _bits(call(SymMatrix(WEIGHT)))
        lower_ignored = np.triu(WEIGHT) + np.tril(np.full((2, 2), 7.0), -1)
        for form in (WEIGHT, WEIGHT.tolist(), lower_ignored):
            assert _bits(call(form)) == want

    @pytest.mark.parametrize("name", WEIGHT_ENTRY_POINTS)
    @pytest.mark.parametrize("bad", [np.ones((2, 3)), [[1.0, math.nan], [0.0, 1.0]], np.eye(3),
                                     [[1.0, 0.0], [0.0, -1.0]]],
                             ids=["not-square", "not-finite", "wrong-size", "not-pd"])
    def test_a_bad_weight_raises_a_value_error_naming_it(self, name, bad):
        with pytest.raises(ValueError, match="(heat|input) weight"):
            WEIGHT_ENTRY_POINTS[name](bad)

    @pytest.mark.parametrize("datum", [
        young_frame(), prekopa_leindler(0.5), loomis_whitney_2d(),
        make_datum((3,), (2, 1), (1.0,), (1.0, 1.0), np.eye(3))])
    def test_geometrize_blocks_match_the_reference(self, datum):
        rng = np.random.default_rng(71)
        layout = datum.layout

        def weights(dims):
            # random lower triangles, which both readers overwrite
            return [random_psd(rng, n, 0.1) + np.tril(rng.standard_normal((n, n)), -1)
                    for n in dims]

        for _ in range(50):
            ins, outs = weights(layout.in_dims), weights(layout.out_dims)
            transform, _, _ = geometrize_from_extremizers(datum, ins, outs)
            want_c, want_d = geometrize_blocks(ins, outs)
            assert _bits([*transform.c_blocks, *transform.d_blocks]) == _bits([*want_c, *want_d])


class TestTupleHelpers:
    def test_json_roundtrip(self):
        datum = young_frame()
        tup = standard_tuple(datum)
        obj = tuple_to_json(tup)
        assert set(obj) == {"f", "g"}
        back = tuple_from_json(obj)
        assert back.f[0].form.mat.tolist() == tup.f[0].form.mat.tolist()

    def test_random_admissible_tuples_are_admissible(self):
        rng = np.random.default_rng(51)
        for datum in GEOMETRIC_INSTANCES:
            for _ in range(25):
                tup = random_admissible_tuple(datum, rng)
                res = relation_check(datum, tup)
                assert res.holds
                assert log_frbl_ratio(datum, tup) <= 1e-9

    def test_evolved_admissible_tuples_stay_admissible(self):
        rng = np.random.default_rng(52)
        datum = young_frame()
        for _ in range(25):
            tup = random_admissible_tuple(datum, rng)
            for t in (0.1, 1.0, 10.0):
                res = relation_check(datum, evolve_tuple(tup, t))
                assert res.holds, res


def _same_bits(a: CenteredGaussian, b: CenteredGaussian) -> bool:
    return (a.form.mat.tobytes() == b.form.mat.tobytes()
            and np.float64(a.log_prefactor).tobytes() == np.float64(b.log_prefactor).tobytes())


class TestTupleFlow:
    """``evolve_tuple`` evolves each factor dimension as one stack from
    spectra the tuple keeps, bit for bit the flow of each Gaussian alone."""

    @settings(max_examples=60)
    @given(dims=st.lists(st.integers(1, 3), min_size=2, max_size=7),
           split=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
           exponents=st.lists(st.floats(-6.0, 6.0), min_size=1, max_size=4))
    def test_tuple_flow_is_the_flow_of_each_factor(self, dims, split, seed, exponents):
        rng = np.random.default_rng(seed)
        shared = [CenteredGaussian(SymMatrix(random_psd(rng, n, floor=0.05)), float(rng.normal()))
                  for n in dims]
        k = min(split, len(dims) - 1)
        tup = GaussianTuple(shared[:k], shared[k:])
        # a second tuple of the same Gaussian objects, in another layout
        other = GaussianTuple(shared[::-1][:1], shared[::-1][1:])
        for t in [10.0**e for e in exponents]:  # the two tuples at interleaved times
            for which in (tup, other):
                evolved = evolve_tuple(which, t)
                for x, ev in zip(which.f + which.g, evolved.f + evolved.g, strict=True):
                    assert _same_bits(ev, heat_evolve(x, t))
                    form, log_prefactor = identity_flow(x, t)
                    assert ev.form.mat.tobytes() == form.tobytes()
                    assert ev.log_prefactor == log_prefactor

    @settings(max_examples=30)
    @given(dims=st.lists(st.integers(1, 3), min_size=2, max_size=6), seed=st.integers(0, 2**32 - 1),
           exponent=st.floats(-6.0, 6.0), weighted=st.lists(st.booleans(), min_size=6, max_size=6))
    def test_weighted_tuple_flow_is_the_flow_of_each_factor(self, dims, seed, exponent, weighted):
        rng = np.random.default_rng(seed)
        shared = [CenteredGaussian(SymMatrix(random_psd(rng, n, floor=0.05)), float(rng.normal()))
                  for n in dims]
        weights = [SymMatrix(random_psd(rng, n, floor=0.2)) if w else None
                   for n, w in zip(dims, weighted)]
        t, k = 10.0**exponent, len(dims) // 2
        tup = GaussianTuple(shared[:k], shared[k:])
        for in_w, out_w in ((weights[:k], weights[k:]), (weights[:k], None), (None, weights[k:])):
            evolved = evolve_tuple(tup, t, in_w, out_w)
            for x, w, ev in zip(shared, (in_w or [None] * k) + (out_w or [None] * (len(dims) - k)),
                                evolved.f + evolved.g, strict=True):
                assert _same_bits(ev, heat_evolve(x, t, w))

    def _eigh_calls(self, monkeypatch) -> list:
        calls, eigh = [], np.linalg.eigh

        def spy(a, *args, **kwargs):
            calls.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", spy)
        return calls

    def test_one_eigh_per_factor_dimension_and_tuple(self, monkeypatch):
        datum = young_frame()  # a 2-dimensional input, three 1-dimensional outputs
        tup = random_admissible_tuple(datum, np.random.default_rng(5))
        calls = self._eigh_calls(monkeypatch)

        def ladder(which):
            for t in (0.01, 0.1, 1.0, 10.0, 100.0):
                assert relation_check(datum, evolve_tuple(which, t)).holds

        ladder(tup)
        assert calls == [(3, 1, 1), (1, 2, 2)]
        ladder(tup)
        assert len(calls) == 2
        ladder(GaussianTuple(tup.f, tup.g))
        assert calls[2:] == [(3, 1, 1), (1, 2, 2)]

    @pytest.mark.parametrize("t", [0.0, -1.0, math.nan])
    def test_time_is_checked_before_any_work(self, t, monkeypatch):
        tup = standard_tuple(young_frame())
        calls = self._eigh_calls(monkeypatch)
        with pytest.raises(ValueError, match=f"^evolution time must be positive, got {t}$"):
            evolve_tuple(tup, t)
        assert calls == []

    def test_first_factor_below_the_floor_is_named(self):
        # at t = 1e12 both evolved forms fall below PD_TOL; the f factor,
        # the first in factor order though the later dimension, is reported
        tup = GaussianTuple((CenteredGaussian(SymMatrix(np.eye(2))),),
                            (CenteredGaussian(SymMatrix([[1e-11]])),))
        low = 1.0 / (1.0 + 4e12)
        assert f"{low:.3e}" != f"{1e-11 / (1.0 + 4e12 * 1e-11):.3e}"
        with pytest.raises(ValueError, match=re.escape(
                f"Gaussian form must be positive definite (min eigenvalue {low:.3e})")):
            evolve_tuple(tup, 1e12)

    @pytest.mark.parametrize("side", ["in", "out"])
    @pytest.mark.parametrize("extra, word", [(1, "longer"), (-1, "shorter")])
    def test_weight_lists_of_the_wrong_length(self, side, extra, word):
        tup = standard_tuple(young_frame())
        count = len(tup.f if side == "in" else tup.g) + extra
        weights = {f"{side}_weights": [None] * count}
        with pytest.raises(ValueError, match=f"^zip\\(\\) argument 2 is {word} than argument 1$"):
            evolve_tuple(tup, 1.0, **weights)


class TestWeightedFlowCharacterization:
    """For data equivalent to geometric ones, the matching weighted flows
    preserve the relation even though the identity flow does not."""

    DATUM = make_datum((1, 1), (1,), (0.5, 0.5), (1.0,), [[1.0, 1.0]])
    IN_WEIGHTS = [SymMatrix([[0.25]]), SymMatrix([[0.25]])]
    OUT_WEIGHTS = [SymMatrix([[1.0]])]

    def test_identity_flow_breaks_tight_tuple(self):
        # forms (4, 4) against 1 sit exactly on the admissibility boundary;
        # unit-weight evolution shrinks the f side too slowly
        tup = GaussianTuple(
            (CenteredGaussian(SymMatrix([[4.0]])),) * 2,
            (CenteredGaussian(SymMatrix([[1.0]])),),
        )
        assert relation_check(self.DATUM, tup).holds
        for t in (0.1, 1.0):
            res = relation_check(self.DATUM, evolve_tuple(tup, t))
            assert not res.holds
            assert res.form_gap_min_eig < -1e-6

    def test_weighted_flow_preserves_tight_tuple(self):
        tup = GaussianTuple(
            (CenteredGaussian(SymMatrix([[4.0]])),) * 2,
            (CenteredGaussian(SymMatrix([[1.0]])),),
        )
        for t in (0.1, 1.0, 10.0):
            evolved = evolve_tuple(tup, t, self.IN_WEIGHTS, self.OUT_WEIGHTS)
            res = relation_check(self.DATUM, evolved)
            assert res.holds
            # the closed form keeps the gap tight and the prefactors equal
            assert res.form_gap_min_eig == pytest.approx(0.0, abs=1e-12)
            assert res.prefactor_gap == pytest.approx(0.0, abs=1e-12)

    def test_weighted_flow_preserves_random_admissible_tuples(self):
        rng = np.random.default_rng(61)
        for _ in range(200):
            tup = random_admissible_tuple(self.DATUM, rng)
            for t in (0.1, 1.0, 10.0):
                evolved = evolve_tuple(tup, t, self.IN_WEIGHTS, self.OUT_WEIGHTS)
                assert relation_check(self.DATUM, evolved).holds


CONTROL = make_datum((1, 1), (1,), (0.5, 0.5), (1.0,), [[1.0, 1.0]])


def _family_layouts():
    """Non-geometric layouts with 1-, 2- and 3-dimensional factors, one and
    two outputs."""
    q = np.random.default_rng(5).standard_normal((5, 6))
    return {
        "control": CONTROL,
        "two-outputs": make_datum((2,), (1, 1), (1.0,), (1.0, 1.0), [[1.0, 0.3], [0.2, 1.1]]),
        "mixed": make_datum((1, 2, 3), (3, 2), (1.0, 0.5, 0.5), (0.5, 1.0), q),
    }


def _pairs(fam, s):
    """Member ``s`` of a stacked family as ``(form, log_prefactor)`` pairs."""
    return ([(f[s], p) for f, p in zip(fam.f_forms, fam.f_prefs[s])],
            [(g[s], p) for g, p in zip(fam.g_forms, fam.g_prefs[s])])


def _one_dim_tuple(f_form, g_form, f_pref=0.0):
    return GaussianTuple(
        (CenteredGaussian(SymMatrix([[f_form]]), f_pref),) * 2,
        (CenteredGaussian(SymMatrix([[g_form]])),),
    )


class _CallLog:
    """A generator that logs the name of each method call it passes on."""

    def __init__(self, rng: np.random.Generator):
        self._rng, self.calls = rng, []

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def logged(*args, **kwargs):
            self.calls.append(name)
            return method(*args, **kwargs)

        return logged


class TestStackedFamily:
    """The stacked sampler and kernels against the one-tuple-at-a-time
    reference in ``_oracles``, bit for bit."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("layout", sorted(_family_layouts()))
    def test_family_matches_reference_sampler(self, layout, seed):
        datum = _family_layouts()[layout]
        ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        want = [admissible_tuple(datum, ref_rng) for _ in range(40)]
        (fam,) = sample_families(datum, rng, 40)
        assert len(fam) == 40
        for s, (f, g) in enumerate(want):
            for (form, pref), (want_form, want_pref) in zip(sum(_pairs(fam, s), []), f + g,
                                                            strict=True):
                assert form.tobytes() == want_form.tobytes()
                assert pref == want_pref
        # the one-tuple sampler is the family of one, and continues the draws
        tup = random_admissible_tuple(datum, rng)
        f, g = admissible_tuple(datum, ref_rng)
        for got, (want_form, want_pref) in zip(tup.f + tup.g, f + g, strict=True):
            assert got.form.mat.tobytes() == want_form.tobytes()
            assert got.log_prefactor == want_pref

    @pytest.mark.parametrize("low, high", [(0.05, 0.5), (0.0, 0.5), (0.2, 1.0)])
    def test_uniform_is_numpys_formula(self, low, high):
        # the sampler draws random() where its reference draws uniform(low, high)
        want, got = np.random.default_rng(11), np.random.default_rng(11)
        assert gaussian._uniform(low, high, got.random(4096)).tobytes() == \
            want.uniform(low, high, size=4096).tobytes()
        assert gaussian._uniform(low, high, got.random()) == want.uniform(low, high)

    @pytest.mark.parametrize("scale", [0.5, 0.3])
    def test_normal_is_numpys_formula(self, scale):
        # the sampler draws standard_normal where its reference draws normal(scale=scale)
        want, got = np.random.default_rng(11), np.random.default_rng(11)
        assert gaussian._normal(scale, got.standard_normal(4096)).tobytes() == \
            want.normal(scale=scale, size=4096).tobytes()
        assert gaussian._normal(scale, got.standard_normal()) == want.normal(scale=scale)

    @pytest.mark.parametrize("layout", sorted(_family_layouts()))
    def test_each_member_makes_two_k_plus_four_plain_calls(self, layout):
        datum = _family_layouts()[layout]
        spy = _CallLog(np.random.default_rng(4))
        (fam,) = sample_families(datum, spy, 9)
        # per member: the g run, the cushion, k (form, scale) pairs, the margin, the weights
        assert spy.calls == ["standard_normal", "random"] * (9 * (datum.layout.k + 2))
        (want,) = sample_families(datum, np.random.default_rng(4), 9)
        for got, ref in zip(fam.f_forms + fam.g_forms + (fam.f_prefs, fam.g_prefs),
                            want.f_forms + want.g_forms + (want.f_prefs, want.g_prefs)):
            assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("layout", sorted(_family_layouts()))
    def test_kernels_match_reference(self, layout):
        datum = _family_layouts()[layout]
        (drawn,) = sample_families(datum, np.random.default_rng(7), 30)
        # f forms shrunk on every other member break the relation there
        scale = np.where(np.arange(len(drawn)) % 2 == 0, 0.3, 1.0)[:, None, None]
        shrunk = GaussianFamily(tuple(scale * f for f in drawn.f_forms), drawn.g_forms,
                                drawn.f_prefs, drawn.g_prefs)
        for fam in (drawn, shrunk):
            parts = (fam.f_forms, fam.g_forms, fam.f_prefs, fam.g_prefs)
            min_eig, gap = gaussian._relation_gaps(datum, *parts)
            ratios = gaussian._log_ratios(datum, *parts)
            for s in range(len(fam)):
                f, g = _pairs(fam, s)
                assert (min_eig[s], gap[s]) == relation_gaps(datum, f, g)
                assert ratios[s] == log_ratio(datum, f, g)
                rel = relation_check(datum, fam.member(s))
                assert (rel.form_gap_min_eig, rel.prefactor_gap) == relation_gaps(datum, f, g)
                assert log_frbl_ratio(datum, fam.member(s)) == log_ratio(datum, f, g)
        holds = (min_eig >= -1e-9) & (gap >= -1e-9)  # of the shrunk family
        assert holds.any() and not holds.all()

    @pytest.mark.parametrize("block", [1, 7, 4096])
    def test_block_size_leaves_verdict_unchanged(self, block, monkeypatch):
        candidate = _one_dim_tuple(16.0, 1.0)

        def verdict():
            families = sample_families(CONTROL, np.random.default_rng(3), 64)
            return extremizer_check(CONTROL, candidate, comparison=families)

        want = verdict()
        monkeypatch.setattr(gaussian, "FAMILY_BLOCK", block)
        sizes = [len(f) for f in sample_families(CONTROL, np.random.default_rng(3), 64)]
        assert sizes == [block] * (64 // block) + ([64 % block] if 64 % block else [])
        assert verdict() == want

    def test_family_and_tuples_give_one_verdict(self):
        tuples = [random_admissible_tuple(CONTROL, np.random.default_rng(s)) for s in range(12)]
        candidate = tuples[0]
        want = extremizer_check(CONTROL, candidate, comparison=[stack_family(tuples)])
        halves = [stack_family(tuples[:5]), stack_family(tuples[5:])]
        assert extremizer_check(CONTROL, candidate, comparison=halves) == want

    def test_members_violating_the_relation_are_skipped(self):
        # f forms 1 against g form 1 violate b <= a / 4, with ratio 1 above
        # every admissible one (at most 1/2)
        best = _one_dim_tuple(4.0, 1.0)
        violating = _one_dim_tuple(1.0, 1.0)
        assert not relation_check(CONTROL, violating).holds
        family = stack_family([_one_dim_tuple(1.0, 1 / 8), violating])
        verdict = extremizer_check(CONTROL, best, comparison=[family])
        assert verdict.is_extremizer
        assert verdict.reference_log_ratio == pytest.approx(math.log(0.5), abs=1e-12)

    def test_indefinite_member_is_rejected(self):
        fam = stack_family([_one_dim_tuple(4.0, 1.0)] * 2)
        bad = GaussianFamily((fam.f_forms[0], -fam.f_forms[1]), fam.g_forms,
                             fam.f_prefs, fam.g_prefs)
        with pytest.raises(ValueError, match="positive definite"):
            extremizer_check(CONTROL, _one_dim_tuple(4.0, 1.0), comparison=[bad])

    def test_family_layout_is_checked(self):
        fam = stack_family([standard_tuple(young_frame())])
        with pytest.raises(ValueError, match="layout"):
            extremizer_check(CONTROL, _one_dim_tuple(4.0, 1.0), comparison=[fam])

    def test_geometric_datum_draws_no_comparison(self):
        def comparison():
            raise AssertionError("comparison family drawn on a geometric datum")
            yield

        datum = prekopa_leindler(0.5)
        verdict = extremizer_check(datum, standard_tuple(datum), comparison=comparison())
        assert verdict.basis == "geometric-constant" and verdict.is_extremizer

    def test_lazy_and_listed_draws_give_one_verdict(self, monkeypatch):
        monkeypatch.setattr(gaussian, "FAMILY_BLOCK", 16)
        candidate = _one_dim_tuple(16.0, 1.0)
        lazy = sample_families(CONTROL, np.random.default_rng(3), 64)
        listed = list(sample_families(CONTROL, np.random.default_rng(3), 64))
        verdict = extremizer_check(CONTROL, candidate, comparison=lazy)
        assert verdict.basis == "comparison-family" and len(listed) == 4
        assert extremizer_check(CONTROL, candidate, comparison=listed) == verdict
