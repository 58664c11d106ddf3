import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frbl import geometry
from frbl.datum import EquivalenceTransform, apply_equivalence, embed_blockdiag, make_datum
from frbl.gaussian import GaussianTuple, relation_check
from frbl.geometry import (
    _form_gap,
    _SigmaConstraints,
    check_geometric,
    check_loewner,
    find_sigma,
    marginal_residuals,
    verify_adjoint_contraction,
    verify_trace_implication,
)
from frbl.instances import holder, loomis_whitney_2d, prekopa_leindler, young_frame
from frbl.linalg import SymMatrix

from _oracles import eig2x2, random_psd, separator_verifies, sigma_constraints, standard_gaussian


def negative_control():
    """Loewner-violating datum: sum of two lines onto one with unit map."""
    return make_datum((1, 1), (1,), (0.5, 0.5), (1.0,), [[1.0, 1.0]])


def hard_case():
    """Loewner holds, but the constraints force the off-diagonal entry of
    sigma to 0.55 / 0.36 > 1, beyond PSD range."""
    return make_datum((1, 1), (1,), (0.5, 0.5), (1.0,), [[0.6, 0.3]])


def slow_case():
    """Frozen random datum whose feasible point is far from the identity
    start; Loewner fails and the search needs a few hundred projections."""
    return make_datum(
        (1, 1, 2),
        (1,),
        [0.62537719437472, 1.766995947758348, 0.8301889996603169],
        [4.052751141453702],
        [[-0.586630882730846, 0.7707802337475681,
          -0.49544904738287204, -1.8397186052226187]],
    )


def random_orthogonal(rng, dim):
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))


def feasible_data():
    """Data that admit a sigma: bundled, rotated, random orthogonal up to
    dimension 16, and the slow datum."""
    rng = np.random.default_rng(606)
    bundled = [prekopa_leindler(0.3), young_frame(), loomis_whitney_2d(),
               holder((0.5, 0.3, 0.2), dim=2)]
    rotated = [
        apply_equivalence(base, EquivalenceTransform(
            tuple(random_orthogonal(rng, d) for d in base.layout.in_dims),
            tuple(random_orthogonal(rng, d) for d in base.layout.out_dims),
        ))
        for base in bundled
    ]
    layouts = [((1,) * 6, (2, 2, 2)), ((2,) * 4, (8,)), ((1,) * 10, (5, 5)),
               ((1,) * 12, (12,)), ((2,) * 7, (7, 7)), ((1,) * 16, (16,))]
    orthogonal = [
        make_datum(i, o, (1.0,) * len(i), (1.0,) * len(o), random_orthogonal(rng, sum(i)))
        for i, o in layouts
    ]
    return bundled + rotated + orthogonal + [slow_case()]


@pytest.fixture
def constraint_builds(monkeypatch):
    """The data for which ``find_sigma`` builds a constraint system."""
    built, real = [], geometry._SigmaConstraints

    def spy(datum):
        built.append(datum)
        return real(datum)

    monkeypatch.setattr(geometry, "_SigmaConstraints", spy)
    return built


@st.composite
def orthogonal_data(draw, max_dim=8):
    """A random orthogonal ``Q`` with unit weights on random block layouts
    on both sides."""
    dim = draw(st.integers(1, max_dim))

    def layout():
        cuts = sorted(draw(st.sets(st.integers(1, dim - 1)))) if dim > 1 else []
        return tuple(np.diff([0, *cuts, dim]).tolist())

    in_dims, out_dims = layout(), layout()
    entries = draw(st.lists(st.floats(-1.0, 1.0), min_size=dim * dim, max_size=dim * dim))
    q = np.linalg.qr(np.reshape(entries, (dim, dim)))[0]
    return make_datum(in_dims, out_dims, (1.0,) * len(in_dims), (1.0,) * len(out_dims), q)


class TestLoewner:
    def test_prekopa_leindler_tight(self):
        lam = 1 / 3
        ok, min_eig = check_loewner(prekopa_leindler(lam), tol=1e-9)
        # the gap matrix is lam(1-lam) * [[1,-1],[-1,1]]
        expected = eig2x2([[lam * (1 - lam), -lam * (1 - lam)],
                           [-lam * (1 - lam), lam * (1 - lam)]])
        assert expected[0] == pytest.approx(0.0, abs=1e-15)
        assert ok and min_eig == pytest.approx(0.0, abs=1e-12)

    def test_young_frame_tight(self):
        ok, min_eig = check_loewner(young_frame(), tol=1e-9)
        assert ok and min_eig == pytest.approx(0.0, abs=1e-12)

    def test_negative_control(self):
        ok, min_eig = check_loewner(negative_control(), tol=1e-9)
        expected = eig2x2([[-0.5, -1.0], [-1.0, -0.5]])
        assert expected[0] == pytest.approx(-1.5, abs=1e-15)
        assert not ok
        assert min_eig == pytest.approx(-1.5, abs=1e-12)


BUNDLED = [prekopa_leindler(1 / 3), young_frame(), loomis_whitney_2d(),
           holder((0.5, 0.3, 0.2), dim=2)]


class TestFormGap:
    """The one Loewner-gap primitive behind the Loewner test, the Gaussian
    relation and the trace implication."""

    @pytest.mark.parametrize("datum", BUNDLED,
                             ids=["prekopa-leindler", "young-frame", "loomis-whitney-2d", "holder"])
    def test_weight_maps(self, datum):
        # the identity on one side and zero on the other leave the weight map
        # Lambda_c, or minus the pullback of Lambda_d
        layout = datum.layout
        zero_in, zero_out = np.zeros((layout.dim_in,) * 2), np.zeros((layout.dim_out,) * 2)
        lam_c = _form_gap(datum, np.eye(layout.dim_in), zero_out)
        assert np.array_equal(lam_c, np.diag(np.repeat(datum.c, layout.in_dims)))
        lam_d = np.diag(np.repeat(datum.d, layout.out_dims))
        np.testing.assert_allclose(-_form_gap(datum, zero_in, np.eye(layout.dim_out)),
                                   datum.q.T @ lam_d @ datum.q, rtol=0, atol=1e-15)
        # the scaling condition: both weight maps have one trace
        assert np.trace(lam_c) == pytest.approx(np.trace(lam_d), abs=1e-12)

    def test_young_frame_pullback_is_identity(self):
        # the rows form a tight frame: Q^T (2/3 id) Q = id
        pulled = -_form_gap(young_frame(), np.zeros((2, 2)), np.eye(3))
        np.testing.assert_allclose(pulled, np.eye(2), rtol=0, atol=1e-15)

    def test_stack_matches_members(self):
        rng = np.random.default_rng(5)
        datum = holder((0.5, 0.3, 0.2), dim=2)
        f_side = rng.standard_normal((4, 2, 2))
        g_side = embed_blockdiag((2, 2, 2), rng.standard_normal((3, 4, 2, 2)))
        stacked = _form_gap(datum, f_side, g_side)
        assert np.array_equal(stacked, stacked.swapaxes(-1, -2))
        for s in range(4):
            assert stacked[s].tobytes() == _form_gap(datum, f_side[s], g_side[s]).tobytes()

    def test_loewner_gap_is_the_standard_tuple_form_gap(self):
        # bit for bit, on the bundled, rotated and random orthogonal data and
        # on both controls
        for datum in feasible_data() + [negative_control(), hard_case()]:
            standard = GaussianTuple(
                tuple(standard_gaussian(n) for n in datum.layout.in_dims),
                tuple(standard_gaussian(n) for n in datum.layout.out_dims))
            want = relation_check(datum, standard).form_gap_min_eig
            assert struct.pack("d", check_loewner(datum)[1]) == struct.pack("d", want)


class TestFindSigma:
    def test_prekopa_leindler_all_ones(self, constraint_builds):
        res = find_sigma(prekopa_leindler(1 / 3))
        assert res.status == "found"
        assert len(constraint_builds) == 1 and res.iterations == 1
        np.testing.assert_allclose(res.sigma.mat, np.ones((2, 2)), atol=1e-8)
        assert max(res.residual_in, res.residual_out) <= 1e-8
        assert res.sigma_min_eig >= -1e-8

    def test_young_frame_identity(self):
        res = find_sigma(young_frame())
        assert res.status == "found"
        np.testing.assert_allclose(res.sigma.mat, np.eye(2), atol=1e-8)

    def test_forced_sigma_infeasible(self):
        # k=1 forces sigma to the identity, but the pushforward scales by 4
        datum = make_datum((1,), (1,), (1.0,), (1.0,), [[2.0]])
        res = find_sigma(datum)
        assert res.status == "affine-infeasible"
        assert res.reason == "affine-infeasible"
        assert res.sigma is None

    def test_separator_when_cone_never_reached(self, constraint_builds):
        datum = hard_case()
        res = find_sigma(datum, tol=1e-8, max_iter=300)
        assert res.status == "infeasible"
        assert res.reason == "separator"
        assert res.sigma is None
        assert len(constraint_builds) == 1 and res.iterations == 1
        assert max(res.residual_in, res.residual_out) > 1e-8 or res.sigma_min_eig < -1e-8
        assert separator_verifies(datum, res.separator.mat)

    def test_max_iter_on_small_budget(self, constraint_builds):
        res = find_sigma(slow_case(), max_iter=5)
        assert res.status == "max-iter"
        assert len(constraint_builds) == 1
        assert res.reason == "max-iter"
        assert res.iterations == 5
        assert res.sigma is None and res.separator is None
        assert math.isfinite(res.residual_in) and math.isfinite(res.residual_out)

    def test_corrupted_separator_fails_recheck(self):
        # three lines onto one: the forced off-diagonal entries of sigma sum
        # to 4.06 > 3, and the constraints leave a two-dimensional null space
        datum = make_datum((1, 1, 1), (1,), (1 / 3,) * 3, (1.0,), [[0.3, 0.3, 0.3]])
        res = find_sigma(datum)
        assert res.status == "infeasible"
        y = res.separator.mat
        assert separator_verifies(datum, y)
        assert not separator_verifies(datum, -y)
        a, _, pairs = sigma_constraints(datum)
        null = np.linalg.svd(a)[2][-1]  # orthogonal to every constraint row
        assert np.abs(a @ null).max() < 1e-12
        off_range = np.zeros_like(y)
        for (p, t), val in zip(pairs, null):
            off_range[p, t] = off_range[t, p] = val if p == t else val / math.sqrt(2.0)
        assert not separator_verifies(datum, y + np.abs(y).max() * off_range)

    def test_feasible_data_never_report_a_separator(self):
        for datum in feasible_data():
            res = find_sigma(datum)
            assert res.status == "found", (datum.layout, res.status, res.iterations)
            assert res.separator is None

    def test_constraint_rows_match_entrywise_reference(self):
        for datum in feasible_data() + [hard_case()]:
            cons = _SigmaConstraints(datum)
            a, b, _ = sigma_constraints(datum)
            np.testing.assert_allclose(cons.a, a, rtol=0, atol=4e-16 * np.abs(a).max())
            np.testing.assert_array_equal(cons.b, b)
            x = np.arange(cons.n ** 2, dtype=float).reshape(cons.n, cons.n)
            x = x + x.T
            np.testing.assert_allclose(cons.smat(cons.svec(x)), x, rtol=1e-15, atol=0)

    @settings(max_examples=40)
    @given(
        c1=st.floats(0.1, 0.9),
        radius=st.floats(0.1, 0.95),
        angle=st.floats(0.1, math.pi / 2 - 0.1),
        signs=st.sampled_from([(1, 1), (1, -1), (-1, 1), (-1, -1)]),
    )
    def test_two_lines_off_the_prekopa_leindler_curve(self, c1, radius, angle, signs):
        # a^2/c1 + b^2/c2 = radius^2 < 1, so Loewner holds with margin; by
        # Cauchy-Schwarz (|a| + |b|)^2 <= radius^2 < 1, so the forced
        # off-diagonal entry (1 - a^2 - b^2) / (2ab) lies beyond [-1, 1]
        c2 = 1.0 - c1
        a = signs[0] * radius * math.sqrt(c1) * math.cos(angle)
        b = signs[1] * radius * math.sqrt(c2) * math.sin(angle)
        datum = make_datum((1, 1), (1,), (c1, c2), (1.0,), [[a, b]])
        cert = check_geometric(datum, max_iter=20)
        assert cert.verdict == "not-geometric-sigma", (a, b, c1, cert.iterations)
        assert cert.sigma is None
        assert separator_verifies(datum, cert.separator.mat)

    def test_cone_iterates_never_move_away_from_the_subspace(self, monkeypatch):
        # Dykstra's invariant on the slow datum: the distance from each cone
        # iterate to the affine subspace never grows.  It is measured on the
        # oracle's constraints by least squares, not with the projector.
        datum = slow_case()
        a, b, pairs = sigma_constraints(datum)
        upper = tuple(np.array(pairs).T)
        scale = np.where(upper[0] == upper[1], 1.0, math.sqrt(2.0))
        cones, real = [], geometry._eig_map

        def spy(m, fn):
            cones.append(real(m, fn))
            return cones[-1]

        monkeypatch.setattr(geometry, "_eig_map", spy)
        res = find_sigma(datum)
        assert res.status == "found" and len(cones) == res.iterations
        dists = [float(np.linalg.norm(np.linalg.lstsq(a, a @ (c[upper] * scale) - b,
                                                      rcond=None)[0])) for c in cones]
        for before, after in zip(dists, dists[1:]):
            assert after <= before + 1e-12 * (1.0 + before)

    def test_matrix_valued_output_blocks(self):
        # R^3 split into a plane and a line: a 2x2 output block in the
        # constraint system
        datum = make_datum((3,), (2, 1), (1.0,), (1.0, 1.0), np.eye(3))
        cert = check_geometric(datum)
        assert cert.verdict == "geometric"
        np.testing.assert_allclose(cert.sigma.mat, np.eye(3), atol=1e-8)

    def test_matrix_valued_cross_blocks(self):
        # two planes interpolated into one: sigma must couple 2x2 blocks
        lam = 1 / 3
        q = np.hstack([lam * np.eye(2), (1 - lam) * np.eye(2)])
        datum = make_datum((2, 2), (2,), (lam, 1 - lam), (1.0,), q)
        cert = check_geometric(datum)
        assert cert.verdict == "geometric"
        expected = np.block([[np.eye(2), np.eye(2)], [np.eye(2), np.eye(2)]])
        np.testing.assert_allclose(cert.sigma.mat, expected, atol=1e-8)

    def test_orthogonal_equivalences_stay_geometric(self):
        # blockwise-orthogonal changes of variables preserve both geometric
        # conditions; the certificate sigma is then a rotated one
        from scipy.stats import ortho_group

        rng = np.random.default_rng(77)

        def random_orthogonal(dim):
            if dim == 1:
                return np.array([[rng.choice([-1.0, 1.0])]])
            return ortho_group.rvs(dim, random_state=rng)

        for base in (prekopa_leindler(0.3), young_frame(), loomis_whitney_2d()):
            for _ in range(5):
                transform = EquivalenceTransform(
                    tuple(random_orthogonal(d) for d in base.layout.in_dims),
                    tuple(random_orthogonal(d) for d in base.layout.out_dims),
                )
                rotated = apply_equivalence(base, transform)
                cert = check_geometric(rotated)
                assert cert.verdict == "geometric", (base.layout, cert)

    def test_slow_convergence_case(self, constraint_builds):
        # frozen random datum whose feasible point is far from the identity
        # start; the search needs a few hundred alternating projections
        res = find_sigma(slow_case())
        assert res.status == "found"
        assert len(constraint_builds) == 1
        assert res.iterations > 100
        assert max(res.residual_in, res.residual_out) <= 1e-8
        assert res.sigma_min_eig >= -1e-8


class TestIdentityStart:
    """``find_sigma`` tests its identity start before it builds the
    constraint system and returns the identity when the start meets tol."""

    @pytest.mark.parametrize("datum", [
        young_frame(), loomis_whitney_2d(), holder((0.5, 0.3, 0.2), dim=2),
        make_datum((2,) * 6, (3,) * 4, (1.0,) * 6, (1.0,) * 4,
                   random_orthogonal(np.random.default_rng(12), 12)),
    ], ids=["young-frame", "loomis-whitney-2d", "holder", "orthogonal-12"])
    def test_identity_coupled_data_build_no_constraints(self, datum, constraint_builds):
        res = find_sigma(datum)
        assert constraint_builds == []
        assert res.status == "found" and res.iterations == 0
        assert np.array_equal(res.sigma.mat, np.eye(datum.layout.dim_in))
        assert res.sigma_min_eig == 1.0
        assert max(res.residual_in, res.residual_out) <= 1e-8

    @pytest.mark.parametrize("excess, searched", [(0.9, 0), (1.1, 1)],
                             ids=["just-below-tol", "just-above-tol"])
    def test_tolerance_edge(self, excess, searched, constraint_builds):
        # scaling the first row of Q by sqrt(1 + eps) puts the identity's
        # residual_out at eps and the Loewner gap at -2 eps / 3, within -tol
        tol = 1e-8
        base = young_frame()
        q = base.q.copy()
        q[0] *= math.sqrt(1.0 + excess * tol)
        datum = make_datum(base.layout.in_dims, base.layout.out_dims, base.c, base.d, q)
        start_out = marginal_residuals(datum, np.eye(2))[1]
        assert (start_out <= tol) == (excess < 1.0)
        cert = check_geometric(datum, tol)
        assert cert.verdict == "geometric"
        # one constraint system and one projection, or neither
        assert len(constraint_builds) == cert.iterations == searched
        assert max(cert.residual_in, cert.residual_out) <= tol
        if not searched:
            assert np.array_equal(cert.sigma.mat, np.eye(2))
            assert cert.residual_out == start_out

    @settings(max_examples=60)
    @given(datum=orthogonal_data())
    def test_orthogonal_data_certify_with_the_identity(self, datum):
        cert = check_geometric(datum)
        assert cert.verdict == "geometric", (datum.layout, cert)
        assert cert.iterations == 0
        assert cert.sigma.mat.tobytes() == np.eye(datum.layout.dim_in).tobytes()


class TestCheckGeometric:
    def test_bundled_instances_geometric(self):
        for datum in (
            prekopa_leindler(0.5),
            young_frame(),
            loomis_whitney_2d(),
        ):
            cert = check_geometric(datum)
            assert cert.verdict == "geometric"
            assert cert.loewner_min_eig >= -1e-8
            assert max(cert.residual_in, cert.residual_out) <= 1e-8
            assert cert.sigma_min_eig >= -1e-8
            r_in, r_out = marginal_residuals(datum, cert.sigma.mat)
            assert max(r_in, r_out) <= 1e-8

    def test_prekopa_leindler_sigma_is_ones(self):
        cert = check_geometric(prekopa_leindler(0.5))
        np.testing.assert_allclose(cert.sigma.mat, np.ones((2, 2)), atol=1e-8)

    def test_negative_control_verdict(self):
        cert = check_geometric(negative_control())
        assert cert.verdict == "not-geometric-loewner"
        assert cert.loewner_min_eig < -1e-8

    def test_loewner_failure_skips_search(self):
        # the slow datum fails Loewner; its search would need 443 iterations
        cert = check_geometric(slow_case())
        assert cert.verdict == "not-geometric-loewner"
        assert cert.iterations == 0
        assert cert.sigma is None and cert.separator is None
        assert math.isnan(cert.residual_in) and math.isnan(cert.residual_out)

    def test_separator_verdict(self):
        datum = hard_case()
        cert = check_geometric(datum)
        assert cert.loewner_min_eig >= -1e-8
        assert cert.verdict == "not-geometric-sigma"
        assert cert.reason == "separator"
        obj = cert.to_json()
        assert obj["sigma"] is None
        assert separator_verifies(datum, obj["separator"])

    def test_loewner_ok_but_sigma_missing(self):
        datum = make_datum((1,), (1,), (1.0,), (1.0,), [[0.5]])
        cert = check_geometric(datum)
        assert cert.loewner_min_eig >= -1e-8
        assert cert.verdict == "sigma-not-found"
        assert cert.reason == "affine-infeasible"

    def test_certificate_json_schema(self):
        cert = check_geometric(young_frame())
        obj = cert.to_json()
        for key in ("verdict", "loewner_min_eig", "sigma", "separator", "residual_in",
                    "residual_out", "iterations"):
            assert key in obj
        assert obj["sigma"] == cert.sigma.mat.tolist()
        assert obj["separator"] is None


class TestAdjointContraction:
    def test_zero_vectors(self):
        res = verify_adjoint_contraction(young_frame(), [[0.0], [0.0], [0.0]])
        assert res == (0.0, 0.0, True)

    def test_young_first_basis_vector(self):
        res = verify_adjoint_contraction(young_frame(), [[1.0], [0.0], [0.0]])
        assert res.lhs == pytest.approx(4 / 9, abs=1e-14)
        assert res.rhs == pytest.approx(2 / 3, abs=1e-14)
        assert res.holds

    def test_prekopa_leindler_equality(self):
        # oracle: both sides evaluate to 1 for the unit vector at lam = 1/2
        lam = 0.5
        lhs = sum((1 / c) * (1.0 * q) ** 2 for c, q in ((lam, lam), (1 - lam, 1 - lam)))
        assert lhs == 1.0
        res = verify_adjoint_contraction(prekopa_leindler(lam), [[1.0]])
        assert res.lhs == pytest.approx(1.0, abs=1e-14)
        assert res.rhs == pytest.approx(1.0, abs=1e-14)
        assert res.holds

    def test_random_vectors_on_geometric_instances(self):
        rng = np.random.default_rng(12)
        for datum in (prekopa_leindler(0.3), young_frame(), loomis_whitney_2d()):
            for _ in range(300):
                vs = [rng.standard_normal(d) for d in datum.layout.out_dims]
                assert verify_adjoint_contraction(datum, vs).holds

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            verify_adjoint_contraction(young_frame(), [[1.0], [0.0]])


class TestTraceImplication:
    def test_zero_blocks(self):
        datum = young_frame()
        cert = check_geometric(datum)
        res = verify_trace_implication(
            datum, [np.zeros((2, 2))], [np.zeros((1, 1))] * 3, cert.sigma
        )
        assert res.hypothesis_holds and res.conclusion_holds
        assert res.lhs_trace == 0.0 and res.rhs_trace == 0.0

    def test_young_equality_case(self):
        datum = young_frame()
        cert = check_geometric(datum)
        res = verify_trace_implication(
            datum, [np.eye(2)], [np.eye(1)] * 3, cert.sigma
        )
        assert res.hypothesis_holds
        assert res.conclusion_holds
        assert res.lhs_trace == pytest.approx(2.0)
        assert res.rhs_trace == pytest.approx(2.0)

    def test_hypothesis_not_met(self):
        datum = young_frame()
        cert = check_geometric(datum)
        res = verify_trace_implication(
            datum, [2.0 * np.eye(2)], [np.eye(1)] * 3, cert.sigma
        )
        assert not res.hypothesis_holds
        assert res.conclusion_holds is None

    def test_bad_sigma_rejected(self):
        datum = young_frame()
        with pytest.raises(ValueError, match="marginal certificate"):
            verify_trace_implication(
                datum, [np.zeros((2, 2))], [np.zeros((1, 1))] * 3,
                SymMatrix(5.0 * np.eye(2)),
            )

    @pytest.mark.parametrize("nan_entries", [(0, 0), (slice(None), slice(None))],
                             ids=["one-entry", "all-entries"])
    def test_nan_sigma_has_nan_residuals_and_is_rejected(self, nan_entries):
        datum = prekopa_leindler(0.5)
        sigma = np.eye(2)
        sigma[nan_entries] = np.nan
        assert all(math.isnan(r) for r in marginal_residuals(datum, sigma))
        # SymMatrix refuses non-finite entries, so only an unchecked
        # instance carries NaN as far as the certificate guard
        unchecked = SymMatrix.__new__(SymMatrix)
        unchecked.mat = sigma
        with pytest.raises(ValueError, match="marginal certificate"):
            verify_trace_implication(datum, [np.zeros((1, 1))] * 2, [np.zeros((1, 1))], unchecked)

    def test_rejection_sampled_pairs(self):
        rng = np.random.default_rng(21)
        for datum in (prekopa_leindler(0.25), young_frame(), loomis_whitney_2d()):
            cert = check_geometric(datum)
            layout = datum.layout
            accepted = 0
            while accepted < 100:
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
                assert res.conclusion_holds, res
