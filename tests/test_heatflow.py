import math
import os
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal

from frbl import heatflow
from frbl.datum import make_datum
from frbl.gaussian import CenteredGaussian, heat_evolve
from frbl.heatflow import (
    GridFunction,
    PreservationPreconditionError,
    default_integration_box,
    extract_constant,
    grid_from_json,
    grid_to_json,
    heat_step,
    monotone_functional,
    verify_preservation,
)
from frbl.instances import loomis_whitney_2d, prekopa_leindler, young_frame
from frbl.linalg import SymMatrix

from _oracles import (_dense_sides, dense_interpolate, dense_verify_preservation, discrete_mass,
                      fft_convolve_same, fft_heat_step, sample_grid, standard_gaussian)

I1 = SymMatrix([[1.0]])


def gaussian_grid(half=6.0, n=201, form=1.0):
    return sample_grid(lambda p: np.exp(-form * p[:, 0] ** 2), [-half], [half], [n])


def bump_1d(width=3.0, center=0.0, half=12.0, n=201):
    def fn(p):
        u = (p[:, 0] - center) / width
        return np.clip(1.0 - u * u, 0.0, None) ** 2

    return sample_grid(fn, [-half], [half], [n])


def young_bump_inputs(shrink=0.95, half=4.0, n=161):
    """g bumps plus an f grid built from the multilinear interpolant that the
    defect scan uses, scaled down so the time-zero relation holds with margin."""
    datum = young_frame()
    g_grids = [bump_1d() for _ in range(3)]
    axes = [np.linspace(-half, half, n)] * 2
    mesh = np.meshgrid(*axes, indexing="ij")
    nodes = np.stack([m.ravel() for m in mesh], axis=1)
    vals = np.ones(len(nodes))
    for j in range(3):
        vals *= dense_interpolate(g_grids[j], nodes @ datum.out_row(j).T) ** float(datum.d[j])
    f_grid = GridFunction([-half] * 2, [half] * 2, [n] * 2, (shrink * vals).reshape(n, n))
    return datum, [f_grid], g_grids


class TestGridFunction:
    def test_validation(self):
        with pytest.raises(ValueError, match="nonnegative"):
            GridFunction([-1.0], [1.0], [3], np.array([1.0, -0.5, 0.0]))
        with pytest.raises(ValueError, match="shape"):
            GridFunction([-1.0], [1.0], [3], np.zeros(4))
        with pytest.raises(ValueError, match="axes"):
            GridFunction([-1.0] * 3, [1.0] * 3, [3] * 3, np.zeros((3, 3, 3)))

    def test_spacing(self):
        g = GridFunction([-1.0], [1.0], [5], np.zeros(5))
        assert g.spacing == (0.5,)
        assert g.cell_volume == 0.5

    def test_interpolation_1d(self):
        g = GridFunction([0.0], [2.0], [3], np.array([0.0, 1.0, 4.0]))
        np.testing.assert_allclose(g.interpolate([[0.5], [1.5]]), [0.5, 2.5])

    def test_interpolation_2d_matches_bilinear(self):
        vals = np.array([[1.0, 2.0], [3.0, 5.0]])
        g = GridFunction([0.0, 0.0], [1.0, 1.0], [2, 2], vals)
        assert g.interpolate([[0.5, 0.5]])[0] == pytest.approx(2.75)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_eps_band_matches_dense_interpolant_bit_for_bit(self, dim):
        # a bump that is 0 at the box edges, sampled at in-box points and at
        # points up to _BOUND_EPS outside, where the cell fraction leaves [0, 1]
        lo, hi, n = [-1.5, -2.0][:dim], [1.5, 1.0][:dim], [13, 10][:dim]
        g = sample_grid(lambda p: np.prod(np.clip(1.0 - p**2, 0.0, None), axis=1), lo, hi, n)
        assert g.values.min() == 0.0
        rng = np.random.default_rng(7)
        lo, hi = np.array(lo), np.array(hi)
        eps = heatflow._BOUND_EPS * (hi - lo)
        edge = np.where(rng.random((200, dim)) < 0.5, lo, hi)
        band = edge + rng.uniform(-1.0, 1.0, (200, dim)) * eps
        pts = np.concatenate([rng.uniform(lo, hi, (200, dim)), band, [lo - 0.9 * eps, hi + 0.9 * eps]])
        assert not ((pts >= lo) & (pts <= hi)).all()
        got = g.interpolate(pts)  # reads every point: each lies in the eps band or inside
        np.testing.assert_array_equal(got, dense_interpolate(g, pts))
        assert (got == 0.0).sum() > 50 and not np.signbit(got).any()

    def test_interpolation_out_of_range(self):
        g = GridFunction([0.0], [1.0], [2], np.zeros(2))
        with pytest.raises(ValueError, match="outside"):
            g.interpolate([[1.5]])
        # the eps band of the scan, scaled by the axis extent (8 here)
        g = GridFunction([-2.0], [6.0], [5], np.ones(5))
        band = heatflow._BOUND_EPS * 8.0
        np.testing.assert_array_equal(g.interpolate([[6.0 + 0.9 * band], [-2.0 - 0.9 * band]]),
                                      [1.0, 1.0])
        for x in (6.0 + 1.1 * band, -2.0 - 1.1 * band):
            with pytest.raises(ValueError, match="outside"):
                g.interpolate([[x]])

    def test_json_roundtrip(self):
        g = sample_grid(
            lambda p: np.exp(-p[:, 0] ** 2 - p[:, 1] ** 2), [-1, -1], [1, 1], [4, 5]
        )
        back = grid_from_json(grid_to_json(g))
        np.testing.assert_array_equal(back.values, g.values)
        assert back.lo == g.lo and back.n == g.n

    @pytest.mark.parametrize("values", [["1.5", "2"], [None, 1.0]])
    def test_json_values_must_be_numbers(self, values):
        # np.asarray(values, dtype=float) would read both as numbers, null as NaN
        with pytest.raises(ValueError, match="must hold numbers only"):
            grid_from_json({"lo": [0.0], "hi": [1.0], "n": [2], "values": values})

    @pytest.mark.parametrize("dim", [1, 2])
    def test_stencil_base_is_the_flat_lower_corner(self, dim):
        # random points, the top corner (in the last cell) and points 0.9
        # eps-band widths outside each edge of each axis
        lo, hi, n = np.array([-1.5, -2.0][:dim]), np.array([1.5, 1.0][:dim]), (1001, 997)[:dim]
        grid = GridFunction(lo, hi, n, np.zeros(n))
        eps = heatflow._BOUND_EPS * (hi - lo)
        rng = np.random.default_rng(3)
        pts = [rng.uniform(lo, hi, (500, dim)), [hi], [lo - 0.9 * eps], [hi + 0.9 * eps]]
        for ax in range(dim):
            for edge in (lo[ax] - 0.9 * eps[ax], hi[ax] + 0.9 * eps[ax]):
                edge_pts = rng.uniform(lo, hi, (20, dim))
                edge_pts[:, ax] = edge
                pts.append(edge_pts)
        pts = np.concatenate(pts)
        stencil = heatflow._Stencil(grid, len(pts))
        mask, flag = np.ones((2, len(pts)), dtype=bool)
        stencil.inside(pts, mask, flag)
        assert mask.all()
        stencil.fill(pts, np.empty(len(pts)))
        corner = np.clip(np.floor((pts - lo) / np.array(grid.spacing)), 0, np.array(n) - 2)
        want = np.ravel_multi_index(tuple(corner.astype(int).T), n)
        np.testing.assert_array_equal(stencil.base, want)
        assert want[500] == np.ravel_multi_index(tuple(np.array(n) - 2), n)  # the last cell


class TestHeatStep:
    def test_invalid_weights(self):
        g = gaussian_grid(n=41)
        with pytest.raises(ValueError, match="does not match"):
            heat_step(g, 0.1, SymMatrix(np.eye(2)))
        with pytest.raises(ValueError, match="positive definite"):
            heat_step(g, 0.1, SymMatrix([[1e-13]]))

    def test_preserves_constant_one(self):
        ones = sample_grid(lambda p: np.ones(len(p)), [-10], [10], [401])
        ev = heat_step(ones, 0.5, I1)
        x = ones.axes()[0]
        r_cut = 8.0 * math.sqrt(2.0 * 0.5)
        interior = np.abs(x) <= 10.0 - r_cut
        assert np.abs(ev.values[interior] - 1.0).max() <= 1e-6

    def test_quarter_time_unit_case(self):
        g = gaussian_grid(half=8.0, n=321)
        ev = heat_step(g, 0.25, I1)
        x = g.axes()[0]
        closed = (1.0 / math.sqrt(2.0)) * np.exp(-(x**2) / 2.0)
        mask = closed >= 1e-6 * closed.max()
        rel = np.abs(ev.values - closed)[mask] / closed[mask]
        assert rel.max() <= 1e-6

    # at t = 100 the grid holds only part of the truncated kernel
    @pytest.mark.parametrize("t", [0.1, 1.0, 100.0])
    def test_matches_gaussian_closed_form(self, t):
        g = gaussian_grid(half=8.0, n=321)
        ev = heat_step(g, t, I1)
        cg = heat_evolve(standard_gaussian(1), t)
        x = g.axes()[0]
        closed = np.exp(cg.log_prefactor - cg.form.mat[0, 0] * x**2)
        mask = closed >= 1e-6 * closed.max()
        rel = np.abs(ev.values - closed)[mask] / closed[mask]
        assert rel.max() <= 1e-6

    @pytest.mark.parametrize("t", [0.1, 1.0, 10.0])
    def test_matches_closed_form_2d_anisotropic(self, t):
        weight = SymMatrix([[1.2, 0.3], [0.3, 0.8]])
        form = SymMatrix([[0.9, -0.2], [-0.2, 1.4]])
        grid = sample_grid(
            lambda p: np.exp(-np.einsum("ni,ij,nj->n", p, form.mat, p)),
            [-9, -9], [9, 9], [181, 181],
        )
        ev = heat_step(grid, t, weight)
        cg = heat_evolve(CenteredGaussian(form), t, weight)
        nodes = np.stack([m.ravel() for m in np.meshgrid(*grid.axes(), indexing="ij")], axis=1)
        closed = np.exp(
            cg.log_prefactor - np.einsum("ni,ij,nj->n", nodes, cg.form.mat, nodes)
        ).reshape(grid.n)
        mask = closed >= 1e-6 * closed.max()
        rel = np.abs(ev.values - closed)[mask] / closed[mask]
        assert rel.max() <= 1e-6

    def test_mass_conservation(self):
        bump = bump_1d(width=2.0, half=8.0, n=321)
        ev = heat_step(bump, 0.5, I1)
        assert discrete_mass(ev) == pytest.approx(discrete_mass(bump), rel=1e-6)

    def test_narrow_kernel_collapses_to_identity(self):
        # at t = 1e-300 the kernel is one node of weight 1, not h / sqrt(4 pi t)
        g = gaussian_grid(half=10.0, n=101)
        ev = heat_step(g, 1e-300)
        np.testing.assert_allclose(ev.values, g.values, rtol=0, atol=1e-15)

    @settings(max_examples=40)
    @given(data=st.data())
    def test_keeps_discrete_mass(self, data):
        # a Gaussian bump whose tails, widened by the kernel's truncation
        # radius, stay inside a grid of one or two axes
        t = data.draw(st.sampled_from([1e-300, 1e-6, 1e-3]) | st.floats(1e-3, 0.5), label="t")
        r_cut = heatflow.KERNEL_CUT_SIGMAS * math.sqrt(2.0 * t)
        lo, hi, n, centres, widths = [], [], [], [], []
        for _ in range(data.draw(st.integers(1, 2), label="dim")):
            h = data.draw(st.floats(0.1, 0.5), label="spacing")
            centres.append(data.draw(st.floats(-1.0, 1.0), label="centre"))
            widths.append(data.draw(st.floats(0.5, 1.5), label="width"))
            half = abs(centres[-1]) + 7.0 * widths[-1] + r_cut + h
            lo.append(-half)
            hi.append(half)
            n.append(math.ceil(2.0 * half / h) + 1)
        f = sample_grid(
            lambda p: np.exp(-np.sum(((p - centres) / widths) ** 2, axis=1)), lo, hi, n)
        assert discrete_mass(heat_step(f, t)) == pytest.approx(discrete_mass(f), rel=1e-13)

    def test_maximum_principle(self):
        bump = bump_1d(width=2.0, half=8.0, n=321)
        for t in (0.1, 0.5, 2.0):
            ev = heat_step(bump, t, I1)
            assert ev.values.max() <= bump.values.max() + 1e-9

    def test_truncation_radius_guard(self):
        g = gaussian_grid(half=6.0, n=201)
        with pytest.raises(ValueError, match="truncation radius"):
            heat_step(g, 1e4, I1)

    def test_invalid_time(self):
        g = gaussian_grid()
        with pytest.raises(ValueError, match="positive"):
            heat_step(g, 0.0, I1)
        with pytest.raises(ValueError, match="must be positive, got nan"):
            heat_step(g, math.nan)

    @pytest.mark.parametrize("t", [0.1, 0.5, 1.0])
    @pytest.mark.parametrize("diag", [(1.0, 1.0), (1.2, 0.8)])
    def test_per_axis_matches_full_kernel(self, t, diag):
        # a diagonal weight convolves axis by axis; the full 2-D kernel of
        # the same weight and truncation must give the same samples
        grid = sample_grid(lambda p: np.exp(-p[:, 0] ** 2 - 0.5 * p[:, 1] ** 2),
                           [-6, -6], [6, 6], [201, 201])
        # the kernel is normalised over the truncation radius, then cut to the grid
        h = grid.spacing
        reach = [math.ceil(8 * math.sqrt(2 * t * max(diag)) / hx) for hx in h]
        z1, z2 = np.meshgrid(*[np.arange(-r, r + 1) * hx for r, hx in zip(reach, h)], indexing="ij")
        kernel = np.exp(-(z1**2 / diag[0] + z2**2 / diag[1]) / (4 * t))
        kernel /= kernel.sum()
        m = [min(cnt - 1, r) for r, cnt in zip(reach, grid.n)]
        kernel = kernel[reach[0] - m[0]:reach[0] + m[0] + 1, reach[1] - m[1]:reach[1] + m[1] + 1]
        full = np.clip(signal.convolve(grid.values, kernel, mode="same", method="fft"), 0, None)
        ev = heat_step(grid, t, SymMatrix(np.diag(diag)))
        assert np.abs(ev.values - full).max() <= 1e-15 * full.max()

    def test_one_axis_is_one_convolution(self):
        g = gaussian_grid(half=6.0, n=201)
        t = 0.3
        h = g.spacing[0]
        m = min(g.n[0] - 1, math.ceil(8 * math.sqrt(2 * t) / h))
        offs = np.arange(-m, m + 1) * h
        kern = np.exp(-(offs**2) / (4 * t))
        kern /= kern.sum()
        want = np.clip(signal.convolve(g.values, kern, mode="same", method="auto"), 0, None)
        np.testing.assert_array_equal(heat_step(g, t, I1).values, want)

    def test_fast_len_is_next_five_smooth(self):
        def smooth(m):
            for p in (2, 3, 5):
                while m % p == 0:
                    m //= p
            return m == 1

        want = [next(m for m in range(n, 2 * n + 1) if smooth(m)) for n in range(1, 5001)]
        assert [heatflow._fast_len(n) for n in range(1, 5001)] == want

    @pytest.mark.parametrize("t", [0.1, 0.5, 1.0])
    @pytest.mark.parametrize("n", [(401, 401), (33601,)])
    def test_identity_weight_is_per_axis_fftconvolve(self, t, n):
        half = [4.0] * len(n)
        grid = sample_grid(lambda p: np.exp(-np.sum(p**2, axis=1)),
                           [-x for x in half], half, n)
        want = grid.values
        for ax, (hx, cnt) in enumerate(zip(grid.spacing, grid.n)):
            reach = math.ceil(8 * math.sqrt(2 * t) / hx)
            m = min(cnt - 1, reach)
            kern = np.exp(-((np.arange(-reach, reach + 1) * hx) ** 2) / (4 * t))
            kern = kern[reach - m:reach + m + 1] / kern.sum()
            shape = [1] * len(n)
            shape[ax] = kern.size
            want = signal.fftconvolve(want, kern.reshape(shape), mode="same")
        weight = SymMatrix(np.eye(len(n)))
        np.testing.assert_array_equal(heat_step(grid, t, weight).values, np.clip(want, 0, None))

    @pytest.mark.parametrize("t", [0.1, 0.5, 1.0])
    def test_non_diagonal_weight_is_full_fftconvolve(self, t):
        w = np.array([[1.0, 0.3], [0.3, 0.8]])
        grid = sample_grid(lambda p: np.exp(-p[:, 0] ** 2 - 0.5 * p[:, 1] ** 2),
                           [-6, -6], [6, 6], [201, 161])
        h = grid.spacing
        r_cut = 8 * math.sqrt(2 * t * np.linalg.eigvalsh(w)[-1])
        reach = [math.ceil(r_cut / hx) for hx in h]
        z1, z2 = np.meshgrid(*[np.arange(-r, r + 1) * hx for r, hx in zip(reach, h)], indexing="ij")
        w_inv = np.linalg.inv(w)
        quad = w_inv[0, 0] * z1**2 + 2 * w_inv[0, 1] * z1 * z2 + w_inv[1, 1] * z2**2
        kernel = np.exp(-quad / (4 * t))
        kernel /= kernel.sum()
        m = [min(cnt - 1, r) for r, cnt in zip(reach, grid.n)]
        kernel = kernel[reach[0] - m[0]:reach[0] + m[0] + 1, reach[1] - m[1]:reach[1] + m[1] + 1]
        want = np.clip(signal.fftconvolve(grid.values, kernel, mode="same"), 0, None)
        ev = heat_step(grid, t, SymMatrix(w))
        assert np.abs(ev.values - want).max() <= 1e-15 * want.max()

    def test_fft_equals_direct_quadrature(self):
        # the fft path is plain zero-padded linear convolution, not a
        # periodic method; on a small grid it must match the direct sum
        g = gaussian_grid(half=4.0, n=41)
        ev = heat_step(g, 0.3, I1)
        h = g.spacing[0]
        m = min(g.n[0] - 1, int(math.ceil(8 * math.sqrt(2 * 0.3) / h)))
        offs = np.arange(-m, m + 1) * h
        kern = np.exp(-(offs**2) / (4 * 0.3))
        kern /= kern.sum()
        direct = signal.convolve(g.values, kern, mode="same", method="direct")
        np.testing.assert_allclose(ev.values, np.clip(direct, 0, None), atol=1e-12)


class TestHeatStepBlocks:
    """A 2-D grid is convolved along each axis in blocks of lines of the
    other axis, every other block on a worker thread where two CPUs are
    available: bit for bit one whole-array FFT per axis, on one CPU or two.
    ``SCAN_CHUNK`` is set to give 1, 2 or 3 blocks, or one block longer
    than the grid ("short").  The module's ``np.empty`` returns NaN here, so
    a block left unwritten shows."""

    class _NanEmpty:
        """numpy, but ``empty`` fills with NaN."""

        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def empty(shape):
            return np.full(shape, np.nan)

    @pytest.fixture(autouse=True)
    def block_counts(self, monkeypatch):
        monkeypatch.setattr(heatflow, "np", self._NanEmpty())
        calls, on_threads = [], heatflow._on_threads

        def spy(task, count, threads):
            calls.append((count, threads))
            return on_threads(task, count, threads)

        monkeypatch.setattr(heatflow, "_on_threads", spy)
        return calls

    @staticmethod
    def _set_lines(monkeypatch, length, n_lines, blocks):
        lines = n_lines + 5 if blocks == "short" else -(-n_lines // blocks)
        monkeypatch.setattr(heatflow, "SCAN_CHUNK", length * lines)
        return 1 if blocks == "short" else blocks

    @pytest.mark.parametrize("blocks", [1, 2, 3, "short"])
    @pytest.mark.parametrize("ax", [0, 1])
    def test_convolve_same_matches_whole_array_fft(self, ax, blocks, block_counts, monkeypatch):
        rng = np.random.default_rng(11)
        x, kernel = rng.random((37, 23)), rng.random(15)
        length = heatflow._fast_len(x.shape[ax] + kernel.size - 1)
        count = self._set_lines(monkeypatch, length, x.shape[1 - ax], blocks)
        want = fft_convolve_same(x, kernel, ax)
        for cpus in (1, 2):
            _use_cpus(monkeypatch, cpus)
            np.testing.assert_array_equal(heatflow._convolve_axis(x, kernel, ax), want)
        assert block_counts == [(count, 1), (count, min(2, count))]

    @pytest.mark.parametrize("blocks", [1, 2, 3, "short"])
    def test_heat_step_matches_whole_array_fft(self, blocks, block_counts, monkeypatch):
        # h = 0.2 and t = 0.1: 18 offsets each side, 41 + 37 - 1 -> 80 points
        grid = sample_grid(lambda p: np.exp(-p[:, 0] ** 2 - 0.5 * p[:, 1] ** 2 + 0.3 * p[:, 0]),
                           [-4.0, -4.0], [4.0, 4.0], [41, 41])
        count = self._set_lines(monkeypatch, 80, 41, blocks)
        want = fft_heat_step(grid, 0.1)
        for cpus in (1, 2):
            _use_cpus(monkeypatch, cpus)
            np.testing.assert_array_equal(heat_step(grid, 0.1).values, want)
        assert block_counts == [(count, 1)] * 2 + [(count, min(2, count))] * 2

    def test_overflow_in_the_workers_block_raises_on_the_caller(self, monkeypatch):
        # six blocks of 7 columns for the first axis: columns 7-13 are block
        # 1, the worker's, and only they overflow
        _use_cpus(monkeypatch, 2)
        self._set_lines(monkeypatch, 80, 41, 6)
        values = np.ones((41, 41))
        values[:, 7:14] = 1.7e308
        grid = GridFunction([-4.0, -4.0], [4.0, 4.0], [41, 41], values)
        seen, rfft = [], np.fft.rfft

        def spy(a, *args):
            seen.append((threading.get_ident(), bool(np.max(a) > 1e300)))
            return rfft(a, *args)

        monkeypatch.setattr(np.fft, "rfft", spy)
        threads = threading.active_count()
        with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
            heat_step(grid, 0.1)
        assert threading.active_count() == threads  # the worker joined
        assert {ident for ident, big in seen if big} == {ident for ident, _ in seen} - {
            threading.get_ident()}


class TestVerifyPreservation:
    def test_prekopa_leindler_gaussian_case(self):
        datum = prekopa_leindler(0.5)
        g = gaussian_grid()
        field = verify_preservation(datum, [g, g], [g], [0.1, 0.5, 1.0], tol=1e-4)
        assert field.holds
        for md, th in zip(field.min_defect, field.thresholds):
            assert md >= -th

    def test_young_frame_bumps(self):
        datum, f_grids, g_grids = young_bump_inputs()
        field = verify_preservation(datum, f_grids, g_grids, [0.1, 0.5, 1.0], tol=1e-4)
        assert field.holds

    def test_time_zero_violation_reports_nodes(self):
        datum = prekopa_leindler(0.5)
        g = gaussian_grid()
        values = g.values.copy()
        values[100] *= 3.0  # x = 0, where the relation was tight
        broken = GridFunction(g.lo, g.hi, g.n, values)
        with pytest.raises(PreservationPreconditionError) as err:
            verify_preservation(datum, [broken, g], [g], [0.1], tol=1e-4)
        assert len(err.value.nodes) >= 1
        coords = {tuple(round(c, 9) for c in xyz) for xyz, _ in err.value.nodes}
        assert (0.0, 0.0) in coords

    def test_precondition_message_prints_plain_floats(self):
        datum = prekopa_leindler(0.5)
        g = gaussian_grid()
        broken = GridFunction(g.lo, g.hi, g.n, 2.0 * g.values)
        with pytest.raises(PreservationPreconditionError) as err:
            verify_preservation(datum, [broken, g], [g], [0.1], tol=1e-4)
        assert "np.float64" not in str(err.value)
        assert "x=(-" in str(err.value)

    def test_exterior_projections_are_skipped(self):
        # narrow g grids on the same 0.12-spaced lattice as the wide ones,
        # so the time-zero interpolants agree where they overlap
        datum, f_grids, _ = young_bump_inputs()
        narrow = [bump_1d(width=3.0, half=4.44, n=75) for _ in range(3)]
        field = verify_preservation(datum, f_grids, narrow, [0.1], tol=1e-4)
        assert field.nodes_evaluated < f_grids[0].values.size

    def test_all_projections_exterior_raises(self):
        # g grids sitting entirely outside the reachable projection range
        datum, f_grids, _ = young_bump_inputs()
        offside = [GridFunction([8.0], [9.0], [21], np.ones(21)) for _ in range(3)]
        with pytest.raises(ValueError, match="widen"):
            verify_preservation(datum, f_grids, offside, [0.1], tol=1e-4)

    def test_csv_rows(self):
        datum = prekopa_leindler(0.5)
        g = gaussian_grid(n=101)
        field = verify_preservation(datum, [g, g], [g], [0.0, 0.1], tol=1e-4)
        rows = field.csv_rows()
        assert rows[0] == ["t", "min_defect", "argmin_x1", "argmin_x2"]
        assert len(rows) == 3

    def test_delta_shift_regularization(self):
        datum = prekopa_leindler(0.5)
        g = gaussian_grid(n=101)
        field = verify_preservation(datum, [g, g], [g], [0.1], tol=1e-4, shift=0.05)
        assert field.holds  # lifting only the g side can only help


@pytest.mark.parametrize("scan, times, shift, message", [
    ("verify", [0.1, -1.0], 0.0, "times must be nonnegative, got -1.0"),
    ("verify", [0.1], math.nan, "shift must be finite, got nan"),
    ("verify", [0.1], -math.inf, "shift must be finite, got -inf"),
    ("monotone", [0.0, 0.5, -1.0], None, "times must be nonnegative, got -1.0"),
    ("monotone", [0.5, math.nan], None, "times must be nonnegative, got nan"),
], ids=["negative-time", "nan-shift", "inf-shift", "monotone-negative-time", "monotone-nan-time"])
def test_scan_arguments_are_checked_before_any_heat_step(scan, times, shift, message, monkeypatch):
    monkeypatch.setattr(heatflow, "heat_step", lambda *args: pytest.fail("a heat step ran"))
    g = gaussian_grid(n=101)
    with pytest.raises(ValueError, match=f"^{message}$"):
        if scan == "verify":
            verify_preservation(prekopa_leindler(0.5), [g, g], [g], times, shift=shift)
        else:
            monotone_functional(young_frame(), [g] * 3, times)


class TestMonotoneFunctional:
    def test_requires_single_unit_weight_input(self):
        datum = prekopa_leindler(0.5)
        with pytest.raises(ValueError, match="k == 1"):
            monotone_functional(datum, [bump_1d()], [0.0, 1.0])

    def test_product_datum_is_constant(self):
        datum = loomis_whitney_2d()
        grids = [
            sample_grid(
                lambda p: (np.abs(p[:, 0]) <= 2.0).astype(float), [-10], [10], [501]
            )
            for _ in range(2)
        ]
        box = ((-10.0, -10.0), (10.0, 10.0), (501, 501))
        series = monotone_functional(datum, grids, [0.0, 0.3, 1.0], box=box)
        expected = discrete_mass(grids[0]) * discrete_mass(grids[1])
        for _, q in series:
            assert q == pytest.approx(expected, rel=1e-6)

    def test_young_frame_is_nondecreasing(self):
        datum = young_frame()
        grids = [bump_1d(width=2.0, center=c, half=15.0, n=601) for c in (1.0, -0.5, 0.3)]
        series = monotone_functional(datum, grids, [0.0, 0.25, 0.5, 1.0, 2.0])
        values = [q for _, q in series]
        assert all(b >= a * (1 - 1e-5) for a, b in zip(values, values[1:]))
        assert values[-1] > values[0]

    def test_zero_inputs_give_zero(self):
        datum = loomis_whitney_2d()
        zero = GridFunction([-5.0], [5.0], [51], np.zeros(51))
        series = monotone_functional(datum, [zero, zero], [0.0, 0.5])
        assert all(q == 0.0 for _, q in series)

    def test_default_box_stays_inside(self):
        datum = young_frame()
        grids = [bump_1d(half=15.0, n=301) for _ in range(3)]
        lo, hi, n = default_integration_box(datum, grids)
        assert len(lo) == 2 and len(hi) == 2 and len(n) == 2
        # corners of the default box must project inside every grid
        corners = np.array([[lo[0], lo[1]], [lo[0], hi[1]], [hi[0], lo[1]], [hi[0], hi[1]]])
        for j in range(3):
            grids[j].interpolate(corners @ datum.out_row(j).T)  # raises outside the grid box

    def test_matches_interpolation_reference_bit_for_bit(self):
        datum = young_frame()
        grids = [bump_1d(width=2.0, center=c, half=15.0, n=301) for c in (1.0, -0.5, 0.3)]
        times = [0.0, 0.25, 1.0]
        box = _default_box(datum, grids, 61)
        assert monotone_functional(datum, grids, times, box=box) == _dense_monotone(
            datum, grids, times, box)

    def test_chunked_sum_matches_dense_reference(self, monkeypatch):
        datum = young_frame()
        grids = [bump_1d(width=2.0, center=c, half=15.0, n=301) for c in (1.0, -0.5, 0.3)]
        times = [0.0, 0.25, 1.0]
        box = _default_box(datum, grids, 241)
        assert math.prod(box[2]) > 1.5 * heatflow.SCAN_CHUNK
        expected = _dense_monotone(datum, grids, times, box)
        got = monotone_functional(datum, grids, times, box=box)
        assert [t for t, _ in got] == times
        for (_, q), (_, want) in zip(got, expected, strict=True):
            assert q == pytest.approx(want, rel=1e-13, abs=0.0)
        monkeypatch.setattr(heatflow, "SCAN_CHUNK", math.prod(box[2]) + 1)
        assert monotone_functional(datum, grids, times, box=box) == expected

    def test_large_box_memory_is_bounded(self):
        # a 1001^2 box: the whole-box stencils alone would take over 100 MB
        datum = young_frame()
        grids = [bump_1d(width=2.0, center=c, half=15.0, n=601) for c in (1.0, -0.5, 0.3)]
        box = _default_box(datum, grids, 1001)
        monotone_functional(datum, grids, [0.0, 0.5, 1.0], box=box)
        tracemalloc.start()
        try:
            series = monotone_functional(datum, grids, [0.0, 0.5, 1.0], box=box)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(series) == 3 and series[-1][1] > series[0][1] > 0.0
        assert peak <= 16 * 2**20

    def test_box_beyond_a_grid_raises(self):
        datum = loomis_whitney_2d()
        grids = [gaussian_grid(half=5.0, n=51)] * 2
        with pytest.raises(ValueError, match="outside the grid box"):
            monotone_functional(datum, grids, [0.0], box=((-6.0, -1.0), (1.0, 1.0), (5, 5)))

    def test_grid_axes_must_match_factor_dims(self):
        # a two-axis g grid on a one-dimensional output factor
        datum = loomis_whitney_2d()
        plane = GridFunction([-5.0, -5.0], [5.0, 5.0], [11, 11], np.ones((11, 11)))
        with pytest.raises(ValueError, match="grid axis counts"):
            monotone_functional(datum, [plane, gaussian_grid()], [0.0])


def _default_box(datum, grids, n):
    """The default integration box with ``n`` samples per axis."""
    lo, hi, _ = default_integration_box(datum, grids)
    return lo, hi, (n,) * len(lo)


def _dense_monotone(datum, grids, times, box):
    """The monotone functional over the whole box at once: the product of
    multilinear interpolant powers, in factor order, times the cell volume."""
    lo, hi, n = box
    nodes = np.stack([m.ravel() for m in np.meshgrid(
        *[np.linspace(a, b, c) for a, b, c in zip(lo, hi, n)], indexing="ij")], axis=1)
    cell = float(np.prod([(b - a) / (c - 1) for a, b, c in zip(lo, hi, n)]))
    expected = []
    for t in times:
        evolved = grids if t == 0.0 else [heat_step(g, t, I1) for g in grids]
        prod = np.ones(len(nodes))
        for j, g in enumerate(evolved):
            prod *= dense_interpolate(g, nodes @ datum.out_row(j).T) ** float(datum.d[j])
        expected.append((t, cell * float(np.sum(prod))))
    return expected


class TestExtractConstant:
    def test_prekopa_leindler_approaches_one(self):
        datum = prekopa_leindler(0.5)
        g = gaussian_grid()
        ratio = extract_constant(datum, [g, g], [g], 1e3)
        assert ratio == pytest.approx(1.0, abs=5e-3)

    def test_scaling_down_f_scales_the_ratio(self):
        datum = prekopa_leindler(0.5)
        g = gaussian_grid()
        base = extract_constant(datum, [g, g], [g], 1e3)
        half = GridFunction(g.lo, g.hi, g.n, 0.5 * g.values)
        scaled = extract_constant(datum, [half, g], [g], 1e3)
        assert scaled == pytest.approx(base * 0.5**0.5, rel=1e-9)
        assert scaled < 1.0

    def test_scaling_up_g_halves_the_ratio(self):
        datum = prekopa_leindler(0.5)
        g = gaussian_grid()
        base = extract_constant(datum, [g, g], [g], 1e3)
        double = GridFunction(g.lo, g.hi, g.n, 2.0 * g.values)
        assert extract_constant(datum, [g, g], [double], 1e3) == pytest.approx(
            base / 2.0, rel=1e-9
        )

    def test_zero_function_reports_underflow(self):
        datum = prekopa_leindler(0.5)
        g = gaussian_grid(n=101)
        zero = GridFunction(g.lo, g.hi, g.n, np.zeros(g.n))
        with pytest.raises(ValueError, match="underflow"):
            extract_constant(datum, [zero, g], [g], 1e3)

    @pytest.mark.parametrize("t", [0.0, -1.0, math.nan])
    def test_time_that_is_not_positive_is_named(self, t):
        g = gaussian_grid(n=101)
        with pytest.raises(ValueError, match=f"must be positive, got {t}"):
            extract_constant(prekopa_leindler(0.5), [g, g], [g], t)


def line3_inputs(n=21, g_half=12.0, g_points=481):
    """Three one-axis factors into one line, ``f_i = exp(l_i - x^2)`` and
    ``g = exp(m - y^2)`` with ``sum c_i l_i = m``: the relation holds by
    Jensen's inequality, with equality on the diagonal."""
    lam = np.array([0.5, 0.3, 0.2])
    datum = make_datum((1, 1, 1), (1,), lam, (1.0,), [lam])
    f_grids = [sample_grid(lambda p, li=li: np.exp(li - p[:, 0] ** 2), [-6.0], [6.0], [n])
               for li in (0.1, -0.2, 0.3)]
    m = float(lam @ [0.1, -0.2, 0.3])
    g = sample_grid(lambda p: np.exp(m - p[:, 0] ** 2), [-g_half], [g_half], [g_points])
    return datum, f_grids, [g]


def rotated_plane_inputs(theta=0.3):
    """One two-axis factor into one rotated two-axis factor, ``c = d = 1``:
    ``f = 0.9 g(Q x)`` on a square box whose corners ``Q`` turns out of the
    g box, and g on a box of other counts per axis."""
    q = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    datum = make_datum((2,), (2,), (1.0,), (1.0,), q)

    def g_fn(y):
        return np.exp(-0.5 * y[:, 0] ** 2 - y[:, 1] ** 2)

    f_grid = sample_grid(lambda p: 0.9 * g_fn(p @ q.T), [-4.0] * 2, [4.0] * 2, [33, 37])
    return datum, [f_grid], [sample_grid(g_fn, [-4.8, -5.2], [4.8, 5.2], [49, 53])]


def line_plane_inputs():
    """A line and a plane into one line, ``c = (0.5, 0.25)``: the last f
    factor has two axes and the first one value per row of the scan.  The
    f peaks meet at the origin, where the f side is 1, the g side's value;
    the g grid on [-2, 2] leaves out nodes that project beyond it."""
    datum = make_datum((1, 2), (1,), (0.5, 0.25), (1.0,), [[0.5, 0.3, 0.2]])
    line = sample_grid(lambda p: np.exp(-p[:, 0] ** 2), [-3.0], [3.0], [13])
    plane = sample_grid(lambda p: np.exp(-np.sum(p**2, axis=1)), [-3.0] * 2, [3.0] * 2, [11, 9])
    return datum, [line, plane], [GridFunction([-2.0], [2.0], [41], np.ones(41))]


def _equivalence_cases():
    g = gaussian_grid(n=101)
    young, young_f, _ = young_bump_inputs(n=61)
    narrow = [bump_1d(width=3.0, half=4.44, n=75) for _ in range(3)]
    return {
        "prekopa-leindler": (prekopa_leindler(0.5), [g, g], [g]),
        "young-narrow": (young, young_f, narrow),
        "line3": line3_inputs(),
        "line3-narrow": line3_inputs(g_half=3.0, g_points=121),
        "line-plane-narrow": line_plane_inputs(),
        "rotated-plane-narrow": rotated_plane_inputs(),
    }


class TestChunkedScan:
    """The chunked scan against the whole-grid oracle, with chunks that split rows."""

    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr(heatflow, "SCAN_CHUNK", 97)

    @pytest.mark.parametrize("case", sorted(_equivalence_cases()))
    def test_matches_dense_scan(self, case):
        datum, f_grids, g_grids = _equivalence_cases()[case]
        times = [0.0, 0.1, 0.5]
        got = verify_preservation(datum, f_grids, g_grids, times, collect_fields=True)
        want = dense_verify_preservation(datum, f_grids, g_grids, times, collect_fields=True)
        n_total = math.prod(fg.values.size for fg in f_grids)
        assert heatflow.SCAN_CHUNK < got.nodes_evaluated <= n_total
        assert (got.nodes_evaluated < n_total) == case.endswith("narrow")
        for name in ("times", "min_defect", "argmin", "thresholds", "nodes_evaluated", "holds"):
            assert getattr(got, name) == getattr(want, name), name
        for a, b in zip(got.fields, want.fields, strict=True):
            np.testing.assert_array_equal(a, b)

    def test_precondition_nodes_match_dense_scan(self):
        datum = prekopa_leindler(0.5)
        g = gaussian_grid(n=101)
        broken = GridFunction(g.lo, g.hi, g.n, 1.5 * g.values)
        errors = []
        for scan in (verify_preservation, dense_verify_preservation):
            with pytest.raises(PreservationPreconditionError) as err:
                scan(datum, [broken, g], [g], [0.1])
            errors.append(err.value)
        assert len(errors[0].nodes) > heatflow.SCAN_CHUNK
        assert errors[0].nodes == errors[1].nodes
        assert str(errors[0]) == str(errors[1])

    @pytest.mark.filterwarnings("ignore:invalid value encountered in power")
    def test_non_finite_defect_matches_dense_scan(self):
        # a negative shift under fractional exponents makes the g side NaN
        datum, f_grids, g_grids = _equivalence_cases()["young-narrow"]
        for scan in (verify_preservation, dense_verify_preservation):
            with pytest.raises(ValueError, match=r"non-finite defect values at t=0\.1"):
                scan(datum, f_grids, g_grids, [0.1, 0.5], shift=-0.5)

    @pytest.mark.filterwarnings("ignore:overflow encountered in add")
    @pytest.mark.parametrize("overflowing", ["every node", "one node"])
    def test_infinite_defect_matches_dense_scan(self, overflowing):
        # g + shift overflows to +inf: the g side and the defect are +inf there,
        # while the minimum defect stays finite when only one node overflows
        datum, g = prekopa_leindler(0.5), gaussian_grid(n=101)
        values = np.full(g.n, 1e308) if overflowing == "every node" else g.values.copy()
        values[50] = 1e308
        big = GridFunction(g.lo, g.hi, g.n, values)
        for scan in (verify_preservation, dense_verify_preservation):
            with pytest.raises(ValueError, match=r"non-finite defect values at t=0\.0"):
                scan(datum, [g, g], [big], [0.0], shift=1e308)


def _precondition_nodes(scan, datum, f_grids, g_grids):
    broken = [GridFunction(f_grids[0].lo, f_grids[0].hi, f_grids[0].n, 1.5 * f_grids[0].values),
              *f_grids[1:]]
    with pytest.raises(PreservationPreconditionError) as err:
        scan(datum, broken, g_grids, [0.1])
    return err.value.nodes


def _use_cpus(monkeypatch, count):
    """Let the scan see ``count`` CPUs: with two, a worker thread takes every other chunk."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


class TestScanChunkSizes:
    """Chunks of one node (less than a row), of 97 nodes and of 2^20 nodes
    (the whole scan) give the dense oracle's answer exactly, on two CPUs
    and on one."""

    @staticmethod
    def _check(case, chunk, monkeypatch):
        datum, f_grids, g_grids = _equivalence_cases()[case]
        times = [0.0, 0.1, 0.5]
        want = dense_verify_preservation(datum, f_grids, g_grids, times, collect_fields=True)
        want_nodes = _precondition_nodes(dense_verify_preservation, datum, f_grids, g_grids)
        monkeypatch.setattr(heatflow, "SCAN_CHUNK", chunk)
        got = verify_preservation(datum, f_grids, g_grids, times, collect_fields=True)
        for name in ("times", "min_defect", "argmin", "thresholds", "nodes_evaluated", "holds"):
            assert getattr(got, name) == getattr(want, name), name
        for a, b in zip(got.fields, want.fields, strict=True):
            np.testing.assert_array_equal(a, b)
        got_nodes = _precondition_nodes(verify_preservation, datum, f_grids, g_grids)
        assert got_nodes and got_nodes == want_nodes

    @pytest.mark.parametrize("chunk", [1, 97, 1 << 20])
    @pytest.mark.parametrize("case", sorted(_equivalence_cases()))
    def test_matches_dense_scan(self, case, chunk, monkeypatch):
        _use_cpus(monkeypatch, 2)
        self._check(case, chunk, monkeypatch)

    @pytest.mark.parametrize("chunk", [1, 97, 1 << 20])
    @pytest.mark.parametrize("case", sorted(_equivalence_cases()))
    def test_one_cpu_matches_dense_scan(self, case, chunk, monkeypatch):
        _use_cpus(monkeypatch, 1)
        self._check(case, chunk, monkeypatch)

    def test_three_axis_scan_memory_is_bounded(self):
        # 121^3 nodes: the whole-grid f side alone would take 14 MB
        datum, f_grids, g_grids = line3_inputs(n=121)
        tracemalloc.start()
        try:
            field = verify_preservation(datum, f_grids, g_grids, [0.1, 0.5, 1.0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert field.holds and field.nodes_evaluated == 121**3
        assert peak < 16 * 2**20

    def test_two_axis_gaussian_scan_memory_is_bounded(self):
        # the young frame with f = exp(l - x^T A x) and g_j = exp(m_j - y^2),
        # A = sum_j d_j u_j u_j^T and l = sum_j d_j m_j: equal sides on 401^2 nodes
        datum = young_frame()
        m = np.array([0.1, -0.2, 0.3])
        a = sum(dj * np.outer(uj, uj) for dj, uj in zip(datum.d, datum.q))
        axis = np.linspace(-5.0, 5.0, 401)
        x1, x2 = np.meshgrid(axis, axis, indexing="ij")
        quad = a[0, 0] * x1**2 + 2.0 * a[0, 1] * x1 * x2 + a[1, 1] * x2**2
        f_grid = GridFunction([-5.0] * 2, [5.0] * 2, [401] * 2, np.exp(float(datum.d @ m) - quad))
        ys = np.linspace(-15.0, 15.0, 6001)
        g_grids = [GridFunction([-15.0], [15.0], [6001], np.exp(mj - ys**2)) for mj in m]
        times = [0.1, 0.5, 1.0]
        verify_preservation(datum, [f_grid], g_grids, times)
        tracemalloc.start()
        try:
            field = verify_preservation(datum, [f_grid], g_grids, times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert field.holds and field.nodes_evaluated == 401**2
        assert peak <= 20 * 2**20


def _integer_plane(datum, f0, f1, g_values):
    """Two one-axis f grids on the integers -4..4 and a g grid on [-8, 8] with
    spacing 0.5.  A projection with weights 0.5 or 1 of such nodes lands on
    a g node, where the interpolant is the node's value exactly."""
    return (datum, [GridFunction([-4.0], [4.0], [9], f) for f in (f0, f1)],
            [GridFunction([-8.0], [8.0], [33], g_values)])


class TestTwoThreadScan:
    """The caller takes the even chunks and a worker the odd ones; one row
    of nine nodes is one chunk here, and the merge keeps chunk order."""

    @pytest.fixture(autouse=True)
    def row_chunks(self, monkeypatch):
        _use_cpus(monkeypatch, 2)
        monkeypatch.setattr(heatflow, "SCAN_CHUNK", 9)

    @pytest.mark.parametrize("first_row", [1, 2], ids=["worker-first", "caller-first"])
    def test_equal_minima_first_chunk_wins(self, first_row):
        # the g side is 1 at every node; f0 peaks on two consecutive rows and
        # f1 at one column, so the minimum defect is met twice, on the worker's
        # and the caller's chunk
        f0, f1 = np.full(9, 0.25), np.full(9, 0.25)
        f0[first_row:first_row + 2] = f1[4] = 0.81
        inputs = _integer_plane(prekopa_leindler(0.5), f0, f1, np.ones(33))
        got = verify_preservation(*inputs, [0.0], collect_fields=True)
        field = got.fields[0]
        assert (field[:, 2] == got.min_defect[0]).sum() == 2
        assert got.argmin == ((-4.0 + first_row, 0.0),)
        assert got.argmin == dense_verify_preservation(*inputs, [0.0]).argmin

    @pytest.mark.filterwarnings("ignore:invalid value encountered in sqrt")
    def test_nan_on_the_workers_chunk_alone(self, monkeypatch):
        # Q = [1, 0]: the g side depends on x1 alone; g + shift < 0 only at the
        # projection of row 1, the worker's first chunk, and d = 0.5 makes it NaN
        datum = make_datum((1, 1), (1,), (0.25, 0.25), (0.5,), [[1.0, 0.0]])
        g = np.ones(33)
        g[10] = 0.0  # y = -3, the x1 of row 1
        inputs = _integer_plane(datum, np.full(9, 0.01), np.full(9, 0.01), g)
        seen = []
        g_side = heatflow._Workspace.g_side

        def spy(ws, *args):
            out = g_side(ws, *args)
            seen.append((threading.get_ident(), bool(np.isnan(out).any())))
            return out

        monkeypatch.setattr(heatflow._Workspace, "g_side", spy)
        for scan in (verify_preservation, dense_verify_preservation):
            with pytest.raises(ValueError, match=r"non-finite defect values at t=0\.0"):
                scan(*inputs, [0.0], shift=-0.5)
        nan_threads = {ident for ident, nan in seen if nan}
        assert nan_threads and threading.get_ident() not in nan_threads
        # the worker runs in the caller's numpy error state
        with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
            verify_preservation(*inputs, [0.0], shift=-0.5)

    def test_time_zero_violations_in_chunk_order(self):
        datum, f_grids, g_grids = _equivalence_cases()["line3"]
        nodes = _precondition_nodes(verify_preservation, datum, f_grids, g_grids)
        assert nodes == _precondition_nodes(dense_verify_preservation, datum, f_grids, g_grids)
        points = [x for x, _ in nodes]
        assert points == sorted(points)
        # one chunk is one row of the last axis: violations on both threads' chunks
        axis = f_grids[0].axes()[0]
        chunks = {np.searchsorted(axis, x[0]) * len(axis) + np.searchsorted(axis, x[1])
                  for x in points}
        assert {c % 2 for c in chunks} == {0, 1}

    @pytest.mark.parametrize("cpus", [2, 1])
    def test_first_failing_chunk_is_raised(self, cpus, monkeypatch):
        # chunk 3 (the worker's on two CPUs) and chunk 4 (the caller's) fail
        # with different errors; each thread stops at its own first failure
        inputs = _integer_plane(prekopa_leindler(0.5), np.full(9, 0.25), np.full(9, 0.25),
                                np.ones(33))
        failures = {3: ZeroDivisionError("chunk 3"), 4: OverflowError("chunk 4")}
        ran = []
        g_side = heatflow._Workspace.g_side

        def spy(ws, *args):
            chunk = int(ws.nodes[0, 0]) + 4  # chunk i is the row x1 = i - 4
            ran.append((chunk, threading.get_ident()))
            if chunk in failures:
                raise failures[chunk]
            return g_side(ws, *args)

        _use_cpus(monkeypatch, cpus)
        monkeypatch.setattr(heatflow._Workspace, "g_side", spy)
        threads = threading.active_count()
        with pytest.raises(ZeroDivisionError, match="chunk 3"):
            verify_preservation(*inputs, [0.0, 0.1])
        assert threading.active_count() == threads  # the worker joined
        caller = {chunk for chunk, ident in ran if ident == threading.get_ident()}
        worker = {chunk for chunk, ident in ran if ident != threading.get_ident()}
        if cpus == 2:
            assert (caller, worker) == ({0, 2, 4}, {1, 3})
        else:
            assert (caller, worker) == ({0, 1, 2, 3}, set())

    def test_traced_names_run_on_the_calling_thread_only(self, monkeypatch):
        calls = []
        # rfft: the blocks of the 2-D heat steps, one line each here
        for owner, name in ((heatflow, "heat_step"), (GridFunction, "interpolate"),
                            (heatflow._Workspace, "g_side"), (np.fft, "rfft")):
            original = getattr(owner, name)

            def spy(*args, _original=original, _name=name, **kwargs):
                calls.append((_name, threading.get_ident()))
                return _original(*args, **kwargs)

            monkeypatch.setattr(owner, name, spy)
        threads = threading.active_count()
        datum, f_grids, g_grids = _equivalence_cases()["young-narrow"]
        assert f_grids[0].dim == 2
        verify_preservation(datum, f_grids, g_grids, [0.1, 0.5])
        monotone_functional(datum, g_grids, [0.0, 0.5])
        GridFunction([0.0], [1.0], [2], [0.0, 1.0]).interpolate([[0.5]])
        assert threading.active_count() == threads  # the worker joined
        idents = {name: {ident for n, ident in calls if n == name} for name, _ in calls}
        caller = threading.get_ident()
        assert idents["heat_step"] == idents["interpolate"] == {caller}
        # each _on_threads call starts a new worker, whose ident may or may not be reused
        for name in ("g_side", "rfft"):
            assert caller in idents[name] and idents[name] - {caller}, name


def test_sides_at_nodes_match_dense_sides():
    # the whole-grid entry point that perfbench/item1_figures.py times, on an
    # input with exterior nodes
    datum, f_grids, g_grids = _equivalence_cases()["young-narrow"]
    axes = f_grids[0].axes()
    nodes = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    for shift in (0.0, 0.25):
        got = heatflow._sides_at_nodes(datum, f_grids, g_grids, nodes, shift)
        want = _dense_sides(datum, f_grids, g_grids, nodes, shift)
        assert not want[2].all()
        for a, b in zip(got, want, strict=True):
            np.testing.assert_array_equal(a, b)
