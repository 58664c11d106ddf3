"""Independent oracles shared across the test suite.

These deliberately avoid the library's own code paths: closed-form 2x2
eigenvalues from the characteristic polynomial, trapezoid quadrature of
the heat convolution integral, the rectangle-rule mass of a grid, a
multilinear interpolant written out corner by corner, a defect scan over
the whole node set at once (it shares only the heat step with the
library), and the sigma constraints built entry by entry, which re-check
a separator from the datum alone, and the Gaussian tuple sampler,
relation check and ratio one tuple and one factor at a time, the
reference for the stacked families.  Three builders of test inputs come
last: a grid sampled from a function, the unit-form Gaussian and a family
stacked from loose tuples.
"""

import math
from functools import reduce

import numpy as np

from frbl.gaussian import CenteredGaussian, GaussianFamily
from frbl.heatflow import GridFunction
from frbl.linalg import SymMatrix


def eig2x2(m) -> tuple[float, float]:
    """Eigenvalues of a symmetric 2x2 matrix, ascending, via the
    characteristic polynomial."""
    a, b, c = float(m[0][0]), float(m[0][1]), float(m[1][1])
    half_tr = 0.5 * (a + c)
    disc = math.sqrt((0.5 * (a - c)) ** 2 + b * b)
    return half_tr - disc, half_tr + disc


def heat_quadrature_1d(form: float, log_pref: float, weight: float, t: float,
                       x: float, half: float = 16.0, n: int = 8001) -> float:
    """Trapezoid evaluation of the heat convolution of a 1-D Gaussian."""
    y = np.linspace(-half, half, n)
    fy = np.exp(log_pref - form * y * y)
    kernel = (4.0 * math.pi * t) ** -0.5 / math.sqrt(weight) * np.exp(
        -((x - y) ** 2) / (4.0 * t * weight)
    )
    return float(np.trapezoid(fy * kernel, y))


def heat_quadrature_2d(form, log_pref: float, weight, t: float, x,
                       half: float = 12.0, n: int = 801) -> float:
    """Trapezoid evaluation of the heat convolution of a 2-D Gaussian."""
    form = np.asarray(form, dtype=float)
    weight = np.asarray(weight, dtype=float)
    x = np.asarray(x, dtype=float)
    axis = np.linspace(-half, half, n)
    y1, y2 = np.meshgrid(axis, axis, indexing="ij")
    fy = np.exp(
        log_pref
        - (form[0, 0] * y1**2 + 2.0 * form[0, 1] * y1 * y2 + form[1, 1] * y2**2)
    )
    w_inv = np.linalg.inv(weight)
    z1 = x[0] - y1
    z2 = x[1] - y2
    quad = w_inv[0, 0] * z1**2 + 2.0 * w_inv[0, 1] * z1 * z2 + w_inv[1, 1] * z2**2
    kernel = (4.0 * math.pi * t) ** -1.0 / math.sqrt(np.linalg.det(weight)) * np.exp(
        -quad / (4.0 * t)
    )
    inner = np.trapezoid(fy * kernel, axis, axis=1)
    return float(np.trapezoid(inner, axis))


def random_psd(rng: np.random.Generator, dim: int, floor: float = 0.0) -> np.ndarray:
    g = rng.standard_normal((dim, dim))
    return g @ g.T + floor * np.eye(dim)


def sigma_constraints(datum) -> tuple[np.ndarray, np.ndarray, list[tuple[int, int]]]:
    """Rows ``A``, right-hand side ``b`` and column pairs of the sigma
    constraints on the scaled upper triangle, built one entry at a time."""
    n = datum.layout.dim_in
    pairs = [(p, r) for p in range(n) for r in range(p, n)]
    sqrt2 = math.sqrt(2.0)
    rows, rhs = [], []
    for m, dims in ((np.eye(n), datum.layout.in_dims), (datum.q, datum.layout.out_dims)):
        start = 0
        for dim in dims:
            for r in range(start, start + dim):
                for s in range(r, start + dim):
                    rows.append([m[r, p] * m[s, p] if p == t
                                 else (m[r, p] * m[s, t] + m[r, t] * m[s, p]) / sqrt2
                                 for p, t in pairs])
                    rhs.append(1.0 if r == s else 0.0)
            start += dim
    return np.array(rows), np.array(rhs), pairs


def separator_verifies(datum, y) -> bool:
    """Re-check a separator ``Y`` from the datum alone.

    Every feasible ``X`` is PSD with trace ``n`` and meets ``A svec(X) = b``,
    so ``<X, Y> >= lambda_min(Y) n`` while ``<X, Y> <= <X_aff, Y> +
    |Y_perp| (n + |X_aff|)``, with ``X_aff`` the least-norm solution and
    ``Y_perp`` the part of ``Y`` outside the row space of ``A``.
    """
    a, b, pairs = sigma_constraints(datum)
    y = np.asarray(y, dtype=float)
    n = y.shape[0]
    yv = np.array([y[p, t] if p == t else math.sqrt(2.0) * y[p, t] for p, t in pairs])
    x_aff = np.linalg.lstsq(a, b, rcond=None)[0]
    y_perp = yv - a.T @ np.linalg.lstsq(a.T, yv, rcond=None)[0]
    upper = x_aff @ yv + np.linalg.norm(y_perp) * (n + np.linalg.norm(x_aff))
    return bool(upper < np.linalg.eigvalsh(y)[0] * n)


def discrete_mass(grid) -> float:
    """Rectangle-rule mass ``cell_volume * sum(values)`` of a grid function."""
    return grid.cell_volume * float(np.sum(grid.values))


def dense_interpolate(grid, pts) -> np.ndarray:
    """Multilinear interpolation of a grid function at in-box points of
    shape ``(N, dim)``, with no stencil shared with the library's scan.
    The cell fraction is clamped to [0, 1], so a point up to ``_BOUND_EPS``
    outside the box takes the edge value."""
    h = grid.spacing
    idx, frac = [], []
    for ax in range(grid.dim):
        u = (pts[:, ax] - grid.lo[ax]) / h[ax]
        i0 = np.clip(np.floor(u).astype(int), 0, grid.n[ax] - 2)
        idx.append(i0)
        frac.append(np.clip(u - i0, 0.0, 1.0))
    v = grid.values
    if grid.dim == 1:
        i0, f0 = idx[0], frac[0]
        return (1.0 - f0) * v[i0] + f0 * v[i0 + 1]
    (i0, j0), (fx, fy) = idx, frac
    return (
        v[i0, j0] * (1 - fx) * (1 - fy)
        + v[i0 + 1, j0] * fx * (1 - fy)
        + v[i0, j0 + 1] * (1 - fx) * fy
        + v[i0 + 1, j0 + 1] * fx * fy
    )


def _dense_sides(datum, f_grids, g_grids, nodes, shift):
    f_side = reduce(np.multiply.outer, [fg.values ** ci for fg, ci in zip(f_grids, datum.c)]).ravel()
    mask = np.ones(nodes.shape[0], dtype=bool)
    projections = []
    for j, gg in enumerate(g_grids):
        pts = nodes @ datum.out_row(j).T
        projections.append(pts)
        for ax, (a, b) in enumerate(zip(gg.lo, gg.hi)):
            eps = 1e-9 * (b - a)
            mask &= (pts[:, ax] >= a - eps) & (pts[:, ax] <= b + eps)
    if not np.any(mask):
        raise ValueError("no scan node projects inside every g grid; widen the g grids")
    g_side = np.ones(int(mask.sum()))
    for j, gg in enumerate(g_grids):
        g_side *= (dense_interpolate(gg, projections[j][mask]) + shift) ** float(datum.d[j])
    return f_side, g_side, mask


def dense_verify_preservation(datum, f_grids, g_grids, times, tol=1e-4, shift=0.0,
                              collect_fields=False):
    """The defect scan over the whole node set at once, one time after another.

    Builds every node, the full f-side outer product and per-time masks, so
    it needs memory in proportion to the node count; it is the reference
    for the chunked scan of :func:`frbl.heatflow.verify_preservation`.
    """
    from frbl.heatflow import DefectField, PreservationPreconditionError, heat_step

    axes = [ax for fg in f_grids for ax in fg.axes()]
    mesh = np.meshgrid(*axes, indexing="ij")
    nodes = np.stack([m.ravel() for m in mesh], axis=1)

    f_side0, g_side0, mask0 = _dense_sides(datum, f_grids, g_grids, nodes, shift)
    defect0 = g_side0 - f_side0[mask0]
    threshold0 = tol * (1.0 + float(g_side0.max()))
    bad = np.nonzero(defect0 < -threshold0)[0]
    if bad.size:
        masked_nodes = nodes[mask0]
        raise PreservationPreconditionError(
            [(tuple(masked_nodes[b]), float(defect0[b])) for b in bad]
        )

    min_defects, argmins, thresholds, fields = [], [], [], []
    holds = True
    n_nodes = 0
    for t in (float(x) for x in times):
        if t == 0.0:
            ft, gt = list(f_grids), list(g_grids)
        else:
            ft = [heat_step(fg, t) for fg in f_grids]
            gt = [heat_step(gg, t) for gg in g_grids]
        f_side, g_side, mask = _dense_sides(datum, ft, gt, nodes, shift)
        defect = g_side - f_side[mask]
        if not np.all(np.isfinite(defect)):
            raise ValueError(f"non-finite defect values at t={t}")
        n_nodes = int(mask.sum())
        i_min = int(np.argmin(defect))
        threshold = tol * (1.0 + float(g_side.max()))
        min_defects.append(float(defect[i_min]))
        argmins.append(tuple(float(x) for x in nodes[mask][i_min]))
        thresholds.append(threshold)
        holds &= defect[i_min] >= -threshold
        fields.append(np.column_stack([nodes[mask], defect]))

    return DefectField(
        times=tuple(float(t) for t in times),
        min_defect=tuple(min_defects),
        argmin=tuple(argmins),
        thresholds=tuple(thresholds),
        nodes_evaluated=n_nodes,
        holds=bool(holds),
        dim=datum.layout.dim_in,
        fields=tuple(fields) if collect_fields else None,
    )


def _blockdiag(dims, blocks) -> np.ndarray:
    total = sum(dims)
    out = np.zeros((total, total))
    off = 0
    for dim, blk in zip(dims, blocks):
        out[off : off + dim, off : off + dim] = blk
        off += dim
    return out


def _mirrored(m) -> np.ndarray:
    """``m`` with its upper triangle copied onto the lower one, and +0.0 for
    -0.0, as frbl stores every symmetric matrix."""
    m = np.array(m, dtype=float) + 0.0
    lower = np.tril_indices(m.shape[0], -1)
    m[lower] = m.T[lower]
    return m


def admissible_tuple(datum, rng: np.random.Generator):
    """Draw one Gaussian tuple satisfying the pointwise relation, one factor
    at a time: the reference for frbl's stacked sampler, draw for draw.

    Returns ``(f, g)``, lists of ``(form, log_prefactor)`` pairs.
    """
    layout = datum.layout

    def random_pd(dim: int) -> np.ndarray:
        m = rng.standard_normal((dim, dim))
        return m @ m.T / dim + 0.3 * np.eye(dim)

    g_forms = [random_pd(dim) for dim in layout.out_dims]
    g_prefs = [float(rng.normal(scale=0.5)) for _ in range(layout.m)]
    pulled = datum.q.T @ _blockdiag(
        layout.out_dims, [dj * f for dj, f in zip(datum.d, g_forms)]
    ) @ datum.q

    cushion = float(rng.uniform(0.05, 0.5))
    f_forms = []
    for i in range(layout.k):
        sl = layout.in_slice(i)
        dim = layout.in_dims[i]
        blk = layout.k * pulled[sl, sl] + cushion * np.eye(dim) + random_pd(dim) * float(
            rng.uniform(0.0, 0.5)
        )
        f_forms.append(blk / float(datum.c[i]))

    b = float(sum(dj * p for dj, p in zip(datum.d, g_prefs)))
    margin = abs(float(rng.normal(scale=0.3))) + 1e-3
    weights = rng.uniform(0.2, 1.0, size=layout.k)
    weights /= weights.sum()
    f_prefs = [(b - margin) * wi / float(ci) for wi, ci in zip(weights, datum.c)]
    return ([(_mirrored(f), float(p)) for f, p in zip(f_forms, f_prefs)],
            [(_mirrored(f), float(p)) for f, p in zip(g_forms, g_prefs)])


def relation_gaps(datum, f, g) -> tuple[float, float]:
    """Minimum eigenvalue of the form gap and the prefactor gap of the
    pointwise relation, for ``(form, log_prefactor)`` pairs."""
    layout = datum.layout
    p = _blockdiag(layout.in_dims, [ci * form for ci, (form, _) in zip(datum.c, f)])
    s = datum.q.T @ _blockdiag(
        layout.out_dims, [dj * form for dj, (form, _) in zip(datum.d, g)]
    ) @ datum.q
    min_eig = float(np.linalg.eigvalsh(_mirrored(p - s))[0])
    a = sum(ci * lp for ci, (_, lp) in zip(datum.c, f))
    b = sum(dj * lp for dj, (_, lp) in zip(datum.d, g))
    return min_eig, float(b - a)


def log_ratio(datum, f, g) -> float:
    """``sum c_i log int f_i - sum d_j log int g_j`` for ``(form,
    log_prefactor)`` pairs, one eigenvalue solve per factor."""
    def log_integral(form, lp):
        w = np.linalg.eigvalsh(form)
        return lp + 0.5 * (form.shape[0] * math.log(math.pi) - float(np.sum(np.log(w))))

    num = sum(ci * log_integral(*fi) for ci, fi in zip(datum.c, f))
    den = sum(dj * log_integral(*gj) for dj, gj in zip(datum.d, g))
    return float(num - den)


def sample_grid(fn, lo, hi, n) -> GridFunction:
    """``fn``, vectorized over an ``(N, dim)`` point array, sampled on the
    grid of per-axis bounds ``lo``, ``hi`` and counts ``n``."""
    axes = [np.linspace(a, b, cnt) for a, b, cnt in zip(lo, hi, n)]
    nodes = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    return GridFunction(lo, hi, n, np.asarray(fn(nodes), dtype=float).reshape(n))


def standard_gaussian(dim: int) -> CenteredGaussian:
    """The unit-form Gaussian ``exp(-|x|^2)``."""
    return CenteredGaussian(SymMatrix(np.eye(dim)))


def stack_family(tuples) -> GaussianFamily:
    """Gaussian tuples of one layout stacked into one family."""
    def forms(side):
        return tuple(np.array([x.form.mat for x in factor])
                     for factor in zip(*(getattr(t, side) for t in tuples)))

    def prefs(side):
        return np.array([[x.log_prefactor for x in getattr(t, side)] for t in tuples])

    return GaussianFamily(forms("f"), forms("g"), prefs("f"), prefs("g"))
