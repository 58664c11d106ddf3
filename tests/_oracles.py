"""Independent oracles shared across the test suite.

These deliberately avoid the library's own code paths: closed-form 2x2
eigenvalues from the characteristic polynomial, trapezoid quadrature of
the heat convolution integral, and a defect scan over the whole node set
at once (it shares only the heat step with the library).
"""

import math
from functools import reduce

import numpy as np


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


def _dense_interpolate(grid, pts) -> np.ndarray:
    """Multilinear interpolation of a grid function at in-box points."""
    h = grid.spacing
    idx, frac = [], []
    for ax in range(grid.dim):
        u = (pts[:, ax] - grid.lo[ax]) / h[ax]
        i0 = np.clip(np.floor(u).astype(int), 0, grid.n[ax] - 2)
        idx.append(i0)
        frac.append(u - i0)
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
        g_side *= (_dense_interpolate(gg, projections[j][mask]) + shift) ** float(datum.d[j])
    return f_side, g_side, mask


def dense_verify_preservation(datum, f_grids, g_grids, times, tol=1e-4, shift=0.0,
                              collect_fields=False):
    """The defect scan over the whole node set at once, one time after another.

    Builds every node, the full f-side outer product and per-time masks, so
    it needs memory in proportion to the node count; it is the reference
    for the chunked scan of :func:`frbl.heatflow.verify_preservation`.
    """
    from frbl.heatflow import DefectField, PreservationPreconditionError, heat_step
    from frbl.linalg import SymMatrix

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
            ft = [heat_step(fg, t, SymMatrix.identity(fg.dim)) for fg in f_grids]
            gt = [heat_step(gg, t, SymMatrix.identity(gg.dim)) for gg in g_grids]
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
        fields=tuple(fields) if collect_fields else None,
    )
