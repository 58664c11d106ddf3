"""Grid-based verification of heat-flow preservation.

Sampled nonnegative functions on uniform rectangular grids are evolved by
quadrature convolution with the exact heat kernel (zero extension outside
the grid, truncation far in the kernel tails).  On top of that sit the
pointwise-defect scan for the preservation property, the monotone
functional for single-input data, and the long-time constant extraction.

Grids are deliberately small: at most two axes per factor and at most three
axes over the full input sum, which covers the classical instances at desk
scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .datum import FrblDatum
from .linalg import SymMatrix

__all__ = [
    "DefectField",
    "GridFunction",
    "PreservationPreconditionError",
    "default_integration_box",
    "discrete_mass",
    "extract_constant",
    "grid_from_json",
    "grid_to_json",
    "heat_step",
    "monotone_functional",
    "verify_preservation",
]

DEFAULT_DEFECT_TOL = 1e-4

# Kernel support is cut at this many standard deviations; the discarded mass
# is far below the quadrature error.
KERNEL_CUT_SIGMAS = 8.0

_BOUND_EPS = 1e-9

# Nodes per chunk of the defect scan; it bounds the scan's working memory
# whatever the node count.
SCAN_CHUNK = 1 << 16


@dataclass(frozen=True)
class GridFunction:
    """Nonnegative samples on a uniform rectangular grid (1 or 2 axes)."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]
    n: tuple[int, ...]
    values: np.ndarray

    def __post_init__(self):
        lo = tuple(float(x) for x in self.lo)
        hi = tuple(float(x) for x in self.hi)
        n = tuple(int(x) for x in self.n)
        if not 1 <= len(n) <= 2 or len(lo) != len(n) or len(hi) != len(n):
            raise ValueError("grids must have one or two axes with matching bounds")
        for a, b, cnt in zip(lo, hi, n):
            if cnt < 2 or not b > a:
                raise ValueError("each axis needs hi > lo and at least two samples")
        values = np.asarray(self.values, dtype=float)
        if values.shape != n:
            raise ValueError(f"values shape {values.shape} does not match n {n}")
        if not np.all(np.isfinite(values)) or np.any(values < 0):
            raise ValueError("grid values must be finite and nonnegative")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "values", values)

    @classmethod
    def sample(cls, fn, lo, hi, n) -> "GridFunction":
        """Sample ``fn`` (vectorized over an ``(N, dim)`` point array) on the grid."""
        lo = tuple(float(x) for x in np.atleast_1d(lo))
        hi = tuple(float(x) for x in np.atleast_1d(hi))
        n = tuple(int(x) for x in np.atleast_1d(n))
        axes = [np.linspace(a, b, cnt) for a, b, cnt in zip(lo, hi, n)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
        vals = np.asarray(fn(pts), dtype=float).reshape(n)
        return cls(lo, hi, n, vals)

    @property
    def dim(self) -> int:
        return len(self.n)

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple((b - a) / (cnt - 1) for a, b, cnt in zip(self.lo, self.hi, self.n))

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    def axes(self) -> list[np.ndarray]:
        return [np.linspace(a, b, cnt) for a, b, cnt in zip(self.lo, self.hi, self.n)]

    def nodes(self) -> np.ndarray:
        mesh = np.meshgrid(*self.axes(), indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    def contains(self, pts: np.ndarray) -> np.ndarray:
        """Boolean mask of points inside the (closed) grid box."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        ok = np.ones(pts.shape[0], dtype=bool)
        for ax, (a, b) in enumerate(zip(self.lo, self.hi)):
            eps = _BOUND_EPS * (b - a)
            ok &= (pts[:, ax] >= a - eps) & (pts[:, ax] <= b + eps)
        return ok

    def interpolate(self, pts: np.ndarray) -> np.ndarray:
        """Multilinear interpolation at points of shape ``(N, dim)``.

        Points outside the grid box raise; callers that need to skip
        exterior points mask with :meth:`contains` first.
        """
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if pts.shape[1] != self.dim:
            raise ValueError(f"points have dim {pts.shape[1]}, grid has dim {self.dim}")
        if not np.all(self.contains(pts)):
            raise ValueError("interpolation point outside the grid box")
        return self._apply_stencil(self._stencil(pts))

    def _stencil(self, pts: np.ndarray) -> list:
        """Corner indices and per-axis weights of the multilinear interpolant
        at in-box points, one ``(index tuple, weights)`` pair per cell corner.

        They depend only on the grid geometry, so one stencil serves every
        grid of the same box and shape, such as the heat evolutions of this one.
        """
        h = self.spacing
        lower, weights = [], []
        for ax in range(self.dim):
            u = (pts[:, ax] - self.lo[ax]) / h[ax]
            i0 = np.clip(np.floor(u).astype(int), 0, self.n[ax] - 2)
            frac = u - i0
            lower.append(i0)
            weights.append((1.0 - frac, frac))
        corners = [(0,), (1,)] if self.dim == 1 else [(0, 0), (1, 0), (0, 1), (1, 1)]
        return [
            (tuple(i + c for i, c in zip(lower, corner)), [w[c] for w, c in zip(weights, corner)])
            for corner in corners
        ]

    def _apply_stencil(self, stencil) -> np.ndarray:
        """This grid's multilinear interpolant on a stencil from :meth:`_stencil`:
        the sum over corners of ``value * weight_x1 * weight_x2``, evaluated
        left to right (another order changes the last bits of the result)."""
        return reduce(np.add, [reduce(np.multiply, [self.values[idx], *w]) for idx, w in stencil])


def discrete_mass(grid: GridFunction) -> float:
    """Rectangle-rule mass ``cell_volume * sum(values)``."""
    return grid.cell_volume * float(np.sum(grid.values))


def grid_to_json(grid: GridFunction) -> dict:
    return {
        "lo": list(grid.lo),
        "hi": list(grid.hi),
        "n": list(grid.n),
        "values": grid.values.ravel().tolist(),
    }


def grid_from_json(obj: dict) -> GridFunction:
    try:
        n = tuple(int(x) for x in obj["n"])
        values = np.asarray(obj["values"], dtype=float).reshape(n)
        return GridFunction(tuple(obj["lo"]), tuple(obj["hi"]), n, values)
    except KeyError as exc:
        raise ValueError(f"grid JSON missing key {exc}") from exc


def _heat_kernel_quadrature(offsets: list[np.ndarray], t: float, w: np.ndarray) -> np.ndarray:
    """Kernel values times the cell volume on a lattice of offsets."""
    dim = len(offsets)
    w_inv = np.linalg.inv(w)
    if dim == 1:
        quad = w_inv[0, 0] * offsets[0] ** 2
    else:
        z1, z2 = np.meshgrid(offsets[0], offsets[1], indexing="ij")
        quad = w_inv[0, 0] * z1**2 + 2.0 * w_inv[0, 1] * z1 * z2 + w_inv[1, 1] * z2**2
    norm = (4.0 * math.pi * t) ** (-dim / 2.0) / math.sqrt(np.linalg.det(w))
    return norm * np.exp(-quad / (4.0 * t))


def heat_step(f: GridFunction, t: float, a_weight: SymMatrix) -> GridFunction:
    """Evolve grid samples by quadrature convolution with the exact kernel.

    The function is extended by zero outside the grid, so the input must be
    supported well inside it; the kernel is truncated at
    ``8 * sqrt(2 t lambda_max(weight))`` per axis, which discards far less
    mass than the quadrature error.  A truncation radius beyond ten times
    the grid extent means the grid cannot resolve the evolution and raises.
    The output lives on the same grid.
    """
    if t <= 0:
        raise ValueError("evolution time must be positive")
    if a_weight.dim != f.dim:
        raise ValueError(f"weight dim {a_weight.dim} does not match grid dim {f.dim}")
    lam = np.linalg.eigvalsh(a_weight.mat)
    if lam[0] <= 0:
        raise ValueError("heat weight must be positive definite")
    r_cut = KERNEL_CUT_SIGMAS * math.sqrt(2.0 * t * lam[-1])
    extent = max(b - a for a, b in zip(f.lo, f.hi))
    if r_cut > 10.0 * extent:
        raise ValueError(
            f"kernel truncation radius {r_cut:.3g} exceeds 10x the grid extent "
            f"{extent:.3g}; the grid cannot resolve this evolution time accurately"
        )
    h = f.spacing
    offsets = []
    for ax in range(f.dim):
        m = min(f.n[ax] - 1, int(math.ceil(r_cut / h[ax])))
        offsets.append(np.arange(-m, m + 1) * h[ax])
    kernel = _heat_kernel_quadrature(offsets, t, a_weight.mat) * f.cell_volume
    # imported here: scipy.signal dominates the package's import time, and
    # only the heat step needs it
    from scipy import signal

    out = signal.convolve(f.values, kernel, mode="same", method="auto")
    # fft rounding can leave values a hair below zero
    out = np.clip(out, 0.0, None)
    return GridFunction(f.lo, f.hi, f.n, out)


class PreservationPreconditionError(ValueError):
    """The pointwise relation fails at time zero; carries offending nodes."""

    def __init__(self, nodes):
        self.nodes = list(nodes)
        shown = ", ".join(f"x={tuple(round(c, 6) for c in xyz)} defect={d:.3e}"
                          for xyz, d in self.nodes[:5])
        more = "" if len(self.nodes) <= 5 else f" (+{len(self.nodes) - 5} more)"
        super().__init__(f"relation violated at t=0 at {len(self.nodes)} node(s): {shown}{more}")


@dataclass(frozen=True)
class DefectField:
    """Per-time minima of (g side) - (f side) over the scanned nodes."""

    times: tuple[float, ...]
    min_defect: tuple[float, ...]
    argmin: tuple[tuple[float, ...], ...]
    thresholds: tuple[float, ...]
    nodes_evaluated: int
    holds: bool
    fields: tuple[np.ndarray, ...] | None = None

    def csv_rows(self) -> list[list]:
        dim = len(self.argmin[0]) if self.argmin else 0
        header = ["t", "min_defect"] + [f"argmin_x{i + 1}" for i in range(dim)]
        rows: list[list] = [header]
        for t, md, am in zip(self.times, self.min_defect, self.argmin):
            rows.append([t, md, *am])
        return rows


def _check_flow_inputs(datum: FrblDatum, f_grids, g_grids) -> None:
    layout = datum.layout
    if len(f_grids) != layout.k or len(g_grids) != layout.m:
        raise ValueError("grid counts do not match the datum layout")
    for i, fg in enumerate(f_grids):
        if fg.dim != layout.in_dims[i]:
            raise ValueError(f"f grid {i} has dim {fg.dim}, expected {layout.in_dims[i]}")
    for j, gg in enumerate(g_grids):
        if gg.dim != layout.out_dims[j]:
            raise ValueError(f"g grid {j} has dim {gg.dim}, expected {layout.out_dims[j]}")
    if layout.dim_in > 3:
        raise ValueError("defect scans are limited to input sums of dimension at most 3")


def _interior(datum: FrblDatum, g_grids, nodes):
    """Mask of the nodes whose every g projection lies in its grid, and the
    interpolation stencils of those projections, one per g grid."""
    projections = [nodes @ datum.out_row(j).T for j in range(len(g_grids))]
    mask = np.ones(nodes.shape[0], dtype=bool)
    for gg, pts in zip(g_grids, projections):
        mask &= gg.contains(pts)
    return mask, [gg._stencil(pts[mask]) for gg, pts in zip(g_grids, projections)]


def _g_side(datum: FrblDatum, g_grids, stencils, shift: float) -> np.ndarray:
    """``prod_j (g_j + shift)^{d_j}`` at the points of the stencils."""
    return reduce(np.multiply, [
        (gg._apply_stencil(st) + shift) ** float(dj)
        for gg, st, dj in zip(g_grids, stencils, datum.d)
    ])


def _sides_at_nodes(datum: FrblDatum, f_grids, g_grids, nodes, shift: float):
    """f side at every node of the full product grid; g side and the interior mask.

    The whole-grid form of one scan chunk; ``perfbench/item1_figures.py``
    times the per-node work with it.
    """
    f_side = reduce(np.multiply.outer, [fg.values ** ci for fg, ci in zip(f_grids, datum.c)])
    mask, stencils = _interior(datum, g_grids, nodes)
    return f_side.ravel(), _g_side(datum, g_grids, stencils, shift), mask


def verify_preservation(
    datum: FrblDatum,
    f_grids,
    g_grids,
    times,
    tol: float = DEFAULT_DEFECT_TOL,
    shift: float = 0.0,
    collect_fields: bool = False,
) -> DefectField:
    """Scan the pointwise defect of the product relation under heat evolution.

    The relation must hold at time zero on every scan node (the product grid
    of the input-factor grids); violations abort with the offending nodes.
    For each requested time every factor is evolved on its own grid with the
    identity weight and both sides are compared at the scan nodes, the g
    side through multilinear interpolation.  Nodes whose projections leave a
    g grid are skipped, which is why g grids should be supplied padded.  The
    verdict holds when the minimum defect stays above
    ``-tol * (1 + max g side)`` at every time.

    ``shift`` adds a constant to the g side before exponentiation (a
    regularization for probing boundary behavior; zero by default).

    The factors are evolved first; the nodes are then visited once, in
    chunks of ``SCAN_CHUNK`` consecutive flat indices.  A chunk's
    coordinates, g projections, interior mask and interpolation stencils
    are computed once and serve every time, because heat evolution keeps
    each grid's box: the mask does not depend on time, so
    ``nodes_evaluated`` is one count for all times.  Working memory is a
    few dozen arrays of ``SCAN_CHUNK`` entries plus the evolved grids,
    whatever the node count (a three-axis scan at three times peaks near
    12 MB at 161^3 and at 241^3 nodes alike); only ``collect_fields``
    returns full-size data, one ``(nodes_evaluated, dim + 1)`` array per
    time.
    """
    _check_flow_inputs(datum, f_grids, g_grids)
    times = [float(t) for t in times]
    if any(t < 0 for t in times):
        raise ValueError("times must be nonnegative")
    if not tol >= 0:
        raise ValueError("tol must be nonnegative")

    # states[0] is time zero, for the precondition.  A failing heat step is
    # raised only after the checks of time zero and of the earlier times.
    identity_in = [SymMatrix.identity(fg.dim) for fg in f_grids]
    identity_out = [SymMatrix.identity(gg.dim) for gg in g_grids]
    states = [(f_grids, g_grids)]
    heat_error = None
    for t in times:
        try:
            states.append((f_grids, g_grids) if t == 0.0 else (
                [heat_step(fg, t, w) for fg, w in zip(f_grids, identity_in)],
                [heat_step(gg, t, w) for gg, w in zip(g_grids, identity_out)],
            ))
        except ValueError as exc:
            heat_error = exc
            break
    scanned = times[:len(states) - 1]
    f_powers = [[fg.values ** ci for fg, ci in zip(ft, datum.c)] for ft, _ in states]

    shape = tuple(cnt for fg in f_grids for cnt in fg.n)
    axes = [ax for fg in f_grids for ax in fg.axes()]
    factor_axes = np.cumsum([0] + [fg.dim for fg in f_grids])
    n_total = math.prod(shape)

    n_nodes = 0
    g_max = [-math.inf] * len(states)
    low_nodes, low_defects = [], []  # time-zero candidates for the precondition
    min_defects = [math.inf] * len(scanned)
    argmins = [None] * len(scanned)
    finite = [True] * len(scanned)
    fields = [[] for _ in scanned]
    for start in range(0, n_total, SCAN_CHUNK):
        index = np.unravel_index(np.arange(start, min(start + SCAN_CHUNK, n_total)), shape)
        nodes = np.column_stack([ax[i] for ax, i in zip(axes, index)])
        mask, stencils = _interior(datum, g_grids, nodes)
        if not mask.any():
            continue
        nodes = nodes[mask]
        f_index = [tuple(i[mask] for i in index[a:b])
                   for a, b in zip(factor_axes, factor_axes[1:])]
        n_nodes += nodes.shape[0]
        for s, ((_, gt), fp) in enumerate(zip(states, f_powers)):
            k = s - 1  # index into the scanned times
            if s and not finite[k]:
                continue
            g_side = _g_side(datum, gt, stencils, shift)
            defect = g_side - reduce(np.multiply, [p[i] for p, i in zip(fp, f_index)])
            g_max[s] = np.maximum(g_max[s], g_side.max())
            if s == 0:
                # the final threshold can only be larger, so this keeps every violation
                low = defect < -tol * (1.0 + float(g_max[0]))
                low_nodes.append(nodes[low])
                low_defects.append(defect[low])
                continue
            if not np.all(np.isfinite(defect)):
                finite[k] = False
                continue
            i_min = int(np.argmin(defect))
            if defect[i_min] < min_defects[k]:  # strict: the first minimum wins
                min_defects[k] = float(defect[i_min])
                argmins[k] = tuple(float(x) for x in nodes[i_min])
            if collect_fields:
                fields[k].append(np.column_stack([nodes, defect]))

    if n_nodes == 0:
        raise ValueError("no scan node projects inside every g grid; widen the g grids")
    threshold0 = tol * (1.0 + float(g_max[0]))
    low_nodes, low_defects = np.concatenate(low_nodes), np.concatenate(low_defects)
    bad = low_defects < -threshold0
    if bad.any():
        raise PreservationPreconditionError(
            [(tuple(x), float(d)) for x, d in zip(low_nodes[bad], low_defects[bad])]
        )
    for t, ok in zip(scanned, finite):
        if not ok:
            raise ValueError(f"non-finite defect values at t={t}")
    if heat_error is not None:
        raise heat_error

    thresholds = [tol * (1.0 + float(g)) for g in g_max[1:]]
    return DefectField(
        times=tuple(times),
        min_defect=tuple(min_defects),
        argmin=tuple(argmins),
        thresholds=tuple(thresholds),
        nodes_evaluated=n_nodes,
        holds=all(md >= -th for md, th in zip(min_defects, thresholds)),
        fields=tuple(np.concatenate(f) for f in fields) if collect_fields else None,
    )


def default_integration_box(datum: FrblDatum, g_grids, n_per_axis: int = 101):
    """A box over the input sum whose projections stay inside every g grid."""
    dim0 = datum.layout.dim_in
    half = math.inf
    for j, gg in enumerate(g_grids):
        reach = min(min(-a for a in gg.lo), min(b for b in gg.hi))
        if reach <= 0:
            raise ValueError("g grids must contain the origin to derive a default box")
        opnorm = float(np.linalg.norm(datum.out_row(j), 2))
        if opnorm > 0:
            half = min(half, reach / (opnorm * math.sqrt(dim0)))
    if not math.isfinite(half):
        raise ValueError("cannot derive an integration box from an all-zero map")
    half *= 0.999
    return (
        tuple(-half for _ in range(dim0)),
        tuple(half for _ in range(dim0)),
        tuple(int(n_per_axis) for _ in range(dim0)),
    )


def monotone_functional(
    datum: FrblDatum, g_grids, times, box=None
) -> list[tuple[float, float]]:
    """Values of ``t -> integral over the input sum of prod_j (evolved g_j)^{d_j}(Q_j x)``.

    Only defined for single-input data with unit weight (``k == 1``,
    ``c == (1,)``); nondecreasing in ``t`` for geometric data.  ``box`` is
    ``(lo, hi, n)`` for the integration grid; by default it is sized so all
    projections stay inside the g grids.
    """
    layout = datum.layout
    if layout.k != 1 or abs(float(datum.c[0]) - 1.0) > 1e-12:
        raise ValueError("the monotone functional requires k == 1 and c == (1,)")
    if len(g_grids) != layout.m:
        raise ValueError("grid count does not match the datum layout")
    if box is None:
        box = default_integration_box(datum, g_grids)
    lo, hi, n = box
    axes = [np.linspace(a, b, cnt) for a, b, cnt in zip(lo, hi, n)]
    mesh = np.meshgrid(*axes, indexing="ij")
    nodes = np.stack([m.ravel() for m in mesh], axis=1)
    cell = float(np.prod([(b - a) / (cnt - 1) for a, b, cnt in zip(lo, hi, n)]))
    identity_out = [SymMatrix.identity(gg.dim) for gg in g_grids]

    out = []
    for t in (float(x) for x in times):
        gt = g_grids if t == 0.0 else [
            heat_step(gg, t, w) for gg, w in zip(g_grids, identity_out)
        ]
        prod = np.ones(nodes.shape[0])
        for j, gg in enumerate(gt):
            pts = nodes @ datum.out_row(j).T
            prod *= gg.interpolate(pts) ** float(datum.d[j])
        out.append((t, cell * float(np.sum(prod))))
    return out


def _log_evolved_at_origin(grid: GridFunction, t: float) -> float:
    """log of the identity-weight heat evolution of the grid samples at 0.

    Computed as a single kernel quadrature over the grid support, so no
    output-grid truncation is involved and arbitrarily large times work.
    """
    nodes = grid.nodes()
    quad = np.sum(nodes**2, axis=1)
    log_kernel = -0.5 * grid.dim * math.log(4.0 * math.pi * t) - quad / (4.0 * t)
    val = float(np.sum(grid.values.ravel() * np.exp(log_kernel))) * grid.cell_volume
    if val <= 0.0:
        raise ValueError("evolved value underflowed at the origin")
    return math.log(val)


def extract_constant(datum: FrblDatum, f_grids, g_grids, t_large: float) -> float:
    """Rescaled origin-value ratio at a large time.

    Evaluates ``prod_i [(4 pi t)^{n_i/2} (evolved f_i)(0)]^{c_i}`` over the
    same product for the g side at ``t = t_large``; as the time grows this
    approaches ``prod (int f_i)^{c_i} / prod (int g_j)^{d_j}``, which stays
    at or below one for geometric data when the relation holds at time zero.
    Accumulation is in log space.
    """
    _check_flow_inputs(datum, f_grids, g_grids)
    if t_large <= 0:
        raise ValueError("t_large must be positive")
    log_ratio = 0.0
    for ci, fg in zip(datum.c, f_grids):
        log_ratio += float(ci) * (
            0.5 * fg.dim * math.log(4.0 * math.pi * t_large)
            + _log_evolved_at_origin(fg, t_large)
        )
    for dj, gg in zip(datum.d, g_grids):
        log_ratio -= float(dj) * (
            0.5 * gg.dim * math.log(4.0 * math.pi * t_large)
            + _log_evolved_at_origin(gg, t_large)
        )
    return math.exp(log_ratio)
