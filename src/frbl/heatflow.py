"""Grid-based verification of heat-flow preservation.

Sampled nonnegative functions on uniform rectangular grids are evolved by
convolution with the heat kernel sampled at the grid offsets and scaled to
unit mass (zero extension outside the grid, truncation far in the tails).
On top of that sit the pointwise-defect scan for the preservation property,
the monotone functional for single-input data, and the long-time constant
extraction.

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
from .linalg import _heat_weight

__all__ = [
    "DefectField",
    "GridFunction",
    "PreservationPreconditionError",
    "default_integration_box",
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


def _axes(lo, hi, n) -> list[np.ndarray]:
    return [np.linspace(a, b, cnt) for a, b, cnt in zip(lo, hi, n)]


def _mesh(axes) -> np.ndarray:
    """The nodes of the product of 1-D axes as an ``(N, dim)`` array, last axis fastest."""
    return np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)


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
            if cnt < 2 or not b > a or not math.isfinite(b - a):
                raise ValueError("each axis needs finite bounds hi > lo and at least two samples")
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
        return cls(lo, hi, n, np.asarray(fn(_mesh(_axes(lo, hi, n))), dtype=float).reshape(n))

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
        return _axes(self.lo, self.hi, self.n)

    def nodes(self) -> np.ndarray:
        return _mesh(self.axes())

    def contains(self, pts: np.ndarray) -> np.ndarray:
        """Boolean mask of points inside the (closed) grid box."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        lo, hi = np.array(self.lo), np.array(self.hi)
        eps = _BOUND_EPS * (hi - lo)
        return np.all((pts >= lo - eps) & (pts <= hi + eps), axis=1)

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


def grid_to_json(grid: GridFunction) -> dict:
    return {"lo": list(grid.lo), "hi": list(grid.hi), "n": list(grid.n),
            "values": grid.values.ravel().tolist()}


def grid_from_json(obj: dict) -> GridFunction:
    try:
        n = tuple(int(x) for x in obj["n"])
        values = np.asarray(obj["values"], dtype=float).reshape(n)
        return GridFunction(tuple(obj["lo"]), tuple(obj["hi"]), n, values)
    except KeyError as exc:
        raise ValueError(f"grid JSON missing key {exc}") from exc
    except OverflowError as exc:
        raise ValueError(f"grid JSON number out of range: {exc}") from exc


def _fast_len(n: int) -> int:
    """The smallest 5-smooth integer (``2^a 3^b 5^c``) at or above ``n``, a
    length that the real FFT handles fast."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p = p5
        while p < best:
            best = min(best, p << (-(-n // p) - 1).bit_length())
            p *= 3
        p5 *= 5
    return best


def _convolve_same(x: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """The linear convolution of ``x`` with an odd-length ``kernel`` of the
    same number of axes, cut to the centred window of ``x``'s shape.

    Real FFTs run only over the axes where the kernel is longer than one,
    each zero-padded to a fast length at or above the full convolution
    length, so nothing wraps around; the other axes broadcast.
    """
    axes = [ax for ax, k in enumerate(kernel.shape) if k > 1]
    lengths = [_fast_len(x.shape[ax] + kernel.shape[ax] - 1) for ax in axes]
    spectrum = np.fft.rfftn(x, lengths, axes) * np.fft.rfftn(kernel, lengths, axes)
    full = np.fft.irfftn(spectrum, lengths, axes)
    starts = [(k - 1) // 2 for k in kernel.shape]
    return full[tuple(slice(s, s + n) for s, n in zip(starts, x.shape))]


def heat_step(f: GridFunction, t: float, a_weight=None) -> GridFunction:
    """Evolve grid samples for time ``t`` under the weighted Laplacian with
    positive definite ``SymMatrix`` weight ``a_weight`` (identity when omitted).

    The kernel is ``exp(-z^T W^{-1} z / (4 t))`` at the grid offsets ``z``,
    truncated at ``8 * sqrt(2 t lambda_max(W))`` per axis and divided by the
    sum of the whole truncated kernel, also where the grid is too small to
    use all of it.  A step so keeps the mass of samples (zero outside the
    grid) when their support plus the truncation radius lies inside the
    grid; a kernel narrower than the spacing collapses towards the identity.
    A truncation radius beyond ten times the grid extent raises.  The output
    lives on the same grid.

    A diagonal weight makes the kernel a product of 1-D kernels, convolved
    axis by axis with one zero-padded real FFT each; any other weight is
    convolved with the full 2-D kernel.  FFT rounding can leave values a
    hair below zero; they are clipped to zero once, at the end.
    """
    if t <= 0:
        raise ValueError("evolution time must be positive")
    if a_weight is None:
        w, lam_max = np.eye(f.dim), 1.0
    else:
        w, lam_max = a_weight.mat, _heat_weight(a_weight, f.dim, "grid")[0][-1]
    r_cut = KERNEL_CUT_SIGMAS * math.sqrt(2.0 * t * lam_max)
    extent = max(b - a for a, b in zip(f.lo, f.hi))
    if r_cut > 10.0 * extent:
        raise ValueError(
            f"kernel truncation radius {r_cut:.3g} exceeds 10x the grid extent "
            f"{extent:.3g}; the grid cannot resolve this evolution time accurately"
        )
    h = f.spacing
    # offsets inside the truncation radius, and those a grid of this size uses
    reach = [math.ceil(r_cut / hx) for hx in h]
    cuts = [min(cnt - 1, m) for m, cnt in zip(reach, f.n)]
    if np.array_equal(w, np.diag(np.diag(w))):
        out = f.values
        for ax, (m, c, hx) in enumerate(zip(reach, cuts, h)):
            kernel = np.exp(-(np.arange(-m, m + 1) * hx) ** 2 / (4.0 * t * w[ax, ax]))
            kernel = kernel[m - c:m + c + 1] / kernel.sum()
            shape = [1] * f.dim
            shape[ax] = kernel.size
            out = _convolve_same(out, kernel.reshape(shape))
    else:
        w_inv = np.linalg.inv(w)

        def kernel_at(z1, z2):
            quad = w_inv[0, 0] * z1**2 + 2.0 * w_inv[0, 1] * z1 * z2 + w_inv[1, 1] * z2**2
            return np.exp(-quad / (4.0 * t))

        kernel = kernel_at(*np.meshgrid(*[np.arange(-c, c + 1) * hx for c, hx in zip(cuts, h)],
                                        indexing="ij"))
        if cuts == reach:
            total = kernel.sum()
        else:
            # the grid cuts the kernel: sum the whole truncated kernel in row blocks
            z1, z2 = [np.arange(-m, m + 1) * hx for m, hx in zip(reach, h)]
            rows = max(1, SCAN_CHUNK // z2.size)
            total = sum(kernel_at(*np.meshgrid(z1[i:i + rows], z2, indexing="ij")).sum()
                        for i in range(0, z1.size, rows))
        out = _convolve_same(f.values, kernel / total)
    return GridFunction(f.lo, f.hi, f.n, np.clip(out, 0.0, None))


class PreservationPreconditionError(ValueError):
    """The pointwise relation fails at time zero; carries offending nodes."""

    def __init__(self, nodes):
        self.nodes = [(tuple(float(c) for c in xyz), float(d)) for xyz, d in nodes]
        shown = ", ".join(f"x={tuple(round(c, 6) for c in xyz)} defect={d:.3e}"
                          for xyz, d in self.nodes[:5])
        more = "" if len(self.nodes) <= 5 else f" (+{len(self.nodes) - 5} more)"
        super().__init__(f"relation violated at t=0 at {len(self.nodes)} node(s): {shown}{more}")


@dataclass(frozen=True)
class DefectField:
    """Per-time minima of (g side) - (f side) over the scanned nodes of the input sum."""

    times: tuple[float, ...]
    min_defect: tuple[float, ...]
    argmin: tuple[tuple[float, ...], ...]
    thresholds: tuple[float, ...]
    nodes_evaluated: int
    holds: bool
    dim: int
    fields: tuple[np.ndarray, ...] | None = None

    def columns(self, prefix: str) -> list[str]:
        """One CSV column name per input coordinate: ``prefix1``, ``prefix2``, ..."""
        return [f"{prefix}{i + 1}" for i in range(self.dim)]

    def csv_rows(self) -> list[list]:
        header = ["t", "min_defect", *self.columns("argmin_x")]
        return [header] + [[t, md, *am] for t, md, am in zip(self.times, self.min_defect, self.argmin)]


def _check_flow_inputs(datum: FrblDatum, f_grids, g_grids) -> None:
    layout = datum.layout
    layout.check_shapes("grid axis counts", [(fg.dim,) for fg in f_grids],
                        [(gg.dim,) for gg in g_grids], lambda n: (n,))
    if layout.dim_in > 3:
        raise ValueError("defect scans are limited to input sums of dimension at most 3")


def _interior(datum: FrblDatum, g_grids, nodes):
    """Mask of the nodes whose every g projection lies in its grid, and the
    interpolation stencils of those projections, one per g grid."""
    projections = [nodes @ datum.out_row(j).T for j in range(len(g_grids))]
    mask = reduce(np.logical_and, [gg.contains(pts) for gg, pts in zip(g_grids, projections)])
    if not mask.all():
        projections = [pts[mask] for pts in projections]
    return mask, [gg._stencil(pts) for gg, pts in zip(g_grids, projections)]


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

    The factors are evolved first; the nodes are then visited once, in flat
    order, in chunks of ``max(1, SCAN_CHUNK // n_last)`` whole rows of the
    last scan axis, whose ``n_last`` nodes are one axis of one f grid.  A
    chunk's coordinates, g projections, interior mask and interpolation
    stencils are computed once and serve every time, because heat evolution
    keeps each grid's box: the mask does not depend on time, so
    ``nodes_evaluated`` is one count for all times, and it is applied only
    to chunks with exterior nodes.  A chunk's f side is the broadcast
    product of the factor powers at its rows.  Working memory is a few
    dozen arrays of at most ``max(SCAN_CHUNK, n_last)`` nodes plus the
    evolved grids, whatever the node count (a three-axis scan at three
    times peaks near 9.5 MB at 161^3 and 9.6 MB at 241^3 nodes); only
    ``collect_fields`` returns full-size data, one ``(nodes_evaluated,
    dim + 1)`` array per time.
    """
    _check_flow_inputs(datum, f_grids, g_grids)
    times = [float(t) for t in times]
    if any(t < 0 for t in times):
        raise ValueError("times must be nonnegative")
    if not tol >= 0:
        raise ValueError("tol must be nonnegative")

    # states[0] is time zero, for the precondition.  A failing heat step is
    # raised only after the checks of time zero and of the earlier times.
    states = [(f_grids, g_grids)]
    heat_error = None
    for t in times:
        try:
            states.append((f_grids, g_grids) if t == 0.0 else (
                [heat_step(fg, t) for fg in f_grids],
                [heat_step(gg, t) for gg in g_grids],
            ))
        except ValueError as exc:
            heat_error = exc
            break
    scanned = times[:len(states) - 1]
    f_powers = [[fg.values ** ci for fg, ci in zip(ft, datum.c)] for ft, _ in states]

    shape = tuple(cnt for fg in f_grids for cnt in fg.n)
    axes = [ax for fg in f_grids for ax in fg.axes()]
    dim, n_last = len(shape), shape[-1]
    n_rows = math.prod(shape[:-1])
    factor_axes = np.cumsum([0] + [fg.dim for fg in f_grids])

    n_nodes = 0
    g_max = [-math.inf] * len(states)
    low_nodes, low_defects = [], []  # time-zero candidates for the precondition
    min_defects = [math.inf] * len(scanned)
    argmins = [None] * len(scanned)
    finite = [True] * len(scanned)
    fields = [[] for _ in scanned]
    step = max(1, SCAN_CHUNK // n_last)  # whole rows along the last axis
    for start in range(0, n_rows, step):
        rows = np.arange(start, min(start + step, n_rows))
        row = np.unravel_index(rows, shape[:-1]) if dim > 1 else ()
        lead = [coords[i, None] for coords, i in zip(axes, row)]
        nodes = np.stack(np.broadcast_arrays(*lead, axes[-1]), axis=-1).reshape(-1, dim)
        mask, stencils = _interior(datum, g_grids, nodes)
        inside = slice(None) if mask.all() else mask  # index only when some node is exterior
        nodes = nodes[inside]
        if not len(nodes):
            continue
        n_nodes += len(nodes)
        for s, ((_, gt), fp) in enumerate(zip(states, f_powers)):
            k = s - 1  # index into the scanned times
            if s and not finite[k]:
                continue
            # factor powers at the chunk's rows, multiplied in factor order; the
            # last factor's runs along the last axis too
            f_side = reduce(np.multiply, [p[row[a:b - 1]] if b == dim else p[row[a:b]][:, None]
                                          for p, a, b in zip(fp, factor_axes, factor_axes[1:])])
            g_side = _g_side(datum, gt, stencils, shift)
            defect = g_side - f_side.ravel()[inside]
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

    thresholds = tuple(tol * (1.0 + float(g)) for g in g_max[1:])
    return DefectField(
        times=tuple(times), min_defect=tuple(min_defects), argmin=tuple(argmins),
        thresholds=thresholds, nodes_evaluated=n_nodes,
        holds=all(md >= -th for md, th in zip(min_defects, thresholds)),
        dim=datum.layout.dim_in,
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

    The integrand is the defect scan's g side, evaluated on interpolation
    stencils built once for the box, since heat evolution keeps each grid's
    box; a box node projecting outside a g grid raises.
    """
    layout = datum.layout
    if layout.k != 1 or abs(float(datum.c[0]) - 1.0) > 1e-12:
        raise ValueError("the monotone functional requires k == 1 and c == (1,)")
    layout.check_shapes("grid axis counts", out_shapes=[(gg.dim,) for gg in g_grids],
                        shape=lambda n: (n,))
    if box is None:
        box = default_integration_box(datum, g_grids)
    lo, hi, n = box
    inside, stencils = _interior(datum, g_grids, _mesh(_axes(lo, hi, n)))
    if not inside.all():
        raise ValueError("interpolation point outside the grid box")
    cell = float(np.prod([(b - a) / (cnt - 1) for a, b, cnt in zip(lo, hi, n)]))

    out = []
    for t in (float(x) for x in times):
        gt = g_grids if t == 0.0 else [heat_step(gg, t) for gg in g_grids]
        out.append((t, cell * float(np.sum(_g_side(datum, gt, stencils, 0.0)))))
    return out


def _log_evolved_at_origin(grid: GridFunction, t: float) -> float:
    """log of the identity-weight heat evolution of the grid samples at 0.

    Computed as a single kernel quadrature over the grid support, so no
    output-grid truncation is involved and arbitrarily large times work.
    """
    quad = np.sum(grid.nodes() ** 2, axis=1)
    kernel = (4.0 * math.pi * t) ** (-grid.dim / 2.0) * np.exp(-quad / (4.0 * t))
    val = float(np.sum(grid.values.ravel() * kernel)) * grid.cell_volume
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
    log_ratio = sum(
        sign * float(w) * (0.5 * grid.dim * math.log(4.0 * math.pi * t_large)
                           + _log_evolved_at_origin(grid, t_large))
        for sign, weights, grids in ((1.0, datum.c, f_grids), (-1.0, datum.d, g_grids))
        for w, grid in zip(weights, grids)
    )
    return math.exp(log_ratio)
