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
from operator import iadd, imul, ipow

import numpy as np

from .datum import FrblDatum, _numbers
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

# Nodes per chunk of the grid walk; it bounds the working memory of the
# defect scan and of the monotone functional whatever the node count.
SCAN_CHUNK = 1 << 15

# Most samples on one axis of a monotone-functional box: the walk never
# splits a row of the last axis, so this caps the nodes of a chunk.
MAX_BOX_AXIS = 1 << 15


def _check_axes(lo, hi, n) -> tuple[tuple[float, ...], tuple[float, ...], tuple[int, ...]]:
    """``(lo, hi, n)`` as float and int tuples, after the per-axis rule: one
    triple per axis, finite ``hi > lo`` and an integer count of at least two."""
    lo, hi, n = tuple(float(x) for x in lo), tuple(float(x) for x in hi), tuple(n)
    if not len(lo) == len(hi) == len(n):
        raise ValueError(f"each axis needs one (lo, hi, n) triple, got {len(lo)} lower "
                         f"bounds, {len(hi)} upper bounds and {len(n)} counts")
    for a, b, cnt in zip(lo, hi, n):
        if not isinstance(cnt, (int, np.integer)) or cnt < 2:
            raise ValueError(f"each axis needs an integer count of at least two, got {cnt!r}")
        if not b > a or not math.isfinite(b - a):
            raise ValueError("each axis needs finite bounds hi > lo")
    return lo, hi, tuple(int(cnt) for cnt in n)


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
        lo, hi, n = _check_axes(self.lo, self.hi, self.n)
        if not 1 <= len(n) <= 2:
            raise ValueError(f"grids must have one or two axes, got {len(n)}")
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

    def _stencil(self, pts: np.ndarray) -> tuple:
        """The multilinear interpolant's stencil at in-box points: the flat
        index into ``values`` of each point's lowest cell corner, and per cell
        corner its flat offset and per-axis weights.  It serves every grid of
        the same box and shape."""
        h = self.spacing
        lower, weights = [], []
        for ax in range(self.dim):
            u = pts[:, ax] - self.lo[ax]
            u /= h[ax]
            i0 = np.floor(u)
            np.clip(i0, 0, self.n[ax] - 2, out=i0)
            u -= i0  # the fraction of the cell; slightly outside [0, 1] in the eps band
            lower.append(i0.astype(np.intp))
            weights.append((1.0 - u, u))
        corners = [(0,), (1,)] if self.dim == 1 else [(0, 0), (1, 0), (0, 1), (1, 1)]
        strides = (1,) if self.dim == 1 else (self.n[1], 1)
        base = lower[0] if self.dim == 1 else iadd(lower[0] * self.n[1], lower[1])
        return base, [(int(np.dot(c, strides)), [w[k] for w, k in zip(weights, c)]) for c in corners]

    def _apply_stencil(self, stencil) -> np.ndarray:
        """This grid's multilinear interpolant on a stencil from :meth:`_stencil`:
        the sum over corners of ``value * weight_x1 * weight_x2``, evaluated
        left to right (another order changes the last bits of the result)."""
        base, corners = stencil
        flat = self.values.ravel()
        return reduce(iadd, (reduce(imul, w, np.take(flat[offset:], base)) for offset, w in corners))


def grid_to_json(grid: GridFunction) -> dict:
    return {"lo": list(grid.lo), "hi": list(grid.hi), "n": list(grid.n),
            "values": grid.values.ravel().tolist()}


def grid_from_json(obj: dict) -> GridFunction:
    try:
        lo, hi = (_numbers(obj[key], f"grid {key}") for key in ("lo", "hi"))
        lo, hi, n = _check_axes(lo, hi, obj["n"])
        return GridFunction(lo, hi, n, _numbers(obj["values"], "grid values").reshape(n))
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
    f_shapes = None if f_grids is None else [(fg.dim,) for fg in f_grids]
    layout.check_shapes("grid axis counts", f_shapes, [(gg.dim,) for gg in g_grids], lambda n: (n,))
    if layout.dim_in > 3:
        raise ValueError("grid scans are limited to input sums of dimension at most 3")


def _interior(datum: FrblDatum, g_grids, nodes):
    """Mask of the nodes whose every g projection lies in its grid, and the
    interpolation stencils of those projections, one per g grid."""
    projections = [nodes @ datum.out_row(j).T for j in range(len(g_grids))]
    mask = reduce(np.logical_and, [gg.contains(pts) for gg, pts in zip(g_grids, projections)])
    if not mask.all():
        projections = [pts[mask] for pts in projections]
    return mask, [gg._stencil(pts) for gg, pts in zip(g_grids, projections)]


def _walk(datum: FrblDatum, g_grids, axes):
    """The nodes of the product of the 1-D ``axes``, last axis fastest, in
    chunks of ``max(1, SCAN_CHUNK // n_last)`` whole rows of the last axis.

    Yields per chunk its rows' indices into the leading axes, its ``(N, dim)``
    nodes, and :func:`_interior`'s mask and stencils, which serve every heat
    evolution of ``g_grids`` since evolution keeps each box.  Working memory
    is a few dozen arrays of ``max(SCAN_CHUNK, n_last)`` nodes at most."""
    shape = tuple(len(ax) for ax in axes)
    dim, n_rows = len(shape), math.prod(shape[:-1])
    step = max(1, SCAN_CHUNK // shape[-1])
    for start in range(0, n_rows, step):
        rows = np.arange(start, min(start + step, n_rows))
        row = np.unravel_index(rows, shape[:-1]) if dim > 1 else ()
        nodes = np.empty((len(rows), shape[-1], dim))
        for ax, coords in enumerate([*(c[i, None] for c, i in zip(axes, row)), axes[-1]]):
            nodes[..., ax] = coords
        nodes = nodes.reshape(-1, dim)
        yield (row, nodes, *_interior(datum, g_grids, nodes))


def _g_side(datum: FrblDatum, g_grids, stencils, shift: float) -> np.ndarray:
    """``prod_j (g_j + shift)^{d_j}`` at the points of the stencils, each pass
    in place on the interpolant it starts from, in factor order."""
    parts = (iadd(gg._apply_stencil(st), shift) for gg, st in zip(g_grids, stencils))
    # x ** 1.0 is x, so unit exponents skip the power
    return reduce(imul, (p if dj == 1.0 else ipow(p, float(dj)) for p, dj in zip(parts, datum.d)))


def _sides_at_nodes(datum: FrblDatum, f_grids, g_grids, nodes, shift: float):
    """The f side at every node of the full product grid, the g side and the
    interior mask: one scan chunk as a whole grid, timed by ``perfbench``."""
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

    The factors are evolved first; each time keeps its f powers and g grids.
    The nodes are then walked once by :func:`_walk`, and a chunk's f side is
    the broadcast product of the powers at its rows.  The interior mask does
    not depend on time, so ``nodes_evaluated`` is one count for all times.
    Working memory is the walk's plus those powers and grids (the 401^2
    young-frame scan at three times peaks near 15 MB, the 161^3 three-axis
    one near 6 MB); only ``collect_fields`` returns full-size data, one
    ``(nodes_evaluated, dim + 1)`` array per time.
    """
    _check_flow_inputs(datum, f_grids, g_grids)
    times = [float(t) for t in times]
    if any(t < 0 for t in times):
        raise ValueError("times must be nonnegative")
    if not tol >= 0:
        raise ValueError("tol must be nonnegative")

    # states[0] is time zero, for the precondition.  A failing heat step is
    # raised only after the checks of time zero and of the earlier times.
    states = [([fg.values ** ci for fg, ci in zip(f_grids, datum.c)], g_grids)]
    heat_error = None
    for t in times:
        try:
            states.append(states[0] if t == 0.0 else (
                [heat_step(fg, t).values ** ci for fg, ci in zip(f_grids, datum.c)],
                [heat_step(gg, t) for gg in g_grids],
            ))
        except ValueError as exc:
            heat_error = exc
            break
    scanned = times[:len(states) - 1]

    axes = [ax for fg in f_grids for ax in fg.axes()]
    dim = len(axes)
    factor_axes = np.cumsum([0] + [fg.dim for fg in f_grids])
    n_nodes = 0
    g_max = [-math.inf] * len(states)
    low_nodes, low_defects = [], []  # time-zero candidates for the precondition
    min_defects = [math.inf] * len(scanned)
    argmins = [None] * len(scanned)
    finite = [True] * len(scanned)
    fields = [[] for _ in scanned]
    for row, nodes, mask, stencils in _walk(datum, g_grids, axes):
        inside = slice(None) if mask.all() else mask  # index only when some node is exterior
        nodes = nodes[inside]
        if not len(nodes):
            continue
        n_nodes += len(nodes)
        for s, (fp, gt) in enumerate(states):
            # factor powers at the chunk's rows, multiplied in factor order; the
            # last factor's runs along the last axis too
            f_side = reduce(np.multiply, [p[row[a:b - 1]] if b == dim else p[row[a:b]][:, None]
                                          for p, a, b in zip(fp, factor_axes, factor_axes[1:])])
            g_side = _g_side(datum, gt, stencils, shift)
            g_top = g_side.max()
            g_max[s] = np.maximum(g_max[s], g_top)
            defect = np.subtract(g_side, f_side.ravel()[inside], out=g_side)
            if s == 0:
                # the final threshold can only be larger, so this keeps every violation
                low = defect < -tol * (1.0 + float(g_max[0]))
                low_nodes.append(nodes[low])
                low_defects.append(defect[low])
                continue
            k = s - 1  # index into the scanned times
            i_min = int(np.argmin(defect))
            # argmin finds the first NaN and -inf; a +inf defect needs a +inf g side
            if not (np.isfinite(defect[i_min]) and np.isfinite(g_top)):
                finite[k] = False
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


def default_integration_box(datum: FrblDatum, g_grids):
    """A 101-per-axis box over the input sum whose projections stay inside every g grid."""
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
        (101,) * dim0,
    )


def monotone_functional(
    datum: FrblDatum, g_grids, times, box=None
) -> list[tuple[float, float]]:
    """Values of ``t -> integral over the input sum of prod_j (evolved g_j)^{d_j}(Q_j x)``.

    Only defined for single-input data with unit weight (``k == 1``,
    ``c == (1,)``) and at most three input axes; nondecreasing in ``t`` for
    geometric data.  ``box`` is ``(lo, hi, n)`` for the integration grid, one
    triple per input axis; by default it is sized so all projections stay
    inside the g grids.

    The g grids are evolved for every time first, then the integrand (the
    scan's g side) is summed over the :func:`_walk` of the box; a box node
    projecting outside a g grid raises.
    """
    layout = datum.layout
    if layout.k != 1 or abs(float(datum.c[0]) - 1.0) > 1e-12:
        raise ValueError("the monotone functional requires k == 1 and c == (1,)")
    _check_flow_inputs(datum, None, g_grids)
    lo, hi, n = _check_axes(*(default_integration_box(datum, g_grids) if box is None else box))
    if len(n) != layout.dim_in:
        raise ValueError(f"the box has {len(n)} axes; the input sum has {layout.dim_in}")
    if max(n) > MAX_BOX_AXIS:
        raise ValueError(f"a box axis takes at most {MAX_BOX_AXIS} samples, got {max(n)}")
    times = [float(t) for t in times]
    evolved = [g_grids if t == 0.0 else [heat_step(gg, t) for gg in g_grids] for t in times]
    sums = [0.0] * len(times)
    for _, _, inside, stencils in _walk(datum, g_grids, _axes(lo, hi, n)):
        if not inside.all():
            raise ValueError("interpolation point outside the grid box")
        for k, gt in enumerate(evolved):
            sums[k] += float(np.sum(_g_side(datum, gt, stencils, 0.0)))
    cell = float(np.prod([(b - a) / (cnt - 1) for a, b, cnt in zip(lo, hi, n)]))
    return [(t, cell * total) for t, total in zip(times, sums)]


def _log_evolved_at_origin(grid: GridFunction, t: float) -> float:
    """log of ``(4 pi t)^{dim/2}`` times the identity-weight heat evolution
    of the grid samples at 0.

    A single quadrature against ``exp(-|x|^2 / 4t)`` over the grid support,
    so no output-grid truncation is involved and arbitrarily large times work.
    """
    quad = np.sum(grid.nodes() ** 2, axis=1)
    val = float(np.sum(grid.values.ravel() * np.exp(-quad / (4.0 * t)))) * grid.cell_volume
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
        sign * float(w) * _log_evolved_at_origin(grid, t_large)
        for sign, weights, grids in ((1.0, datum.c, f_grids), (-1.0, datum.d, g_grids))
        for w, grid in zip(weights, grids)
    )
    return math.exp(log_ratio)
