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

import contextvars
import math
import os
import threading
from dataclasses import dataclass
from functools import reduce
from operator import imul

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

    def interpolate(self, pts: np.ndarray) -> np.ndarray:
        """Multilinear interpolation at points of shape ``(N, dim)``; a point
        outside the eps-widened box of :meth:`_Stencil.inside` raises."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if pts.shape[1] != self.dim:
            raise ValueError(f"points have dim {pts.shape[1]}, grid has dim {self.dim}")
        stencil = _Stencil(self, len(pts))
        mask, flag = np.ones((2, len(pts)), dtype=bool)
        stencil.inside(pts, mask, flag)
        if not mask.all():
            raise ValueError("interpolation point outside the grid box")
        out, scratch = np.empty((2, len(pts)))
        stencil.fill(pts, scratch)
        return stencil.apply(self.values, out, scratch)


class _Stencil:
    """The multilinear interpolant's stencil at up to ``size`` points of one
    grid box, in buffers allocated once: per point the flat index into the
    values of its lowest cell corner, and per axis the weights ``1 - u`` and
    ``u`` of the cell fraction ``u``.  It serves every grid of the box's
    shape, so every heat evolution of a grid.  Its arrays and those it is
    given are written with ``out=`` only."""

    def __init__(self, grid: GridFunction, size: int):
        self.lo, self.h, self.n = grid.lo, grid.spacing, grid.n
        eps = [_BOUND_EPS * (b - a) for a, b in zip(grid.lo, grid.hi)]
        # the closed grid box widened by eps on every side
        self.bounds = [(a - e, b + e) for a, b, e in zip(grid.lo, grid.hi, eps)]
        self.base = np.empty(size, dtype=np.intp)
        self.weights = np.empty((grid.dim, 2, size))
        # per cell corner its flat offset and the weight index of each axis
        self.corners = ([(0, (0,)), (1, (1,))] if grid.dim == 1 else
                        [(0, (0, 0)), (self.n[1], (1, 0)), (1, (0, 1)), (self.n[1] + 1, (1, 1))])

    def inside(self, pts: np.ndarray, mask: np.ndarray, flag: np.ndarray) -> None:
        """Clear ``mask`` where a point of ``pts`` lies outside the box."""
        for ax, (a, b) in enumerate(self.bounds):
            mask &= np.greater_equal(pts[:, ax], a, out=flag)
            mask &= np.less_equal(pts[:, ax], b, out=flag)

    def fill(self, pts: np.ndarray, scratch: np.ndarray) -> None:
        """The stencil at the in-box points ``pts``; ``scratch`` holds at
        least ``len(pts)`` floats.  The cell fraction is clamped to [0, 1],
        so a point in the eps band outside the box takes the edge value."""
        self.count = k = len(pts)
        base, lower = self.base[:k], scratch[:k]
        base.fill(0)
        for ax, (w, u) in enumerate(self.weights[:, :, :k]):
            np.subtract(pts[:, ax], self.lo[ax], out=u)
            u /= self.h[ax]
            np.floor(u, out=lower)
            np.clip(lower, 0, self.n[ax] - 2, out=lower)
            u -= lower
            np.clip(u, 0.0, 1.0, out=u)
            np.subtract(1.0, u, out=w)
            base *= self.n[ax]
            np.add(base, lower, out=base, casting="unsafe")

    def apply(self, values: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
        """The interpolant of ``values`` (a grid of this box's shape) at the
        stencil's points, in ``out[:count]``: the sum over corners of
        ``value * weight_x1 * weight_x2``, evaluated left to right (another
        order changes the last bits of the result)."""
        k = self.count
        flat, base = values.ravel(), self.base[:k]
        out, scratch = out[:k], scratch[:k]
        for c, (offset, sides) in enumerate(self.corners):
            corner = scratch if c else out
            # every index is in range; mode="raise" would copy through a temporary
            np.take(flat[offset:], base, out=corner, mode="clip")
            for ax, side in enumerate(sides):
                corner *= self.weights[ax, side, :k]
            if c:
                out += corner
        return out


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
    if not t > 0:
        raise ValueError(f"evolution time must be positive, got {t}")
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


class _Workspace:
    """The buffers of one chunk of at most ``size`` nodes of a grid walk:
    its nodes, their projections onto the g grids, the interior mask, the
    stencils, and three float arrays for the sides of the relation.  A chunk
    writes every chunk-sized array into these; only the indices of the
    interior nodes of a chunk that has exterior ones are allocated."""

    def __init__(self, size: int, dim: int, g_grids):
        self.nodes, self.inner = np.empty((2, size, dim))
        self.proj = [np.empty((size, gg.dim)) for gg in g_grids]
        self.points = np.empty((size, max(gg.dim for gg in g_grids)))  # one grid's, compressed
        self.mask, self.flag = np.empty((2, size), dtype=bool)
        self.side, self.part, self.scratch = np.empty((3, size))
        self.stencils = [_Stencil(gg, size) for gg in g_grids]
        self.index = None  # the interior nodes' indices; None when every node is interior

    def interior(self, rows_t, count: int) -> np.ndarray:
        """Project the first ``count`` nodes by the transposed rows of ``Q``
        (one per g grid), keep those whose every projection lies in its grid
        box and fill the stencils there; returns the interior nodes."""
        nodes, mask, flag = self.nodes[:count], self.mask[:count], self.flag[:count]
        mask.fill(True)
        proj = [np.matmul(nodes, q_t, out=p[:count]) for q_t, p in zip(rows_t, self.proj)]
        for st, pts in zip(self.stencils, proj):
            st.inside(pts, mask, flag)
        self.index = None if mask.all() else np.flatnonzero(mask)
        if self.index is not None:
            nodes = self.compress(nodes, self.inner)
        for st, pts in zip(self.stencils, proj):
            st.fill(pts if self.index is None else self.compress(pts, self.points), self.scratch)
        return nodes

    def compress(self, a: np.ndarray, buf: np.ndarray) -> np.ndarray:
        """The rows of ``a`` at the interior nodes, in the front of ``buf``."""
        out = buf.reshape(-1)[:len(self.index) * a.shape[1]].reshape(-1, a.shape[1])
        return np.take(a, self.index, axis=0, out=out, mode="clip")

    def g_side(self, g_grids, d, shift: float) -> np.ndarray:
        """``prod_j (g_j + shift)^{d_j}`` at the interior nodes, each factor in
        place on its interpolant, multiplied in factor order."""
        side = None
        for gg, st, dj in zip(g_grids, self.stencils, d):
            part = st.apply(gg.values, self.part if side is not None else self.side, self.scratch)
            part += shift
            if dj != 1.0:  # x ** 1.0 is x
                part **= float(dj)
            side = part if side is None else imul(side, part)
        return side

    def f_side(self, powers, row, factor_axes) -> np.ndarray:
        """The product of the f factors' ``powers`` at the interior nodes of
        the chunk whose rows of the leading axes are ``row``, in factor order.

        Each factor but the last takes one value per row; the last factor's
        values run along the last axis too."""
        *firsts, last = powers
        shape = (len(row[0]) if row else 1, last.shape[-1])
        out = self.scratch[:math.prod(shape)].reshape(shape)
        if last.ndim == 2:
            last = np.take(last, row[factor_axes[-2]], axis=0, out=out, mode="clip")
        per_row = [p[row[a:b]][:, None] for p, a, b in zip(firsts, factor_axes, factor_axes[1:])]
        if per_row:  # the product of two factors is the same in either order
            last = np.multiply(reduce(np.multiply, per_row), last, out=out)
        out = last.ravel()  # with one axis in all, the chunk is the whole axis
        if self.index is None:
            return out
        return np.take(out, self.index, out=self.part[:len(self.index)], mode="clip")


def _threads() -> int:
    """Two threads for a grid walk where the process may run on two CPUs or
    more, else one."""
    return 2 if hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2 else 1


def _walk(datum: FrblDatum, g_grids, axes, scan) -> list:
    """``scan(nodes, row, workspace)`` on every chunk of the product of the
    1-D ``axes``, last axis fastest; returns its results in chunk order.

    A chunk is ``max(1, SCAN_CHUNK // n_last)`` whole rows of the last axis.
    ``row`` holds its rows' indices into the leading axes and ``nodes`` its
    interior nodes: those whose every projection lies in its g grid.  The
    workspace holds the chunk's nodes, mask and stencils at those nodes,
    which serve every heat evolution of ``g_grids`` since evolution keeps
    each box.  ``scan`` returns ``None`` for a chunk without interior nodes.

    With two CPUs or more, a worker thread takes every other chunk; each
    thread works in its own workspace, which this thread allocates before the
    walk, and the worker joins before the walk returns.  ``scan`` then runs
    on both threads, so it must not call what a tracer may wrap, such as
    :func:`heat_step` or :meth:`GridFunction.interpolate`.  Working memory is
    a few dozen arrays of ``max(SCAN_CHUNK, n_last)`` nodes per thread."""
    shape = tuple(len(ax) for ax in axes)
    dim, n_rows = len(shape), math.prod(shape[:-1])
    step = max(1, SCAN_CHUNK // shape[-1])
    starts = range(0, n_rows, step)
    rows_t = [datum.out_row(j).T for j in range(len(g_grids))]
    size = min(step, n_rows) * shape[-1]
    spaces = [_Workspace(size, dim, g_grids) for _ in range(min(_threads(), len(starts)))]
    results, errors = [None] * len(starts), []

    def chunk(ws, start):
        rows = np.arange(start, min(start + step, n_rows))
        row = np.unravel_index(rows, shape[:-1]) if dim > 1 else ()
        count = len(rows) * shape[-1]
        grid = ws.nodes[:count].reshape(len(rows), shape[-1], dim)
        for ax, coords in enumerate([*(c[i, None] for c, i in zip(axes, row)), axes[-1]]):
            grid[..., ax] = coords
        nodes = ws.interior(rows_t, count)
        return scan(nodes, row, ws) if len(nodes) else None

    def run(thread):
        # every other chunk up to this thread's first failure; the exception
        # of the first failing chunk in order is raised after the join
        for i in range(thread, len(starts), len(spaces)):
            try:
                results[i] = chunk(spaces[thread], starts[i])
            except BaseException as exc:
                errors.append((i, exc))
                return

    # the worker runs in a copy of this thread's context, so numpy's error
    # state (np.errstate) is the same on both threads
    workers = [threading.Thread(target=contextvars.copy_context().run, args=(run, t))
               for t in range(1, len(spaces))]
    for w in workers:
        w.start()
    try:
        run(0)
    finally:
        for w in workers:
            w.join()
    if errors:
        raise min(errors, key=lambda e: e[0])[1]
    return results


def _sides_at_nodes(datum: FrblDatum, f_grids, g_grids, nodes, shift: float):
    """The f side at every node of the full product grid, the g side and the
    interior mask: one scan chunk as a whole grid, timed by ``perfbench``."""
    f_side = reduce(np.multiply.outer, [fg.values ** ci for fg, ci in zip(f_grids, datum.c)])
    ws = _Workspace(len(nodes), nodes.shape[1], g_grids)
    ws.nodes[:] = nodes
    ws.interior([datum.out_row(j).T for j in range(len(g_grids))], len(nodes))
    return f_side.ravel(), ws.g_side(g_grids, datum.d, shift), ws.mask


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
    The nodes are then walked once by :func:`_walk`, on two threads where
    two CPUs are available, and a chunk's f side is the broadcast product of
    the powers at its rows.  The chunks' minima, maxima, time-zero violations
    and fields are merged as arrays in chunk order, so the result does not
    depend on the thread count.  The interior mask does not depend on time,
    so ``nodes_evaluated`` is one count for all times.  Working memory is
    the walk's plus those powers and grids (traced peaks: the 401^2
    young-frame scan at three times near 15 MB, the 161^3 three-axis one
    near 8 MB on two threads and 5 MB on one); only ``collect_fields``
    returns full-size data, one ``(nodes_evaluated, dim + 1)`` array per
    time.
    """
    _check_flow_inputs(datum, f_grids, g_grids)
    times = [float(t) for t in times]
    if any(not (time := t) >= 0 for t in times):
        raise ValueError(f"times must be nonnegative, got {time}")
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

    factor_axes = np.cumsum([0] + [fg.dim for fg in f_grids])

    def scan(nodes, row, ws):
        # per state the g maximum, then the time-zero candidates (filtered
        # against this chunk's threshold, which the final one can only
        # exceed) or per time the first minimum, its node and the field
        tops, least, where, fields = [], [], [], []
        for s, (fp, gt) in enumerate(states):
            defect = ws.g_side(gt, datum.d, shift)
            tops.append(defect.max())
            np.subtract(defect, ws.f_side(fp, row, factor_axes), out=defect)
            if s == 0:
                low = np.less(defect, -tol * (1.0 + float(tops[0])), out=ws.flag[:len(nodes)])
                candidates = nodes[low], defect[low]
                continue
            i_min = int(np.argmin(defect))
            least.append(float(defect[i_min]))
            where.append(tuple(float(x) for x in nodes[i_min]))
            fields.append(np.column_stack([nodes, defect]) if collect_fields else None)
        return len(nodes), tops, candidates, least, where, fields

    axes = [ax for fg in f_grids for ax in fg.axes()]
    chunks = [result for result in _walk(datum, g_grids, axes, scan) if result is not None]
    if not chunks:
        raise ValueError("no scan node projects inside every g grid; widen the g grids")
    counts, tops, lows, least, where, fields = zip(*chunks)
    # chunks x states and chunks x times; a NaN or -inf defect is its chunk's
    # first minimum, and a +inf one needs a +inf g maximum
    g_max, least = np.max(tops, axis=0), np.array(least)
    threshold0 = tol * (1.0 + float(g_max[0]))
    low_nodes, low_defects = (np.concatenate(part) for part in zip(*lows))
    bad = low_defects < -threshold0
    if bad.any():
        raise PreservationPreconditionError(
            [(tuple(x), float(d)) for x, d in zip(low_nodes[bad], low_defects[bad])]
        )
    for t, ok in zip(scanned, np.isfinite(least).all(axis=0) & np.isfinite(g_max[1:])):
        if not ok:
            raise ValueError(f"non-finite defect values at t={t}")
    if heat_error is not None:
        raise heat_error

    first = list(enumerate(np.argmin(least, axis=0)))  # the first minimum in chunk order
    min_defects = tuple(float(least[c, k]) for k, c in first)
    thresholds = tuple(tol * (1.0 + float(g)) for g in g_max[1:])
    return DefectField(
        times=tuple(times), min_defect=min_defects, argmin=tuple(where[c][k] for k, c in first),
        thresholds=thresholds, nodes_evaluated=sum(counts),
        holds=all(md >= -th for md, th in zip(min_defects, thresholds)),
        dim=datum.layout.dim_in,
        fields=tuple(map(np.concatenate, zip(*fields))) if collect_fields else None,
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

    def scan(nodes, row, ws):
        if ws.index is not None:
            return None
        return [float(np.sum(ws.g_side(gt, datum.d, 0.0))) for gt in evolved]

    sums = [0.0] * len(times)
    for chunk_sums in _walk(datum, g_grids, _axes(lo, hi, n), scan):
        if chunk_sums is None:
            raise ValueError("interpolation point outside the grid box")
        sums = [total + part for total, part in zip(sums, chunk_sums)]
    cell = float(np.prod([(b - a) / (cnt - 1) for a, b, cnt in zip(lo, hi, n)]))
    return [(t, cell * total) for t, total in zip(times, sums)]


def _log_evolved_at_origin(grid: GridFunction, t: float) -> float:
    """log of ``(4 pi t)^{dim/2}`` times the identity-weight heat evolution
    of the grid samples at 0.

    A single quadrature against ``exp(-|x|^2 / 4t)`` over the grid support,
    so no output-grid truncation is involved and arbitrarily large times work.
    """
    quad = reduce(np.add.outer, [ax**2 for ax in grid.axes()])
    val = float(np.sum(grid.values * np.exp(-quad / (4.0 * t)))) * grid.cell_volume
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
    if not t_large > 0:
        raise ValueError(f"t_large must be positive, got {t_large}")
    log_ratio = sum(
        sign * float(w) * _log_evolved_at_origin(grid, t_large)
        for sign, weights, grids in ((1.0, datum.c, f_grids), (-1.0, datum.d, g_grids))
        for w, grid in zip(weights, grids)
    )
    return math.exp(log_ratio)
