"""Geometric certification of forward-reverse Brascamp-Lieb data.

A datum is geometric when the weighted output pullback ``Q^T Lambda_d Q``
sits below ``Lambda_c`` in the Loewner order and some positive semidefinite
``sigma`` over the input sum has identity diagonal blocks while ``Q sigma
Q^T`` has identity diagonal blocks as well.  The second condition is a
feasibility problem over the intersection of the PSD cone with an affine
subspace; it is attacked with Dykstra-style alternating projections, the
affine projection being exact through a precomputed orthonormal basis of
the constraint row space.  The search starts at the identity and tests it
before building any constraint system: on geometric data with independent
inputs, or with a single input factor, the identity already is the answer.
The gap between the two iterates doubles as a separating matrix that
proves infeasibility when the sets lie apart.

Two matrix inequalities that geometric data satisfy (and that drive the
heat-flow preservation machinery) are exposed as direct numerical checks:
the adjoint contraction bound and the trace-domination implication.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .datum import FrblDatum, embed_blockdiag
from .linalg import DEFAULT_LOEWNER_TOL, SymMatrix, _clip_negative, _eig_map, mirror_upper
from .linalg import psd_project  # noqa: F401  (perfbench/tracing.py patches geometry.psd_project)

__all__ = [
    "AdjointContractionResult",
    "GeometricCertificate",
    "SigmaSearchResult",
    "TraceImplicationResult",
    "check_geometric",
    "check_loewner",
    "find_sigma",
    "marginal_residuals",
    "verify_adjoint_contraction",
    "verify_trace_implication",
]

DEFAULT_FEASIBILITY_TOL = 1e-8
DEFAULT_MAX_ITER = 50_000

# Scaled slack for the trace-domination conclusion.
TRACE_CONCLUSION_TOL = 1e-10


def _pullback(datum: FrblDatum, g_side: np.ndarray) -> np.ndarray:
    """``Q^T blockdiag(d_j B_j) Q`` from ``g_side = blockdiag(B_j)`` over the
    output sum (see :func:`embed_blockdiag`), of shape ``stack + (dim_out,
    dim_out)``; the result carries the stack axes.  Scaling the rows of
    factor ``j`` by ``d_j`` turns ``g_side`` into ``blockdiag(d_j B_j)``."""
    lam_d = np.repeat(datum.d, datum.layout.out_dims)[:, None]
    return datum.q.T @ (lam_d * g_side) @ datum.q


def _form_gap(datum: FrblDatum, f_side: np.ndarray, g_side: np.ndarray) -> np.ndarray:
    """The Loewner gap ``blockdiag(c_i A_i) - Q^T blockdiag(d_j B_j) Q``
    between the two sides of the relation, exactly symmetric.

    ``f_side = blockdiag(A_i)`` and ``g_side = blockdiag(B_j)`` are block
    diagonal over the input and the output sum; they may share leading
    stack axes of shape ``()`` or ``(count,)``, and the gap then carries
    them.  Identities give the gap of :func:`check_loewner`.  The
    ``c_i A_i`` are added onto the negated pullback in place.
    """
    gap = -_pullback(datum, g_side)
    gap += np.repeat(datum.c, datum.layout.in_dims)[:, None] * f_side
    return mirror_upper(gap)


def check_loewner(datum: FrblDatum, tol: float = DEFAULT_LOEWNER_TOL) -> tuple[bool, float]:
    """Check ``Q^T Lambda_d Q <= Lambda_c`` in the Loewner order, where the
    weight maps ``Lambda_c`` and ``Lambda_d`` are block diagonal with blocks
    ``c_i * id`` and ``d_j * id``.

    Returns the verdict together with the minimum eigenvalue of
    ``Lambda_c - Q^T Lambda_d Q`` (reported either way), the form gap of
    identity blocks.
    """
    layout = datum.layout
    gap = _form_gap(datum, np.eye(layout.dim_in), np.eye(layout.dim_out))
    min_eig = float(np.linalg.eigvalsh(gap)[0])
    return min_eig >= -tol, min_eig


def marginal_residuals(datum: FrblDatum, sigma: np.ndarray) -> tuple[float, float]:
    """Max Frobenius deviation of the diagonal blocks of ``sigma`` and of
    ``Q sigma Q^T`` from identities; NaN when any block norm is NaN."""
    layout = datum.layout
    residuals = []
    for mat, off in ((sigma, layout.in_offsets), (datum.q @ sigma @ datum.q.T, layout.out_offsets)):
        dev = mat - np.eye(len(mat))
        norms = [float(np.linalg.norm(dev[a:b, a:b])) for a, b in zip(off, off[1:])]
        residuals.append(math.nan if any(map(math.isnan, norms)) else max(norms))
    return tuple(residuals)


def _upper_pairs(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs ``a <= b`` with ``block[a] == block[b]``, row by row."""
    idx = np.arange(len(block))
    return np.nonzero(np.less_equal.outer(idx, idx) & np.equal.outer(block, block))


class _SigmaConstraints:
    """The affine subspace of symmetric matrices whose diagonal blocks, and
    whose pushforward diagonal blocks under ``Q . Q^T``, are identities.

    Works on the vectorized symmetric space (upper triangle, off-diagonal
    entries scaled by ``sqrt(2)``, so the Frobenius inner product becomes
    Euclidean).  Each constraint reads ``<sym(u v^T), X> = [a == b]`` for a
    pair of rows ``u = M[a]``, ``v = M[b]`` in one diagonal block, with
    ``M`` the identity on the input side and ``Q`` on the output side.

    A thin SVD of ``A^T`` gives an orthonormal basis of range(A^T) that
    drops dependent constraints (singular values at rounding level).  From
    it come the orthogonal projector ``proj`` onto range(A^T) and the
    least-norm point ``x_ls`` of the subspace, so the projection onto the
    subspace is exact per call; a least-squares residual at setup detects
    an empty subspace.
    """

    def __init__(self, datum: FrblDatum):
        layout = datum.layout
        n = layout.dim_in
        self.n = n
        self.iu = p, t = _upper_pairs(np.zeros(n))
        self.scale = np.where(p == t, 1.0, np.sqrt(2.0))
        col = np.empty((n, n), dtype=np.intp)
        col[p, t] = col[t, p] = np.arange(len(p))
        self.col = col
        self.unscale = 1.0 / self.scale[col]

        rows, rhs = [], []
        for m, dims in ((np.eye(n), layout.in_dims), (datum.q, layout.out_dims)):
            a, b = _upper_pairs(np.repeat(np.arange(len(dims)), dims))
            u, v = m[a], m[b]
            rows.append((u[:, p] * v[:, t] + v[:, p] * u[:, t]) * (0.5 * self.scale))
            rhs.append((a == b).astype(float))
        self.a = np.vstack(rows)
        self.b = np.concatenate(rhs)

        u, sv, vh = np.linalg.svd(self.a.T, full_matrices=False)
        keep = sv > sv[0] * max(self.a.shape) * np.finfo(float).eps
        basis = u[:, keep]
        self.proj = basis @ basis.T
        self.x_ls = basis @ ((vh[keep] @ self.b) / sv[keep])
        self.lstsq_residual = float(np.linalg.norm(self.a @ self.x_ls - self.b))
        self.rhs_norm = float(np.linalg.norm(self.b))

    def svec(self, s: np.ndarray) -> np.ndarray:
        return s[self.iu] * self.scale

    def smat(self, v: np.ndarray) -> np.ndarray:
        return v[self.col] * self.unscale


def _to_json(result, keys) -> dict:
    """The named fields of a result, in order, matrices as nested lists
    (null when absent)."""
    out = {}
    for key in keys:
        val = getattr(result, key)
        out[key] = val.mat.tolist() if isinstance(val, SymMatrix) else val
    return out


@dataclass(frozen=True)
class SigmaSearchResult:
    """Outcome of the alternating-projection search for ``sigma``.

    ``separator`` is set only for status ``infeasible``: a symmetric ``Y``
    in range(A^T) that proves no ``sigma`` exists (see :func:`find_sigma`).
    """

    status: str  # "found" | "infeasible" | "max-iter" | "affine-infeasible"
    sigma: SymMatrix | None
    sigma_min_eig: float
    residual_in: float
    residual_out: float
    iterations: int
    reason: str | None = None
    separator: SymMatrix | None = None

    def to_json(self) -> dict:
        return _to_json(self, ("status", "sigma", "separator", "sigma_min_eig", "residual_in",
                               "residual_out", "iterations", "reason"))


def find_sigma(
    datum: FrblDatum,
    tol: float = DEFAULT_FEASIBILITY_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> SigmaSearchResult:
    """Search for a PSD ``sigma`` with identity diagonal blocks such that
    ``Q sigma Q^T`` also has identity diagonal blocks.

    Dykstra alternating projections between the PSD cone and the affine
    constraint subspace, started from the identity (which satisfies the
    input-side constraints by construction, making runs deterministic).
    Success requires both marginal residuals at or below ``tol`` and a
    minimum eigenvalue at or above ``-tol``.  The start is tested first,
    before the constraint system is built: when both residuals of the
    identity are at or below ``tol`` (its minimum eigenvalue is exactly 1),
    the result is ``found`` with ``sigma`` the identity and ``iterations``
    0, whatever ``max_iter``, since the budget counts projections.  This
    can change a status only on data within ``tol`` of infeasible, where
    the identity meets ``tol`` but the projected iterate would not.
    Otherwise an empty affine subspace is detected via the least-squares
    residual and reported as ``affine-infeasible``.

    Each iteration also tests the gap ``Y = cone - x`` between the PSD
    iterate and its affine projection as a separator.  ``Y`` lies in
    range(A^T), so ``<X, Y>`` equals ``<X_aff, Y>`` on the whole subspace
    (``X_aff`` its least-norm point) up to the rounding part ``Y_perp`` of
    ``Y`` outside range(A^T).  A feasible ``X`` is PSD with trace
    ``dim_in``, so ``<X, Y> >= lambda_min(Y) dim_in`` and ``|X|_F <=
    dim_in``.  Hence no ``sigma`` exists when::

        <X_aff, Y> + |Y_perp| (dim_in + |X_aff|) < lambda_min(Y) dim_in

    and the search then stops with status ``infeasible`` and ``Y`` as the
    separator.  The eigenvalues of ``Y`` are computed only when
    ``<X_aff, Y> < 0``.  The test fires when the cone and the subspace lie
    at positive distance, as they do whenever they do not meet: every point
    of the subspace has trace ``dim_in``, so no datum is weakly infeasible,
    and ``max-iter`` with the final residuals only means the budget ran out.
    """
    eye = np.eye(datum.layout.dim_in)
    r_in, r_out = marginal_residuals(datum, eye)
    if r_in <= tol and r_out <= tol:
        return SigmaSearchResult("found", SymMatrix(eye), 1.0, r_in, r_out, 0)
    cons = _SigmaConstraints(datum)
    if cons.lstsq_residual > tol * (1.0 + cons.rhs_norm):
        x_ls = cons.smat(cons.x_ls)
        r_in, r_out = marginal_residuals(datum, x_ls)
        min_eig = float(np.linalg.eigvalsh(x_ls)[0])
        return SigmaSearchResult(
            "affine-infeasible", None, min_eig, r_in, r_out, 0, reason="affine-infeasible"
        )

    n = cons.n
    proj, x_aff = cons.proj, cons.x_ls
    # |X - X_aff|_F <= dim_in + |X_aff| for every feasible X
    reach = n + float(np.linalg.norm(x_aff))
    xv = cons.svec(eye)
    correction = np.zeros_like(xv)
    min_eig = -np.inf
    for iteration in range(1, max_iter + 1):
        shifted = xv + correction
        cone = cons.svec(_eig_map(cons.smat(shifted), _clip_negative))
        correction = shifted - cone
        gap = proj @ cone - x_aff
        xv = cone - gap
        x = cons.smat(xv)
        min_eig = float(np.linalg.eigvalsh(x)[0])
        if min_eig >= -tol:
            r_in, r_out = marginal_residuals(datum, x)
            if r_in <= tol and r_out <= tol:
                return SigmaSearchResult("found", SymMatrix(x), min_eig, r_in, r_out,
                                         iteration)
        offset = float(x_aff @ gap)
        if offset < 0.0:
            y = cons.smat(gap)
            bound = float(np.linalg.eigvalsh(y)[0]) * n
            # the rounding part of Y outside range(A^T) matters only near the bound
            if offset < bound and offset + np.linalg.norm(gap - proj @ gap) * reach < bound:
                r_in, r_out = marginal_residuals(datum, x)
                return SigmaSearchResult("infeasible", None, min_eig, r_in, r_out, iteration,
                                         reason="separator", separator=SymMatrix(y))
    r_in, r_out = marginal_residuals(datum, x) if max_iter > 0 else (np.inf, np.inf)
    return SigmaSearchResult("max-iter", None, min_eig, r_in, r_out, max_iter,
                             reason="max-iter")


@dataclass(frozen=True)
class GeometricCertificate:
    """Result of the full geometric check.

    ``verdict == "geometric"`` guarantees the Loewner condition holds, a
    ``sigma`` is present, both marginal residuals are at or below the
    feasibility tolerance and its minimum eigenvalue is at or above its
    negative.  ``verdict == "not-geometric-sigma"`` carries the separator
    that proves no ``sigma`` exists.
    """

    # "geometric" | "not-geometric-loewner" | "not-geometric-sigma" | "sigma-not-found"
    verdict: str
    loewner_ok: bool
    loewner_min_eig: float
    sigma: SymMatrix | None
    sigma_min_eig: float
    residual_in: float
    residual_out: float
    iterations: int
    reason: str | None = None
    separator: SymMatrix | None = None

    def to_json(self) -> dict:
        out = _to_json(self, ("verdict", "loewner_min_eig", "sigma", "separator", "residual_in",
                              "residual_out", "iterations"))
        if self.reason is not None:
            out["reason"] = self.reason
        return out


def check_geometric(
    datum: FrblDatum,
    tol: float = DEFAULT_FEASIBILITY_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> GeometricCertificate:
    """Combine the Loewner check with the ``sigma`` search.

    Deterministic for a fixed tolerance and iteration budget.  A failed
    Loewner test decides the verdict ``not-geometric-loewner`` on its own:
    the search does not run, so ``sigma`` is ``None``, ``iterations`` is 0
    and the residuals are NaN.  Otherwise the verdict follows the search:
    ``geometric`` when a ``sigma`` is found, ``not-geometric-sigma`` when
    :func:`find_sigma` returns a separator ``Y`` with
    ``<X_aff, Y> + |Y_perp| (dim_in + |X_aff|) < lambda_min(Y) dim_in``,
    and ``sigma-not-found`` when the affine subspace is empty or the budget
    runs out, which is a budget outcome only.  ``iterations == 0``
    with a ``sigma`` means the identity start already met ``tol``; with the
    residuals NaN it means the Loewner test failed.
    """
    loewner_ok, min_eig = check_loewner(datum, tol)
    if not loewner_ok:
        return GeometricCertificate("not-geometric-loewner", False, min_eig, None,
                                    math.nan, math.nan, math.nan, 0)
    search = find_sigma(datum, tol, max_iter)
    verdict = {"found": "geometric", "infeasible": "not-geometric-sigma"}.get(
        search.status, "sigma-not-found")
    # every field of the search but its status carries over under its own name
    shared = {f.name: getattr(search, f.name) for f in fields(search) if f.name != "status"}
    return GeometricCertificate(verdict=verdict, loewner_ok=True, loewner_min_eig=min_eig,
                                **shared)


class AdjointContractionResult(NamedTuple):
    lhs: float
    rhs: float
    holds: bool


def verify_adjoint_contraction(
    datum: FrblDatum, v_blocks, tol: float = 1e-10
) -> AdjointContractionResult:
    """Evaluate the contraction bound satisfied by geometric data.

    For vectors ``v^j`` in the output factors, the weighted pullback energy
    ``sum_i (1/c_i) |sum_j d_j Q[j,i]^T v^j|^2`` must not exceed
    ``sum_j d_j |v^j|^2``.  The inner sums are the input-factor segments
    of ``Q^T`` applied to the stacked ``d_j v^j``; ``holds`` allows a scaled
    slack of ``tol * (1 + rhs)``.
    """
    layout = datum.layout
    vs = [np.atleast_1d(np.asarray(v, dtype=float)) for v in v_blocks]
    layout.check_shapes("output-factor vectors", out_shapes=[v.shape for v in vs],
                        shape=lambda n: (n,))
    pulled = datum.q.T @ np.concatenate([dj * v for dj, v in zip(datum.d, vs)])
    off = layout.in_offsets
    lhs = float(sum(pulled[a:b] @ pulled[a:b] / ci for a, b, ci in zip(off, off[1:], datum.c)))
    rhs = float(sum(dj * float(v @ v) for dj, v in zip(datum.d, vs)))
    return AdjointContractionResult(lhs, rhs, lhs <= rhs + tol * (1.0 + rhs))


@dataclass(frozen=True)
class TraceImplicationResult:
    hypothesis_holds: bool
    hypothesis_min_eig: float
    conclusion_holds: bool | None
    lhs_trace: float
    rhs_trace: float

    @property
    def verdict(self) -> str:
        if not self.hypothesis_holds:
            return "hypothesis-not-met"
        if self.conclusion_holds:
            return "hypothesis-holds, conclusion-holds"
        return "hypothesis-holds, conclusion-fails"


def verify_trace_implication(
    datum: FrblDatum,
    x_blocks,
    y_blocks,
    sigma: SymMatrix,
    tol: float = DEFAULT_LOEWNER_TOL,
) -> TraceImplicationResult:
    """Check the trace-domination implication on a certified-geometric datum.

    Hypothesis: ``blockdiag(c_i X_i) <= Q^T blockdiag(d_j Y_j) Q`` in the
    Loewner order (within ``tol``).  When it holds, the weighted trace
    inequality ``sum c_i tr(X_i) <= sum d_j tr(Y_j)`` is evaluated with a
    scaled slack; when it fails the result is ``hypothesis-not-met`` and no
    claim is made.  ``sigma`` must be a marginal certificate for the datum
    (that is what makes the implication valid), which is enforced here.
    """
    layout = datum.layout
    xs = [np.asarray(x, dtype=float) for x in x_blocks]
    ys = [np.asarray(y, dtype=float) for y in y_blocks]
    layout.check_shapes("X and Y blocks", [x.shape for x in xs], [y.shape for y in ys])
    if not (np.max(marginal_residuals(datum, np.asarray(sigma))) <= 1e-6
            and sigma.min_eigenvalue() >= -1e-6):
        raise ValueError("sigma is not a marginal certificate for this datum")

    # the hypothesis is the negated form gap
    gap = _form_gap(datum, embed_blockdiag(layout.in_dims, xs), embed_blockdiag(layout.out_dims, ys))
    hyp_min_eig = float(np.linalg.eigvalsh(-gap)[0])
    hypothesis_holds = hyp_min_eig >= -tol

    lhs_trace = float(sum(ci * np.trace(x) for ci, x in zip(datum.c, xs)))
    rhs_trace = float(sum(dj * np.trace(y) for dj, y in zip(datum.d, ys)))
    conclusion = None  # no claim without the hypothesis
    if hypothesis_holds:
        scale = 1.0 + abs(lhs_trace) + abs(rhs_trace)
        conclusion = lhs_trace <= rhs_trace + TRACE_CONCLUSION_TOL * scale
    return TraceImplicationResult(hypothesis_holds, hyp_min_eig, conclusion, lhs_trace, rhs_trace)
