"""Closed-form calculus for centred Gaussian functions.

A centred Gaussian here is ``x -> exp(l - <A x, x>)`` with ``A`` positive
definite; the log prefactor ``l`` is carried so the family stays closed
under heat evolution without overflowing double precision (the kernel
normalisations grow like powers of ``t``).  Everything in this module is
exact up to rounding: integrals, heat evolution under weighted Laplacians,
the pointwise domination check, inequality ratios, extremizer verdicts and
the long-time rescaled limit.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass

import numpy as np

from .datum import (
    EquivalenceTransform,
    FrblDatum,
    apply_equivalence,
    embed_blockdiag,
)
from .geometry import GeometricCertificate, check_geometric
from .linalg import SymMatrix, sqrt_psd

__all__ = [
    "CenteredGaussian",
    "ExtremizerVerdict",
    "GaussianTuple",
    "RelationResult",
    "evolve_tuple",
    "extremizer_check",
    "frbl_ratio",
    "gaussian_integral",
    "geometrize_from_extremizers",
    "heat_evolve",
    "log_frbl_ratio",
    "log_gaussian_integral",
    "long_time_limit",
    "random_admissible_tuple",
    "relation_check",
    "rescaled_heat_value",
    "tuple_from_json",
    "tuple_to_json",
]

PD_TOL = 1e-12
DEFAULT_RELATION_TOL = 1e-9


def _require_pd(min_eig: float, what: str) -> None:
    if min_eig <= PD_TOL:
        raise ValueError(f"{what} must be positive definite (min eigenvalue {min_eig:.3e})")


@dataclass(frozen=True)
class CenteredGaussian:
    """``x -> exp(log_prefactor - <form x, x>)`` with a positive definite form."""

    form: SymMatrix
    log_prefactor: float = 0.0
    # the form's minimum eigenvalue, when the caller already knows it; the
    # positive definiteness check then needs no eigenvalue solve
    min_eig: InitVar[float | None] = None

    def __post_init__(self, min_eig):
        _require_pd(self.form.min_eigenvalue() if min_eig is None else min_eig, "Gaussian form")
        object.__setattr__(self, "log_prefactor", float(self.log_prefactor))
        if not math.isfinite(self.log_prefactor):
            raise ValueError("log_prefactor must be finite")

    @classmethod
    def standard(cls, dim: int) -> "CenteredGaussian":
        """The unit-form Gaussian ``exp(-|x|^2)``."""
        return cls(SymMatrix.identity(dim))

    @property
    def space_dim(self) -> int:
        return self.form.dim

    def log_value(self, x) -> float:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return self.log_prefactor - float(x @ self.form.mat @ x)

    def value(self, x) -> float:
        return math.exp(self.log_value(x))


def log_gaussian_integral(g: CenteredGaussian) -> float:
    """``log integral = l + (n/2) log pi - (1/2) log det(form)``."""
    w = np.linalg.eigvalsh(g.form.mat)
    return g.log_prefactor + 0.5 * (g.space_dim * math.log(math.pi) - float(np.sum(np.log(w))))


def gaussian_integral(g: CenteredGaussian) -> float:
    """The integral over the whole space, computed in log space."""
    return math.exp(log_gaussian_integral(g))


def heat_evolve(g: CenteredGaussian, t: float, a_weight: SymMatrix | None = None) -> CenteredGaussian:
    """Evolve a Gaussian for time ``t`` under the weighted Laplacian with
    positive definite weight ``a_weight`` (identity when omitted).

    Closed form of the kernel convolution: the form becomes
    ``inv(inv(B) + 4 t W)`` and the log prefactor drops by
    ``(1/2) log det(id + 4 t W B)``.  With ``sqrt(W) B sqrt(W) = U diag(mu) U^T``
    the new form is ``M diag(mu / (1 + 4 t mu)) M^T`` for ``M = W^{-1/2} U``
    and the determinant is ``prod (1 + 4 t mu)``, so one eigendecomposition
    (two with a weight) serves both and large ``t`` stays stable.  Without a
    weight ``M`` is orthogonal, so ``mu / (1 + 4 t mu)`` are the new form's
    eigenvalues and its positive definiteness check needs no second solve.
    """
    if t <= 0:
        raise ValueError("evolution time must be positive")
    b = g.form.mat
    if a_weight is None:
        mu, m = np.linalg.eigh(b)
    else:
        if a_weight.dim != g.space_dim:
            raise ValueError(f"weight dim {a_weight.dim} does not match Gaussian dim {g.space_dim}")
        w, v = np.linalg.eigh(a_weight.mat)
        _require_pd(float(w[0]), "heat weight")
        sqrt_w = np.sqrt(w)
        root = (v * sqrt_w) @ v.T
        mu, u = np.linalg.eigh(root @ b @ root)
        m = (v / sqrt_w) @ (v.T @ u)
    spread = 4.0 * t * mu
    nu = mu / (1.0 + spread)
    log_det = float(np.log1p(spread).sum())
    min_eig = float(nu.min()) if a_weight is None else None
    return CenteredGaussian(SymMatrix((m * nu) @ m.T), g.log_prefactor - 0.5 * log_det, min_eig)


@dataclass(frozen=True)
class GaussianTuple:
    """Gaussians ``f_i`` on the input factors and ``g_j`` on the output factors."""

    f: tuple[CenteredGaussian, ...]
    g: tuple[CenteredGaussian, ...]

    def __post_init__(self):
        object.__setattr__(self, "f", tuple(self.f))
        object.__setattr__(self, "g", tuple(self.g))

    def check_layout(self, datum: FrblDatum) -> None:
        layout = datum.layout
        if len(self.f) != layout.k or len(self.g) != layout.m:
            raise ValueError("tuple length does not match the datum layout")
        for i, gf in enumerate(self.f):
            if gf.space_dim != layout.in_dims[i]:
                raise ValueError(f"f[{i}] has dim {gf.space_dim}, expected {layout.in_dims[i]}")
        for j, gg in enumerate(self.g):
            if gg.space_dim != layout.out_dims[j]:
                raise ValueError(f"g[{j}] has dim {gg.space_dim}, expected {layout.out_dims[j]}")


def tuple_to_json(tup: GaussianTuple) -> dict:
    def enc(g: CenteredGaussian) -> dict:
        return {"log_prefactor": g.log_prefactor, "form": g.form.mat.tolist()}

    return {"f": [enc(x) for x in tup.f], "g": [enc(x) for x in tup.g]}


def tuple_from_json(obj: dict) -> GaussianTuple:
    def dec(entry: dict) -> CenteredGaussian:
        return CenteredGaussian(SymMatrix(entry["form"]), float(entry.get("log_prefactor", 0.0)))

    try:
        return GaussianTuple(tuple(dec(e) for e in obj["f"]), tuple(dec(e) for e in obj["g"]))
    except KeyError as exc:
        raise ValueError(f"tuple JSON missing key {exc}") from exc


def evolve_tuple(
    tup: GaussianTuple,
    t: float,
    in_weights=None,
    out_weights=None,
) -> GaussianTuple:
    """Evolve every component for time ``t``.

    Identity-weight Laplacians by default; explicit per-factor weight lists
    select the weighted flows (matching non-geometric data that are
    equivalent to geometric ones).
    """
    if in_weights is None:
        in_weights = [None] * len(tup.f)
    if out_weights is None:
        out_weights = [None] * len(tup.g)
    return GaussianTuple(
        tuple(heat_evolve(g, t, w) for g, w in zip(tup.f, in_weights, strict=True)),
        tuple(heat_evolve(g, t, w) for g, w in zip(tup.g, out_weights, strict=True)),
    )


@dataclass(frozen=True)
class RelationResult:
    """Outcome of the pointwise domination check for a Gaussian tuple.

    ``form_gap_min_eig`` is the minimum eigenvalue of (f-side form) minus
    (g-side pullback form); ``prefactor_gap`` is (weighted g prefactors)
    minus (weighted f prefactors).  Both must be above ``-tol`` for the
    relation to hold at every point.
    """

    holds: bool
    form_gap_min_eig: float
    prefactor_gap: float


def relation_check(
    datum: FrblDatum, tup: GaussianTuple, tol: float = DEFAULT_RELATION_TOL
) -> RelationResult:
    """Check ``prod f_i^{c_i}(pi_i x) <= prod g_j^{d_j}(pi^j Q x)`` for all x.

    For Gaussians this is equivalent to a Loewner inequality between the
    weighted quadratic forms plus a scalar inequality between the weighted
    log prefactors.
    """
    tup.check_layout(datum)
    layout = datum.layout
    p = embed_blockdiag(
        layout.in_dims, [ci * gf.form.mat for ci, gf in zip(datum.c, tup.f)]
    )
    s = datum.q.T @ embed_blockdiag(
        layout.out_dims, [dj * gg.form.mat for dj, gg in zip(datum.d, tup.g)]
    ) @ datum.q
    min_eig = float(np.linalg.eigvalsh(SymMatrix(p - s).mat)[0])
    # numpy scalars, so an overflowing difference obeys np.errstate
    a = sum(ci * gf.log_prefactor for ci, gf in zip(datum.c, tup.f))
    b = sum(dj * gg.log_prefactor for dj, gg in zip(datum.d, tup.g))
    gap = float(b - a)
    return RelationResult(min_eig >= -tol and gap >= -tol, min_eig, gap)


def log_frbl_ratio(datum: FrblDatum, tup: GaussianTuple) -> float:
    """``sum c_i log(int f_i) - sum d_j log(int g_j)``."""
    tup.check_layout(datum)
    num = sum(ci * log_gaussian_integral(gf) for ci, gf in zip(datum.c, tup.f))
    den = sum(dj * log_gaussian_integral(gg) for dj, gg in zip(datum.d, tup.g))
    return float(num - den)


def frbl_ratio(datum: FrblDatum, tup: GaussianTuple) -> float:
    """``prod (int f_i)^{c_i} / prod (int g_j)^{d_j}``, computed in log space."""
    return math.exp(log_frbl_ratio(datum, tup))


@dataclass(frozen=True)
class ExtremizerVerdict:
    is_extremizer: bool
    ratio: float
    log_ratio: float
    reference_log_ratio: float
    basis: str  # "geometric-constant" | "comparison-family"


def extremizer_check(
    datum: FrblDatum,
    tup: GaussianTuple,
    tol: float = DEFAULT_RELATION_TOL,
    certificate: GeometricCertificate | None = None,
    comparison: tuple[GaussianTuple, ...] = (),
) -> ExtremizerVerdict:
    """Decide whether an admissible Gaussian tuple attains the best constant.

    The tuple must satisfy the pointwise relation (precondition).  For a
    certified-geometric datum the best constant is one, so the verdict is
    ``|log ratio| <= tol``.  Otherwise the supremum is estimated as the
    maximum ratio over the caller-supplied comparison family (tuples
    violating the relation are skipped; the candidate itself is always part
    of the family), and the verdict is attainment of that maximum within
    ``tol``.  No global-optimality claim is made in the comparison case.
    """
    rel = relation_check(datum, tup, tol)
    if not rel.holds:
        raise ValueError(
            "tuple does not satisfy the pointwise relation "
            f"(form gap {rel.form_gap_min_eig:.3e}, prefactor gap {rel.prefactor_gap:.3e})"
        )
    own = log_frbl_ratio(datum, tup)
    cert = certificate if certificate is not None else check_geometric(datum)
    if cert.verdict == "geometric":
        return ExtremizerVerdict(abs(own) <= tol, math.exp(own), own, 0.0, "geometric-constant")
    if not comparison:
        raise ValueError(
            "datum is not certified geometric; supply a comparison family of tuples"
        )
    best = own
    for other in comparison:
        if not relation_check(datum, other, tol).holds:
            continue
        best = max(best, log_frbl_ratio(datum, other))
    return ExtremizerVerdict(own >= best - tol, math.exp(own), own, best, "comparison-family")


def geometrize_from_extremizers(
    datum: FrblDatum, in_weights, out_weights
) -> tuple[EquivalenceTransform, FrblDatum, GeometricCertificate]:
    """Build the equivalence transform induced by candidate heat weights and
    certify the transformed datum.

    Input weights ``A_i`` give blocks ``C_i = A_i^{-1/2}``; output weights
    ``A^j`` give ``D_j = (A^j)^{1/2}``.  The transformed datum is checked
    with :func:`check_geometric`; nothing guarantees a geometric outcome for
    arbitrary weights, the certificate is the verdict.
    """
    layout = datum.layout
    ins = [m if isinstance(m, SymMatrix) else SymMatrix(m) for m in in_weights]
    outs = [m if isinstance(m, SymMatrix) else SymMatrix(m) for m in out_weights]
    if len(ins) != layout.k or len(outs) != layout.m:
        raise ValueError("weight count does not match the datum layout")
    for i, mat in enumerate(ins):
        if mat.dim != layout.in_dims[i]:
            raise ValueError(f"input weight {i} has dim {mat.dim}, expected {layout.in_dims[i]}")
        _require_pd(mat.min_eigenvalue(), f"input weight {i}")
    for j, mat in enumerate(outs):
        if mat.dim != layout.out_dims[j]:
            raise ValueError(f"output weight {j} has dim {mat.dim}, expected {layout.out_dims[j]}")
        _require_pd(mat.min_eigenvalue(), f"output weight {j}")

    c_blocks = []
    for m in ins:
        w, v = np.linalg.eigh(m.mat)
        c_blocks.append((v / np.sqrt(w)) @ v.T)
    d_blocks = [sqrt_psd(m).mat for m in outs]
    transform = EquivalenceTransform(tuple(c_blocks), tuple(d_blocks))
    transformed = apply_equivalence(datum, transform)
    certificate = check_geometric(transformed)
    return transform, transformed, certificate


def long_time_limit(g: CenteredGaussian, a_weight: SymMatrix, x) -> float:
    """Closed-form long-time value of the rescaled heat evolution.

    Equals ``det(W)^{-1/2} exp(-<inv(W) x, x>) * integral(g)`` for weight
    ``W``; :func:`rescaled_heat_value` is the finite-time evaluator whose
    ``t -> infinity`` limit this is.
    """
    _require_pd(a_weight.min_eigenvalue(), "heat weight")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    w = a_weight.mat
    sign, log_det = np.linalg.slogdet(w)
    if sign <= 0:
        raise ValueError("heat weight must have positive determinant")
    quad = float(x @ np.linalg.solve(w, x))
    return math.exp(-0.5 * log_det - quad + log_gaussian_integral(g))


def rescaled_heat_value(g: CenteredGaussian, a_weight: SymMatrix, x, t: float) -> float:
    """``(4 pi t)^{n/2} * (evolved g)(2 sqrt(t) x)`` at finite ``t``, in log space."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    evolved = heat_evolve(g, t, a_weight)
    n = g.space_dim
    log_val = 0.5 * n * math.log(4.0 * math.pi * t) + evolved.log_value(2.0 * math.sqrt(t) * x)
    return math.exp(log_val)


def random_admissible_tuple(
    datum: FrblDatum, rng: np.random.Generator
) -> GaussianTuple:
    """Sample a Gaussian tuple satisfying the pointwise relation by construction.

    Output forms are drawn freely; input forms are built from the diagonal
    blocks of the pulled-back output form inflated by the factor count,
    which dominates the pullback in the Loewner order, plus a positive
    definite cushion.  Prefactors are split so the weighted g side wins by a
    positive margin.
    """
    layout = datum.layout

    def random_pd(dim: int) -> np.ndarray:
        m = rng.standard_normal((dim, dim))
        return m @ m.T / dim + 0.3 * np.eye(dim)

    g_forms = [random_pd(dim) for dim in layout.out_dims]
    g_prefs = [float(rng.normal(scale=0.5)) for _ in range(layout.m)]
    pulled = datum.q.T @ embed_blockdiag(
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

    return GaussianTuple(
        tuple(CenteredGaussian(SymMatrix(f), p) for f, p in zip(f_forms, f_prefs)),
        tuple(CenteredGaussian(SymMatrix(f), p) for f, p in zip(g_forms, g_prefs)),
    )
