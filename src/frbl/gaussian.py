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
from collections.abc import Iterable, Iterator
from dataclasses import InitVar, dataclass
from functools import cached_property

import numpy as np

from .datum import EquivalenceTransform, FrblDatum, _numbers, apply_equivalence, embed_blockdiag
from .geometry import GeometricCertificate, _form_gap, _pullback, check_geometric
from .linalg import DEFAULT_RELATION_TOL, SymMatrix, _heat_weight, _require_pd, mirror_upper

__all__ = [
    "CenteredGaussian",
    "ExtremizerVerdict",
    "GaussianFamily",
    "GaussianTuple",
    "RelationResult",
    "evolve_tuple",
    "extremizer_check",
    "geometrize_from_extremizers",
    "heat_evolve",
    "log_frbl_ratio",
    "log_gaussian_integral",
    "long_time_limit",
    "random_admissible_tuple",
    "relation_check",
    "rescaled_heat_value",
    "sample_families",
    "tuple_from_json",
    "tuple_to_json",
]

# members of a sampled comparison family drawn and evaluated at once, so
# memory stays bounded whatever the family size
FAMILY_BLOCK = 1024


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

    @property
    def space_dim(self) -> int:
        return self.form.dim

    def log_value(self, x) -> float:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return self.log_prefactor - float(x @ self.form.mat @ x)


def _by_dim(forms) -> Iterator[tuple[list[int], np.ndarray]]:
    """The indices and the stack of the square ``forms`` of each dimension, ascending."""
    dims = [form.shape[-1] for form in forms]
    for dim in sorted(set(dims)):
        same = [i for i, n in enumerate(dims) if n == dim]
        yield same, np.array([forms[i] for i in same])


def _log_integrals(forms, log_prefactors: np.ndarray) -> np.ndarray:
    """``l + (n/2) log pi - (1/2) log det(form)`` per factor, for a stack of
    shape ``()`` or ``(count,)``: forms of shape ``stack + (n_i, n_i)``, all
    positive definite, and log prefactors of shape ``stack + (factors,)``.
    One eigenvalue solve per distinct factor dimension."""
    spread = np.empty(log_prefactors.shape[::-1])  # factors first
    for same, stack in _by_dim(forms):
        w = np.linalg.eigvalsh(stack)
        _require_pd(float(w.min()), "Gaussian form")
        spread[same] = stack.shape[-1] * math.log(math.pi) - np.log(w).sum(axis=-1)
    return log_prefactors + 0.5 * spread.T


def _fold(weights: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``sum_i weights[i] * values[..., i]``, added left to right in factor
    order."""
    return np.add.accumulate(values * weights, axis=-1)[..., -1]


def log_gaussian_integral(g: CenteredGaussian) -> float:
    """``log integral = l + (n/2) log pi - (1/2) log det(form)``."""
    return float(_log_integrals([g.form.mat], np.array([g.log_prefactor]))[0])


def _flow(mu: np.ndarray, m: np.ndarray, t: float) -> tuple:
    """``(M diag(nu) M^T, sum log1p(4 t mu), nu)`` with ``nu = mu / (1 + 4 t mu)``,
    for one ``(mu, M)`` or a stack of them: the closed-form heat flow."""
    spread = 4.0 * t * mu
    nu = mu / (1.0 + spread)
    return (m * nu[..., None, :]) @ m.swapaxes(-1, -2), np.log1p(spread).sum(axis=-1), nu


def heat_evolve(g: CenteredGaussian, t: float, a_weight=None) -> CenteredGaussian:
    """Evolve a Gaussian for time ``t`` under the weighted Laplacian with
    positive definite weight ``a_weight`` (identity when omitted).

    Closed form of the kernel convolution: the form becomes
    ``inv(inv(B) + 4 t W)`` and the log prefactor drops by
    ``(1/2) log det(id + 4 t W B)``.  With ``sqrt(W) B sqrt(W) = U diag(mu) U^T``
    the new form is ``M diag(mu / (1 + 4 t mu)) M^T`` for ``M = W^{-1/2} U``
    and the determinant is ``prod (1 + 4 t mu)``, so one eigendecomposition
    (two with a weight) serves both and large ``t`` stays stable.  Without a
    weight this is :func:`evolve_tuple` on the one-Gaussian tuple.
    """
    if a_weight is None:
        return evolve_tuple(GaussianTuple((g,), ()), t).f[0]
    if not t > 0:
        raise ValueError(f"evolution time must be positive, got {t}")
    _, w, v = _heat_weight(a_weight, g.space_dim, "heat weight")
    sqrt_w = np.sqrt(w)
    root = (v * sqrt_w) @ v.T
    mu, u = np.linalg.eigh(root @ g.form.mat @ root)
    form, log_det, _ = _flow(mu, (v / sqrt_w) @ (v.T @ u), t)
    return CenteredGaussian(SymMatrix(form), g.log_prefactor - 0.5 * float(log_det))


@dataclass(frozen=True)
class GaussianTuple:
    """Gaussians ``f_i`` and ``g_j`` on the input and output factors, and their kept spectra."""

    f: tuple[CenteredGaussian, ...]
    g: tuple[CenteredGaussian, ...]

    def __post_init__(self):
        object.__setattr__(self, "f", tuple(self.f))
        object.__setattr__(self, "g", tuple(self.g))

    @cached_property
    def _spectra(self) -> list[tuple[list[int], np.ndarray, np.ndarray]]:
        """``(indices, mu, M)`` per dimension of the forms of ``f + g``, ``form =
        M diag(mu) M^T``: one batched ``eigh`` each, at the first :func:`evolve_tuple`."""
        forms = [x.form.mat for x in self.f + self.g]
        return [(same, *np.linalg.eigh(stack)) for same, stack in _by_dim(forms)]

    def check_layout(self, datum: FrblDatum) -> None:
        datum.layout.check_shapes("tuple forms", [x.form.mat.shape for x in self.f],
                                  [x.form.mat.shape for x in self.g])


@dataclass(frozen=True)
class GaussianFamily:
    """``count`` Gaussian tuples stacked factor by factor.

    ``f_forms[i]`` has shape ``(count, n_i, n_i)`` and ``g_forms[j]`` shape
    ``(count, n^j, n^j)``, every matrix exactly symmetric; ``f_prefs`` and
    ``g_prefs`` hold the log prefactors, shapes ``(count, k)`` and
    ``(count, m)``.
    """

    f_forms: tuple[np.ndarray, ...]
    g_forms: tuple[np.ndarray, ...]
    f_prefs: np.ndarray
    g_prefs: np.ndarray

    def __len__(self) -> int:
        return self.f_prefs.shape[0]

    def member(self, s: int) -> GaussianTuple:
        def unstack(forms, prefs):
            return tuple(CenteredGaussian(SymMatrix(f[s]), p) for f, p in zip(forms, prefs[s]))

        return GaussianTuple(unstack(self.f_forms, self.f_prefs), unstack(self.g_forms, self.g_prefs))

    def check_layout(self, datum: FrblDatum) -> None:
        layout, count = datum.layout, len(self)
        layout.check_shapes("family forms", [f.shape for f in self.f_forms],
                            [g.shape for g in self.g_forms], lambda n: (count, n, n))
        if self.f_prefs.shape != (count, layout.k) or self.g_prefs.shape != (count, layout.m):
            raise ValueError("family log prefactors do not match the datum layout")


def _unstacked(tup: GaussianTuple) -> tuple:
    """One tuple as kernel arguments of stack shape ``()``: its own forms,
    no copies."""
    return ([x.form.mat for x in tup.f], [x.form.mat for x in tup.g],
            np.array([x.log_prefactor for x in tup.f]),
            np.array([x.log_prefactor for x in tup.g]))


def tuple_to_json(tup: GaussianTuple) -> dict:
    def enc(g: CenteredGaussian) -> dict:
        return {"log_prefactor": g.log_prefactor, "form": g.form.mat.tolist()}

    return {"f": [enc(x) for x in tup.f], "g": [enc(x) for x in tup.g]}


def tuple_from_json(obj: dict) -> GaussianTuple:
    def dec(entry: dict) -> CenteredGaussian:
        return CenteredGaussian(SymMatrix(_numbers(entry["form"], "a tuple form")),
                                float(_numbers(entry.get("log_prefactor", 0.0), "a log prefactor")))

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

    Identity-weight Laplacians by default, the forms of each dimension as
    one stack from spectra the tuple keeps; per-factor weight lists select
    the weighted flows (matching non-geometric data that are equivalent to
    geometric ones), one :func:`heat_evolve` per factor.
    """
    if in_weights is None and out_weights is None:
        if not t > 0:
            raise ValueError(f"evolution time must be positive, got {t}")
        parts = [None] * (len(tup.f) + len(tup.g))
        for same, mu, m in tup._spectra:
            for i, part in zip(same, zip(*_flow(mu, m, t))):
                parts[i] = part
        # M is orthogonal, so nu are the new forms' eigenvalues
        evolved = [CenteredGaussian(SymMatrix(form), x.log_prefactor - 0.5 * log_det, nu.min())
                   for x, (form, log_det, nu) in zip(tup.f + tup.g, parts)]
        return GaussianTuple(evolved[:len(tup.f)], evolved[len(tup.f):])
    in_weights = [None] * len(tup.f) if in_weights is None else in_weights
    out_weights = [None] * len(tup.g) if out_weights is None else out_weights
    return GaussianTuple(tuple(heat_evolve(g, t, w) for g, w in zip(tup.f, in_weights, strict=True)),
                         tuple(heat_evolve(g, t, w) for g, w in zip(tup.g, out_weights, strict=True)))


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
    min_eig, gap = _relation_gaps(datum, *_unstacked(tup))
    min_eig, gap = float(min_eig), float(gap)
    return RelationResult(min_eig >= -tol and gap >= -tol, min_eig, gap)


def _relation_gaps(datum: FrblDatum, f_forms, g_forms, f_prefs, g_prefs) -> tuple:
    """Per member of a stack, the minimum eigenvalue of the form gap and the
    prefactor gap of :class:`RelationResult`, from one batched eigenvalue
    solve.  Forms have shape ``stack + (n, n)`` and log prefactors
    ``stack + (factors,)``, the stack of shape ``()`` or ``(count,)``."""
    layout = datum.layout
    gap = _form_gap(datum, embed_blockdiag(layout.in_dims, f_forms),
                    embed_blockdiag(layout.out_dims, g_forms))
    min_eig = np.linalg.eigvalsh(gap)[..., 0]
    return min_eig, _fold(datum.d, g_prefs) - _fold(datum.c, f_prefs)


def _log_ratios(datum: FrblDatum, f_forms, g_forms, f_prefs, g_prefs) -> np.ndarray:
    """Per member of a stack (as for :func:`_relation_gaps`),
    :func:`log_frbl_ratio`."""
    logs = _log_integrals([*f_forms, *g_forms], np.concatenate((f_prefs, g_prefs), axis=-1))
    k = datum.layout.k
    return _fold(datum.c, logs[..., :k]) - _fold(datum.d, logs[..., k:])


def log_frbl_ratio(datum: FrblDatum, tup: GaussianTuple) -> float:
    """``sum c_i log(int f_i) - sum d_j log(int g_j)``."""
    tup.check_layout(datum)
    return float(_log_ratios(datum, *_unstacked(tup)))


def _ratio(log_ratio: float) -> float:
    """``exp(log_ratio)``, infinite where a finite log ratio passes the double
    range (reports print it as null)."""
    try:
        return math.exp(log_ratio)
    except OverflowError:
        return math.inf


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
    comparison: Iterable[GaussianFamily] = (),
) -> ExtremizerVerdict:
    """Decide whether an admissible Gaussian tuple attains the best constant.

    The tuple must satisfy the pointwise relation (precondition).  On a datum
    that :func:`check_geometric` certifies the best constant is one, so the
    verdict is ``|log ratio| <= tol``.  Otherwise the supremum is estimated
    as the maximum ratio over the comparison family (tuples violating the
    relation are skipped; the candidate itself is always part of the
    family), and the verdict is attainment of that maximum within ``tol``.
    No global-optimality claim is made in the comparison case.

    ``comparison`` is an iterable of stacked :class:`GaussianFamily` blocks,
    such as :func:`sample_families` yields; each block is judged in one
    batched pass, and only on data that are not geometric, so a generator
    draws nothing on geometric data.
    """
    rel = relation_check(datum, tup, tol)
    if not rel.holds:
        raise ValueError(
            "tuple does not satisfy the pointwise relation "
            f"(form gap {rel.form_gap_min_eig:.3e}, prefactor gap {rel.prefactor_gap:.3e})"
        )
    own = log_frbl_ratio(datum, tup)
    if check_geometric(datum).verdict == "geometric":
        return ExtremizerVerdict(abs(own) <= tol, _ratio(own), own, 0.0, "geometric-constant")
    best, members = own, 0
    for fam in comparison:
        fam.check_layout(datum)
        parts = (fam.f_forms, fam.g_forms, fam.f_prefs, fam.g_prefs)
        min_eig, gap = _relation_gaps(datum, *parts)
        ratios = _log_ratios(datum, *parts)
        holds = (min_eig >= -tol) & (gap >= -tol)
        best = max(best, float(ratios[holds].max(initial=-math.inf)))
        members += len(fam)
    if not members:
        raise ValueError(
            "datum is not certified geometric; supply a comparison family of tuples"
        )
    return ExtremizerVerdict(own >= best - tol, _ratio(own), own, best, "comparison-family")


def geometrize_from_extremizers(
    datum: FrblDatum, in_weights, out_weights
) -> tuple[EquivalenceTransform, FrblDatum, GeometricCertificate]:
    """Build the equivalence transform induced by candidate heat weights and
    certify the transformed datum.

    Input weights ``A_i`` give blocks ``C_i = A_i^{-1/2}``; output weights
    ``A^j`` give ``D_j = (A^j)^{1/2}``; each is read as :func:`heat_evolve`
    reads a weight, a bad one named ``input weight i`` or ``output weight j``
    in the ``ValueError``.  The transformed datum is checked with
    :func:`check_geometric`; nothing guarantees a geometric outcome for
    arbitrary weights, the certificate is the verdict.
    """
    layout = datum.layout
    layout.check_shapes("heat weights", [np.shape(m) for m in in_weights],
                        [np.shape(m) for m in out_weights])

    def blocks(weights, dims, side: str, root_fn) -> tuple[np.ndarray, ...]:
        spectra = (_heat_weight(m, n, f"{side} weight {i}")[1:]
                   for i, (m, n) in enumerate(zip(weights, dims)))
        return tuple(mirror_upper((v * root_fn(w)) @ v.T) for w, v in spectra)

    transform = EquivalenceTransform(
        blocks(in_weights, layout.in_dims, "input", lambda w: 1.0 / np.sqrt(w)),
        blocks(out_weights, layout.out_dims, "output", np.sqrt),
    )
    transformed = apply_equivalence(datum, transform)
    certificate = check_geometric(transformed)
    return transform, transformed, certificate


def long_time_limit(g: CenteredGaussian, a_weight, x) -> float:
    """Closed-form long-time value of the rescaled heat evolution.

    Equals ``det(W)^{-1/2} exp(-<inv(W) x, x>) * integral(g)`` for weight
    ``W``; :func:`rescaled_heat_value` is the finite-time evaluator whose
    ``t -> infinity`` limit this is.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    _, w, v = _heat_weight(a_weight, g.space_dim, "heat weight")
    y = v.T @ x  # x in the eigenbasis of W, where inv(W) is diagonal
    return math.exp(-0.5 * float(np.log(w).sum()) - float(y @ (y / w)) + log_gaussian_integral(g))


def rescaled_heat_value(g: CenteredGaussian, a_weight, x, t: float) -> float:
    """``(4 pi t)^{n/2} * (evolved g)(2 sqrt(t) x)`` at finite ``t``, in log space."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    evolved = heat_evolve(g, t, a_weight)
    n = g.space_dim
    log_val = 0.5 * n * math.log(4.0 * math.pi * t) + evolved.log_value(2.0 * math.sqrt(t) * x)
    return math.exp(log_val)


def random_admissible_tuple(
    datum: FrblDatum, rng: np.random.Generator
) -> GaussianTuple:
    """Sample one Gaussian tuple satisfying the pointwise relation by
    construction; see :func:`sample_families`."""
    return _sample_family(datum, rng, 1).member(0)


def sample_families(
    datum: FrblDatum, rng: np.random.Generator, count: int
) -> Iterator[GaussianFamily]:
    """``count`` admissible tuples from ``rng``, as stacked families of at
    most :data:`FAMILY_BLOCK` members in draw order.

    The draws are those of ``count`` calls of :func:`random_admissible_tuple`
    with the same generator, whatever the block size.  Each tuple is, bit for
    bit, the one drawn factor by factor with ``Generator.normal`` and
    ``Generator.uniform`` in the order :func:`_sample_family` reads the
    stream, so a seed keeps its tuples.
    """
    for start in range(0, count, FAMILY_BLOCK):
        yield _sample_family(datum, rng, min(FAMILY_BLOCK, count - start))


def _normal(scale: float, z):
    """``Generator.normal(scale=scale)`` of the standard normals ``z`` drawn in
    its place: numpy's formula ``loc + scale * z``, bit for bit."""
    return 0.0 + scale * z


def _uniform(low: float, high: float, u):
    """``Generator.uniform(low, high)`` of the ``random()`` draws ``u`` made in
    its place: numpy's formula ``low + (high - low) * u``, bit for bit."""
    return low + (high - low) * u


def _sample_family(datum: FrblDatum, rng: np.random.Generator, count: int) -> GaussianFamily:
    """Sample ``count`` Gaussian tuples satisfying the pointwise relation by
    construction.

    Output forms are drawn freely; input forms are built from the diagonal
    blocks of the pulled-back output form inflated by the factor count,
    which dominates the pullback in the Loewner order, plus a positive
    definite cushion.  Prefactors are split so the weighted g side wins by a
    positive margin.  The loop over samples only draws, in a fixed order per
    sample: one ``standard_normal`` for the g raw forms and g log
    prefactors, ``random()`` for the cushion, one ``standard_normal`` and one
    ``random()`` per input factor, one ``standard_normal`` for the margin and
    one ``random`` for the weights, ``2k + 4`` plain calls that read the
    stream as the ``normal(scale=...)`` and ``uniform(a, b)`` draws they
    stand for.  The arithmetic runs on the whole stack, numpy's formulas of
    those two (:func:`_normal`, :func:`_uniform`) first.  Every form is then
    mirrored from its upper triangle, which drops the rounding asymmetry of
    the pullback, and every entry and log prefactor is checked finite.
    """
    layout = datum.layout
    k = layout.k
    g_sizes = [n * n for n in layout.out_dims]
    # per member, the g raw forms then the g log prefactors as one run
    g_draws = np.empty((count, sum(g_sizes) + layout.m))
    f_raw = [np.empty((count, n, n)) for n in layout.in_dims]
    cushion = np.empty(count)
    f_scale = np.empty((count, k))
    margin = np.empty(count)
    weights = np.empty((count, k))
    standard_normal, random = rng.standard_normal, rng.random
    for s in range(count):
        standard_normal(out=g_draws[s])
        cushion[s] = random()
        for i, raw in enumerate(f_raw):
            standard_normal(out=raw[s])
            f_scale[s, i] = random()
        margin[s] = standard_normal()
        random(out=weights[s])
    *g_flat, g_prefs = np.split(g_draws, np.cumsum(g_sizes), axis=1)
    g_raw = [flat.reshape(count, n, n) for flat, n in zip(g_flat, layout.out_dims)]
    g_prefs = _normal(0.5, g_prefs)
    cushion = _uniform(0.05, 0.5, cushion)
    f_scale = _uniform(0.0, 0.5, f_scale)
    margin = _normal(0.3, margin)
    weights = _uniform(0.2, 1.0, weights)

    def diagonals(stack: np.ndarray) -> np.ndarray:
        """A writable ``(count, n)`` view of the diagonals of a fresh stack."""
        return stack.reshape(count, -1)[:, :: stack.shape[-1] + 1]

    def random_pd(raw: np.ndarray) -> np.ndarray:
        pd = raw @ raw.swapaxes(-1, -2) / raw.shape[-1]
        diagonals(pd)[:] += 0.3
        return pd

    g_forms = [random_pd(raw) for raw in g_raw]
    pulled = _pullback(datum, embed_blockdiag(layout.out_dims, g_forms))
    f_forms = []
    for i, raw in enumerate(f_raw):
        sl = layout.in_slice(i)
        # (k P + cushion I) + scale R, adding to the diagonals in that order
        blk = k * pulled[:, sl, sl]
        diagonals(blk)[:] += cushion[:, None]
        blk += random_pd(raw) * f_scale[:, i, None, None]
        blk /= float(datum.c[i])
        f_forms.append(blk)

    weights /= weights.sum(axis=1, keepdims=True)
    f_prefs = (_fold(datum.d, g_prefs) - (np.abs(margin) + 1e-3))[:, None] * weights / datum.c
    for form in f_forms + g_forms:
        mirror_upper(form)
    if not np.isfinite(f_prefs).all():
        raise ValueError("log_prefactor must be finite")
    return GaussianFamily(tuple(f_forms), tuple(g_forms), f_prefs, g_prefs)
