"""Data model for forward-reverse Brascamp-Lieb problems.

A datum couples positive weight vectors ``c`` (one weight per input factor
``E_i``) and ``d`` (one per output factor ``E^j``) with a linear map ``Q``
from the direct sum of the input factors to the direct sum of the output
factors.  Factors are identified with stacked column-vector segments, so
``Q`` decomposes into blocks ``Q[j, i]`` mapping factor ``i`` to factor
``j``.  The weights must balance: ``sum(c_i * dim E_i)`` has to equal
``sum(d_j * dim E^j)``, otherwise no finite inequality constant can exist.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

__all__ = [
    "DatumValidationError",
    "EquivalenceTransform",
    "FrblDatum",
    "MAX_DIM",
    "SpaceLayout",
    "apply_equivalence",
    "compose_transforms",
    "datum_to_json",
    "embed_blockdiag",
    "make_datum",
    "transform_from_json",
    "transform_to_json",
    "validate_datum",
]

# Inputs are user-specified rationals/radicals, not measured data, so the
# scaling condition is held to near machine precision.
SCALING_TOL = 1e-12

# A transform block whose 2-norm condition number reaches this is treated as
# singular; the determinant would also reject well-conditioned scaled blocks.
COND_MAX = 1e12

# Largest total dimension of the input sum and of the output sum.  The sigma
# search's constraint matrix grows like the fourth power of the dimension,
# so a small file must not be able to ask for a huge one.
MAX_DIM = 32


class DatumValidationError(ValueError):
    """Candidate datum violates the structural conditions.

    Carries the full list of violations so callers can report every problem
    at once rather than the first one hit.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


def _numbers(value, what: str) -> np.ndarray:
    """A JSON value as a numpy array of integers or floats; strings,
    booleans and nulls in it raise ``ValueError``."""
    arr = np.asarray(value)
    if arr.dtype.kind not in "iuf":
        raise ValueError(f"{what} must hold numbers only")
    return arr


def _as_dim_tuple(dims, label: str, violations: list[str]) -> tuple[int, ...]:
    out = []
    for x in dims:
        if not isinstance(x, (int, np.integer)) or isinstance(x, bool) or x < 1:
            violations.append(f"{label} must be positive integers, got {x!r}")
            return ()
        out.append(int(x))
    if not out:
        violations.append(f"{label} must be non-empty")
    return tuple(out)


@dataclass(frozen=True)
class SpaceLayout:
    """Dimension layout of the input factors E_i and output factors E^j.

    Offsets are prefix sums of the factor dimensions and index the stacked
    column-vector representation of the direct sums.  Each sum has
    dimension at most :data:`MAX_DIM`.
    """

    in_dims: tuple[int, ...]
    out_dims: tuple[int, ...]

    def __post_init__(self):
        violations: list[str] = []
        for name, total in (("in_dims", "dim_in"), ("out_dims", "dim_out")):
            dims = _as_dim_tuple(getattr(self, name), name, violations)
            object.__setattr__(self, name, dims)
            if sum(dims) > MAX_DIM:
                violations.append(f"{total} = {sum(dims)} exceeds the cap MAX_DIM = {MAX_DIM}")
        if violations:
            raise DatumValidationError(violations)

    @property
    def k(self) -> int:
        return len(self.in_dims)

    @property
    def m(self) -> int:
        return len(self.out_dims)

    @property
    def dim_in(self) -> int:
        return sum(self.in_dims)

    @property
    def dim_out(self) -> int:
        return sum(self.out_dims)

    @property
    def in_offsets(self) -> tuple[int, ...]:
        return tuple(accumulate(self.in_dims, initial=0))

    @property
    def out_offsets(self) -> tuple[int, ...]:
        return tuple(accumulate(self.out_dims, initial=0))

    def in_slice(self, i: int) -> slice:
        off = self.in_offsets
        return slice(off[i], off[i + 1])

    def out_slice(self, j: int) -> slice:
        off = self.out_offsets
        return slice(off[j], off[j + 1])

    def check_shapes(self, what: str, in_shapes=None, out_shapes=None, shape=None) -> None:
        """Raise ``ValueError`` unless ``in_shapes`` and ``out_shapes`` hold
        one shape per input and per output factor, ``shape(n)`` for a factor
        of dimension ``n`` (``(n, n)`` by default).  A side given as
        ``None`` is not checked."""
        for side, shapes, dims in (("input", in_shapes, self.in_dims),
                                   ("output", out_shapes, self.out_dims)):
            if shapes is None:
                continue
            got = [tuple(s) for s in shapes]
            want = [shape(n) if shape else (n, n) for n in dims]
            if got != want:
                raise ValueError(f"{what}: the list of {side} shapes {got} does not match "
                                 f"the datum layout, which needs {want}")


@dataclass(frozen=True)
class FrblDatum:
    """A validated forward-reverse Brascamp-Lieb datum ``(c, d, Q)``.

    Construction runs the full validation and raises
    :class:`DatumValidationError` naming every violated condition.
    """

    layout: SpaceLayout
    c: np.ndarray
    d: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        violations: list[str] = []
        c = np.atleast_1d(np.array(self.c, dtype=float))
        d = np.atleast_1d(np.array(self.d, dtype=float))
        q = np.array(self.q, dtype=float)
        if q.ndim == 1:
            q = q.reshape(1, -1)

        for w, name, count, index in ((c, "c", "k", "i"), (d, "d", "m", "j")):
            want = getattr(self.layout, count)
            if w.shape != (want,):
                violations.append(f"{name} must have length {count}={want}, got {w.shape}")
            elif not np.all(np.isfinite(w)) or np.any(w <= 0):
                violations.append(f"all weights {name}_{index} must be positive and finite")

        expected = (self.layout.dim_out, self.layout.dim_in)
        if q.shape != expected:
            violations.append(f"Q must have shape {expected}, got {q.shape}")
        elif not np.all(np.isfinite(q)):
            violations.append("Q entries must be finite")

        if not violations:
            lhs = float(c @ np.asarray(self.layout.in_dims, dtype=float))
            rhs = float(d @ np.asarray(self.layout.out_dims, dtype=float))
            if abs(lhs - rhs) > SCALING_TOL:
                violations.append(
                    f"scaling condition violated: sum c_i dim E_i = {lhs!r} "
                    f"!= sum d_j dim E^j = {rhs!r}"
                )
        if violations:
            raise DatumValidationError(violations)

        for arr, name in ((c, "c"), (d, "d"), (q, "q")):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def k(self) -> int:
        return self.layout.k

    @property
    def m(self) -> int:
        return self.layout.m

    def out_row(self, j: int) -> np.ndarray:
        """The full row band of ``Q`` landing in output factor ``j``."""
        if not 0 <= j < self.m:
            raise IndexError(f"output factor index {j} out of range [0, {self.m})")
        return self.q[self.layout.out_slice(j), :].copy()


def make_datum(in_dims, out_dims, c, d, q) -> FrblDatum:
    """Build and validate a datum from its raw pieces."""
    return FrblDatum(SpaceLayout(tuple(in_dims), tuple(out_dims)), c, d, q)


def validate_datum(raw: dict) -> FrblDatum:
    """Validate a JSON-shaped candidate and return the datum.

    Raises :class:`DatumValidationError` listing every violated condition,
    including missing keys; a ``c``, ``d`` or ``Q`` that holds anything but
    numbers raises ``ValueError`` before the other checks.
    """
    required = ("in_dims", "out_dims", "c", "d", "Q")
    missing = [key for key in required if key not in raw]
    if missing:
        raise DatumValidationError([f"missing key {key!r}" for key in missing])
    c, d, q = (_numbers(raw[key], key) for key in ("c", "d", "Q"))
    return make_datum(raw["in_dims"], raw["out_dims"], c, d, q)


def datum_to_json(datum: FrblDatum) -> dict:
    return {
        "in_dims": list(datum.layout.in_dims),
        "out_dims": list(datum.layout.out_dims),
        "c": datum.c.tolist(),
        "d": datum.d.tolist(),
        "Q": datum.q.tolist(),
    }


def embed_blockdiag(dims, blocks) -> np.ndarray:
    """Assemble the block-diagonal matrix with the given square blocks.

    This is the stacked-vector form of ``sum_i pi_i^* B_i pi_i``.  Blocks
    may share leading stack axes, e.g. ``(count, dim, dim)``; the result
    then carries them too.
    """
    off = tuple(accumulate((int(x) for x in dims), initial=0))
    blocks = [np.asarray(blk, dtype=float) for blk in blocks]
    lead = blocks[0].shape[:-2] if blocks else ()
    out = np.zeros(lead + (off[-1], off[-1]))
    for a, b, blk in zip(off[:-1], off[1:], blocks, strict=True):
        if blk.shape != lead + (b - a, b - a):
            raise ValueError(f"block shape {blk.shape} does not match factor dim {b - a}")
        out[..., a:b, a:b] = blk
    return out


@dataclass(frozen=True)
class EquivalenceTransform:
    """Blockwise invertible maps ``C_i`` on the input factors, ``D_j`` on the
    output factors.

    Stored as explicit blocks so the block-diagonal structure cannot be
    violated by construction.  Dimension checks against a concrete layout
    happen in :func:`apply_equivalence`.
    """

    c_blocks: tuple[np.ndarray, ...]
    d_blocks: tuple[np.ndarray, ...]

    def __post_init__(self):
        for label, name in (("C", "c_blocks"), ("D", "d_blocks")):
            blocks = tuple(np.array(b, dtype=float) for b in getattr(self, name))
            for b in blocks:
                if b.ndim != 2 or b.shape[0] != b.shape[1]:
                    raise ValueError(f"{label}: blocks must be square, got shape {b.shape}")
                if not np.all(np.isfinite(b)):
                    raise ValueError(f"{label}: block entries must be finite")
                s = np.linalg.svd(b, compute_uv=False)
                if not s[-1] * COND_MAX > s[0]:
                    raise ValueError(f"{label}: block is singular (cond >= {COND_MAX:g})")
                b.setflags(write=False)
            object.__setattr__(self, name, blocks)


def compose_transforms(
    second: EquivalenceTransform, first: EquivalenceTransform
) -> EquivalenceTransform:
    """The single transform equivalent to applying ``first`` then ``second``.

    Blockwise ``C_i = C2_i @ C1_i`` and ``D_j = D1_j @ D2_j``; the asymmetry
    follows from the inverse positions of C and D in the block update.
    """
    return EquivalenceTransform(
        tuple(b2 @ b1 for b2, b1 in zip(second.c_blocks, first.c_blocks, strict=True)),
        tuple(b1 @ b2 for b1, b2 in zip(first.d_blocks, second.d_blocks, strict=True)),
    )


def apply_equivalence(datum: FrblDatum, transform: EquivalenceTransform) -> FrblDatum:
    """Transform the datum blockwise: ``Q'[j, i] = inv(D_j) @ Q[j, i] @ inv(C_i)``,
    that is ``Q' = inv(D) @ Q @ inv(C)`` for the block-diagonal ``C`` and ``D``.

    Weights and layout are unchanged.  Applying the inverse transform
    recovers the original datum to rounding.
    """
    layout = datum.layout
    c_blocks, d_blocks = transform.c_blocks, transform.d_blocks
    layout.check_shapes("transform blocks", [b.shape for b in c_blocks],
                        [b.shape for b in d_blocks])
    d_inv_q = np.linalg.solve(embed_blockdiag(layout.out_dims, d_blocks), datum.q)
    new_q = np.linalg.solve(embed_blockdiag(layout.in_dims, c_blocks).T, d_inv_q.T).T
    return FrblDatum(layout, datum.c, datum.d, new_q)


def transform_to_json(transform: EquivalenceTransform) -> dict:
    return {
        "C": [b.tolist() for b in transform.c_blocks],
        "D": [b.tolist() for b in transform.d_blocks],
    }


def transform_from_json(obj: dict) -> EquivalenceTransform:
    try:
        return EquivalenceTransform(tuple(obj["C"]), tuple(obj["D"]))
    except KeyError as exc:
        raise ValueError(f"transform JSON missing key {exc}") from exc
