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

import numpy as np

from .linalg import SymMatrix

__all__ = [
    "DatumValidationError",
    "EquivalenceTransform",
    "FrblDatum",
    "SpaceLayout",
    "apply_equivalence",
    "compose_transforms",
    "datum_from_json",
    "datum_to_json",
    "embed_blockdiag",
    "lambda_maps",
    "make_datum",
    "transform_from_json",
    "transform_to_json",
    "validate_datum",
]

# Inputs are user-specified rationals/radicals, not measured data, so the
# scaling condition is held to near machine precision.
SCALING_TOL = 1e-12

# A transform block with |det| at or below this is treated as singular.
DET_TOL = 1e-12


class DatumValidationError(ValueError):
    """Candidate datum violates the structural conditions.

    Carries the full list of violations so callers can report every problem
    at once rather than the first one hit.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


def _as_dim_tuple(dims, label: str, violations: list[str]) -> tuple[int, ...]:
    out = []
    for x in dims:
        xi = int(x)
        if xi != x or xi < 1:
            violations.append(f"{label} must be positive integers, got {x!r}")
            return ()
        out.append(xi)
    if not out:
        violations.append(f"{label} must be non-empty")
    return tuple(out)


@dataclass(frozen=True)
class SpaceLayout:
    """Dimension layout of the input factors E_i and output factors E^j.

    Offsets are prefix sums of the factor dimensions and index the stacked
    column-vector representation of the direct sums.
    """

    in_dims: tuple[int, ...]
    out_dims: tuple[int, ...]

    def __post_init__(self):
        violations: list[str] = []
        object.__setattr__(self, "in_dims", _as_dim_tuple(self.in_dims, "in_dims", violations))
        object.__setattr__(self, "out_dims", _as_dim_tuple(self.out_dims, "out_dims", violations))
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
        out = [0]
        for d in self.in_dims:
            out.append(out[-1] + d)
        return tuple(out)

    @property
    def out_offsets(self) -> tuple[int, ...]:
        out = [0]
        for d in self.out_dims:
            out.append(out[-1] + d)
        return tuple(out)

    def in_slice(self, i: int) -> slice:
        off = self.in_offsets
        return slice(off[i], off[i + 1])

    def out_slice(self, j: int) -> slice:
        off = self.out_offsets
        return slice(off[j], off[j + 1])


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

        if c.shape != (self.layout.k,):
            violations.append(f"c must have length k={self.layout.k}, got {c.shape}")
        elif not np.all(np.isfinite(c)) or np.any(c <= 0):
            violations.append("all weights c_i must be positive and finite")
        if d.shape != (self.layout.m,):
            violations.append(f"d must have length m={self.layout.m}, got {d.shape}")
        elif not np.all(np.isfinite(d)) or np.any(d <= 0):
            violations.append("all weights d_j must be positive and finite")

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

    def block(self, j: int, i: int) -> np.ndarray:
        """The block of ``Q`` mapping input factor ``i`` to output factor ``j``.

        Indices are 0-based.  Stacking all blocks in layout order reproduces
        ``Q`` exactly.
        """
        if not 0 <= i < self.k:
            raise IndexError(f"input factor index {i} out of range [0, {self.k})")
        if not 0 <= j < self.m:
            raise IndexError(f"output factor index {j} out of range [0, {self.m})")
        return self.q[self.layout.out_slice(j), self.layout.in_slice(i)].copy()

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
    including missing keys.
    """
    required = ("in_dims", "out_dims", "c", "d", "Q")
    missing = [key for key in required if key not in raw]
    if missing:
        raise DatumValidationError([f"missing key {key!r}" for key in missing])
    return make_datum(raw["in_dims"], raw["out_dims"], raw["c"], raw["d"], raw["Q"])


def datum_to_json(datum: FrblDatum) -> dict:
    return {
        "in_dims": list(datum.layout.in_dims),
        "out_dims": list(datum.layout.out_dims),
        "c": datum.c.tolist(),
        "d": datum.d.tolist(),
        "Q": datum.q.tolist(),
    }


def datum_from_json(obj: dict) -> FrblDatum:
    return validate_datum(obj)


def lambda_maps(datum: FrblDatum) -> tuple[SymMatrix, SymMatrix]:
    """The block-diagonal weight maps over the input and output sums.

    The input map has blocks ``c_i * id``, the output map ``d_j * id``; both
    are positive definite and their traces agree for a valid datum (that is
    the scaling condition restated).
    """
    lam_c = np.diag(np.repeat(datum.c, datum.layout.in_dims))
    lam_d = np.diag(np.repeat(datum.d, datum.layout.out_dims))
    return SymMatrix(lam_c), SymMatrix(lam_d)


def embed_blockdiag(dims, blocks) -> np.ndarray:
    """Assemble the block-diagonal matrix with the given square blocks.

    This is the stacked-vector form of ``sum_i pi_i^* B_i pi_i``.  Blocks
    may share leading stack axes, e.g. ``(count, dim, dim)``; the result
    then carries them too.
    """
    dims = tuple(int(x) for x in dims)
    blocks = [np.asarray(blk, dtype=float) for blk in blocks]
    lead = blocks[0].shape[:-2] if blocks else ()
    total = sum(dims)
    out = np.zeros(lead + (total, total))
    off = 0
    for dim, b in zip(dims, blocks, strict=True):
        if b.shape != lead + (dim, dim):
            raise ValueError(f"block shape {b.shape} does not match factor dim {dim}")
        out[..., off : off + dim, off : off + dim] = b
        off += dim
    return out


def _check_blocks(blocks, dims, label: str) -> tuple[np.ndarray, ...]:
    blocks = tuple(np.asarray(b, dtype=float) for b in blocks)
    if len(blocks) != len(dims):
        raise ValueError(f"{label}: expected {len(dims)} blocks, got {len(blocks)}")
    for b, dim in zip(blocks, dims):
        if b.ndim != 2 or b.shape != (dim, dim):
            raise ValueError(f"{label}: block shape {b.shape} does not match factor dim {dim}")
        if not np.all(np.isfinite(b)):
            raise ValueError(f"{label}: block entries must be finite")
        if abs(np.linalg.det(b)) <= DET_TOL:
            raise ValueError(f"{label}: block is singular (|det| <= {DET_TOL})")
    return blocks


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
        c_blocks = tuple(np.array(b, dtype=float) for b in self.c_blocks)
        d_blocks = tuple(np.array(b, dtype=float) for b in self.d_blocks)
        for label, blocks in (("C", c_blocks), ("D", d_blocks)):
            for b in blocks:
                if b.ndim != 2 or b.shape[0] != b.shape[1]:
                    raise ValueError(f"{label}: blocks must be square, got shape {b.shape}")
                if not np.all(np.isfinite(b)):
                    raise ValueError(f"{label}: block entries must be finite")
                if abs(np.linalg.det(b)) <= DET_TOL:
                    raise ValueError(f"{label}: block is singular (|det| <= {DET_TOL})")
        for blocks, name in ((c_blocks, "c_blocks"), (d_blocks, "d_blocks")):
            for b in blocks:
                b.setflags(write=False)
            object.__setattr__(self, name, blocks)

    @classmethod
    def identity(cls, layout: SpaceLayout) -> "EquivalenceTransform":
        return cls(
            tuple(np.eye(dim) for dim in layout.in_dims),
            tuple(np.eye(dim) for dim in layout.out_dims),
        )

    def inverse(self) -> "EquivalenceTransform":
        return EquivalenceTransform(
            tuple(np.linalg.inv(b) for b in self.c_blocks),
            tuple(np.linalg.inv(b) for b in self.d_blocks),
        )


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
    """Transform the datum blockwise: ``Q'[j, i] = inv(D_j) @ Q[j, i] @ inv(C_i)``.

    Weights and layout are unchanged.  Applying the inverse transform
    recovers the original datum to rounding.
    """
    layout = datum.layout
    c_blocks = _check_blocks(transform.c_blocks, layout.in_dims, "C")
    d_blocks = _check_blocks(transform.d_blocks, layout.out_dims, "D")

    new_q = np.zeros_like(datum.q)
    for j in range(layout.m):
        for i in range(layout.k):
            blk = np.linalg.solve(d_blocks[j], datum.block(j, i))
            blk = np.linalg.solve(c_blocks[i].T, blk.T).T
            new_q[layout.out_slice(j), layout.in_slice(i)] = blk
    return FrblDatum(layout, datum.c, datum.d, new_q)


def transform_to_json(transform: EquivalenceTransform) -> dict:
    return {
        "C": [b.tolist() for b in transform.c_blocks],
        "D": [b.tolist() for b in transform.d_blocks],
    }


def transform_from_json(obj: dict) -> EquivalenceTransform:
    try:
        c_blocks = obj["C"]
        d_blocks = obj["D"]
    except KeyError as exc:
        raise ValueError(f"transform JSON missing key {exc}") from exc
    return EquivalenceTransform(tuple(np.asarray(b) for b in c_blocks),
                                tuple(np.asarray(b) for b in d_blocks))
