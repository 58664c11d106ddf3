"""Dense symmetric linear algebra on small matrices.

Every matrix in this package (weight maps, feasibility iterates, Gaussian
quadratic forms) has dimension of order ten, so plain dense
eigendecomposition-based routines are used throughout.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = [
    "DEFAULT_LOEWNER_TOL",
    "SymMatrix",
    "mirror_upper",
    "psd_project",
]

# Absolute tolerance on the minimum eigenvalue for Loewner-order checks when
# the caller does not pin one explicitly.
DEFAULT_LOEWNER_TOL = 1e-9
# The default tolerances of the Gaussian relation and of the flow scan's
# defect, here so the command line reads them without importing
# ``gaussian`` or ``heatflow``.
DEFAULT_RELATION_TOL = 1e-9
DEFAULT_DEFECT_TOL = 1e-4

# The eigenvalue a Gaussian form or heat weight must exceed to count as positive definite.
PD_TOL = 1e-12


@functools.lru_cache(maxsize=64)
def _strict_lower(dim: int) -> np.ndarray:
    return np.tri(dim, k=-1, dtype=bool)


def mirror_upper(m: np.ndarray) -> np.ndarray:
    """Mirror the upper triangle of every trailing square matrix of the
    writable float array ``m`` (shape ``(..., n, n)``) onto its lower one,
    in place, and return ``m``.

    Non-finite entries raise; -0.0 becomes +0.0, so equal matrices have
    equal bytes.
    """
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must all be finite")
    m += 0.0
    np.copyto(m, m.swapaxes(-1, -2), where=_strict_lower(m.shape[-1]))
    return m


class SymMatrix:
    """A real symmetric matrix.

    The upper triangle of the input is mirrored onto the lower one, so the
    stored matrix is exactly symmetric even when the input carries rounding
    asymmetry (products such as ``Q @ sigma @ Q.T`` routinely do).
    """

    __slots__ = ("mat",)

    def __init__(self, entries) -> None:
        m = np.array(entries, dtype=float, order="C")
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        mirror_upper(m).setflags(write=False)
        self.mat = m

    @classmethod
    def identity(cls, dim: int) -> "SymMatrix":
        return cls(np.eye(dim))

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.mat)[0])

    def __array__(self, dtype=None, copy=None):
        # the stored array itself only when no copy is asked for
        return self.mat.astype(dtype or float, copy=bool(copy))

    def __repr__(self) -> str:
        return f"SymMatrix({self.mat.tolist()!r})"


def _require_pd(min_eig: float, what: str) -> None:
    if min_eig <= PD_TOL:
        raise ValueError(f"{what} must be positive definite (min eigenvalue {min_eig:.3e})")


def _heat_weight(a_weight: SymMatrix, dim: int, what: str) -> tuple[np.ndarray, np.ndarray]:
    """``eigh`` of a heat weight for a ``dim``-dimensional ``what``, which
    must match that dimension and be positive definite."""
    if a_weight.dim != dim:
        raise ValueError(f"weight dim {a_weight.dim} does not match {what} dim {dim}")
    w, v = np.linalg.eigh(a_weight.mat)
    _require_pd(float(w[0]), "heat weight")
    return w, v


def _eig_map(m: np.ndarray, fn) -> np.ndarray:
    """The matrix function ``V diag(fn(w)) V^T`` of the symmetric ``m =
    V diag(w) V^T``, from one ``eigh``; ``fn`` maps the ascending
    eigenvalues and may raise on them."""
    w, v = np.linalg.eigh(m)
    return (v * fn(w)) @ v.T


_clip_negative = functools.partial(np.clip, a_min=0.0, a_max=None)


def psd_project(m: SymMatrix) -> SymMatrix:
    """Frobenius-nearest positive semidefinite matrix.

    Negative eigenvalues are clipped to zero, everything else is kept.
    """
    return SymMatrix(_eig_map(m.mat, _clip_negative))

