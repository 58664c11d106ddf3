"""Generators for the classical geometric instances.

Each generator emits a datum that the geometric checker certifies: the
two-factor interpolation datum on the line, the three-vector unit frame in
the plane, the coordinate-splitting datum, and the equal-space family with
weights summing to one.
"""

from __future__ import annotations

import math

import numpy as np

from .datum import FrblDatum, SpaceLayout, make_datum

__all__ = [
    "INSTANCE_NAMES",
    "generate",
    "holder",
    "loomis_whitney_2d",
    "prekopa_leindler",
    "young_frame",
]


def prekopa_leindler(lam: float) -> FrblDatum:
    """Two lines into one with weights ``(lam, 1 - lam)``; ``lam in (0, 1)``."""
    lam = float(lam)
    if not 0.0 < lam < 1.0:
        raise ValueError(f"lambda must lie in (0, 1), got {lam}")
    return make_datum((1, 1), (1,), (lam, 1.0 - lam), (1.0,), [[lam, 1.0 - lam]])


def young_frame() -> FrblDatum:
    """The plane projected onto three unit vectors at mutual 120 degrees.

    The rows form a tight frame (their outer products sum to 3/2 the
    identity), so weight 2/3 on each output factor is geometric.
    """
    s = math.sqrt(3.0) / 2.0
    q = [[1.0, 0.0], [-0.5, s], [-0.5, -s]]
    return make_datum((2,), (1, 1, 1), (1.0,), (2.0 / 3.0,) * 3, q)


def loomis_whitney_2d() -> FrblDatum:
    """The plane split into its two coordinate lines with unit weights."""
    return make_datum((2,), (1, 1), (1.0,), (1.0, 1.0), np.eye(2))


def holder(weights, dim: int = 1) -> FrblDatum:
    """One ``dim``-dimensional input copied onto ``len(weights)`` outputs.

    Weights must be positive and sum to one; every output block is the
    identity, which is geometric by construction.
    """
    w = np.atleast_1d(np.asarray(weights, dtype=float))
    if w.ndim != 1 or w.size < 1:
        raise ValueError("weights must be a non-empty vector")
    if np.any(w <= 0):
        raise ValueError("weights must be positive")
    if abs(float(w.sum()) - 1.0) > 1e-12:
        raise ValueError(f"weights must sum to 1, got {float(w.sum())!r}")
    if dim < 1:
        raise ValueError("dim must be a positive integer")
    layout = SpaceLayout((dim,), (dim,) * w.size)  # caps the size of Q before it is built
    return FrblDatum(layout, (1.0,), w, np.vstack([np.eye(dim)] * w.size))


INSTANCE_NAMES = ("prekopa-leindler", "young-frame", "loomis-whitney-2d", "holder")


def generate(name: str, lam: float | None = None, weights=None, dim: int = 1) -> FrblDatum:
    """Build a named instance."""
    if name == "prekopa-leindler":
        if lam is None:
            raise ValueError("prekopa-leindler needs a lambda parameter")
        return prekopa_leindler(lam)
    if name == "young-frame":
        return young_frame()
    if name == "loomis-whitney-2d":
        return loomis_whitney_2d()
    if name == "holder":
        if weights is None:
            raise ValueError("holder needs a weights parameter")
        return holder(weights, dim=dim)
    raise ValueError(f"unknown instance {name!r}; choose from {INSTANCE_NAMES}")
