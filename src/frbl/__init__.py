"""Verification toolkit for forward-reverse Brascamp-Lieb data.

Certifies the geometric property of a datum, computes Gaussian quantities
in closed form, and numerically demonstrates heat-flow preservation of the
pointwise relation together with the resulting best constant of one.

The package exports the public names of its modules, each listed in that
module's ``__all__``.
"""

from . import datum, gaussian, geometry, heatflow, instances, linalg
from .datum import *  # noqa: F403
from .gaussian import *  # noqa: F403
from .geometry import *  # noqa: F403
from .heatflow import *  # noqa: F403
from .instances import *  # noqa: F403
from .linalg import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [name for module in (datum, gaussian, geometry, heatflow, instances, linalg)
           for name in module.__all__]
