"""Verification toolkit for forward-reverse Brascamp-Lieb data.

Certifies the geometric property of a datum, computes Gaussian quantities
in closed form, and numerically demonstrates heat-flow preservation of the
pointwise relation together with the resulting best constant of one.

The package exports the public names of its modules, each listed in that
module's ``__all__``.  It imports them on the first lookup of a name
(PEP 562), so ``import frbl.cli`` runs the command line's own first lines
before numpy loads.
"""

import importlib

__version__ = "0.1.0"

_MODULES = ("datum", "gaussian", "geometry", "heatflow", "instances", "linalg")


def __getattr__(name: str):
    if name in _MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    modules = [importlib.import_module(f"{__name__}.{m}") for m in _MODULES]
    exports = {key: module for module in modules for key in module.__all__}
    if name == "__all__":
        value = list(exports)
    elif name in exports:
        value = getattr(exports[name], name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__getattr__("__all__")})
