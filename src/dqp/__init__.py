"""Invariants of D(q,p) non-isolated hypersurface singularities.

The normal form sum x_{ij} y_i y_j + squares has closed-form Milnor
data, Lê numbers, polar multiplicities and Euler obstructions; every
closed form here is paired with an independent computational route
(intersection numbers in products of projective spaces, Newton-polyhedra
membership, exhaustive finite-field counts) and the `verify` machinery
drives the pairs against each other.

Importing the package executes none of its routes.  Each submodule is
registered in ``sys.modules`` as a lazy module (``importlib.util.LazyLoader``)
and runs on its first attribute access, so a command executes only the
modules it uses; the names in ``__all__`` resolve through the module
``__getattr__`` (PEP 562).  Only ``errors`` is imported eagerly.
"""

import importlib.util
import sys
import threading

from .errors import BudgetError, CheckError, DqpError, ValidationError


def _lazy(name: str):
    fullname = f"{__name__}.{name}"
    spec = importlib.util.find_spec(fullname)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    loader.exec_module(module)
    return module


chow = _lazy("chow")
core = _lazy("core")
ffcount = _lazy("ffcount")
integral_closure = _lazy("integral_closure")
le_engine = _lazy("le_engine")
report = _lazy("report")
verify = _lazy("verify")

# Re-exported name -> the submodule that defines it.
_EXPORTS = {
    "BidegreeSystem": "chow",
    "intersection_number_fulton": "chow",
    "intersection_number_ring": "chow",
    "DqpParams": "core",
    "euler_obstruction_hypersurface": "core",
    "euler_obstruction_sigma1": "core",
    "le_numbers": "core",
    "milnor_sphere_dimension": "core",
    "polar_multiplicities_sigma1": "core",
    "reduced_euler_characteristic": "core",
    "NormalFormSpec": "ffcount",
    "count_points": "ffcount",
    "counting_polynomial": "ffcount",
    "MonomialIdeal": "integral_closure",
    "in_integral_closure_facets": "integral_closure",
    "in_integral_closure_newton": "integral_closure",
    "is_reduction": "integral_closure",
    "det_multiplicity": "le_engine",
    "le_number_via_chow": "le_engine",
    "Report": "report",
    "run_verify": "verify",
}


# Before Python 3.13 a lazy module is not thread-safe: while one thread
# executes it, another sees it half-initialized.  Loads through the
# package's names are serialized here.
_load_lock = threading.RLock()


def __getattr__(name: str):
    if name in _EXPORTS:
        with _load_lock:
            return getattr(globals()[_EXPORTS[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))


__version__ = "0.1.0"

__all__ = sorted(["BudgetError", "CheckError", "DqpError", "ValidationError", *_EXPORTS])
