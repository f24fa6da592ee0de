"""Invariants of D(q,p) non-isolated hypersurface singularities.

The normal form sum x_{ij} y_i y_j + squares has closed-form Milnor
data, Lê numbers, polar multiplicities and Euler obstructions; every
closed form here is paired with an independent computational route
(intersection numbers in products of projective spaces, Newton-polyhedra
membership, exhaustive finite-field counts) and the `verify` machinery
drives the pairs against each other.
"""

from .chow import (
    Bidegree,
    BidegreeSystem,
    intersection_number_fulton,
    intersection_number_ring,
)
from .core import (
    DqpParams,
    euler_obstruction_hypersurface,
    euler_obstruction_sigma1,
    le_numbers,
    milnor_sphere_dimension,
    polar_multiplicities_sigma1,
    reduced_euler_characteristic,
)
from .errors import BudgetError, CheckError, DqpError, ValidationError
from .ffcount import NormalFormSpec, count_points, counting_polynomial
from .integral_closure import (
    Monomial,
    MonomialIdeal,
    in_integral_closure_facets,
    in_integral_closure_newton,
    is_reduction,
)
from .le_engine import det_multiplicity, le_number_via_chow
from .report import Report
from .verify import run_verify

__version__ = "0.1.0"

__all__ = [
    "Bidegree",
    "BidegreeSystem",
    "BudgetError",
    "CheckError",
    "DqpError",
    "DqpParams",
    "Monomial",
    "MonomialIdeal",
    "NormalFormSpec",
    "Report",
    "ValidationError",
    "count_points",
    "counting_polynomial",
    "det_multiplicity",
    "euler_obstruction_hypersurface",
    "euler_obstruction_sigma1",
    "in_integral_closure_facets",
    "in_integral_closure_newton",
    "intersection_number_fulton",
    "intersection_number_ring",
    "is_reduction",
    "le_number_via_chow",
    "le_numbers",
    "milnor_sphere_dimension",
    "polar_multiplicities_sigma1",
    "reduced_euler_characteristic",
    "run_verify",
]
