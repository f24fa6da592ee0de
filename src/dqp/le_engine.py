"""Lê numbers of D(q,p) germs recomputed through intersection theory.

The Lê cycle of dimension q - i of the minimal D(p(p+1)/2, p) germ is a
cone, and its multiplicity at the origin equals the number of points cut
out on an incidence variety in P^{p(p+1)/2 - 1} x P^{p - 1}: the locus
where a symmetric p x p matrix of x-coordinates annihilates the
y-direction, sliced by i - 1 generic quadrics in y and enough generic
hyperplanes to reach dimension zero.  The hypersurface classes involved
have bidegrees

    (1,1)  for each of the p rows of the matrix-kernel equations,
    (0,2)  for each of the i - 1 quadrics,
    (1,0)  for each of the p(p+1)/2 - i - 1 generic hyperplanes,

and the resulting intersection number is 2^{i-1} * C(p, p-i), the
multiplicity of the underlying set.  The Lê cycle carries multiplicity
2, so doubling recovers the closed form 2^i * C(p, p-i) of
:mod:`dqp.core`.  This module builds those bidegree systems, evaluates
them through :mod:`dqp.chow`, and expands the generic symmetric
determinant symbolically to verify that the degenerate-matrix locus has
multiplicity exactly p at the origin.

The determinant is a Laplace expansion run bottom-up over column
subsets: the minor on the last k rows and a given set of k columns is
expanded once and reused by every larger minor that contains it, so one
expansion computes 2^p minors, where a recursive cofactor expansion
recomputes each k x k minor p!/k! times.  Exponent vectors are packed
one byte per variable into a Python int while the expansion runs.  The
full determinant has 388, 2461 and 18155 terms at p = 6, 7 and 8; the
next size would have ~150000, so sizes above 8 are refused.

Genericity of the quadrics and hyperplanes is not witnessed: the count
is a statement about classes, and the class of a generic representative
is all the intersection number consumes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chow import Bidegree, BidegreeSystem, intersection_number_ring
from .errors import BudgetError, ValidationError, is_int

__all__ = [
    "SymbolicPolynomial",
    "build_le_system",
    "le_number_via_chow",
    "underlying_multiplicity_via_chow",
    "generic_symmetric_det",
    "det_multiplicity",
    "MAX_DET_SIZE",
]

# The term count grows ~8x per size (18155 terms at p = 8); larger sizes
# are refused.
MAX_DET_SIZE = 8


@dataclass(frozen=True)
class SymbolicPolynomial:
    """Sparse integer polynomial: exponent vector -> nonzero coefficient."""

    variable_count: int
    terms: dict[tuple[int, ...], int]

    @property
    def min_total_degree(self) -> int:
        if not self.terms:
            raise ValidationError("the zero polynomial has no order at the origin")
        return min(sum(e) for e in self.terms)


def build_le_system(p: int, i: int) -> BidegreeSystem:
    """Bidegree system of the dimension-(q - i) Lê cycle, q = p(p+1)/2.

    Ambient P^{p(p+1)/2 - 1} x P^{p-1}; classes are p copies of (1,1),
    i - 1 copies of (0,2) and p(p+1)/2 - i - 1 copies of (1,0).  Needs
    p >= 2 (for p = 1 the hyperplane count would go negative) and
    1 <= i <= p.
    """
    if not is_int(p) or p < 2:
        raise ValidationError(f"p must satisfy p >= 2 (got p={p})")
    if not is_int(i) or not 1 <= i <= p:
        raise ValidationError(f"i must satisfy 1 <= i <= p (got i={i}, p={p})")
    ambient_n = p * (p + 1) // 2 - 1
    ambient_m = p - 1
    hyperplanes = p * (p + 1) // 2 - i - 1
    classes = (
        (Bidegree(1, 1),) * p
        + (Bidegree(0, 2),) * (i - 1)
        + (Bidegree(1, 0),) * hyperplanes
    )
    return BidegreeSystem(ambient_n=ambient_n, ambient_m=ambient_m, classes=classes)


def underlying_multiplicity_via_chow(p: int, i: int) -> int:
    """Multiplicity at 0 of the underlying set of the dimension-(q - i) Lê cycle.

    Evaluates the incidence bidegree system; equals 2^{i-1} * C(p, p-i),
    which is half the Lê number and matches the polar multiplicity of
    the degenerate-matrix locus at the same dimension.
    """
    return intersection_number_ring(build_le_system(p, i))


def le_number_via_chow(p: int, i: int) -> int:
    """lambda^{q - i} of the minimal germ via the incidence system.

    Twice the underlying multiplicity, the cycle carrying multiplicity 2.
    """
    return 2 * underlying_multiplicity_via_chow(p, i)


def _symmetric_variable_index(i: int, j: int, p: int) -> int:
    """Index of x_{ij} (i <= j, 0-based) in row-major upper-triangle order."""
    return i * p - i * (i - 1) // 2 + (j - i)


def generic_symmetric_det(p: int) -> SymbolicPolynomial:
    """Exact expansion of det of the generic symmetric p x p matrix.

    The p(p+1)/2 variables are the upper-triangle entries x_{ij}, i <= j,
    in row-major order; off-diagonal entries enter as whole variables
    (order at the origin is invariant under rescaling coordinates, so
    nothing is lost by avoiding halves).  Homogeneous of degree p.
    """
    if not is_int(p) or p < 1:
        raise ValidationError(f"p must satisfy p >= 1 (got p={p})")
    if p > MAX_DET_SIZE:
        raise BudgetError(
            f"symbolic determinant refuses p={p} (limit {MAX_DET_SIZE})",
            required=p,
        )
    nvars = p * (p + 1) // 2
    # minors[mask] is the minor on the last popcount(mask) rows and the
    # columns in mask, starting from the empty minor 1.  Each level adds
    # the row above by Laplace expansion along it, so every minor is
    # expanded once, not once per path to it.  Exponent vectors are packed
    # one byte per variable (exponents never exceed p <= MAX_DET_SIZE), so
    # multiplying by x_v adds 1 << 8v, and to_bytes unpacks them.
    minors = {0: {0: 1}}
    for row in range(p - 1, -1, -1):
        grown: dict[int, dict[int, int]] = {}
        for mask, minor in minors.items():
            for c in range(p):
                bit = 1 << c
                if mask & bit:
                    continue
                # (-1)^(position of column c in the enlarged column set)
                sign = -1 if (mask & (bit - 1)).bit_count() % 2 else 1
                shift = 1 << 8 * _symmetric_variable_index(min(row, c), max(row, c), p)
                target = grown.setdefault(mask | bit, {})
                for expo, coeff in minor.items():
                    expo += shift
                    target[expo] = target.get(expo, 0) + sign * coeff
        minors = grown
    (det,) = minors.values()
    return SymbolicPolynomial(
        nvars, {tuple(e.to_bytes(nvars, "little")): v for e, v in det.items() if v}
    )


def det_multiplicity(p: int) -> int:
    """Order at the origin of the symmetric determinant: its minimal total degree."""
    return generic_symmetric_det(p).min_total_degree
