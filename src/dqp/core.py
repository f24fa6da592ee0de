"""Closed-form invariants of D(q,p) hypersurface singularities.

A germ f : (C^n, 0) -> (C, 0) with a non-isolated singularity of type
D(q,p) has, after a change of coordinates, the normal form

    f(x, y) = sum_{i<=j} x_{ij} y_i y_j + y_{p+1}^2 + ... + y_{p+k}^2,

where the x_{ij} fill a symmetric p x p matrix.  Here q is the dimension
of the singular locus, n = p + k + q is the ambient dimension, k is the
number of square terms and q1 = q - p(p+1)/2 is the number of inert
coordinates that do not appear in the normal form at all.

This module holds the parameter bookkeeping and every invariant that is
a closed form in (n, q, p):

* the dimension of the sphere the Milnor fiber is homotopy equivalent to,
  and its reduced Euler characteristic;
* the table of Lê numbers lambda^d, and the two fixed Lê cycles as the
  constant FIXED_LE_CYCLES;
* the polar multiplicities at the origin of the hypersurface of
  degenerate symmetric p x p matrices (kernel rank >= 1);
* the Euler obstructions of that determinantal hypersurface and of the
  D(q,p) hypersurface itself;
* the alternating-sum identity tying the Lê numbers to the reduced Euler
  characteristic of the Milnor fiber.

All arithmetic is exact arbitrary-precision integer arithmetic.  Tables
are plain dicts keyed by dimension, zero-filled over their whole range,
so consumers never do index arithmetic.  Each call builds a fresh table
and every function is pure, so concurrent use needs no locking.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .errors import ValidationError, require_int, require_within, shown

__all__ = [
    "DqpParams",
    "validate_params",
    "minimal_params",
    "milnor_sphere_dimension",
    "reduced_euler_characteristic",
    "le_numbers",
    "polar_multiplicities_sigma1",
    "euler_obstruction_sigma1",
    "euler_obstruction_hypersurface",
    "verify_massey_identity",
    "LE_TABLE_LIMIT",
    "FIXED_LE_CYCLES",
]


# Lê and polar tables are dense; a Lê table over 0..q for q = 2*10^6 took
# 2.1 s and 162 MiB.  At this limit a table builds in ~0.02 s and `dqp
# invariants` renders a Lê table as JSON in ~0.7 s (2-core VM).
LE_TABLE_LIMIT = 10**5

# The exactly two fixed Lê cycles, as (name, codimension in the singular
# locus, cycle multiplicity): the singular locus itself, a smooth q-plane,
# and its slice by the vanishing of the symmetric determinant.  The
# multiplicities come from the transversal singularity type at a generic
# point of each cycle (a Morse point, respectively a Whitney umbrella) and
# are fixed data, not computed.
FIXED_LE_CYCLES = (("singular locus", 0, 1), ("determinantal locus", 1, 2))


@dataclass(frozen=True)
class DqpParams:
    """The triple (n, q, p) defining a D(q,p) germ in C^n.

    n is the ambient dimension, q the dimension of the singular locus
    and p the size of the symmetric matrix in the normal form.  The
    derived counts are k = n - q - p square terms and q1 = q - p(p+1)/2
    inert coordinates.  Construction validates:

        p >= 1,   q >= p(p+1)/2,   n >= q + p,

    which is equivalent to k >= 0 and q1 >= 0, with n = p + k + q
    holding exactly by definition of k.
    """

    n: int
    q: int
    p: int

    def __post_init__(self):
        require_int("n", self.n)
        require_int("q", self.q)
        require_int("p", self.p, 1)
        bound = self.p * (self.p + 1) // 2
        if self.q < bound:
            raise ValidationError(
                f"q must satisfy q >= p(p+1)/2 "
                f"(got q={shown(self.q)}, p(p+1)/2={shown(bound)})"
            )
        if self.n < self.q + self.p:
            raise ValidationError(
                f"n must satisfy n >= q + p "
                f"(got n={shown(self.n)}, q + p={shown(self.q + self.p)})"
            )

    @property
    def k(self) -> int:
        """Number of square terms in the normal form."""
        return self.n - self.q - self.p

    @property
    def q1(self) -> int:
        """Number of inert coordinates absent from the normal form."""
        return self.q - self.p * (self.p + 1) // 2


def validate_params(n: int, q: int, p: int) -> DqpParams:
    """Validate raw integers (n, q, p) and return the parameter triple.

    Raises ValidationError naming the violated inequality otherwise.
    """
    return DqpParams(n, q, p)


def minimal_params(p: int) -> DqpParams:
    """Parameters of the minimal D(q,p) germ: q = p(p+1)/2, k = 0, q1 = 0."""
    q = p * (p + 1) // 2
    return validate_params(q + p, q, p)


def milnor_sphere_dimension(params: DqpParams) -> int:
    """Dimension of the sphere the Milnor fiber is homotopy equivalent to.

    For the minimal germ the fiber {f = 1} fibers over C^p minus the
    origin with contractible affine-hyperplane fibers, so it retracts to
    S^{2p-1}; inert coordinates change nothing and each square term
    suspends once.  The result is p + n - q - 1.
    """
    return params.p + params.n - params.q - 1


def reduced_euler_characteristic(params: DqpParams) -> int:
    """Reduced Euler characteristic of the Milnor fiber: (-1)^(p+n-q-1)."""
    return (-1) ** milnor_sphere_dimension(params)


def le_numbers(params: DqpParams) -> dict[int, int]:
    """The full Lê number table of a D(q,p) germ: lambda^d keyed by d in 0..q.

    lambda^{q-i} = 2^i * C(p, p-i) for 0 <= i <= p and lambda^d = 0 for
    every other dimension d in 0..q.  The inert coordinates only shift
    the cycle dimensions up by q1 and the square terms leave the cycles
    unchanged, so the table depends on (q, p) alone.  A table of more
    than LE_TABLE_LIMIT entries is refused before it is allocated.
    """
    return _dense_table("Lê", params.q, params.p, 0)


def polar_multiplicities_sigma1(p: int) -> dict[int, int]:
    """Polar multiplicities at 0 of the degenerate symmetric matrices.

    m^d, keyed by d in 0..p(p+1)/2 - 1, is the multiplicity of the
    d-dimensional polar variety of the determinant hypersurface (kernel
    rank >= 1) in the space C^{p(p+1)/2} of symmetric p x p matrices.

    m^{p(p+1)/2 - i - 1} = 2^i * C(p, p-i-1) for 0 <= i < p, zero at
    every other dimension.  Each entry is exactly half the Lê number of
    the minimal D(p(p+1)/2, p) germ at the same dimension, because the
    corresponding Lê cycles carry multiplicity 2.  A table of more than
    LE_TABLE_LIMIT entries is refused before it is allocated.
    """
    require_int("p", p, 1)
    return _dense_table("polar", p * (p + 1) // 2 - 1, p, 1)


def _dense_table(name: str, top: int, p: int, shift: int) -> dict[int, int]:
    """{d: 0} over d in 0..top, with entry top - i = 2^i * C(p, p - i - shift).

    More than LE_TABLE_LIMIT entries are refused before any is allocated.
    """
    work = f"a {name} table over dimensions 0..{shown(top)} (entries)"
    require_within(work, top + 1, LE_TABLE_LIMIT)
    entries = {d: 0 for d in range(top + 1)}
    for i in range(p + 1 - shift):
        entries[top - i] = 2**i * comb(p, p - i - shift)
    return entries


def euler_obstruction_sigma1(p: int) -> int:
    """Euler obstruction at 0 of the degenerate symmetric p x p matrices.

    0 for p even and 1 for p odd.  By Lê–Teissier it is the alternating
    sum of the polar multiplicities, signed so the top-dimensional term
    is positive; :mod:`dqp.verify` compares this value with that sum over
    the multiplicities the incidence systems compute.
    """
    require_int("p", p, 1)
    return p % 2


def euler_obstruction_hypersurface(params: DqpParams) -> int:
    """Euler obstruction at 0 of the hypersurface cut out by a D(q,p) germ.

    Only the two fixed Lê cycles contribute and the relative polar curve
    is empty, so the obstruction reduces to

        Eu(X) = 1 + (-1)^(n-q) + (-1)^(n-q-1) * Eu(degenerate locus),

    which collapses to 1 + (-1)^(n-q) for p even and to 1 for p odd;
    :mod:`dqp.verify` builds the right-hand side from the computed
    Eu(degenerate locus) and compares.  The reduction is only
    established for p > 1; p = 1 is rejected rather than guessed.
    """
    if params.p == 1:
        raise ValidationError(
            "p must satisfy p > 1 for the hypersurface Euler obstruction (got p=1)"
        )
    return 1 + (-1) ** (params.n - params.q) if params.p % 2 == 0 else 1


def verify_massey_identity(params: DqpParams) -> bool:
    """Check the alternating-sum identity against the reduced Euler characteristic.

    sum_d (-1)^((n-1)-d) * lambda^d must equal (-1)^(p+n-q-1), i.e. the
    expansion of (2-1)^p.  True for every valid parameter triple; a
    False return signals an internal bug, not bad input.
    """
    n = params.n
    total = sum((-1) ** ((n - 1) - d) * value for d, value in le_numbers(params).items())
    return total == reduced_euler_characteristic(params)
