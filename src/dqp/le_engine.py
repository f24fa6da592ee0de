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
:mod:`dqp.core`.  This module builds those bidegree systems and
evaluates them through :mod:`dqp.chow`.

It also measures the order at the origin of the symmetric determinant,
the multiplicity of the degenerate-matrix locus, without expanding it:
on a line t -> t*A through the origin the determinant is a polynomial in
t of degree at most p, so exact integer determinants at t = 0, ..., p+1
interpolate it, through the same Newton kernel that dqp.ffcount's
counting polynomial uses, and its order at t = 0 is the order of the
determinant along that line.  On a generic line that is the order at the
origin.  A line on which the determinant vanishes identically (det A = 0)
is redrawn, and the minimum over a few seeded lines is returned.

Genericity of the quadrics and hyperplanes is not witnessed: the count
is a statement about classes, and the class of a generic representative
is all the intersection number consumes.
"""

from __future__ import annotations

import random

from . import chow, ffcount
from .chow import BidegreeSystem, intersection_number_ring
from .errors import require_int, require_within, shown

__all__ = [
    "build_le_system",
    "require_le_systems",
    "le_number_via_chow",
    "underlying_multiplicity_via_chow",
    "det_multiplicity",
    "DET_P_LIMIT",
]

# Caps det_multiplicity's p; the slowest admitted call, p = 36, takes ~0.6-0.9 s.
DET_P_LIMIT = 36


def build_le_system(p: int, i: int) -> BidegreeSystem:
    """Bidegree system of the dimension-(q - i) Lê cycle, q = p(p+1)/2.

    Ambient P^{p(p+1)/2 - 1} x P^{p-1}; classes are p copies of (1,1),
    i - 1 copies of (0,2) and p(p+1)/2 - i - 1 copies of (1,0).  Needs
    p >= 2 (for p = 1 the hyperplane count would go negative) and
    1 <= i <= p; require_le_systems(p, 1) refuses it before any class.
    """
    require_int("p", p, 2)
    require_int("i", i, 1, p)
    require_le_systems(p, 1)
    ambient_n = p * (p + 1) // 2 - 1
    ambient_m = p - 1
    hyperplanes = p * (p + 1) // 2 - i - 1
    classes = ((1, 1),) * p + ((0, 2),) * (i - 1) + ((1, 0),) * hyperplanes
    return chow._system(ambient_n, ambient_m, classes)


def require_le_systems(p: int, systems: int) -> None:
    """Refuse `systems` ring products of Lê systems of size p past RING_CELL_LIMIT.

    Every system of build_le_system(p, i) has n + 1 = p(p+1)/2 cells and
    n + m = p(p+1)/2 + p - 2 classes, whatever i is.  The ring product
    updates at most m + 1 = p of the cells per class; like
    RING_CELL_LIMIT's own check, this one counts all n + 1, an upper bound.
    """
    require_int("p", p, 2)
    half = p * (p + 1) // 2
    work = f"{shown(systems)} Lê systems of p = {shown(p)} (cell updates)"
    require_within(work, systems * half * (half + p - 2), chow.RING_CELL_LIMIT)


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


def _bareiss_det(matrix: list[list[int]]) -> int:
    """Exact integer determinant by fraction-free (Bareiss) elimination."""
    m, sign, prev = list(matrix), 1, 1
    while len(m) > 1:
        if m[0][0] == 0:
            swap = next((r for r, row in enumerate(m) if row[0]), None)
            if swap is None:
                return 0
            m[0], m[swap] = m[swap], m[0]
            sign = -sign
        # Drop the pivot's row and column; each division is exact, since
        # every entry is a minor of the input.
        (pivot, *rest), *below = m
        m = [
            [(v * pivot - row[0] * w) // prev for v, w in zip(row[1:], rest)]
            for row in below
        ]
        prev = pivot
    return sign * m[0][0]


def det_multiplicity(p: int) -> int:
    """Order at the origin of the determinant of a symmetric p x p matrix.

    The minimum, over three seeded lines t -> t*A, of the order at t = 0
    of det(t*A), interpolated from exact determinants at t = 0..p+1.  A
    is an integer symmetric matrix, redrawn while det A = 0; if 100 draws
    are all singular the line reports p + 2, which no determinant of
    degree p can reach, and so does a line whose values fit no integer
    polynomial.  A p past DET_P_LIMIT is refused before any draw.
    """
    require_int("p", p, 1)
    require_within("det_multiplicity (the matrix size p)", p, DET_P_LIMIT)
    orders = []
    for line in range(3):
        rng = random.Random(f"det:{p}:{line}")
        for _ in range(100):
            upper = {(r, c): rng.randint(-9, 9) for r in range(p) for c in range(r, p)}
            a = [[upper[min(r, c), max(r, c)] for c in range(p)] for r in range(p)]
            values = [
                _bareiss_det([[t * x for x in row] for row in a]) for t in range(p + 2)
            ]
            if values[1]:
                break
        coeffs = ffcount._interpolate(list(range(p + 2)), values) or ()
        orders.append(next((d for d, c in enumerate(coeffs) if c), p + 2))
    return min(orders)
