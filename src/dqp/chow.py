"""Intersection numbers of hypersurface classes on P^n x P^m.

The cohomology ring of P^n x P^m is Z[h, k] / (h^{n+1}, k^{m+1}), with h
and k the hyperplane classes of the two factors.  A hypersurface of
bidegree (a, b) has class a*h + b*k, and the intersection number of
n + m such hypersurfaces is the coefficient of h^n k^m in the product of
their classes.  Two independent algorithms compute it:

* ``intersection_number_ring`` multiplies the classes one at a time into
  a truncated coefficient array, O(n+1) per class;
* ``intersection_number_fulton`` sums, over all splittings of the class
  list into an n-subset of a-factors and the complementary m-subset of
  b-factors, the product a_{i_1}..a_{i_n} * b_{j_1}..b_{j_m}.  It walks
  the splittings depth first, one class at a time, carrying the running
  product: a zero factor prunes every splitting below it, and each leaf
  is one n-subset, never a merged degree as in the ring route.

The two must agree on every input; the verification suite cross-checks
them on a seeded random corpus.  The subset sum is exponential in n + m,
so it refuses systems with more than FULTON_SUBSET_LIMIT classes; larger
systems use the ring route only.  The ring route in turn refuses a
system whose (n + 1) * (n + m) cell updates exceed RING_CELL_LIMIT.

A class is its bidegree, the plain pair (a, b), as in
``BidegreeSystem(1, 1, ((1, 1), (1, 1)))``; ``BidegreeSystem`` validates
every class once, on construction.  ``_system`` checks nothing; it builds
only systems valid by construction: the Lê systems of :mod:`dqp.le_engine`,
after its own checks, and the seeded systems of :mod:`dqp.verify`.
Coefficients are arbitrary-precision integers throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ValidationError, naturals, require_int, require_within, shown

__all__ = [
    "BidegreeSystem",
    "intersection_number_ring",
    "intersection_number_fulton",
    "FULTON_SUBSET_LIMIT",
    "RING_CELL_LIMIT",
]

# comb(24, 12) is about 2.7M subsets, each a leaf of the depth-first walk:
# 24 classes (1, 1) with n = m = 12 take ~0.4 s in process on a 2-core VM.
# Beyond that the subset sum stops being a reasonable cross-check and only
# the ring route runs.
FULTON_SUBSET_LIMIT = 24

# The p = 200 Lê system (4*10^8 cells) took 15.7 s; under this limit a Lê
# system takes <= 0.3 s, and classes with huge coefficients up to ~4 s.
RING_CELL_LIMIT = 10**7


@dataclass(frozen=True)
class BidegreeSystem:
    """n + m hypersurface classes on P^n x P^m, for a zero-dimensional count.

    Each class is its bidegree (a, b), the class a*h + b*k: a pair of
    nonnegative ints, not both 0.  ``classes`` is stored as a tuple.
    """

    ambient_n: int
    ambient_m: int
    classes: tuple[tuple[int, int], ...]

    def __post_init__(self):
        require_int("ambient_n", self.ambient_n, 0)
        require_int("ambient_m", self.ambient_m, 0)
        classes = tuple(self.classes)  # a one-shot iterable is read once
        expected = self.ambient_n + self.ambient_m
        if len(classes) != expected:
            raise ValidationError(
                f"class count must equal ambient_n + ambient_m "
                f"(got {len(classes)} classes for n+m={shown(expected)})"
            )
        for cls in classes:
            if not (
                isinstance(cls, tuple) and len(cls) == 2 and naturals(cls) and any(cls)
            ):
                raise ValidationError(
                    "a bidegree class is an (a, b) pair of nonnegative ints, "
                    f"not both 0 (got {shown(cls)})"
                )
        object.__setattr__(self, "classes", classes)


def _system(n: int, m: int, classes: tuple[tuple[int, int], ...]) -> BidegreeSystem:
    """BidegreeSystem(n, m, classes) without its checks, for a valid class tuple."""
    system = object.__new__(BidegreeSystem)
    vars(system).update(ambient_n=n, ambient_m=m, classes=classes)
    return system


def intersection_number_ring(system: BidegreeSystem) -> int:
    """Coefficient of h^n k^m in the truncated product of the classes.

    A product of j classes is homogeneous of degree j, so after j
    factors ``coeffs[u]`` holds the coefficient of h^u k^(j-u); terms
    with j - u > m are truncated to zero.  Each class multiplies in
    place, walking u downwards so every entry reads its neighbour before
    it is overwritten.
    """
    n, m = system.ambient_n, system.ambient_m
    work = f"the ring product of {len(system.classes)} classes (cell updates)"
    require_within(work, (n + 1) * len(system.classes), RING_CELL_LIMIT)
    coeffs = [1] + [0] * n
    for j, (a, b) in enumerate(system.classes, 1):
        for u in range(min(j, n), -1, -1):
            if j - u > m:
                coeffs[u] = 0
            else:
                coeffs[u] = b * coeffs[u] + (a * coeffs[u - 1] if u else 0)
    return coeffs[n]


def intersection_number_fulton(system: BidegreeSystem) -> int:
    """Subset-sum form of the same intersection number.

    Sums a_{i_1}..a_{i_n} * b_{j_1}..b_{j_m} over all partitions of the
    class list into an n-subset and its complement, depth first: each
    class takes its a- or its b-factor into the running product, a zero
    factor prunes its branch, and once the remaining choices are forced
    (no a-factor left to take, or every remaining class must give one)
    the branch is one subset, finished by a suffix product.
    """
    n, m = system.ambient_n, system.ambient_m
    total = n + m
    require_within("the subset sum (classes)", total, FULTON_SUBSET_LIMIT)
    a = [cls[0] for cls in system.classes]
    b = [cls[1] for cls in system.classes]
    # rest_a[i] and rest_b[i]: the products of a[i:] and of b[i:].
    rest_a = [1] * (total + 1)
    rest_b = [1] * (total + 1)
    for i in range(total - 1, -1, -1):
        rest_a[i] = a[i] * rest_a[i + 1]
        rest_b[i] = b[i] * rest_b[i + 1]

    def walk(i: int, picks: int, product: int) -> int:
        # `picks` a-factors are still to be taken from classes i, i+1, ...
        if not picks:
            return product * rest_b[i]
        if picks == total - i:
            return product * rest_a[i]
        result = walk(i + 1, picks - 1, product * a[i]) if a[i] else 0
        if b[i]:
            result += walk(i + 1, picks, product * b[i])
        return result

    return walk(0, n, 1)
