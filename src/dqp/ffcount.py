"""Point counts of the normal-form fiber over small prime fields.

The Milnor fiber of the homogeneous germ f = sum_{i<=j} x_{ij} y_i y_j
can be replaced by the affine set {f = 1}, which fibers over the
nonzero y-vectors: once y = b is nonzero, b^t X b = 1 is a single
nontrivial affine-linear condition on the remaining coordinates.  Over
F_prime that reasoning predicts exactly

    (prime^p - 1) * prime^(n - p - 1)

points, a polynomial in the field size whose value at t = 1 is 0, the
Euler characteristic of an odd sphere.  This module counts by
exhaustive enumeration (count_points) and recovers the counting
polynomial by exact integer (Newton) interpolation of observed counts;
neither route reads that closed form.  predicted_count evaluates it,
and the callers (dqp.verify, the CLI's count command) compare.

Only the square-free normal form (no y^2 suspension terms, k = 0) is
counted: suspension terms would drag quadratic character sums into the
count, while the k = 0 case stays elementary and exact.  Odd primes
only, since characteristic 2 breaks the symmetric-form calculus.

The enumeration puts the y-block outermost so the y = 0 slab (where f
vanishes identically) is skipped, and coordinates that the formula
never reads contribute an analytic factor prime^q1.  For each nonzero y
the x-block is counted exactly in pure Python: f is then the linear
form sum_k c_k x_k with c = (y_i y_j mod prime), whose value
distribution is the cyclic convolution of one histogram per coordinate,
each built by looping over F_prime.  The distribution depends only on
the multiset of coefficients, so y-vectors are grouped by their sorted
coefficient tuple and each group is counted once.  Only the standard
library is used.
"""

from __future__ import annotations

import itertools
import math
import operator
import os
import threading
from collections import Counter
from collections.abc import Collection, Iterator
from dataclasses import dataclass

from .core import DqpParams
from .errors import CheckError, ValidationError, is_int, require_int, require_within, shown

__all__ = [
    "NormalFormSpec",
    "PointCountReport",
    "predicted_count",
    "count_points",
    "count_nonzero_y_slice",
    "counting_polynomial",
    "evaluate_polynomial",
    "DEFAULT_BUDGET",
]

DEFAULT_BUDGET = 10**8


@dataclass(frozen=True)
class NormalFormSpec:
    """Shape of the square-free normal form: matrix size p, q1 unread coordinates.

    Coordinate layout, in order: the p(p+1)/2 matrix entries x_{ij}
    (i <= j, row-major), then q1 coordinates the formula ignores, then
    y_1 ... y_p.  Total n = p(p+1)/2 + q1 + p.
    """

    p: int
    q1: int = 0

    def __post_init__(self) -> None:
        require_int("p", self.p, 1)
        require_int("q1", self.q1, 0)

    @property
    def matrix_variable_count(self) -> int:
        return self.p * (self.p + 1) // 2

    @property
    def n(self) -> int:
        return self.matrix_variable_count + self.q1 + self.p

    @property
    def params(self) -> DqpParams:
        """The germ parameters this shape realizes (k = 0, so n = q + p)."""
        q = self.matrix_variable_count + self.q1
        return DqpParams(n=self.n, q=q, p=self.p)


@dataclass(frozen=True)
class PointCountReport:
    """The count of {f = target} over F_prime^n, and how many points were enumerated."""

    prime: int
    target: int
    observed_count: int
    enumerated: int


def _require_odd_modulus(prime: int) -> None:
    if not is_int(prime) or prime < 3 or prime % 2 == 0:
        raise ValidationError(f"the modulus must be an odd prime (got {shown(prime)})")


def _is_odd_prime(n: int) -> bool:
    """Trial division by the odd numbers up to isqrt(n): exact for odd n >= 3."""
    return all(n % d for d in range(3, math.isqrt(n) + 1, 2))


def _require_odd_prime(prime: int) -> None:
    """Refuse a modulus that is even, composite or past the counter's own limit.

    Every count and slice meets its points or steps limit, at least the
    modulus, before this test: so DEFAULT_BUDGET refuses no modulus they
    admit, and caps trial division at 5000 odd divisors.
    """
    _require_odd_modulus(prime)
    require_within("the modulus", prime, DEFAULT_BUDGET)
    if not _is_odd_prime(prime):
        raise ValidationError(f"the modulus must be an odd prime (got {shown(prime)})")


def predicted_count(spec: NormalFormSpec, prime: int) -> int:
    """(prime^p - 1) * prime^(n - p - 1): one linear condition per nonzero y."""
    _require_odd_prime(prime)
    return (prime**spec.p - 1) * prime ** (spec.n - spec.p - 1)


def _coordinate_values(coefficient: int, prime: int) -> Iterator[int]:
    """c * x mod prime for every x in F_prime: the terms of one coordinate."""
    return (coefficient * x % prime for x in range(prime))


def _solve_linear_forms(
    forms: Collection[tuple[int, ...]], prime: int, target: int
) -> dict[tuple[int, ...], int]:
    """#{x : sum_k c_k x_k = target mod prime} for each form c, all of one size.

    A distribution over F_prime is packed into one int, entry v in the
    width-bit digit v, so a cyclic convolution is one multiplication
    whose upper prime digits fold back onto the lower ones.  A digit
    never overflows: no entry exceeds prime^size, the number of
    x-vectors summed over.  A form of size 2 or more starts from the
    distribution 1 and convolves the packed histogram of each
    coefficient in turn; each histogram is built once per call.
    """
    size = len(next(iter(forms), ()))
    digit_bytes = -(-(prime**size).bit_length() // 8)
    width = 8 * digit_bytes
    cycle = width * prime
    low = (1 << cycle) - 1
    digit = (1 << width) - 1
    histograms: dict[int, int] = {}
    solutions = {}
    for form in forms:
        if len(form) == 1:
            solutions[form] = operator.countOf(
                _coordinate_values(form[0], prime), target
            )
            continue
        distribution = 1
        for coefficient in form:
            packed = histograms.get(coefficient)
            if packed is None:
                counts = Counter(_coordinate_values(coefficient, prime))
                packed = histograms[coefficient] = int.from_bytes(
                    b"".join(
                        counts[v].to_bytes(digit_bytes, "little") for v in range(prime)
                    ),
                    "little",
                )
            product = distribution * packed
            distribution = (product & low) + (product >> cycle)
        solutions[form] = (distribution >> (width * target)) & digit
    return solutions


class _SharedForms:
    """The forms of every slice of one count_points call, each solved once.

    Each slice, on its own thread, publishes the forms of its y-range and
    waits for the others; one of them then solves their union in a single
    _solve_linear_forms call, and each slice weights the solutions of its
    own forms.  A form that occurs in several slices is therefore solved
    once per call: for p = 1, y and -y share the form (y^2) but fall in
    different halves of the y-range.  Waiting for the union is also why
    the slices of one call always overlap in time; they take turns on the
    interpreter lock, so they never count faster than one thread.
    """

    def __init__(self, parties: int) -> None:
        self._barrier = threading.Barrier(parties)
        self._published: list[Counter[tuple[int, ...]]] = []
        self._solutions: dict[tuple[int, ...], int] = {}

    def solve(
        self, forms: Counter[tuple[int, ...]], prime: int, target: int
    ) -> dict[tuple[int, ...], int]:
        self._published.append(forms)
        if self._barrier.wait() == 0:
            union = set().union(*self._published)
            self._solutions = _solve_linear_forms(union, prime, target)
        self._barrier.wait()
        return self._solutions

    def abort(self) -> None:
        """Release the other slices after this one failed."""
        self._barrier.abort()


def count_nonzero_y_slice(
    spec: NormalFormSpec,
    prime: int,
    target: int,
    start: int,
    stop: int,
    *,
    shared: _SharedForms | None = None,
) -> int:
    """Count of {f = target} over y-vectors with lexicographic index in [start, stop).

    Indices run over all prime^p y-vectors; the y = 0 slab contributes
    nothing because f vanishes there and target is nonzero.  The count
    covers the x-block only; unread coordinates are a flat factor
    prime^q1 applied by the caller.  Disjoint slices add up to the full
    count, whatever the partition.  count_points passes `shared` to the
    slices it runs at once, so that they solve each form once between
    them.  A slice is refused before the pairs are built when its
    histogram steps pass DEFAULT_BUDGET: y-vectors (at least one) times
    its p(p+1)/2 index pairs times prime, the field elements each
    pair's histogram runs over, before the modulus is tested for
    primality.  count_points never asks for one.
    """
    require_int("target", target)
    require_int("start", start)
    require_int("stop", stop)
    _require_odd_modulus(prime)
    if not 0 < target % prime:
        raise ValidationError(
            f"target must be nonzero mod {shown(prime)} (got {shown(target)})"
        )
    # One y-vector's steps; past the budget the bound below refuses any range,
    # so prime^p is formed only for p(p+1)/2 * prime <= DEFAULT_BUDGET.
    vector_steps = spec.matrix_variable_count * prime
    if vector_steps <= DEFAULT_BUDGET and not 0 <= start <= stop <= prime**spec.p:
        raise ValidationError(
            f"slice [{shown(start)}, {shown(stop)}) out of range for "
            f"{shown(prime)}^{shown(spec.p)} y-vectors"
        )
    work = f"the slice [{shown(start)}, {shown(stop)}) (histogram steps)"
    require_within(work, max(stop - start, 1) * vector_steps, DEFAULT_BUDGET)
    _require_odd_prime(prime)
    pairs = [(i, j) for i in range(spec.p) for j in range(i, spec.p)]
    y_vectors = itertools.islice(
        itertools.product(range(prime), repeat=spec.p), start, stop
    )
    forms = Counter(
        tuple(sorted([y[i] * y[j] % prime for i, j in pairs]))
        for y in y_vectors
        if any(y)
    )
    if shared is None:
        solutions = _solve_linear_forms(forms, prime, target % prime)
    else:
        solutions = shared.solve(forms, prime, target % prime)
    return sum(
        multiplicity * solutions[form] for form, multiplicity in forms.items()
    )


def count_points(
    spec: NormalFormSpec,
    prime: int,
    target: int = 1,
    jobs: int = 1,
) -> PointCountReport:
    """Exhaustive count of {f = target} in F_prime^n.

    The report holds the count only; callers compare it with
    predicted_count.  A count past DEFAULT_BUDGET points (prime^n) is
    refused before the modulus is tested for primality.  With jobs > 1
    the y-range is split into contiguous slices counted on worker
    threads, at most one per y-vector and per core; integer addition of
    disjoint slice counts makes the result independent of the partition
    and the scheduling.
    The slices share their forms (see _SharedForms) and solve them in
    one call, so they do the work of one slice, but the counter holds
    the interpreter lock: jobs > 1 is never faster than jobs = 1.
    """
    require_int("jobs", jobs, 1)
    require_int("target", target)
    _require_odd_modulus(prime)
    # prime >= 3 > 2, so prime^n > DEFAULT_BUDGET once n passes its bit length:
    # refuse without computing the power, whose size n alone can blow up.
    enumerated = None if spec.n > DEFAULT_BUDGET.bit_length() else prime**spec.n
    work = f"counting {shown(prime)}^{shown(spec.n)} points"
    require_within(work, enumerated, DEFAULT_BUDGET)
    _require_odd_prime(prime)
    total_y = prime**spec.p
    # os.cpu_count() reads the system on every call: one job needs no count.
    workers = 1 if jobs == 1 else min(jobs, total_y, os.cpu_count() or 1)
    if workers == 1:
        base = count_nonzero_y_slice(spec, prime, target, 0, total_y)
    else:
        from concurrent.futures import ThreadPoolExecutor  # loads logging: only here
        shared = _SharedForms(workers)

        def count_slice(bounds: tuple[int, int]) -> int | None:
            try:
                return count_nonzero_y_slice(
                    spec, prime, target, *bounds, shared=shared
                )
            except threading.BrokenBarrierError:
                return None  # another slice failed and raises its own error
            except BaseException:
                shared.abort()
                raise

        edges = [round(j * total_y / workers) for j in range(workers + 1)]
        # The slices wait for each other, so each needs its own thread: a
        # pool of `workers` threads gives one to each of `workers` slices,
        # since none finishes before all have started.
        with ThreadPoolExecutor(max_workers=workers) as pool:
            # list() raises a failed slice's error before sum() meets a None.
            base = sum(list(pool.map(count_slice, zip(edges, edges[1:]))))
    return PointCountReport(
        prime=prime,
        target=target % prime,
        observed_count=base * prime**spec.q1,
        enumerated=enumerated,
    )


def _first_odd_primes(count: int) -> list[int]:
    return list(itertools.islice(filter(_is_odd_prime, itertools.count(3, 2)), count))


def counting_polynomial(spec: NormalFormSpec) -> tuple[int, ...]:
    """Coefficients (ascending) of N(t), the observed point count as a polynomial in t.

    The unread coordinates are an exact factor t^q1, so only the base
    count (q1 = 0) is sampled: it is counted at the first
    p(p+1)/2 + p odd primes and interpolated exactly.  Raises CheckError
    if a coefficient is not an integer, or if the polynomial misses the
    count at one more, held-out prime.  Refused before the first count past
    DEFAULT_BUDGET in index-pair products summed over its slices.
    """
    base = NormalFormSpec(spec.p)
    pairs = base.matrix_variable_count
    work = f"counting_polynomial of p = {shown(spec.p)} (index-pair products)"
    # Every prime is >= 3: refuse at that floor before listing primes or forming 3^p.
    if pairs > DEFAULT_BUDGET or (base.n + 1) * 3**base.p * pairs > DEFAULT_BUDGET:
        require_within(work, None, DEFAULT_BUDGET)
    primes = _first_odd_primes(base.n + 1)
    require_within(work, sum(prime**base.p for prime in primes) * pairs, DEFAULT_BUDGET)
    counts = [
        count_nonzero_y_slice(base, prime, 1, 0, prime**base.p) for prime in primes
    ]
    interpolated = _interpolate(primes[:-1], counts[:-1])
    if interpolated is None:
        raise CheckError(
            f"interpolated count for p={spec.p} is not an integer polynomial"
        )
    held_out = evaluate_polynomial(interpolated, primes[-1])
    if held_out != counts[-1]:
        raise CheckError(
            f"interpolated count for p={spec.p} gives {held_out} at the held-out "
            f"prime {primes[-1]}, where {counts[-1]} points were counted"
        )
    return (0,) * spec.q1 + interpolated


def _interpolate(nodes: list[int], values: list[int]) -> tuple[int, ...] | None:
    """Integer coefficients (ascending) of the polynomial through the samples.

    Newton divided differences by exact integer division, then Horner's
    rule: at integer nodes a polynomial has integer coefficients iff every
    divided difference is an integer, so a nonzero remainder gives None.
    """
    newton, column = [values[0]], values
    for k in range(1, len(nodes)):
        pairs = zip(column, column[1:], nodes, nodes[k:])
        steps = [divmod(b - a, y - x) for a, b, x, y in pairs]
        if any(r for _, r in steps):
            return None
        column = [q for q, _ in steps]
        newton.append(column[0])
    coeffs: list[int] = []
    for node, c in zip(reversed(nodes), reversed(newton)):
        # coeffs * (t - node) + c
        coeffs = [a - node * b for a, b in zip([0, *coeffs], [*coeffs, 0])]
        coeffs[0] += c
    return tuple(coeffs)


def evaluate_polynomial(coeffs: tuple[int, ...], t: int) -> int:
    value = 0
    for c in reversed(coeffs):
        value = value * t + c
    return value
