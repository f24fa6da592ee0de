"""Monomial-ideal integral closure, decided two independent ways.

A monomial x^a in n variables is its exponent tuple a, n nonnegative
ints; a monomial ideal I is a tuple of such generators.  x^a lies in the
integral closure of I exactly when a is in the Newton polyhedron
conv(exponents of generators) + R_{>=0}^n.  Route one decides that
membership by exact rational feasibility: find mu_g >= 0 summing to 1
with sum mu_g * g <= a componentwise, via an integer-pivoting phase-1
simplex on the condensed (Tucker) tableau, one column per nonbasic
variable (Edmonds 1967, Bareiss 1968): every cell is held in `int`,
scaled by the last pivot element, and every update divides exactly, so
nothing is rounded and no rational is built.  The simplex certifies its
answer (McConnell, Mehlhorn, Näher and Schweitzer 2011): its final
tableau gives either the weights of a convex combination of generators
below a, or a Farkas weight w >= 0 with <w, a> < min_g <w, g>, and
check_newton_certificate checks either in exact ints without trusting
the simplex.  Route two is
the valuative criterion: x^a is in the closure iff for every monomial
curve t -> (t^{w_1}, ..., t^{w_n}) with integer w >= 0 the pullback order
<w, a> is at least the minimal generator order min_g <w, g>.  Checking
finitely many weight vectors is only a falsification tool in general,
but checking the facet normals of the Newton polyhedron is complete.
Those normals are the extreme rays of a pointed cone, enumerated exactly
by the double description method in any number of variables, under one
ray budget (FACET_RAY_LIMIT) checked before any ray is built.  Both
routes run in plain int: a witness curve is a tuple of its integer
weights, and every ray is a primitive integer vector.

The reduction test (same integral closure, equivalently finite induced
blow-up) is what makes the two-variable-block germ computations work:
(y_1^2, ..., y_p^2) is a reduction of the square of (y_1, ..., y_p),
which caps how many generators the relevant Jacobian-type ideal needs.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import partial, reduce
from math import comb, gcd
from operator import and_, le, mul

from .errors import (
    ValidationError,
    naturals,
    require_int,
    require_seed,
    require_within,
    shown,
)

__all__ = [
    "MonomialIdeal",
    "power_ideal",
    "in_integral_closure_newton",
    "newton_certificate",
    "check_newton_certificate",
    "in_integral_closure_valuative",
    "in_integral_closure_facets",
    "newton_facet_normals",
    "default_witnesses",
    "is_reduction",
    "facet_ray_bound",
    "FACET_RAY_LIMIT",
    "NEWTON_CELL_LIMIT",
    "POWER_SUM_LIMIT",
    "require_newton_tableau",
    "DEFAULT_RANDOM_WITNESSES",
]

# Caps facet_ray_bound(n, g); it admits every input in 4 or fewer variables
# that NEWTON_CELL_LIMIT admits (195 generators in 4 variables bound 19,502).
FACET_RAY_LIMIT = 19502

# Caps (n + 1)(g + n + 1), n variables and g generators: the cells of the
# phase-1 tableau with a column per slack, which bounds the condensed
# (n + 1) x (g + 1) tableau the simplex rewrites on every pivot.  The slowest
# case measured at this limit, 330 generators in 2 variables, takes ~0.02 s.
NEWTON_CELL_LIMIT = 1000

# Caps comb(g + e - 1, e) * e, the tuples summed for the e-th power of g
# generators; the slowest admitted, (y1*...*y30)^(5 * 10^5), takes ~0.4 s.
POWER_SUM_LIMIT = 5 * 10**5

DEFAULT_RANDOM_WITNESSES = 50


@dataclass(frozen=True)
class MonomialIdeal:
    """Nonempty monomial ideal, held by a minimal generating set.

    Each generator is an exponent tuple of variable_count nonnegative ints.
    Construction drops any generator divisible by another, so two
    presentations of the same ideal compare equal.
    """

    variable_count: int
    generators: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        require_int("variable_count", self.variable_count, 1)
        generators = tuple(self.generators)  # a one-shot iterable is read once
        if not generators:
            raise ValidationError("a monomial ideal needs at least one generator")
        for g in generators:
            self._check_dimension(g)
        object.__setattr__(self, "generators", _minimal(generators))

    def contains_monomial(self, m: tuple[int, ...]) -> bool:
        """Plain ideal membership: some generator divides m."""
        self._check_dimension(m)
        return _divides(self.generators, m)

    def _check_dimension(self, m: tuple[int, ...]) -> None:
        """Refuse anything but a tuple of variable_count nonnegative ints."""
        n = self.variable_count
        if not isinstance(m, tuple) or len(m) != n or not naturals(m):
            raise ValidationError(
                f"a monomial here is a tuple of {shown(n)} nonnegative ints "
                f"(got {shown(m)})"
            )


def _ideal(n: int, generators) -> MonomialIdeal:
    """MonomialIdeal(n, generators) without its checks, for valid generators."""
    ideal = object.__new__(MonomialIdeal)
    vars(ideal).update(variable_count=n, generators=_minimal(generators))
    return ideal


def _minimal(generators) -> tuple[tuple[int, ...], ...]:
    """The generators no other one divides, in descending lexicographic order."""
    # A proper divisor is lexicographically smaller, so in ascending
    # order each generator need only meet the minimal ones before it.
    minimal: list[tuple[int, ...]] = []
    for e in sorted(set(generators)):
        if not _divides(minimal, e):
            minimal.append(e)
    # Descending lexicographic order puts y1-heavy generators first,
    # matching the usual way these ideals are written.
    return tuple(reversed(minimal))


def _divides(generators, m: tuple[int, ...]) -> bool:
    """Some generator divides m, all of one length; checks nothing."""
    return any(all(map(le, g, m)) for g in generators)


def power_ideal(ideal: MonomialIdeal, e: int) -> MonomialIdeal:
    """e-th power: all e-fold generator products, minimalized on construction.

    Refused before any product past POWER_SUM_LIMIT or require_newton_tableau.
    """
    require_int("e", e, 1)
    # At least g products: a huge power is refused before comb, which takes seconds.
    g = len(ideal.generators)
    count = g if g * e > POWER_SUM_LIMIT else comb(g + e - 1, e)
    work = f"power {shown(e)} of {g} generators (exponent tuples summed)"
    require_within(work, count * e, POWER_SUM_LIMIT)
    require_newton_tableau(ideal.variable_count, count)
    products = (
        tuple(map(sum, zip(*combo)))
        for combo in itertools.combinations_with_replacement(ideal.generators, e)
    )
    return _ideal(ideal.variable_count, products)


def require_newton_tableau(variable_count: int, generator_count: int) -> None:
    """Refuse a Newton simplex past NEWTON_CELL_LIMIT: (n + 1)(g + n + 1) cells."""
    n, g = variable_count, generator_count
    work = f"the Newton tableau of {shown(g)} generators in {shown(n)} variables (cells)"
    require_within(work, (n + 1) * (g + n + 1), NEWTON_CELL_LIMIT)


def in_integral_closure_newton(ideal: MonomialIdeal, m: tuple[int, ...]) -> bool:
    """Membership in the Newton polyhedron, by exact rational feasibility.

    Feasible iff there are mu_g >= 0 with sum mu_g = 1 and
    sum mu_g * exponent(g) <= exponent(m) componentwise; the simplex alone
    decides, with no degree pre-test.  Refuses, before building any row, a
    tableau bound past NEWTON_CELL_LIMIT.
    """
    return newton_certificate(ideal, m)[0]


def newton_certificate(
    ideal: MonomialIdeal, m: tuple[int, ...]
) -> tuple[bool, tuple[int, ...]]:
    """(member, certificate): the Newton simplex's answer and its proof.

    A member's certificate is one weight lambda_g >= 0 per generator, in
    the order of ideal.generators, with sum lambda_g * g <= (sum lambda_g) * m
    componentwise; a non-member's is one weight w_i >= 0 per variable with
    <w, m> < min_g <w, g>, the curve that refutes m.  Refuses, as
    in_integral_closure_newton does, a tableau past NEWTON_CELL_LIMIT.
    """
    ideal._check_dimension(m)
    require_newton_tableau(ideal.variable_count, len(ideal.generators))
    return _simplex_feasible(ideal.generators, m)


def check_newton_certificate(
    ideal: MonomialIdeal, m: tuple[int, ...], member: bool, certificate: tuple[int, ...]
) -> bool:
    """True iff certificate proves the answer member for m, in exact ints.

    A member needs len(ideal.generators) nonnegative ints, not all zero,
    with sum lambda_g * g <= (sum lambda_g) * m: m lies on or above a convex
    combination of generators.  A non-member needs variable_count
    nonnegative ints w with <w, m> < min_g <w, g>, which forces w != 0.
    Anything else, malformed certificates included, is False.
    """
    ideal._check_dimension(m)
    gens = ideal.generators
    if not isinstance(certificate, tuple) or not naturals(certificate):
        return False
    if member:
        total = sum(certificate)
        return (
            len(certificate) == len(gens)
            and total > 0
            and all(
                sum(map(mul, certificate, column)) <= total * a
                for column, a in zip(zip(*gens), m)
            )
        )
    return len(certificate) == ideal.variable_count and sum(
        map(mul, certificate, m)
    ) < min(sum(map(mul, certificate, g)) for g in gens)


def _simplex_feasible(
    points: tuple[tuple[int, ...], ...], bounds: tuple[int, ...]
) -> tuple[bool, tuple[int, ...]]:
    """Phase-1 simplex: is some convex combination of the points <= bounds?

    One mu per point, one slack per coordinate row, and an artificial,
    basic on the convexity row sum mu = 1, whose value is the objective:
    while it is basic its row is the objective row, and the problem is
    feasible once its value is 0 or it leaves the basis (it never
    re-enters).  The tableau is condensed (Tucker), a row per basic and a
    column per nonbasic variable plus the right-hand side, (n + 1) x
    (g + 1) cells holding D times the true tableau in int, D the last
    pivot (Edmonds 1967).  A pivot on P = T[r][s] sets T[i][j] to the exact
    quotient (T[i][j] * P - T[i][s] * T[r][j]) / D, keeps row r, negates
    column s and stores D at (r, s).  Pivots are positive, so ratios
    compare by cross-multiplication.  Bland's rule on both choices, so
    cycling cannot occur.

    Returns (feasible, certificate), both certificates read off the final
    tableau by the labels of its rows and columns, as newton_certificate
    describes them.  Feasible: the basic mu's right-hand sides, scale D;
    when the artificial wins the last ratio test, that pivot is applied
    to the right-hand side only, scale P.  Infeasible: the objective row
    is a combination of the constraint rows with every nonbasic entry
    <= 0 and a positive right-hand side, so minus its entry in each
    nonbasic slack's column (0 for a basic slack) is a Farkas weight.
    """
    nvars, nrows = len(points), len(bounds)
    tableau = [[p[i] for p in points] + [bound] for i, bound in enumerate(bounds)]
    objective = [1] * (nvars + 1)
    tableau.append(objective)
    # Labels: mu_j is j, the slacks follow, the artificial is the largest.
    basis = list(range(nvars, nvars + nrows + 1))
    columns = list(range(nvars))
    scale = 1
    while objective[nvars]:
        s = label = None
        for j, coeff in enumerate(objective[:nvars]):
            if coeff > 0 and (label is None or columns[j] < label):
                s, label = j, columns[j]
        if s is None:
            weight = [0] * nrows
            for coeff, label in zip(objective, columns):
                if label >= nvars:
                    weight[label - nvars] = -coeff
            return False, tuple(weight)
        # The artificial's row is eligible; its label, the largest, loses ties.
        pivot_row, prow = nrows, objective
        for r, row in enumerate(tableau[:nrows]):
            coeff = row[s]
            if coeff > 0:
                lhs, rhs = row[nvars] * prow[s], prow[nvars] * coeff
                if lhs < rhs or (lhs == rhs and basis[r] < basis[pivot_row]):
                    pivot_row, prow = r, row
        if pivot_row == nrows:
            pivot, value = objective[s], objective[nvars]
            values = [(row[nvars] * pivot - row[s] * value) // scale for row in tableau]
            values[nrows] = value
            return True, _convex_weights(basis[:nrows] + [columns[s]], values, nvars)
        pivot = prow[s]
        for r, row in enumerate(tableau):
            if r != pivot_row:
                factor = row[s]
                row = [(v * pivot - factor * w) // scale for v, w in zip(row, prow)]
                row[s] = -factor
                tableau[r] = row
        prow[s] = scale
        scale = pivot
        objective = tableau[nrows]
        basis[pivot_row], columns[s] = columns[s], basis[pivot_row]
    return True, _convex_weights(basis, [row[nvars] for row in tableau], nvars)


def _on_support(
    points: tuple[tuple[int, ...], ...], bounds: tuple[int, ...]
) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """The same problem on bounds' support: a point positive off it must weigh 0."""
    support = [i for i, bound in enumerate(bounds) if bound]
    zeros = [i for i, bound in enumerate(bounds) if not bound]
    kept = [[p[i] for i in support] for p in points if not any(p[i] for i in zeros)]
    return tuple(map(tuple, kept)), tuple([bounds[i] for i in support])


def _convex_weights(labels: list[int], values: list[int], nvars: int) -> tuple[int, ...]:
    """Each mu's value: the right-hand side of its row, 0 where it is nonbasic."""
    weights = [0] * nvars
    for label, value in zip(labels, values):
        if label < nvars:
            weights[label] = value
    return tuple(weights)


def in_integral_closure_valuative(
    ideal: MonomialIdeal, m: tuple[int, ...], witnesses: list[tuple[int, ...]]
) -> bool:
    """Curve criterion over the supplied weight vectors only.

    Each witness, a tuple of nonnegative ints not all zero, is the curve
    t -> (t^{w_1}, ..., t^{w_n}).  True means no supplied curve refutes
    membership; with the facet normals among the witnesses this is
    equivalent to membership, with an arbitrary finite list it is merely
    necessary.
    """
    ideal._check_dimension(m)
    n, gens = ideal.variable_count, ideal.generators
    for w in witnesses:
        if not isinstance(w, tuple) or len(w) != n or not naturals(w) or not any(w):
            raise ValidationError(
                f"a witness is a tuple of {shown(n)} nonnegative ints, not all zero "
                f"(got {shown(w)})"
            )
    return all(
        sum(map(mul, w, m)) >= min(sum(map(mul, w, g)) for g in gens)
        for w in witnesses
    )


def default_witnesses(variable_count: int, seed: int | str = 0) -> list[tuple[int, ...]]:
    """Unit vectors, the all-ones vector, and seeded small-integer vectors.

    Refuses, before building a vector, a width wider than any support the
    Newton tableau rule admits: one generator in n variables has
    (n + 1)(n + 2) cells, so n <= 30.
    """
    require_int("variable_count", variable_count, 1)
    require_seed(seed)
    require_newton_tableau(variable_count, 1)
    witnesses = [
        tuple(int(i == j) for j in range(variable_count)) for i in range(variable_count)
    ]
    witnesses.append((1,) * variable_count)
    # rng.randint(0, 5) as CPython draws it: 3 bits, redrawn while above 5.
    bits = random.Random(f"{seed}:witnesses:{variable_count}").getrandbits
    draws = (r for r in iter(partial(bits, 3), None) if r < 6)
    while len(witnesses) < variable_count + 1 + DEFAULT_RANDOM_WITNESSES:
        candidate = tuple(itertools.islice(draws, variable_count))
        if any(candidate):
            witnesses.append(candidate)
    return witnesses


def facet_ray_bound(variable_count: int, generator_count: int) -> int:
    """Upper-bound-theorem cap on the rays of the facet route's cone.

    A slice of the cone is an n-polytope with at most g + n facets, so it
    has no more vertices than the cyclic n-polytope with g + n vertices
    has facets (McMullen).  Every intermediate cone has fewer rows.
    """
    rows, half = generator_count + variable_count, variable_count // 2
    if variable_count % 2:
        return 2 * comb(rows - half - 1, half)
    return comb(rows - half, half) + comb(rows - half - 1, half - 1)


def newton_facet_normals(
    ideal: MonomialIdeal,
) -> list[tuple[tuple[int, ...], int]]:
    """Facets of the Newton polyhedron as sorted (primitive normal, support) pairs.

    The valid inequalities <w, x> >= c form the pointed cone
    C = {(w, c) : w >= 0, <w, g> >= c for every generator g}, whose extreme
    rays are the facets, with c = min_g <w, g>, and the ray (0, -1).  So

        a in polyhedron  iff  <w, a> >= c for every returned pair.

    The double description method (Motzkin, Raiffa, Thompson and Thrall
    1953; Fukuda and Prodon 1996) starts from the simplicial cone of rows
    e_1..e_n and (g_1, -1), with rays (e_j, g_1j) and (0, -1); `_cut` adds
    the other generators' rows, in exact int.  Refuses, before reading any
    generator, a ray bound past FACET_RAY_LIMIT.
    """
    n, count = ideal.variable_count, len(ideal.generators)
    work = f"facet enumeration of {count} generators in {n} variables (rays held)"
    require_within(work, facet_ray_bound(n, count), FACET_RAY_LIMIT)
    first, *others = ideal.generators
    # Bit j < n of a zero set is the row w_j >= 0; bit n + k is generator k's.
    units = (1 << n) - 1
    rays = [((0,) * n, -1, units)] + [
        (tuple(int(i == j) for i in range(n)), first[j], units ^ (1 << j) | (1 << n))
        for j in range(n)
    ]
    for row, g in enumerate(others, start=n + 1):
        rays = _cut(rays, g, 1 << row, n)
    return sorted((w, c) for w, c, _ in rays if any(w))


def _cut(
    rays: list[tuple[tuple[int, ...], int, int]], g: tuple[int, ...], bit: int, n: int
) -> list[tuple[tuple[int, ...], int, int]]:
    """One double-description step: the extreme rays of the cone cut by <w, g> >= c.

    A ray is (w, c, zero set), the zero set an int bitmask of the rows it
    meets with equality; sets of rays are int bitmasks over ray indices.
    Rays with <w, g> >= c stay, and each adjacent pair of a positive and a
    negative ray adds the ray where their segment meets the row.  Adjacent
    means the combinatorial test: they share at least n - 1 zero rows (the
    cone has dimension n + 1), and no third ray is zero on all of those.
    """
    values = [sum(map(mul, w, g)) - c for w, c, _ in rays]
    holders = [0] * bit.bit_length()  # holders[j]: the rays zero on row j
    positive, every, kept = 0, (1 << len(rays)) - 1, []
    for i, (w, c, zeros) in enumerate(rays):
        for j in _bits(zeros):
            holders[j] |= 1 << i
        if values[i] > 0:
            positive |= 1 << i
            kept.append((w, c, zeros))
        elif values[i] == 0:
            kept.append((w, c, zeros | bit))
    for iq in [i for i, value in enumerate(values) if value < 0]:
        (wq, cq, zq), vq = rays[iq], values[iq]
        # at_least[k]: the rays sharing at least k of q's zero rows.  Testing
        # every positive ray instead is O(|P||N|) per cut: on a 2-core VM, 138
        # generators near a sphere in 5 variables took 8.3 s that way, not 1.0 s.
        at_least = [every] + [0] * (n - 1)
        for j in _bits(zq):
            for k in range(n - 1, 0, -1):
                at_least[k] |= at_least[k - 1] & holders[j]
        for ip in _bits(at_least[-1] & positive):
            (wp, cp, zp), vp = rays[ip], values[ip]
            common = zp & zq
            inside = reduce(and_, map(holders.__getitem__, _bits(common)), every)
            if inside != (1 << ip) | (1 << iq):
                continue
            w = [vp * a - vq * b for a, b in zip(wq, wp)]
            c = vp * cq - vq * cp
            scale = gcd(c, *w)
            kept.append((tuple(v // scale for v in w), c // scale, common | bit))
    return kept


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def in_integral_closure_facets(ideal: MonomialIdeal, m: tuple[int, ...]) -> bool:
    """Membership by checking every enumerated supporting inequality."""
    ideal._check_dimension(m)
    return all(
        sum(map(mul, normal, m)) >= support
        for normal, support in newton_facet_normals(ideal)
    )


def is_reduction(sub: MonomialIdeal, full: MonomialIdeal) -> bool:
    """True iff sub sits inside full and full's generators are integral over sub.

    A generator of full that sub already contains needs no simplex, since
    an ideal lies in its integral closure.  Each other generator g is
    solved on its support alone: a generator of sub positive where g is 0
    can carry no weight in sum mu_h * h <= g, and g's zero rows then read
    0 <= 0, so dropping both keeps the answer exact.  The tableau budget,
    on the full (n + 1)(g + n + 1) rule, is checked once, before any
    generator, so an oversized sub is refused whichever generators skip the
    simplex; both ideals' generators were validated when they were built,
    so the divisibility tests and the simplex take them unchecked.
    """
    if sub.variable_count != full.variable_count:
        raise ValidationError(
            f"cannot compare ideals in {shown(sub.variable_count)} and "
            f"{shown(full.variable_count)} variables"
        )
    require_newton_tableau(sub.variable_count, len(sub.generators))
    small = sub.generators
    if not all(_divides(full.generators, g) for g in small):
        return False
    return all(
        _divides(small, g) or _simplex_feasible(*_on_support(small, g))[0]
        for g in full.generators
    )
