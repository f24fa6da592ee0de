"""Monomial-ideal integral closure, decided two independent ways.

For a monomial ideal I in n variables, a monomial x^a lies in the
integral closure of I exactly when a is in the Newton polyhedron
conv(exponents of generators) + R_{>=0}^n.  Route one decides that
membership by exact rational feasibility: find mu_g >= 0 summing to 1
with sum mu_g * g <= a componentwise, via a phase-1 simplex over
`fractions.Fraction` (no floating point in the decision path).  Route
two is the valuative criterion: x^a is in the closure iff for every
monomial curve t -> (t^{w_1}, ..., t^{w_n}) with w >= 0 the pullback
order <w, a> is at least the minimal generator order min_g <w, g>.
Checking finitely many weight vectors is only a falsification tool in
general, but checking the facet normals of the Newton polyhedron is
complete, and those normals are enumerable exactly in low dimension.

The reduction test (same integral closure, equivalently finite induced
blow-up) is what makes the two-variable-block germ computations work:
(y_1^2, ..., y_p^2) is a reduction of the square of (y_1, ..., y_p),
which caps how many generators the relevant Jacobian-type ideal needs.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd

from .errors import BudgetError, ValidationError, is_int

__all__ = [
    "Monomial",
    "MonomialIdeal",
    "WeightVector",
    "power_ideal",
    "in_integral_closure_newton",
    "in_integral_closure_valuative",
    "in_integral_closure_facets",
    "newton_facet_normals",
    "default_witnesses",
    "is_reduction",
    "reduction_generator_count",
    "blowup_fiber_bound",
    "FACET_VARIABLE_LIMIT",
    "NEWTON_CELL_LIMIT",
    "DEFAULT_RANDOM_WITNESSES",
]

# Facet enumeration brute-forces generator subsets; past 4 variables the
# subset count stops being "tiny".
FACET_VARIABLE_LIMIT = 4

# The Newton simplex's tableau has n + 1 rows of g + n + 1 Fraction cells
# (n variables, g generators) and every pivot rewrites all of them.  The
# slowest case measured at this limit, 330 generators in 2 variables,
# took about 0.95 s.
NEWTON_CELL_LIMIT = 1000

DEFAULT_RANDOM_WITNESSES = 50


@dataclass(frozen=True)
class Monomial:
    """Exponent vector of a single monomial."""

    exponents: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.exponents:
            raise ValidationError("a monomial needs at least one variable")
        for e in self.exponents:
            if not is_int(e) or e < 0:
                raise ValidationError(
                    f"exponents must be nonnegative integers (got {self.exponents})"
                )

    @property
    def variable_count(self) -> int:
        return len(self.exponents)

    @property
    def total_degree(self) -> int:
        return sum(self.exponents)

    def divides(self, other: Monomial) -> bool:
        if self.variable_count != other.variable_count:
            raise ValidationError(
                "cannot compare monomials in "
                f"{self.variable_count} and {other.variable_count} variables"
            )
        return all(a <= b for a, b in zip(self.exponents, other.exponents))


@dataclass(frozen=True)
class MonomialIdeal:
    """Nonempty monomial ideal, held by a minimal generating set.

    Construction drops any generator divisible by another, so two
    presentations of the same ideal compare equal.
    """

    variable_count: int
    generators: tuple[Monomial, ...]

    def __post_init__(self) -> None:
        if not is_int(self.variable_count) or self.variable_count < 1:
            raise ValidationError(
                f"variable_count must be a positive integer (got {self.variable_count})"
            )
        if not self.generators:
            raise ValidationError("a monomial ideal needs at least one generator")
        for g in self.generators:
            if g.variable_count != self.variable_count:
                raise ValidationError(
                    f"generator {g.exponents} has {g.variable_count} variables, "
                    f"ideal has {self.variable_count}"
                )
        minimal: list[Monomial] = []
        # Descending lexicographic order puts y1-heavy generators first,
        # matching the usual way these ideals are written.
        for g in sorted(set(self.generators), key=lambda m: m.exponents, reverse=True):
            if not any(h.divides(g) for h in set(self.generators) if h != g):
                minimal.append(g)
        object.__setattr__(self, "generators", tuple(minimal))

    def contains_monomial(self, m: Monomial) -> bool:
        """Plain ideal membership: some generator divides m."""
        self._check_dimension(m)
        return any(g.divides(m) for g in self.generators)

    def _check_dimension(self, m: Monomial) -> None:
        if m.variable_count != self.variable_count:
            raise ValidationError(
                f"monomial {m.exponents} has {m.variable_count} variables, "
                f"ideal has {self.variable_count}"
            )


@dataclass(frozen=True)
class WeightVector:
    """Nonnegative rational weights, not all zero: a monomial curve's orders."""

    weights: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        converted = tuple(Fraction(w) for w in self.weights)
        for w in converted:
            if w < 0:
                raise ValidationError(f"weights must be nonnegative (got {converted})")
        if not any(converted):
            raise ValidationError("the zero weight vector defines no curve")
        object.__setattr__(self, "weights", converted)

    @property
    def variable_count(self) -> int:
        return len(self.weights)

    def pairing(self, exponents: tuple[int, ...]) -> Fraction:
        return sum(
            (w * e for w, e in zip(self.weights, exponents)), start=Fraction(0)
        )


def power_ideal(ideal: MonomialIdeal, e: int) -> MonomialIdeal:
    """e-th power: all e-fold generator products, minimalized on construction."""
    if not is_int(e) or e < 1:
        raise ValidationError(f"the exponent must be a positive integer (got {e})")
    products = []
    for combo in itertools.combinations_with_replacement(ideal.generators, e):
        total = tuple(sum(parts) for parts in zip(*(g.exponents for g in combo)))
        products.append(Monomial(total))
    return MonomialIdeal(ideal.variable_count, tuple(products))


def in_integral_closure_newton(ideal: MonomialIdeal, m: Monomial) -> bool:
    """Membership in the Newton polyhedron, by exact rational feasibility.

    Feasible iff there are mu_g >= 0 with sum mu_g = 1 and
    sum mu_g * exponent(g) <= exponent(m) componentwise.  Refuses, before
    building any row, a tableau of more than NEWTON_CELL_LIMIT cells.
    """
    ideal._check_dimension(m)
    n, g = ideal.variable_count, len(ideal.generators)
    cells = (n + 1) * (g + n + 1)
    if cells > NEWTON_CELL_LIMIT:
        raise BudgetError(
            f"the Newton simplex needs a {n + 1} x {g + n + 1} tableau "
            f"({cells} cells, limit {NEWTON_CELL_LIMIT})",
            required=cells,
        )
    # Cheap necessary condition first: pair with the all-ones weight.
    if m.total_degree < min(g.total_degree for g in ideal.generators):
        return False
    rows = [
        [Fraction(g.exponents[i]) for g in ideal.generators]
        for i in range(ideal.variable_count)
    ]
    bounds = [Fraction(e) for e in m.exponents]
    return _simplex_feasible(rows, bounds, len(ideal.generators))


def _simplex_feasible(
    rows: list[list[Fraction]], bounds: list[Fraction], nvars: int
) -> bool:
    """Phase-1 simplex: does mu >= 0 exist with rows.mu <= bounds, sum mu = 1?

    Columns are the nvars mu-variables, one slack per inequality row, and
    one artificial variable on the convexity row.  Bland's rule on both
    pivot choices, so cycling cannot occur; everything is a Fraction.
    """
    nrows = len(rows)
    width = nvars + nrows + 1
    tableau: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    for r in range(nrows):
        row = [Fraction(0)] * width
        row[:nvars] = rows[r]
        row[nvars + r] = Fraction(1)
        tableau.append(row)
        rhs.append(bounds[r])
    convexity = [Fraction(0)] * width
    convexity[:nvars] = [Fraction(1)] * nvars
    convexity[width - 1] = Fraction(1)
    tableau.append(convexity)
    rhs.append(Fraction(1))
    basis = list(range(nvars, nvars + nrows)) + [width - 1]
    cost = [Fraction(0)] * width
    cost[width - 1] = Fraction(1)

    while True:
        reduced = _reduced_costs(tableau, basis, cost, width)
        entering = next(
            (j for j in range(width) if j not in basis and reduced[j] < 0), None
        )
        if entering is None:
            break
        pivot_row = None
        best = None
        for r in range(len(tableau)):
            coeff = tableau[r][entering]
            if coeff > 0:
                ratio = rhs[r] / coeff
                if best is None or ratio < best or (
                    ratio == best and basis[r] < basis[pivot_row]
                ):
                    best = ratio
                    pivot_row = r
        if pivot_row is None:
            # Unbounded in phase 1 cannot happen (objective bounded below
            # by 0), but a guard beats an infinite loop.
            return False
        _pivot(tableau, rhs, pivot_row, entering)
        basis[pivot_row] = entering

    objective = sum(
        (cost[basis[r]] * rhs[r] for r in range(len(tableau))), start=Fraction(0)
    )
    return objective == 0


def _reduced_costs(
    tableau: list[list[Fraction]],
    basis: list[int],
    cost: list[Fraction],
    width: int,
) -> list[Fraction]:
    reduced = list(cost)
    for r, b in enumerate(basis):
        cb = cost[b]
        if cb:
            for j in range(width):
                reduced[j] -= cb * tableau[r][j]
    return reduced


def _pivot(
    tableau: list[list[Fraction]], rhs: list[Fraction], row: int, col: int
) -> None:
    inv = 1 / tableau[row][col]
    tableau[row] = [v * inv for v in tableau[row]]
    rhs[row] *= inv
    for r in range(len(tableau)):
        if r == row:
            continue
        factor = tableau[r][col]
        if factor:
            tableau[r] = [v - factor * w for v, w in zip(tableau[r], tableau[row])]
            rhs[r] -= factor * rhs[row]


def in_integral_closure_valuative(
    ideal: MonomialIdeal, m: Monomial, witnesses: list[WeightVector]
) -> bool:
    """Curve criterion over the supplied weight vectors only.

    True means no supplied monomial curve refutes membership; with the
    facet normals among the witnesses this is equivalent to membership,
    with an arbitrary finite list it is merely necessary.
    """
    ideal._check_dimension(m)
    for w in witnesses:
        if w.variable_count != ideal.variable_count:
            raise ValidationError(
                f"witness {tuple(map(str, w.weights))} has {w.variable_count} "
                f"variables, ideal has {ideal.variable_count}"
            )
        if w.pairing(m.exponents) < min(w.pairing(g.exponents) for g in ideal.generators):
            return False
    return True


def default_witnesses(variable_count: int, seed: int | str = 0) -> list[WeightVector]:
    """Unit vectors, the all-ones vector, and seeded small-integer vectors."""
    if not is_int(variable_count) or variable_count < 1:
        raise ValidationError(
            f"variable_count must be a positive integer (got {variable_count})"
        )
    witnesses = [
        WeightVector(tuple(Fraction(int(i == j)) for j in range(variable_count)))
        for i in range(variable_count)
    ]
    witnesses.append(WeightVector((Fraction(1),) * variable_count))
    rng = random.Random(f"{seed}:witnesses:{variable_count}")
    while len(witnesses) < variable_count + 1 + DEFAULT_RANDOM_WITNESSES:
        candidate = tuple(Fraction(rng.randint(0, 5)) for _ in range(variable_count))
        if any(candidate):
            witnesses.append(WeightVector(candidate))
    return witnesses


def newton_facet_normals(
    ideal: MonomialIdeal,
) -> list[tuple[tuple[int, ...], int]]:
    """Supporting data (primitive normal, support value) for the Newton polyhedron.

    Enumerates every hyperplane spanned by a subset of generator points
    together with a subset of coordinate recession directions, keeps the
    ones with a nonnegative normal, and records c = min_g <w, g>.  Every
    facet arises this way (each facet contains a vertex, and its affine
    hull is spanned by the generators and recession rays it contains), so

        a in polyhedron  iff  <w, a> >= c for every returned pair

    for any a >= 0.  Extra non-facet supporting pairs may appear; they
    are valid inequalities and harmless.  Exponential in the variable
    count, hence the hard cap.
    """
    n = ideal.variable_count
    if n > FACET_VARIABLE_LIMIT:
        raise BudgetError(
            f"facet enumeration refuses {n} variables (limit {FACET_VARIABLE_LIMIT})",
            required=comb(len(ideal.generators) + n, n),
        )
    gens = [g.exponents for g in ideal.generators]
    found: dict[tuple[int, ...], int] = {}
    for a_size in range(1, n + 1):
        b_size = n - a_size
        for subset in itertools.combinations(range(len(gens)), a_size):
            base = gens[subset[0]]
            rows = [
                [Fraction(gens[idx][i] - base[i]) for i in range(n)]
                for idx in subset[1:]
            ]
            for directions in itertools.combinations(range(n), b_size):
                system = rows + [
                    [Fraction(int(i == d)) for i in range(n)] for d in directions
                ]
                normal = _primitive_nonnegative_kernel(system, n)
                if normal is None:
                    continue
                support = min(sum(w * e for w, e in zip(normal, g)) for g in gens)
                found.setdefault(normal, support)
    return sorted(found.items())


def _primitive_nonnegative_kernel(
    system: list[list[Fraction]], n: int
) -> tuple[int, ...] | None:
    """Primitive integer generator of a 1-dim kernel, sign-fixed to >= 0.

    Returns None if the kernel is not a line or no sign choice is
    componentwise nonnegative.
    """
    matrix = [row[:] for row in system]
    pivots: list[int] = []
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, len(matrix)) if matrix[i][c]), None)
        if pivot is None:
            continue
        matrix[r], matrix[pivot] = matrix[pivot], matrix[r]
        inv = 1 / matrix[r][c]
        matrix[r] = [v * inv for v in matrix[r]]
        for i in range(len(matrix)):
            if i != r and matrix[i][c]:
                factor = matrix[i][c]
                matrix[i] = [v - factor * w for v, w in zip(matrix[i], matrix[r])]
        pivots.append(c)
        r += 1
    free = [c for c in range(n) if c not in pivots]
    if len(free) != 1:
        return None
    f = free[0]
    kernel = [Fraction(0)] * n
    kernel[f] = Fraction(1)
    for row_idx, c in enumerate(pivots):
        kernel[c] = -matrix[row_idx][f]
    scale = 1
    for v in kernel:
        scale = scale * v.denominator // gcd(scale, v.denominator)
    ints = [int(v * scale) for v in kernel]
    common = 0
    for v in ints:
        common = gcd(common, v)
    ints = [v // common for v in ints]
    if all(v <= 0 for v in ints):
        ints = [-v for v in ints]
    if any(v < 0 for v in ints):
        return None
    return tuple(ints)


def in_integral_closure_facets(ideal: MonomialIdeal, m: Monomial) -> bool:
    """Membership by checking every enumerated supporting inequality."""
    ideal._check_dimension(m)
    return all(
        sum(w * e for w, e in zip(normal, m.exponents)) >= support
        for normal, support in newton_facet_normals(ideal)
    )


def is_reduction(sub: MonomialIdeal, full: MonomialIdeal) -> bool:
    """True iff sub sits inside full and full's generators are integral over sub."""
    if sub.variable_count != full.variable_count:
        raise ValidationError(
            f"cannot compare ideals in {sub.variable_count} and "
            f"{full.variable_count} variables"
        )
    if not all(full.contains_monomial(g) for g in sub.generators):
        return False
    return all(in_integral_closure_newton(sub, g) for g in full.generators)


def reduction_generator_count(p: int) -> int:
    """Generators needed for a reduction of the Jacobian-type ideal: 2p.

    For the minimal germ the ideal of y-partials plus the squares
    y_1^2, ..., y_p^2 is a reduction, giving p + p = 2p generators.
    """
    if not is_int(p) or p < 1:
        raise ValidationError(f"p must satisfy p >= 1 (got p={p})")
    return 2 * p


def blowup_fiber_bound(p: int) -> int:
    """Fiber-dimension bound for the blow-up along a 2p-generator reduction."""
    return reduction_generator_count(p) - 1
