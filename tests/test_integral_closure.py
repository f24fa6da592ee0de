import functools
import itertools
import random
import threading
import time
from fractions import Fraction
from math import comb, gcd, lcm

import pytest

from dqp import integral_closure
from dqp.errors import BudgetError, ValidationError
from dqp.integral_closure import (
    FACET_RAY_LIMIT,
    NEWTON_CELL_LIMIT,
    POWER_SUM_LIMIT,
    MonomialIdeal,
    check_newton_certificate,
    default_witnesses,
    facet_ray_bound,
    in_integral_closure_facets,
    in_integral_closure_newton,
    in_integral_closure_valuative,
    is_reduction,
    newton_certificate,
    newton_facet_normals,
    power_ideal,
)
from dqp.verify import _random_ideal, _random_monomial


def ideal(*exponent_rows):
    width = len(exponent_rows[0])
    return MonomialIdeal(width, tuple(map(tuple, exponent_rows)))


def maximal_ideal(p):
    return ideal(*[[int(i == j) for j in range(p)] for i in range(p)])


def squares_ideal(p):
    return ideal(*[[2 * int(i == j) for j in range(p)] for i in range(p)])


def test_monomial_validation():
    'a monomial is its exponent tuple: the ideal and every route refuse anything else'
    j = squares_ideal(2)
    for bad in [(), (1, -1), (True, 1), (1.0, 1), (1, 1, 1), [1, 1], 2]:
        routes = [
            lambda: MonomialIdeal(2, (bad,)),
            lambda: MonomialIdeal(2, ((2, 0), bad)),
            lambda: j.contains_monomial(bad),
            lambda: in_integral_closure_newton(j, bad),
            lambda: newton_certificate(j, bad),
            lambda: check_newton_certificate(j, bad, True, (1, 1)),
            lambda: in_integral_closure_facets(j, bad),
            lambda: in_integral_closure_valuative(j, bad, [(1, 1)]),
        ]
        for route in routes:
            with pytest.raises(ValidationError):
                route()
    assert MonomialIdeal(2, ((1, 2),)).generators == ((1, 2),)


def test_ideal_minimalization():
    i = ideal([1, 0], [2, 0], [0, 2], [1, 1])
    assert list(i.generators) == [(1, 0), (0, 2)]
    # duplicates collapse
    j = ideal([1, 1], [1, 1])
    assert len(j.generators) == 1
    assert i == ideal([0, 2], [1, 0])


def test_ideal_validation():
    with pytest.raises(ValidationError):
        MonomialIdeal(2, ())
    with pytest.raises(ValidationError):
        MonomialIdeal(2, ((1, 0, 0),))
    with pytest.raises(ValidationError):
        MonomialIdeal(0, ((1,),))
    # a one-shot iterable of generators is read once, not found empty
    assert MonomialIdeal(2, iter(((2, 0), (0, 2)))) == squares_ideal(2)
    with pytest.raises(ValidationError):
        MonomialIdeal(2, iter(()))


def test_contains_monomial():
    j = squares_ideal(2)
    assert j.contains_monomial((2, 1))
    assert not j.contains_monomial((1, 1))
    with pytest.raises(ValidationError):
        j.contains_monomial((1,))


def test_valuative_rejects_invalid_witnesses():
    'a witness is a tuple of nonnegative ints, not all zero, one per variable, wherever it is listed'
    j = squares_ideal(2)
    bads = [(-1, 2), (0, 0), (True, 1), (1.0, 1), (1, 1, 1), (1,), 5, None, [1, 1]]
    for bad in bads:
        # (1, 1) refutes y1 but not y1*y2: a bad witness after it still raises.
        for m in ((1, 1), (1, 0)):
            with pytest.raises(ValidationError):
                in_integral_closure_valuative(j, m, [(1, 1), bad])


def test_power_ideal():
    m2 = power_ideal(maximal_ideal(2), 2)
    assert list(m2.generators) == [(2, 0), (1, 1), (0, 2)]
    m3 = power_ideal(maximal_ideal(3), 2)
    assert len(m3.generators) == 6
    same = power_ideal(squares_ideal(2), 1)
    assert same == squares_ideal(2)
    with pytest.raises(ValidationError):
        power_ideal(maximal_ideal(2), 0)


def test_power_ideal_sums_at_most_the_limit_of_tuples():
    y1 = ideal([1])
    assert power_ideal(y1, POWER_SUM_LIMIT).generators == ((POWER_SUM_LIMIT,),)
    with pytest.raises(BudgetError) as info:
        power_ideal(y1, POWER_SUM_LIMIT + 1)
    assert info.value.required == POWER_SUM_LIMIT + 1


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: power_ideal(ideal([1]), 10**20), id="y1-to-10^20"),
        pytest.param(lambda: power_ideal(ideal([1]), 10**7), id="y1-to-10^7"),
        pytest.param(lambda: power_ideal(maximal_ideal(3), 60), id="m3-to-60"),
        pytest.param(lambda: power_ideal(maximal_ideal(6), 10), id="m6-to-10"),
        pytest.param(
            # the exact product count alone, comb(10^4000 + 999, 999), takes seconds
            lambda: power_ideal(ideal(*[[j, 999 - j] for j in range(1000)]), 10**4000),
            id="1000-generators-to-10^4000",
        ),
    ],
)
def test_power_ideal_refuses_before_building_a_product(build):
    'the tableau rule counts redundant products; each refusal comes at once'
    started = time.perf_counter()
    with pytest.raises(BudgetError):
        build()
    assert time.perf_counter() - started < 1.0


def test_newton_membership_basic():
    j = squares_ideal(2)
    assert in_integral_closure_newton(j, (1, 1))
    assert not in_integral_closure_newton(j, (1, 0))
    k = ideal([3, 0], [0, 3])
    assert in_integral_closure_newton(k, (2, 2))
    assert not in_integral_closure_newton(k, (2, 0))
    assert not in_integral_closure_newton(k, (1, 1))


def test_newton_membership_generators_and_multiples():
    for p in range(1, 5):
        j = squares_ideal(p)
        for g in j.generators:
            assert in_integral_closure_newton(j, g)
            bumped = tuple(e + 1 for e in g)
            assert in_integral_closure_newton(j, bumped)


def test_newton_dimension_mismatch():
    with pytest.raises(ValidationError):
        in_integral_closure_newton(squares_ideal(2), (1, 1, 1))


def test_facet_normals_of_square_ideal():
    normals = newton_facet_normals(squares_ideal(2))
    assert normals == [((0, 1), 0), ((1, 0), 0), ((1, 1), 2)]


def test_facet_normals_pinned():
    'the true facets only, with no merely supporting pair such as ((5, 4), 13)'
    assert newton_facet_normals(ideal([4, 0], [1, 2], [0, 5])) == [
        ((0, 1), 0), ((1, 0), 0), ((2, 3), 8), ((3, 1), 5),
    ]
    assert newton_facet_normals(
        ideal([3, 0, 0], [0, 2, 1], [1, 1, 1], [0, 0, 4], [2, 2, 0])
    ) == [
        ((0, 0, 1), 0), ((0, 1, 0), 0), ((1, 0, 0), 0), ((1, 0, 2), 2),
        ((1, 1, 1), 3), ((2, 1, 4), 6), ((3, 3, 2), 8), ((4, 5, 3), 12),
    ]
    assert newton_facet_normals(ideal([2, 0, 0], [1, 1, 0], [0, 2, 0])) == [
        ((0, 0, 1), 0), ((0, 1, 0), 0), ((1, 0, 0), 0), ((1, 1, 0), 2),
    ]


def _leibniz_det(matrix):
    size = len(matrix)
    total = 0
    for perm in itertools.permutations(range(size)):
        inversions = sum(
            perm[i] > perm[j] for i in range(size) for j in range(i + 1, size)
        )
        term = (-1) ** inversions
        for row, col in enumerate(perm):
            term *= matrix[row][col]
        total += term
    return total


def _leibniz_minors(system, n):
    return [
        (-1) ** j * _leibniz_det([row[:j] + row[j + 1 :] for row in system])
        for j in range(n)
    ]


def _kernel_oracle(minors):
    if not any(minors):
        return None
    if sum(minors) < 0:
        minors = [-v for v in minors]
    if min(minors) < 0:
        return None
    return tuple(v // gcd(*minors) for v in minors)


def _full_system_facet_normals(gens, n):
    'every generator subset with the complementary unit direction rows, n x n minors'
    found = {}
    for a_size in range(1, n + 1):
        for subset in itertools.combinations(gens, a_size):
            rows = [[e - b for e, b in zip(g, subset[0])] for g in subset[1:]]
            for directions in itertools.combinations(range(n), n - a_size):
                units = [[int(i == d) for i in range(n)] for d in directions]
                normal = _kernel_oracle(_leibniz_minors(rows + units, n))
                if normal is not None and normal not in found:
                    found[normal] = min(sum(map(int.__mul__, normal, g)) for g in gens)
    return sorted(found.items())


def _accepted(pairs, side, n):
    'which points of the box {0..side - 1}^n, in product order, satisfy every pair'
    rows = []
    for w, c in pairs:
        values = [0]
        for weight in w:
            values = [v + weight * x for v in values for x in range(side)]
        rows.append([v >= c for v in values])
    return list(map(all, zip(*rows)))


def test_facet_normals_match_the_full_system_oracle():
    'each facet is a supporting pair of some full system, and both lists cut out one box'
    rng = random.Random("test:facet-oracle")
    coinciding = 0
    for case in range(2000):
        n = 1 + case % 4
        high = rng.choice([1, 2, 4])
        gens = [[rng.randint(0, high) for _ in range(n)] for _ in range(rng.randint(1, 5))]
        if n > 2 and case % 2 == 0:
            # minimal generators differ in two coordinates at least, so
            # shift a copy up along one axis and the original along
            # another: they coincide on every coordinate set omitting both
            j, k = rng.sample(range(n), 2)
            moved = list(gens[0])
            moved[k] += rng.randint(1, 3)
            gens[0][j] += rng.randint(1, 3)
            gens.append(moved)
        i = ideal(*gens)
        points = list(i.generators)
        if any(
            len({tuple(g[c] for c in coords) for g in points}) < len(points)
            for size in range(1, n)
            for coords in itertools.combinations(range(n), size)
        ):
            coinciding += 1
        facets = newton_facet_normals(i)
        oracle = _full_system_facet_normals(points, n)
        assert set(facets) <= set(oracle), gens
        side = max(map(max, points)) + 2
        assert _accepted(facets, side, n) == _accepted(oracle, side, n), gens
    assert coinciding > 400, coinciding


def test_facet_route_agrees_on_knowns():
    k = ideal([3, 0], [0, 3])
    assert in_integral_closure_facets(k, (2, 2))
    assert not in_integral_closure_facets(k, (1, 1))


class _Unreadable:
    'a generator stub: reading an exponent is where building a ray would start'

    def __getitem__(self, index):
        raise AssertionError("a generator was read")

    def __iter__(self):
        raise AssertionError("a generator was read")


def test_facet_budget():
    'the ray bound admits every input of 4 or fewer variables the Newton tableau admits'
    assert FACET_RAY_LIMIT == facet_ray_bound(4, 195) == 19502
    for n in range(1, 5):
        most = 1000 // (n + 1) - n - 1
        assert facet_ray_bound(n, most) <= FACET_RAY_LIMIT
    assert facet_ray_bound(4, 196) > FACET_RAY_LIMIT
    degree_nine = [e for e in itertools.product(range(10), repeat=4) if sum(e) == 9]
    largest = ideal(*degree_nine[:195])
    for e in degree_nine[195:]:
        assert in_integral_closure_facets(largest, e) == in_integral_closure_newton(largest, e)
    over = MonomialIdeal(4, ((1, 0, 0, 0),))
    object.__setattr__(over, "generators", (_Unreadable(),) * 196)
    started = time.perf_counter()
    with pytest.raises(BudgetError) as info:
        newton_facet_normals(over)
    assert time.perf_counter() - started < 1
    assert info.value.required == facet_ray_bound(4, 196)


def test_facet_ray_bound_closed_forms():
    'a simplex, polygons, 3-polytopes, and no more rays than the bound allows'
    for n in range(1, 12):
        assert facet_ray_bound(n, 1) == n + 1
    for g in range(1, 40):
        assert facet_ray_bound(1, g) == 2
        assert facet_ray_bound(2, g) == g + 2
        assert facet_ray_bound(3, g) == 2 * (g + 3) - 4


def _rank_mod(rows, prime=(1 << 61) - 1):
    'rank modulo a prime: never above the rank over the rationals'
    rows = [[v % prime for v in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inverse = pow(rows[rank][col], -1, prime)
        for r in range(rank + 1, len(rows)):
            factor = rows[r][col] * inverse % prime
            rows[r] = [(a - factor * b) % prime for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def test_every_returned_pair_is_a_facet():
    'tight rows of rank n make (w, c) an extreme ray of the cone, so a facet'
    for case in range(400):
        rng = random.Random(f"test:facet-rank:{case}")
        n = 1 + case % 8
        gens = [[rng.randint(0, rng.choice([1, 2, 4])) for _ in range(n)] for _ in range(8)]
        i = ideal(*gens)
        points = list(i.generators)
        pairs = newton_facet_normals(i)
        # the facets and the trivial ray (0, -1)
        assert len(pairs) + 1 <= facet_ray_bound(n, len(points))
        for w, c in pairs:
            assert gcd(*w) == 1 and min(w) >= 0, (gens, w)
            pairing = [sum(map(int.__mul__, w, g)) for g in points]
            assert min(pairing) == c, (gens, w, c)
            tight = [list(g) + [-1] for g, v in zip(points, pairing) if v == c]
            tight += [[int(j == k) for j in range(n)] + [0] for k in range(n) if not w[k]]
            # rank n modulo a prime forces rank n: the rows all vanish on (w, c)
            assert _rank_mod(tight) == n, (gens, w, c)


def test_newton_cell_budget():
    'one generator in n variables is an (n + 1) x (n + 2) tableau'
    assert NEWTON_CELL_LIMIT == 1000
    largest = MonomialIdeal(30, ((1,) + (0,) * 29,))
    assert in_integral_closure_newton(largest, (1,) + (0,) * 29)
    wider = MonomialIdeal(31, ((1,) + (0,) * 30,))
    with pytest.raises(BudgetError) as info:
        in_integral_closure_newton(wider, (0,) * 30 + (1,))
    assert info.value.required == 32 * 33
    with pytest.raises(BudgetError):
        is_reduction(wider, wider)


def in_diagonal_closure(a, e):
    'the independent oracle: x^e is integral over (y_i^a_i) iff sum e_i / a_i >= 1'
    return sum(Fraction(x, d) for x, d in zip(e, a)) >= 1


def diagonal_with_redundant(rng, a, extra):
    'the diagonal ideal plus generators already in its closure'
    n = len(a)
    gens = [tuple(d * int(i == j) for j in range(n)) for i, d in enumerate(a)]
    while len(gens) < n + extra:
        e = tuple(rng.randint(0, d) for d in a)
        if in_diagonal_closure(a, e):
            gens.append(e)
    return ideal(*gens)


def test_newton_diagonal_oracle_beyond_facet_limit():
    'five to eight variables: both routes against the diagonal oracle'
    for case in range(120):
        rng = random.Random(f"test:closure-diag:{case}")
        a = [rng.randint(1, 9) for _ in range(rng.randint(5, 8))]
        i = diagonal_with_redundant(rng, a, rng.randint(0, 6))
        e = tuple(rng.randint(0, d) for d in a)
        expected = in_diagonal_closure(a, e)
        assert in_integral_closure_newton(i, e) == expected
        assert in_integral_closure_facets(i, e) == expected


def test_newton_diagonal_oracle_large_exponents():
    'exponents near 10^6, where tableau entries grow and each division must be exact'
    members = 0
    for case in range(60):
        rng = random.Random(f"test:closure-big:{case}")
        # a_i = L / r_i with r_0 = 1, so sum e_i r_i = L is exactly the boundary
        r = [1] + [rng.randint(1, 4) for _ in range(rng.randint(1, 5))]
        big = lcm(*r) * rng.randint(10**6, 2 * 10**6)
        a = [big // k for k in r]
        i = diagonal_with_redundant(rng, a, rng.randint(1, 6))
        share = [rng.random() for _ in a]
        on = [int(big * s / sum(share)) // k for s, k in zip(share, r)]
        on[0] += big - sum(e * k for e, k in zip(on, r))
        nudged = list(on)
        nudged[rng.randrange(len(a))] += rng.choice((-1, 1))
        for e in (on, nudged):
            e = tuple(max(0, x) for x in e)
            expected = in_diagonal_closure(a, e)
            members += expected
            assert in_integral_closure_newton(i, e) == expected
    assert 60 < members < 120


def test_newton_same_degree_antichain_boundary():
    'every generator has degree d, so ratios tie; degree d is on the boundary'
    for case in range(80):
        rng = random.Random(f"test:closure-tie:{case}")
        n, d = rng.randint(2, 6), rng.randint(2, 5)
        a = [d] * n
        i = diagonal_with_redundant(rng, a, rng.randint(2, 10))
        on = [0] * n
        for _ in range(d):
            on[rng.randrange(n)] += 1
        below = list(on)
        below[next(k for k in range(n) if below[k])] -= 1
        assert in_integral_closure_newton(i, tuple(on))
        assert not in_integral_closure_newton(i, tuple(below))
        assert in_diagonal_closure(a, on) and not in_diagonal_closure(a, below)


def test_newton_bland_rule_prevents_cycling():
    'degenerate non-members on which either tie-break, reversed, cycles forever'
    cases = [
        # reversing the ratio-test tie-break cycles on these two
        (
            [(3, 1, 1, 0, 0), (2, 2, 2, 1, 0), (2, 1, 3, 3, 0), (2, 0, 0, 0, 1),
             (1, 1, 1, 0, 2), (1, 1, 0, 2, 1), (1, 0, 3, 1, 3), (0, 1, 1, 1, 1),
             (0, 0, 3, 3, 3)],
            (0, 0, 4, 0, 3),
        ),
        (
            [(2, 0, 3, 3, 2, 0), (1, 3, 2, 3, 3, 0), (1, 2, 0, 1, 0, 3),
             (1, 1, 0, 2, 0, 1), (1, 0, 1, 1, 0, 2), (0, 2, 1, 0, 0, 1),
             (0, 0, 2, 2, 0, 1)],
            (0, 0, 3, 0, 1, 1),
        ),
        # entering the largest eligible column instead cycles on this one
        ([(4, 2, 1, 1), (3, 0, 3, 5), (2, 3, 0, 0), (1, 2, 4, 0), (0, 4, 1, 0)],
         (3, 0, 0, 3)),
    ]
    answers = []

    def decide():
        for gens, m in cases:
            answers.append(in_integral_closure_newton(ideal(*gens), m))

    worker = threading.Thread(target=decide, daemon=True)
    worker.start()
    worker.join(timeout=30)
    assert not worker.is_alive(), "the Newton simplex cycled"
    assert answers == [False, False, False]
    assert not in_integral_closure_facets(ideal(*cases[2][0]), cases[2][1])


def test_newton_vs_facets_seeded():
    for case in range(150):
        rng = random.Random(f"test:closure:{case}")
        i = _random_ideal(rng)
        m = _random_monomial(rng, i.variable_count, 7)
        assert in_integral_closure_newton(i, m) == in_integral_closure_facets(i, m)


def full_tableau_feasible(points, bounds):
    'the oracle: the same Bland-rule phase 1 on the full (n + 1) x (g + n + 1) tableau'
    nvars, nrows = len(points), len(bounds)
    width = nvars + nrows
    tableau = []
    for i, bound in enumerate(bounds):
        row = [p[i] for p in points] + [0] * nrows + [bound]
        row[nvars + i] = 1
        tableau.append(row)
    tableau.append([1] * nvars + [0] * nrows + [1])
    basis = list(range(nvars, width)) + [width]
    scale = 1
    while tableau[nrows][width]:
        objective = tableau[nrows]
        entering = next((j for j in range(width) if objective[j] > 0), None)
        if entering is None:
            return False
        pivot_row = None
        for r, row in enumerate(tableau):
            coeff = row[entering]
            if coeff > 0:
                if pivot_row is None:
                    pivot_row = r
                    continue
                best = tableau[pivot_row]
                lhs, rhs = row[width] * best[entering], best[width] * coeff
                if lhs < rhs or (lhs == rhs and basis[r] < basis[pivot_row]):
                    pivot_row = r
        prow = tableau[pivot_row]
        pivot = prow[entering]
        for r, row in enumerate(tableau):
            if r != pivot_row:
                factor = row[entering]
                tableau[r] = [
                    (v * pivot - factor * w) // scale for v, w in zip(row, prow)
                ]
        scale = pivot
        if pivot_row == nrows:
            return True
        basis[pivot_row] = entering
    return True


@functools.cache
def _simplex_cases():
    "seeded (points, bounds) instances and the full tableau's answer on each"
    rng = random.Random("test:condensed-simplex")
    cases = []
    for _ in range(20000):
        n, g, top = rng.randint(1, 6), rng.randint(1, 7), rng.choice((2, 3, 5, 9))
        points = [tuple(rng.randrange(top) for _ in range(n)) for _ in range(g)]
        cases.append((points, tuple(rng.randrange(top) for _ in range(n))))
    return cases, [full_tableau_feasible(points, bounds) for points, bounds in cases]


def _decide_on_a_thread(decide, cases):
    'decide every case; a broken pivot can cycle, which fails here rather than hanging the run'
    answers = []

    def run():
        for case in cases:
            answers.append(decide(case))

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(timeout=30)
    assert not worker.is_alive(), f"the condensed simplex cycled on {cases[len(answers)]}"
    return answers


def test_condensed_simplex_matches_the_full_tableau():
    'small entries make ratio ties common; both answers occur thousands of times'
    cases, expected = _simplex_cases()
    answers = _decide_on_a_thread(
        lambda case: integral_closure._simplex_feasible(*case)[0], cases
    )
    wrong = [case for case, a, b in zip(cases, answers, expected) if a != b]
    assert not wrong, wrong[:3]
    assert 4000 < sum(expected) < 16000


def test_every_newton_certificate_checks():
    "the same instances as ideals: each answer is the full tableau's, and each proof checks"
    cases, expected = _simplex_cases()
    asked = [(MonomialIdeal(len(m), tuple(points)), m) for points, m in cases]
    proofs = _decide_on_a_thread(lambda case: newton_certificate(*case), asked)
    assert [member for member, _ in proofs] == expected
    unproved = [
        (i.generators, m, proof)
        for (i, m), proof in zip(asked, proofs)
        if not check_newton_certificate(i, m, *proof)
    ]
    assert not unproved, unproved[:3]


def test_certificate_check_examples():
    'the check trusts no proof: a wrong or malformed one is False, never an error'
    j = squares_ideal(2)
    assert newton_certificate(j, (1, 1)) == (True, (2, 2))
    assert newton_certificate(j, (1, 0)) == (False, (2, 2))
    assert check_newton_certificate(j, (1, 1), True, (1, 1))
    assert check_newton_certificate(j, (1, 0), False, (1, 1))
    assert check_newton_certificate(j, (3, 0), True, (1, 0))
    wrong = [
        ((1, 1), True, (1, 0)),  # y1^2 is not below y1*y2
        ((1, 1), True, (0, 0)),  # no weight at all
        ((1, 1), False, (1, 1)),  # the curve (1, 1) does not refute y1*y2
        ((1, 0), False, (0, 1)),  # <w, m> = 0 is not below min_g <w, g> = 0
        ((1, 0), False, (0, 0)),
        ((1, 0), True, (2, 2)),  # the proof of the other answer
    ]
    for m, member, proof in wrong:
        assert not check_newton_certificate(j, m, member, proof)
    for bad in [(1, -1), (1,), (1, 1, 1), [1, 1], (True, 1), (1.0, 1), None]:
        assert not check_newton_certificate(j, (1, 1), True, bad)
        assert not check_newton_certificate(j, (1, 0), False, bad)


def test_valuative_examples():
    j = squares_ideal(2)
    witnesses = [(1, 0), (0, 1), (1, 1), (2, 1)]
    assert in_integral_closure_valuative(j, (1, 1), witnesses)
    assert not in_integral_closure_valuative(j, (1, 0), [(1, 1)])
    for g in j.generators:
        assert in_integral_closure_valuative(j, g, default_witnesses(2))


def test_valuative_non_integer_weights_match_fraction_pairing():
    'rational weights, scaled to integer numerators, give the Fraction definition'
    def pair(weights, exponents):
        return sum(Fraction(w) * e for w, e in zip(weights, exponents))

    cases = [
        (ideal([4, 0], [1, 2], [0, 5], [3, 1]), [
            (1, Fraction(1, 2)), (Fraction(2, 3), Fraction(5, 7)),
            (Fraction(1, 3), 0), (Fraction(3, 4), Fraction(5, 6)),
        ]),
        (ideal([3, 0, 1], [0, 2, 2], [1, 1, 0], [0, 0, 4]), [
            (Fraction(2, 3), Fraction(5, 7), 0), (Fraction(1, 2), 1, Fraction(1, 6)),
            (0, Fraction(3, 5), Fraction(4, 9)),
        ]),
    ]
    on_boundary = 0
    for i, weights in cases:
        for w in weights:
            scale = lcm(*(Fraction(v).denominator for v in w))
            numerators = tuple(int(Fraction(v) * scale) for v in w)
            order = min(pair(w, g) for g in i.generators)
            for a in itertools.product(range(7), repeat=i.variable_count):
                on_boundary += pair(w, a) == order
                assert in_integral_closure_valuative(
                    i, a, [numerators]
                ) == (pair(w, a) >= order)
    assert on_boundary > 0


def test_valuative_dimension_mismatch():
    with pytest.raises(ValidationError):
        in_integral_closure_valuative(
            squares_ideal(2), (1, 1), [(1, 1, 1)]
        )


def test_default_witnesses_shape():
    witnesses = default_witnesses(3, seed=7)
    assert len(witnesses) == 3 + 1 + 50
    assert witnesses[0] == (1, 0, 0)
    assert witnesses[3] == (1, 1, 1)
    assert all(type(w) is tuple and all(type(v) is int for v in w) for w in witnesses)
    assert default_witnesses(3, seed=7) == witnesses
    assert len(default_witnesses(30)) == 30 + 1 + 50  # the widest admitted


def test_default_witnesses_follow_the_randint_stream():
    'the seeded vectors are rng.randint(0, 5) draws, skipping all-zero ones'
    for n in range(1, 7):
        for seed in [*range(12), *(f"s{k}" for k in range(12)), "0:closure-wit:3"]:
            rng = random.Random(f"{seed}:witnesses:{n}")
            expected = [tuple(int(i == j) for j in range(n)) for i in range(n)]
            expected.append((1,) * n)
            while len(expected) < n + 51:
                candidate = tuple(rng.randint(0, 5) for _ in range(n))
                if any(candidate):
                    expected.append(candidate)
            assert default_witnesses(n, seed) == expected


def test_default_witnesses_pinned_battery():
    assert default_witnesses(3, seed=0) == [
        (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (5, 0, 3), (3, 3, 5),
        (1, 3, 2), (4, 5, 4), (1, 0, 5), (1, 1, 1), (0, 2, 4), (1, 1, 4),
        (2, 1, 4), (0, 5, 0), (4, 3, 2), (4, 4, 1), (4, 5, 2), (1, 5, 0),
        (2, 0, 4), (5, 2, 5), (0, 3, 4), (4, 4, 1), (5, 1, 4), (1, 5, 2),
        (0, 4, 2), (0, 5, 4), (5, 2, 4), (0, 3, 1), (3, 5, 4), (0, 3, 0),
        (0, 1, 5), (5, 0, 3), (2, 1, 1), (3, 4, 4), (0, 2, 0), (0, 0, 3),
        (5, 3, 2), (3, 4, 1), (2, 0, 4), (2, 0, 1), (5, 5, 3), (5, 0, 1),
        (2, 5, 3), (2, 3, 3), (0, 3, 1), (0, 1, 0), (4, 4, 5), (2, 1, 0),
        (0, 3, 4), (3, 3, 5), (4, 1, 0), (2, 5, 1), (0, 0, 5), (1, 4, 1),
    ]


def test_witnesses_never_refute_members():
    for case in range(60):
        rng = random.Random(f"test:closure-wit:{case}")
        i = _random_ideal(rng)
        m = _random_monomial(rng, i.variable_count, 7)
        if in_integral_closure_newton(i, m):
            assert in_integral_closure_valuative(
                i, m, default_witnesses(i.variable_count, seed=case)
            )


def test_membership_monotone_under_enlargement():
    for case in range(60):
        rng = random.Random(f"test:closure-mono:{case}")
        i = _random_ideal(rng)
        m = _random_monomial(rng, i.variable_count, 6)
        if not in_integral_closure_newton(i, m):
            continue
        extra = tuple(_random_monomial(rng, i.variable_count, 5) for _ in range(2))
        bigger = MonomialIdeal(i.variable_count, i.generators + extra)
        assert in_integral_closure_newton(bigger, m)


def test_is_reduction_examples():
    squares = squares_ideal(2)
    full = power_ideal(maximal_ideal(2), 2)
    assert is_reduction(squares, full)
    assert is_reduction(full, full)
    assert not is_reduction(ideal([2, 0]), squares)
    with pytest.raises(ValidationError):
        is_reduction(squares, ideal([2, 0, 0]))


def test_square_reduction_family():
    for p in range(1, 7):
        assert is_reduction(squares_ideal(p), power_ideal(maximal_ideal(p), 2))


def test_generators_already_in_sub_never_reach_the_simplex(monkeypatch):
    'an ideal lies in its integral closure, so only the other generators are solved'

    def refuse(points, bounds):
        raise AssertionError(f"the simplex ran for {bounds}")

    monkeypatch.setattr(integral_closure, "_simplex_feasible", refuse)
    rng = random.Random(0)
    for p in range(1, 7):
        squares, squared = squares_ideal(p), power_ideal(maximal_ideal(p), 2)
        # multiples of the squares, so in the ideal the squares generate
        picked = [
            tuple(e + 2 * (j == i) for j, e in enumerate(g))
            for g in squared.generators
            for i in range(p)
            if rng.random() < 0.5
        ]
        assert is_reduction(squares, MonomialIdeal(p, squares.generators + tuple(picked)))
        assert is_reduction(squared, squared)


def test_the_simplex_runs_once_per_cross_term(monkeypatch):
    'each cross term y_i * y_j is solved once, on its support: 2 rows over y_i^2, y_j^2'
    feasible, solved = integral_closure._simplex_feasible, []

    def counted(points, bounds):
        solved.append((points, bounds))
        return feasible(points, bounds)

    monkeypatch.setattr(integral_closure, "_simplex_feasible", counted)
    for p in range(1, 7):
        solved.clear()
        assert is_reduction(squares_ideal(p), power_ideal(maximal_ideal(p), 2))
        assert solved == [(((2, 0), (0, 2)), (1, 1))] * comb(p, 2)


def test_reduction_fails_when_not_contained():
    'sub must sit inside full as an ideal, not only integrally'
    sub = ideal([1, 1])
    full = squares_ideal(2)
    assert not is_reduction(sub, full)


def test_a_generator_off_the_support_carries_no_weight():
    'projected onto the support of g, y1*y2 would reach g = y1 and y1^2 would reach y2*y3'
    assert not is_reduction(ideal([1, 1]), ideal([1, 0]))
    squares = ideal([2, 0, 0], [0, 0, 2])
    assert not is_reduction(squares, ideal([2, 0, 0], [0, 1, 1], [0, 0, 2]))
    assert is_reduction(squares, ideal([2, 0, 0], [1, 0, 1], [0, 0, 2]))


def _sparse_monomial(rng, n, top):
    'a monomial on a random nonempty set of about half the variables'
    support = rng.sample(range(n), rng.randint(1, max(1, n // 2 + rng.randint(0, 1))))
    return tuple(rng.randint(1, top) if i in support else 0 for i in range(n))


def _nudged_mean(rng, gens):
    'the rounded-up mean of a few generators, integral over them; 1 time in 3 one less somewhere'
    picked = rng.sample(gens, min(len(gens), rng.randint(2, 3)))
    mean = [-(-sum(column) // len(picked)) for column in zip(*picked)]
    support = [i for i, e in enumerate(mean) if e]
    if support and rng.random() < 1 / 3:
        mean[rng.choice(support)] -= 1
    return tuple(mean)


def test_is_reduction_vs_facets_seeded():
    'sub inside full, zero exponents common: each generator of full is in sub or passes the facets'
    answers = []
    for case in range(2000):
        rng = random.Random(f"test:reduction-facets:{case}")
        n = rng.randint(1, 4)
        sub = ideal(*(_sparse_monomial(rng, n, 4) for _ in range(rng.randint(2, 5))))
        extra = tuple(_nudged_mean(rng, sub.generators) for _ in range(rng.randint(1, 3)))
        full = MonomialIdeal(n, sub.generators + extra)
        expected = all(
            sub.contains_monomial(g) or in_integral_closure_facets(sub, g)
            for g in full.generators
        )
        assert is_reduction(sub, full) == expected, (sub, full)
        answers.append(expected)
    assert 500 < answers.count(False) < 1500
