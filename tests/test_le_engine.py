import itertools
import random
from fractions import Fraction
from math import comb, factorial, prod

import pytest

from dqp import ffcount, le_engine
from dqp.core import le_numbers, minimal_params, polar_multiplicities_sigma1
from dqp.errors import ValidationError
from dqp.le_engine import (
    _bareiss_det,
    build_le_system,
    det_multiplicity,
    le_number_via_chow,
    underlying_multiplicity_via_chow,
)
from dqp.verify import run_verify


def test_build_le_system_classes():
    system = build_le_system(3, 2)
    assert system.ambient_n == 5
    assert system.ambient_m == 2
    counts = {}
    for c in system.classes:
        counts[c] = counts.get(c, 0) + 1
    assert counts == {(1, 1): 3, (0, 2): 1, (1, 0): 3}
    assert len(system.classes) == 7


def test_build_le_system_rejects_bad_inputs():
    with pytest.raises(ValidationError, match="p must satisfy p >= 2"):
        build_le_system(1, 1)
    with pytest.raises(ValidationError, match="i must satisfy"):
        build_le_system(3, 0)
    with pytest.raises(ValidationError, match="i must satisfy"):
        build_le_system(3, 4)


def test_le_number_via_chow_matches_closed_form():
    for p in range(2, 6):
        q = p * (p + 1) // 2
        table = le_numbers(minimal_params(p))
        for i in range(1, p + 1):
            assert le_number_via_chow(p, i) == 2**i * comb(p, p - i)
            assert le_number_via_chow(p, i) == table[q - i]


def test_underlying_multiplicity_is_half_le_and_polar_entry():
    for p in range(2, 21):
        q = p * (p + 1) // 2
        polar = polar_multiplicities_sigma1(p)
        for i in range(1, p + 1):
            mult = underlying_multiplicity_via_chow(p, i)
            assert 2 * mult == le_number_via_chow(p, i)
            assert mult == polar[q - i]


def test_multiplicity_of_determinantal_slice_is_p():
    'the i=1 system recovers the multiplicity of the det hypersurface'
    for p in range(2, 7):
        assert underlying_multiplicity_via_chow(p, 1) == p


def _leibniz_det(matrix):
    'sum over permutations s of sign(s) * prod_r matrix[r][s(r)]'
    size = len(matrix)
    total = 0
    for perm in itertools.permutations(range(size)):
        inversions = sum(
            perm[a] > perm[b] for a in range(size) for b in range(a + 1, size)
        )
        total += (-1) ** inversions * prod(matrix[r][c] for r, c in enumerate(perm))
    return total


def _seeded_symmetric(rng, size, kind):
    'generic, zero first pivot (a row swap when nonsingular), or rank < size'
    if kind == "low-rank":
        basis = [[rng.randint(-3, 3) for _ in range(size)] for _ in range(size - 1)]
        weights = [rng.choice((-2, -1, 1, 2)) for _ in basis]
        return [
            [sum(w * b[r] * b[c] for w, b in zip(weights, basis)) for c in range(size)]
            for r in range(size)
        ]
    matrix = [[0] * size for _ in range(size)]
    for r in range(size):
        for c in range(r, size):
            matrix[r][c] = matrix[c][r] = rng.randint(-9, 9)
    if kind == "zero-pivot":
        matrix[0][0] = 0
    return matrix


@pytest.mark.parametrize("p", range(1, 8))
def test_det_matches_leibniz(p):
    'independent oracle: the permutation sum, on seeded symmetric matrices'
    rng = random.Random(f"bareiss:{p}")
    seen = {"singular": 0, "swapped": 0}
    for case in range(45 if p < 6 else 15):
        kind = ("generic", "zero-pivot", "low-rank")[case % 3]
        matrix = _seeded_symmetric(rng, p, kind)
        expected = _leibniz_det(matrix)
        assert _bareiss_det(matrix) == expected, matrix
        seen["singular"] += expected == 0
        seen["swapped"] += kind == "zero-pivot" and expected != 0
    if p > 1:
        assert seen["singular"] >= 5 and seen["swapped"] >= 4, seen


def test_det_p1_p2():
    'closed forms a and a*c - b^2, including a zero first pivot'
    for a, b, c in itertools.product(range(-3, 4), repeat=3):
        assert _bareiss_det([[a]]) == a
        assert _bareiss_det([[a, b], [b, c]]) == a * c - b * b
    assert det_multiplicity(1) == 1
    assert det_multiplicity(2) == 2


def test_det_p3_expansion():
    'the five-monomial expansion; the off-diagonal product carries 2'
    rng = random.Random("det:p3")
    for case in range(60):
        kind = ("generic", "zero-pivot", "low-rank")[case % 3]
        (a, b, c), (_, d, e), (_, _, f) = _seeded_symmetric(rng, 3, kind)
        expected = a * d * f - a * e * e - b * b * f + 2 * b * c * e - c * c * d
        assert _bareiss_det([[a, b, c], [b, d, e], [c, e, f]]) == expected


def test_det_p8_size_degree_and_value():
    'det(t*A) = t^8 det A on a seeded 8 x 8 matrix with 36 free entries'
    rng = random.Random(8)
    pairs = [(r, c) for r in range(8) for c in range(r, 8)]
    assert len(pairs) == 36
    values = {pair: rng.randint(-9, 9) for pair in pairs}
    matrix = [[values[min(r, c), max(r, c)] for c in range(8)] for r in range(8)]
    det = _bareiss_det(matrix)
    assert det == _leibniz_det(matrix) != 0
    on_line = [_bareiss_det([[t * x for x in row] for row in matrix]) for t in range(10)]
    assert on_line == [t**8 * det for t in range(10)]
    assert order_at_zero(on_line) == 8


@pytest.mark.parametrize("p", range(1, 6))
def test_det_matches_sympy(p):
    'independent oracle: sympy determinant of the same integer matrices'
    sympy = pytest.importorskip("sympy")
    rng = random.Random(f"sympy:{p}")
    for case in range(30):
        kind = ("generic", "zero-pivot", "low-rank")[case % 3]
        matrix = _seeded_symmetric(rng, p, kind)
        expected = int(sympy.Matrix(matrix).det(method="berkowitz"))
        assert _bareiss_det(matrix) == expected, matrix


def order_at_zero(values):
    'the order at 0 that det_multiplicity reads from the kernel, at t = 0..N-1'
    coeffs = ffcount._interpolate(list(range(len(values))), values)
    return next((d for d, c in enumerate(coeffs) if c), len(coeffs))


def test_order_at_zero_interpolates_exactly():
    for coeffs in ([5], [0, 0, 3], [0, 0, 0, -7, 2], [1, -1], [0, 0, 0, 0, 0, 9]):
        values = [
            sum(c * t**d for d, c in enumerate(coeffs)) for t in range(len(coeffs) + 1)
        ]
        order = next(d for d, c in enumerate(coeffs) if c)
        nodes = list(range(len(values)))
        assert ffcount._interpolate(nodes, values) == (*coeffs, 0)
        assert order_at_zero(values) == order


def fraction_order_at_zero(values):
    'the oracle: Newton form in Fraction, Delta^k / k! expanded by Horner'
    diffs = []
    while values:
        diffs.append(values[0])
        values = [b - a for a, b in zip(values, values[1:])]
    coeffs = []
    for k in reversed(range(len(diffs))):
        coeffs = [a - k * b for a, b in zip([0, *coeffs], [*coeffs, 0])]
        coeffs[0] += Fraction(diffs[k], factorial(k))
    return next((d for d, c in enumerate(coeffs) if c), len(coeffs))


def test_order_at_zero_matches_the_fraction_oracle():
    'integer polynomials of every order, sampled at t = 0..size-1'
    rng = random.Random("test:order-at-zero")
    orders = set()
    for _ in range(600):
        size = rng.randint(1, 11)
        order = rng.randint(0, size)
        coeffs = [0] * order + [rng.randint(-50, 50) for _ in range(size - order)]
        values = [sum(c * t**d for d, c in enumerate(coeffs)) for t in range(size)]
        expected = fraction_order_at_zero(values)
        assert order_at_zero(values) == expected, values
        orders.add(expected)
    assert orders == set(range(12))


def test_zero_polynomial_has_no_degree():
    'no finite order: all-zero values interpolate to as many zero coefficients'
    for count in range(1, 8):
        assert ffcount._interpolate(list(range(count)), [0] * count) == (0,) * count
        assert order_at_zero([0] * count) == count


def test_values_of_no_integer_polynomial_fail_det_multiplicity(monkeypatch):
    'a broken determinant reports p + 2, like an all-singular line, and fails the check'
    # 0 at the origin and 1 off it: through t = 0, 1, 2 that is t(3 - t)/2
    monkeypatch.setattr(le_engine, "_bareiss_det", lambda m: int(any(map(any, m))))
    for p in range(1, 6):
        assert det_multiplicity(p) == p + 2
    failed = [c.name for c in run_verify("core", 4, 0).checks if not c.passed]
    assert failed == ["det-multiplicity"]


def test_det_multiplicity_values():
    for p in range(1, 13):
        assert det_multiplicity(p) == p


def test_det_multiplicity_rejects_bad_p():
    for bad in (0, -1, 2.0, True):
        with pytest.raises(ValidationError):
            det_multiplicity(bad)
