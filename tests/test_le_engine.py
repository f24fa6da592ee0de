import itertools
import random
from math import comb, prod

import pytest

from dqp.core import le_numbers, minimal_params, polar_multiplicities_sigma1
from dqp.errors import BudgetError, ValidationError
from dqp.le_engine import (
    MAX_DET_SIZE,
    SymbolicPolynomial,
    build_le_system,
    det_multiplicity,
    generic_symmetric_det,
    le_number_via_chow,
    underlying_multiplicity_via_chow,
)


def test_build_le_system_classes():
    system = build_le_system(3, 2)
    assert system.ambient_n == 5
    assert system.ambient_m == 2
    counts = {}
    for c in system.classes:
        counts[(c.a, c.b)] = counts.get((c.a, c.b), 0) + 1
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
        table = le_numbers(minimal_params(p)).entries
        for i in range(1, p + 1):
            assert le_number_via_chow(p, i) == 2**i * comb(p, p - i)
            assert le_number_via_chow(p, i) == table[q - i]


def test_underlying_multiplicity_is_half_le_and_polar_entry():
    for p in range(2, 6):
        q = p * (p + 1) // 2
        polar = polar_multiplicities_sigma1(p).entries
        for i in range(1, p + 1):
            mult = underlying_multiplicity_via_chow(p, i)
            assert 2 * mult == le_number_via_chow(p, i)
            assert mult == polar[q - i]


def test_multiplicity_of_determinantal_slice_is_p():
    'the i=1 system recovers the multiplicity of the det hypersurface'
    for p in range(2, 7):
        assert underlying_multiplicity_via_chow(p, 1) == p


def test_symbolic_polynomial_arithmetic():
    # (x + y)^2 and (x + y)^2 + x
    square = SymbolicPolynomial(2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})
    assert square.min_total_degree == 2
    assert SymbolicPolynomial(2, {**square.terms, (1, 0): 1}).min_total_degree == 1


def test_zero_polynomial_has_no_degree():
    zero = SymbolicPolynomial(3, {})
    with pytest.raises(ValidationError):
        zero.min_total_degree


def test_det_p1_p2():
    assert generic_symmetric_det(1).terms == {(1,): 1}
    # variables x11, x12, x22: det = x11 x22 - x12^2
    assert generic_symmetric_det(2).terms == {(1, 0, 1): 1, (0, 2, 0): -1}


def test_det_p3_expansion():
    'five distinct monomials; the off-diagonal product carries coefficient 2'
    det = generic_symmetric_det(3)
    # variables x11 x12 x13 x22 x23 x33
    assert det.terms == {
        (1, 0, 0, 1, 0, 1): 1,
        (1, 0, 0, 0, 2, 0): -1,
        (0, 2, 0, 0, 0, 1): -1,
        (0, 1, 1, 0, 1, 0): 2,
        (0, 0, 2, 1, 0, 0): -1,
    }
    assert len(det.terms) == 5
    assert {sum(e) for e in det.terms} == {3}


def _upper_triangle_index(p):
    'position of x_{ij}, i <= j, among the variables in row-major order'
    pairs = [(i, j) for i in range(p) for j in range(i, p)]
    return {pair: pos for pos, pair in enumerate(pairs)}


def _leibniz_det(p):
    'sum over permutations s of sign(s) * prod_r x_{min(r, s r), max(r, s r)}'
    index = _upper_triangle_index(p)
    terms = {}
    for perm in itertools.permutations(range(p)):
        inversions = sum(
            perm[a] > perm[b] for a in range(p) for b in range(a + 1, p)
        )
        expo = [0] * len(index)
        for r, c in enumerate(perm):
            expo[index[(min(r, c), max(r, c))]] += 1
        key = tuple(expo)
        terms[key] = terms.get(key, 0) + (-1) ** inversions
    return {e: c for e, c in terms.items() if c}


@pytest.mark.parametrize("p", range(1, 8))
def test_det_matches_leibniz(p):
    'independent oracle: the permutation sum shares no code with Laplace'
    assert generic_symmetric_det(p).terms == _leibniz_det(p)


def _bareiss_det(matrix):
    'fraction-free Gaussian elimination over the integers'
    m = [row[:] for row in matrix]
    size, sign, prev = len(m), 1, 1
    for k in range(size - 1):
        if m[k][k] == 0:
            swap = next((r for r in range(k + 1, size) if m[r][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1]


def test_det_p8_size_degree_and_value():
    det = generic_symmetric_det(8)
    assert det.variable_count == 36
    assert len(det.terms) == 18155
    assert {sum(e) for e in det.terms} == {8}
    rng = random.Random(8)
    index = _upper_triangle_index(8)
    values = [rng.randint(-9, 9) for _ in index]
    matrix = [
        [values[index[(min(r, c), max(r, c))]] for c in range(8)] for r in range(8)
    ]
    at_point = sum(
        coeff * prod(v**e for v, e in zip(values, expo))
        for expo, coeff in det.terms.items()
    )
    assert at_point == _bareiss_det(matrix) != 0


@pytest.mark.parametrize("p", range(1, 6))
def test_det_matches_sympy(p):
    'independent oracle: sympy symbolic determinant of the same matrix'
    sympy = pytest.importorskip("sympy")
    names = [
        sympy.Symbol(f"x{i}{j}") for i in range(p) for j in range(i, p)
    ]
    index = _upper_triangle_index(p)
    matrix = sympy.Matrix(
        p, p, lambda r, c: names[index[(min(r, c), max(r, c))]]
    )
    expanded = sympy.expand(matrix.det(method="berkowitz"))
    poly = sympy.Poly(expanded, *names)
    expected = {tuple(monom): int(coeff) for monom, coeff in poly.terms()}
    assert generic_symmetric_det(p).terms == expected


def test_det_multiplicity_values():
    for p in range(1, 7):
        assert det_multiplicity(p) == p
        # homogeneous of degree p, so the order at the origin is p
        assert {sum(e) for e in generic_symmetric_det(p).terms} == {p}


def test_det_budget():
    with pytest.raises(BudgetError):
        generic_symmetric_det(MAX_DET_SIZE + 1)
    with pytest.raises(ValidationError):
        generic_symmetric_det(0)
