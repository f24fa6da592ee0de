import concurrent.futures
import itertools
import os
import random
import sys
import threading
import time
from collections import Counter
from fractions import Fraction

import pytest

from dqp import ffcount
from dqp.core import reduced_euler_characteristic
from dqp.errors import BudgetError, CheckError, ValidationError
from dqp.ffcount import (
    NormalFormSpec,
    count_nonzero_y_slice,
    count_points,
    counting_polynomial,
    evaluate_polynomial,
    predicted_count,
)


def eval_normal_form(spec, point, prime):
    """Reference evaluator: sum_{i<=j} x_{ij} y_i y_j mod prime at one point."""
    x = iter(point[: spec.matrix_variable_count])
    y = point[spec.matrix_variable_count + spec.q1 :]
    pairs = [(i, j) for i in range(spec.p) for j in range(i, spec.p)]
    return sum(next(x) * y[i] * y[j] for i, j in pairs) % prime


def test_spec_layout():
    spec = NormalFormSpec(p=2, q1=1)
    assert spec.matrix_variable_count == 3
    assert spec.n == 6
    params = spec.params
    assert (params.n, params.q, params.p) == (6, 4, 2)
    assert params.k == 0


def test_spec_validation():
    with pytest.raises(ValidationError):
        NormalFormSpec(p=0)
    with pytest.raises(ValidationError):
        NormalFormSpec(p=1, q1=-1)


def test_eval_normal_form():
    assert eval_normal_form(NormalFormSpec(p=1), (1, 1), 3) == 1
    assert eval_normal_form(NormalFormSpec(p=2), (1, 0, 1, 1, 2), 5) == 0
    # inert coordinate is ignored
    assert eval_normal_form(NormalFormSpec(p=1, q1=1), (2, 4, 1), 5) == 2


def test_eval_normal_form_brute_force_cross_check():
    'the histogram counter agrees with pointwise evaluation on a tiny case'
    spec = NormalFormSpec(p=2)
    prime = 3
    direct = sum(
        1
        for point in itertools.product(range(prime), repeat=spec.n)
        if eval_normal_form(spec, point, prime) == 1
    )
    assert direct == count_points(spec, prime).observed_count == 72


@pytest.mark.parametrize(
    "p, q1, prime",
    [(1, 0, 3), (1, 2, 7), (1, 4, 5), (2, 0, 5), (2, 1, 5), (2, 2, 3), (2, 0, 7), (3, 0, 3)],
    ids=lambda v: str(v),
)
def test_count_points_matches_enumeration_of_every_point(p, q1, prime):
    'third route: f evaluated at all of F_prime^n, unread coordinates included'
    spec = NormalFormSpec(p=p, q1=q1)
    assert prime**spec.n <= 10**5
    values = Counter(
        eval_normal_form(spec, point, prime)
        for point in itertools.product(range(prime), repeat=spec.n)
    )
    for target in range(1, prime):
        assert count_points(spec, prime, target=target).observed_count == values[target]


def test_predicted_count_values():
    assert predicted_count(NormalFormSpec(p=1), 3) == 2
    assert predicted_count(NormalFormSpec(p=2), 3) == 72
    assert predicted_count(NormalFormSpec(p=2, q1=1), 3) == 216


def test_count_p1_all_small_primes():
    for prime in (3, 5, 7, 11):
        report = count_points(NormalFormSpec(p=1), prime)
        assert report.observed_count == prime - 1
        assert report.observed_count == predicted_count(NormalFormSpec(p=1), prime)


def test_count_p2_values():
    assert count_points(NormalFormSpec(p=2), 3).observed_count == 72
    assert count_points(NormalFormSpec(p=2), 5).observed_count == 600
    assert count_points(NormalFormSpec(p=2, q1=1), 3).observed_count == 216


def test_count_report_fields():
    report = count_points(NormalFormSpec(p=2), 3, target=2)
    assert report.observed_count == 72
    assert report.enumerated == 3**5
    assert report.target == 2
    assert report.observed_count == predicted_count(NormalFormSpec(p=2), 3)


def test_target_independence_exhaustive():
    for p, q1 in ((1, 0), (1, 1), (2, 0)):
        spec = NormalFormSpec(p=p, q1=q1)
        for prime in (3, 5, 7):
            counts = {
                count_points(spec, prime, target=t).observed_count
                for t in range(1, prime)
            }
            assert len(counts) == 1


def test_count_budget_refusal():
    with pytest.raises(BudgetError) as info:
        count_points(NormalFormSpec(p=3), 11)
    assert info.value.required == 11**9
    # 10^8 has 27 bits, so past n = 27 the power is never computed.
    with pytest.raises(BudgetError, match=r"3\^28 points") as info:
        count_points(NormalFormSpec(p=1, q1=26), 3)
    assert info.value.required is None
    with pytest.raises(BudgetError) as info:
        count_points(NormalFormSpec(p=1, q1=25), 3)
    assert info.value.required == 3**27


def test_count_budget_checked_before_primality():
    'an oversized odd modulus is refused before any trial division'
    with pytest.raises(BudgetError) as info:
        count_points(NormalFormSpec(p=1), 10**40 + 1)
    assert info.value.required == (10**40 + 1) ** 2
    with pytest.raises(ValidationError, match="odd prime"):
        count_points(NormalFormSpec(p=1), 10**40)
    with pytest.raises(ValidationError, match="odd prime"):
        count_points(NormalFormSpec(p=1), 9)


def test_primality_agrees_with_trial_division():
    def trial_division(n):
        return all(n % d for d in range(3, int(n**0.5) + 1, 2))

    for n in range(3, 20000, 2):
        if trial_division(n):
            ffcount._require_odd_prime(n)
        else:
            with pytest.raises(ValidationError, match="odd prime"):
                ffcount._require_odd_prime(n)


@pytest.mark.parametrize(
    "composite",
    [561, 41041, 2047, 1373653, 25326001],
    ids=["carmichael-561", "carmichael-41041", "spsp-2", "spsp-2-3", "spsp-2-3-5"],
)
def test_primality_rejects_pseudoprimes(composite):
    'Carmichael numbers and the least strong pseudoprimes to the first prime bases'
    with pytest.raises(ValidationError, match="odd prime"):
        ffcount._require_odd_prime(composite)


def test_primality_accepts_large_primes():
    'the largest prime the counter limit admits, and the least one it refuses'
    ffcount._require_odd_prime(99999989)
    with pytest.raises(BudgetError, match="the modulus") as info:
        ffcount._require_odd_prime(100000007)
    assert info.value.required == 100000007


def test_a_composite_slice_past_its_steps_is_refused_before_primality():
    'the steps limit, at least the modulus, is met before the primality test'
    with pytest.raises(BudgetError) as info:
        count_nonzero_y_slice(NormalFormSpec(2), 100001, 1, 1, 1000)
    assert info.value.required == 999 * 3 * 100001
    with pytest.raises(ValidationError, match="odd prime"):
        count_nonzero_y_slice(NormalFormSpec(2), 100001, 1, 1, 2)


def test_jobs_capped_by_y_vectors_and_cores(monkeypatch):
    'the pool is sized by y-vectors and cores, whatever jobs asks for'
    sizes = []

    class RecordingExecutor(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers)

    # count_points imports the pool from concurrent.futures when it needs one
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingExecutor)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert count_points(NormalFormSpec(p=1), 3, jobs=10**6).observed_count == 2
    assert sizes == [3]
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert count_points(NormalFormSpec(p=2), 5, jobs=10**6).observed_count == 600
    assert sizes == [3, 2]


def _finishes(fn, seconds=60):
    'run fn on a daemon thread; a slice left waiting fails the test, not the run'
    outcome = []

    def run():
        try:
            outcome.append(fn())
        except Exception as error:  # noqa: BLE001 (returned to the test)
            outcome.append(error)

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(seconds)
    assert not worker.is_alive(), "slices left waiting for each other"
    return outcome[0]


@pytest.mark.parametrize("p, prime", [(1, 13), (2, 7), (3, 5)])
def test_slices_solve_each_form_once(monkeypatch, p, prime):
    'for p = 1, y and -y share the form (y^2) but fall in different slices'
    solved = []
    solve = ffcount._solve_linear_forms

    def recording(forms, prime, target):
        forms = list(forms)
        solved.extend(forms)
        return solve(forms, prime, target)

    monkeypatch.setattr(ffcount, "_solve_linear_forms", recording)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    spec = NormalFormSpec(p=p)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for jobs in (1, 2, 8):
            solved.clear()
            report = _finishes(lambda: count_points(spec, prime, jobs=jobs))
            assert report.observed_count == predicted_count(spec, prime)
            assert len(solved) == len(set(solved))
    finally:
        sys.setswitchinterval(switch)


def test_a_failing_slice_releases_the_others_and_raises_its_error(monkeypatch):
    calls = []
    solve = ffcount._solve_linear_forms

    def failing_once(forms, prime, target):
        calls.append(forms)
        if len(calls) == 1:
            raise ArithmeticError("first share failed")
        return solve(forms, prime, target)

    monkeypatch.setattr(ffcount, "_solve_linear_forms", failing_once)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    raised = _finishes(lambda: count_points(NormalFormSpec(p=2), 5, jobs=3))
    assert isinstance(raised, ArithmeticError)


def test_count_rejects_zero_target():
    with pytest.raises(ValidationError, match="nonzero"):
        count_points(NormalFormSpec(p=1), 3, target=0)
    with pytest.raises(ValidationError, match="nonzero"):
        count_points(NormalFormSpec(p=1), 3, target=3)


def test_jobs_do_not_change_the_count():
    expected = count_points(NormalFormSpec(p=2), 5, jobs=1).observed_count
    for jobs in (2, 3, 8):
        assert count_points(NormalFormSpec(p=2), 5, jobs=jobs).observed_count == expected


def test_slice_partition_sums():
    spec = NormalFormSpec(p=2)
    prime = 5
    whole = count_nonzero_y_slice(spec, prime, 1, 0, prime**2)
    for split in (1, 4, 7, 25):
        edges = [round(j * prime**2 / split) for j in range(split + 1)]
        total = sum(
            count_nonzero_y_slice(spec, prime, 1, lo, hi)
            for lo, hi in zip(edges, edges[1:])
        )
        assert total == whole


def test_slice_validation():
    spec = NormalFormSpec(p=1)
    with pytest.raises(ValidationError):
        count_nonzero_y_slice(spec, 3, 1, 2, 1)
    with pytest.raises(ValidationError):
        count_nonzero_y_slice(spec, 3, 1, 0, 4)


def test_slice_work_is_bounded_by_the_default_budget(monkeypatch):
    'y-vectors times index pairs: 25 x 3 passes the real budget, not a budget of 10'
    assert count_nonzero_y_slice(NormalFormSpec(2), 5, 1, 0, 25) == 600
    monkeypatch.setattr(ffcount, "DEFAULT_BUDGET", 10)
    with pytest.raises(BudgetError) as info:
        count_nonzero_y_slice(NormalFormSpec(2), 5, 1, 0, 25)
    assert info.value.required == 375


def test_a_one_vector_slice_over_a_huge_prime_is_refused_before_any_work():
    'one form still builds a histogram over F_prime: ~10^9 steps here, minutes'
    started = time.perf_counter()
    with pytest.raises(BudgetError) as info:
        count_nonzero_y_slice(NormalFormSpec(1), 1000000007, 1, 1, 2)
    assert info.value.required == 1000000007
    assert time.perf_counter() - started < 1.0


@pytest.mark.parametrize(
    "p, stop",
    [(10**5, 5), (10**6, 0), (10**7, 0)],
    ids=["five-y-vectors", "empty-slice", "no-power"],
)
def test_slice_of_a_huge_p_is_refused_before_any_work(p, stop):
    'neither the index pairs nor prime^p are built (3^(10^7) alone takes seconds)'
    started = time.perf_counter()
    with pytest.raises(BudgetError):
        count_nonzero_y_slice(NormalFormSpec(p), 3, 1, 0, stop)
    assert time.perf_counter() - started < 1.0


@pytest.mark.parametrize("p", [44, 45])
def test_a_form_longer_than_the_recursion_limit_is_counted(p):
    'y = (0, ..., 0, 1) leaves one condition x_pp = 1 on the p(p+1)/2 x-coordinates'
    pairs = p * (p + 1) // 2
    assert count_nonzero_y_slice(NormalFormSpec(p), 3, 1, 1, 2) == 3 ** (pairs - 1)


def test_first_odd_primes_are_the_odd_primes_in_order():
    odd_primes = [
        n for n in range(3, 200, 2) if all(n % d for d in range(3, int(n**0.5) + 1, 2))
    ]
    assert ffcount._first_odd_primes(40) == odd_primes[:40]


def test_counting_polynomial_values():
    assert counting_polynomial(NormalFormSpec(p=1)) == (-1, 1)
    assert counting_polynomial(NormalFormSpec(p=2)) == (0, 0, -1, 0, 1)
    assert counting_polynomial(NormalFormSpec(p=2, q1=1)) == (0, 0, 0, -1, 0, 1)


def test_counting_polynomial_properties():
    for p in (1, 2, 3):
        for q1 in (0, 1):
            spec = NormalFormSpec(p=p, q1=q1)
            coeffs = counting_polynomial(spec)
            assert len(coeffs) == spec.n
            assert coeffs[-1] == 1
            assert evaluate_polynomial(coeffs, 1) == 0
            # chi(M) = 0 so the reduced Euler characteristic is -1
            assert reduced_euler_characteristic(spec.params) == -1
            for prime in (3, 5, 7):
                assert evaluate_polynomial(coeffs, prime) == predicted_count(
                    spec, prime
                )


@pytest.mark.parametrize(
    "bumped, message",
    [(0, "not an integer polynomial"), (-1, "held-out")],
    ids=["first-sample", "held-out-prime"],
)
def test_counting_polynomial_rejects_a_wrong_count(monkeypatch, bumped, message):
    'one count off by one, at a sample or at the held-out prime, is caught'
    spec = NormalFormSpec(p=2)
    bumped_prime = ffcount._first_odd_primes(spec.n + 1)[bumped]
    honest = ffcount.count_nonzero_y_slice

    def off_by_one(spec, prime, target, start, stop):
        return honest(spec, prime, target, start, stop) + (prime == bumped_prime)

    monkeypatch.setattr(ffcount, "count_nonzero_y_slice", off_by_one)
    with pytest.raises(CheckError, match=message):
        counting_polynomial(spec)


def fraction_lagrange(nodes, values):
    'the oracle: ascending Fraction coefficients by the Lagrange basis'
    result = [Fraction(0)] * len(nodes)
    for i, (xi, yi) in enumerate(zip(nodes, values)):
        basis, denom = [Fraction(1)], Fraction(1)
        for j, xj in enumerate(nodes):
            if j != i:
                # the running basis polynomial times (t - xj)
                basis = [s - xj * b for s, b in zip([0, *basis], [*basis, 0])]
                denom *= xi - xj
        for k, c in enumerate(basis):
            result[k] += yi / denom * c
    return result


def test_integer_interpolation_matches_fraction_lagrange():
    'integer polynomials come back exactly; any fractional coefficient gives None'
    rng = random.Random("test:interpolation")
    seen = Counter()
    for case in range(400):
        nodes = sorted(rng.sample(range(-40, 200), rng.randint(1, 12)))
        if case % 2:
            coeffs = [rng.randint(-10**6, 10**6) for _ in nodes]
            values = [evaluate_polynomial(tuple(coeffs), x) for x in nodes]
        else:
            values = [rng.randint(-10**4, 10**4) for _ in nodes]
        expected = fraction_lagrange(nodes, values)
        got = ffcount._interpolate(nodes, values)
        if all(c.denominator == 1 for c in expected):
            assert got == tuple(int(c) for c in expected), (nodes, values)
            seen["integer"] += 1
        else:
            assert got is None, (nodes, values)
            seen["fractional"] += 1
    assert seen["integer"] > 200 and seen["fractional"] > 150, seen
    # t(t - 1) / 2 is integer at every integer node, yet not an integer polynomial
    nodes = [3, 5, 7]
    values = [x * (x - 1) // 2 for x in nodes]
    assert fraction_lagrange(nodes, values) == [0, Fraction(-1, 2), Fraction(1, 2)]
    assert ffcount._interpolate(nodes, values) is None


def test_counting_polynomial_matches_sympy_factorization():
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    for p in (1, 2, 3):
        spec = NormalFormSpec(p=p)
        coeffs = counting_polynomial(spec)
        ours = sum(c * t**k for k, c in enumerate(coeffs))
        closed = sympy.expand((t**p - 1) * t ** (spec.n - p - 1))
        assert sympy.simplify(ours - closed) == 0
