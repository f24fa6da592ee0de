"""Acceptance suite: ten gated criteria, each printing one PASS line.

Every criterion pins its expected values and its runtime ceiling; run
with `pytest -s tests/test_acceptance.py` to see the lines.
"""

import json
import random
import time
from math import comb

from dqp.cli import main
from dqp.core import (
    DqpParams,
    euler_obstruction_hypersurface,
    euler_obstruction_sigma1,
    le_numbers,
    minimal_params,
    polar_multiplicities_sigma1,
    reduced_euler_characteristic,
    verify_massey_identity,
)
from dqp.chow import (
    BidegreeSystem,
    intersection_number_fulton,
    intersection_number_ring,
)
from dqp.ffcount import (
    NormalFormSpec,
    count_points,
    counting_polynomial,
    evaluate_polynomial,
    predicted_count,
)
from dqp.integral_closure import (
    MonomialIdeal,
    default_witnesses,
    in_integral_closure_facets,
    in_integral_closure_newton,
    in_integral_closure_valuative,
    is_reduction,
    power_ideal,
)
from dqp.le_engine import det_multiplicity, le_number_via_chow


def _report(number, label, started, limit):
    elapsed = time.perf_counter() - started
    assert elapsed < limit, f"criterion {number} took {elapsed:.2f}s (limit {limit}s)"
    print(f"criterion {number} ({label}): PASS in {elapsed:.2f}s (limit {limit}s)")


def test_criterion_1_le_number_tables():
    started = time.perf_counter()
    assert le_numbers(DqpParams(5, 3, 2)) == {3: 1, 2: 4, 1: 4, 0: 0}
    assert le_numbers(DqpParams(9, 6, 3)) == {
        6: 1, 5: 6, 4: 12, 3: 8, 2: 0, 1: 0, 0: 0,
    }
    _report(1, "Lê-number tables", started, 1.0)


def test_criterion_2_engine_vs_closed_form():
    started = time.perf_counter()
    cases = 0
    for p in range(2, 7):
        for i in range(1, p + 1):
            assert le_number_via_chow(p, i) == 2**i * comb(p, p - i)
            cases += 1
    assert cases == 20
    _report(2, "engine vs closed form, 20 cases", started, 5.0)


def test_criterion_3_massey_identity():
    started = time.perf_counter()
    cases = 0
    for p in range(1, 7):
        q_min = p * (p + 1) // 2
        for q in range(q_min, q_min + 4):
            for n in range(q + p, q + p + 4):
                assert verify_massey_identity(DqpParams(n, q, p))
                cases += 1
    _report(3, f"Massey identity, {cases} parameter triples", started, 5.0)


def test_criterion_4_chow_oracle_equivalence():
    started = time.perf_counter()
    for case in range(500):
        rng = random.Random(f"acceptance:chow:{case}")
        total = rng.randint(2, 12)
        n = rng.randint(0, total)
        classes = []
        for _ in range(total):
            a, b = rng.randint(0, 3), rng.randint(0, 3)
            if a == 0 and b == 0:
                a = rng.randint(1, 3)
            classes.append((a, b))
        system = BidegreeSystem(
            ambient_n=n, ambient_m=total - n, classes=tuple(classes)
        )
        assert intersection_number_ring(system) == intersection_number_fulton(system)
    _report(4, "ring vs subset-sum, 500 systems", started, 10.0)


def test_criterion_5_euler_obstructions():
    started = time.perf_counter()
    assert [euler_obstruction_sigma1(p) for p in range(2, 9)] == [0, 1, 0, 1, 0, 1, 0]
    for p in range(2, 7):
        q = p * (p + 1) // 2
        for delta in (p, p + 1, p + 2):
            expected = 1 + (-1) ** delta if p % 2 == 0 else 1
            assert euler_obstruction_hypersurface(DqpParams(q + delta, q, p)) == expected
    _report(5, "Euler obstructions", started, 1.0)


def test_criterion_6_polar_multiplicities():
    started = time.perf_counter()
    assert polar_multiplicities_sigma1(2) == {2: 2, 1: 2, 0: 0}
    assert polar_multiplicities_sigma1(3) == {
        5: 3, 4: 6, 3: 4, 2: 0, 1: 0, 0: 0,
    }
    for p in range(2, 7):
        le = le_numbers(minimal_params(p))
        for d, value in polar_multiplicities_sigma1(p).items():
            assert 2 * value == le[d]
    _report(6, "polar multiplicities", started, 1.0)


def test_criterion_7_integral_closure():
    started = time.perf_counter()
    for p in range(1, 7):
        maximal = MonomialIdeal(
            p, tuple(tuple(int(i == j) for j in range(p)) for i in range(p))
        )
        squares = MonomialIdeal(
            p,
            tuple(tuple(2 * int(i == j) for j in range(p)) for i in range(p)),
        )
        assert is_reduction(squares, power_ideal(maximal, 2))
    cubes = MonomialIdeal(2, ((3, 0), (0, 3)))
    assert in_integral_closure_newton(cubes, (2, 2))
    squares2 = MonomialIdeal(2, ((2, 0), (0, 2)))
    assert not in_integral_closure_newton(squares2, (1, 0))
    for case in range(200):
        rng = random.Random(f"acceptance:closure:{case}")
        nvars = rng.randint(1, 4)
        gens = tuple(
            tuple(rng.randint(0, 5) for _ in range(nvars))
            for _ in range(rng.randint(1, 5))
        )
        ideal = MonomialIdeal(nvars, gens)
        m = tuple(rng.randint(0, 7) for _ in range(nvars))
        member = in_integral_closure_newton(ideal, m)
        assert member == in_integral_closure_facets(ideal, m)
        if member:
            battery = default_witnesses(nvars, seed=0)
            assert in_integral_closure_valuative(ideal, m, battery)
    _report(7, "integral closure, 200 duality cases", started, 10.0)


def test_criterion_8_finite_field_counts():
    started = time.perf_counter()
    for prime in (3, 5, 7, 11):
        report = count_points(NormalFormSpec(p=1), prime)
        assert report.observed_count == prime - 1
        assert report.observed_count == predicted_count(NormalFormSpec(p=1), prime)
    assert count_points(NormalFormSpec(p=2), 3).observed_count == 72
    assert count_points(NormalFormSpec(p=2), 5).observed_count == 600
    assert count_points(NormalFormSpec(p=2, q1=1), 3).observed_count == 216
    for p in (1, 2, 3):
        for q1 in (0, 1):
            spec = NormalFormSpec(p=p, q1=q1)
            coeffs = counting_polynomial(spec)
            expected = [0] * spec.n
            expected[spec.n - 1] = 1
            expected[spec.n - p - 1] -= 1
            assert coeffs == tuple(expected)
            assert evaluate_polynomial(coeffs, 1) == 0
            assert reduced_euler_characteristic(spec.params) == -1
    _report(8, "finite-field counts", started, 30.0)


def test_criterion_9_determinant_multiplicity():
    started = time.perf_counter()
    for p in range(1, 7):
        assert det_multiplicity(p) == p
    _report(9, "determinant multiplicity", started, 5.0)


def test_criterion_10_determinism(capsys):
    started = time.perf_counter()
    outputs = []
    for _ in range(2):
        code = main(["verify", "--seed", "42", "--format", "json"])
        captured = capsys.readouterr()
        assert code == 0
        outputs.append(captured.out.encode("utf-8"))
    assert outputs[0] == outputs[1]
    doc = json.loads(outputs[0])
    assert all(c["status"] == "pass" for c in doc["checks"])
    observed = []
    for jobs in ("1", "2", "8"):
        code = main(
            ["count", "--p", "2", "--prime", "5", "--jobs", jobs, "--format", "json"]
        )
        captured = capsys.readouterr()
        assert code == 0
        observed.append(json.loads(captured.out)["results"]["observed"])
    assert observed == [600, 600, 600]
    elapsed = time.perf_counter() - started
    with capsys.disabled():
        print(f"criterion 10 (determinism): PASS in {elapsed:.2f}s")
