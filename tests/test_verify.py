import inspect
from dataclasses import replace

import pytest

from dqp import chow, core, ffcount, integral_closure, le_engine
from dqp.errors import ValidationError
from dqp.verify import (
    _square_reduction_pair,
    chow_checks,
    closure_checks,
    core_checks,
    ffcount_checks,
    run_verify,
)


def test_core_suite_passes():
    for check in core_checks(pmax=3):
        assert check.passed, f"{check.name}: {check.detail}"


def test_chow_suite_passes_on_other_seeds():
    for seed in (0, 1, "alt"):
        for check in chow_checks(seed=seed):
            assert check.passed, f"seed {seed}, {check.name}: {check.detail}"


def test_closure_suite_passes_on_other_seeds():
    for seed in (0, 3):
        for check in closure_checks(seed=seed):
            assert check.passed, f"seed {seed}, {check.name}: {check.detail}"


def test_off_by_one_histogram_fails_the_count_checks(monkeypatch):
    'dropping x = prime - 1 from every per-coordinate histogram is caught'
    monkeypatch.setattr(
        ffcount,
        "_coordinate_values",
        lambda c, prime: (c * x % prime for x in range(prime - 1)),
    )
    passed = {check.name: check.passed for check in ffcount_checks()}
    assert passed["observed-equals-predicted"] is False
    assert passed["counting-polynomial-euler"] is False


def test_one_wrong_base_count_fails_every_row_of_its_pair(monkeypatch):
    'one count serves all q1 of a (p, prime) pair, so each of its rows reports it'
    original = ffcount.count_points

    def bumped(spec, prime, *args, **kwargs):
        report = original(spec, prime, *args, **kwargs)
        if (spec.p, prime) == (2, 5):
            report = replace(report, observed_count=report.observed_count + 1)
        return report

    monkeypatch.setattr(ffcount, "count_points", bumped)
    checks = {check.name: check for check in ffcount_checks()}
    # p = 2 has n = 5 + q1, and 5^(5 + q1) <= 10^7 for q1 = 0..5
    rows = [(2, q1, 5) for q1 in range(6)]
    assert checks["observed-equals-predicted"].detail == (
        f"disagreeing (p, q1, prime): {rows}"
    )
    assert not checks["observed-equals-predicted"].passed


def test_a_wrong_q1_factor_fails_the_count_sweep(monkeypatch):
    'the sweep reads count_points at q1 > 0, so its prime^q1 factor is checked'
    original = ffcount.count_points

    def overscaled(spec, prime, *args, **kwargs):
        report = original(spec, prime, *args, **kwargs)
        if spec.q1:
            report = replace(report, observed_count=report.observed_count * prime)
        return report

    monkeypatch.setattr(ffcount, "count_points", overscaled)
    passed = {check.name: check.passed for check in ffcount_checks()}
    assert passed["observed-equals-predicted"] is False


def test_a_failing_whole_chain_fails_every_transitivity_case(monkeypatch):
    'squares -> squared is checked once per p and reported for each of its chains'
    pairs = {_square_reduction_pair(p) for p in range(2, 5)}
    original = integral_closure.is_reduction
    monkeypatch.setattr(
        integral_closure,
        "is_reduction",
        lambda sub, full: (sub, full) not in pairs and original(sub, full),
    )
    checks = {check.name: check for check in closure_checks()}
    cases = [(p, c) for p in range(2, 5) for c in range(5)]
    assert checks["reduction-transitivity"].detail == f"failing (p, case): {cases}"
    assert not checks["reduction-transitivity"].passed


def _bump_top_polar_entry(original):
    def bumped(p):
        table = original(p)
        top = max(table)
        return {**table, top: table[top] + 1}

    return bumped


CORE_CHECKS = (
    "le-closed-form-vs-chow",
    "polar-equals-half-le",
    "massey-alternating-sum",
    "euler-obstruction-parity",
    "euler-obstruction-hypersurface",
    "det-multiplicity",
)


@pytest.mark.parametrize(
    "module, name, mutate, failing",
    [
        pytest.param(
            core, "polar_multiplicities_sigma1", _bump_top_polar_entry,
            {"polar-equals-half-le"}, id="closed-form-polar-table",
        ),
        pytest.param(
            le_engine, "underlying_multiplicity_via_chow",
            lambda f: lambda p, i: f(p, i) + ((p, i) == (3, 2)),
            # (3, 2) feeds the Lê number, the polar entry and both obstructions
            {
                "le-closed-form-vs-chow",
                "polar-equals-half-le",
                "euler-obstruction-parity",
                "euler-obstruction-hypersurface",
            },
            id="chow-multiplicity",
        ),
        pytest.param(
            core, "euler_obstruction_sigma1", lambda f: lambda p: 1 - f(p),
            {"euler-obstruction-parity"}, id="closed-form-sigma1-obstruction",
        ),
        pytest.param(
            core, "euler_obstruction_hypersurface",
            lambda f: lambda params: f(params) + (params.p == 4),
            {"euler-obstruction-hypersurface"},
            id="closed-form-hypersurface-obstruction",
        ),
        pytest.param(
            core, "reduced_euler_characteristic", lambda f: lambda params: -f(params),
            {"massey-alternating-sum"}, id="reduced-euler-characteristic",
        ),
        pytest.param(
            le_engine, "_bareiss_det", lambda f: lambda m: f(m) + (len(m) == 3),
            {"det-multiplicity"}, id="determinant-helper",
        ),
        pytest.param(
            # every draw singular: the redraw loop gives up instead of hanging
            le_engine, "_bareiss_det", lambda f: lambda m: 0,
            {"det-multiplicity"}, id="determinant-helper-all-singular",
        ),
    ],
)
def test_one_sided_mutation_fails_its_core_check(
    monkeypatch, module, name, mutate, failing
):
    'each side of a core check is computed independently, so breaking one is reported'
    monkeypatch.setattr(module, name, mutate(getattr(module, name)))
    checks = core_checks(pmax=4)
    assert [c.name for c in checks] == list(CORE_CHECKS)
    assert {c.name for c in checks if not c.passed} == failing


def test_skipping_one_generator_row_fails_the_facet_check(monkeypatch):
    'the facet route builds its rays apart from the Newton simplex, so breaking them is reported'
    cut = integral_closure._cut
    # the cone never meets the second generator's row, so it keeps invalid rays
    monkeypatch.setattr(
        integral_closure,
        "_cut",
        lambda rays, g, bit, n: rays if bit == 1 << (n + 1) else cut(rays, g, bit, n),
    )
    failing = {c.name for c in closure_checks() if not c.passed}
    assert failing == {"newton-vs-facet-enumeration"}


def test_a_valuative_route_refuting_every_member_fails_the_witness_check(monkeypatch):
    'no unit curve and not the all-ones curve may refute a certified member'
    monkeypatch.setattr(
        integral_closure, "in_integral_closure_valuative", lambda ideal, m, w: False
    )
    failing = {c.name for c in closure_checks() if not c.passed}
    assert failing == {"witness-refutation-soundness"}


def test_a_valuative_route_refuting_nothing_fails_the_witness_check(monkeypatch):
    "a non-member's Farkas weight, taken as a curve, must refute it"
    monkeypatch.setattr(
        integral_closure, "in_integral_closure_valuative", lambda ideal, m, w: True
    )
    failing = {c.name for c in closure_checks() if not c.passed}
    assert failing == {"witness-refutation-soundness"}


def test_a_stale_pivot_label_fails_only_the_certificate_check(monkeypatch):
    'the leaving variable never written into its column: answers hold, proofs do not'
    source = inspect.getsource(integral_closure._simplex_feasible)
    swap = "basis[pivot_row], columns[s] = columns[s], basis[pivot_row]"
    assert source.count(swap) == 1
    namespace = dict(vars(integral_closure))
    exec(source.replace(swap, "basis[pivot_row] = columns[s]"), namespace)
    monkeypatch.setattr(
        integral_closure, "_simplex_feasible", namespace["_simplex_feasible"]
    )
    for seed in (0, 1, 2, 3, 42, "a"):
        failing = {c.name for c in closure_checks(seed=seed) if not c.passed}
        assert failing == {"witness-refutation-soundness"}, seed


def test_an_always_feasible_simplex_fails_the_degree_check(monkeypatch):
    'no degree pre-test answers for the simplex, so a member below the least degree is reported'
    monkeypatch.setattr(
        integral_closure, "_simplex_feasible", lambda points, bounds: (True, ())
    )
    failing = {c.name for c in closure_checks() if not c.passed}
    assert failing == {
        "member-degree-necessity",
        "newton-vs-facet-enumeration",
        "witness-refutation-soundness",
    }


def test_a_simplex_refusing_cross_terms_fails_the_square_family(monkeypatch):
    'is_reduction skips only generators sub contains; y_i * y_j still reaches the simplex'
    feasible = integral_closure._simplex_feasible
    monkeypatch.setattr(
        integral_closure,
        "_simplex_feasible",
        lambda points, bounds: (
            (False, ())
            if sum(bounds) == 2 and max(bounds) == 1
            else feasible(points, bounds)
        ),
    )
    checks = {check.name: check for check in closure_checks()}
    family = checks["square-ideal-reduction-family"]
    assert not family.passed
    assert family.detail == "failing p: [2, 3, 4, 5, 6]"


def test_run_verify_deterministic_for_fixed_seed():
    first = run_verify(scope="chow", seed="s1")
    second = run_verify(scope="chow", seed="s1")
    assert first.to_json_dict() == second.to_json_dict()


def test_run_verify_scope_selection():
    report = run_verify(scope="closure", pmax=2)
    assert report.results["suites"] == ["closure"]
    assert report.passed


def test_run_verify_validation():
    with pytest.raises(ValidationError):
        run_verify(scope="everything")
    with pytest.raises(ValidationError):
        run_verify(pmax=1)


def _unchecked_builds(monkeypatch) -> list:
    'wrap chow._system and integral_closure._ideal: (public class, args, value) per call'
    builds = []
    for module, name, public in (
        (chow, "_system", chow.BidegreeSystem),
        (integral_closure, "_ideal", integral_closure.MonomialIdeal),
    ):

        def wrapper(*args, unchecked=getattr(module, name), public=public):
            args = (*args[:-1], tuple(args[-1]))  # power_ideal passes a generator
            value = unchecked(*args)
            builds.append((public, args, value))
            return value

        monkeypatch.setattr(module, name, wrapper)
    return builds


def _assert_built_as_checked(builds) -> None:
    for public, args, value in builds:
        assert vars(value) == vars(public(*args)), f"{public.__name__}{args}"


@pytest.mark.parametrize("pmax", [4, 8])
@pytest.mark.parametrize("seed", [0, 42])
def test_verify_builds_unchecked_what_the_constructors_would(monkeypatch, pmax, seed):
    builds = _unchecked_builds(monkeypatch)
    run_verify("all", pmax, seed)
    kinds = {public for public, _, _ in builds}
    assert kinds == {chow.BidegreeSystem, integral_closure.MonomialIdeal}
    _assert_built_as_checked(builds)


def test_le_systems_build_unchecked_what_the_constructor_would(monkeypatch):
    builds = _unchecked_builds(monkeypatch)
    for p in range(2, 13):
        for i in range(1, p + 1):
            le_engine.build_le_system(p, i)
    assert len(builds) == sum(range(2, 13))
    _assert_built_as_checked(builds)


# Fail details of each seeded check, seed 0, under a one-sided mutation that
# fails some drawn cases and not others: the ids pin which cases are drawn.
@pytest.mark.parametrize(
    "check, suite, module, name, mutate, detail",
    [
        pytest.param(
            "ring-vs-subset-sum", chow_checks, chow, "intersection_number_ring",
            lambda f: lambda s: f(s) + (len(s.classes) % 3 == 0),
            "disagreeing case ids: [5, 11, 15, 21, 22, 24, 31, 35, 44, 47, 50, 52, "
            "65, 70, 71, 76, 89, 90, 93, 96, 103, 104, 105, 111, 112, 118, 120, "
            "121, 131, 132, 135, 139, 144, 146, 149, 156, 159, 163, 164, 165, 166, "
            "167, 170, 175, 178, 180, 184, 186, 189, 199]",
            id="ring-vs-subset-sum",
        ),
        pytest.param(
            "permutation-invariance", chow_checks, chow, "intersection_number_ring",
            lambda f: lambda s: f(s) + (s.classes[0][0] == 3),
            "disagreeing case ids: [0, 5, 7, 8, 9, 10, 11, 14, 18, 19, 27, 28, 31, "
            "33, 35, 39]",
            id="permutation-invariance",
        ),
        pytest.param(
            "multilinearity", chow_checks, chow, "intersection_number_ring",
            lambda f: lambda s: f(s) + (len(s.classes) % 3 == 0),
            "disagreeing case ids: [2, 4, 5, 9, 14, 18, 24, 33, 36, 40, 43, 44, 48, 49]",
            id="multilinearity",
        ),
        pytest.param(
            "forced-vanishing", chow_checks, chow, "intersection_number_ring",
            lambda f: lambda s: f(s) + (len(s.classes) % 3 == 0),
            "nonvanishing case ids: [2, 6, 10, 15, 17, 19, 34, 37, 39, 43, 47, 48]",
            id="forced-vanishing",
        ),
        pytest.param(
            "newton-vs-facet-enumeration", closure_checks, integral_closure,
            "in_integral_closure_facets",
            lambda f: lambda ideal, m: f(ideal, m) != (sum(m) % 4 == 0),
            "disagreeing case ids: [7, 12, 15, 16, 19, 20, 21, 26, 27, 31, 33, 50, "
            "61, 65, 69, 72, 73, 77, 79, 83, 88, 89, 91, 92, 94, 97]",
            id="newton-vs-facet-enumeration",
        ),
        pytest.param(
            "member-degree-necessity", closure_checks, integral_closure,
            "in_integral_closure_newton",
            lambda f: lambda ideal, m: sum(m) % 5 == 0 or f(ideal, m),
            "violating case ids: [6, 19, 26, 27, 31, 35, 40, 83, 92, 94]",
            id="member-degree-necessity",
        ),
        pytest.param(
            "witness-refutation-soundness", closure_checks, integral_closure,
            "in_integral_closure_valuative",
            lambda f: lambda ideal, m, w: f(ideal, m, w) != (sum(m) % 3 == 0),
            "uncertified case ids: [0, 1, 3, 4, 5, 8, 10, 11, 12, 15, 16, 21, 25, 26, "
            "29, 31, 32, 33, 40, 46, 47, 49]",
            id="witness-refutation-soundness",
        ),
        pytest.param(
            "membership-monotonicity", closure_checks, integral_closure,
            "in_integral_closure_newton",
            lambda f: lambda ideal, m: len(ideal.generators) % 3 != 0 and f(ideal, m),
            "violating case ids: [2, 3]",
            id="membership-monotonicity",
        ),
        pytest.param(
            "reduction-transitivity", closure_checks, integral_closure, "is_reduction",
            lambda f: lambda sub, full: len(full.generators) % 3 != 0 and f(sub, full),
            "failing (p, case): [(2, 0), (2, 1), (2, 2), (2, 3), (2, 4), (3, 0), "
            "(3, 1), (3, 2), (3, 3), (3, 4), (4, 3)]",
            id="reduction-transitivity",
        ),
    ],
)
def test_seeded_checks_keep_their_case_ids(
    monkeypatch, check, suite, module, name, mutate, detail
):
    'the same seed draws the same cases, so a mutation fails the same case ids'
    monkeypatch.setattr(module, name, mutate(getattr(module, name)))
    checks = {c.name: c for c in suite(seed=0)}
    assert not checks[check].passed
    assert checks[check].detail == detail
