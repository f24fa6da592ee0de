"""Property tests of the CLI parsers and two algebraic identities (hypothesis)."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from dqp.chow import Bidegree, BidegreeSystem, intersection_number_ring  # noqa: E402
from dqp.cli import _monomial_string, _parse_classes, _parse_monomial_text  # noqa: E402
from dqp.integral_closure import (  # noqa: E402
    FACET_RAY_LIMIT,
    Monomial,
    MonomialIdeal,
    facet_ray_bound,
    in_integral_closure_facets,
    in_integral_closure_newton,
)

SMALL = settings(max_examples=40, deadline=None)

exponent_vectors = st.integers(1, 4).flatmap(
    lambda n: st.lists(st.integers(0, 6), min_size=n, max_size=n)
)
bidegrees = st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(lambda c: any(c))


@SMALL
@given(exponent_vectors.filter(any), st.sampled_from("xy"))
def test_monomial_text_round_trip(exponents, prefix):
    text = _monomial_string(Monomial(tuple(exponents)), prefix)
    seen: set[str] = set()
    parsed = _parse_monomial_text(text, seen)
    assert parsed == {i: e for i, e in enumerate(exponents) if e}
    assert seen == {prefix}


@SMALL
@given(st.lists(bidegrees, min_size=1, max_size=8))
def test_classes_text_round_trip(classes):
    text = ";".join(f"{a},{b}" for a, b in classes)
    assert _parse_classes(text) == tuple(Bidegree(a, b) for a, b in classes)


@SMALL
@given(
    st.integers(1, 3).flatmap(
        lambda n: st.tuples(
            st.lists(st.lists(st.integers(0, 5), min_size=n, max_size=n), min_size=1, max_size=4),
            st.lists(st.lists(st.integers(0, 5), min_size=n, max_size=n), min_size=1, max_size=3),
            st.lists(st.integers(0, 7), min_size=n, max_size=n),
        )
    )
)
def test_closure_membership_monotone_in_generators(case):
    gens, extra, exponents = case
    n = len(exponents)
    m = Monomial(tuple(exponents))
    small = MonomialIdeal(n, tuple(Monomial(tuple(g)) for g in gens))
    large = MonomialIdeal(n, tuple(Monomial(tuple(g)) for g in gens + extra))
    if in_integral_closure_newton(small, m):
        assert in_integral_closure_newton(large, m)


@SMALL
@given(
    st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(any),
    bidegrees,
    bidegrees,
    st.lists(bidegrees, min_size=5, max_size=5),
)
def test_chow_linear_in_first_class(ambient, first, second, rest):
    n, m = ambient

    def number(a, b):
        classes = (Bidegree(a, b),) + tuple(Bidegree(*c) for c in rest[: n + m - 1])
        return intersection_number_ring(BidegreeSystem(n, m, classes))

    summed = number(first[0] + second[0], first[1] + second[1])
    assert summed == number(*first) + number(*second)


@SMALL
@given(
    st.integers(1, 8).flatmap(
        lambda n: st.tuples(
            st.lists(st.lists(st.integers(0, 5), min_size=n, max_size=n), min_size=1, max_size=8),
            st.lists(st.integers(0, 7), min_size=n, max_size=n),
        )
    )
)
def test_closure_facet_route_agrees_with_newton(case):
    gens, exponents = case
    n = len(exponents)
    ideal = MonomialIdeal(n, tuple(Monomial(tuple(g)) for g in gens))
    assert facet_ray_bound(n, len(ideal.generators)) <= FACET_RAY_LIMIT
    m = Monomial(tuple(exponents))
    assert in_integral_closure_facets(ideal, m) == in_integral_closure_newton(ideal, m)
