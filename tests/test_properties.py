"""Property tests of the CLI parsers, ideal minimalization and algebraic identities (hypothesis)."""

from operator import add, le

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from dqp import integral_closure  # noqa: E402
from dqp.chow import BidegreeSystem, intersection_number_ring  # noqa: E402
from dqp.cli import (  # noqa: E402
    _monomial_string,
    _parse_classes,
    _parse_monomial_text,
    build_parser,
)
from dqp.integral_closure import (  # noqa: E402
    FACET_RAY_LIMIT,
    MonomialIdeal,
    facet_ray_bound,
    in_integral_closure_facets,
    in_integral_closure_newton,
    in_integral_closure_valuative,
    is_reduction,
)

SMALL = settings(max_examples=40, deadline=None)

exponent_vectors = st.integers(1, 4).flatmap(
    lambda n: st.lists(st.integers(0, 6), min_size=n, max_size=n)
)
bidegrees = st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(lambda c: any(c))


@SMALL
@given(exponent_vectors.filter(any), st.sampled_from("xy"))
def test_monomial_text_round_trip(exponents, prefix):
    text = _monomial_string(enumerate(exponents), prefix)
    seen: set[str] = set()
    parsed = _parse_monomial_text(text, seen)
    assert parsed == {i: e for i, e in enumerate(exponents) if e}
    assert seen == {prefix}


@SMALL
@given(st.lists(bidegrees, min_size=1, max_size=8))
def test_classes_text_round_trip(classes):
    text = ";".join(f"{a},{b}" for a, b in classes)
    assert _parse_classes(text) == tuple(classes)


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
    m = tuple(exponents)
    small = MonomialIdeal(n, tuple(map(tuple, gens)))
    large = MonomialIdeal(n, tuple(map(tuple, gens + extra)))
    if in_integral_closure_newton(small, m):
        assert in_integral_closure_newton(large, m)


@SMALL
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(
            st.lists(st.lists(st.integers(0, 5), min_size=n, max_size=n), min_size=1, max_size=4),
            st.lists(st.integers(0, 7), min_size=n, max_size=n),
            st.lists(st.integers(0, 5), min_size=n, max_size=n).filter(any),
        )
    ),
    st.integers(1, 10**6),
)
def test_closure_valuative_answer_ignores_witness_scaling(case, k):
    'scaling the weights of a curve by k scales every order by k, so no comparison changes'
    gens, exponents, weights = case
    ideal = MonomialIdeal(len(exponents), tuple(map(tuple, gens)))
    m = tuple(exponents)
    scaled = tuple(k * v for v in weights)
    assert in_integral_closure_valuative(ideal, m, [scaled]) == (
        in_integral_closure_valuative(ideal, m, [tuple(weights)])
    )


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
        classes = ((a, b),) + tuple(rest[: n + m - 1])
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
    ideal = MonomialIdeal(n, tuple(map(tuple, gens)))
    assert facet_ray_bound(n, len(ideal.generators)) <= FACET_RAY_LIMIT
    m = tuple(exponents)
    assert in_integral_closure_facets(ideal, m) == in_integral_closure_newton(ideal, m)


# A closure request in at most 8 variable indices: sparse generators of the
# ideal and of --full, and a candidate, each {index from 0: exponent}.  An
# exponent may be 0, so a generator can name a variable it does not use.
sparse_monomials = st.dictionaries(st.integers(0, 7), st.integers(0, 4), min_size=1, max_size=4)
closure_requests = st.tuples(
    st.lists(sparse_monomials, min_size=1, max_size=4),
    st.lists(sparse_monomials, min_size=1, max_size=4),
    sparse_monomials,
)


def _text(monomials, index=lambda i: i):
    return ",".join(
        "*".join(f"y{index(i) + 1}^{e}" for i, e in sorted(m.items())) for m in monomials
    )


def _closure(ideal, monomial=None, full=None, index=lambda i: i):
    'member and reduction as `dqp closure` reports them, in process'
    argv = ["closure", "--ideal", _text(ideal, index)]
    if full is None:
        argv += ["--monomial", _text([monomial], index)]
    else:
        argv += ["--mode", "reduction", "--full", _text(full, index)]
    args = build_parser().parse_args(argv)
    results = args.handler(args).results
    return results["member"] if full is None else results["reduction"]


def _dense(monomials, n):
    return tuple(tuple(m.get(i, 0) for i in range(n)) for m in monomials)


@SMALL
@given(closure_requests, st.lists(st.integers(0, 3 * 10**9), min_size=8, max_size=8, unique=True))
def test_closure_answers_survive_an_injective_respread_of_indices(request_, targets):
    ideal, full, monomial = request_
    spread = targets.__getitem__
    assert _closure(ideal, monomial, index=spread) == _closure(ideal, monomial)
    assert _closure(ideal, full=full, index=spread) == _closure(ideal, full=full)


@SMALL
@given(closure_requests, st.integers(1, 6))
def test_closure_a_variable_no_generator_uses_keeps_a_member(request_, exponent):
    ideal, _, monomial = request_
    unused = 1 + max(i for m in ideal for i in m)
    if _closure(ideal, monomial):
        assert _closure(ideal, {**monomial, unused: exponent})


@SMALL
@given(closure_requests)
# y1 is not in (y1*y2), so (y1) is no reduction of it; read on y1's support
# alone, (y1*y2) would become (y1) and the answer True.
@example(([{0: 1}], [{0: 1, 1: 1}], {0: 1}))
def test_closure_cli_answers_equal_dense_library_calls(request_):
    ideal, full, monomial = request_
    n = 1 + max(i for m in ideal + full + [monomial] for i in m)
    dense = MonomialIdeal(n, _dense(ideal, n))
    (m,) = _dense([monomial], n)
    assert _closure(ideal, monomial) == in_integral_closure_newton(dense, m)
    reduction = is_reduction(dense, MonomialIdeal(n, _dense(full, n)))
    assert _closure(ideal, full=full) == reduction


sparse_exponents = st.one_of(st.just(0), st.integers(1, 4))


@SMALL
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(
            st.lists(st.tuples(*[sparse_exponents] * n), min_size=1, max_size=5),
            st.lists(st.tuples(*[sparse_exponents] * n), min_size=1, max_size=3),
        )
    )
)
@example(([(2, 0, 0), (0, 0, 2)], [(1, 0, 1)]))
@example(([(2, 0, 0), (0, 0, 2)], [(0, 1, 1)]))
def test_reduction_agrees_with_the_facet_route(case):
    'sub inside full: a reduction iff each generator of full is in sub or passes the facets'
    gens, extra = case
    n = len(gens[0])
    sub = MonomialIdeal(n, tuple(gens))
    full = MonomialIdeal(n, sub.generators + tuple(extra))
    expected = all(
        sub.contains_monomial(g) or in_integral_closure_facets(sub, g) for g in full.generators
    )
    assert is_reduction(sub, full) == expected


def _divides(g, m):
    return all(map(le, g, m))


@SMALL
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(
            st.lists(st.tuples(*[st.integers(0, 4)] * n), min_size=1, max_size=6),
            st.lists(st.tuples(*[st.integers(0, 2)] * n), max_size=4),
            st.tuples(*[st.integers(0, 5)] * n),
        )
    ),
    st.randoms(use_true_random=False),
)
def test_ideal_minimalization_is_a_canonical_antichain(case, rng):
    'duplicates, multiples and order of the generators never change the ideal'
    gens, shifts, candidate = case
    n = len(candidate)
    ideal = MonomialIdeal(n, tuple(gens))
    multiples = [tuple(map(add, rng.choice(gens), s)) for s in shifts]
    noisy = gens + rng.choices(gens, k=rng.randint(0, 3)) + multiples
    rng.shuffle(noisy)
    assert MonomialIdeal(n, tuple(noisy)) == ideal
    kept = ideal.generators
    assert set(kept) <= set(gens)
    assert not any(a != b and _divides(a, b) for a in kept for b in kept)
    assert all(ideal.contains_monomial(g) for g in noisy)
    assert ideal.contains_monomial(candidate) == any(_divides(g, candidate) for g in gens)


@SMALL
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(
            st.lists(st.tuples(*[st.integers(0, 4)] * n), min_size=1, max_size=6),
            st.tuples(*[st.integers(0, 5)] * n),
        )
    )
)
def test_unchecked_ideal_and_divisibility_match_the_checked_path(case):
    'the unchecked constructor minimalizes and orders as the public one, from one pass'
    gens, m = case
    n = len(m)
    ideal = MonomialIdeal(n, tuple(gens))
    assert integral_closure._ideal(n, iter(gens)) == ideal
    assert integral_closure._divides(ideal.generators, m) == ideal.contains_monomial(m)
