import random
from itertools import combinations
from math import comb, prod

import pytest

from dqp import chow
from dqp.chow import (
    FULTON_SUBSET_LIMIT,
    BidegreeSystem,
    intersection_number_fulton,
    intersection_number_ring,
)
from dqp.errors import BudgetError, ValidationError
from dqp.verify import _random_system


def system(n, m, pairs):
    return BidegreeSystem(ambient_n=n, ambient_m=m, classes=tuple(pairs))


def test_bidegree_validation():
    with pytest.raises(ValidationError):
        system(1, 1, [(1, 1), (0, 0)])
    with pytest.raises(ValidationError):
        system(1, 1, [(-1, 2), (1, 1)])
    with pytest.raises(ValidationError):
        system(1, 1, [(1, 1), (1, 1.5)])
    assert system(0, 1, [(0, 2)]).classes[0][0] == 0


@pytest.mark.parametrize(
    "cls",
    [5, "11", (1,), (1, 2, 3), [1, 1], None],
    ids=["int", "str", "short", "long", "list", "none"],
)
def test_system_refuses_a_class_that_is_not_a_pair(cls):
    with pytest.raises(ValidationError, match=r"\(a, b\) pair"):
        system(1, 1, [(1, 1), cls])


def test_system_stores_its_classes_as_a_tuple():
    s = system(1, 1, [(1, 1), (0, 2)])
    assert BidegreeSystem(1, 1, [(1, 1), (0, 2)]) == s
    assert s.classes == ((1, 1), (0, 2))
    assert BidegreeSystem(1, 1, iter([(1, 1), (0, 2)])) == s


def test_system_requires_matching_class_count():
    with pytest.raises(ValidationError, match="classes"):
        system(2, 1, [(1, 1), (1, 1)])


def test_truncated_poly_arithmetic():
    # the empty product on a point is the unit
    assert intersection_number_ring(system(0, 0, [])) == 1
    # (h + k)^2 = 2hk once h^2 and k^2 are truncated away
    assert intersection_number_ring(system(1, 1, [(1, 1), (1, 1)])) == 2
    # truncation: h^2 vanishes when ambient_n = 1
    assert intersection_number_ring(system(1, 1, [(1, 0), (1, 0)])) == 0
    assert intersection_number_ring(system(1, 1, [(1, 0), (3, 2)])) == 2


def test_ring_known_values():
    assert intersection_number_ring(system(1, 1, [(1, 1), (1, 1)])) == 2
    assert intersection_number_ring(system(2, 1, [(1, 1), (1, 1), (0, 2)])) == 2
    assert intersection_number_ring(system(2, 1, [(1, 1), (1, 1), (1, 0)])) == 2


def test_fulton_known_values():
    assert intersection_number_fulton(system(1, 1, [(1, 1), (1, 1)])) == 2
    assert intersection_number_fulton(system(2, 1, [(1, 1), (1, 1), (0, 2)])) == 2


def test_projective_space_degrees():
    'd hypersurfaces of degree d_i in P^d meet in prod d_i points'
    assert intersection_number_ring(system(3, 0, [(2, 0), (3, 0), (5, 0)])) == 30
    assert intersection_number_fulton(system(0, 3, [(0, 2), (0, 3), (0, 5)])) == 30


def test_ring_equals_fulton_seeded():
    for case in range(200):
        rng = random.Random(f"test:chow:{case}")
        s = _random_system(rng, max_total=12)
        assert intersection_number_ring(s) == intersection_number_fulton(s)


def test_permutation_invariance():
    for case in range(40):
        rng = random.Random(f"test:chow-perm:{case}")
        s = _random_system(rng, max_total=12)
        shuffled = list(s.classes)
        rng.shuffle(shuffled)
        s2 = BidegreeSystem(s.ambient_n, s.ambient_m, tuple(shuffled))
        assert intersection_number_ring(s) == intersection_number_ring(s2)
        assert intersection_number_fulton(s) == intersection_number_fulton(s2)


def test_multilinearity():
    for case in range(40):
        rng = random.Random(f"test:chow-linear:{case}")
        s = _random_system(rng, max_total=12)
        a, b = rng.randint(1, 3), rng.randint(1, 3)
        rest = s.classes[1:]
        whole = BidegreeSystem(s.ambient_n, s.ambient_m, ((a, b),) + rest)
        h_only = BidegreeSystem(s.ambient_n, s.ambient_m, ((a, 0),) + rest)
        k_only = BidegreeSystem(s.ambient_n, s.ambient_m, ((0, b),) + rest)
        assert intersection_number_ring(whole) == intersection_number_ring(
            h_only
        ) + intersection_number_ring(k_only)


def test_degenerate_vanishing():
    'more classes with a=0 than k-slots forces the number to zero'
    s = system(2, 1, [(0, 1), (0, 2), (1, 1)])
    assert intersection_number_ring(s) == 0
    assert intersection_number_fulton(s) == 0
    s = system(1, 2, [(1, 0), (2, 0), (1, 1)])
    assert intersection_number_ring(s) == 0
    assert intersection_number_fulton(s) == 0


def test_ring_cell_budget(monkeypatch):
    'refused from (n+1)*(n+m) before the product; the limit itself is admitted'
    monkeypatch.setattr(chow, "RING_CELL_LIMIT", 12)
    assert intersection_number_ring(system(2, 2, [(1, 1)] * 4)) == comb(4, 2)
    with pytest.raises(BudgetError) as info:
        intersection_number_ring(system(2, 3, [(1, 1)] * 5))
    assert info.value.required == 15


def test_fulton_budget_refusal():
    total = FULTON_SUBSET_LIMIT + 1
    s = system(13, total - 13, [(1, 1)] * total)
    with pytest.raises(BudgetError) as info:
        intersection_number_fulton(s)
    assert info.value.required == comb(total, 13)
    # the ring algorithm still handles it
    assert intersection_number_ring(s) == comb(total, 13)


def _subset_sum_oracle(s):
    a = [a for a, _ in s.classes]
    b = [b for _, b in s.classes]
    return sum(
        prod(a[i] for i in chosen)
        * prod(b[j] for j in range(len(a)) if j not in chosen)
        for chosen in map(set, combinations(range(len(a)), s.ambient_n))
    )


def test_fulton_matches_the_combinations_oracle():
    'the depth-first walk against a plain sum over itertools.combinations'
    rng = random.Random("test:fulton-oracle")
    shapes = {"n=0": 0, "m=0": 0, "zero entry": 0, "forced vanishing": 0}
    for case in range(1500):
        total = rng.randint(0, 11)
        n = rng.randint(0, total)
        pairs = []
        for _ in range(total):
            a, b = rng.randint(0, 4), rng.randint(0, 4)
            pairs.append((a, b) if a or b else (0, 1))
        forced = case % 5 == 0 and n >= 1
        if forced:
            # m + 1 k-only classes, more than the k-budget m: the number is 0
            pairs[: total - n + 1] = [(0, rng.randint(1, 4))] * (total - n + 1)
            shapes["forced vanishing"] += 1
        s = system(n, total - n, pairs)
        expected = _subset_sum_oracle(s)
        assert intersection_number_fulton(s) == expected, (n, pairs)
        assert expected == 0 or not forced
        shapes["n=0"] += n == 0
        shapes["m=0"] += n == total
        shapes["zero entry"] += any(0 in pair for pair in pairs)
    assert min(shapes.values()) > 50, shapes
    assert intersection_number_fulton(system(0, 0, [])) == 1


def test_fulton_refuses_25_classes_for_every_n():
    for n in range(26):
        with pytest.raises(BudgetError) as info:
            intersection_number_fulton(system(n, 25 - n, [(1, 1)] * 25))
        assert info.value.required == comb(25, n)
