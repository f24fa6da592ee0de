"""verify._randint draws what Random.randint draws and leaves the same state.

The replica follows CPython's draw algorithm, so this file also runs as a
plain script, for interpreters that have no pytest:

    PYTHONPATH=src python3 tests/test_randint_replica.py
"""

import platform
import random

from dqp import chow
from dqp.verify import _randint, _random_system

# Every (lo, hi) that verify.py draws: _random_system at the suite's and the
# chow tests' max_total, chow-linear, chow-vanish and the closure suite.
DRAWN_RANGES = sorted(
    {(2, 10), (2, 12), (0, 3), (1, 3), (3, 10), (1, 4), (1, 5), (0, 5), (0, 7)}
    | {(0, total) for total in range(2, 13)}
    | {(1, total - 1) for total in range(3, 11)}
)

SEEDS = [f"{s}:replica:{c}" for s in range(10) for c in range(100)]


def randint_system(rng, max_total=10):
    'the seeded system as drawn by Random.randint'
    total = rng.randint(2, max_total)
    ambient_n = rng.randint(0, total)
    pairs = []
    for _ in range(total):
        a, b = rng.randint(0, 3), rng.randint(0, 3)
        pairs.append((rng.randint(1, 3) if a == b == 0 else a, b))
    return ambient_n, total - ambient_n, pairs


def test_replica_draws_what_randint_draws():
    for seed in SEEDS:
        ours, theirs = random.Random(seed), random.Random(seed)
        for lo, hi in DRAWN_RANGES:
            for _ in range(3):
                assert _randint(ours, lo, hi) == theirs.randint(lo, hi), (seed, lo, hi)
            assert ours.getstate() == theirs.getstate(), (seed, lo, hi)


def test_random_system_draws_the_randint_system():
    for seed in SEEDS:
        for max_total in (10, 12):
            ours, theirs = random.Random(seed), random.Random(seed)
            s = _random_system(ours, max_total)
            drawn = (s.ambient_n, s.ambient_m, list(s.classes))
            assert drawn == randint_system(theirs, max_total), seed
            assert ours.getstate() == theirs.getstate(), seed


def test_first_chow_system_of_seed_0_pinned():
    s = _random_system(random.Random("0:chow-dual:0"))
    assert s == chow.BidegreeSystem(0, 4, ((1, 0), (3, 2), (2, 2), (1, 2)))


if __name__ == "__main__":
    test_replica_draws_what_randint_draws()
    test_random_system_draws_the_randint_system()
    test_first_chow_system_of_seed_0_pinned()
    print(
        f"Python {platform.python_version()}: {len(DRAWN_RANGES)} ranges and the "
        f"seeded system match Random.randint over {len(SEEDS)} seeds"
    )
