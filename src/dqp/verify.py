"""Cross-route verification suites behind the `verify` command.

Every closed form in the package has an independent computational
route, and these suites drive the two against each other at a
configurable scale:

  core     closed-form Lê numbers and polar multiplicities vs the
           incidence systems of the intersection-theory engine, the
           closed-form Euler obstructions vs the Lê–Teissier alternating
           sum of those computed multiplicities, the alternating-sum
           identity against the reduced Euler characteristic, and the
           determinant's order at the origin from exact determinants on
           seeded lines;
  chow     truncated-ring products vs subset-sum intersection numbers
           on seeded random systems, plus the algebraic properties
           (permutation invariance, multilinearity, forced vanishing);
  closure  Newton-polyhedron membership vs facet-normal enumeration on
           seeded random monomial ideals, the square-ideal reduction
           family, monotonicity, and transitivity of reduction;
  ffcount  exhaustive finite-field counts vs the fibration prediction
           for every shape that fits the enumeration limit (one count
           per matrix size and prime, at the largest q1 that fits, so
           count_points' own prime^q1 factor is read), target and
           partition independence, and the counting polynomial at
           q1 = 1 interpolated from observed counts against the closed
           form and the reduced Euler characteristic.

witness-refutation-soundness reads the Newton simplex's certificate for
each seeded case and trusts neither the simplex nor the curve criterion:
the certificate must check in exact ints, no unit curve and not the
all-ones curve may refute a member, and a non-member's Farkas weight,
taken as a curve, must refute it.  Work that cannot change an outcome is
skipped: is_reduction, behind the square-ideal family and transitivity,
runs the simplex only for the generators of the larger ideal that the
smaller one does not already contain, since an ideal lies in its own
integral closure.

All randomness is derived from a per-case string seed.  `_cases` is the
one place that derives case c's random stream from (seed, tag, c), so a
fixed seed gives a bit-identical report; `_randint` draws exactly what
`Random.randint` draws and leaves the same generator state.  Check
details carry case counts and parameter ranges, never timings; timings
live on the report object for the table rendering only.
"""

from __future__ import annotations

import itertools
import random
import time

from . import chow, core, ffcount, integral_closure, le_engine
from .errors import CheckError, ValidationError, require_int, require_seed, shown
from .report import DEFAULT_PMAX, SCOPES, Check, Report

__all__ = [
    "SCOPES",
    "DEFAULT_PMAX",
    "SWEEP_LIMIT",
    "SWEEP_PRIMES",
    "core_checks",
    "chow_checks",
    "closure_checks",
    "ffcount_checks",
    "run_verify",
]

SWEEP_LIMIT = 10**7
SWEEP_PRIMES = (3, 5, 7, 11)


def core_checks(pmax: int = DEFAULT_PMAX) -> list[Check]:
    # Polar multiplicities m^(q-i) from the incidence systems, each evaluated
    # once; the Euler obstructions need p <= 8 whatever pmax is.  p = 1 has no
    # incidence system: the locus is the origin of C, stated table {0: 1}.
    polar_chow: dict[int, dict[int, int]] = {1: {0: 1}}
    for p in range(2, max(pmax, 8) + 1):
        q = p * (p + 1) // 2
        polar_chow[p] = {
            q - i: le_engine.underlying_multiplicity_via_chow(p, i)
            for i in range(1, p + 1)
        }

    mismatches: list[tuple[int, int, int, int]] = []
    cases = 0
    for p in range(2, pmax + 1):
        params = core.minimal_params(p)
        table = core.le_numbers(params)
        for i in range(1, p + 1):
            cases += 1
            # The Lê cycle carries multiplicity 2 (le_engine.le_number_via_chow).
            engine = 2 * polar_chow[p][params.q - i]
            closed = table[params.q - i]
            if engine != closed:
                mismatches.append((p, i, engine, closed))

    halving_bad: list[tuple[int, int]] = []
    for p in range(2, pmax + 1):
        closed = core.polar_multiplicities_sigma1(p)
        for d in range(p * (p + 1) // 2):
            if closed.get(d) != polar_chow[p].get(d, 0):
                halving_bad.append((p, d))

    massey_bad: list[tuple[int, int, int]] = []
    massey_cases = 0
    for p in range(1, pmax + 1):
        q_min = p * (p + 1) // 2
        for q in range(q_min, q_min + 3):
            for n in range(q + p, q + p + 3):
                massey_cases += 1
                if not core.verify_massey_identity(core.DqpParams(n=n, q=q, p=p)):
                    massey_bad.append((n, q, p))

    # Lê–Teissier: the Euler obstruction is the alternating sum of the polar
    # multiplicities, signed so the top dimension p(p+1)/2 - 1 counts +.
    eu = {
        p: sum((-1) ** (p * (p + 1) // 2 - 1 - d) * m for d, m in table.items())
        for p, table in polar_chow.items()
    }
    parity_bad = [p for p in range(1, 9) if core.euler_obstruction_sigma1(p) != eu[p]]

    hyper_bad: list[tuple[int, int, int]] = []
    hyper_cases = 0
    for p in range(2, pmax + 1):
        q = p * (p + 1) // 2
        for delta in (p, p + 1, p + 2):
            hyper_cases += 1
            params = core.DqpParams(n=q + delta, q=q, p=p)
            fixed_cycles = 1 + (-1) ** delta + (-1) ** (delta - 1) * eu[p]
            if core.euler_obstruction_hypersurface(params) != fixed_cycles:
                hyper_bad.append((params.n, q, p))

    det_bad = [p for p in range(1, pmax + 1) if le_engine.det_multiplicity(p) != p]
    return [
        Check.of(
            "le-closed-form-vs-chow",
            not mismatches,
            f"{cases} cases, 2 <= p <= {pmax}",
            f"mismatches (p, i, engine, closed): {mismatches}",
        ),
        Check.of(
            "polar-equals-half-le",
            not halving_bad,
            f"all dimensions, 2 <= p <= {pmax}",
            f"failing (p, dimension) pairs: {halving_bad}",
        ),
        Check.of(
            "massey-alternating-sum",
            not massey_bad,
            f"{massey_cases} parameter triples, p <= {pmax}",
            f"failing (n, q, p) triples: {massey_bad}",
        ),
        Check.of(
            "euler-obstruction-parity",
            not parity_bad,
            "p = 1..8",
            f"failing p: {parity_bad}",
        ),
        Check.of(
            "euler-obstruction-hypersurface",
            not hyper_bad,
            f"{hyper_cases} cases, 2 <= p <= {pmax}",
            f"failing (n, q, p): {hyper_bad}",
        ),
        Check.of(
            "det-multiplicity",
            not det_bad,
            f"p = 1..{pmax}",
            f"failing p: {det_bad}",
        ),
    ]


def _cases(seed: int | str, tag: str, count: int):
    """Case c = 0..count-1 of a seeded check: (c, its random stream).

    The key f"{seed}:{tag}:{c}" seeds the stream, so a fixed seed redraws
    every case of every check; no other code derives a stream.  The
    suites that call it refuse a seed through require_seed first.
    """
    for c in range(count):
        yield c, random.Random(f"{seed}:{tag}:{c}")


def _randint(rng: random.Random, lo: int, hi: int) -> int:
    """rng.randint(lo, hi) as CPython draws it, without its call chain.

    CPython's ``_randbelow_with_getrandbits``: draw bit_length(n) bits for
    n = hi - lo + 1 values, redrawn while the draw is n or more, so the
    result and the generator's state are exactly those of ``randint``.
    """
    n = hi - lo + 1
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return lo + r


def _random_system(rng: random.Random, max_total: int = 10) -> chow.BidegreeSystem:
    """Seeded classes with entries 0..3."""
    total = _randint(rng, 2, max_total)
    ambient_n = _randint(rng, 0, total)
    classes = []
    for _ in range(total):
        a = _randint(rng, 0, 3)
        b = _randint(rng, 0, 3)
        if a == 0 and b == 0:
            a = _randint(rng, 1, 3)
        classes.append((a, b))
    return chow.BidegreeSystem(
        ambient_n=ambient_n, ambient_m=total - ambient_n, classes=tuple(classes)
    )


def chow_checks(seed: int | str = 0) -> list[Check]:
    require_seed(seed)
    # Looked up per call, so a patched or traced route is the one checked.
    ring = chow.intersection_number_ring
    fulton = chow.intersection_number_fulton

    def disagrees(rng: random.Random) -> bool:
        system = _random_system(rng)
        return ring(system) != fulton(system)

    def reordering_moves(rng: random.Random) -> bool:
        system = _random_system(rng)
        shuffled = list(system.classes)
        rng.shuffle(shuffled)
        n, m = system.ambient_n, system.ambient_m
        return ring(system) != ring(chow.BidegreeSystem(n, m, tuple(shuffled)))

    def split_breaks(rng: random.Random) -> bool:
        system = _random_system(rng)
        a = _randint(rng, 1, 3)
        b = _randint(rng, 1, 3)
        n, m, rest = system.ambient_n, system.ambient_m, system.classes[1:]

        def number(first: tuple[int, int]) -> int:
            return ring(chow.BidegreeSystem(n, m, (first,) + rest))

        return number((a, 0)) + number((0, b)) != number((a, b))

    def survives(rng: random.Random) -> bool:
        total = _randint(rng, 3, 10)
        ambient_n = _randint(rng, 1, total - 1)
        ambient_m = total - ambient_n
        classes = [(0, _randint(rng, 1, 3)) for _ in range(ambient_m + 1)]
        for _ in range(total - ambient_m - 1):
            a = _randint(rng, 0, 3)
            b = _randint(rng, 0, 3)
            if a == 0 and b == 0:
                a = 1
            classes.append((a, b))
        system = chow.BidegreeSystem(ambient_n, ambient_m, tuple(classes))
        return ring(system) != 0 or fulton(system) != 0

    cases = 200
    quarter = cases // 4
    dual_bad = [c for c, rng in _cases(seed, "chow-dual", cases) if disagrees(rng)]
    perm_bad = [
        c for c, rng in _cases(seed, "chow-perm", quarter) if reordering_moves(rng)
    ]
    linear_bad = [
        c for c, rng in _cases(seed, "chow-linear", quarter) if split_breaks(rng)
    ]
    vanish_bad = [
        c for c, rng in _cases(seed, "chow-vanish", quarter) if survives(rng)
    ]
    return [
        Check.of(
            "ring-vs-subset-sum",
            not dual_bad,
            f"{cases} seeded systems, class count <= 10, entries <= 3",
            f"disagreeing case ids: {dual_bad}",
        ),
        Check.of(
            "permutation-invariance",
            not perm_bad,
            f"{quarter} seeded reorderings",
            f"disagreeing case ids: {perm_bad}",
        ),
        Check.of(
            "multilinearity",
            not linear_bad,
            f"{quarter} seeded split-and-sum cases",
            f"disagreeing case ids: {linear_bad}",
        ),
        Check.of(
            "forced-vanishing",
            not vanish_bad,
            f"{quarter} systems with more k-only classes than the k-budget",
            f"nonvanishing case ids: {vanish_bad}",
        ),
    ]


def _random_monomial(
    rng: random.Random, variable_count: int, max_expo: int
) -> tuple[int, ...]:
    return tuple(_randint(rng, 0, max_expo) for _ in range(variable_count))


def _random_ideal(rng: random.Random) -> integral_closure.MonomialIdeal:
    nvars = _randint(rng, 1, 4)
    count = _randint(rng, 1, 5)
    gens = tuple(_random_monomial(rng, nvars, 5) for _ in range(count))
    return integral_closure.MonomialIdeal(nvars, gens)


def _square_reduction_pair(
    p: int,
) -> tuple[integral_closure.MonomialIdeal, integral_closure.MonomialIdeal]:
    def diagonal(e: int) -> integral_closure.MonomialIdeal:
        units = (tuple(e * int(i == j) for j in range(p)) for i in range(p))
        return integral_closure.MonomialIdeal(p, tuple(units))

    return diagonal(2), integral_closure.power_ideal(diagonal(1), 2)


def _membership_case(
    rng: random.Random,
) -> tuple[integral_closure.MonomialIdeal, tuple[int, ...]]:
    """A seeded ideal and a monomial in its variables with exponents <= 7."""
    ideal = _random_ideal(rng)
    return ideal, _random_monomial(rng, ideal.variable_count, 7)


def closure_checks(seed: int | str = 0) -> list[Check]:
    require_seed(seed)
    # Looked up per call, so a patched or traced route is the one checked.
    newton = integral_closure.in_integral_closure_newton
    certify = integral_closure.newton_certificate
    valuative = integral_closure.in_integral_closure_valuative
    is_reduction = integral_closure.is_reduction
    cases = 100

    family_bad = [
        p for p in range(1, 7) if not is_reduction(*_square_reduction_pair(p))
    ]

    dual_bad: list[int] = []
    degree_bad: list[int] = []
    for c, rng in _cases(seed, "closure-dual", cases):
        ideal, m = _membership_case(rng)
        member = newton(ideal, m)
        if member != integral_closure.in_integral_closure_facets(ideal, m):
            dual_bad.append(c)
        if member and sum(m) < min(map(sum, ideal.generators)):
            degree_bad.append(c)

    def uncertified(rng: random.Random) -> bool:
        ideal, m = _membership_case(rng)
        member, certificate = certify(ideal, m)
        if not integral_closure.check_newton_certificate(ideal, m, member, certificate):
            return True
        if member:
            n = ideal.variable_count
            curves = [tuple(int(i == j) for j in range(n)) for i in range(n)]
            curves.append((1,) * n)
            return not valuative(ideal, m, curves)
        return valuative(ideal, m, [certificate])

    def shrinks(rng: random.Random) -> bool:
        ideal, m = _membership_case(rng)
        if not newton(ideal, m):
            return False
        extra = tuple(
            _random_monomial(rng, ideal.variable_count, 5)
            for _ in range(_randint(rng, 1, 3))
        )
        larger = integral_closure.MonomialIdeal(
            ideal.variable_count, ideal.generators + extra
        )
        return not newton(larger, m)

    half = cases // 2
    witness_bad = [
        c for c, rng in _cases(seed, "closure-wit", half) if uncertified(rng)
    ]
    mono_bad = [c for c, rng in _cases(seed, "closure-mono", half) if shrinks(rng)]

    trans_bad: list[tuple[int, int]] = []
    for p in range(2, 5):
        squares, squared = _square_reduction_pair(p)
        whole = is_reduction(squares, squared)
        for c, rng in _cases(seed, f"closure-trans:{p}", 5):
            picked = tuple(g for g in squared.generators if rng.random() < 0.5)
            middle = integral_closure.MonomialIdeal(p, squares.generators + picked)
            legs = is_reduction(squares, middle) and is_reduction(middle, squared)
            if not (legs and whole):
                trans_bad.append((p, c))

    return [
        Check.of(
            "square-ideal-reduction-family",
            not family_bad,
            "p = 1..6",
            f"failing p: {family_bad}",
        ),
        Check.of(
            "newton-vs-facet-enumeration",
            not dual_bad,
            f"{cases} seeded ideals in <= 4 variables",
            f"disagreeing case ids: {dual_bad}",
        ),
        Check.of(
            "member-degree-necessity",
            not degree_bad,
            f"{cases} seeded membership cases",
            f"violating case ids: {degree_bad}",
        ),
        Check.of(
            "witness-refutation-soundness",
            not witness_bad,
            f"{half} seeded Newton certificates, checked in exact ints and by curves",
            f"uncertified case ids: {witness_bad}",
        ),
        Check.of(
            "membership-monotonicity",
            not mono_bad,
            f"{half} seeded enlargements",
            f"violating case ids: {mono_bad}",
        ),
        Check.of(
            "reduction-transitivity",
            not trans_bad,
            "15 seeded chains through intermediate ideals, p = 2..4",
            f"failing (p, case): {trans_bad}",
        ),
    ]


def _sweep_shapes():
    """Every (spec, prime) with prime ** n <= SWEEP_LIMIT, at the largest q1 that fits."""
    for p in itertools.count(1):
        base = ffcount.NormalFormSpec(p=p, q1=0)
        if min(prime**base.n for prime in SWEEP_PRIMES) > SWEEP_LIMIT:
            return
        for prime in SWEEP_PRIMES:
            q1 = 0
            while prime ** (base.n + q1) <= SWEEP_LIMIT:
                q1 += 1
            if q1:
                yield ffcount.NormalFormSpec(p=p, q1=q1 - 1), prime


def ffcount_checks() -> list[Check]:
    sweep_bad: list[tuple[int, int, int]] = []
    sweep_cases = 0
    for top, prime in _sweep_shapes():
        # count_points scales by prime^q1 for the unread coordinates, a flat
        # factor: one count at the largest q1 serves every row and tests it.
        observed = ffcount.count_points(top, prime).observed_count
        for q1 in range(top.q1 + 1):
            sweep_cases += 1
            spec = ffcount.NormalFormSpec(p=top.p, q1=q1)
            if ffcount.predicted_count(spec, prime) * prime ** (top.q1 - q1) != observed:
                sweep_bad.append((spec.p, q1, prime))

    target_bad: list[tuple[int, int, int]] = []
    target_cases = 0
    for p, q1 in ((1, 0), (1, 1), (2, 0)):
        spec = ffcount.NormalFormSpec(p=p, q1=q1)
        for prime in (3, 5, 7):
            reference = ffcount.count_points(spec, prime, target=1).observed_count
            for target in range(2, prime):
                target_cases += 1
                observed = ffcount.count_points(
                    spec, prime, target=target
                ).observed_count
                if observed != reference:
                    target_bad.append((p, q1, prime))
                    break

    poly_bad: list[tuple[int, int]] = []
    for p in (1, 2):
        try:
            coeffs = ffcount.counting_polynomial(ffcount.NormalFormSpec(p=p, q1=1))
        except CheckError:
            poly_bad.extend([(p, 0), (p, 1)])
            continue
        for q1 in (0, 1):
            # Each unread coordinate is a factor t: the polynomial at q1 = 1
            # serves every row and tests counting_polynomial's own t^q1.
            spec = ffcount.NormalFormSpec(p=p, q1=q1)
            closed = [0] * spec.n
            closed[spec.n - 1] = 1
            closed[spec.n - p - 1] -= 1
            euler_ok = (
                coeffs == (0,) * (1 - q1) + tuple(closed)
                and ffcount.evaluate_polynomial(coeffs, 1) == 0
                and core.reduced_euler_characteristic(spec.params) == -1
            )
            if not euler_ok:
                poly_bad.append((p, q1))

    spec = ffcount.NormalFormSpec(p=2, q1=0)
    prime = 5
    whole = ffcount.count_nonzero_y_slice(spec, prime, 1, 0, prime**spec.p)
    partition_bad: list[int] = []
    for chunks in (1, 2, 8):
        edges = [
            round(j * prime**spec.p / chunks) for j in range(chunks + 1)
        ]
        parts = sum(
            ffcount.count_nonzero_y_slice(spec, prime, 1, lo, hi)
            for lo, hi in zip(edges, edges[1:])
        )
        if parts != whole:
            partition_bad.append(chunks)

    return [
        Check.of(
            "observed-equals-predicted",
            not sweep_bad,
            f"{sweep_cases} shape/prime pairs with prime^n <= {SWEEP_LIMIT}",
            f"disagreeing (p, q1, prime): {sweep_bad}",
        ),
        Check.of(
            "target-independence",
            not target_bad,
            f"{target_cases} nonzero targets across three shapes, primes 3..7",
            f"dependent (p, q1, prime): {target_bad}",
        ),
        Check.of(
            "counting-polynomial-euler",
            not poly_bad,
            "interpolation matches the closed form and N(1) = 0 = 1 + reduced "
            "Euler characteristic for p <= 2, q1 <= 1",
            f"failing (p, q1): {poly_bad}",
        ),
        Check.of(
            "partition-independence",
            not partition_bad,
            "slice sums identical for 1, 2, 8 chunks (p=2 over F_5)",
            f"diverging chunk counts: {partition_bad}",
        ),
    ]


def run_verify(
    scope: str = "all", pmax: int = DEFAULT_PMAX, seed: int | str = 0
) -> Report:
    """Run the selected suites and fold their checks into one report."""
    if scope not in SCOPES:
        raise ValidationError(
            f"scope must be one of {', '.join(SCOPES)} (got {shown(scope)})"
        )
    require_int("pmax", pmax, 2, 8)
    require_seed(seed)
    suites = (
        ("core", lambda: core_checks(pmax)),
        ("chow", lambda: chow_checks(seed)),
        ("closure", lambda: closure_checks(seed)),
        ("ffcount", ffcount_checks),
    )
    checks: list[Check] = []
    elapsed: dict[str, float] = {}
    ran: list[str] = []
    for name, runner in suites:
        if scope not in ("all", name):
            continue
        started = time.perf_counter()
        checks.extend(runner())
        elapsed[name] = time.perf_counter() - started
        ran.append(name)
    passed = sum(1 for c in checks if c.passed)
    return Report(
        command="verify",
        inputs={
            "scope": scope,
            "pmax": pmax,
            "seed": str(seed),
            "sweep_limit": SWEEP_LIMIT,
        },
        results={
            "suites": ran,
            "checks_run": len(checks),
            "checks_passed": passed,
        },
        checks=checks,
        elapsed=elapsed,
    )
