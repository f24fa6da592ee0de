import itertools
import time
from math import comb

import pytest

from dqp import chow, cli

from dqp.core import (
    FIXED_LE_CYCLES,
    LE_TABLE_LIMIT,
    DqpParams,
    euler_obstruction_hypersurface,
    euler_obstruction_sigma1,
    le_numbers,
    milnor_sphere_dimension,
    minimal_params,
    polar_multiplicities_sigma1,
    reduced_euler_characteristic,
    validate_params,
    verify_massey_identity,
)
from dqp.chow import BidegreeSystem, intersection_number_fulton, intersection_number_ring
from dqp.errors import BudgetError, ValidationError, require_int, shown
from dqp.ffcount import (
    DEFAULT_BUDGET,
    NormalFormSpec,
    count_nonzero_y_slice,
    count_points,
    counting_polynomial,
    predicted_count,
)
from dqp.integral_closure import (
    FACET_RAY_LIMIT,
    NEWTON_CELL_LIMIT,
    POWER_SUM_LIMIT,
    MonomialIdeal,
    default_witnesses,
    facet_ray_bound,
    in_integral_closure_valuative,
    newton_facet_normals,
    power_ideal,
    require_newton_tableau,
)
from dqp.le_engine import DET_P_LIMIT, build_le_system, det_multiplicity
from dqp.verify import chow_checks, closure_checks, run_verify


def test_params_validation_messages():
    with pytest.raises(ValidationError, match="p must satisfy p >= 1"):
        DqpParams(n=2, q=1, p=0)
    with pytest.raises(ValidationError, match=r"q must satisfy q >= p\(p\+1\)/2"):
        DqpParams(n=6, q=2, p=2)
    with pytest.raises(ValidationError, match="n must satisfy n >= q \\+ p"):
        DqpParams(n=4, q=3, p=2)
    with pytest.raises(ValidationError):
        DqpParams(n=2.0, q=1, p=1)


def test_params_derived_fields():
    params = DqpParams(n=7, q=4, p=2)
    assert params.k == 1
    assert params.q1 == 1
    assert validate_params(7, 4, 2) == params


def test_minimal_params():
    for p in range(1, 7):
        params = minimal_params(p)
        assert params.q == p * (p + 1) // 2
        assert params.n == params.q + p
        assert params.k == 0
        assert params.q1 == 0


def test_sphere_dimension_and_reduced_euler():
    'Milnor fiber is a (p+n-q-1)-sphere; reduced chi is its parity sign'
    assert milnor_sphere_dimension(DqpParams(5, 3, 2)) == 3
    assert reduced_euler_characteristic(DqpParams(5, 3, 2)) == -1
    assert milnor_sphere_dimension(DqpParams(2, 1, 1)) == 1
    assert reduced_euler_characteristic(DqpParams(2, 1, 1)) == -1
    assert milnor_sphere_dimension(DqpParams(6, 3, 2)) == 4
    assert reduced_euler_characteristic(DqpParams(6, 3, 2)) == 1


def test_le_table_5_3_2():
    table = le_numbers(DqpParams(5, 3, 2))
    assert table == {3: 1, 2: 4, 1: 4, 0: 0}


def test_le_table_9_6_3():
    table = le_numbers(DqpParams(9, 6, 3))
    assert table == {6: 1, 5: 6, 4: 12, 3: 8, 2: 0, 1: 0, 0: 0}


def test_le_table_whitney_umbrella():
    table = le_numbers(DqpParams(2, 1, 1))
    assert table == {1: 1, 0: 2}


def test_le_closed_form_sweep():
    for p in range(1, 7):
        for q1 in range(3):
            q = p * (p + 1) // 2 + q1
            table = le_numbers(DqpParams(q + p, q, p))
            for i in range(p + 1):
                assert table[q - i] == 2**i * comb(p, p - i)
            for d in range(q - p):
                assert table[d] == 0


def test_le_table_budget():
    q = LE_TABLE_LIMIT - 1
    assert len(le_numbers(DqpParams(q + 2, q, 2))) == LE_TABLE_LIMIT
    with pytest.raises(BudgetError) as info:
        le_numbers(DqpParams(q + 3, q + 1, 2))
    assert info.value.required == LE_TABLE_LIMIT + 1


def test_fixed_cycles():
    q = DqpParams(5, 3, 2).q
    cycles = [(name, q - codim, mult) for name, codim, mult in FIXED_LE_CYCLES]
    assert cycles == [("singular locus", 3, 1), ("determinantal locus", 2, 2)]


def test_polar_table_p2():
    assert polar_multiplicities_sigma1(2) == {2: 2, 1: 2, 0: 0}


def test_polar_table_p3():
    assert polar_multiplicities_sigma1(3) == {
        5: 3,
        4: 6,
        3: 4,
        2: 0,
        1: 0,
        0: 0,
    }


def test_polar_closed_form_sweep():
    for p in range(1, 8):
        entries = polar_multiplicities_sigma1(p)
        top = p * (p + 1) // 2 - 1
        for i in range(p):
            assert entries[top - i] == 2**i * comb(p, p - i - 1)
        assert set(entries) == set(range(top + 1))


def test_polar_is_half_le_for_minimal_germ():
    for p in range(2, 7):
        le = le_numbers(minimal_params(p))
        polar = polar_multiplicities_sigma1(p)
        for d, value in polar.items():
            assert 2 * value == le[d]


def test_polar_table_budget():
    'p(p+1)/2 entries: p = 446 has 99,681 and is built, p = 500 has 125,250'
    assert len(polar_multiplicities_sigma1(446)) == 99681
    with pytest.raises(BudgetError) as info:
        polar_multiplicities_sigma1(500)
    assert info.value.required == 125250


def test_polar_rejects_bad_p():
    with pytest.raises(ValidationError):
        polar_multiplicities_sigma1(0)


def test_euler_obstruction_sigma1_parity():
    assert [euler_obstruction_sigma1(p) for p in range(2, 9)] == [0, 1, 0, 1, 0, 1, 0]
    assert euler_obstruction_sigma1(1) == 1


def test_euler_obstruction_sigma1_p5_sum():
    'p=5 alternating sum: 5 - 20 + 40 - 40 + 16 = 1'
    entries = polar_multiplicities_sigma1(5)
    top = 14
    values = [entries[top - i] for i in range(5)]
    assert values == [5, 20, 40, 40, 16]
    assert 5 - 20 + 40 - 40 + 16 == 1
    assert euler_obstruction_sigma1(5) == 1


def test_euler_obstruction_hypersurface_values():
    assert euler_obstruction_hypersurface(DqpParams(5, 3, 2)) == 2
    assert euler_obstruction_hypersurface(DqpParams(6, 3, 2)) == 0
    assert euler_obstruction_hypersurface(DqpParams(9, 6, 3)) == 1
    assert euler_obstruction_hypersurface(DqpParams(10, 6, 3)) == 1


def test_euler_obstruction_hypersurface_closed_form_sweep():
    for p in range(2, 7):
        q = p * (p + 1) // 2
        for delta in (p, p + 1, p + 2):
            expected = 1 + (-1) ** delta if p % 2 == 0 else 1
            assert euler_obstruction_hypersurface(DqpParams(q + delta, q, p)) == expected


def test_euler_obstruction_hypersurface_rejects_p1():
    with pytest.raises(ValidationError, match="p must satisfy p > 1"):
        euler_obstruction_hypersurface(DqpParams(2, 1, 1))


def test_massey_identity_sweep():
    for p in range(1, 7):
        q_min = p * (p + 1) // 2
        for q in range(q_min, q_min + 4):
            for n in range(q + p, q + p + 4):
                assert verify_massey_identity(DqpParams(n, q, p))


# 5001 digits, past the interpreter's 4300-digit int-string limit
HUGE = 10**5000

# A seed is a str or an int (not bool); nothing else may become a case key.
SEEDS_OF_OTHER_TYPES = [
    ("bool", True), ("float", 1.5), ("none", None), ("bytes", b"x"), ("tuple", ("a",))
]


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: DqpParams(3, True, True), id="params-bool"),
        pytest.param(lambda: DqpParams(3.0, 1, 1), id="params-float"),
        pytest.param(lambda: BidegreeSystem(1, 0, ((True, 0),)), id="bidegree-bool-a"),
        pytest.param(lambda: BidegreeSystem(0, 1, ((1, False),)), id="bidegree-bool-b"),
        pytest.param(
            lambda: BidegreeSystem(1.5, 0.5, ((1, 0), (0, 1))), id="system-float"
        ),
        pytest.param(lambda: BidegreeSystem(True, 0, ((1, 0),)), id="system-bool"),
        pytest.param(lambda: NormalFormSpec(p=True), id="spec-bool-p"),
        pytest.param(lambda: NormalFormSpec(p=1, q1=True), id="spec-bool-q1"),
        pytest.param(lambda: polar_multiplicities_sigma1(True), id="polar-bool"),
        pytest.param(lambda: det_multiplicity(True), id="det-bool"),
        pytest.param(lambda: build_le_system(2, True), id="le-system-bool-i"),
        pytest.param(
            lambda: count_points(NormalFormSpec(p=1), 3, jobs=True), id="jobs-bool"
        ),
        pytest.param(
            lambda: count_points(NormalFormSpec(p=1), 3, jobs=1.0), id="jobs-float"
        ),
        pytest.param(
            lambda: count_points(NormalFormSpec(1), 5, target=1.5), id="target-float"
        ),
        pytest.param(
            lambda: count_points(NormalFormSpec(1), 5, target="1"), id="target-str"
        ),
        pytest.param(
            lambda: count_points(NormalFormSpec(1), 5, target=True), id="target-bool"
        ),
        pytest.param(
            lambda: count_points(NormalFormSpec(1), 5, target=1.0, jobs=2),
            id="target-float-jobs",
        ),
        pytest.param(
            lambda: count_nonzero_y_slice(NormalFormSpec(1), 5, 1.5, 0, 5),
            id="slice-target-float",
        ),
        pytest.param(
            lambda: count_nonzero_y_slice(NormalFormSpec(1), 5, True, 0, 5),
            id="slice-target-bool",
        ),
        pytest.param(
            lambda: count_nonzero_y_slice(NormalFormSpec(1), 5, 1, 0.5, 5),
            id="slice-start-float",
        ),
        pytest.param(
            lambda: count_nonzero_y_slice(NormalFormSpec(1), 5, 1, 0, 5.0),
            id="slice-stop-float",
        ),
        pytest.param(
            lambda: count_nonzero_y_slice(NormalFormSpec(1), 5, 1, False, 5),
            id="slice-start-bool",
        ),
        pytest.param(
            lambda: MonomialIdeal(True, ((1,),)), id="ideal-bool-width"
        ),
        pytest.param(
            lambda: power_ideal(MonomialIdeal(1, ((1,),)), True),
            id="power-bool",
        ),
        pytest.param(lambda: default_witnesses(True), id="witnesses-bool"),
        pytest.param(lambda: DqpParams(3, 1, -HUGE), id="params-huge-p"),
        pytest.param(lambda: DqpParams(3, 1, HUGE), id="params-huge-bound"),
        pytest.param(lambda: DqpParams(3, HUGE, 1), id="params-huge-q"),
        pytest.param(lambda: BidegreeSystem(1, 0, ((-HUGE, 0),)), id="bidegree-huge"),
        pytest.param(lambda: BidegreeSystem(HUGE, 0, ((1, 0),)), id="system-huge"),
        pytest.param(lambda: NormalFormSpec(p=-HUGE), id="spec-huge-p"),
        pytest.param(lambda: NormalFormSpec(p=1, q1=-HUGE), id="spec-huge-q1"),
        pytest.param(lambda: polar_multiplicities_sigma1(-HUGE), id="polar-huge"),
        pytest.param(lambda: euler_obstruction_sigma1(-HUGE), id="euler-huge"),
        pytest.param(lambda: det_multiplicity(-HUGE), id="det-huge"),
        pytest.param(lambda: build_le_system(-HUGE, 1), id="le-system-huge-p"),
        pytest.param(lambda: build_le_system(2, HUGE), id="le-system-huge-i"),
        pytest.param(
            lambda: count_points(NormalFormSpec(1), 3, jobs=-HUGE), id="jobs-huge"
        ),
        pytest.param(
            lambda: count_points(NormalFormSpec(1), 5, target=5 * HUGE),
            id="target-huge",
        ),
        pytest.param(
            lambda: count_nonzero_y_slice(NormalFormSpec(1), 5, 1, -HUGE, 5),
            id="slice-huge-start",
        ),
        pytest.param(
            lambda: count_nonzero_y_slice(NormalFormSpec(1), 5, 1, 0, HUGE),
            id="slice-huge-stop",
        ),
        pytest.param(lambda: MonomialIdeal(HUGE, ((1,),)), id="ideal-huge-width"),
        pytest.param(lambda: MonomialIdeal(1, ((-HUGE,),)), id="ideal-huge-exponent"),
        pytest.param(
            lambda: power_ideal(MonomialIdeal(1, ((1,),)), -HUGE), id="power-huge"
        ),
        pytest.param(lambda: default_witnesses(-HUGE), id="witnesses-huge"),
        pytest.param(
            lambda: in_integral_closure_valuative(
                MonomialIdeal(1, ((1,),)), (1,), [(-HUGE,)]
            ),
            id="witness-huge",
        ),
        pytest.param(lambda: run_verify(pmax=HUGE), id="pmax-huge"),
        pytest.param(lambda: run_verify("core", 2, HUGE), id="verify-seed-huge"),
        pytest.param(lambda: default_witnesses(2, seed=HUGE), id="witnesses-seed-huge"),
        *(
            pytest.param(
                lambda seed=seed: run_verify("core", 2, seed), id=f"verify-seed-{name}"
            )
            for name, seed in SEEDS_OF_OTHER_TYPES
        ),
        pytest.param(lambda: chow_checks(HUGE), id="chow-seed-huge"),
        pytest.param(lambda: chow_checks(True), id="chow-seed-bool"),
        pytest.param(lambda: closure_checks(HUGE), id="closure-seed-huge"),
        pytest.param(lambda: closure_checks(None), id="closure-seed-none"),
        *(
            pytest.param(
                lambda seed=seed: default_witnesses(2, seed=seed),
                id=f"witnesses-seed-{name}",
            )
            for name, seed in SEEDS_OF_OTHER_TYPES
        ),
    ],
)
def test_sizes_reject_bool_and_non_integers(build):
    with pytest.raises(ValidationError) as info:
        build()
    assert len(str(info.value)) < 200


TOO_LONG = "<int too long to show>"


@pytest.mark.parametrize(
    "refuse, shows",
    [
        pytest.param(
            lambda: le_numbers(DqpParams(HUGE + 2, HUGE, 1)), TOO_LONG, id="le-table"
        ),
        pytest.param(
            lambda: count_points(NormalFormSpec(HUGE), 3), TOO_LONG, id="count-p"
        ),
        pytest.param(
            lambda: count_points(NormalFormSpec(1), HUGE + 1), TOO_LONG, id="count-prime"
        ),
        pytest.param(
            lambda: count_nonzero_y_slice(NormalFormSpec(1), HUGE + 1, 1, 0, 5),
            TOO_LONG,
            id="slice-primality",
        ),
        pytest.param(
            lambda: require_newton_tableau(HUGE, 1), TOO_LONG, id="newton-tableau"
        ),
        # The subset sum compares its class count, not the comb(20000, 10000)
        # subsets, a 6019-digit int, that it once reported.
        pytest.param(
            lambda: intersection_number_fulton(
                BidegreeSystem(10000, 10000, ((1, 1),) * 20000)
            ),
            "needs 20000, past the limit of 24",
            id="subset-count",
        ),
        pytest.param(lambda: default_witnesses(HUGE), TOO_LONG, id="witnesses-width"),
        pytest.param(lambda: det_multiplicity(HUGE), TOO_LONG, id="det-p"),
        pytest.param(
            lambda: counting_polynomial(NormalFormSpec(HUGE)),
            TOO_LONG,
            id="counting-polynomial-p",
        ),
        pytest.param(lambda: build_le_system(HUGE, 1), TOO_LONG, id="le-system-p"),
    ],
)
def test_refusals_never_print_a_huge_int(refuse, shows):
    'a refusal names an int past the digit limit instead of converting it'
    with pytest.raises(BudgetError) as info:
        refuse()
    assert shows in str(info.value)
    assert len(str(info.value)) < 200


# counting_polynomial of p = 4 counts at p(p+1)/2 + p + 1 = 15 primes.
FIRST_15_ODD_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)
DEGREE_NINE = [e for e in itertools.product(range(10), repeat=4) if sum(e) == 9]
# Two classes of 7143 and 7142 bits bound the answer by ceil(14285 log10 2) digits.
DIGIT_CLASSES = f"{2**7142},0;{2**7141},0"


def _handle(*argv):
    """Run a subcommand's handler, so that its BudgetError is not mapped to exit 3."""
    args = cli.build_parser().parse_args(argv)
    return args.handler(args)


@pytest.mark.parametrize(
    "refuse, required, limit",
    [
        pytest.param(
            lambda: le_numbers(DqpParams(LE_TABLE_LIMIT + 2, LE_TABLE_LIMIT, 2)),
            LE_TABLE_LIMIT + 1,
            LE_TABLE_LIMIT,
            id="core-dense-table",
        ),
        pytest.param(
            lambda: det_multiplicity(DET_P_LIMIT + 1),
            DET_P_LIMIT + 1,
            DET_P_LIMIT,
            id="le-engine-det",
        ),
        pytest.param(
            lambda: build_le_system(79, 1),
            3160 * (3160 + 77),
            chow.RING_CELL_LIMIT,
            id="le-engine-one-system",
        ),
        pytest.param(
            lambda: _handle("lecycles", "--p", "33"),
            33 * 561 * (561 + 31),
            chow.RING_CELL_LIMIT,
            id="cli-lecycles-systems",
        ),
        pytest.param(
            lambda: intersection_number_ring(
                BidegreeSystem(10, 909081, ((1, 1),) * 909091)
            ),
            11 * 909091,
            chow.RING_CELL_LIMIT,
            id="chow-ring",
        ),
        pytest.param(
            lambda: intersection_number_fulton(BidegreeSystem(12, 13, ((1, 1),) * 25)),
            25,
            chow.FULTON_SUBSET_LIMIT,
            id="chow-fulton",
        ),
        pytest.param(
            lambda: power_ideal(MonomialIdeal(1, ((1,),)), POWER_SUM_LIMIT + 1),
            POWER_SUM_LIMIT + 1,
            POWER_SUM_LIMIT,
            id="closure-power",
        ),
        pytest.param(
            lambda: require_newton_tableau(6, 136),
            7 * 143,
            NEWTON_CELL_LIMIT,
            id="closure-newton-tableau",
        ),
        pytest.param(
            lambda: default_witnesses(31),
            32 * 33,
            NEWTON_CELL_LIMIT,
            id="closure-witnesses",
        ),
        pytest.param(
            lambda: newton_facet_normals(MonomialIdeal(4, DEGREE_NINE[:196])),
            facet_ray_bound(4, 196),
            FACET_RAY_LIMIT,
            id="closure-facets",
        ),
        pytest.param(
            lambda: predicted_count(NormalFormSpec(1), 100000007),
            100000007,
            DEFAULT_BUDGET,
            id="ffcount-primality",
        ),
        pytest.param(
            lambda: count_nonzero_y_slice(NormalFormSpec(1), 10**8 + 7, 1, 0, 10**8 + 1),
            (10**8 + 1) * (10**8 + 7),
            DEFAULT_BUDGET,
            id="ffcount-slice",
        ),
        pytest.param(
            lambda: count_points(NormalFormSpec(1), 10007),
            10007**2,
            DEFAULT_BUDGET,
            id="ffcount-count",
        ),
        pytest.param(
            lambda: count_points(NormalFormSpec(1, q1=26), 3),
            None,
            DEFAULT_BUDGET,
            id="ffcount-count-unformed",
        ),
        pytest.param(
            lambda: counting_polynomial(NormalFormSpec(4)),
            10 * sum(prime**4 for prime in FIRST_15_ODD_PRIMES),
            DEFAULT_BUDGET,
            id="ffcount-counting-polynomial",
        ),
        pytest.param(
            lambda: counting_polynomial(NormalFormSpec(10)),
            None,
            DEFAULT_BUDGET,
            id="ffcount-counting-polynomial-unformed",
        ),
        pytest.param(
            lambda: _handle("chow", "--n", "2", "--m", "0", "--classes", DIGIT_CLASSES),
            4301,
            4300,
            id="cli-chow-digits",
        ),
    ],
)
def test_every_refusal_reports_what_it_compared(refuse, required, limit):
    'required is the amount compared with the limit, and the message shows both'
    with pytest.raises(BudgetError) as info:
        refuse()
    message = str(info.value)
    assert info.value.required == required
    assert required is None or required > limit
    if required is not None:
        assert f"needs {shown(required)}," in message
    assert message.endswith(f"past the limit of {shown(limit)}")
    assert len(message) < 200


@pytest.mark.parametrize(
    "refuse",
    [
        pytest.param(lambda: default_witnesses(3000), id="witnesses-3000"),
        pytest.param(lambda: default_witnesses(31), id="witnesses-31"),
        pytest.param(lambda: det_multiplicity(60), id="det-60"),
        pytest.param(lambda: det_multiplicity(DET_P_LIMIT + 1), id="det-past-limit"),
    ],
)
def test_unbounded_kernels_refuse_before_any_work(refuse):
    started = time.perf_counter()
    with pytest.raises(BudgetError):
        refuse()
    assert time.perf_counter() - started < 1.0


def test_shown_cuts_a_long_repr_and_names_a_huge_int():
    assert shown(12) == "12"
    assert shown("y1") == "'y1'"
    assert shown("9" * 100) == "'" + "9" * 39 + "..."
    assert shown(HUGE) == shown((HUGE, 0)) == "<int too long to show>"


@pytest.mark.parametrize(
    "value, lo, hi, message",
    [
        (True, 1, None, r"^x must be an integer \(got True\)$"),
        (0, 1, None, r"^x must satisfy x >= 1 \(got x=0\)$"),
        (9, 2, 8, r"^x must satisfy 2 <= x <= 8 \(got x=9\)$"),
        (1, 2, 8, r"^x must satisfy 2 <= x <= 8 \(got x=1\)$"),
    ],
)
def test_require_int_names_the_rule(value, lo, hi, message):
    with pytest.raises(ValidationError, match=message):
        require_int("x", value, lo, hi)
    require_int("x", 5, 2, 8)
    require_int("x", -HUGE)
