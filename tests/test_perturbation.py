"""Every public route is checked: a wrong result from it fails a verify check.

Each function in the ``__all__`` of the route modules is wrapped so that
every result it returns is wrong by the smallest step its type allows,
and the wrapper is bound at every ``dqp.*`` module attribute that holds
the function, so a caller that imported the name is fed the wrong result
too.  ``run_verify("all", 4, 0)`` must then fail at least one check.
A function that survives is listed with the reason no check can see it;
one whose results are never perturbed is listed with the reason why.
"""

import dataclasses
import functools
import inspect
import sys

import pytest

import dqp.cli  # noqa: F401  (loads every dqp module)
from dqp import chow, core, ffcount, integral_closure, le_engine
from dqp.ffcount import PointCountReport
from dqp.verify import run_verify

MODULES = (core, le_engine, chow, integral_closure, ffcount)

ROUTES = [
    (module, name)
    for module in MODULES
    for name in module.__all__
    if inspect.isfunction(getattr(module, name))
]

# Wrong results that no verify check can notice.
KNOWN_SURVIVORS = {
    "integral_closure.facet_ray_bound": "a bound, not an answer: one more "
    "admitted ray changes no membership",
}

# Functions whose results the sweep leaves alone during a verify run.
NEVER_PERTURBED = {
    "core.validate_params": "returns parameters, not a computed value",
    "core.minimal_params": "returns parameters, not a computed value",
    "le_engine.build_le_system": "returns the system the routes evaluate",
    "le_engine.le_number_via_chow": "verify never calls it: the core suite "
    "doubles underlying_multiplicity_via_chow itself",
    "le_engine.require_le_systems": "a size check: returns None",
    "integral_closure.power_ideal": "returns an ideal, the input of a route",
    "integral_closure.require_newton_tableau": "a size check: returns None",
    "integral_closure.default_witnesses": "no command calls it: only "
    "perfbench's span targets name it (item 6 deletes it)",
}


def _wrong(result):
    """The result made wrong by one step, or None when its type has no such step."""
    if isinstance(result, bool):
        return not result
    if isinstance(result, int):
        return result + 1
    if isinstance(result, dict) and result:
        top = max(result)
        return {**result, top: result[top] + 1}
    if isinstance(result, tuple) and result:
        last = _wrong(result[-1])
        return None if last is None else (*result[:-1], last)
    if isinstance(result, list) and result:
        return result[:-1]
    if isinstance(result, PointCountReport):
        return dataclasses.replace(result, observed_count=result.observed_count + 1)
    return None


def _perturb(monkeypatch, original) -> list[int]:
    """Bind a wrong-result wrapper of `original` wherever a dqp module holds it."""
    perturbed = [0]

    def wrong(*args, **kwargs):
        result = original(*args, **kwargs)
        changed = _wrong(result)
        if changed is None:
            return result
        perturbed[0] += 1
        return changed

    modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "dqp"]
    for module in modules:
        for key, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, key, wrong)
    return perturbed


def _route_id(route) -> str:
    module, name = route
    return f"{module.__name__.removeprefix('dqp.')}.{name}"


def test_the_lists_name_only_public_routes():
    names = {_route_id(route) for route in ROUTES}
    assert set(KNOWN_SURVIVORS) <= names
    assert set(NEVER_PERTURBED) <= names


@pytest.mark.parametrize("route", ROUTES, ids=_route_id)
def test_a_wrong_route_fails_a_verify_check(monkeypatch, route):
    name = _route_id(route)
    perturbed = _perturb(monkeypatch, getattr(*route))
    report = run_verify("all", 4, 0)
    failed = [check.name for check in report.checks if not check.passed]
    if name in NEVER_PERTURBED:
        assert perturbed[0] == 0
        return
    assert perturbed[0] > 0
    if name in KNOWN_SURVIVORS:
        assert failed == [], f"{name} is caught now: drop it from KNOWN_SURVIVORS"
    else:
        assert failed, f"a wrong {name} passes every verify check"


# The sides of every verify check, one row per comparison its condition
# makes.  A side is a closed form, a computed value (a route, named by its
# id) or a constant.  le_numbers is two sides: the Lê systems run
# i = 1..p, so its top entry λ^q meets no computed value.
CHOW = ("computed", "le_engine.underlying_multiplicity_via_chow")
RING = ("computed", "chow.intersection_number_ring")
FULTON = ("computed", "chow.intersection_number_fulton")
NEWTON = ("computed", "integral_closure.in_integral_closure_newton")
CERTIFIED = ("computed", "integral_closure.newton_certificate")
REDUCTION = ("computed", "integral_closure.is_reduction")
COUNT = ("computed", "ffcount.count_points")
POLYNOMIAL = ("computed", "ffcount.counting_polynomial")
SLICE = ("computed", "ffcount.count_nonzero_y_slice")
LE_BELOW_TOP = ("closed", "core.le_numbers λ^(q-i), i = 1..p")
LE_TOP = ("closed", "core.le_numbers λ^q")
TRUE = ("constant", True)

SIDES = [
    ("le-closed-form-vs-chow", LE_BELOW_TOP, CHOW),
    ("polar-equals-half-le", ("closed", "core.polar_multiplicities_sigma1"), CHOW),
    # sums the whole Lê table, λ^q included, against χ̃ inside core
    ("massey-alternating-sum", ("closed", "core.verify_massey_identity"), TRUE),
    ("euler-obstruction-parity", ("closed", "core.euler_obstruction_sigma1"), CHOW),
    (
        "euler-obstruction-hypersurface",
        ("closed", "core.euler_obstruction_hypersurface"),
        CHOW,
    ),
    ("det-multiplicity", ("computed", "le_engine.det_multiplicity"), ("constant", "p")),
    ("ring-vs-subset-sum", RING, FULTON),
    ("permutation-invariance", RING, RING),
    ("multilinearity", RING, RING),
    ("forced-vanishing", RING, ("constant", 0)),
    ("forced-vanishing", FULTON, ("constant", 0)),
    ("square-ideal-reduction-family", REDUCTION, TRUE),
    (
        "newton-vs-facet-enumeration",
        NEWTON,
        ("computed", "integral_closure.in_integral_closure_facets"),
    ),
    ("member-degree-necessity", NEWTON, ("computed", "least generator degree")),
    (
        "witness-refutation-soundness",
        CERTIFIED,
        ("computed", "integral_closure.check_newton_certificate"),
    ),
    (
        "witness-refutation-soundness",
        CERTIFIED,
        ("computed", "integral_closure.in_integral_closure_valuative"),
    ),
    ("membership-monotonicity", NEWTON, NEWTON),
    ("reduction-transitivity", REDUCTION, TRUE),
    ("observed-equals-predicted", COUNT, ("closed", "ffcount.predicted_count")),
    ("target-independence", COUNT, COUNT),
    # the place and sign of N(t)'s lower term
    (
        "counting-polynomial-euler",
        POLYNOMIAL,
        ("closed", "core.milnor_sphere_dimension"),
    ),
    # N(1) against 1 + χ̃
    (
        "counting-polynomial-euler",
        POLYNOMIAL,
        ("closed", "core.reduced_euler_characteristic"),
    ),
    ("partition-independence", SLICE, SLICE),
]

# Sides that no row compares with a computed value, each with the ROADMAP
# item that adds one.
UNCHECKED = {
    LE_TOP: "item 1: no Lê system gives λ^q",
    ("closed", "core.verify_massey_identity"): "item 1: compares two closed forms",
    ("computed", "le_engine.det_multiplicity"): "item 3: met only by the constant p",
    REDUCTION: "item 11: verify asks only pairs that are reductions, so every "
    "answer is compared with True",
}


def _core_closed_forms() -> set[tuple[str, str]]:
    """Every value-returning function of core.__all__, le_numbers as its two sides."""
    names = {
        _route_id(route) for route in ROUTES if route[0] is core
    } - set(NEVER_PERTURBED)
    names.remove("core.le_numbers")
    return {("closed", name) for name in names} | {LE_BELOW_TOP, LE_TOP}


def test_the_sides_table_names_every_verify_check():
    checks = [check.name for check in run_verify("all", 4, 0).checks]
    assert len(checks) == 20
    assert {row[0] for row in SIDES} == set(checks)


def test_every_closed_form_and_route_meets_a_computed_side():
    'a row checks its sides when one is computed and neither is a constant'
    sides = {side for _, *pair in SIDES for side in pair if side[0] != "constant"}
    checked = set()
    for _, *pair in SIDES:
        kinds = {kind for kind, _ in pair}
        if "computed" in kinds and "constant" not in kinds:
            checked.update(pair)
    assert (sides | _core_closed_forms()) - checked == set(UNCHECKED)


@functools.cache
def _suite_of(check: str) -> str:
    return next(
        suite
        for suite in ("core", "chow", "closure", "ffcount")
        if check in {c.name for c in run_verify(suite, 4, 0).checks}
    )


# A step added to both sides of a self-comparison can cancel: those rows are left out.
ROUTE_SIDES = list(
    dict.fromkeys(
        (check, side[1])
        for check, *pair in SIDES
        if pair[0] != pair[1]
        for side in pair
        if side[1] in {_route_id(route) for route in ROUTES}
    )
)


@pytest.mark.parametrize(
    "check, route_id", ROUTE_SIDES, ids=[f"{c}:{r}" for c, r in ROUTE_SIDES]
)
def test_a_wrong_side_fails_its_check(monkeypatch, check, route_id):
    'the table is what verify compares: a wrong result from a named side fails its row'
    suite = _suite_of(check)
    (route,) = [route for route in ROUTES if _route_id(route) == route_id]
    _perturb(monkeypatch, getattr(*route))
    failed = [c.name for c in run_verify(suite, 4, 0).checks if not c.passed]
    assert check in failed
