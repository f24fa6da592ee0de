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
    "integral_closure.default_witnesses": "a shorter witness battery refutes "
    "less, so it can never make the valuative route unsound",
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
    "ffcount.eval_normal_form": "verify never calls it: it reads one point, "
    "and the tests compare it with the counter",
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
    if isinstance(result, tuple) and result and isinstance(result[-1], int):
        return (*result[:-1], result[-1] + 1)
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
