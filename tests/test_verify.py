import pytest

from dqp import ffcount
from dqp.errors import ValidationError
from dqp.verify import (
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
        for check in chow_checks(seed=seed, cases=40):
            assert check.passed, f"seed {seed}, {check.name}: {check.detail}"


def test_closure_suite_passes_on_other_seeds():
    for seed in (0, 3):
        for check in closure_checks(seed=seed, cases=40):
            assert check.passed, f"seed {seed}, {check.name}: {check.detail}"


def test_ffcount_suite_small_limit():
    'a tighter enumeration limit shrinks the sweep but nothing fails'
    checks = ffcount_checks(seed=0, sweep_limit=10**5)
    for check in checks:
        assert check.passed, f"{check.name}: {check.detail}"


def test_off_by_one_histogram_fails_the_count_checks(monkeypatch):
    'dropping x = prime - 1 from every per-coordinate histogram is caught'
    monkeypatch.setattr(
        ffcount,
        "_coordinate_values",
        lambda c, prime: (c * x % prime for x in range(prime - 1)),
    )
    passed = {check.name: check.passed for check in ffcount_checks(sweep_limit=10**4)}
    assert passed["observed-equals-predicted"] is False
    assert passed["counting-polynomial-euler"] is False


def test_run_verify_deterministic_for_fixed_seed():
    first = run_verify(scope="chow", seed="s1")
    second = run_verify(scope="chow", seed="s1")
    assert first.to_json_dict() == second.to_json_dict()


def test_run_verify_scope_selection():
    report = run_verify(scope="closure", pmax=2, sweep_limit=10**4)
    assert report.results["suites"] == ["closure"]
    assert report.passed


def test_run_verify_validation():
    with pytest.raises(ValidationError):
        run_verify(scope="everything")
    with pytest.raises(ValidationError):
        run_verify(pmax=1)
    with pytest.raises(ValidationError):
        run_verify(sweep_limit=0)
