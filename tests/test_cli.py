import argparse
import dataclasses
import itertools
import json
import os
import re
import sys
import time

import pytest

from dqp import cli, ffcount, integral_closure
from dqp.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, json.loads(out), out, err


def test_invariants_json_values(capsys):
    code, doc, _, _ = run_json(capsys, "invariants", "--n", "5", "--q", "3", "--p", "2")
    assert code == 0
    assert doc["schema"] == "dqp-invariants/1"
    assert doc["results"]["le_numbers"] == [[3, 1], [2, 4], [1, 4], [0, 0]]
    assert doc["results"]["euler_obstruction_hypersurface"] == 2
    assert doc["results"]["euler_obstruction_sigma1"] == 0
    assert doc["results"]["sphere_dimension"] == 3
    assert doc["results"]["reduced_euler_characteristic"] == -1
    names = [c["name"] for c in doc["checks"]]
    assert "massey-alternating-sum" in names
    assert all(c["status"] == "pass" for c in doc["checks"])


def test_invariants_p1_omits_hypersurface_obstruction(capsys):
    code, doc, _, _ = run_json(capsys, "invariants", "--n", "2", "--q", "1", "--p", "1")
    assert code == 0
    assert doc["results"]["le_numbers"] == [[1, 1], [0, 2]]
    assert "euler_obstruction_hypersurface" not in doc["results"]
    assert "needs p > 1" in doc["results"]["euler_obstruction_note"]


def test_invariants_fixed_cycles_sit_at_q_and_q_minus_1(capsys):
    'q = 5 differs from p(p+1)/2 = 3 (q1 = 2, k = 2): the cycles sit at q and q - 1'
    code, doc, _, _ = run_json(capsys, "invariants", "--n", "9", "--q", "5", "--p", "2")
    assert code == 0
    assert (doc["results"]["params"]["q1"], doc["results"]["params"]["k"]) == (2, 2)
    assert doc["results"]["fixed_cycles"] == [
        {"name": "singular locus", "dimension": 5, "multiplicity": 1},
        {"name": "determinantal locus", "dimension": 4, "multiplicity": 2},
    ]


def test_invariants_validation_exit(capsys):
    code, out, err = run(capsys, "invariants", "--n", "4", "--q", "3", "--p", "2")
    assert code == 2
    assert out == ""
    assert "n must satisfy n >= q + p" in err


def test_invariants_json_round_trips(capsys):
    _, doc, raw, _ = run_json(capsys, "invariants", "--n", "9", "--q", "6", "--p", "3")
    assert json.dumps(doc, indent=2, sort_keys=True) + "\n" == raw


def test_invariants_json_has_no_timings(capsys):
    _, doc, _, _ = run_json(capsys, "invariants", "--n", "5", "--q", "3", "--p", "2")
    assert "elapsed" not in doc
    assert "elapsed" not in doc["results"]


def test_invariants_csv(capsys):
    code, out, err = run(
        capsys, "invariants", "--n", "5", "--q", "3", "--p", "2", "--format", "csv"
    )
    assert code == 0
    lines = out.split("\n")
    assert lines[0] == "section,key,value,detail"
    assert "results.le_numbers,3,1," in lines
    assert "results.le_numbers,0,0," in lines
    assert "\r" not in out


def test_invariants_oversized_table_refused(capsys):
    code, out, err = run(
        capsys, "invariants", "--n", "2000010", "--q", "2000000", "--p", "3"
    )
    assert code == 3
    assert out == ""
    assert "limit" in err


def test_lecycles_all_indices(capsys):
    code, doc, _, _ = run_json(capsys, "lecycles", "--p", "2")
    assert code == 0
    rows = doc["results"]["systems"]
    assert [r["i"] for r in rows] == [1, 2]
    for r in rows:
        assert r["le_number_chow"] == r["le_number_closed_form"]
        assert r["multiplicity_chow"] == r["multiplicity_closed_form"]


def test_lecycles_single_index(capsys):
    code, doc, _, _ = run_json(capsys, "lecycles", "--p", "3", "--i", "2")
    assert code == 0
    row = doc["results"]["systems"][0]
    assert row["le_number_chow"] == 12
    assert row["dimension"] == 4


def test_lecycles_builds_and_evaluates_each_system_once(capsys, monkeypatch):
    from dqp import chow, le_engine

    calls = {"build": 0, "ring": 0}

    def counting(key, func):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return func(*args, **kwargs)

        return wrapper

    build = counting("build", le_engine.build_le_system)
    ring = counting("ring", chow.intersection_number_ring)
    monkeypatch.setattr(le_engine, "build_le_system", build)
    monkeypatch.setattr(chow, "intersection_number_ring", ring)
    monkeypatch.setattr(le_engine, "intersection_number_ring", ring)
    code, doc, _, _ = run_json(capsys, "lecycles", "--p", "5")
    assert code == 0
    assert [r["i"] for r in doc["results"]["systems"]] == [1, 2, 3, 4, 5]
    assert calls == {"build": 5, "ring": 5}


def test_lecycles_ring_budget(capsys):
    'the ring product refuses an oversized Lê system before its loop'
    started = time.perf_counter()
    code, out, err = run(capsys, "lecycles", "--p", "400")
    assert time.perf_counter() - started < 1.0
    assert code == 3
    assert out == ""
    assert "cell updates" in err
    # p = 78 is the largest Lê system under the limit and p = 79 the smallest over it
    assert run(capsys, "lecycles", "--p", "79", "--i", "1")[0] == 3
    code, doc, _, _ = run_json(capsys, "lecycles", "--p", "78", "--i", "78")
    assert code == 0
    row = doc["results"]["systems"][0]
    assert row["multiplicity_chow"] == row["multiplicity_closed_form"] == 2**77


def test_lecycles_total_cell_budget(capsys):
    'the p ring products of one call are bounded together, before the first runs'
    started = time.perf_counter()
    code, out, err = run(capsys, "lecycles", "--p", "40")
    assert time.perf_counter() - started < 1.0
    assert code == 3
    assert out == ""
    assert "cell updates" in err
    # p = 32 is the largest p whose p products fit under the limit together
    assert run(capsys, "lecycles", "--p", "33")[0] == 3
    code, doc, _, _ = run_json(capsys, "lecycles", "--p", "32")
    assert code == 0
    assert [r["i"] for r in doc["results"]["systems"]] == list(range(1, 33))


@pytest.mark.parametrize("p", [2, 3, 5, 8])
def test_lecycles_total_cells_match_the_systems(capsys, monkeypatch, p):
    'the closed-form total is the sum of the cells of the systems built'
    from dqp import chow, le_engine

    systems = [le_engine.build_le_system(p, i) for i in range(1, p + 1)]
    total = sum((s.ambient_n + 1) * len(s.classes) for s in systems)
    monkeypatch.setattr(chow, "RING_CELL_LIMIT", total)
    assert run(capsys, "lecycles", "--p", str(p))[0] == 0
    monkeypatch.setattr(chow, "RING_CELL_LIMIT", total - 1)
    code, _, err = run(capsys, "lecycles", "--p", str(p))
    assert code == 3
    assert f"needs {total}, past the limit of {total - 1}" in err


def test_lecycles_skips_the_indices_the_subset_sum_refuses(capsys, monkeypatch):
    'the skip is the subset sum\'s own refusal, raised before it walks a subset'
    from dqp import chow
    from dqp.errors import BudgetError

    def refuse(system):
        raise BudgetError("refused", required=None)

    monkeypatch.setattr(chow, "intersection_number_fulton", refuse)
    code, doc, _, _ = run_json(capsys, "lecycles", "--p", "3")
    assert code == 0
    check = doc["checks"][1]
    assert check["name"] == "ring-vs-subset-sum"
    assert check["status"] == "pass"
    assert check["detail"] == (
        "cross-checked i = none; skipped i = 1, 2, 3 "
        "(class count exceeds subset budget 24)"
    )


def test_lecycles_skips_systems_past_the_subset_limit(capsys):
    'p = 6 gives 25 classes for every i, one past the limit of 24'
    code, doc, _, _ = run_json(capsys, "lecycles", "--p", "6")
    assert code == 0
    assert doc["checks"][1]["detail"] == (
        "cross-checked i = none; skipped i = 1, 2, 3, 4, 5, 6 "
        "(class count exceeds subset budget 24)"
    )


def test_lecycles_rejects_p1(capsys):
    code, _, err = run(capsys, "lecycles", "--p", "1")
    assert code == 2
    assert "p >= 2" in err


def test_lecycles_refuses_a_huge_p_before_listing_its_indices(capsys):
    'the total cell bound is checked before the list of p indices is built'
    code, out, err = run(capsys, "lecycles", "--p", str(10**20))
    assert code == 3
    assert out == ""
    assert err.startswith("refused: ")


def test_chow_both_algorithms(capsys):
    code, doc, _, _ = run_json(
        capsys, "chow", "--n", "2", "--m", "1", "--classes", "1,1;1,1;0,2"
    )
    assert code == 0
    assert doc["results"]["ring"] == 2
    assert doc["results"]["fulton"] == 2
    assert doc["results"]["intersection_number"] == 2


def test_chow_classes_are_not_rendered_as_dimension_rows(capsys):
    argv = ["chow", "--n", "1", "--m", "1", "--classes", "1,1;1,1"]
    code, table, _ = run(capsys, *argv)
    assert code == 0
    assert "dim " not in table
    assert "    - [1, 1]" in table
    code, csv_text, _ = run(capsys, *argv, "--format", "csv")
    assert code == 0
    assert "results.classes,1,1," not in csv_text.split("\n")
    assert 'results.classes[0],,"[1, 1]",' in csv_text.split("\n")


def test_chow_class_entry_past_the_digit_limit_is_cut(capsys):
    nines = "9" * 5000
    code, out, err = run(capsys, "chow", "--n", "1", "--m", "0", "--classes", f"{nines},0")
    assert code == 2
    assert out == ""
    assert "has too many digits" in err
    assert len(err) < 100


def test_chow_class_count_mismatch(capsys):
    code, _, err = run(capsys, "chow", "--n", "2", "--m", "1", "--classes", "1,1")
    assert code == 2
    assert "classes" in err


def test_chow_fulton_budget_exit(capsys):
    classes = ";".join(["1,1"] * 25)
    code, _, err = run(
        capsys,
        "chow", "--n", "13", "--m", "12", "--classes", classes,
        "--algorithm", "fulton",
    )
    assert code == 3
    assert "limit" in err


@pytest.mark.parametrize("algorithm", ["both", "ring", "fulton"])
def test_chow_refuses_an_answer_past_the_digit_limit(capsys, algorithm):
    'two 3000-digit classes give a 6000-digit answer; it is refused before any route'
    nines = "9" * 3000
    started = time.perf_counter()
    code, _, err = run(
        capsys, "chow", "--n", "2", "--m", "0", "--classes", f"{nines},0;{nines},0",
        "--algorithm", algorithm,
    )
    assert code == 3
    assert "needs 6001, past the limit of 4300" in err
    assert time.perf_counter() - started < 1
    # 2000 nines each bound the answer by 4001 digits, which are admitted
    short = "9" * 2000
    code, doc, _, _ = run_json(
        capsys, "chow", "--n", "2", "--m", "0", "--classes", f"{short},0;{short},0",
        "--algorithm", algorithm,
    )
    assert code == 0
    assert doc["results"]["intersection_number"] == int(short) ** 2


def test_chow_digit_limit_zero_means_none(capsys):
    'with the interpreter limit lifted (0), the same 6000-digit answer is computed'
    nines = "9" * 3000
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        code, doc, _, _ = run_json(
            capsys, "chow", "--n", "2", "--m", "0", "--classes", f"{nines},0;{nines},0"
        )
    finally:
        sys.set_int_max_str_digits(saved)
    assert code == 0
    assert doc["results"]["intersection_number"] == int(nines) ** 2


def test_closure_membership(capsys):
    code, doc, _, _ = run_json(
        capsys, "closure", "--ideal", "y1^2,y2^2", "--monomial", "y1*y2"
    )
    assert code == 0
    assert doc["results"]["member"] is True
    assert doc["results"]["facet_route"] is True
    assert doc["results"]["certificate"] == [["y1^2", 2], ["y2^2", 2]]


def _degree_ideal(variables, degree):
    'every monomial of one degree in y1..y<variables>, as --ideal text'
    return ",".join(
        "*".join(f"y{i + 1}^{e}" for i, e in enumerate(exps) if e)
        for exps in itertools.product(range(degree + 1), repeat=variables)
        if sum(exps) == degree
    )


@pytest.mark.parametrize(
    "ideal, monomial, member",
    [
        pytest.param(_degree_ideal(4, 6), "y1^2*y2^2*y3*y4", True, id="84-sextics-member"),
        pytest.param(_degree_ideal(4, 6), "y1^2*y2^2*y3", False, id="84-sextics-non-member"),
        pytest.param(_degree_ideal(4, 8), "y1^2*y2^2*y3^2*y4^2", True, id="165-octics-member"),
        pytest.param(_degree_ideal(4, 8), "y1^7", False, id="165-octics-non-member"),
        pytest.param(
            "y1^2,y2^2,y3^2,y4^2,y5^2,y6^2", "y1*y2*y3*y4*y5*y6", True, id="6-variables"
        ),
    ],
)
def test_closure_runs_the_facet_route_within_the_ray_budget(capsys, ideal, monomial, member):
    'many generators or more than 4 variables, answered by both routes in well under 2 s'
    started = time.perf_counter()
    code, doc, _, _ = run_json(capsys, "closure", "--ideal", ideal, "--monomial", monomial)
    assert time.perf_counter() - started < 2.0
    assert code == 0
    assert doc["results"]["member"] is member
    assert doc["results"]["facet_route"] is member
    assert all(c["status"] == "pass" for c in doc["checks"])


def test_closure_past_the_ray_budget_answers_with_newton_alone(capsys):
    'all 56 cubics in 6 variables may need 34162 rays: no facet route, no refusal'
    code, doc, _, _ = run_json(
        capsys, "closure", "--ideal", _degree_ideal(6, 3), "--monomial", "y1*y2*y3"
    )
    assert code == 0
    assert doc["results"]["member"] is True
    assert "facet_route" not in doc["results"]
    assert [c["name"] for c in doc["checks"]] == ["witness-refutation-soundness"]


def test_closure_skips_the_facet_route_it_refuses(capsys, monkeypatch):
    'the skip is the facet route\'s own refusal, raised before it reads a generator'
    from dqp.errors import BudgetError

    def refuse(ideal):
        raise BudgetError("refused", required=None)

    monkeypatch.setattr(integral_closure, "newton_facet_normals", refuse)
    code, doc, _, _ = run_json(
        capsys, "closure", "--ideal", "y1^2,y2^2", "--monomial", "y1*y2"
    )
    assert code == 0
    assert doc["results"]["member"] is True
    assert "facet_route" not in doc["results"]
    assert [c["name"] for c in doc["checks"]] == ["witness-refutation-soundness"]


def test_closure_non_member(capsys):
    'the refuting curve is over the variables the ideal uses: y2 gets no weight'
    for ideal, monomial, certificate in (
        ("y1^2,y2^2", "y1", [["y1", 2], ["y2", 2]]),
        ("y1^2,y3^2", "y3", [["y1", 2], ["y3", 2]]),
    ):
        code, doc, _, _ = run_json(
            capsys, "closure", "--ideal", ideal, "--monomial", monomial
        )
        assert code == 0
        assert doc["results"]["member"] is False
        assert doc["results"]["certificate"] == certificate


@pytest.mark.parametrize("monomial", ["y1*y2", "y1"], ids=["member", "non-member"])
def test_closure_fails_a_wrong_certificate(capsys, monkeypatch, monomial):
    'one simplex run gives the answer and its proof; an all-zero proof fails the check'
    original = integral_closure._simplex_feasible
    calls = []

    def unproved(points, bounds):
        calls.append(bounds)
        feasible, certificate = original(points, bounds)
        return feasible, (0,) * len(certificate)

    monkeypatch.setattr(integral_closure, "_simplex_feasible", unproved)
    code, doc, _, _ = run_json(
        capsys, "closure", "--ideal", "y1^2,y2^2", "--monomial", monomial
    )
    assert len(calls) == 1
    assert code == 1
    status = {c["name"]: c["status"] for c in doc["checks"]}
    assert status == {
        "witness-refutation-soundness": "fail",
        "newton-vs-facet-enumeration": "pass",
    }


def test_closure_reduction_mode(capsys):
    code, doc, _, _ = run_json(
        capsys,
        "closure", "--ideal", "y1^2,y2^2",
        "--full", "y1^2,y1*y2,y2^2",
        "--mode", "reduction",
    )
    assert code == 0
    assert doc["results"]["reduction"] is True


def test_closure_reduction_false_case(capsys):
    code, doc, _, _ = run_json(
        capsys,
        "closure", "--ideal", "y1^2", "--full", "y1^2,y2^2", "--mode", "reduction",
    )
    assert code == 0
    assert doc["results"]["reduction"] is False


def test_closure_oversized_tableau_refused(capsys, monkeypatch):
    'generators in 31 distinct variables: refused before any tuple or simplex'
    def no_tuples(*args, **kwargs):
        raise AssertionError("exponent tuple built for a refused request")

    def no_simplex(*args, **kwargs):
        raise AssertionError("simplex run for a refused request")

    monkeypatch.setattr(cli, "_build_monomial", no_tuples)
    monkeypatch.setattr(integral_closure, "_simplex_feasible", no_simplex)
    variables = [f"y{i}" for i in range(1, 32)]
    code, out, err = run(
        capsys, "closure", "--ideal", ",".join(variables), "--monomial", "y1"
    )
    assert code == 3
    assert out == ""
    assert "tableau" in err
    product = "*".join(variables)
    code, out, err = run(
        capsys, "closure", "--mode", "reduction",
        "--ideal", product, "--full", f"{product},y1*y2",
    )
    assert code == 3
    assert "tableau" in err


_MINIMAL_3001 = ",".join(f"y1^{j}*y2^{3000 - j}" for j in range(3001))


@pytest.mark.parametrize(
    "argv",
    [
        ("--ideal", _MINIMAL_3001, "--monomial", "y1*y2"),
        ("--mode", "reduction", "--ideal", "y1,y2", "--full", _MINIMAL_3001),
        ("--ideal", ",".join(["y1", "y2"] + ["y1*y2"] * 2999), "--monomial", "y1"),
    ],
    ids=["ideal", "full", "redundant-ideal"],
)
def test_closure_refuses_each_parsed_list_at_its_count(capsys, monkeypatch, argv):
    '3001 generators in y1, y2, minimal or not: refused before any tuple is built'
    _no_tuple_wider_than(monkeypatch, 0)
    started = time.perf_counter()
    code, out, err = run(capsys, "closure", *argv)
    assert time.perf_counter() - started < 1.0
    assert code == 3
    assert out == ""
    assert "3001 generators" in err


def _no_tuple_wider_than(monkeypatch, width):
    build = cli._build_monomial

    def narrow_tuples(exponents, support):
        if len(support) > width:
            raise AssertionError(f"exponent tuple of width {len(support)} built")
        return build(exponents, support)

    monkeypatch.setattr(cli, "_build_monomial", narrow_tuples)


def test_closure_huge_variable_index_refused_first(capsys, monkeypatch):
    'a huge index no generator uses is free: answered on the one-variable support'
    _no_tuple_wider_than(monkeypatch, 1)
    for monomial, member in (("y1*y1000000000", True), ("y1000000000", False)):
        started = time.perf_counter()
        code, doc, _, _ = run_json(
            capsys, "closure", "--ideal", "y1", "--monomial", monomial
        )
        assert time.perf_counter() - started < 1.0
        assert code == 0
        assert doc["results"]["member"] is member
        assert doc["results"]["variable_count"] == 1000000000
        assert doc["results"]["monomial"] == monomial


def test_closure_reduction_huge_variable_index_refused_first(capsys, monkeypatch):
    'reduction mode reads the support of both ideals: y1 and y1000000000'
    _no_tuple_wider_than(monkeypatch, 2)
    started = time.perf_counter()
    code, doc, _, _ = run_json(
        capsys, "closure", "--mode", "reduction",
        "--ideal", "y1", "--full", "y1,y1000000000",
    )
    assert time.perf_counter() - started < 1.0
    assert code == 0
    assert doc["results"]["reduction"] is False
    assert doc["results"]["full"] == "y1, y1000000000"
    assert doc["results"]["variable_count"] == 1000000000


def test_closure_overlong_index_or_exponent_is_invalid(capsys):
    'past the int string-conversion limit the parser exits 2, not with a traceback'
    nines = "9" * 5000
    # Each exponent has 4300 digits and parses; their sum has 4301.
    summed = f"y1^{'9' * 4300}*y1"
    for request in (
        ("--ideal", f"y1^{nines}", "--monomial", "y1"),
        ("--ideal", f"y{nines}", "--monomial", "y1"),
        ("--ideal", summed, "--monomial", "y1"),
        ("--ideal", "y1", "--monomial", summed),
        ("--ideal", "y1", "--mode", "reduction", "--full", summed),
    ):
        started = time.perf_counter()
        code, out, err = run(capsys, "closure", *request)
        assert time.perf_counter() - started < 1.0
        assert code == 2
        assert out == ""
        assert "too many digits" in err


def test_closure_grammar_whitespace_and_powers(capsys):
    'the grammar ignores whitespace and accepts the x-prefix'
    code, doc, _, _ = run_json(
        capsys, "closure", "--ideal", " x1 ^ 2 , x2^2 ", "--monomial", "x1 x2"
    )
    assert code == 0
    assert doc["results"]["member"] is True


def test_closure_grammar_errors(capsys):
    code, _, err = run(capsys, "closure", "--ideal", "z1^2", "--monomial", "z1")
    assert code == 2
    code, _, err = run(capsys, "closure", "--ideal", "y1^2,x2^2", "--monomial", "y1")
    assert code == 2
    assert "prefix" in err
    code, _, err = run(capsys, "closure", "--ideal", "y1^2")
    assert code == 2
    assert "monomial" in err
    # every generator and candidate needs a variable; y1^0 is one
    for argv in (
        ("--ideal", "*", "--monomial", "*"),
        ("--mode", "reduction", "--ideal", "*", "--full", "*"),
        ("--ideal", "*,y1", "--monomial", "y1"),
        ("--ideal", "y1", "--monomial", " "),
    ):
        code, out, err = run(capsys, "closure", *argv)
        assert code == 2
        assert out == ""
        assert "empty monomial" in err
    code, doc, _, _ = run_json(capsys, "closure", "--ideal", "y1^0", "--monomial", "y1")
    assert code == 0
    assert doc["results"]["member"] is True


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("--mode", "reduction", "--full", "y1", "--monomial", "y2"), "--monomial"),
        (("--monomial", "y2", "--full", "y1"), "--full"),
    ],
    ids=["reduction-with-monomial", "membership-with-full"],
)
def test_closure_refuses_the_other_modes_flag(capsys, argv, flag):
    code, out, err = run(capsys, "closure", "--ideal", "y1", *argv)
    assert code == 2
    assert out == ""
    assert f"does not take {flag}" in err


def test_count_command(capsys):
    code, doc, _, _ = run_json(
        capsys, "count", "--p", "2", "--prime", "3", "--jobs", "1"
    )
    assert code == 0
    assert doc["results"]["observed"] == 72
    assert doc["results"]["predicted"] == 72
    assert doc["results"]["enumerated"] == 243


def test_count_check_fails_on_a_wrong_count(capsys, monkeypatch):
    'the command compares the count with predicted_count itself, so a bad count fails'
    original = ffcount.count_points

    def bumped(*args, **kwargs):
        report = original(*args, **kwargs)
        return dataclasses.replace(report, observed_count=report.observed_count + 1)

    monkeypatch.setattr(ffcount, "count_points", bumped)
    code, doc, _, err = run_json(capsys, "count", "--p", "2", "--prime", "5")
    assert code == 1
    assert "one or more checks failed" in err
    assert (doc["results"]["observed"], doc["results"]["predicted"]) == (601, 600)
    assert doc["checks"] == [
        {
            "name": "observed-equals-predicted",
            "status": "fail",
            "detail": "observed 601 != predicted 600",
        }
    ]


def test_count_budget_flag(capsys):
    'the points limit is the constant DEFAULT_BUDGET'
    code, _, err = run(capsys, "count", "--p", "3", "--prime", "11")
    assert code == 3
    assert "counting 11^9 points needs 2357947691, past the limit of 100000000" in err


def test_count_has_no_budget_option(capsys):
    'no flag or keyword raises the points limit'
    with pytest.raises(SystemExit) as info:
        main(["count", "--p", "1", "--prime", "3", "--budget", "9"])
    out, err = capsys.readouterr()
    assert info.value.code == 2
    assert out == ""
    assert "unrecognized arguments: --budget 9" in err
    with pytest.raises(TypeError):
        ffcount.count_points(ffcount.NormalFormSpec(1), 3, budget=9)


@pytest.mark.parametrize(
    "argv",
    [("count", "--p", "2", "--prime", "3"), ("verify", "--scope", "ffcount")],
    ids=["count", "verify"],
)
def test_budget_environment_variable_is_inert(capsys, monkeypatch, argv):
    'the limits are constants; a DQP_BUDGET in the environment changes nothing'
    argv = (*argv, "--format", "json")
    monkeypatch.delenv("DQP_BUDGET", raising=False)
    unset = run(capsys, *argv)
    assert unset[0] == 0
    for value in ("100", "not-a-number"):
        monkeypatch.setenv("DQP_BUDGET", value)
        assert run(capsys, *argv) == unset


def test_count_jobs_equivalence(capsys):
    observed = []
    for jobs in ("1", "2", "8"):
        _, doc, _, _ = run_json(
            capsys, "count", "--p", "2", "--prime", "5", "--jobs", jobs
        )
        observed.append(doc["results"]["observed"])
    assert observed == [600, 600, 600]


def test_count_json_independent_of_core_count(capsys, monkeypatch):
    outputs = []
    for cores in (2, 8):
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        code, doc, raw, _ = run_json(capsys, "count", "--p", "2", "--prime", "5")
        assert code == 0
        outputs.append(raw)
    assert outputs[0] == outputs[1]
    assert doc["inputs"]["jobs"] is None


def test_count_oversized_modulus_refused_before_primality(capsys):
    code, out, err = run(capsys, "count", "--p", "1", "--prime", str(10**40 + 1))
    assert code == 3
    assert out == ""
    # (10^40 + 1)^2 has 81 digits, shown cut to 40 and '...'
    assert f"points needs 1{'0' * 39}..., past the limit of {10**8}" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["--p", "1", "--q1", "9100", "--prime", "3"],
        ["--p", "1", "--q1", "100000000", "--prime", "3"],
        ["--p", "2", "--prime", str(10**1000 + 1)],
    ],
    ids=["q1-9100", "q1-10^8", "prime-10^1000"],
)
def test_count_refusal_never_expands_prime_to_the_n(capsys, argv):
    'the refusal states prime^n unexpanded, so it neither hangs nor crashes'
    started = time.perf_counter()
    code, out, err = run(capsys, "count", *argv)
    assert time.perf_counter() - started < 1.0
    assert code == 3
    assert out == ""
    assert err.startswith("refused: ")


def test_count_modulus_beyond_exact_primality_refused(capsys):
    'the points limit refuses a composite modulus before it is tested for primality'
    prime = 399165290221 * 798330580441
    code, out, err = run(capsys, "count", "--p", "1", "--prime", str(prime))
    assert code == 3
    assert out == ""
    assert f"counting {prime}^2 points needs " in err


# The most digits an int may have and still convert to and from a string.
NINES = "9" * 4300


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["invariants", "--n", "1", "--q", "1", "--p", NINES], 2),
        (["invariants", "--n", "1", "--q", NINES, "--p", "9"], 2),
        (["count", "--p", NINES, "--prime", "3"], 3),
        (["count", "--p", "1", "--q1", NINES, "--prime", "3"], 3),
        (["chow", "--n", NINES, "--m", "1", "--classes", "1,0"], 2),
        (["count", "--p", "1", "--prime", "3", "--target", NINES], 2),
        (["verify", "--pmax", NINES], 2),
    ],
    ids=[
        "invariants-p", "invariants-q", "count-p", "count-q1", "chow-n",
        "count-target", "verify-pmax",
    ],
)
def test_a_value_at_the_digit_limit_is_refused_in_a_short_message(
    capsys, argv, expected
):
    'an int whose derived values pass the limit is named or cut, never printed whole'
    code, out, err = run(capsys, *argv)
    assert code == expected
    assert out == ""
    assert len(err) < 200


def test_verify_core_scope(capsys):
    code, doc, _, _ = run_json(capsys, "verify", "--scope", "core", "--pmax", "3")
    assert code == 0
    assert doc["results"]["suites"] == ["core"]
    assert doc["results"]["checks_passed"] == doc["results"]["checks_run"] > 0


def test_verify_rejects_bad_scope(capsys):
    with pytest.raises(SystemExit) as info:
        main(["verify", "--scope", "everything"])
    assert info.value.code == 2
    capsys.readouterr()


ECHO_CASES = {
    "invariants": ["--n", "5", "--q", "3", "--p", "2"],
    "lecycles": ["--p", "2"],
    "chow": ["--n", "1", "--m", "1", "--classes", "1,1;1,1"],
    "closure": ["--ideal", "y1^2", "--monomial", "y1^2"],
    "count": ["--p", "1", "--prime", "3"],
    "verify": ["--scope", "core", "--pmax", "2"],
}


def _subparsers():
    (action,) = [
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    return action.choices


@pytest.mark.parametrize("subcommand", sorted(ECHO_CASES))
def test_inputs_echo_every_flag_the_subcommand_parsed(capsys, subcommand):
    'the flags a subparser declares, less --format and --out; verify adds sweep_limit'
    subparsers = _subparsers()
    assert set(ECHO_CASES) == set(subparsers)
    dests = {
        action.dest
        for action in subparsers[subcommand]._actions
        if action.dest not in ("help", "format", "out")
    }
    if subcommand == "verify":
        dests.add("sweep_limit")
    code, doc, _, _ = run_json(capsys, subcommand, *ECHO_CASES[subcommand])
    assert code == 0
    assert doc["command"] == subcommand
    assert set(doc["inputs"]) == dests


def test_out_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys,
        "invariants", "--n", "5", "--q", "3", "--p", "2",
        "--format", "json", "--out", str(target),
    )
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["command"] == "invariants"


@pytest.mark.parametrize("where", ["directory", "missing-parent"])
def test_out_path_that_cannot_be_written_is_invalid(capsys, tmp_path, where):
    target = tmp_path if where == "directory" else tmp_path / "missing" / "x.json"
    code, out, err = run(
        capsys, "invariants", "--n", "5", "--q", "3", "--p", "2", "--out", str(target)
    )
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {target}")


def test_table_format_mentions_elapsed(capsys):
    code, out, _ = run(capsys, "invariants", "--n", "5", "--q", "3", "--p", "2")
    assert code == 0
    assert "elapsed:" in out
    assert "le_numbers:" in out


def _elapsed_lines(out):
    lines = out.splitlines()
    return lines[lines.index("elapsed:") + 1 :]


@pytest.mark.parametrize(
    "argv",
    [
        ["invariants", "--n", "5", "--q", "3", "--p", "2"],
        ["lecycles", "--p", "3"],
        ["chow", "--n", "1", "--m", "1", "--classes", "1,1;1,1"],
        ["closure", "--ideal", "y1^2, y2^2", "--monomial", "y1*y2"],
        ["count", "--p", "2", "--prime", "5", "--jobs", "1"],
    ],
    ids=lambda argv: argv[0],
)
def test_table_elapsed_is_one_line_named_after_the_subcommand(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    (line,) = _elapsed_lines(out)
    assert re.fullmatch(rf"  {argv[0]}: \d+\.\d{{3}}s", line)


@pytest.mark.parametrize("scope", ["all", "core", "chow", "closure", "ffcount"])
def test_table_elapsed_of_verify_is_one_line_per_suite(capsys, scope):
    code, out, _ = run(capsys, "verify", "--scope", scope, "--pmax", "3")
    assert code == 0
    suites = ["core", "chow", "closure", "ffcount"] if scope == "all" else [scope]
    lines = _elapsed_lines(out)
    assert len(lines) == len(suites)
    for suite, line in zip(suites, lines):
        assert re.fullmatch(rf"  {suite}: \d+\.\d{{3}}s", line)


@pytest.mark.parametrize(
    "argv",
    [
        ["invariants", "--n", "1", "--q", "1", "--p", "9" * 5000],
        ["verify", "--pmax", "9" * 5000],
        ["count", "--p", "1", "--prime", "9" * 5000],
    ],
    ids=["invariants-p", "verify-pmax", "count-prime"],
)
def test_a_flag_past_the_digit_limit_exits_2_in_a_short_message(capsys, argv):
    'argparse prints a failed conversion whole, so no int flag leaves it a ValueError'
    with pytest.raises(SystemExit) as info:
        main(argv)
    out, err = capsys.readouterr()
    assert info.value.code == 2
    assert out == ""
    # argparse's usage lines come first; the error is the last line
    assert "has too many digits" in err.splitlines()[-1]
    assert len(err.splitlines()[-1]) < 200
    assert "9" * 50 not in err
