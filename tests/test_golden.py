"""Byte-exact golden outputs for every README CLI example.

Each `.json` file under tests/golden/ was written by the command named
beside it (with `--format json --out tests/golden/<name>.json`), and each
`.csv` file by the command of the same name in CSV_CASES (with
`--format csv --out tests/golden/<name>.csv`).  A golden file changes
only together with an intended output change that CHANGES.md explains.
"""

from pathlib import Path

import pytest

from dqp.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "invariants": ["invariants", "--n", "5", "--q", "3", "--p", "2"],
    "lecycles-p3": ["lecycles", "--p", "3"],
    "lecycles-p3-i2": ["lecycles", "--p", "3", "--i", "2"],
    "chow-both": ["chow", "--n", "1", "--m", "1", "--classes", "1,1;1,1"],
    "chow-fulton": [
        "chow", "--n", "2", "--m", "1", "--classes", "1,1;1,1;0,2",
        "--algorithm", "fulton",
    ],
    "closure-membership": ["closure", "--ideal", "y1^2, y2^2", "--monomial", "y1*y2"],
    "closure-reduction": [
        "closure", "--ideal", "y1^2, y2^2", "--full", "y1^2, y1*y2, y2^2",
        "--mode", "reduction",
    ],
    "count-p2": ["count", "--p", "2", "--prime", "5", "--jobs", "1"],
    "count-p2-q1": [
        "count", "--p", "2", "--q1", "1", "--prime", "3", "--target", "2",
        "--jobs", "4",
    ],
    "verify-seed42": ["verify", "--seed", "42"],
    "verify-closure-pmax5": [
        "verify", "--scope", "closure", "--pmax", "5", "--format", "json",
    ],
    "verify-core-pmax8": ["verify", "--seed", "42", "--scope", "core", "--pmax", "8"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_json(name, capsys):
    code = main(CASES[name] + ["--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / f"{name}.json").read_bytes().decode("utf-8")


# One command per subcommand, so every CSV row shape is pinned.
CSV_CASES = [
    "invariants",
    "lecycles-p3",
    "chow-both",
    "closure-membership",
    "count-p2",
    "verify-core-pmax8",
]


@pytest.mark.parametrize("name", CSV_CASES)
def test_golden_csv(name, capsys):
    code = main(CASES[name] + ["--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / f"{name}.csv").read_bytes().decode("utf-8")
