"""Commands load only the standard-library modules they use.

Each case reads the top-level modules that the command added to
``sys.modules`` in a fresh interpreter (the ``child`` fixture, see
conftest.py).  ``concurrent.futures`` pulls
in ``logging`` (~11 ms by ``-X importtime``), and ``fractions`` pulls in
``decimal``: a one-thread count needs neither, and no dqp module uses
``fractions``.  ``csv`` is for ``--format csv`` alone.
"""

import pytest

COMMANDS = {
    "invariants": ["invariants", "--n", "5", "--q", "3", "--p", "2"],
    "lecycles": ["lecycles", "--p", "3"],
    "chow": ["chow", "--n", "1", "--m", "1", "--classes", "1,1;1,1"],
    "closure": ["closure", "--ideal", "y1^2,y2^2", "--monomial", "y1*y2"],
    "count-jobs-1": ["count", "--p", "2", "--prime", "5", "--jobs", "1"],
    "verify": ["verify", "--pmax", "2"],
}


@pytest.mark.parametrize("argv", COMMANDS.values(), ids=COMMANDS.keys())
def test_commands_leave_csv_and_fractions_unloaded(child, argv):
    code, _, _, added = child(argv)
    assert code == 0
    assert not added & {"csv", "fractions", "decimal"}, added


def test_one_thread_count_leaves_the_pool_unloaded(child):
    code, _, _, added = child(COMMANDS["count-jobs-1"])
    assert code == 0
    assert not added & {"concurrent", "logging", "fractions", "decimal"}, added


def test_csv_is_loaded_for_csv_output_only(child):
    'the check above can see csv: the same command with --format csv loads it'
    code, _, _, added = child(COMMANDS["invariants"] + ["--format", "csv"])
    assert code == 0
    assert "csv" in added
