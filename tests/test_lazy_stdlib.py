"""Commands load only the standard-library modules they use.

Each case runs in a fresh interpreter, because the pytest process has
imported these modules already.  The child lists the top-level modules
that the command added to ``sys.modules``.  ``concurrent.futures`` pulls
in ``logging`` (~11 ms by ``-X importtime``), and ``fractions`` pulls in
``decimal``: a one-thread count needs neither, and no dqp module uses
``fractions``.  ``csv`` is for ``--format csv`` alone.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

CHILD = """
import contextlib, io, json, sys
before = set(sys.modules)
from dqp.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(json.loads(sys.argv[1]))
print(json.dumps([code, sorted({name.partition(".")[0] for name in set(sys.modules) - before})]))
"""

COMMANDS = {
    "invariants": ["invariants", "--n", "5", "--q", "3", "--p", "2"],
    "lecycles": ["lecycles", "--p", "3"],
    "chow": ["chow", "--n", "1", "--m", "1", "--classes", "1,1;1,1"],
    "closure": ["closure", "--ideal", "y1^2,y2^2", "--monomial", "y1*y2"],
    "count-jobs-1": ["count", "--p", "2", "--prime", "5", "--jobs", "1"],
    "verify": ["verify", "--pmax", "2"],
}


def added_modules(argv):
    """(exit code, top-level modules the command added) in a fresh child."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("DQP_BUDGET", None)
    done = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(argv)],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    code, added = json.loads(done.stdout.splitlines()[-1])
    return code, set(added)


@pytest.mark.parametrize("argv", COMMANDS.values(), ids=COMMANDS.keys())
def test_commands_leave_csv_and_fractions_unloaded(argv):
    code, added = added_modules(argv)
    assert code == 0
    assert not added & {"csv", "fractions", "decimal"}, added


def test_one_thread_count_leaves_the_pool_unloaded():
    code, added = added_modules(COMMANDS["count-jobs-1"])
    assert code == 0
    assert not added & {"concurrent", "logging", "fractions", "decimal"}, added


def test_csv_is_loaded_for_csv_output_only():
    'the check above can see csv: the same command with --format csv loads it'
    code, added = added_modules(COMMANDS["invariants"] + ["--format", "csv"])
    assert code == 0
    assert "csv" in added
