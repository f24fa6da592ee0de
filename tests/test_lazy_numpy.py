"""numpy is loaded by the point counter only, never at import or by other commands.

Each case runs in a fresh interpreter, because the pytest process has
usually imported numpy already.
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
argv = json.loads(sys.argv[1])
if argv is None:
    import {module}
    code = None
else:
    from dqp.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
print(json.dumps([code, "numpy" in sys.modules]))
"""


def numpy_loaded(argv=None, module="dqp"):
    """(exit code or None, whether numpy is in sys.modules) in a fresh child."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("DQP_BUDGET", None)
    done = subprocess.run(
        [sys.executable, "-c", CHILD.format(module=module), json.dumps(argv)],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    code, loaded = json.loads(done.stdout.splitlines()[-1])
    return code, loaded


@pytest.mark.parametrize("module", ["dqp", "dqp.cli"])
def test_import_leaves_numpy_unloaded(module):
    assert numpy_loaded(module=module) == (None, False)


@pytest.mark.parametrize(
    "argv",
    [
        ["invariants", "--n", "5", "--q", "3", "--p", "2"],
        ["lecycles", "--p", "3"],
        ["chow", "--n", "1", "--m", "1", "--classes", "1,1;1,1"],
        ["closure", "--ideal", "y1^2,y2^2", "--monomial", "y1*y2"],
        ["verify", "--scope", "closure", "--pmax", "2"],
    ],
    ids=lambda argv: argv[0],
)
def test_commands_without_point_counts_leave_numpy_unloaded(argv):
    assert numpy_loaded(argv) == (0, False)


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_count_loads_numpy(jobs):
    'positive control; with 2 jobs the first import may happen on worker threads'
    argv = ["count", "--p", "1", "--prime", "3", "--jobs", jobs]
    assert numpy_loaded(argv) == (0, True)
