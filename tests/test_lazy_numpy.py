"""No import and no subcommand loads a third-party module; numpy least of all.

Each case runs in a fresh interpreter, because the pytest process may
have imported third-party modules already.  The child blocks numpy
(``sys.modules["numpy"] = None`` makes every import of it fail), then
lists the modules that the import or command added to ``sys.modules``
outside the standard library and the package itself.
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
sys.modules["numpy"] = None
before = set(sys.modules)
argv = json.loads(sys.argv[1])
if argv is None:
    import {module}
    code = None
else:
    from dqp.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
added = {{name.partition(".")[0] for name in set(sys.modules) - before}}
print(json.dumps([code, sorted(added - set(sys.stdlib_module_names) - {{"dqp"}})]))
"""


def third_party_loaded(argv=None, module="dqp"):
    """(exit code or None, third-party modules loaded) in a fresh child."""
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
    assert third_party_loaded(module=module) == (None, [])


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
    assert third_party_loaded(argv) == (0, [])


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--p", "2", "--prime", "5", "--jobs", "1"],
        ["count", "--p", "2", "--prime", "5", "--jobs", "2"],
        ["verify", "--scope", "ffcount"],
    ],
    ids=["count-jobs-1", "count-jobs-2", "verify-ffcount"],
)
def test_point_counts_leave_numpy_unloaded(argv):
    'with 2 jobs the slices are counted on worker threads'
    assert third_party_loaded(argv) == (0, [])
