"""Each command executes only the dqp modules it uses.

``import dqp`` registers every submodule in ``sys.modules`` as a lazy
module that runs on its first attribute access.  Each case runs in a
fresh interpreter, because the pytest process has executed every module
already.  The child reports which ``dqp.*`` modules are registered and
which have executed: a lazy module turns into a plain ``ModuleType`` when
it runs, and reading its type does not run it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

LAZY = ["chow", "core", "ffcount", "integral_closure", "le_engine", "report", "verify"]

CHILD = """
import contextlib, io, json, sys, types
argv = json.loads(sys.argv[1])
{statement}
code = None
if argv is not None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = dqp.cli.main(argv)
dqp_modules = {{n: m for n, m in sys.modules.items() if n.startswith("dqp.")}}
executed = [n for n, m in dqp_modules.items() if type(m) is types.ModuleType]
print(json.dumps([code, sorted(dqp_modules), sorted(executed)]))
"""


def loaded(argv=None, statement="import dqp.cli"):
    """(exit code or None, registered dqp.* modules, executed ones) in a child."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("DQP_BUDGET", None)
    done = subprocess.run(
        [sys.executable, "-c", CHILD.format(statement=statement), json.dumps(argv)],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    code, registered, executed = json.loads(done.stdout.splitlines()[-1])
    return code, registered, [name.removeprefix("dqp.") for name in executed]


def test_import_executes_only_errors():
    _, registered, executed = loaded(statement="import dqp")
    assert registered == sorted(f"dqp.{name}" for name in LAZY + ["errors"])
    assert executed == ["errors"]


def test_import_cli_registers_every_submodule():
    'perfbench/spans.py finds the modules it wraps in sys.modules after this import'
    _, registered, executed = loaded()
    assert registered == sorted(f"dqp.{name}" for name in LAZY + ["cli", "errors"])
    assert executed == ["cli", "errors", "report"]


@pytest.mark.parametrize(
    "argv, modules",
    [
        (["invariants", "--n", "5", "--q", "3", "--p", "2"], ["core"]),
        (["lecycles", "--p", "3"], ["chow", "core", "le_engine"]),
        (["chow", "--n", "1", "--m", "1", "--classes", "1,1;1,1"], ["chow"]),
        (["closure", "--ideal", "y1^2,y2^2", "--monomial", "y1*y2"], ["integral_closure"]),
        (["count", "--p", "2", "--prime", "5", "--jobs", "2"], ["core", "ffcount"]),
        (["verify", "--scope", "closure", "--pmax", "2"], ["integral_closure", "verify"]),
        (["verify", "--pmax", "2"], LAZY),
    ],
    ids=["invariants", "lecycles", "chow", "closure", "count", "verify-closure", "verify"],
)
def test_command_executes_only_its_modules(argv, modules):
    code, _, executed = loaded(argv)
    assert code == 0
    assert executed == sorted(set(modules) | {"cli", "errors", "report"})


def test_every_public_name_resolves():
    statement = (
        "import dqp\n"
        "from dqp import *\n"
        "missing = [n for n in dqp.__all__ if n not in globals()]\n"
        "assert not missing, missing\n"
        "assert set(dqp.__all__) <= set(dir(dqp))\n"
        "assert dqp.run_verify is dqp.verify.run_verify\n"
        "assert dqp.Bidegree is sys.modules['dqp.chow'].Bidegree\n"
    )
    _, _, executed = loaded(statement=statement)
    assert executed == sorted(LAZY + ["errors"])


def test_concurrent_first_use_through_the_package():
    'threads that first touch the public names together all get them'
    statement = (
        "import dqp, threading\n"
        "sys.setswitchinterval(1e-6)\n"
        "names = ['is_reduction', 'run_verify', 'count_points', 'Bidegree']\n"
        "barrier = threading.Barrier(8)\n"
        "errors = []\n"
        "def touch(k):\n"
        "    barrier.wait()\n"
        "    try:\n"
        "        getattr(dqp, names[k % len(names)])\n"
        "    except AttributeError as exc:\n"
        "        errors.append(exc)\n"
        "threads = [threading.Thread(target=touch, args=(k,)) for k in range(8)]\n"
        "for t in threads: t.start()\n"
        "for t in threads: t.join(30)\n"
        "assert not any(t.is_alive() for t in threads)\n"
        "assert not errors, errors\n"
    )
    _, _, executed = loaded(statement=statement)
    assert {"chow", "ffcount", "integral_closure", "verify"} <= set(executed)
