"""The import contract's child interpreter, shared by the test_lazy_* modules.

The pytest process has imported every dqp module and many others
already, so each import check runs in a fresh interpreter.  The child
blocks numpy (``sys.modules["numpy"] = None`` makes every import of it
fail), runs one statement and then, given an argv, ``dqp.cli.main``.
It reports the exit code, the ``dqp.*`` modules registered in
``sys.modules`` and those executed (a lazy module turns into a plain
``ModuleType`` when it runs, and reading its type does not run it), and
the top-level modules added since it started.  Children are cached by
argv and statement, so a request that several checks read runs once.
"""

import functools
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

CHILD = """
import contextlib, io, json, sys, types
sys.modules["numpy"] = None
before = set(sys.modules)
argv, statement = json.loads(sys.argv[1])
exec(statement)
code = None
if argv is not None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = dqp.cli.main(argv)
dqp_modules = {n: m for n, m in sys.modules.items() if n.startswith("dqp.")}
executed = [n for n, m in dqp_modules.items() if type(m) is types.ModuleType]
added = {n.partition(".")[0] for n in set(sys.modules) - before}
print(json.dumps([code, sorted(dqp_modules), sorted(executed), sorted(added)]))
"""


class Child(NamedTuple):
    code: int | None
    registered: list[str]
    executed: list[str]  # without the "dqp." prefix
    added: set[str]


@functools.cache
def _run_child(argv: tuple[str, ...] | None, statement: str) -> Child:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    request = json.dumps([None if argv is None else list(argv), statement])
    done = subprocess.run(
        [sys.executable, "-c", CHILD, request],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    code, registered, executed, added = json.loads(done.stdout.splitlines()[-1])
    executed = [name.removeprefix("dqp.") for name in executed]
    return Child(code, registered, executed, set(added))


@pytest.fixture(scope="session")
def child():
    """child(argv=None, statement="import dqp.cli") -> Child, one run per request."""
    def run(argv=None, statement="import dqp.cli"):
        return _run_child(None if argv is None else tuple(argv), statement)

    return run
