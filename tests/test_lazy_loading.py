"""Each command executes only the dqp modules it uses.

``import dqp`` registers every submodule in ``sys.modules`` as a lazy
module that runs on its first attribute access.  Each case reads the
registered and executed ``dqp.*`` modules of a fresh interpreter (the
``child`` fixture, see conftest.py).
"""
import pytest

LAZY = ["chow", "core", "ffcount", "integral_closure", "le_engine", "report", "verify"]


def test_import_executes_only_errors(child):
    _, registered, executed, _ = child(statement="import dqp")
    assert registered == sorted(f"dqp.{name}" for name in LAZY + ["errors"])
    assert executed == ["errors"]


def test_import_cli_registers_every_submodule(child):
    'perfbench/spans.py finds the modules it wraps in sys.modules after this import'
    _, registered, executed, _ = child()
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
def test_command_executes_only_its_modules(child, argv, modules):
    code, _, executed, _ = child(argv)
    assert code == 0
    assert executed == sorted(set(modules) | {"cli", "errors", "report"})


def test_every_public_name_resolves(child):
    statement = (
        "import dqp\n"
        "from dqp import *\n"
        "missing = [n for n in dqp.__all__ if n not in globals()]\n"
        "assert not missing, missing\n"
        "assert set(dqp.__all__) <= set(dir(dqp))\n"
        "assert dqp.run_verify is dqp.verify.run_verify\n"
        "assert dqp.BidegreeSystem is sys.modules['dqp.chow'].BidegreeSystem\n"
    )
    executed = child(statement=statement).executed
    assert executed == sorted(LAZY + ["errors"])


def test_concurrent_first_use_through_the_package(child):
    'threads that first touch the public names together all get them'
    statement = (
        "import dqp, threading\n"
        "sys.setswitchinterval(1e-6)\n"
        "names = ['is_reduction', 'run_verify', 'count_points', 'BidegreeSystem']\n"
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
    executed = child(statement=statement).executed
    assert {"chow", "ffcount", "integral_closure", "verify"} <= set(executed)
