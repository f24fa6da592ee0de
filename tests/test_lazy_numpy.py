"""No import and no subcommand loads a third-party module; numpy least of all.

Each case reads the top-level modules that the import or command added
in a fresh interpreter with numpy blocked (the ``child`` fixture, see
conftest.py), less the standard library and the package itself.
"""

import sys

import pytest


def third_party_loaded(child, argv=None, module="dqp"):
    """(exit code or None, third-party modules loaded) in a fresh child."""
    result = child(argv) if argv is not None else child(statement=f"import {module}")
    return result.code, sorted(result.added - set(sys.stdlib_module_names) - {"dqp"})


@pytest.mark.parametrize("module", ["dqp", "dqp.cli"])
def test_import_leaves_numpy_unloaded(child, module):
    assert third_party_loaded(child, module=module) == (None, [])


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
def test_commands_without_point_counts_leave_numpy_unloaded(child, argv):
    assert third_party_loaded(child, argv) == (0, [])


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--p", "2", "--prime", "5", "--jobs", "1"],
        ["count", "--p", "2", "--prime", "5", "--jobs", "2"],
        ["verify", "--scope", "ffcount"],
    ],
    ids=["count-jobs-1", "count-jobs-2", "verify-ffcount"],
)
def test_point_counts_leave_numpy_unloaded(child, argv):
    'with 2 jobs the slices are counted on worker threads'
    assert third_party_loaded(child, argv) == (0, [])
