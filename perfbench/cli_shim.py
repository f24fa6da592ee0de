"""Traced stand-in for ``python -m dqp.cli``: the cli-mix op of a traced run.

Usage: cli_shim.py SPANS_FILE <dqp arguments...>

Runs ``dqp.cli.main`` with the benchmark's span wrappers installed and
writes the spans to SPANS_FILE: a first line with the perf_counter times
at which this file started running, finished importing dqp and got
``main``'s return, then one span per line.  The parent folds them under
its op span.  Exit code and output are those of ``dqp``.
"""

import time

ENTERED = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import dqp.cli

    import spans

    imported = time.perf_counter()
    tracer = spans.Tracer()
    spans.install(tracer)
    code = dqp.cli.main(sys.argv[2:])
    sys.stdout.flush()
    returned = time.perf_counter()
    tracer.write(sys.argv[1], {"entered": ENTERED, "imported": imported, "returned": returned})
    return code


if __name__ == "__main__":
    sys.exit(main())
