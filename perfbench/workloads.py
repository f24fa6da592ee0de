"""The benchmark's workloads: inputs made from a seed, the call into dqp, and an oracle.

Every workload is a closed loop with one client.  Its ops come in
cycles; a cycle holds a fixed multiset of op shapes, and the seed picks
the instances and their order.  Runs measure whole cycles, so the mix of
cheap and dear ops is the same whatever the seed and the run length.

Oracles are computed here, never by the route under test: closed forms
for Lê numbers and point counts, a grouped binomial expansion for
bidegree intersection numbers, and sum e_i / a_i >= 1 (in Fraction) for
membership in the integral closure of a diagonal ideal (y_i^a_i) plus
generators already inside it.

Why these two workloads:

- cli-mix runs each op as a fresh ``python -m dqp.cli`` process.  Nearly
  all of its time is interpreter start, numpy's import and the rest of
  ``import dqp.cli``; it shows import, argument-parsing and rendering
  changes, and no change for kernel work.
- verify-all runs ``verify.run_verify("all", pmax=P)`` in process, P
  cycling 4..8: what someone validating the package runs.  The pmax-8
  op is mostly the symbolic determinant, the smaller ones mostly the
  closure suite; its ffcount sweep is many medium grids.  Every kernel
  layer runs here, so the traced run measures each of them.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Span files of traced runs; listed in the repository's .gitignore.
OUT = ROOT / ".perfbench_out"


@dataclass(frozen=True)
class Op:
    kind: str
    label: str
    args: tuple


# ---------------------------------------------------------------- oracles


def le_number(p: int, i: int) -> int:
    return 2**i * comb(p, p - i)


def point_count(p: int, q1: int, prime: int) -> int:
    n = p * (p + 1) // 2 + q1 + p
    return (prime**p - 1) * prime ** (n - p - 1)


def intersection_number(n: int, m: int, classes) -> int:
    """Coefficient of h^n k^m in prod (a h + b k), identical classes grouped.

    A group of c classes (a, b) contributes C(c, t) a^t b^(c-t) h^t
    k^(c-t); the table maps the h-degree reached so far to its
    coefficient, and the k-degree is whatever the classes left.
    """
    table = {0: 1}
    for (a, b), c in Counter(classes).items():
        grown: dict[int, int] = {}
        for u, coeff in table.items():
            for t in range(c + 1):
                if u + t <= n:
                    grown[u + t] = grown.get(u + t, 0) + coeff * comb(c, t) * a**t * b ** (c - t)
        table = grown
    return table.get(n, 0)


def in_diagonal_closure(a, e) -> bool:
    return sum(Fraction(x, y) for x, y in zip(e, a)) >= 1


def _diagonal_ideal(rng: random.Random, nvars: int, lo: int, hi: int, extra: int):
    """Exponents a_i of (y_i^a_i) and redundant generators inside its closure.

    Each redundant generator has every e_i < a_i, so it neither divides
    nor is divided by a diagonal generator, and sum e_i / a_i >= 1.
    """
    a = [rng.randint(lo, hi) for _ in range(nvars)]
    gens = [tuple(a[j] if j == i else 0 for j in range(nvars)) for i in range(nvars)]
    while len(gens) < nvars + extra:
        e = tuple(rng.randint(0, x - 1) for x in a)
        if in_diagonal_closure(a, e):
            gens.append(e)
    return a, gens


def _boundary_monomial(rng: random.Random, a) -> tuple[int, ...]:
    """A monomial near the boundary sum e_i / a_i = 1, on either side of it."""
    while True:
        e = tuple(rng.randint(0, x) for x in a)
        share = sum(Fraction(x, y) for x, y in zip(e, a))
        if any(e) and Fraction(1, 2) <= share <= Fraction(3, 2):
            return e


# -------------------------------------------------------------- cli-mix


def _mono_text(e) -> str:
    return "*".join(
        f"y{i + 1}" if x == 1 else f"y{i + 1}^{x}" for i, x in enumerate(e) if x
    )


def cli_env() -> dict:
    """Environment of dqp child processes: the source tree, no budget override."""
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    env.pop("DQP_BUDGET", None)
    return env


COUNT_SHAPES = [
    (p, q1, prime)
    for p in (1, 2, 3)
    for q1 in range(0, 8)
    for prime in (3, 5, 7, 11, 13)
    if prime ** (p * (p + 1) // 2 + q1 + p) <= 10**5
]


class CliMix:
    """Each op is one ``python -m dqp.cli <cmd> --format json`` process."""

    name = "cli-mix"
    in_process = False
    REFERENCE_S = 0.09
    KINDS = ("invariants", "lecycles", "chow", "closure-member", "closure-reduction", "count")

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.env = cli_env()

    def prepare(self) -> None:
        import dqp  # noqa: F401  (set-up includes the package import)

    def cycle(self, c: int, shuffle: bool = True) -> list[Op]:
        rng = random.Random(f"cli-mix:{self.seed}:{c}")
        ops = [self._op(kind, rng) for kind in self.KINDS]
        if shuffle:
            rng.shuffle(ops)
        return ops

    def _op(self, kind: str, rng: random.Random) -> Op:
        if kind == "invariants":
            p = rng.randint(1, 6)
            q = p * (p + 1) // 2 + rng.randint(0, 3)
            n = q + p + rng.randint(0, 3)
            argv = ["invariants", "--n", str(n), "--q", str(q), "--p", str(p)]
            return Op(kind, kind, (argv, (n, q, p)))
        if kind == "lecycles":
            p = rng.randint(2, 8)
            return Op(kind, f"lecycles:{p}", (["lecycles", "--p", str(p)], p))
        if kind == "chow":
            total = rng.randint(2, 10)
            n = rng.randint(0, total)
            classes = []
            for _ in range(total):
                a, b = rng.randint(0, 3), rng.randint(0, 3)
                if a == b == 0:
                    a = rng.randint(1, 3)
                classes.append((a, b))
            text = ";".join(f"{a},{b}" for a, b in classes)
            argv = ["chow", "--n", str(n), "--m", str(total - n), "--classes", text,
                    "--algorithm", "both"]
            return Op(kind, kind, (argv, intersection_number(n, total - n, classes)))
        if kind == "closure-member":
            a, gens = _diagonal_ideal(rng, rng.randint(2, 4), 2, 5, rng.randint(1, 3))
            e = _boundary_monomial(rng, a)
            argv = ["closure", "--ideal", ",".join(map(_mono_text, gens)),
                    "--monomial", _mono_text(e)]
            return Op(kind, kind, (argv, in_diagonal_closure(a, e)))
        if kind == "closure-reduction":
            a, gens = _diagonal_ideal(rng, rng.randint(2, 4), 2, 5, rng.randint(1, 3))
            full = gens + [_boundary_monomial(rng, a) for _ in range(rng.randint(1, 2))]
            diagonal = gens[: len(a)]
            argv = ["closure", "--mode", "reduction",
                    "--ideal", ",".join(map(_mono_text, diagonal)),
                    "--full", ",".join(map(_mono_text, full))]
            return Op(kind, kind, (argv, all(in_diagonal_closure(a, g) for g in full)))
        p, q1, prime = rng.choice(COUNT_SHAPES)
        target = rng.randint(1, prime - 1)
        argv = ["count", "--p", str(p), "--q1", str(q1), "--prime", str(prime),
                "--target", str(target), "--jobs", "1"]
        return Op(kind, kind, (argv, point_count(p, q1, prime)))

    def reference(self) -> float:
        """Seconds for a child interpreter that imports stdlib modules only.

        Of the references tried (this, ``-c pass``, ``import numpy`` and
        in-process Python work) it tracked the machine's speed during a
        cli-mix op best.
        """
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import argparse, csv, dataclasses, fractions, json"],
                       cwd=ROOT, env=self.env, check=True, timeout=60)
        return time.perf_counter() - started

    def run(self, op: Op, tracer=None):
        if tracer is None:
            argv = [sys.executable, "-m", "dqp.cli"]
        else:
            spans_path = OUT / f"child-{tracer.op}.jsonl"
            argv = [sys.executable, str(ROOT / "perfbench" / "cli_shim.py"), str(spans_path)]
        argv += [*op.args[0], "--format", "json"]
        started = time.perf_counter()
        done = subprocess.run(argv, cwd=ROOT, env=self.env, capture_output=True,
                              text=True, timeout=120)
        if tracer is not None:
            _merge_child_spans(tracer, spans_path, started, time.perf_counter())
        if done.returncode != 0:
            raise RuntimeError(f"exit {done.returncode}: {done.stderr.strip()[-500:]}")
        return json.loads(done.stdout)

    def check(self, op: Op, out) -> bool:
        if out.get("schema") != "dqp-invariants/1":
            return False
        if not all(c["status"] == "pass" for c in out["checks"]):
            return False
        res = out["results"]
        expected = op.args[1]
        if op.kind == "invariants":
            n, q, p = expected
            table = [[d, le_number(p, q - d) if q - p <= d else 0] for d in range(q, -1, -1)]
            sphere = p + n - q - 1
            return (
                res["le_numbers"] == table
                and res["sphere_dimension"] == sphere
                and res["reduced_euler_characteristic"] == (-1) ** sphere
                and res["euler_obstruction_sigma1"] == p % 2
            )
        if op.kind == "lecycles":
            p = expected
            rows = res["systems"]
            return [r["i"] for r in rows] == list(range(1, p + 1)) and all(
                r["le_number_chow"] == le_number(p, r["i"])
                and 2 * r["multiplicity_chow"] == le_number(p, r["i"])
                for r in rows
            )
        if op.kind == "chow":
            return res["ring"] == res["fulton"] == res["intersection_number"] == expected
        if op.kind == "closure-member":
            return res["member"] is expected and res["facet_route"] is expected
        if op.kind == "closure-reduction":
            return res["reduction"] is expected
        return res["observed"] == res["predicted"] == expected


def _merge_child_spans(tracer, path: Path, started: float, finished: float) -> None:
    """Fold a traced child's spans under the open op span, shifting ids.

    The child adds its own start-up (spawn to its first line), import and
    exit (return from main to the parent seeing it end) as spans, so the
    op span's self time is only what neither side traced.
    """
    op_span = tracer.op_span
    with open(path, encoding="utf-8") as handle:
        head = json.loads(handle.readline())
        rows = [json.loads(line) for line in handle]
    path.unlink()
    tracer.add("cli.interpreter", started, head["entered"], op_span)
    tracer.add("cli.import", head["entered"], head["imported"], op_span)
    tracer.add("cli.exit", head["returned"], finished, op_span)
    base = len(tracer.spans)
    for row in rows:
        parent = op_span if row["parent"] is None else row["parent"] + base
        tracer.add(row["name"], row["start"], row["end"], parent, row["work"])


# ----------------------------------------------------------- verify-all


class VerifyAll:
    """Each op is ``verify.run_verify("all", pmax=P)`` with P cycling 4..8."""

    name = "verify-all"
    in_process = True
    PMAX = (4, 5, 6, 7, 8)
    REFERENCE_S = 0.05

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def prepare(self) -> None:
        from dqp import verify

        self.verify = verify

    def cycle(self, c: int, shuffle: bool = True) -> list[Op]:
        return [
            Op("verify", f"verify-p{p}", (p, f"{self.seed}:{c * len(self.PMAX) + k}"))
            for k, p in enumerate(self.PMAX)
        ]

    @staticmethod
    def reference() -> float:
        """Seconds for fixed pure-Python work of the kinds verify-all's ops do.

        Products of sparse polynomials keyed by exponent tuples, as in the
        symbolic determinant, and Fraction row reduction, as in the
        closure suite's simplex.  It calls no dqp code.
        """
        started = time.perf_counter()
        rng = random.Random(0)
        product: dict[tuple[int, ...], int] = {}
        for _ in range(100):
            a, b = ({tuple(rng.randint(0, 2) for _ in range(6)): rng.randint(-3, 3)
                     for _ in range(12)} for _ in range(2))
            for ea, ca in a.items():
                for eb, cb in b.items():
                    e = tuple(x + y for x, y in zip(ea, eb))
                    product[e] = product.get(e, 0) + ca * cb
        size = 14
        rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(size + 1)]
                for _ in range(size)]
        for k in range(size):
            pivot = next((r for r in range(k, size) if rows[r][k]), None)
            if pivot is None:
                continue
            rows[k], rows[pivot] = rows[pivot], rows[k]
            for r in range(k + 1, size):
                f = rows[r][k] / rows[k][k]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[k])]
        return time.perf_counter() - started

    def run(self, op: Op, tracer=None):
        pmax, seed = op.args
        return self.verify.run_verify("all", pmax=pmax, seed=seed)

    def check(self, op: Op, report) -> bool:
        res = report.results
        return (
            res["suites"] == ["core", "chow", "closure", "ffcount"]
            and res["checks_run"] == 20
            and res["checks_passed"] == 20
            and len(report.checks) == 20
            and all(c.status == "pass" for c in report.checks)
        )


WORKLOADS = {w.name: w for w in (CliMix, VerifyAll)}


def warmups(workload) -> list[Op]:
    """One op of each kind for the warm-up: the first of seed 0's first
    cycle, whatever the workload's seed, so that set-up does the same
    work on every run."""
    first: dict[str, Op] = {}
    for op in type(workload)(0).cycle(0, shuffle=False):
        first.setdefault(op.kind, op)
    return list(first.values())
