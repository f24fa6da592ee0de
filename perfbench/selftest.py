"""Self-test of the benchmark: a corrupted output must count as a failed op.

Usage, from the root of a dqp checkout:

    python3 perfbench/selftest.py

For each workload it runs one op of each kind through ``run.run_cycle``
twice: as the program returns it, which must give no failures, and with
every other output corrupted, which must fail exactly those ops.  It
traces ``ffcount.count_points`` with two worker threads, which no
workload runs, to check the spans of worker threads and the self times
of parallel children.  It also checks that BENCHMARK.json names the
metrics the runs print.  Exits 0 when all of that holds.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import run
import spans
import workloads


def corrupt(op: workloads.Op, out):
    """The output with one value changed so that a correct oracle rejects it."""
    if isinstance(out, dict):
        res = out["results"]
        if op.kind == "lecycles":
            res["systems"][-1]["le_number_chow"] += 2
        elif op.kind in ("closure-member", "closure-reduction"):
            key = "member" if op.kind == "closure-member" else "reduction"
            res[key] = not res[key]
        else:
            key = {"invariants": "sphere_dimension", "chow": "ring", "count": "observed"}[op.kind]
            res[key] += 1
        return out
    out.checks[-1] = dataclasses.replace(out.checks[-1], status="fail")
    return out


class Corrupting:
    """A workload whose every other output is corrupted."""

    def __init__(self, inner, ops, every: int) -> None:
        self.inner, self.ops, self.every = inner, ops, every

    def cycle(self, c):
        return self.ops

    def reference(self):
        return self.inner.reference()

    def run(self, op, tracer=None):
        out = self.inner.run(op, tracer)
        return corrupt(op, out) if self.every and self.ops.index(op) % self.every == 0 else out

    def check(self, op, out):
        return self.inner.check(op, out)


def worker_spans() -> list[str]:
    """Problems with the spans of a count_points call split over two threads."""
    from dqp import ffcount

    tracer = spans.Tracer()
    undo = spans.install(tracer)
    try:
        op = tracer.begin_op(0, "count-jobs-2")
        report = ffcount.count_points(ffcount.NormalFormSpec(3), 5, jobs=2)
        tracer.end(op)
    finally:
        spans.restore(undo)
    table = tracer.spans
    selfs = spans.self_times(table)
    (count,) = [i for i, s in enumerate(table) if s[spans.NAME] == "ffcount.count_points"]
    slices = [i for i, s in enumerate(table) if s[spans.NAME] == "ffcount.count_nonzero_y_slice"]
    problems = []
    if report.observed_count != workloads.point_count(3, 0, 5):
        problems.append(f"count_points gave {report.observed_count}")
    if table[count][spans.PARENT] != op or len(slices) != 2:
        problems.append(f"count_points span not under the op, or {len(slices)} slices")
    if any(table[i][spans.PARENT] != count for i in slices):
        problems.append("a worker's slice span is not under the count_points span")
    if min(selfs) < 0:
        problems.append(f"negative self time {min(selfs)}")
    # The slices may overlap: the count_points span's self time is its
    # duration less the union of their intervals, never less the sum.
    intervals = sorted((table[i][spans.START], table[i][spans.END]) for i in slices)
    union = sum(hi - lo for lo, hi in intervals)
    (lo0, hi0), (lo1, hi1) = intervals
    overlap = min(hi0, hi1) - lo1
    if overlap <= 0:
        problems.append("the two slices did not overlap in time")
    union -= max(0.0, overlap)
    duration = table[count][spans.END] - table[count][spans.START]
    if abs(selfs[count] - (duration - union)) > 1e-9:
        problems.append("count_points self time is not its duration less its slices' union")
    # On the client thread the spans nest: self times add up to the op.
    op_total = table[op][spans.END] - table[op][spans.START]
    if abs(selfs[op] + duration - op_total) > 1e-9:
        problems.append("op self time plus count_points does not give the op's time")
    print(f"count_points, jobs=2: {len(table)} spans, slices under count_points, "
          f"{len(problems)} problems")
    return problems


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    problems = []
    for name, cls in workloads.WORKLOADS.items():
        workload = cls(0)
        workload.prepare()
        ops = workloads.warmups(workload)
        clean, dirty = run.Result(), run.Result()
        run.run_cycle(Corrupting(workload, ops, 0), 0, clean)
        run.run_cycle(Corrupting(workload, ops, 2), 0, dirty)
        expected = (len(ops) + 1) // 2
        print(f"{name}: {len(ops)} ops, {clean.failed} failed as returned, "
              f"{dirty.failed} failed with {expected} corrupted")
        if clean.failed or dirty.failed != expected:
            problems.append(name)

    problems += worker_spans()

    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if declared != run.END_TO_END:
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if declared != dict(spans.per_layer_names()):
        problems.append("BENCHMARK.json per_layer differs from spans.per_layer_names()")
    if problems:
        print("self-test failed: " + "; ".join(problems))
        return 1
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
