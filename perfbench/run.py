"""Benchmark of dqp: one workload, one seed, one run; prints its metrics.

Usage, from the root of a dqp checkout (no install step; dqp is imported
from ``src``):

    python3 perfbench/run.py --workload {cli-mix,verify-all} \
        --seed N --seconds S --trace {0,1}

The workloads and their oracles are in ``workloads.py``.  A run measures
whole cycles of ops until S seconds, not counting the reference timings
below, have passed, checks every op's
output against the benchmark's own oracle, and prints one line per
metric, then a JSON object as the last line of stdout.

With ``--trace 0`` the metrics are the end-to-end ones.  On a shared
2-core x86-64 virtual machine the speed of the machine drifted by up to
40% within minutes, and the quartile spread of the times over ten seeds
reached 0.26-0.52 of their median, beyond the bounds.  So each workload
times its ``reference()``, fixed work of the same kind as its ops that
calls no dqp code, right before every op and set-up.  It scales each
op's time by REFERENCE_S over the reference timed right before it, and
the median set-up time by REFERENCE_S over the median of the
references timed before the set-ups: the times a machine on which the
reference takes REFERENCE_S would show.  The metrics below are taken
over the scaled times.  A change to dqp moves them as it moves the
measured times.  The line ``as measured: {...}`` gives the metrics over
the unscaled times and the reference's median as JSON.

  setup_s       median over seven fresh processes of the time from
                spawning one to its first timed op: interpreter start,
                ``import dqp``, making the inputs, one warm-up op per kind;
  ops_per_s     ops that passed their oracle per second spent in ops
                (the sum of op latencies: the timed phase less the
                benchmark's own oracle checks and reference timings);
  op_p50_ms     median op latency;
  op_p90_ms     90th-percentile op latency.  The line ``p90_qualifies``
                says whether at least ten samples lie beyond it; where
                they do not, p90 is indicative only;
  ok_ratio      ops that passed / ops attempted, i.e. 1 - fail_ratio.  An
                op fails if it raises, exits non-zero, reports a failed
                check or disagrees with the oracle;
  peak_rss_mib  ru_maxrss of this process, or for cli-mix the largest of
                its dqp child processes.

With ``--trace 1`` the run takes S seconds to run each cycle twice,
untraced and with spans around every call into dqp's public functions
(alternating which goes first).  It reports per-op self time and calls
per layer (see ``spans.py``), the import layer from ``python -X
importtime``, and the traced against untraced time as
``trace.overhead_ratio``.  The spans are written
to ``.perfbench_out/spans-<workload>-<seed>.jsonl``.

Exit code 0 means the run completed, whatever its ``correct`` field
says; it is 2 when there is no dqp source tree to benchmark.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 7
# Prefix of the line that gives the times as measured, before any scaling, as JSON.
MEASURED = "as measured: "
IMPORT_PROBES = 5
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ok_ratio": "ratio",
    "peak_rss_mib": "MiB",
}


def prepare(workload) -> None:
    """Import dqp, make the first cycle's inputs and run one op of each kind."""
    import workloads

    workload.prepare()
    for op in workloads.warmups(workload):
        # A broken op is reported here and counted when the timed phase meets it.
        try:
            workload.run(op)
        except Exception:
            print(f"warm-up op failed: {traceback.format_exc(limit=3)}", file=sys.stderr)


class Result:
    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.failed = 0
        self.cycles = 0
        self.references: list[float] = []  # workload.reference() right before each op


def run_cycle(workload, c: int, result: Result, tracer=None) -> None:
    """Run cycle `c` of the workload, adding its latencies and failures to `result`."""
    for op in workload.cycle(c):
        result.references.append(workload.reference())
        if tracer is not None:
            tracer.begin_op(len(result.latencies), op.label)
        t0 = time.perf_counter()
        try:
            out = workload.run(op, tracer)
            error = None
        except Exception:
            error = traceback.format_exc(limit=3)
        latency = time.perf_counter() - t0
        result.latencies.append(latency)
        if tracer is not None:
            tracer.end(tracer.op_span)
        if error is None:
            try:
                ok = workload.check(op, out)
            except Exception:
                error = traceback.format_exc(limit=3)
            else:
                if not ok:
                    error = f"output disagrees with the oracle: {op}"
        if error is not None:
            result.failed += 1
            if result.failed <= 3:
                print(f"op failed: {error}", file=sys.stderr)
    result.cycles += 1


def measure(workload, seconds: float) -> Result:
    """Run whole cycles until `seconds`, less the reference timings, have passed."""
    result = Result()
    started = time.perf_counter()
    while True:
        run_cycle(workload, result.cycles, result)
        if time.perf_counter() - started - sum(result.references) >= seconds:
            return result


def setup_probe(name: str, seed: int) -> float:
    """Seconds from spawning a fresh process to the point its first timed op would start."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", name,
            "--seed", str(seed), "--setup-probe"]
    spawned = time.perf_counter()
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
    return float(done.stdout.strip().splitlines()[-1]) - spawned


def import_layer() -> dict[str, float]:
    """Interpreter floor and ``import dqp.cli`` (numpy's share apart), medians in ms."""
    import workloads

    env = workloads.cli_env()
    floor, total, numpy_ms = [], [], []
    for _ in range(IMPORT_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=env, check=True)
        floor.append((time.perf_counter() - t0) * 1e3)
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import dqp.cli"],
            cwd=ROOT, env=env, capture_output=True, text=True, check=True,
        )
        dqp_us = numpy_us = 0
        for line in done.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            cumulative, field = int(parts[1]), parts[2]
            name = field.strip()
            top_level = len(field) - len(field.lstrip()) == 1
            if top_level and (name == "dqp" or name.startswith("dqp.")):
                dqp_us += cumulative
            if name == "numpy" and not numpy_us:
                numpy_us = cumulative
        total.append(dqp_us / 1e3)
        numpy_ms.append(numpy_us / 1e3)
    return {
        "cli.interpreter_floor_ms": statistics.median(floor),
        "cli.import_ms": statistics.median(total),
        "cli.import_numpy_ms": statistics.median(numpy_ms),
    }


def _p90(latencies: list[float]) -> float:
    if len(latencies) < 2:
        return latencies[0]
    return statistics.quantiles(latencies, n=10, method="inclusive")[8]


def _times(latencies: list[float], setups: list[float], passed: int) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": passed / sum(latencies),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p90_ms": _p90(latencies) * 1e3,
    }


def end_to_end(workload, seed: int, seconds: float) -> tuple[Result, dict, list[str]]:
    prepare(workload)
    result = measure(workload, seconds)
    if workload.in_process:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        rss_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    # Probes run after the timed phase so that ru_maxrss above covers only
    # this process and its dqp children.
    setups, references = [], []
    for _ in range(SETUP_PROBES):
        references.append(workload.reference())
        setups.append(setup_probe(workload.name, seed))
    lat = result.latencies
    attempted = len(lat)
    passed = attempted - result.failed
    measured = _times(lat, setups, passed)
    reference_ms = statistics.median(result.references + references) * 1e3
    lat = [x * workload.REFERENCE_S / r for x, r in zip(lat, result.references)]
    # One reference sample is noisy next to a set-up of a second or two,
    # so the set-ups share the median of the references taken before them.
    setups = [x * workload.REFERENCE_S / statistics.median(references) for x in setups]
    values = _times(lat, setups, passed)
    p90 = values["op_p90_ms"] / 1e3
    beyond = sum(1 for x in lat if x > p90)
    values["ok_ratio"] = passed / attempted
    values["peak_rss_mib"] = rss_kib / 1024
    notes = [
        # The last line may hold only the metrics, so these go on lines of their own.
        MEASURED + json.dumps({**measured, "reference_ms": reference_ms}),
        f"setup_s from {SETUP_PROBES} set-ups: " + ", ".join(f"{s:.4f}" for s in setups),
        f"op_p50_ms and op_p90_ms over n={attempted} ops",
        f"p90_qualifies = {'yes' if beyond >= 10 else 'no'} ({beyond} ops beyond p90, 10 needed)",
        f"fail_ratio = {result.failed / attempted:.6g} ({result.failed} failed / {attempted} attempted)",
    ]
    return result, {k: (values[k], unit) for k, unit in END_TO_END.items()}, notes


def traced(workload, seed: int, seconds: float) -> tuple[Result, dict, list[str]]:
    import spans
    import workloads

    prepare(workload)
    values = import_layer()
    tracer = spans.Tracer()
    workloads.OUT.mkdir(exist_ok=True)
    untraced, result = Result(), Result()
    started = time.perf_counter()
    # Every cycle runs both untraced and traced, the two alternating which
    # goes first, so that the machine's drift stays out of the overhead ratio.
    while not untraced.cycles or time.perf_counter() - started < seconds:
        c = untraced.cycles
        if c % 2:
            run_cycle(workload, c, untraced)
        undo = spans.install(tracer) if workload.in_process else []
        run_cycle(workload, c, result, tracer)
        spans.restore(undo)
        if not c % 2:
            run_cycle(workload, c, untraced)
    values.update(spans.per_layer(tracer))
    values["trace.overhead_ratio"] = sum(result.latencies) / sum(untraced.latencies)
    path = workloads.OUT / f"spans-{workload.name}-{seed}.jsonl"
    tracer.write(path, {"ops": tracer.op_labels})
    units = dict(spans.per_layer_names())
    result.latencies += untraced.latencies
    result.failed += untraced.failed
    notes = [f"{len(tracer.spans)} spans over {untraced.cycles} cycles written to {path.relative_to(ROOT)}"]
    return result, {k: (values[k], units[k]) for k in units}, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("cli-mix", "verify-all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "dqp" / "cli.py").is_file():
        print(f"error: no dqp source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    if args.setup_probe:
        prepare(workload)
        print(repr(time.perf_counter()))
        return 0

    run = traced if args.trace else end_to_end
    result, values, notes = run(workload, args.seed, args.seconds)
    attempted = len(result.latencies)
    print(f"workload {args.workload}, seed {args.seed}: {attempted} ops in whole cycles")
    for note in notes:
        print(note)
    for name, (value, unit) in values.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
