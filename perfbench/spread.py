"""Run-to-run spread of the end-to-end metrics over ten seeds.

Usage, from the root of a dqp checkout:

    python3 perfbench/spread.py

Runs ``run.py`` once per workload of BENCHMARK.json and seed 0..9 with
its ``run_seconds``, then prints for each end-to-end metric its median,
quartiles (``statistics.quantiles(values, n=4)``) and the quartile
distance as a share of the median, against the metric's bound.  As the
reported times are scaled by each workload's reference, it also prints
the spreads of the times as measured and of the reference itself.  A
spread below a third of the bound is "ok", below the bound "wide"; the
exit code is 1 if any reported spread but that of ``setup_s`` reaches
its bound, the point at which the benchmark cannot resolve a change of
that size.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(10)
MEASURED = "as measured: "  # run.py's line of times before scaling


def show(name: str, values: list[float], bound: float | None) -> bool:
    """Print one metric's spread; False if it reaches the bound."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    share = (q3 - q1) / median
    flag = ""
    if bound is not None:
        flag = f"bound {bound}  " + (
            "ok" if share < bound / 3 else "wide" if share < bound else "OVER BOUND"
        )
    print(f"  {name:14s} median {median:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
          f"spread {share:7.4f}  {flag}")
    return bound is None or share < bound


def main() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    within = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs, measured = [], []
        for seed in SEEDS:
            argv = [*spec["command"], "--workload", workload, "--seed", str(seed),
                    "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
            lines = done.stdout.strip().splitlines()
            runs.append(json.loads(lines[-1]))
            line = next(x for x in lines if x.startswith(MEASURED))
            measured.append(json.loads(line[len(MEASURED):]))
            p90 = next(x for x in lines if x.startswith("p90_qualifies"))
            print(f"{workload} seed {seed}: attempted {runs[-1]['attempted']}, "
                  f"failed {runs[-1]['failed']}, {p90}", file=sys.stderr)
        print(f"{workload}:")
        for metric, bound in bounds.items():
            ok = show(metric, [r["metrics"][metric]["value"] for r in runs], bound)
            within = within and (ok or metric == "setup_s")
        print("  as measured, before scaling:")
        for metric in measured[0]:
            if metric in bounds:
                show(metric, [m[metric] for m in measured], bounds[metric])
        show("reference_ms", [m["reference_ms"] for m in measured], None)
    return 0 if within else 1


if __name__ == "__main__":
    sys.exit(main())
