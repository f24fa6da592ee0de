"""Run perfbench/run.py unchanged and record its metrics in BENCH_<pr>.json.

Usage, from the root of a dqp checkout:

    python3 scripts/bench_record.py --pr N --seed 700 --seed 701 \
        [--workload verify-all --workload cli-mix] \
        [--checkout parent=../dqp-parent --checkout change=.]

Each run is one fresh ``python3 <checkout>/perfbench/run.py --workload W
--seed N --seconds S`` process, with S the ``run_seconds`` of BENCHMARK.json;
the script reads the JSON object that run.py prints as the last line of its
stdout and measures nothing itself.  With several checkouts, each seed runs
every checkout once, and the order alternates from seed to seed, so drift of
the machine does not favour one side.  The defaults are both workloads and
the one checkout this script lives in.  The record is written to
``BENCH_<pr>.json`` at the root of this checkout.

The output holds the provenance (Python version, core count, platform,
seeds, each checkout's commit, whether its ``src/`` differs from that commit,
and ``src_tree``, the git tree id of its ``src/`` as measured, tracked files
with their uncommitted edits, which equals ``git rev-parse <commit>:src`` of
the commit that later records that tree), every run's metrics, and per
workload and checkout the quartiles
of each metric (``statistics.quantiles``, exclusive method).  With two
checkouts it also counts, per end-to-end metric of BENCHMARK.json, the
seeds on which the second checkout read better than the first (ties
count for neither).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(checkout: Path, *args: str) -> str:
    done = subprocess.run(
        ["git", "-C", str(checkout), *args], capture_output=True, text=True
    )
    return done.stdout.strip() if done.returncode == 0 else ""


def bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    command = [
        sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds),
    ]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{command} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return {key: result[key] for key in ("correct", "attempted", "failed")} | {
        "metrics": metrics
    }


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = (
        statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    )
    return {"q1": q1, "median": median, "q3": q3, "n": len(values)}


def main(argv: list[str] | None = None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--seed", type=int, action="append", required=True)
    names = [w["name"] for w in benchmark["workloads"]]
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--checkout", action="append", metavar="LABEL=DIR")
    args = parser.parse_args(argv)
    seconds = benchmark["run_seconds"]
    workloads = args.workload or names
    checkouts = {}
    for item in args.checkout or [f"change={ROOT}"]:
        label, _, directory = item.partition("=")
        checkouts[label] = Path(directory).resolve()

    runs = []
    for workload in workloads:
        for index, seed in enumerate(args.seed):
            order = list(checkouts) if index % 2 == 0 else list(reversed(checkouts))
            for label in order:
                run = bench(checkouts[label], workload, seed, seconds)
                key = {"workload": workload, "seed": seed, "checkout": label}
                runs.append(key | run)
                print(workload, seed, label, json.dumps(run["metrics"]), flush=True)

    summary: dict = {}
    for run in runs:
        side = summary.setdefault(run["workload"], {}).setdefault(run["checkout"], {})
        for name, value in run["metrics"].items():
            side.setdefault(name, []).append(value)
    for sides in summary.values():
        for side in sides.values():
            for name, values in side.items():
                side[name] = quartiles(values)
    wins: dict = {}
    if len(checkouts) == 2:
        base, new = checkouts
        wins = {"of": new, "over": base}
        for workload in workloads:
            by_seed = {
                (run["seed"], run["checkout"]): run["metrics"]
                for run in runs
                if run["workload"] == workload
            }
            for metric in benchmark["end_to_end"]:
                name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
                diffs = [
                    sign * (by_seed[seed, new][name] - by_seed[seed, base][name])
                    for seed in args.seed
                ]
                wins.setdefault(workload, {})[name] = (
                    f"{sum(d > 0 for d in diffs)}/{len(diffs)}"
                )

    record = {
        "pr": args.pr,
        "python": platform.python_version(),
        "cores": os.cpu_count(),
        "platform": platform.platform(),
        "seconds": seconds,
        "seeds": args.seed,
        "checkouts": {
            label: {
                "commit": git(path, "rev-parse", "HEAD"),
                "src_differs_from_commit": bool(
                    git(path, "status", "--porcelain", "--", "src")
                ),
                "src_tree": git(
                    path, "rev-parse", f"{git(path, 'stash', 'create') or 'HEAD'}:src"
                ),
            }
            for label, path in checkouts.items()
        },
        "runs": runs,
        "summary": summary,
        "wins": wins,
    }
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
