"""Run the benchmark over several seeds and report each metric's spread.

    python3 benchmarks/stability.py --seeds 10 [--workloads query_desk] [--write-baseline]

For every workload and end-to-end metric it prints the median of the runs
and the spread, the distance between the first and third quartile as a
share of the median (``statistics.quantiles(values, n=4)``), next to the
metric's bound from ``BENCHMARK.json``. Runs go one at a time, seeds in the
outer loop, so slow drift in machine speed falls on every workload alike.
``--write-baseline`` stores the medians and quartiles in
``benchmarks/BASELINE.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds):
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    lines = completed.stdout.splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    # Every "metric NAME = VALUE UNIT (n=N)" line, gated or only reported.
    printed = {
        line.split()[1]: float(line.split()[3])
        for line in lines
        if line.startswith("metric ")
    }
    return env, json.loads(lines[-1]), printed


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else float(q3 != q1) * float("inf")
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": values}


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--write-baseline", action="store_true")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {w: {} for w in args.workloads}
    failures = {w: 0 for w in args.workloads}
    env = None
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        for workload in args.workloads:
            env, result, printed = run_once(workload, seed, args.seconds)
            failures[workload] += result["failed"]
            for name, value in printed.items():
                values[workload].setdefault(name, []).append(value)
            print(f"seed {seed} {workload}: " + " ".join(
                f"{name}={values[workload][name][-1]:.5g}" for name in bounds),
                flush=True)

    summary = {}
    for workload in args.workloads:
        summary[workload] = {}
        print(f"\n{workload} (failed operations and checks: {failures[workload]})")
        for name, series in values[workload].items():
            stats = summarize(series)
            bound = bounds.get(name)
            if bound is None:
                verdict = "reported, not gated"
            else:
                summary[workload][name] = stats
                verdict = f"bound {bound}: " + (
                    "ok" if stats["spread"] < bound / 3
                    else "within bound" if stats["spread"] <= bound else "TOO WIDE")
            print(f"  {name:28s} median {stats['median']:12.5g}  spread "
                  f"{stats['spread']:.4f}  {verdict}")

    if args.write_baseline:
        env = {k: v for k, v in env.items() if k not in ("seed", "workload")}
        document = {"env": env, "seeds": [args.first_seed, args.first_seed + args.seeds - 1],
                    "failed": failures, "metrics": summary}
        (HERE / "BASELINE.json").write_text(json.dumps(document, indent=1) + "\n")


if __name__ == "__main__":
    main()
