"""Run every workload over several seeds and summarise each metric.

Usage, from the repository root:

    python3 perfbench/report.py [--workloads analyze-20,curve-11] [--seeds 10]
                                [--seconds 30] [--trace] [--save results.json]

Each run is a separate `perfbench/run.py` process, so peak RSS is per run.
Every run's own report is printed, then, per workload and end-to-end metric,
the median over seeds and the spread (Q3 - Q1) / median with quartiles from
statistics.quantiles(values, n=4). --trace adds one traced run per workload
on the first seed. --save writes that summary and every run's JSON result to
a file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"
ROOT = RUN.parent.parent


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, check=True, timeout=900,
    )
    *lines, last = proc.stdout.rstrip("\n").split("\n")
    print("\n".join(lines), flush=True)
    if proc.stderr:
        print(proc.stderr, end="", file=sys.stderr)
    return json.loads(last)


def summarize(results: list[dict]) -> dict:
    """Per metric: median, quartiles and spread over the runs; then their
    combined correct, attempted and failed."""
    summary = {}
    for metric, first in results[0]["metrics"].items():
        values = [r["metrics"][metric]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else [median] * 3
        summary[metric] = {
            "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("nan"),
            "unit": first["unit"],
        }
    summary["correct"] = all(r["correct"] for r in results)
    summary["attempted"] = sum(r["attempted"] for r in results)
    summary["failed"] = sum(r["failed"] for r in results)
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--save")
    args = parser.parse_args()

    saved = {"summary": {}, "runs": {}}
    for name in args.workloads.split(","):
        seeds = range(1, args.seeds + 1)
        results = [run(name, seed, args.seconds, 0) for seed in seeds]
        saved["runs"][name] = {"seeds": list(seeds), "untraced": results}
        if args.trace:
            saved["runs"][name]["traced"] = run(name, 1, args.seconds, 1)
        saved["summary"][name] = summarize(results)

    print(f"\nmedian over {args.seeds} seeds, spread = (Q3 - Q1) / median")
    for name, summary in saved["summary"].items():
        for metric, s in summary.items():
            if isinstance(s, dict):
                print(f"{name:<11} {metric:<12} {s['median']:12.6g} {s['unit']:<4} "
                      f"spread {s['spread']:.4f}")
        print(f"{name:<11} correct {summary['correct']}, "
              f"failed {summary['failed']}/{summary['attempted']}")
    if args.save:
        Path(args.save).write_text(json.dumps(saved, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
