"""Benchmark of the `boolfun` CLI, run in-process as a closed loop.

Usage, from the repository root:

    python3 perfbench/run.py --workload analyze-20 --seed 1 --seconds 30 --trace 0

One client issues the workload's seeded commands back to back through
`boolfun.cli.main`, timing each call and checking each output, until
--seconds of command time have passed (the command in flight finishes).
Between commands it times fresh-interpreter imports for setup_s. Before measuring,
a pre-flight gate requires `verify-paper` to pass and
`verify-paper --corrupt-table` to fail.

--trace 0 reports the end-to-end metrics. --trace 1 runs every command twice,
untraced and traced, and reports per-layer spans and counts plus the tracing
overhead between the two; it runs past --seconds until it has MIN_PAIRS pairs.
Search commands in a traced run use one worker, so every span lands in this
process.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks
import tracing
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# setup_s is the median of this many fresh-interpreter imports of boolfun.cli,
# spread over the measuring loop.
SETUP_REPEATS = 15
SETUP_SNIPPET = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import boolfun.cli; print(time.perf_counter() - t)"
)
# op_tail_s uses the highest of these percentiles that leaves at least
# TAIL_BEYOND samples above it.
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75, 50)
TAIL_BEYOND = 10
# A traced run collects at least MIN_PAIRS untraced/traced pairs, unless one
# more pair would take its loop past TRACE_CAP_S.
MIN_PAIRS = 10
TRACE_CAP_S = 120


def load_program():
    """Import boolfun from this checkout's src/, and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import boolfun
        import boolfun.cli  # noqa: F401
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import boolfun from {SRC}: {exc}")
    if not Path(boolfun.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: boolfun imported from {boolfun.__file__}, not {SRC}")
    return boolfun


def run_cli(cli, argv):
    """(exit code, seconds, stdout) of one in-process `boolfun` command."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code
        except Exception:  # an uncaught program error fails this command only
            traceback.print_exc()
            rc = -1
        elapsed = time.perf_counter() - start
    return rc, elapsed, buf.getvalue()


def check_output(workload, argv, rc, out) -> list[str]:
    if rc != 0:
        return [f"{argv[0]}: exit {rc}"]
    try:
        doc = json.loads(out)
        if workload.command == "analyze":
            return checks.check_analyze(doc)
        path = Path(argv[argv.index("--out") + 1])
        if workload.command == "compare":
            majority = workload.against_majority
            reference = checks.majority_weights(workload.arity) if majority else None
            return checks.check_compare(doc, path.read_text(), workload.grid, reference)
        return checks.check_search(doc, path.read_bytes(), checks.SEARCH_9_8_DIGEST)
    except (KeyError, TypeError, ValueError, IndexError, OSError) as exc:
        return [f"{argv[0]}: malformed output: {exc!r}"]


def preflight(cli) -> list[str]:
    problems = []
    for corrupt in (False, True):
        argv = ["verify-paper"] + (["--corrupt-table"] if corrupt else [])
        rc, _, out = run_cli(cli, argv)
        try:
            problems += checks.check_verify(rc, json.loads(out), corrupt)
        except (KeyError, TypeError, ValueError) as exc:
            problems.append(f"{argv}: malformed output: {exc!r}")
    return problems


def run_checked(cli, workload, argv):
    """(seconds, failed) of one command whose output is then checked.

    Collecting first gives each command a clean heap, as the fresh process
    of a real CLI call would have.
    """
    gc.collect()
    rc, elapsed, out = run_cli(cli, argv)
    problems = check_output(workload, argv, rc, out)
    if problems:
        print(f"FAILED {' '.join(argv)}: {'; '.join(problems)}", file=sys.stderr)
    return elapsed, bool(problems)


def measure(cli, workload, seed, seconds, out_dir):
    """Closed loop over the workload's commands for ``seconds`` of command
    time, with the setup samples taken between commands.

    Spread over the loop, the setup samples meet the same host conditions as
    the commands, rather than a few seconds' burst of them.
    """
    latencies, failed, setup, busy = [], 0, [], 0.0
    while True:
        start = time.perf_counter()
        elapsed, bad = run_checked(cli, workload, workload.argv(seed, len(latencies), out_dir))
        busy += time.perf_counter() - start
        latencies.append(elapsed)
        failed += bad
        if len(latencies) == 1:
            # No setup child has run yet, so this is the largest pool worker.
            child_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        done = min(1.0, busy / seconds) if seconds > 0 else 1.0
        while len(setup) < SETUP_REPEATS * done:
            setup.append(setup_once())
        if busy >= seconds:
            break
    return latencies, failed, busy, statistics.median(setup), child_kib


def tail(latencies):
    """(percentile, value) of the highest TAIL_PERCENTILES entry with at
    least TAIL_BEYOND samples above it, by nearest rank; None if none has."""
    ordered = sorted(latencies)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = -(-round(p * 10) * n // 1000)  # ceil(p/100 * n)
        if n - rank >= TAIL_BEYOND:
            return p, ordered[rank - 1]
    return None


def setup_once() -> float:
    proc = subprocess.run(
        [sys.executable, "-E", "-s", "-c", SETUP_SNIPPET, str(SRC)],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
    )
    return float(proc.stdout)


def peak_rss_mib(workers: int, child_kib: int) -> float:
    """Peak RSS of this process plus, when a pool ran, workers x the largest
    pool child's peak: an upper bound, as pool children run at once but share
    pages."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (own + (workers * child_kib if workers > 1 else 0)) / 1024  # KiB on Linux


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(cli, workload, seed, seconds, out_dir, gate):
    latencies, failed, elapsed, setup, child_kib = measure(cli, workload, seed, seconds, out_dir)
    rss = peak_rss_mib(workload.workers, child_kib)
    n = len(latencies)
    metrics = {
        "setup_s": metric(setup, "s"),
        "ops_per_s": metric((n - failed) / elapsed, "1/s"),
        "op_p50_s": metric(statistics.median(latencies), "s"),
        "peak_rss_mb": metric(rss, "MiB"),
    }
    print(f"{workload.name} seed {seed}: {n} commands in {elapsed:.3f} s, closed loop, 1 client, "
          f"{SETUP_REPEATS} setup samples between commands")
    for name, m in metrics.items():
        print(f"  {name:<13} {m['value']:.6g} {m['unit']}")
    t = tail(latencies)
    if t is None:
        print(f"  op_tail_s     not reported: {n} commands leave no percentile "
              f"with {TAIL_BEYOND} samples above it")
    else:
        print(f"  op_tail_s     {t[1]:.6g} s (p{t[0]:g} of {n} commands)")
    print(f"  failed_ratio  {failed / n:.6g} ({failed}/{n}; pre-flight "
          f"{'ok' if not gate else 'FAILED'})")
    return n, failed, metrics


def overhead(plain, traced):
    """(median, IQR) of the paired differences traced - untraced, and whether
    the median is resolved: enough pairs, and an IQR no wider than it."""
    diffs = [t - p for t, p in zip(traced, plain)]
    median = statistics.median(diffs)
    if len(diffs) < 2:
        return median, float("inf"), False
    q1, _, q3 = statistics.quantiles(diffs, n=4)
    return median, q3 - q1, len(diffs) >= MIN_PAIRS and q3 - q1 <= abs(median)


def per_layer(boolfun, workload, seed, seconds, out_dir):
    """Each command runs twice, untraced and traced, in alternating order,
    so the overhead is a paired difference on the same inputs."""
    cli = boolfun.cli
    tracer = tracing.Tracer()
    plain, traced, failed = [], [], 0
    start = pair_start = time.perf_counter()
    while True:
        i = len(plain)
        argv = workload.argv(seed, i, out_dir, traced=True)
        for on in ((False, True) if i % 2 == 0 else (True, False)):
            with tracing.installed(tracer, boolfun) if on else contextlib.nullcontext():
                elapsed, bad = run_checked(cli, workload, argv)
            (traced if on else plain).append(elapsed)
            failed += bad
        now = time.perf_counter()
        spent, pair_start, pair = now - start, now, now - pair_start
        if (spent >= seconds and len(plain) >= MIN_PAIRS) or spent + pair > TRACE_CAP_S:
            break
    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{workload.name}-seed{seed}.jsonl.gz"
    tracer.write(str(trace_path))

    values = tracing.layer_metrics(tracer)
    values["trace.untraced_op_p50_s"] = statistics.median(plain)
    values["trace.traced_op_p50_s"] = statistics.median(traced)
    values["trace.overhead_s"], values["trace.overhead_iqr_s"], resolved = overhead(plain, traced)
    metrics = {name: metric(v, unit_of(name)) for name, v in values.items()}

    one_worker = ", search with 1 worker" if workload.command == "search" else ""
    print(f"{workload.name} seed {seed}, traced: {len(plain)} commands, "
          f"each run untraced and traced{one_worker}")
    median, iqr = values["trace.overhead_s"], values["trace.overhead_iqr_s"]
    pairs = f"IQR {iqr:.3g} s over {len(plain)} pairs"
    print("  tracing overhead "
          + (f"{median:+.6g} s per command, {pairs}" if resolved
             else f"unresolved: median {median:+.3g} s, {pairs}")
          + f" (traced - untraced; untraced median {values['trace.untraced_op_p50_s']:.6g} s)")
    print(f"  spans in {trace_path.relative_to(ROOT)}")
    total = values["cli.main.total_s"]
    top = sorted(((values[f"{name}.self_s"], name) for name in tracing.NAMES), reverse=True)[:3]
    print("  largest self times, share of traced command time: "
          + ", ".join(f"{name} {t / total:.1%}" for t, name in top))
    for name, m in metrics.items():
        if not name.startswith("trace."):
            print(f"  {name:<50} {m['value']:.6g} {m['unit']}")
    return len(plain) + len(traced), failed, metrics


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if "bytes" in name:
        return "B"
    if name.endswith("yield"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    boolfun = load_program()
    out_dir = OUT / f"run-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        gate = preflight(boolfun.cli)
        for problem in gate:
            print(f"PRE-FLIGHT FAILED: {problem}", file=sys.stderr)
        run_cli(boolfun.cli, workload.warmup_argv(str(out_dir)))
        if args.trace:
            n, failed, metrics = per_layer(
                boolfun, workload, args.seed, args.seconds, str(out_dir)
            )
        else:
            n, failed, metrics = end_to_end(
                boolfun.cli, workload, args.seed, args.seconds, str(out_dir), gate
            )
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    print(json.dumps(
        {"correct": not gate and failed == 0, "attempted": n, "failed": failed, "metrics": metrics}
    ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
