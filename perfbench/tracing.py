"""In-memory spans around the program's public functions, for the traced run.

The program itself is not instrumented. Instead each covered function is
replaced, at every module attribute that is bound to it, by a wrapper that
records a span (name, parent span, start, end) and any counts taken from its
arguments or result. ``installed`` restores the originals on exit.

Self time is a span's duration minus the part of its interval covered by its
child spans, so the self times of a trace add up to the root spans' total.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import inspect
import json
import time
from collections import Counter
from types import ModuleType


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, parent index or -1, start, end)
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def call(self, name: str, fn, args, kwargs):
        spans = self.spans
        index = len(spans)
        parent = self._stack[-1] if self._stack else -1
        spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            spans[index] = (name, parent, start, end)

    def write(self, path: str) -> None:
        """Gzipped JSON lines [id, parent, command, name, start, end], one per
        span; ``command`` is the id of the span's root, the cli.main call."""
        root = []
        with gzip.open(path, "wt", compresslevel=1) as handle:
            for i, (name, parent, start, end) in enumerate(self.spans):
                root.append(i if parent < 0 else root[parent])
                handle.write(json.dumps([i, parent, root[i], name, start, end]) + "\n")


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def summarize(spans) -> dict[str, dict]:
    """Per name: calls, total_s (sum of durations) and self_s."""
    children: list[list] = [[] for _ in spans]
    for name, parent, start, end in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out: dict[str, dict] = {}
    for (name, _, start, end), kids in zip(spans, children):
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += (end - start) - covered(kids, start, end)
    return out


def _wht_counts(counts, args, result):
    size = 1 << args[0].n
    counts["fourier.wht.points"] += size
    # Computed, not measured: the int8 -> int64 copy (9 bytes per point),
    # then per stage the half-array copy of x (8 bytes per point) and the two
    # half-array updates, each reading two halves and writing one (24).
    counts["fourier.wht.bytes_computed"] += size * (9 + 32 * args[0].n)


def _tie_witness_counts(counts, args, result):
    counts["ltf.tie_witness.hits"] += result is not None


def _candidate_counts(counts, args, result):
    counts["conjecture.search.candidates"] += len(result)


def _search_counts(counts, args, result):
    counts["conjecture.search.reported"] += len(result)


def _compare_counts(counts, args, result):
    counts["conjecture.compare.grid_points"] += len(result.grid)
    counts["conjecture.compare.brackets"] += result.crossover_bracket is not None


def _render_counts(counts, args, result):
    counts["cli.render_document.bytes"] += len(result.encode())


# (module, attribute path, count hook). Metric names are "<module>.<path>".
COVERED = [
    ("cli", "main", None),
    ("cli", "render_document", _render_counts),
    ("conjecture", "compare_stability", _compare_counts),
    ("conjecture", "search_counterexamples", _search_counts),
    ("conjecture", "canonical_weight_vectors", _candidate_counts),
    ("ltf", "materialize", None),
    ("ltf", "tie_witness", _tie_witness_counts),
    ("ltf", "is_monotone", None),
    ("ltf", "is_odd", None),
    ("fourier", "influence", None),
    ("fourier", "wht", _wht_counts),
    ("fourier", "degree_weight", None),
    ("fourier", "stability_polynomial", None),
    ("fourier", "StabilityPolynomial.evaluate", None),
    ("core", "BooleanFunction.signs", None),
    ("core", "BooleanFunction.from_signs", None),
]

NAMES = [f"{module}.{path}" for module, path, _ in COVERED]

COUNTS = [
    "fourier.wht.points",
    "fourier.wht.bytes_computed",
    "conjecture.search.candidates",
    "conjecture.search.reported",
    "ltf.tie_witness.hits",
    "conjecture.compare.grid_points",
    "conjecture.compare.brackets",
    "cli.render_document.bytes",
]


def _wrapper(tracer: Tracer, name: str, fn, hook, eager: bool):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if eager:
            # The generator's one caller lists it at once, so draining it
            # inside the span times the same work the caller would.
            result = tracer.call(name, lambda *a, **k: list(fn(*a, **k)), args, kwargs)
        else:
            result = tracer.call(name, fn, args, kwargs)
        if hook is not None:
            hook(tracer.counts, args, result)
        return iter(result) if eager else result

    return traced


@contextlib.contextmanager
def installed(tracer: Tracer, package: ModuleType):
    """Wrap every COVERED function wherever ``package``'s modules bind it."""
    modules = [package] + [
        getattr(package, m) for m in ("cli", "conjecture", "ltf", "fourier", "core")
    ]
    undo = []
    try:
        for module_name, path, hook in COVERED:
            name = f"{module_name}.{path}"
            owner = getattr(package, module_name)
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            if cls_path:
                raw = owner.__dict__[attr]
                is_cm = isinstance(raw, classmethod)
                fn = raw.__func__ if is_cm else raw
                wrapped = _wrapper(tracer, name, fn, hook, eager=False)
                setattr(owner, attr, classmethod(wrapped) if is_cm else wrapped)
                undo.append((owner, attr, raw))
                continue
            fn = getattr(owner, attr)
            wrapped = _wrapper(tracer, name, fn, hook, eager=inspect.isgeneratorfunction(fn))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, key, wrapped)
                        undo.append((module, key, fn))
        yield
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """calls/total_s/self_s for every covered function (0 when not called), plus counts."""
    rows = summarize(tracer.spans)
    metrics: dict[str, float] = {}
    for name in NAMES:
        row = rows.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for key in ("calls", "total_s", "self_s"):
            metrics[f"{name}.{key}"] = row[key]
    for key in COUNTS:
        metrics[key] = tracer.counts[key]
    candidates = tracer.counts["conjecture.search.candidates"]
    metrics["conjecture.search.yield"] = (
        tracer.counts["conjecture.search.reported"] / candidates if candidates else 0.0
    )
    return metrics
