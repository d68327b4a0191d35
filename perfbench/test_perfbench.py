"""Tests of the benchmark itself: checkers, span arithmetic, inputs, contract.

Run from the repository root: python3 -m pytest -q perfbench
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import random
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import checks
import report
import run
import tracing
from workloads import WORKLOADS, tie_free_weights

boolfun = run.load_program()
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def cli_doc(argv):
    rc, _, out = run.run_cli(boolfun.cli, argv)
    return rc, json.loads(out)


def set_exact(field, value: Fraction):
    field["exact"] = f"{value.numerator}/{value.denominator}"


# --- analyze -----------------------------------------------------------------

@pytest.fixture(scope="module")
def analyze_doc():
    rc, doc = cli_doc(["analyze", "3,2,2,1,1"])
    assert rc == 0
    return doc


def test_analyze_checker_accepts_real_output(analyze_doc):
    assert checks.check_analyze(analyze_doc) == []


def shift(field, delta: Fraction):
    field["exact"] = str(checks.exact(field) + delta)


@pytest.mark.parametrize("corrupt", [
    lambda r: shift(r["influences"][0], Fraction(1, 32)),
    lambda r: shift(r["degree_weights"][3], Fraction(1, 1024)),
    # Move weight between levels: Parseval still holds, the influence identity breaks.
    lambda r: (shift(r["degree_weights"][1], Fraction(-1, 1024)),
               shift(r["degree_weights"][3], Fraction(1, 1024))),
    lambda r: r.update(monotone=False),
    lambda r: r.update(odd=False),
    lambda r: r["influences"].pop(),
])
def test_analyze_checker_rejects_corrupted_output(analyze_doc, corrupt):
    doc = copy.deepcopy(analyze_doc)
    corrupt(doc["results"])
    assert checks.check_analyze(doc) != []


# --- compare -----------------------------------------------------------------

@pytest.fixture(scope="module")
def compare_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("compare") / "curve.csv"
    rc, doc = cli_doc(["compare", "5,4,3,3,3,1,1,1,1,1,2", ",".join(["1"] * 11),
                       "--grid", "64", "--out", str(out)])
    assert rc == 0 and doc["results"]["crossover_bracket"] is not None
    return doc, out.read_text()


MAJ_11 = checks.majority_weights(11)


def test_compare_checker_accepts_real_output(compare_run):
    doc, csv_text = compare_run
    assert checks.check_compare(doc, csv_text, 64, MAJ_11) == []
    assert checks.check_compare(doc, csv_text, 64) == []


def test_majority_weights_match_the_program():
    for n in (1, 3, 5, 11):
        spec = boolfun.parse_spec(",".join(["1"] * n))
        program = boolfun.stability_polynomial(boolfun.wht(boolfun.materialize(spec)))
        assert list(program.weights) == checks.majority_weights(n)


def test_grid_values_are_the_nearest_doubles():
    coeffs = [Fraction(0), Fraction(3, 7), Fraction(-5, 12), Fraction(1, 3), Fraction(2, 3)]
    expected = [float(checks.horner(coeffs, Fraction(t, 48))) for t in range(49)]
    assert checks.grid_values(coeffs, 48) == expected


def _shift_bracket(r):
    # A 2^-41-wide bracket just below the reported one: no sign change there.
    lo = checks.exact(r["crossover_bracket"]["lo"])
    set_exact(r["crossover_bracket"]["hi"], lo - Fraction(1, 2**41))
    set_exact(r["crossover_bracket"]["lo"], lo - Fraction(1, 2**40))


@pytest.mark.parametrize("corrupt", [
    lambda r, rows: shift(r["margin"], Fraction(1, 2**22)),
    lambda r, rows: shift(r["diff_poly"][5], Fraction(1, 2**22)),
    lambda r, rows: rows.pop(),
    lambda r, rows: shift(r["crossover_bracket"]["lo"], Fraction(-1, 2**30)),
    lambda r, rows: _shift_bracket(r),
    lambda r, rows: r.update(verdict="consistent"),
])
def test_compare_checker_rejects_corrupted_output(compare_run, corrupt):
    doc, csv_text = copy.deepcopy(compare_run)
    rows = csv_text.splitlines()
    corrupt(doc["results"], rows)
    assert checks.check_compare(doc, "\n".join(rows) + "\n", 64, MAJ_11) != []


def set_cell(rows, i, column, value):
    cells = rows[i].split(",")
    cells[column] = format(value(float(cells[column])), ".17g")
    rows[i] = ",".join(cells)


def next_up(x):
    return math.nextafter(x, math.inf)


@pytest.mark.parametrize("corrupt", [
    lambda rows: set_cell(rows, 7, 0, lambda x: x + 1 / 128),       # rho
    lambda rows: set_cell(rows, 7, 3, next_up),                      # diff, one ulp
    lambda rows: set_cell(rows, 7, 1, lambda x: x + 1e-9),           # stab_f
    lambda rows: set_cell(rows, 7, 2, lambda x: x - 1e-9),           # stab_g
    lambda rows: rows.__setitem__(-1, "1,0.5,0.5,0"),                # stab_f(1) != 1
    lambda rows: rows.__setitem__(slice(5, 7), rows[6:4:-1]),        # two rows swapped
    lambda rows: rows.__setitem__(3, rows[3] + ",0"),                # a fifth column
])
@pytest.mark.parametrize("reference", [MAJ_11, None])
def test_compare_checker_rejects_corrupted_csv_rows(compare_run, corrupt, reference):
    doc, csv_text = compare_run
    rows = csv_text.splitlines()
    corrupt(rows)
    assert checks.check_compare(doc, "\n".join(rows) + "\n", 64, reference) != []


@pytest.mark.parametrize("column", [1, 2])
def test_compare_checker_rejects_a_one_ulp_curve_given_the_reference(compare_run, column):
    # A lossy evaluation off by one ulp passes the stab_g - stab_f tolerance;
    # only the exact curve of the reference catches it.
    doc, csv_text = compare_run
    rows = csv_text.splitlines()
    set_cell(rows, 9, column, next_up)
    assert checks.check_compare(doc, "\n".join(rows) + "\n", 64, MAJ_11) != []


# --- search ------------------------------------------------------------------

@pytest.fixture(scope="module")
def search_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("search") / "search.json"
    rc, doc = cli_doc(["search", "7", "3", "--out", str(out)])
    assert rc == 0 and doc["results"]["count"] > 0
    return doc, out.read_bytes()


def test_search_checker_accepts_real_output(search_run):
    doc, raw = search_run
    assert checks.check_search(doc, raw, hashlib.sha256(raw).hexdigest()) == []


def test_search_checker_rejects_changed_bytes(search_run):
    doc, raw = search_run
    digest = hashlib.sha256(raw).hexdigest()
    assert checks.check_search(doc, raw.replace(b'"count"', b'"count" '), digest) != []


def test_search_checker_rejects_entry_above_majority(search_run):
    doc, raw = search_run
    file_doc = json.loads(raw)
    entry = file_doc["results"]["counterexamples"][0]
    entry["w1"] = dict(entry["w1_majority"])
    bad = json.dumps(file_doc).encode()
    # Even with a digest that matches, the w1 < w1_majority check must fire.
    assert checks.check_search(doc, bad, hashlib.sha256(bad).hexdigest()) != []


def test_search_checker_rejects_count_mismatch(search_run):
    doc, raw = copy.deepcopy(search_run)
    doc["results"]["count"] += 1
    assert checks.check_search(doc, raw, hashlib.sha256(raw).hexdigest()) != []


# --- pre-flight gate ---------------------------------------------------------

def test_preflight_passes_on_the_program():
    assert run.preflight(boolfun.cli) == []


def test_verify_checker_rejects_wrong_outcomes():
    rc, doc = cli_doc(["verify-paper"])
    assert checks.check_verify(rc, doc, corrupt=False) == []
    assert checks.check_verify(rc, doc, corrupt=True) != []
    rc, doc = cli_doc(["verify-paper", "--corrupt-table"])
    assert checks.check_verify(rc, doc, corrupt=True) == []
    assert checks.check_verify(rc, doc, corrupt=False) != []
    doc["results"]["pass"] = True
    assert checks.check_verify(rc, doc, corrupt=True) != []


# --- spans -------------------------------------------------------------------

def test_self_time_on_synthetic_nested_trace():
    spans = [
        ("a", -1, 0.0, 10.0),   # children b [1, 4] and d [5, 9]: self 3
        ("b", 0, 1.0, 4.0),     # child c [2, 3]: self 2
        ("c", 1, 2.0, 3.0),     # leaf: self 1
        ("d", 0, 5.0, 9.0),     # leaf: self 4
        ("b", -1, 20.0, 21.5),  # second root call of b, leaf: self 1.5
    ]
    rows = tracing.summarize(spans)
    assert rows["a"] == {"calls": 1, "total_s": 10.0, "self_s": 3.0}
    assert rows["b"] == {"calls": 2, "total_s": 4.5, "self_s": 3.5}
    assert rows["c"] == {"calls": 1, "total_s": 1.0, "self_s": 1.0}
    assert rows["d"] == {"calls": 1, "total_s": 4.0, "self_s": 4.0}
    assert sum(r["self_s"] for r in rows.values()) == 10.0 + 1.5


def test_covered_merges_overlap_and_clips():
    assert tracing.covered([(3.0, 6.0), (1.0, 4.0)], 0.0, 5.0) == 4.0
    assert tracing.covered([(-1.0, 0.5), (0.75, 0.8)], 0.0, 1.0) == pytest.approx(0.55)
    assert tracing.covered([], 0.0, 1.0) == 0.0


def test_overhead_is_resolved_only_with_enough_tight_pairs():
    plain = [1.0 + 0.01 * (i % 3) for i in range(12)]
    median, iqr, resolved = run.overhead(plain, [p + 0.1 for p in plain])
    assert median == pytest.approx(0.1) and iqr == pytest.approx(0.0) and resolved
    noisy = [p + (0.5 if i % 2 else -0.4) for i, p in enumerate(plain)]
    assert not run.overhead(plain, noisy)[2]
    assert not run.overhead(plain[:5], [p + 0.1 for p in plain[:5]])[2]


def test_installed_traces_every_binding_and_restores():
    original = boolfun.ltf.materialize
    from_signs = vars(boolfun.core.BooleanFunction)["from_signs"]
    tracer = tracing.Tracer()
    with tracing.installed(tracer, boolfun):
        assert boolfun.cli.materialize is boolfun.ltf.materialize is boolfun.conjecture.materialize
        assert boolfun.cli.materialize is not original
        rc, _, _ = run.run_cli(boolfun.cli, ["analyze", "2,2,1,1,1"])
    assert rc == 0
    assert boolfun.cli.materialize is original and boolfun.conjecture.materialize is original
    assert vars(boolfun.core.BooleanFunction)["from_signs"] is from_signs
    metrics = tracing.layer_metrics(tracer)
    assert metrics["cli.main.calls"] == 1
    assert metrics["fourier.influence.calls"] == 5
    assert metrics["ltf.is_monotone.calls"] == 1
    assert metrics["fourier.wht.points"] == 32
    assert metrics["cli.render_document.calls"] == 1
    assert tracer.spans[0][0] == "cli.main" and tracer.spans[0][1] == -1
    assert all(parent >= 0 for _, parent, _, _ in tracer.spans[1:])
    # Self times partition the one root span.
    self_total = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert self_total == pytest.approx(metrics["cli.main.total_s"])


def test_search_counts_match_the_search(tmp_path):
    tracer = tracing.Tracer()
    with tracing.installed(tracer, boolfun):
        rc, _, out = run.run_cli(
            boolfun.cli, ["search", "5", "2", "--out", str(tmp_path / "s.json")]
        )
    metrics = tracing.layer_metrics(tracer)
    assert rc == 0
    candidates = len(list(boolfun.canonical_weight_vectors(5, 2)))
    assert metrics["conjecture.search.candidates"] == candidates
    assert metrics["conjecture.search.reported"] == json.loads(out)["results"]["count"] == 1
    assert metrics["conjecture.search.yield"] == 1 / metrics["conjecture.search.candidates"]


# --- inputs ------------------------------------------------------------------

def test_generated_weights_are_tie_free():
    for seed in range(300):
        rng = random.Random(seed)
        w = tie_free_weights(rng, 9)
        assert all(1 <= x <= 5 for x in w) and sum(w) % 2 == 1
        assert boolfun.tie_witness(boolfun.LtfSpec(w)) is None


def test_workload_inputs_depend_only_on_seed():
    for workload in WORKLOADS.values():
        assert workload.argv(3, 2, "o") == workload.argv(3, 2, "o")
    analyze = WORKLOADS["analyze-20"]
    assert analyze.argv(3, 2, "o") != analyze.argv(4, 2, "o")
    assert WORKLOADS["search-9"].argv(1, 0, "o", traced=True)[4] == "1"


# --- contract ----------------------------------------------------------------

def test_benchmark_json_names_the_workloads():
    for declared in BENCHMARK["workloads"]:
        assert declared["why"] == WORKLOADS[declared["name"]].why


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_run_reports_exactly_the_declared_metrics(trace, section):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "curve-11", "--seed", "1",
         "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, cwd=run.ROOT, timeout=170, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    reported = {name: m["unit"] for name, m in result["metrics"].items()}
    assert reported == declared


def test_report_summary_holds_what_baseline_json_records():
    results = [{"correct": True, "attempted": 3, "failed": 0,
                "metrics": {"x": {"value": v, "unit": "s"}}} for v in (1.0, 2.0, 3.0, 4.0)]
    q1, _, q3 = statistics.quantiles([1.0, 2.0, 3.0, 4.0], n=4)
    assert report.summarize(results) == {
        "x": {"median": 2.5, "q1": q1, "q3": q3, "spread": (q3 - q1) / 2.5, "unit": "s"},
        "correct": True, "attempted": 12, "failed": 0,
    }


def test_run_refuses_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in Path(run.__file__).parent.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "curve-11", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=170,
    )
    assert proc.returncode != 0 and proc.stdout == ""
