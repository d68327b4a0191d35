"""Acceptance suite: one test per criterion, exact values, pinned runtimes.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. Every equality below is exact rational arithmetic, tolerance zero;
the runtime budgets are the engineering targets, generous on desktop hardware.
"""

import json
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import product
from math import gcd

import numpy as np

from boolfun import (
    LtfSpec,
    coefficient,
    compare_stability,
    counterexample,
    degree_weight,
    influence,
    influence_from_spectrum,
    is_monotone,
    majority,
    materialize,
    naive_expansion,
    search_counterexamples,
    stability_oracle,
    stability_polynomial,
    tie_witness,
    wht,
)
from boolfun.cli import main

from helpers import (
    negate_subset,
    random_function,
    random_monotone_spec,
    random_odd_function,
)


@contextmanager
def criterion(num, name, budget_seconds=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} {name}: FAIL ({time.perf_counter() - start:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    within = budget_seconds is None or elapsed < budget_seconds
    budget = "" if budget_seconds is None else f", budget {budget_seconds}s"
    print(f"ACCEPTANCE {num} {name}: {'PASS' if within else 'FAIL'} ({elapsed:.2f}s{budget})")
    assert within, f"runtime {elapsed:.2f}s exceeded budget {budget_seconds}s"


def test_criterion_1_exact_reproduction(capsys):
    with criterion(1, "exact value reproduction via verify-paper", 1.0):
        code = main(["verify-paper"])
        out = capsys.readouterr().out
        assert code == 0
        results = json.loads(out)["results"]
        by_name = {c["name"]: c["computed"] for c in results["checks"]}
        assert Fraction(by_name["Inf_1[Maj_5]"]["exact"]) == Fraction(3, 8)
        assert Fraction(by_name["Inf_1[f]"]["exact"]) == Fraction(1, 2)
        assert Fraction(by_name["Inf_3[f]"]["exact"]) == Fraction(1, 4)
        assert Fraction(by_name["W^1[Maj_5]"]["exact"]) == Fraction(45, 64)
        assert Fraction(by_name["W^1[f]"]["exact"]) == Fraction(44, 64)
        assert results["w1_comparison"]["display"] == "44/64 < 45/64"
        assert results["w1_comparison"]["strict_less"] is True
        assert results["pass"] is True
    # keep the criterion line visible in captured-output mode too
    print(capsys.readouterr().out.splitlines()[-1])


def test_criterion_2_refutation_behavior():
    with criterion(2, "refutation verdict with small-rho witness", 1.0):
        report = compare_stability(counterexample(), majority(5), 256)
        assert report.verdict == "refutes_at_small_rho"
        assert report.margin == Fraction(1, 64)  # D'(0) exactly
        rho0, value = report.small_rho_witness
        assert isinstance(rho0, Fraction) and 0 < rho0 < 1 and value > 0
        sampled = [diff for rho, diff in report.grid if 0 < rho <= rho0]
        assert sampled and all(diff > 0 for diff in sampled)


def test_criterion_3_transform_oracle_equivalence():
    with criterion(3, "fast transform equals naive summation, 200 functions", 30.0):
        rng = np.random.default_rng(1003)
        checked = 0
        for n in range(1, 11):
            for _ in range(20):
                f = random_function(n, rng)
                assert np.array_equal(wht(f).scaled, naive_expansion(f).scaled)
                checked += 1
        assert checked == 200


def test_criterion_4_stability_oracle_equivalence():
    with criterion(4, "correlated-pair sum equals polynomial, 50 functions", 60.0):
        rng = np.random.default_rng(1004)
        rhos = [
            Fraction(0),
            Fraction(1, 7),
            Fraction(1, 3),
            Fraction(1, 2),
            Fraction(9, 10),
            Fraction(1),
        ]
        checked = 0
        for k in range(50):
            n = k % 8 + 1
            f = random_function(n, rng)
            poly = stability_polynomial(wht(f))
            for rho in rhos:
                assert stability_oracle(f, f, rho) == poly.evaluate(rho)
            checked += 1
        assert checked == 50


def test_criterion_5_property_suite():
    rng = np.random.default_rng(1005)
    instances = 100

    with criterion(5, "five exact properties, 100 instances each"):
        for k in range(instances):  # Parseval
            f = random_function(k % 10 + 1, rng)
            assert sum(stability_polynomial(wht(f)).weights) == 1

        for k in range(instances):  # odd functions carry no even-level mass
            f = random_odd_function(k % 10 + 1, rng)
            e = wht(f)
            levels = np.bitwise_count(np.arange(f.size, dtype=np.uint32))
            assert not np.any(e.scaled[levels % 2 == 0])

        for k in range(instances):  # monotone identity
            spec = random_monotone_spec(k % 10 + 1, rng)
            f = materialize(spec)
            assert is_monotone(f)
            e = wht(f)
            for i in range(1, f.n + 1):
                assert coefficient(e, 1 << (i - 1)) == influence(f, i)

        for k in range(instances):  # influence two-path agreement
            f = random_function(k % 10 + 1, rng)
            e = wht(f)
            for i in range(1, f.n + 1):
                assert influence(f, i) == influence_from_spectrum(e, i)

        for k in range(instances):  # degree-weight invariance
            f = random_function(k % 10 + 1, rng)
            base = stability_polynomial(wht(f))
            perm = tuple(int(p) for p in rng.permutation(f.n) + 1)
            mask = int(rng.integers(0, f.size))
            assert stability_polynomial(wht(f.permute_coordinates(perm))) == base
            assert stability_polynomial(wht(negate_subset(f, mask))) == base


def test_criterion_6_search_soundness_and_completeness():
    with criterion(6, "search exactness at n=5 and n=3, canonical completeness", 10.0):
        hits = search_counterexamples(5, 2)
        assert len(hits) == 1
        assert hits[0].spec.weights == (2, 2, 1, 1, 1)
        assert hits[0].margin == Fraction(1, 64)
        assert search_counterexamples(3, 5) == []

        maj_w1 = degree_weight(wht(majority(5)), 1)
        noncanonical = set()
        for weights in product((-2, -1, 1, 2), repeat=5):
            spec = LtfSpec(weights)
            if tie_witness(spec) is not None:
                continue
            f = materialize(spec)
            if f.ones() * 2 != f.size:
                continue
            if maj_w1 - degree_weight(wht(f), 1) > 0:
                canon = tuple(sorted((abs(w) for w in weights), reverse=True))
                divisor = gcd(*canon)
                noncanonical.add(tuple(w // divisor for w in canon))
        assert noncanonical == {h.spec.weights for h in hits}


def test_criterion_7_search_determinism(tmp_path, capsys):
    with criterion(7, "byte-identical search results for --parallel 1 vs 8"):
        serial = tmp_path / "serial.json"
        parallel = tmp_path / "parallel.json"
        assert main(["search", "5", "2", "--out", str(serial)]) == 0
        assert main(["search", "5", "2", "--parallel", "8", "--out", str(parallel)]) == 0
        capsys.readouterr()  # swallow the stdout reports; the files are the artifact
        assert serial.read_bytes() == parallel.read_bytes()


def test_criterion_8a_transform_performance_floor():
    rng = np.random.default_rng(1008)
    f = random_function(22, rng)
    with criterion("8a", "fast transform at n=22", 5.0):
        e = wht(f)
    assert e.scaled.shape == (1 << 22,)


def test_criterion_8b_search_performance_floor():
    with criterion("8b", "search at n=7, weights to 3", 300.0):
        results = search_counterexamples(7, 3)
    assert all(r.margin > 0 for r in results)


def test_criterion_8c_analyze_at_arity_cap(capsys):
    spec = ",".join(str(w) for w in range(1, 24)) + ",25"  # positive, odd sum
    with criterion("8c", "analyze at n=24", 60.0):
        code = main(["analyze", spec])
        out = capsys.readouterr().out
        assert code == 0
        results = json.loads(out)["results"]
        assert results["arity"] == 24 and results["monotone"] is True
        weights = [Fraction(w["exact"]) for w in results["degree_weights"]]
        infs = [Fraction(x["exact"]) for x in results["influences"]]
        assert sum(weights) == 1
        assert sum(infs) == sum(k * w for k, w in enumerate(weights))
        assert sum(x * x for x in infs) == weights[1]  # monotone: fhat({i}) = Inf_i
    print(capsys.readouterr().out.splitlines()[-1])
