"""Comparison verdicts, exact verification, crossover scan, and weight search."""

import json
from dataclasses import replace
from fractions import Fraction
from itertools import product
from math import comb, gcd

import numpy as np
import pytest

from boolfun import (
    TIE_TO_MINUS_ONE,
    BooleanFunction,
    LtfSpec,
    TieEncountered,
    canonical_weight_vectors,
    character_matrix,
    compare_stability,
    counterexample,
    crossover_scan,
    degree_weight,
    majority,
    materialize,
    naive_expansion,
    search_counterexamples,
    stability_polynomial,
    tie_witness,
    verify_counterexample,
    wht,
)
from boolfun import cli, conjecture, ltf
from boolfun.conjecture import (
    BRACKET_WIDTH,
    VERDICT_CONSISTENT,
    VERDICT_INDETERMINATE,
    VERDICT_REFUTES,
)

from helpers import (
    comparison_oracle,
    horner_oracle,
    level_weights_oracle,
    odd_root_sturm_chain,
    polynomial,
    random_function,
    random_monotone_spec,
    search_entry_oracle,
    search_oracle,
    sign_variations,
)


def test_compare_identical_functions():
    maj = majority(5)
    report = compare_stability(maj, maj, 10)
    assert all(c == 0 for c in report.diff.weights)
    assert report.verdict == VERDICT_CONSISTENT
    assert report.crossover_bracket is None
    assert report.small_rho_witness is None


def test_compare_counterexample_vs_majority():
    report = compare_stability(counterexample(), majority(5), 100)
    assert report.verdict == VERDICT_REFUTES
    assert report.margin == Fraction(1, 64)
    assert report.diff.weights == (
        Fraction(0),
        Fraction(1, 64),
        Fraction(0),
        Fraction(-3, 32),
        Fraction(0),
        Fraction(5, 64),
    )
    # exact difference at rho = 1/10, from the two weight vectors
    at_tenth = dict(report.grid)[Fraction(1, 10)]
    assert at_tenth == Fraction(1881, 1280000)
    # D vanishes at both endpoints for this unbiased pair
    assert report.grid[0][1] == 0
    assert report.grid[-1][1] == 0


def test_compare_reports_of_one_input_are_equal_apart_from_their_arrays():
    f, g = counterexample(), majority(5)
    first, second = compare_stability(f, g, 100), compare_stability(f, g, 100)
    assert first.grid_doubles is not second.grid_doubles
    assert first == second
    assert replace(first, grid_doubles=np.zeros((3, 101))) == first
    assert "grid_doubles" not in repr(first)
    assert not first.grid_doubles.flags.writeable
    with pytest.raises(ValueError):
        first.grid_doubles[2, 1] = 0.0


@pytest.mark.parametrize("points", [100, 2**16 - 1])
def test_compare_grid_doubles_are_the_nearest_doubles_to_the_grid(points):
    # float(Fraction) rounds to nearest; the exact samples come from D's
    # integer Horner, the doubles from the float64 evaluator.
    report = compare_stability(counterexample(), majority(5), points)
    assert len(report.grid) == points + 1
    assert report.grid_doubles[2].tolist() == [float(v) for _, v in report.grid]


@pytest.mark.parametrize("n", [1, 4, 5, 8])
def test_compare_diff_is_reference_minus_candidate_over_four_to_the_n(n):
    rng = np.random.default_rng(3200 + n)
    pairs = [(random_function(n, rng), random_function(n, rng)) for _ in range(3)]
    if n == 5:
        pairs.append((counterexample(), majority(5)))
    for f, g in pairs:
        diff = compare_stability(f, g, 8).diff
        poly_f, poly_g = stability_polynomial(wht(f)), stability_polynomial(wht(g))
        assert poly_f.denominator == poly_g.denominator == diff.denominator == 4**n
        assert diff.numerators == tuple(
            b - a for a, b in zip(poly_f.numerators, poly_g.numerators, strict=True)
        )


def test_compare_witness_prefix_property():
    report = compare_stability(counterexample(), majority(5), 100)
    rho0, value = report.small_rho_witness
    assert 0 < rho0 < 1 and value > 0
    for rho, diff in report.grid:
        if 0 < rho <= rho0:
            assert diff > 0


def test_compare_witness_fallback_below_coarse_grid():
    # with only rho in {0, 1/2, 1} sampled, D(1/2) < 0 hides the positive
    # region, so the witness must drop below the first grid point
    report = compare_stability(counterexample(), majority(5), 2)
    assert report.verdict == VERDICT_REFUTES
    rho0, value = report.small_rho_witness
    assert value > 0
    assert rho0 < Fraction(1, 2)
    assert all(not (0 < rho <= rho0) for rho, _ in report.grid)


def test_compare_crossover_bracket():
    report = compare_stability(counterexample(), majority(5), 100)
    lo, hi = report.crossover_bracket
    assert hi - lo <= BRACKET_WIDTH
    # the difference polynomial factors as rho (5 rho^2 - 1)(rho^2 - 1)/64,
    # so its only interior root is 1/sqrt(5)
    assert 5 * lo * lo < 1 < 5 * hi * hi


def test_compare_dictator_vs_majority3_consistent():
    dictator3 = materialize(LtfSpec((1, 0, 0)))
    report = compare_stability(dictator3, majority(3), 10)
    assert report.diff.weights == (
        Fraction(0),
        Fraction(-1, 4),
        Fraction(0),
        Fraction(1, 4),
    )
    assert report.verdict == VERDICT_CONSISTENT
    assert all(v <= 0 for _, v in report.grid)


def test_compare_indeterminate_when_positive_without_margin():
    # reverse the refuting pair: margin is negative but D has positive samples
    report = compare_stability(majority(5), counterexample(), 100)
    assert report.margin == Fraction(-1, 64)
    assert report.verdict == VERDICT_INDETERMINATE


def test_compare_validation():
    with pytest.raises(ValueError):
        compare_stability(majority(3), majority(5), 10)
    with pytest.raises(ValueError):
        compare_stability(majority(3), majority(3), 1)


@pytest.mark.parametrize("size", [2.5, 256.0, Fraction(256)])
def test_non_integer_grid_refused_before_any_spectrum(size, monkeypatch):
    calls = []
    original = conjecture.wht

    def counting(f):
        calls.append(f.n)
        return original(f)

    monkeypatch.setattr(conjecture, "wht", counting)
    f, g = counterexample(), majority(5)
    with pytest.raises(ValueError, match="integer"):
        compare_stability(f, g, size)
    with pytest.raises(ValueError, match="integer"):
        crossover_scan(f, g, size)
    assert calls == []


@pytest.mark.parametrize("n", [5, 9])
def test_numpy_integer_grid_gives_the_int_report(n):
    # At n = 9 the grid's G^n passes 2^63, so the samples need Python ints.
    f = materialize(LtfSpec((3,) + (1,) * (n - 1)))
    expected = compare_stability(f, majority(n), 256)
    report = compare_stability(f, majority(n), np.int64(256))
    assert report == expected and report.grid == expected.grid
    assert crossover_scan(f, majority(n), np.int64(256)) == crossover_scan(
        f, majority(n), 256
    )


def test_verify_counterexample_passes():
    report = verify_counterexample()
    assert report.passed and report.first_failure is None
    values = {c.name: c.computed for c in report.checks}
    assert values["Inf_1[Maj_5]"] == Fraction(3, 8)
    assert values["Inf_1[f]"] == Fraction(1, 2)
    assert values["Inf_3[f]"] == Fraction(1, 4)
    assert values["W^1[Maj_5]"] == Fraction(45, 64)
    assert values["W^1[f]"] == Fraction(44, 64)
    assert values["W^1[f] < W^1[Maj_5]"] is True
    assert report.stab_candidate < report.stab_majority
    assert report.stab_majority - report.stab_candidate == Fraction(1881, 1280000)


def test_verify_counterexample_symmetry_groups():
    report = verify_counterexample()
    inf = report.candidate_influences
    assert inf[0] == inf[1]
    assert inf[2] == inf[3] == inf[4]
    names = [c.name for c in report.checks]
    assert "Inf_i[f] constant on {1,2}" in names
    assert "Inf_i[f] constant on {3,4,5}" in names


def test_verify_counterexample_corrupted_table():
    clean = counterexample()
    corrupted = BooleanFunction(clean.n, clean.table ^ 1)
    report = verify_counterexample(candidate=corrupted)
    assert not report.passed
    assert report.first_failure is not None
    failing = next(c for c in report.checks if c.name == report.first_failure)
    assert not failing.passed


def test_crossover_scan_identical():
    assert crossover_scan(majority(5), majority(5)) == []


def test_crossover_scan_counterexample():
    brackets = crossover_scan(counterexample(), majority(5))
    assert len(brackets) == 1
    lo, hi = brackets[0]
    assert hi - lo <= BRACKET_WIDTH
    assert 5 * lo * lo < 1 < 5 * hi * hi


def test_crossover_scan_parity_sign_constant():
    parity5 = BooleanFunction.from_signs(character_matrix(5)[0b11111])
    assert crossover_scan(parity5, majority(5)) == []


def test_crossover_scan_counts_odd_roots_by_sturm():
    # D changes sign on (0, 1) exactly at its odd-multiplicity roots, so the
    # scan's bracket count must equal their Sturm count. The scan compares
    # consecutive nonzero samples at 1/256 spacing, so it cannot see two such
    # roots between the same pair of samples, nor one below the first
    # nonzero sample or above the last. Those pairs are counted in
    # ``unresolved`` and not asserted on. This seed gives 18 pairs with
    # crossings and no unresolved pair.
    rng = np.random.default_rng(20)
    resolution = 256
    crossing, unresolved = 0, []
    for n in (5, 7, 9, 11):
        for _ in range(30):
            f, g = (materialize(random_monotone_spec(n, rng)) for _ in range(2))
            diff = [
                b - a for a, b in zip(level_weights_oracle(wht(f)), level_weights_oracle(wht(g)))
            ]
            brackets = crossover_scan(f, g, resolution)
            if not any(diff):
                assert brackets == []
                continue
            chain = odd_root_sturm_chain(diff)
            roots = sign_variations(chain, 0) - sign_variations(chain, 1)
            if roots:
                grid = [Fraction(t, resolution) for t in range(1, resolution)]
                stops = [0] + [x for x in grid if horner_oracle(diff, x) != 0] + [1]
                v = [sign_variations(chain, x) for x in stops]
                per_gap = [a - b for a, b in zip(v, v[1:])]
                if per_gap[0] or per_gap[-1] or max(per_gap) > 1:
                    unresolved.append((f, g))
                    continue
            assert len(brackets) == roots
            crossing += roots > 0
            # D(0) = 0 here, so D'(0) > 0 refutes; otherwise D stays <= 0 on
            # (0, 1) exactly when it has no odd root there and starts negative.
            lowest = next(c for c in diff if c)
            if diff[1] > 0:
                expected = VERDICT_REFUTES
            elif roots == 0 and lowest < 0:
                expected = VERDICT_CONSISTENT
            else:
                expected = VERDICT_INDETERMINATE
            assert compare_stability(f, g, resolution).verdict == expected
    assert crossing >= 10


def test_compare_bisects_only_the_reported_crossing(monkeypatch):
    # This n = 9 pair crosses twice on the 1/256 grid; compare reports the
    # first bracket and must not bisect the second.
    f = materialize(LtfSpec((4, 3, 6, 3, 6, 5, 1, 4, 3)))
    g = materialize(LtfSpec((5, 5, 4, 5, 7, 3, 1, 5, 6)))
    brackets = crossover_scan(f, g, 256)
    assert len(brackets) == 2
    calls = []
    original = conjecture._refine_bracket

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(conjecture, "_refine_bracket", counting)
    report = compare_stability(f, g, 256)
    assert len(calls) == 1
    assert report.crossover_bracket == brackets[0]


# Hand-picked pairs for the sign scans, each at grids that sample its features:
# counterexample vs Maj_5 at grid 2 has no positive grid prefix, so its
# witness comes from halving; f = g samples zero everywhere; tables 300
# and 105 (n = 4) give D = rho (1 - 2 rho)(1 - rho^2) / 8, which crosses zero
# exactly at the sample 1/2 after a positive prefix; tables 1659 and 2016
# give a biased D with a zero sample at 1/3 between two positive ones (a
# touch on the grid, not a crossover); tables 24 and 15 (n = 3) give
# D = -(1 - rho)(1 - 3 rho) / 4, crossing at the sample 1/3; Maj_3 against
# the dictator gives D = rho (1 - rho^2) / 4, positive on all of (0, 1).
SIGN_SCAN_CASES = [
    (counterexample(), majority(5), (2, 4, 100)),
    (majority(5), counterexample(), (2, 4, 100)),
    (majority(5), majority(5), (2, 10)),
    (BooleanFunction(4, 300), BooleanFunction(4, 105), (2, 4, 8, 12)),
    (BooleanFunction(4, 105), BooleanFunction(4, 300), (4, 8)),
    (BooleanFunction(4, 1659), BooleanFunction(4, 2016), (3, 6, 9)),
    (BooleanFunction(4, 2016), BooleanFunction(4, 1659), (3, 6)),
    (BooleanFunction(3, 24), BooleanFunction(3, 15), (3, 6, 7)),
    (majority(3), materialize(LtfSpec((1, 0, 0))), (2, 3, 16)),
]


def assert_sign_scans_match_oracle(f, g, grid):
    report = compare_stability(f, g, grid)
    verdict, witness, brackets = comparison_oracle(report.diff.weights, grid)
    assert report.verdict == verdict
    assert report.small_rho_witness == witness
    assert report.crossover_bracket == (brackets[0] if brackets else None)
    assert crossover_scan(f, g, grid) == brackets
    return report


@pytest.mark.parametrize("case", range(len(SIGN_SCAN_CASES)))
def test_sign_scans_match_fraction_sample_oracle_on_edge_pairs(case):
    f, g, grids = SIGN_SCAN_CASES[case]
    for grid in grids:
        report = assert_sign_scans_match_oracle(f, g, grid)
        # The lazy grid is the Fraction samples, value and type, against D
        # rebuilt from its Fraction coefficients.
        diff = polynomial(report.diff.weights)
        assert report.grid == tuple(
            (Fraction(t, grid), diff.evaluate(Fraction(t, grid))) for t in range(grid + 1)
        )
        assert all(type(x) is Fraction for sample in report.grid for x in sample)


def test_sign_scan_edge_pairs_show_their_features():
    # The features the cases above are chosen for, on the grid samples.
    def signs(f, g, grid):
        return [(v > 0) - (v < 0) for _, v in compare_stability(f, g, grid).grid]

    halving = compare_stability(counterexample(), majority(5), 2).small_rho_witness
    assert 0 < halving[0] < Fraction(1, 2) and halving[1] > 0
    assert signs(majority(5), majority(5), 10) == [0] * 11
    assert signs(BooleanFunction(4, 300), BooleanFunction(4, 105), 4) == [0, 1, 0, -1, 0]
    assert compare_stability(
        BooleanFunction(4, 300), BooleanFunction(4, 105), 4
    ).crossover_bracket == (Fraction(1, 2), Fraction(1, 2))
    assert signs(BooleanFunction(4, 1659), BooleanFunction(4, 2016), 3) == [1, 0, 1, 0]
    assert signs(BooleanFunction(3, 24), BooleanFunction(3, 15), 3) == [-1, 0, 1, 0]
    assert signs(majority(3), materialize(LtfSpec((1, 0, 0))), 16)[1:-1] == [1] * 15


@pytest.mark.parametrize("n", [1, 3, 5, 7, 9, 11])
def test_sign_scans_match_fraction_sample_oracle_on_seeded_pairs(n):
    rng = np.random.default_rng(1700 + n)
    for _ in range(6):
        f, g = (materialize(random_monotone_spec(n, rng)) for _ in range(2))
        for grid in (2, 4, 7, 64):
            assert_sign_scans_match_oracle(f, g, grid)


def test_crossover_scan_validation():
    with pytest.raises(ValueError):
        crossover_scan(majority(3), majority(5))


def test_crossover_scan_grid_limit_edge():
    dictator = materialize(LtfSpec((3, 1, 1)))
    assert crossover_scan(dictator, majority(3), resolution=conjecture.MAX_GRID) == []
    with pytest.raises(ValueError, match="over the limit"):
        crossover_scan(dictator, majority(3), resolution=conjecture.MAX_GRID + 1)


def test_canonical_weight_vectors():
    vectors = list(canonical_weight_vectors(5, 2))
    assert vectors == [
        (2, 2, 2, 2, 1),
        (2, 2, 2, 1, 1),
        (2, 2, 1, 1, 1),
        (2, 1, 1, 1, 1),
        (1, 1, 1, 1, 1),
    ]
    assert list(canonical_weight_vectors(5, 1)) == [(1, 1, 1, 1, 1)]
    assert all(max(v) <= 3 and gcd(*v) == 1 for v in canonical_weight_vectors(3, 3))


def test_search_5_2_finds_exactly_the_known_function():
    results = search_counterexamples(5, 2)
    assert len(results) == 1
    hit = results[0]
    assert hit.spec.weights == (2, 2, 1, 1, 1)
    assert hit.margin == Fraction(1, 64)
    assert hit.w1 == Fraction(44, 64)
    assert hit.w1_majority == Fraction(45, 64)
    assert hit.table_hex == "88e8e8ee"


def test_search_empty_cases():
    assert search_counterexamples(5, 1) == []
    for bound in (2, 3, 5):
        assert search_counterexamples(3, bound) == []


def test_search_results_sorted_and_deduplicated():
    results = search_counterexamples(7, 3)
    margins = [r.margin for r in results]
    assert margins == sorted(margins, reverse=True)
    tables = [r.table_hex for r in results]
    assert len(tables) == len(set(tables))


def test_search_sorted_by_margin_then_weights():
    # The library sorts on the integer 4^n * W_1; the order must be the one
    # its Fraction margins give, with the weights breaking margin ties.
    results = search_counterexamples(9, 8)
    keys = [(-r.margin, r.spec.weights) for r in results]
    assert keys == sorted(keys)
    margins = [r.margin for r in results]
    assert any(a == b for a, b in zip(margins, margins[1:]))


def test_search_w1_reproducible_by_naive_path():
    for r in search_counterexamples(7, 3):
        f = materialize(r.spec)
        assert degree_weight(naive_expansion(f), 1) == r.w1


def test_search_duplicate_tables_collapse():
    # weights (2,2,2,2,1) define the same function as (1,1,1,1,1)
    assert materialize(LtfSpec((2, 2, 2, 2, 1))) == majority(5)


def test_search_validation():
    for bad_n, bad_w in ((4, 2), (11, 2), (0, 2), (5, 0), (5, 2.0), (5, 2.5)):
        with pytest.raises(ValueError):
            search_counterexamples(bad_n, bad_w)
    assert search_counterexamples(5, np.int64(2)) == search_counterexamples(5, 2)
    assert search_counterexamples(np.int64(5), 2) == search_counterexamples(5, 2)


def _largest_admitted_weight(n):
    """The largest max_weight whose C(n + max_weight - 1, n) vectors the search admits."""
    m = 1
    while comb(n + m, n) <= conjecture.SEARCH_MAX_VECTORS:
        m += 1
    return m


def _largest_canonical_norm(n, max_weight):
    """max |w|_1 over gcd-1 nonincreasing vectors in [1, max_weight]^n.

    At n = 1 only (1,) has gcd 1. For n >= 2, (m, ..., m, m - 1) has gcd 1
    and every vector with a larger sum is all m, of gcd m > 1 unless m = 1.
    """
    if n == 1 or max_weight == 1:
        return n
    return n * max_weight - 1


def test_largest_canonical_norm_matches_enumeration():
    for n in (1, 2, 3, 5):
        for m in (1, 2, 3, 6):
            assert _largest_canonical_norm(n, m) == max(
                sum(w) for w in canonical_weight_vectors(n, m)
            )


def test_screened_sums_fit_int16():
    # The screen's weighted sums are int16: every screened |w . x| is at most
    # |w|_1, so the constants must keep the largest canonical |w|_1 below
    # 2^15. Raising SEARCH_MAX_VECTORS or SEARCH_MAX_ARITY moves it.
    admitted = {
        n: _largest_admitted_weight(n) for n in range(3, conjecture.SEARCH_MAX_ARITY + 1, 2)
    }
    assert admitted == {3: 180, 5: 39, 7: 21, 9: 15}
    norms = [_largest_canonical_norm(1, conjecture.SEARCH_MAX_VECTORS)]
    norms += [_largest_canonical_norm(n, m) for n, m in admitted.items()]
    assert max(norms) == 539 == sum((180, 180, 179))
    assert max(norms) <= np.iinfo(np.int16).max


def test_search_materializes_only_majority(monkeypatch):
    passes = []
    original = ltf._weighted_sums

    def counting(spec):
        passes.append(spec.weights)
        return original(spec)

    monkeypatch.setattr(ltf, "_weighted_sums", counting)
    assert search_counterexamples(7, 3)
    # The W_1 bar is majority's closed form, so no table is built one at a time.
    assert passes == []


@pytest.mark.parametrize("n", [1, 3, 5, 7, 9])
def test_search_bar_is_majority_w1(n, monkeypatch):
    # The closed-form bar equals Maj_n's W_1 from its table at every admitted n.
    bars = []
    original = conjecture._screen_block

    def spying(block, *, w1_bar):
        bars.append(w1_bar)
        return original(block, w1_bar=w1_bar)

    monkeypatch.setattr(conjecture, "_screen_block", spying)
    search_counterexamples(n, 2)
    assert bars and set(bars) == {degree_weight(wht(majority(n)), 1) * 4**n}


@pytest.mark.parametrize("require_tie_free", [True, False])
@pytest.mark.parametrize(
    "n, max_weight", [(1, 3), (3, 5), (5, 2), (5, 3), (7, 2), (7, 3), (7, 5), (9, 4)]
)
def test_search_matches_per_candidate_oracle(n, max_weight, require_tie_free):
    # The library has no tie mode: tie-broken theta=0 tables are biased toward
    # -1, so the oracle that admits them must still agree. The oracle asserts
    # every reported flag on each survivor by the table predicates.
    assert search_counterexamples(n, max_weight) == search_oracle(
        n, max_weight, require_tie_free
    )


@pytest.mark.parametrize("workers", [1, 2])
def test_search_workers_match_per_candidate_oracle(workers, tmp_path, capsys):
    # --parallel K is accepted and bounded; the file must hold the oracle's
    # results whatever K is.
    expected = search_oracle(7, 3)
    assert expected
    out_path = tmp_path / "search.json"
    argv = ["search", "7", "3", "--parallel", str(workers), "--out", str(out_path)]
    assert cli.main(argv) == 0
    capsys.readouterr()
    doc = json.loads(out_path.read_text())
    assert doc["results"]["counterexamples"] == json.loads(
        json.dumps([search_entry_oracle(r) for r in expected])
    )


def test_screen_block_rows_match_table_route():
    # Signed weights give non-monotone rows, which canonical vectors never do,
    # and even sums give tie rows, which the unbiased filter alone must drop;
    # a bar above 4^n keeps every unbiased row. (9, 15) and (3, 180) are the
    # SEARCH_MAX_VECTORS edges at n = 9 and n = 3 of the int16 sums; the
    # appended rows reach |w . x| = n * bound, 540 at (3, 180). n = 1 and 2
    # are the half cube's edges: one entry and no lower coordinate, then one
    # lower coordinate; zero weights and |w_1| = |w_2| give their tie rows.
    rng = np.random.default_rng(7)
    for n, bound in ((1, 3), (2, 3), (3, 4), (5, 4), (7, 4), (9, 15), (3, 180)):
        block = [
            tuple(int(w) for w in rng.integers(-bound, bound + 1, size=n))
            for _ in range(300)
        ]
        block += [(bound,) * n] + [tuple(map(abs, w)) for w in block[:20]]
        rows = conjecture._screen_block(block, w1_bar=4**n + 1)
        expected = []
        for weights in block:
            f = materialize(LtfSpec(weights, 0, TIE_TO_MINUS_ONE))
            if f.ones() * 2 == f.size:
                assert tie_witness(LtfSpec(weights)) is None
                expected.append(
                    (weights, degree_weight(wht(f), 1) * 4**n, bytes.fromhex(f.to_hex()))
                )
        assert rows == expected
        assert all(type(row[1]) is int for row in rows)
        assert any(tie_witness(LtfSpec(w)) is not None for w in block)


def test_search_rows_of_one_w1_share_one_value():
    # One w1/margin pair is built per distinct W_1 value, and the listing
    # renders each object once.
    results = search_counterexamples(9, 8)
    first = {}
    for r in results:
        seen = first.setdefault(r.w1, r)
        assert r.w1 is seen.w1 and r.margin is seen.margin
    assert (len(results), len(first)) == (1836, 122)


def test_screen_block_with_no_balanced_row():
    # Even weight sums tie, so every row is biased and none is selected.
    assert conjecture._screen_block([(2, 1, 1), (1, 1, 0)], w1_bar=4**3 + 1) == []


def test_search_canonicalization_soundness_n5_w2():
    """Sign/permutation variants add nothing beyond the canonical slice."""
    maj_w1 = degree_weight(wht(majority(5)), 1)
    canonical_hits = {
        r.spec.weights for r in search_counterexamples(5, 2)
    }
    variant_hits = set()
    for weights in product((-2, -1, 1, 2), repeat=5):
        spec = LtfSpec(weights)
        try:
            f = materialize(spec)
        except TieEncountered:
            continue
        if f.ones() * 2 != f.size:
            continue
        if maj_w1 - degree_weight(wht(f), 1) > 0:
            canon = tuple(sorted((abs(w) for w in weights), reverse=True))
            divisor = gcd(*canon)
            variant_hits.add(tuple(w // divisor for w in canon))
    assert variant_hits == canonical_hits == {(2, 2, 1, 1, 1)}


def test_diff_vanishes_at_one_for_any_pair():
    rng = np.random.default_rng(41)
    for n in (2, 4, 6):
        f, g = random_function(n, rng), random_function(n, rng)
        report = compare_stability(f, g, 8)
        assert report.grid[-1][1] == 0
