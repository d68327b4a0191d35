"""Stability comparison against majority, exact verification, and weight search.

The driving fact: for unbiased functions the noise-stability curves of f and
Maj_n agree at rho = 0 and rho = 1, so near zero the comparison is decided by
the linear coefficients, the level-1 weights W_1. A candidate with
W_1[f] < W_1[Maj_n] is strictly less stable than majority for small rho.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain, combinations_with_replacement, groupby, islice

import numpy as np

from .core import BooleanFunction, checked_int
from .fourier import (
    MAX_GRID,
    StabilityPolynomial,
    _grid_doubles,
    coefficient,
    influence,
    stability_polynomial,
    wht,
)
from .ltf import (
    LtfSpec,
    _sums_by_doubling,
    counterexample,
    is_monotone,
    is_unbiased,
    majority,
    materialize,  # unused here; perfbench/test_perfbench.py checks this binding
)

VERDICT_REFUTES = "refutes_at_small_rho"
VERDICT_CONSISTENT = "consistent"
VERDICT_INDETERMINATE = "indeterminate"

SEARCH_MAX_ARITY = 9
# Upper bound on the nonincreasing vectors a search may enumerate,
# C(n + max_weight - 1, n); (9, 15) is the largest admitted at n = 9.
SEARCH_MAX_VECTORS = 10**6
# Vectors per screened block: the block's int16 half-cube sums hold
# SEARCH_BLOCK * 2^(n-1) entries, 128 KiB at n = 9. Blocks of 256, 512 and
# 1024 screen (9, 8) and (9, 15) equally fast; 128 and 2048 are 10-30% slower.
SEARCH_BLOCK = 256

# Sign-change brackets are narrowed to this width; they localize roots of the
# difference polynomial, they do not prove isolation.
BRACKET_WIDTH = Fraction(1, 2**40)

__all__ = [
    "BRACKET_WIDTH",
    "SEARCH_MAX_ARITY",
    "SEARCH_MAX_VECTORS",
    "VERDICT_CONSISTENT",
    "VERDICT_INDETERMINATE",
    "VERDICT_REFUTES",
    "ComparisonReport",
    "IdentityCheck",
    "SearchResult",
    "VerificationReport",
    "canonical_weight_vectors",
    "compare_stability",
    "crossover_scan",
    "search_counterexamples",
    "verify_counterexample",
]


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _refine_bracket(diff: StabilityPolynomial, lo, hi, lo_sign):
    """Bisect a strict sign change down to width <= 2^-40, exactly."""
    while hi - lo > BRACKET_WIDTH:
        mid = (lo + hi) / 2
        s = _sign(diff.evaluate(mid))
        if s == 0:
            return (mid, mid)
        if s == lo_sign:
            lo = mid
        else:
            hi = mid
    return (lo, hi)


def _sign_change_brackets(diff: StabilityPolynomial, values: np.ndarray):
    """Lazily bisected brackets for every sign change of the polynomial in (0, 1).

    ``values`` are the nearest doubles to the grid samples D(t/G), t = 0..G,
    so each has the sign of its sample. Zero-valued samples carry no sign,
    so the scan compares consecutive nonzero signs and bisects each flip; a
    touch of zero with equal signs on both sides is a root but not a
    crossover and is not reported. If a bisection midpoint lands exactly on
    a root, the zero-width bracket marks that exact rational root, with
    opposite signs on either side.
    """
    points = len(values) - 1
    nonzero = np.flatnonzero(values)
    positive = values[nonzero] > 0
    flips = np.flatnonzero(positive[1:] != positive[:-1])
    return (
        _refine_bracket(diff, Fraction(t0, points), Fraction(t1, points), 1 if up else -1)
        for t0, t1, up in zip(
            nonzero[flips].tolist(), nonzero[flips + 1].tolist(), positive[flips].tolist()
        )
    )


@dataclass(frozen=True)
class ComparisonReport:
    """Exact comparison of two stability curves, reference minus candidate.

    ``grid_doubles`` follows from the polynomials and the grid, so equality
    leaves it out.
    """

    arity: int
    poly_candidate: StabilityPolynomial
    diff: StabilityPolynomial  # D(rho) = Stab[reference] - Stab[candidate], over 4^n
    # Read-only (3, G + 1) float64: the nearest doubles to Stab[candidate],
    # Stab[reference] and D at t/G.
    grid_doubles: np.ndarray = field(compare=False, repr=False)
    margin: Fraction  # D'(0) = W_1[reference] - W_1[candidate]
    verdict: str
    crossover_bracket: tuple[Fraction, Fraction] | None
    small_rho_witness: tuple[Fraction, Fraction] | None  # (rho_0, D(rho_0))

    @cached_property
    def grid(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """The (rho, D(rho)) samples as Fractions, built on first read."""
        points = self.grid_doubles.shape[1] - 1
        numerators, denominator = self.diff.grid_numerators(points)
        return tuple(
            (Fraction(t, points), Fraction(val, denominator)) for t, val in enumerate(numerators)
        )


def _curves(candidate, reference, points: int):
    """The stability polynomials of both functions and D = Stab[reference] -
    Stab[candidate], after checking the arities and the grid ``points``.
    """
    if candidate.n != reference.n:
        raise ValueError(f"arity mismatch: {candidate.n} vs {reference.n}")
    checked_int(points, "rho grid intervals", 2, MAX_GRID)
    poly_f = stability_polynomial(wht(candidate))
    poly_g = stability_polynomial(wht(reference))
    # Both curves are over 4^n, so D's numerators are differences.
    diff = StabilityPolynomial(
        tuple(g - f for f, g in zip(poly_f.numerators, poly_g.numerators)), poly_f.denominator
    )
    return poly_f, poly_g, diff


def _small_rho_witness(diff: StabilityPolynomial, values: np.ndarray):
    """A rho_0 with D positive on every sampled point of (0, rho_0].

    The positive grid prefix serves when there is one; ``values`` are the
    nearest doubles to D(t/G), with the signs of the samples, and the value
    at the prefix's end is one exact evaluation. Otherwise halve downward
    from below the first grid point, so no grid sample lies in (0, rho_0].
    With c_0 = 0 and c_1 > 0, on (0, 1]
    D(rho) >= c_1*rho - rho^2 * sum_{k>=2} |c_k|, positive once
    rho * sum_{k>=2} |c_k| < c_1, which fixes the number of halvings.
    """
    points = len(values) - 1
    stops = np.flatnonzero(values[1:] <= 0)
    last = int(stops[0]) if stops.size else points
    if last:
        rho = Fraction(last, points)
        return (rho, diff.evaluate(rho))
    rho = Fraction(1, 2 * points)
    tail = sum(abs(a) for a in diff.numerators[2:])
    halvings = int(rho * tail / diff.numerators[1]).bit_length()
    for _ in range(halvings + 1):
        val = diff.evaluate(rho)
        if val > 0:
            return (rho, val)
        rho /= 2
    raise AssertionError(f"D(rho) <= 0 after {halvings} halvings despite the bound")


def compare_stability(
    candidate: BooleanFunction, reference: BooleanFunction, grid_size: int = 256
) -> ComparisonReport:
    """Compare noise-stability curves exactly on a rho grid over [0, 1].

    The verdict is ``refutes_at_small_rho`` exactly when both functions
    have the same W_0 (squared mean) and the candidate's level-1 weight is
    strictly below the reference's, so D(0) = 0 < D'(0). Otherwise it is
    ``consistent`` when no sampled difference is positive, and
    ``indeterminate`` when one is.
    """
    poly_f, poly_g, diff = _curves(candidate, reference, grid_size)
    doubles = _grid_doubles((poly_f, poly_g, diff), grid_size)
    values = doubles[2]
    margin = diff.weights[1]
    if diff.weights[0] == 0 and margin > 0:
        verdict = VERDICT_REFUTES
        witness = _small_rho_witness(diff, values)
    else:
        witness = None
        verdict = VERDICT_INDETERMINATE if (values > 0).any() else VERDICT_CONSISTENT
    return ComparisonReport(
        arity=candidate.n,
        poly_candidate=poly_f,
        diff=diff,
        grid_doubles=doubles,
        margin=margin,
        verdict=verdict,
        crossover_bracket=next(_sign_change_brackets(diff, values), None),
        small_rho_witness=witness,
    )


def crossover_scan(
    candidate: BooleanFunction, reference: BooleanFunction, resolution: int = 4096
) -> list[tuple[Fraction, Fraction]]:
    """Locate every sign change of the stability difference on (0, 1).

    Samples at multiples of 1/resolution (default 2^-12), then bisects each
    strict sign flip to width <= 2^-40. Between returned brackets the
    difference is sign-constant on the sampled points only; the resolution is
    the caller-visible bound on what the scan can distinguish.
    """
    _, _, diff = _curves(candidate, reference, resolution)
    return list(_sign_change_brackets(diff, _grid_doubles((diff,), resolution)[0]))


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    claimed: object  # Fraction or bool
    computed: object
    passed: bool


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[IdentityCheck, ...]
    passed: bool
    first_failure: str | None
    candidate_influences: tuple[Fraction, ...]
    w1_majority: Fraction
    w1_candidate: Fraction
    stab_rho: Fraction
    stab_majority: Fraction
    stab_candidate: Fraction


def verify_counterexample(candidate: BooleanFunction | None = None) -> VerificationReport:
    """Recompute the exact spectral facts that make the bundled function
    sign(2x1 + 2x2 + x3 + x4 + x5) less stable than Maj_5 near rho = 0.

    Every claimed value is hand-countable: coordinate 1 of Maj_5 is pivotal
    iff the other four coordinates split 2-2, giving C(4,2)/2^4 = 3/8;
    coordinate 1 of f is pivotal iff |2x2 + x3 + x4 + x5| = 1 (8 of 16
    settings); coordinate 3 iff 2x1 + 2x2 + x4 + x5 = 0, forcing x1 = -x2
    and x4 = -x5 (4 of 16). Monotonicity turns those influences into the
    level-1 coefficients, so W_1 is 5*(3/8)^2 = 45/64 against
    2*(1/2)^2 + 3*(1/4)^2 = 44/64. A mismatch here signals an implementation
    bug, not a wrong claim; the ``candidate`` override exists so harnesses
    can inject a corrupted table and watch the failure path.
    """
    maj = majority(5)
    cand = candidate if candidate is not None else counterexample()
    e_maj = wht(maj)
    e_cand = wht(cand)
    inf_maj = tuple(influence(maj, i) for i in range(1, 6))
    inf_cand = tuple(influence(cand, i) for i in range(1, 6))
    poly_maj = stability_polynomial(e_maj)
    poly_cand = stability_polynomial(e_cand)
    w1_maj, w1_cand = poly_maj.weights[1], poly_cand.weights[1]
    rho = Fraction(1, 10)
    stab_maj, stab_cand = poly_maj.evaluate(rho), poly_cand.evaluate(rho)

    checks = []

    def check(name, claimed, computed):
        checks.append(IdentityCheck(name, claimed, computed, claimed == computed))

    check("Inf_1[Maj_5]", Fraction(3, 8), inf_maj[0])
    check("Inf_1[f]", Fraction(1, 2), inf_cand[0])
    check("Inf_3[f]", Fraction(1, 4), inf_cand[2])
    check("Maj_5 monotone", True, is_monotone(maj))
    check("f monotone", True, is_monotone(cand))
    check(
        "fhat({i}) = Inf_i[Maj_5] for all i",
        True,
        all(coefficient(e_maj, 1 << (i - 1)) == inf_maj[i - 1] for i in range(1, 6)),
    )
    check(
        "fhat({i}) = Inf_i[f] for all i",
        True,
        all(coefficient(e_cand, 1 << (i - 1)) == inf_cand[i - 1] for i in range(1, 6)),
    )
    check("Inf_i[f] constant on {1,2}", True, inf_cand[0] == inf_cand[1])
    check("Inf_i[f] constant on {3,4,5}", True, inf_cand[2] == inf_cand[3] == inf_cand[4])
    check("W^1[Maj_5]", Fraction(45, 64), w1_maj)
    check("W^1[f]", Fraction(44, 64), w1_cand)
    check("Maj_5 unbiased", True, is_unbiased(maj))
    check("f unbiased", True, is_unbiased(cand))
    check("W^1[f] < W^1[Maj_5]", True, w1_cand < w1_maj)
    check("Stab_{1/10}[f] < Stab_{1/10}[Maj_5]", True, stab_cand < stab_maj)

    failures = [c.name for c in checks if not c.passed]
    return VerificationReport(
        checks=tuple(checks),
        passed=not failures,
        first_failure=failures[0] if failures else None,
        candidate_influences=inf_cand,
        w1_majority=w1_maj,
        w1_candidate=w1_cand,
        stab_rho=rho,
        stab_majority=stab_maj,
        stab_candidate=stab_cand,
    )


@dataclass(frozen=True)
class SearchResult:
    """One weight vector whose function beats majority's W_1 from below."""

    spec: LtfSpec
    w1: Fraction
    w1_majority: Fraction
    margin: Fraction  # w1_majority - w1, positive for reported results
    table_hex: str


def canonical_weight_vectors(n: int, max_weight: int):
    """Nonincreasing vectors over [1, max_weight] with gcd 1.

    This canonical slice loses nothing for the W_1 screen: permuting
    coordinates or negating any of them leaves every degree weight unchanged,
    and rescaling all weights by a common factor leaves the function itself
    unchanged. Both arguments are checked on the first ``next``.
    """
    n = checked_int(n, "search arity", 1, SEARCH_MAX_ARITY)
    max_weight = checked_int(max_weight, "max_weight", 1)
    for w in combinations_with_replacement(range(max_weight, 0, -1), n):
        if math.gcd(*w) == 1:
            yield w


def _screen_block(block, *, w1_bar):
    """Screen a block of weight vectors at once; one tuple per survivor.

    Every survivor of a canonical block is tie-free, odd and monotone, so
    none of these is computed. A tie at x is a tie at -x, and both map to
    -1, so a table with a tie is biased and fails the unbiased filter.
    Without ties, sign(w . (-x)) = -sign(w . x): the table is odd. Positive
    weights make it monotone.

    So half the cube decides everything. Each column of ``half`` is w . x
    at the 2^(n-1) inputs with x_n = +1, w_n plus the sums of the first
    n - 1 weights from the doubling pass that ``ltf`` materializes tables
    with. ``positive`` marks their +1 entries in the ``map_to_minus_one``
    table (+1 iff w . x > 0). A column is balanced exactly when it has no
    zero sum, and then f(-x) = -f(x) gives the rest: the full table is
    ``~positive[::-1]`` followed by ``positive``. With #p the +1 count on
    the half cube and c_i the count of those with coordinate i at +1, the
    Chow parameters are 4 * #p - 2^n for coordinate n and 8 * c_i - 4 * #p
    for the others. 4^n * W_1 sums their squares, in no particular order.

    The sums are exact in int16. At n = 1 the gcd filter leaves only (1,);
    SEARCH_MAX_VECTORS caps max_weight at 180, 39, 21 and 15 for n = 3, 5,
    7 and 9, so |w . x| <= |w|_1 <= 539 < 2^15, at (180, 180, 179).
    The result tuples are (weights, 4^n * W_1, packed table bytes).
    """
    n = len(block[0])
    # Copied to (n, block) rows, so each doubling stage adds a contiguous row.
    weights = np.fromiter(chain.from_iterable(block), np.int16, len(block) * n)
    weights = weights.reshape(len(block), n).T.copy()
    half = _sums_by_doubling(weights[:-1])
    half += weights[-1]
    positive = half > 0
    # One halving pass, top index bit first: c_i for bit i is the upper
    # half's sum, and adding the halves folds that bit away, down to #p in
    # fold[0]. int16 holds every count, at most 2^(n-1) <= 256 here.
    chow = np.empty((n, len(block)), dtype=np.int64)
    fold = positive.astype(np.int16)
    for i in reversed(range(n - 1)):
        h = 1 << i
        chow[i] = fold[h:].sum(axis=0, dtype=np.int16)
        fold = fold[:h] + fold[h:]
    ones = 4 * fold[0]
    chow[:-1] *= 8
    chow[:-1] -= ones
    chow[-1] = ones - (1 << n)
    w1_scaled = (chow * chow).sum(axis=0)
    rows = np.flatnonzero(half.all(axis=0) & (w1_scaled < w1_bar))
    upper = positive[:, rows]
    tables = np.packbits(np.concatenate((~upper[::-1], upper)), axis=0, bitorder="little").T
    vectors = map(block.__getitem__, rows.tolist())
    return list(zip(vectors, w1_scaled[rows].tolist(), map(np.ndarray.tobytes, tables)))


def search_counterexamples(n: int, max_weight: int) -> list[SearchResult]:
    """Exhaust canonical weight vectors and report every W_1 beat of Maj_n.

    Vectors are screened in blocks of ``SEARCH_BLOCK`` with no truth table
    built per candidate. Results are deduplicated on the truth table
    (distinct weight vectors can define the same function; the first in
    enumeration order wins) and sorted by margin descending, ties broken by
    the weight tuple, so the output is deterministic. A search over more
    than ``SEARCH_MAX_VECTORS`` nonincreasing vectors is refused up front.
    """
    n = checked_int(n, "search arity", 1, SEARCH_MAX_ARITY)
    if n % 2 == 0:
        raise ValueError(f"search needs an odd arity, got {n}")
    max_weight = checked_int(max_weight, "max_weight", 1)
    count = math.comb(n + max_weight - 1, n)
    checked_int(count, f"the vector bound of search ({n}, {max_weight})", hi=SEARCH_MAX_VECTORS)
    scale = 4**n
    # Each of Maj_n's n Chow parameters is 2 * C(n-1, (n-1)/2), twice the
    # number of settings of the other n-1 coordinates where that one is pivotal.
    w1_bar = n * (2 * math.comb(n - 1, n // 2)) ** 2
    w1_majority = Fraction(w1_bar, scale)
    vectors = canonical_weight_vectors(n, max_weight)
    unique = {}
    for block in iter(lambda: list(islice(vectors, SEARCH_BLOCK)), []):
        for row in _screen_block(block, w1_bar=w1_bar):
            unique.setdefault(row[2], row)
    # Every row shares w1_majority, so margin descending is 4^n * W_1 ascending,
    # and the rows of one W_1 value are adjacent: each run shares one w1/margin pair.
    rows = sorted(unique.values(), key=lambda row: (row[1], row[0]))
    results = []
    for w1_scaled, run in groupby(rows, key=lambda row: row[1]):
        w1 = Fraction(w1_scaled, scale)
        margin = Fraction(w1_bar - w1_scaled, scale)  # w1_bar is 4^n * w1_majority
        results += (
            SearchResult(LtfSpec(weights), w1, w1_majority, margin, table.hex())
            for weights, _, table in run
        )
    return results
