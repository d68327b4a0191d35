"""Spectral quantities against independent brute-force references."""

import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from boolfun import (
    BooleanFunction,
    FourierExpansion,
    LtfSpec,
    StabilityPolynomial,
    character_matrix,
    coefficient,
    counterexample,
    degree_weight,
    influence,
    influence_from_spectrum,
    inverse_wht,
    majority,
    materialize,
    naive_expansion,
    stability_oracle,
    stability_polynomial,
    wht,
)

from boolfun.fourier import _BLOCK_BITS, _LEVEL_CHUNK_BITS
from helpers import butterfly_oracle, level_weights_oracle, polynomial, random_function

DICTATOR = BooleanFunction(1, 0b10)
PARITY2 = BooleanFunction.from_signs([1, -1, -1, 1])  # x1 * x2


def literal_chi(subset_mask: int, j: int, n: int) -> int:
    """chi_S(j) straight from the definition, one coordinate at a time."""
    value = 1
    for i in range(1, n + 1):
        if (subset_mask >> (i - 1)) & 1:
            value *= 1 if (j >> (i - 1)) & 1 else -1
    return value


def test_character_matrix_matches_literal_definition():
    for n in range(1, 5):
        m = character_matrix(n)
        for s in range(1 << n):
            for j in range(1 << n):
                assert m[s, j] == literal_chi(s, j, n)


def test_character_matrix_is_a_fresh_writeable_array_each_call():
    first = character_matrix(3)
    assert first.flags.writeable
    first[0, 0] = 0
    second = character_matrix(3)
    assert second is not first and second[0, 0] == 1


def test_wht_dictator():
    e = wht(DICTATOR)
    assert coefficient(e, 0) == 0
    assert coefficient(e, 1) == 1


def test_wht_parity():
    e = wht(PARITY2)
    assert coefficient(e, 0b11) == 1
    assert coefficient(e, 0b00) == 0
    assert coefficient(e, 0b01) == 0
    assert coefficient(e, 0b10) == 0


def test_wht_majority3():
    e = wht(majority(3))
    for i in (1, 2, 3):
        assert coefficient(e, 1 << (i - 1)) == Fraction(1, 2)
    assert coefficient(e, 0b111) == Fraction(-1, 2)
    for mask in (0, 0b011, 0b101, 0b110):
        assert coefficient(e, mask) == 0


def test_wht_majority5_levels():
    e = wht(majority(5))
    for i in range(1, 6):
        assert coefficient(e, 1 << (i - 1)) == Fraction(3, 8)
    assert coefficient(e, 0b00111) == Fraction(-1, 8)
    assert coefficient(e, 0b11111) == Fraction(3, 8)


def test_counterexample_coefficients():
    e = wht(counterexample())
    assert coefficient(e, 0b00100) == Fraction(1, 4)
    assert coefficient(e, 0b00001) == Fraction(1, 2)
    assert coefficient(e, 0) == 0  # unbiased


def test_coefficient_mask_range():
    e = wht(DICTATOR)
    with pytest.raises(IndexError):
        coefficient(e, 2)
    with pytest.raises(IndexError):
        coefficient(e, -1)


def test_wht_equals_naive_exhaustive_n2():
    for table in range(16):
        f = BooleanFunction(2, table)
        assert np.array_equal(wht(f).scaled, naive_expansion(f).scaled)


def test_wht_equals_naive_random():
    rng = np.random.default_rng(21)
    for n in range(1, 11):
        for _ in range(3):
            f = random_function(n, rng)
            assert np.array_equal(wht(f).scaled, naive_expansion(f).scaled)


def test_naive_expansion_arity_cap():
    rng = np.random.default_rng(22)
    with pytest.raises(ValueError):
        naive_expansion(random_function(11, rng))


def test_inverse_transform_roundtrip():
    rng = np.random.default_rng(23)
    for n in (1, 2, 5, 10, 16, 20):
        f = random_function(n, rng)
        assert inverse_wht(wht(f)) == f


def test_inverse_transform_peak_is_at_most_10_bytes_per_entry():
    # The int64 stages take 8 bytes an entry; the +-2^n test and the table
    # may add at most 2 more.
    f = random_function(20, np.random.default_rng(37))
    e = wht(f)
    tracemalloc.start()
    try:
        assert inverse_wht(e) == f
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * e.size


def test_inverse_transform_rejects_non_spectra():
    rng = np.random.default_rng(33)
    for n in (1, 5, 12):
        scaled = wht(random_function(n, rng)).scaled.copy()
        scaled[-1] += 2  # still even, but no longer the spectrum of a +-1 table
        with pytest.raises(ValueError):
            inverse_wht(FourierExpansion(n, scaled))


@pytest.mark.parametrize(
    "use",
    [
        lambda: coefficient(FourierExpansion(2, np.array([0.5, 0, 0, 0])), 0),
        lambda: inverse_wht(FourierExpansion(1, np.array([0.9, 2.0]))),
        lambda: FourierExpansion(1, [0, 2]),
    ],
    ids=["float coefficient", "float inverse", "list"],
)
def test_expansion_refuses_a_spectrum_without_an_integer_dtype(use):
    with pytest.raises(ValueError, match="integer dtype"):
        use()


def wrapped_counterexample_spectrum():
    scaled = wht(counterexample()).scaled.astype(np.int64)
    scaled[:2] += -(2**63)  # wraps back in inverse_wht's int64 stages
    return FourierExpansion(5, scaled)


@pytest.mark.parametrize(
    "use",
    [
        lambda: inverse_wht(wrapped_counterexample_spectrum()),
        lambda: stability_polynomial(FourierExpansion(1, np.array([3, 2**30 + 1]))),
        lambda: influence_from_spectrum(FourierExpansion(1, np.array([0, 2**32])), 1),
        lambda: FourierExpansion(1, np.array([0, 2**63], dtype=np.uint64)),
    ],
    ids=["int64 wrap in inverse", "float64 square", "int64 square", "uint64"],
)
def test_expansion_refuses_a_coefficient_outside_plus_minus_2_to_the_n(use):
    with pytest.raises(ValueError, match="Parseval"):
        use()


@pytest.mark.parametrize("c", [2**22, 2**22 - 1])
def test_expansion_refuses_a_non_spectrum_inside_plus_minus_2_to_the_n(c):
    # Every entry lies within +-2^22, yet the squares sum to about 2^66, not
    # 4^22. A per-entry bound admits both: with entries 2^22 the int64 sum of
    # 2^21 squares in influence_from_spectrum wraps to 0, and with 2^22 - 1
    # the float64 level sums pass 2^53 and lose their low digits.
    with pytest.raises(ValueError, match="Parseval"):
        FourierExpansion(22, np.full(2**22, c, np.int32))


def test_expansion_stores_the_level_sums_of_its_spectrum():
    e = wht(counterexample())
    assert e.level_sums == (0, 704, 0, 256, 0, 64)
    assert stability_polynomial(e).numerators == e.level_sums


@pytest.mark.parametrize("sign", [1, -1])
def test_constant_function_spectrum_at_int32_bound(sign):
    # scaled[0] = +-2^24 is the largest partial sum the int32 stages hold.
    n = 24
    f = BooleanFunction(n, (1 << (1 << n)) - 1 if sign == 1 else 0)
    e = wht(f)
    assert e.scaled.dtype == np.int32
    assert e.scaled[0] == sign * (1 << n)
    assert np.count_nonzero(e.scaled) == 1
    assert stability_polynomial(e).weights == (Fraction(1),) + (Fraction(0),) * n


def stage_edge_function(case: str, n: int) -> BooleanFunction:
    """+1, -1 or the parity chi_[n]: each reaches +-2^k, the bound, after stage k."""
    if case == "parity":
        # chi_[n](j) = -1 exactly when an odd number of coordinates are -1.
        minus = (n - np.bitwise_count(np.arange(1 << n, dtype=np.uint32))) & 1
        return BooleanFunction.from_signs(1 - 2 * minus.astype(np.int8))
    return BooleanFunction(n, (1 << (1 << n)) - 1 if case == "one" else 0)


# wht runs stages 1-6 in int8 and 7-14 in int16: n = 6 and 14 fill each width
# to its bound 2^k, n = 7 and 15 cross into the next, n = 12 fills the block's
# second 6-bit digit and n = 13 starts its third, n = _BLOCK_BITS fills one
# block and one more bit runs a stage above it, and n = 24 is the cap.
@pytest.mark.parametrize("n", [6, 7, 12, 13, 14, 15, _BLOCK_BITS, _BLOCK_BITS + 1, 24])
@pytest.mark.parametrize("case", ["one", "minus_one", "parity"])
def test_wht_at_every_width_edge_equals_int64_oracle(case, n):
    f = stage_edge_function(case, n)
    e = wht(f)
    assert e.scaled.dtype == np.int32
    expected = butterfly_oracle(f)
    assert np.array_equal(e.scaled, expected)
    assert np.count_nonzero(expected) == 1 and np.abs(expected).max() == 1 << n


@pytest.mark.parametrize("n", [_BLOCK_BITS + 1, _BLOCK_BITS + 2])
def test_wht_past_one_block_equals_int64_oracle(n):
    # A constant table's blocks are all equal and the parity's equal up to
    # sign, so a block read or written one block off can still give the right
    # spectrum; a random table's blocks all differ.
    f = random_function(n, np.random.default_rng(38 + n))
    assert np.array_equal(wht(f).scaled, butterfly_oracle(f))


def test_wht_peak_is_the_spectrum_plus_half_a_mib():
    # Stages 7-12 run in the slab's own bytes, so a block adds at most one
    # 2^18-entry int16 array (or the int8 unpack and its rotation) to the
    # 4-byte spectrum; the level sums after the loop take 0.38 MiB.
    f = random_function(20, np.random.default_rng(42))
    wht(f)  # builds the table's cached word view outside the measurement
    tracemalloc.start()
    try:
        e = wht(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * e.size + 2**19 + 2**16


def test_wht_equals_int64_oracle_on_random_tables_at_every_arity_to_20():
    # Every split of a block's bits into its three digits, then two blocks and four.
    rng = np.random.default_rng(41)
    for n in range(1, 21):
        f = random_function(n, rng)
        assert np.array_equal(wht(f).scaled, butterfly_oracle(f)), n


def test_wht_and_levels_match_int64_oracles_at_arity_cap():
    f = random_function(24, np.random.default_rng(34))
    e = wht(f)
    assert e.scaled.dtype == np.int32
    assert np.array_equal(e.scaled, butterfly_oracle(f))
    assert stability_polynomial(e).weights == level_weights_oracle(e)


@pytest.mark.parametrize("case", ["one", "minus_one", "dictator", "random"])
def test_spectral_influences_at_arity_cap(case):
    # The int32 spectrum squares in int64: the dictator x_24 has
    # scaled[{24}] = 2^24, whose square 2^48 would wrap to 0 in int32.
    n = 24
    half = 1 << (n - 1)
    f = {
        "one": lambda: BooleanFunction(n, (1 << (1 << n)) - 1),
        "minus_one": lambda: BooleanFunction(n, 0),
        "dictator": lambda: BooleanFunction(n, ((1 << half) - 1) << half),
        "random": lambda: random_function(n, np.random.default_rng(36)),
    }[case]()
    e = wht(f)
    assert e.scaled.dtype == np.int32
    for i in range(1, n + 1):
        assert influence_from_spectrum(e, i) == influence(f, i)
    if case == "dictator":
        assert influence(f, n) == 1


def test_coefficient_parity_invariant():
    # each scaled coefficient is a sum of 2^n terms of +-1, hence even
    rng = np.random.default_rng(24)
    for n in (1, 3, 6):
        e = wht(random_function(n, rng))
        assert not np.any(e.scaled & 1)


def test_parseval_random():
    rng = np.random.default_rng(25)
    for n in (1, 4, 8, 12):
        f = random_function(n, rng)
        e = wht(f)
        assert int(np.sum(e.scaled.astype(np.int64) ** 2)) == 4**f.n


def test_influence_paper_values():
    maj5 = majority(5)
    cand = counterexample()
    assert influence(maj5, 1) == Fraction(3, 8)
    assert influence(cand, 1) == Fraction(1, 2)
    assert influence(cand, 3) == Fraction(1, 4)
    assert [influence(cand, i) for i in range(1, 6)] == [
        Fraction(1, 2),
        Fraction(1, 2),
        Fraction(1, 4),
        Fraction(1, 4),
        Fraction(1, 4),
    ]


def test_influence_dictator():
    f = materialize(LtfSpec((1, 0)))  # depends on x1 only
    assert influence(f, 1) == 1
    assert influence(f, 2) == 0


def test_influence_range_check():
    with pytest.raises(ValueError):
        influence(DICTATOR, 2)
    with pytest.raises(ValueError):
        influence_from_spectrum(wht(DICTATOR), 0)


def test_influence_from_spectrum_values():
    parity5 = BooleanFunction.from_signs(character_matrix(5)[0b11111])
    e = wht(parity5)
    for i in range(1, 6):
        assert influence_from_spectrum(e, i) == 1
    assert influence_from_spectrum(wht(majority(5)), 1) == Fraction(3, 8)
    assert influence_from_spectrum(wht(counterexample()), 3) == Fraction(1, 4)


def test_influence_two_paths_agree():
    rng = np.random.default_rng(26)
    for n in (1, 2, 5, 10):
        f = random_function(n, rng)
        e = wht(f)
        for i in range(1, n + 1):
            assert influence(f, i) == influence_from_spectrum(e, i)


def test_influence_matches_edge_count_at_arity_cap():
    # Every coordinate for n = 1..9: the zero-padded word below n = 6 and the
    # in-word/whole-word cut at i = 6/7; then that cut and the ends at n = 24.
    rng = np.random.default_rng(24)
    cases = [(n, range(1, n + 1)) for n in range(1, 10)] + [(24, (1, 6, 7, 12, 24))]
    for n, coordinates in cases:
        f = random_function(n, rng)
        signs = f.signs()
        for i in coordinates:
            edges = signs.reshape(-1, 2, 1 << (i - 1))
            disagreements = int(np.count_nonzero(edges[:, 0, :] != edges[:, 1, :]))
            assert influence(f, i) == Fraction(2 * disagreements, f.size)


def test_degree_weights():
    assert degree_weight(wht(majority(5)), 1) == Fraction(45, 64)
    assert degree_weight(wht(counterexample()), 1) == Fraction(44, 64)
    parity3 = BooleanFunction.from_signs(character_matrix(3)[0b111])
    assert degree_weight(wht(parity3), 3) == 1
    with pytest.raises(ValueError):
        degree_weight(wht(DICTATOR), 2)


def test_stability_polynomial_known_functions():
    assert stability_polynomial(wht(DICTATOR)).weights == (Fraction(0), Fraction(1))
    assert stability_polynomial(wht(majority(3))).weights == (
        Fraction(0),
        Fraction(3, 4),
        Fraction(0),
        Fraction(1, 4),
    )
    assert stability_polynomial(wht(majority(5))).weights == (
        Fraction(0),
        Fraction(45, 64),
        Fraction(0),
        Fraction(5, 32),
        Fraction(0),
        Fraction(9, 64),
    )
    assert stability_polynomial(wht(counterexample())).weights == (
        Fraction(0),
        Fraction(11, 16),
        Fraction(0),
        Fraction(1, 4),
        Fraction(0),
        Fraction(1, 16),
    )


# n = 12 is one row of 2^12 squares and 13 two, row 1's levels one above row
# 0's; 14, 15 and 20 add 4, 8 and 256 rows into 3, 4 and 9 accumulator rows.
@pytest.mark.parametrize("n", [_LEVEL_CHUNK_BITS, _LEVEL_CHUNK_BITS + 1, 14, 15, 20])
def test_level_sums_equal_int64_oracle_at_the_chunk_edge(n):
    e = wht(random_function(n, np.random.default_rng(40 + n)))
    assert stability_polynomial(e).weights == level_weights_oracle(e)


def test_expansion_level_sums_peak_is_under_half_a_mib_above_entry():
    # The accumulator (9 rows), one row's float64 squares and the intp level of
    # each low mask, 2^12 entries each: 0.38 MiB.
    scaled = wht(random_function(20, np.random.default_rng(39))).scaled
    tracemalloc.start()
    try:
        assert sum(stability_polynomial(FourierExpansion(20, scaled)).weights) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**19


def test_stability_weights_sum_to_one():
    rng = np.random.default_rng(27)
    for n in (1, 3, 7):
        poly = stability_polynomial(wht(random_function(n, rng)))
        assert sum(poly.weights) == 1
        assert all(w >= 0 for w in poly.weights)


def test_stability_evaluation():
    rng = np.random.default_rng(28)
    f = random_function(6, rng)
    poly = stability_polynomial(wht(f))
    assert poly.evaluate(1) == 1  # Parseval
    maj3 = stability_polynomial(wht(majority(3)))
    assert maj3.evaluate(0) == 0  # unbiased
    assert maj3.evaluate(Fraction(1, 2)) == Fraction(13, 32)
    parity3 = stability_polynomial(wht(BooleanFunction.from_signs(character_matrix(3)[0b111])))
    assert parity3.evaluate(Fraction(2, 3)) == Fraction(8, 27)


def test_stability_monotone_on_grid():
    rng = np.random.default_rng(29)
    for n in (2, 5):
        poly = stability_polynomial(wht(random_function(n, rng)))
        values = [poly.evaluate(Fraction(t, 16)) for t in range(17)]
        assert all(a <= b for a, b in zip(values, values[1:]))


def literal_pair_expectation(f, g, rho: Fraction) -> Fraction:
    """The correlated-pair double sum with the per-coordinate tau product."""
    n = f.n
    agree = (1 + rho) / 2
    disagree = (1 - rho) / 2
    total = Fraction(0)
    for x in range(f.size):
        for y in range(f.size):
            weight = Fraction(1)
            for i in range(1, n + 1):
                same = ((x >> (i - 1)) & 1) == ((y >> (i - 1)) & 1)
                weight *= agree if same else disagree
            total += f.evaluate(x) * g.evaluate(y) * weight
    return total / f.size


def test_stability_oracle_matches_literal_definition():
    rng = np.random.default_rng(30)
    for n in (1, 2, 3):
        f = random_function(n, rng)
        g = random_function(n, rng)
        for rho in (Fraction(0), Fraction(1, 3), Fraction(1)):
            assert stability_oracle(f, g, rho) == literal_pair_expectation(f, g, rho)


def test_stability_oracle_known_values():
    assert stability_oracle(DICTATOR, DICTATOR, Fraction(1, 2)) == Fraction(1, 2)
    maj3 = majority(3)
    assert stability_oracle(maj3, maj3, Fraction(1, 2)) == Fraction(13, 32)
    cand = counterexample()
    assert stability_oracle(cand, cand, 0) == 0


def test_stability_oracle_equals_polynomial():
    rng = np.random.default_rng(31)
    for n in (1, 4, 8):
        f = random_function(n, rng)
        poly = stability_polynomial(wht(f))
        for rho in (Fraction(0), Fraction(1, 7), Fraction(9, 10), Fraction(1)):
            assert stability_oracle(f, f, rho) == poly.evaluate(rho)


def test_stability_oracle_errors():
    rng = np.random.default_rng(32)
    with pytest.raises(ValueError):
        stability_oracle(random_function(2, rng), random_function(3, rng), Fraction(1, 2))
    with pytest.raises(ValueError):
        f11 = random_function(11, rng)
        stability_oracle(f11, f11, Fraction(1, 2))


def test_stability_polynomial_evaluate_accepts_ints():
    poly = polynomial((Fraction(0), Fraction(1)))
    assert poly.evaluate(1) == 1


@pytest.mark.parametrize("points", [0, -1])
def test_grid_numerators_rejects_grids_without_an_interval(points):
    with pytest.raises(ValueError):
        StabilityPolynomial((0, 1), 1).grid_numerators(points)


def test_numpy_integer_grid_gives_the_int_numerators():
    # G^d at G = 256 and d = 9 is 2^72: int64 samples would wrap.
    poly = stability_polynomial(wht(majority(9)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert poly.grid_numerators(np.int64(256)) == poly.grid_numerators(256)


def test_numpy_integer_coefficients_evaluate_like_int_ones():
    poly = stability_polynomial(wht(majority(9)))
    wide = StabilityPolynomial(tuple(map(np.int64, poly.numerators)), np.int64(poly.denominator))
    assert type(wide.denominator) is int
    assert all(type(a) is int for a in wide.numerators)
    # q^9 at q = 2^20 is far past int64.
    for rho in (Fraction(1, 3), Fraction(1, 2**20), Fraction(-5, 7)):
        assert wide.evaluate(rho) == poly.evaluate(rho)


def test_stability_polynomial_holds_integers_over_4_to_the_n():
    poly = stability_polynomial(wht(counterexample()))
    assert poly.denominator == 4**5
    assert poly.numerators == (0, 704, 0, 256, 0, 64)
    assert poly.weights == tuple(Fraction(a, 4**5) for a in poly.numerators)
    with pytest.raises(ValueError):
        StabilityPolynomial((), 1)
    with pytest.raises(ValueError):
        StabilityPolynomial((1,), 0)
