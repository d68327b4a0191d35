"""Threshold-function materialization, majority, and structural predicates."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from boolfun import (
    TIE_REJECT,
    TIE_TO_MINUS_ONE,
    BooleanFunction,
    LtfSpec,
    TieEncountered,
    influence,
    is_monotone,
    is_odd,
    is_unbiased,
    majority,
    materialize,
    parse_spec,
    render_spec,
    signs_to_index,
    tie_witness,
)
from boolfun import ltf

from helpers import random_monotone_spec, table_oracle, weighted_sums_oracle


def test_materialize_dictator():
    f = materialize(LtfSpec((1,)))
    assert (f.evaluate(0), f.evaluate(1)) == (-1, 1)


def test_materialize_majority3():
    assert materialize(LtfSpec((1, 1, 1))) == majority(3)
    assert majority(3).to_hex() == "e8"


def test_materialize_counterexample_points():
    f = materialize(LtfSpec((2, 2, 1, 1, 1)))
    assert f.evaluate(signs_to_index((1, 1, -1, -1, -1))) == 1
    assert f.evaluate(signs_to_index((-1, -1, 1, 1, 1))) == -1
    # all weighted sums are odd, so no input ever ties
    assert tie_witness(LtfSpec((2, 2, 1, 1, 1))) is None


def test_tie_rejected_with_witness():
    spec = LtfSpec((1, 1, 1, 1, 2))
    with pytest.raises(TieEncountered) as err:
        materialize(spec)
    assert err.value.index == 7
    assert err.value.signs == (1, 1, 1, -1, -1)
    assert "(+1, +1, +1, -1, -1)" in str(err.value)


def test_tie_mapped_to_minus_one():
    spec = LtfSpec((1, 1, 1, 1, 2), 0, "map_to_minus_one")
    f = materialize(spec)
    assert f.evaluate(7) == -1  # the tied input
    assert f.evaluate(signs_to_index((1, 1, 1, 1, 1))) == 1


def split_sums(spec):
    """The spec's two half-length sum vectors, both checked to share one dtype,
    and the 2^n sums they compose: high[h] + low[l] at index h * 2^b + l."""
    low, high = ltf._weighted_sums(spec)
    assert low.dtype == high.dtype
    assert low.size == 1 << min(spec.n, ltf._LOW_BITS) and low.size * high.size == 1 << spec.n
    return low.dtype, np.add.outer(high, low).reshape(-1)


def assert_matches_oracle(weights, theta, dtype):
    """Sums, first tie and table equal the concatenation oracle's, under both
    tie policies; reject raises at the oracle's first tie. Both halves of the
    sums have the stated ``dtype``, and every composed sum equals the
    oracle's exactly; the oracle stays int64 or object whatever it is."""
    expected_sums = weighted_sums_oracle(LtfSpec(weights, theta))
    sums_dtype, sums = split_sums(LtfSpec(weights, theta))
    assert sums_dtype == dtype and np.array_equal(sums, expected_sums)
    del sums
    expected, tie = table_oracle(expected_sums, theta)
    del expected_sums
    assert tie_witness(LtfSpec(weights, theta)) == tie
    for policy in (TIE_REJECT, TIE_TO_MINUS_ONE):
        spec = LtfSpec(weights, theta, policy)
        if tie is not None and policy == TIE_REJECT:
            with pytest.raises(TieEncountered) as err:
                materialize(spec)
            assert err.value.index == tie
        else:
            assert materialize(spec) == expected


@pytest.mark.parametrize("n, count", [(1, 12), (5, 12), (13, 4), (16, 4), (17, 4), (24, 2)])
def test_in_place_sums_and_packed_table_equal_concatenation_oracle(n, count):
    # Every w . x has the parity of sum(w). theta shares it on even k, so
    # ties can occur, and differs on odd k, so none can: both are crossed.
    # The scan's rows are 2^16 entries: n = 16 is one row, n = 17 two.
    rng = np.random.default_rng(n)
    block = []
    for k in range(count):
        weights = tuple(int(x) for x in rng.integers(-3, 4, size=n))
        theta = int(rng.integers(-n, n + 1))
        theta += (theta - sum(weights) + k) % 2
        # |w|_1 + |theta| <= 3n + n + 1 <= 97 < 2^14.
        assert_matches_oracle(weights, theta, np.int16)
        block.append(weights)
    # The doubling routine on the stacked block, vectors as the columns of an
    # (n, count) array as the search screen calls it, equals the oracle column
    # by column. At n = 24 the stack would hold 256 MiB, so it stops at n = 13.
    if n <= 13:
        sums = ltf._sums_by_doubling(np.array(block, dtype=np.int64).T)
        assert sums.shape == (1 << n, count)
        for weights, column in zip(block, sums.T):
            assert np.array_equal(column, weighted_sums_oracle(LtfSpec(weights)))


def test_huge_weights_take_the_object_path():
    # |w|_1 + |theta| >= 2^62 switches the sums to Python integers.
    spec = LtfSpec((2**62 + 1, 3, 1), -2)
    assert split_sums(spec)[0] == object
    assert materialize(spec).to_hex() == "aa"  # f = x_1
    spec = LtfSpec((1, 1, 1), 2**62 + 1, TIE_TO_MINUS_ONE)
    assert split_sums(spec)[0] == object
    assert materialize(spec).to_hex() == "00"
    rng = np.random.default_rng(62)
    for k in range(6):
        weights = (2**62 + int(rng.integers(0, 4)),) + tuple(
            int(a) * 2**61 + int(b) for a, b in rng.integers(-3, 4, size=(5, 2))
        )
        # theta = w . x for a random x, so even k always ties.
        x = rng.choice([-1, 1], size=6)
        theta = sum(w * int(s) for w, s in zip(weights, x)) + k % 2
        assert_matches_oracle(weights, theta, object)


# The stated width of ltf._weighted_sums at each side of its three cut-offs,
# by B = |w|_1 + |theta|: int16 below 2^14, int32 below 2^30, int64 below 2^62.
SUM_WIDTH_EDGES = [
    (2**14 - 1, np.int16),
    (2**14, np.int32),
    (2**30 - 1, np.int32),
    (2**30, np.int64),
    (2**62 - 1, np.int64),
]


@pytest.mark.parametrize("bound, dtype", SUM_WIDTH_EDGES)
def test_weighted_sums_take_the_stated_width_at_each_edge(bound, dtype):
    # B all in the weights, so the sums reach +-B; then B split between the
    # weights and theta = +-floor(B/2), which w . x hits exactly when B is even.
    assert_matches_oracle((bound - 5, 1, 1, 1, 1, 1), 0, dtype)
    half = bound // 2
    for theta in (half, -half):
        assert_matches_oracle((bound - half - 2, 1, -1), theta, dtype)


@pytest.mark.parametrize(
    "weights, theta, tie",
    [
        # Row 0 (x_17 = -1) would need sum(x_1..x_16) = 18, over the 16 it
        # reaches; row 1 needs -2, first met at seven +1s, l = 127.
        ((1,) * 16 + (10,), 8, (1 << 16) + 127),
        # Row 0 would need 18 again; row 1 needs -16, all -1: its first entry.
        ((1,) * 16 + (17,), 1, 1 << 16),
    ],
    ids=["inside row 1", "first entry of row 1"],
)
def test_ties_only_past_the_first_row_are_found(weights, theta, tie):
    assert tie_witness(LtfSpec(weights, theta)) == tie
    assert_matches_oracle(weights, theta, np.int16)  # reject raises at the same index


def test_object_sums_at_the_row_split():
    # Two rows of Python-int sums; theta = w . x for one x in row 1 (x_17 = +1)
    # on even k, so that case ties, and odd k cannot.
    rng = np.random.default_rng(17)
    for k in range(2):
        weights = (2**62 + 1,) + tuple(int(x) for x in rng.integers(-3, 4, size=16))
        x = np.append(rng.choice([-1, 1], size=16), 1)
        theta = sum(w * int(s) for w, s in zip(weights, x)) + k
        assert_matches_oracle(weights, theta, object)


def test_materialize_peak_is_under_three_quarters_of_a_byte_per_entry():
    # The table is 1/8 byte an entry and its bytes for int.from_bytes one
    # more eighth; the rest is one row of sums and comparisons, not a 2^n array.
    spec = LtfSpec(tuple(range(19, 0, -1)) + (21,))  # |w|_1 = 211 is odd: tie-free
    materialize(spec)
    tracemalloc.start()
    try:
        materialize(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.75 * (1 << spec.n)


def test_table_int_is_built_beside_one_copy_of_its_bytes():
    # int.from_bytes copies any buffer but bytes into a new bytes object, so
    # an array argument held the packed array, that copy and the int at once
    # (3.07 tables at n = 20). materialize hands it bytes with the array
    # dropped: its peak is now the row scan's, the packed table beside half
    # a table of int16 sums and a quarter of comparisons (2.61 tables).
    spec = LtfSpec((3,) * 10 + (1,) * 9 + (2,))
    table_bytes = (1 << spec.n) // 8
    materialize(spec)
    tracemalloc.start()
    try:
        materialize(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.75 * table_bytes


def test_majority_basics():
    assert majority(1) == materialize(LtfSpec((1,)))
    assert influence(majority(5), 1) == Fraction(3, 8)
    for bad in (0, 2, 4, -3, 25):
        with pytest.raises(ValueError):
            majority(bad)


def test_is_unbiased():
    assert is_unbiased(materialize(LtfSpec((2, 2, 1, 1, 1))))
    assert is_unbiased(majority(5))
    assert not is_unbiased(BooleanFunction(3, 0xFF))


def test_is_odd():
    assert is_odd(majority(5))
    assert is_odd(materialize(LtfSpec((2, 2, 1, 1, 1))))
    parity2 = BooleanFunction.from_signs([1, -1, -1, 1])  # x1*x2, an even function
    assert not is_odd(parity2)


def test_is_monotone():
    assert is_monotone(materialize(LtfSpec((2, 2, 1, 1, 1))))
    assert is_monotone(majority(5))
    assert not is_monotone(materialize(LtfSpec((-1,))))
    # non-LTF monotone function: (x1 and x2) or (x3 and x4)
    signs = [
        1 if ((j & 3) == 3 or (j & 12) == 12) else -1 for j in range(16)
    ]
    assert is_monotone(BooleanFunction.from_signs(signs))


def test_is_monotone_finds_the_top_coordinate_at_arity_cap():
    # |w|_1 = n + 1 is odd, so each spec is tie-free; only x_i lowers f.
    # n = 8 puts the lone -2 at every coordinate, within a word and across
    # words; n = 24 at the word cut (6, 7) and the top.
    for n, coordinates in ((8, range(1, 9)), (24, (6, 7, 24))):
        for i in coordinates:
            weights = [1] * n
            weights[i - 1] = -2
            assert not is_monotone(materialize(LtfSpec(tuple(weights))))
            weights[i - 1] = 2
            assert is_monotone(materialize(LtfSpec(tuple(weights))))


def test_positive_odd_sum_specs_are_monotone_odd_tie_free():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(1, 10))
        spec = random_monotone_spec(n, rng)
        assert tie_witness(spec) is None
        f = materialize(spec)
        assert is_monotone(f) and is_odd(f)


def test_spec_weight_permutation_commutes():
    rng = np.random.default_rng(12)
    weights = (3, 1, 4, 1, 6)  # odd total, hence tie-free
    assert sum(weights) % 2 == 1
    f = materialize(LtfSpec(weights))
    perm = tuple(int(p) for p in rng.permutation(5) + 1)
    # g(x) = f(x_perm(1), ...) has weight vector w'_k = w_{perm^-1(k)}
    inverse = [0] * 5
    for i, p in enumerate(perm, start=1):
        inverse[p - 1] = i
    permuted_weights = tuple(weights[inverse[k - 1] - 1] for k in range(1, 6))
    assert f.permute_coordinates(perm) == materialize(LtfSpec(permuted_weights))


def test_parse_and_render():
    assert parse_spec("2,2,1,1,1") == LtfSpec((2, 2, 1, 1, 1))
    assert parse_spec("2,2,1,1,1@0") == LtfSpec((2, 2, 1, 1, 1))
    assert parse_spec(" 3 , -1 @ -2".replace(" ", "")) == LtfSpec((3, -1), -2)
    assert parse_spec("1, 2, 3") == LtfSpec((1, 2, 3))
    assert render_spec(LtfSpec((2, 2, 1, 1, 1))) == "2,2,1,1,1@0"
    assert parse_spec(render_spec(LtfSpec((5, -3), 2))) == LtfSpec((5, -3), 2)


def test_parse_errors():
    for bad in ("", "a,b", "1,,2", "1@x", "1@2@3", "1.5,2"):
        with pytest.raises(ValueError):
            parse_spec(bad)


def test_spec_validation():
    with pytest.raises(ValueError):
        LtfSpec(())
    with pytest.raises(ValueError):
        LtfSpec((1,) * 25)
    with pytest.raises(ValueError):
        LtfSpec((1, 2), 0, "coin_flip")
    # Integral weights and thresholds only: 2.7 is not rounded to 2, and a
    # spec rendered as 1,1,1@0.5 could not be parsed back.
    with pytest.raises(ValueError, match="integer"):
        LtfSpec((2.7, 1, 1))
    with pytest.raises(ValueError, match="integer"):
        LtfSpec((1, 1, 1), 0.5)
    assert majority(np.int64(5)) == majority(5)


class _SumsReached(Exception):
    """Raised in place of allocating the weighted sums."""


def test_weighted_sums_bit_bound_is_checked_before_allocation(monkeypatch):
    def reached(weights):
        raise _SumsReached

    monkeypatch.setattr(ltf, "_sums_by_doubling", reached)
    nines = int("9" * 4000)
    # 2^24 Python ints of 13,293 bits each: tens of GiB if it were allocated.
    for call in (materialize, tie_witness):
        with pytest.raises(ValueError, match="over the limit"):
            call(LtfSpec((nines,) * 24))
    over = (
        LtfSpec((nines,) * 16 + (1,)),  # n - 1 nines at n = 17
        LtfSpec((1,) * 24, 2**64 - 24),  # |w|_1 + |theta| = 2^64: 65 bits at n = 24
    )
    admitted = (
        LtfSpec((nines,) * 15 + (1,)),  # n - 1 nines at n = 16
        LtfSpec((1,) * 24, 2**63 - 24),  # 2^63: 64 bits at n = 24, on the bound
        LtfSpec((2**62 + 1,) + (1,) * 23),  # 63 bits at n = 24
        parse_spec("4611686018427387905,3,1@-2"),
    )
    for spec in over:
        with pytest.raises(ValueError, match="over the limit"):
            materialize(spec)
    for spec in admitted:
        with pytest.raises(_SumsReached):
            materialize(spec)
