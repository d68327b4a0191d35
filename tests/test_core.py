"""Truth-table representation, index encoding, table transforms, and the integer gate."""

import pickle
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import boolfun
from boolfun import (
    MAX_ARITY,
    MAX_GRID,
    ORACLE_MAX_ARITY,
    SEARCH_MAX_ARITY,
    BooleanFunction,
    FourierExpansion,
    LtfSpec,
    StabilityPolynomial,
    canonical_weight_vectors,
    character_matrix,
    checked_int,
    coefficient,
    compare_stability,
    complement_index,
    counterexample,
    crossover_scan,
    degree_weight,
    flip_coordinate,
    index_to_signs,
    influence,
    influence_from_spectrum,
    majority,
    materialize,
    parse_spec,
    search_counterexamples,
    signs_to_index,
    wht,
)
from boolfun.core import _CLEAR_END_MASKS, _from_mask, edge_ends

from helpers import random_function

DICTATOR = BooleanFunction(1, 0b10)  # f(x1) = x1


def test_encoding_bijection():
    for n in range(1, 7):
        for j in range(1 << n):
            assert signs_to_index(index_to_signs(j, n)) == j


def test_encoding_convention():
    # bit (i-1) of j set means x_i = +1
    assert index_to_signs(0b00011, 5) == (1, 1, -1, -1, -1)
    assert index_to_signs(0, 3) == (-1, -1, -1)


def test_evaluate_dictator():
    assert DICTATOR.evaluate(1) == 1
    assert DICTATOR.evaluate(0) == -1


def test_evaluate_counterexample_point():
    f = counterexample()
    j = signs_to_index((1, 1, -1, -1, -1))
    assert f.evaluate(j) == 1  # sign(2 + 2 - 1 - 1 - 1) = +1


def test_evaluate_out_of_range():
    with pytest.raises(IndexError):
        DICTATOR.evaluate(2)
    with pytest.raises(IndexError):
        DICTATOR.evaluate(-1)


def test_flip_coordinate():
    assert flip_coordinate(0, 1, 3) == 1
    assert flip_coordinate(5, 1, 3) == 4
    for j in range(16):
        for i in range(1, 5):
            assert flip_coordinate(flip_coordinate(j, i, 4), i, 4) == j
    with pytest.raises(ValueError):
        flip_coordinate(0, 5, 4)
    with pytest.raises(ValueError):
        flip_coordinate(0, 0, 4)


def test_negate_inputs_dictator():
    g = DICTATOR.negate_inputs()
    assert g.evaluate(0) == 1 and g.evaluate(1) == -1


def test_negate_inputs_majority_is_odd():
    maj = majority(5)
    g = maj.negate_inputs()
    for j in range(32):
        assert g.evaluate(j) == -maj.evaluate(j)


def test_negate_inputs_involution():
    rng = np.random.default_rng(3)
    for n in (1, 2, 5, 8):
        f = random_function(n, rng)
        assert f.negate_inputs().negate_inputs() == f


def test_negate_inputs_complement_identity():
    rng = np.random.default_rng(4)
    f = random_function(5, rng)
    g = f.negate_inputs()
    for j in range(f.size):
        assert g.evaluate(j) == f.evaluate(complement_index(j, f.n))


def test_negate_inputs_equals_reversed_signs():
    # The packed byte-reversal route against unpacking, reversing and
    # repacking, across the one-byte shifts (n < 3) up to the arity cap.
    rng = np.random.default_rng(5)
    for n in (1, 2, 3, 8, 24):
        f = random_function(n, rng)
        assert f.negate_inputs() == BooleanFunction.from_signs(f.signs()[::-1])


def test_permute_identity():
    f = counterexample()
    assert f.permute_coordinates((1, 2, 3, 4, 5)) == f


def test_permute_equal_weights():
    f = counterexample()
    assert f.permute_coordinates((2, 1, 3, 4, 5)) == f


def test_permute_swap_1_3():
    # relabeling turns sign(2x1+2x2+x3+x4+x5) into sign(x1+2x2+2x3+x4+x5)
    f = counterexample()
    g = f.permute_coordinates((3, 2, 1, 4, 5))
    assert g == materialize(parse_spec("1,2,2,1,1"))


def test_permute_composition():
    rng = np.random.default_rng(5)
    f = random_function(4, rng)
    sigma = (2, 3, 1, 4)
    pi = (4, 1, 3, 2)
    composite = tuple(pi[s - 1] for s in sigma)  # i -> pi(sigma(i))
    assert f.permute_coordinates(sigma).permute_coordinates(pi) == f.permute_coordinates(
        composite
    )


def test_permute_malformed():
    f = counterexample()
    for bad in ((1, 2, 3), (1, 1, 2, 3, 4), (0, 1, 2, 3, 4), (2, 3, 4, 5, 6)):
        with pytest.raises(ValueError):
            f.permute_coordinates(bad)


def test_hex_forms():
    assert DICTATOR.to_hex() == "02"
    assert majority(3).to_hex() == "e8"
    assert majority(5).to_hex() == "80e8e8fe"
    assert counterexample().to_hex() == "88e8e8ee"


def test_hex_roundtrip():
    rng = np.random.default_rng(6)
    for n in (1, 3, 4, 9):
        f = random_function(n, rng)
        assert BooleanFunction.from_hex(n, f.to_hex()) == f
    with pytest.raises(ValueError):
        BooleanFunction.from_hex(3, "0102")


def test_signs_roundtrip():
    rng = np.random.default_rng(7)
    f = random_function(6, rng)
    assert BooleanFunction.from_signs(f.signs()) == f


def test_from_signs_rejects_bad_values():
    with pytest.raises(ValueError):
        BooleanFunction.from_signs([1, 0])
    with pytest.raises(ValueError):
        BooleanFunction.from_signs([1, -1, 1])  # not a power of two
    with pytest.raises(ValueError):
        BooleanFunction.from_signs(np.array([[1, -1], [-1, 1]]))  # not 1-D
    with pytest.raises(ValueError):
        BooleanFunction.from_signs([True, True])  # bools are not signs
    with pytest.raises(ValueError):
        BooleanFunction.from_signs([1.0, -1.0])  # floats nowhere


def test_construction_validation():
    with pytest.raises(ValueError):
        BooleanFunction(0, 0)
    with pytest.raises(ValueError):
        BooleanFunction(25, 0)  # arity cap
    with pytest.raises(ValueError):
        BooleanFunction(1, 0b100)  # padding bits must be zero
    with pytest.raises(ValueError):
        BooleanFunction(1, -1)
    f = BooleanFunction(np.int64(3), np.int64(5))
    assert type(f.n) is int and type(f.table) is int
    assert f == BooleanFunction(3, 5)


def test_from_mask_builds_the_int_beside_one_copy_of_the_bytes():
    # The packed bytes go to int.from_bytes as bytes, with the packed array
    # dropped; an array argument is copied first, which read 3.07 tables.
    mask = np.arange(1 << 20) % 3 == 0
    table_bytes = mask.size // 8
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        f = _from_mask(mask)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert f.table == int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little")
    assert peak <= 2.25 * table_bytes


def test_bias_and_ones():
    assert counterexample().ones() == 16
    assert counterexample().bias() == 0
    assert BooleanFunction(2, 0b1111).bias() == 1


def test_edge_masks_select_bit_clear_bits():
    for i, mask in enumerate(_CLEAR_END_MASKS.tolist(), start=1):
        stride = 1 << (i - 1)
        assert mask == sum(1 << b for b in range(64) if not b & stride)


def repunit_mask(size: int, stride: int) -> int:
    """The mask as (2^stride - 1) times a repunit, by big-int division (slow)."""
    return ((1 << stride) - 1) * (((1 << size) - 1) // ((1 << (2 * stride)) - 1))


def test_edge_masks_match_repunit_division():
    for i, mask in enumerate(_CLEAR_END_MASKS.tolist(), start=1):
        assert mask == repunit_mask(64, 1 << (i - 1))


def test_edge_ends_partition_edges_at_arity_cap():
    f = BooleanFunction(24, (1 << (1 << 24)) - 1)
    for i in range(1, 25):  # i <= 6 masks within a word, i >= 7 pairs whole words
        for end in edge_ends(f, i):
            assert int(np.bitwise_count(end).sum()) == 1 << 23


def test_word_view_is_read_only_and_leaves_identity_alone():
    f = counterexample()
    before = (hash(f), pickle.dumps(f))
    words = f._words
    assert f._words is words  # built once
    assert not words.flags.writeable
    with pytest.raises(ValueError):
        words[0] = 0
    assert (hash(f), pickle.dumps(f)) == before
    assert f == BooleanFunction(5, f.table)
    clone = pickle.loads(pickle.dumps(f))
    assert clone == f and hash(clone) == hash(f)
    assert not clone._words.flags.writeable


def test_package_exports_resolve_once_each():
    names = boolfun.__all__
    assert len(names) == len(set(names))
    for name in names:
        getattr(boolfun, name)
    assert "COUNTEREXAMPLE_WEIGHTS" in names
    assert boolfun.COUNTEREXAMPLE_WEIGHTS == (2, 2, 1, 1, 1)


MAJ3 = majority(3)
MAJ3_SPECTRUM = wht(MAJ3)

# Every integer a public entry point takes: (name, call on the value, lo, hi),
# None for an open end. LtfSpec's arity is its weight count, covered by
# test_spec_validation.
INTEGER_INPUTS = [
    ("BooleanFunction arity", lambda v: BooleanFunction(v, 0), 1, MAX_ARITY),
    ("BooleanFunction table", lambda v: BooleanFunction(1, v), 0, 3),
    ("from_hex arity", lambda v: BooleanFunction.from_hex(v, "00"), 1, MAX_ARITY),
    ("index_to_signs arity", lambda v: index_to_signs(0, v), 1, MAX_ARITY),
    ("complement_index arity", lambda v: complement_index(0, v), 1, MAX_ARITY),
    ("flip_coordinate arity", lambda v: flip_coordinate(0, 1, v), 1, MAX_ARITY),
    ("flip_coordinate coordinate", lambda v: flip_coordinate(0, v, 3), 1, 3),
    ("majority arity", majority, 1, MAX_ARITY),
    ("permute_coordinates entry", lambda v: MAJ3.permute_coordinates((v, 2, 3)), 1, 1),
    ("LtfSpec weight", lambda v: LtfSpec((v, 1, 1)), None, None),
    ("LtfSpec threshold", lambda v: LtfSpec((1, 1, 1), v), None, None),
    ("character_matrix arity", character_matrix, 1, ORACLE_MAX_ARITY),
    ("FourierExpansion arity", lambda v: FourierExpansion(v, np.array([2, 0], np.int32)), 1, MAX_ARITY),
    ("StabilityPolynomial numerator", lambda v: StabilityPolynomial((0, v), 1), None, None),
    ("StabilityPolynomial denominator", lambda v: StabilityPolynomial((0, 1), v), 1, None),
    ("grid_numerators points", StabilityPolynomial((0, 1), 1).grid_numerators, 1, MAX_GRID),
    ("influence coordinate", lambda v: influence(MAJ3, v), 1, 3),
    ("spectral influence coordinate", lambda v: influence_from_spectrum(MAJ3_SPECTRUM, v), 1, 3),
    ("degree_weight degree", lambda v: degree_weight(MAJ3_SPECTRUM, v), 0, 3),
    ("compare_stability grid", lambda v: compare_stability(MAJ3, MAJ3, v), 2, MAX_GRID),
    ("crossover_scan resolution", lambda v: crossover_scan(MAJ3, MAJ3, v), 2, MAX_GRID),
    ("search arity", lambda v: search_counterexamples(v, 2), 1, SEARCH_MAX_ARITY),
    ("search max_weight", lambda v: search_counterexamples(3, v), 1, None),
    ("canonical_weight_vectors n", lambda v: next(canonical_weight_vectors(v, 2)), 1, SEARCH_MAX_ARITY),
    ("canonical_weight_vectors max_weight", lambda v: next(canonical_weight_vectors(3, v)), 1, None),
]


def test_every_integer_input_refuses_non_integers_and_its_range_ends():
    missed = []
    for name, call, lo, hi in INTEGER_INPUTS:
        start = 1 if lo is None else lo
        values = [float(start), Fraction(256), str(start)]
        values += [] if lo is None else [lo - 1]
        values += [] if hi is None else [hi + 1]
        for value in values:
            try:
                call(value)
            except ValueError:
                continue
            missed.append((name, value))
    assert missed == []


# Every index a public entry point takes: (name, call on the value, size).
# A non-integer is a ValueError like any other; an integer outside
# [0, size) stays an IndexError.
INDEX_INPUTS = [
    ("evaluate index", MAJ3.evaluate, 8),
    ("index_to_signs index", lambda v: index_to_signs(v, 3), 8),
    ("flip_coordinate index", lambda v: flip_coordinate(v, 1, 3), 8),
    ("complement_index index", lambda v: complement_index(v, 3), 8),
    ("coefficient subset mask", lambda v: coefficient(MAJ3_SPECTRUM, v), 8),
]


def test_every_index_input_refuses_non_integers_and_its_range_ends():
    missed = []
    for name, call, size in INDEX_INPUTS:
        for value, error in [
            (1.0, ValueError),
            (Fraction(1), ValueError),
            ("1", ValueError),
            (-1, IndexError),
            (size, IndexError),
        ]:
            try:
                call(value)
            except error:
                continue
            missed.append((name, value))
        call(np.int64(size - 1))
    assert missed == []


def test_numpy_integer_arity_is_stored_as_an_int():
    e = FourierExpansion(np.int64(1), np.array([2, 0], np.int32))
    assert type(e.n) is int and e.size == 2


def test_checked_int_returns_python_ints_within_its_bounds():
    assert type(checked_int(np.int64(7), "x", 7, 7)) is int
    assert type(checked_int(np.uint8(0), "x", lo=0)) is int
    assert checked_int(True, "x") == 1
    with pytest.raises(ValueError, match="must be an integer"):
        checked_int(7.0, "x")
    with pytest.raises(ValueError, match="at least 8"):
        checked_int(7, "x", lo=8)
    with pytest.raises(ValueError, match="capped at 6: 7 is over the limit"):
        checked_int(7, "x", hi=6)
