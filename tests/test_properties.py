"""Hypothesis property tests for the library's exact invariants."""

from fractions import Fraction

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from boolfun import (
    BooleanFunction,
    LtfSpec,
    TIE_REJECT,
    TIE_TO_MINUS_ONE,
    VERDICT_REFUTES,
    coefficient,
    compare_stability,
    complement_index,
    flip_coordinate,
    influence,
    influence_from_spectrum,
    inverse_wht,
    is_monotone,
    is_odd,
    materialize,
    naive_expansion,
    parse_spec,
    render_spec,
    stability_oracle,
    stability_polynomial,
    tie_witness,
    wht,
)

from helpers import (
    butterfly_oracle,
    horner_oracle,
    level_weights_oracle,
    mask_image,
    negate_subset,
    polynomial,
    random_function,
    random_odd_function,
)


@st.composite
def boolean_functions(draw, max_n=10):
    n = draw(st.integers(1, max_n))
    table = draw(st.integers(0, (1 << (1 << n)) - 1))
    return BooleanFunction(n, table)


@st.composite
def odd_functions(draw, max_n=10):
    n = draw(st.integers(1, max_n))
    seed = draw(st.integers(0, 2**32 - 1))
    return random_odd_function(n, np.random.default_rng(seed))


@st.composite
def monotone_specs(draw, max_n=10):
    n = draw(st.integers(1, max_n))
    weights = draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
    if sum(weights) % 2 == 0:
        weights[0] += 1  # odd total rules out ties at threshold 0
    return LtfSpec(tuple(weights))


@given(boolean_functions())
def test_parseval_exact(f):
    e = wht(f)
    assert int(np.sum(e.scaled.astype(np.int64) ** 2)) == 4**f.n


@given(boolean_functions())
def test_inverse_transform_recovers_table(f):
    assert inverse_wht(wht(f)) == f


@settings(max_examples=40)
@given(boolean_functions(max_n=8))
def test_fast_transform_equals_naive_summation(f):
    assert np.array_equal(wht(f).scaled, naive_expansion(f).scaled)


# Level sums run over 2^16-entry chunks: n = 15 has no full chunk, 16 one
# and 17 two, whose second chunk's levels are offset by one.
@settings(max_examples=15)
@given(st.sampled_from([15, 16, 17]), st.integers(0, 2**32 - 1))
def test_spectrum_and_levels_equal_int64_oracles_at_chunk_boundary(n, seed):
    f = random_function(n, np.random.default_rng(seed))
    e = wht(f)
    assert np.array_equal(e.scaled, butterfly_oracle(f))
    assert stability_polynomial(e).weights == level_weights_oracle(e)


@given(boolean_functions())
def test_influence_definition_equals_spectral_identity(f):
    e = wht(f)
    for i in range(1, f.n + 1):
        assert influence(f, i) == influence_from_spectrum(e, i)


@given(odd_functions())
def test_odd_functions_have_no_even_level_mass(f):
    assert is_odd(f)
    e = wht(f)
    for mask in range(f.size):
        if mask.bit_count() % 2 == 0:
            assert e.scaled[mask] == 0


@given(monotone_specs())
def test_monotone_identity_coefficient_is_influence(spec):
    assert tie_witness(spec) is None
    f = materialize(spec)
    assert is_monotone(f)
    e = wht(f)
    for i in range(1, f.n + 1):
        assert coefficient(e, 1 << (i - 1)) == influence(f, i)


@st.composite
def function_with_permutation(draw, max_n=8):
    f = draw(boolean_functions(max_n=max_n))
    perm = draw(st.permutations(range(1, f.n + 1)))
    return f, tuple(perm)


@given(function_with_permutation())
def test_permutation_acts_on_spectrum_by_mask_image(fp):
    f, perm = fp
    ef = wht(f)
    eg = wht(f.permute_coordinates(perm))
    for mask in range(f.size):
        assert eg.scaled[mask_image(mask, perm)] == ef.scaled[mask]


@given(function_with_permutation())
def test_degree_weights_invariant_under_permutation(fp):
    f, perm = fp
    assert stability_polynomial(wht(f)) == stability_polynomial(
        wht(f.permute_coordinates(perm))
    )


@st.composite
def function_with_mask(draw, max_n=8):
    f = draw(boolean_functions(max_n=max_n))
    mask = draw(st.integers(0, f.size - 1))
    return f, mask


@given(function_with_mask())
def test_degree_weights_invariant_under_input_negation(fm):
    f, mask = fm
    assert stability_polynomial(wht(f)) == stability_polynomial(wht(negate_subset(f, mask)))


@settings(max_examples=30)
@given(boolean_functions(max_n=6), st.sampled_from([Fraction(0), Fraction(1, 7), Fraction(1, 3), Fraction(1, 2), Fraction(9, 10), Fraction(1)]))
def test_stability_oracle_equals_polynomial(f, rho):
    assert stability_oracle(f, f, rho) == stability_polynomial(wht(f)).evaluate(rho)


# Coefficients with unrelated denominators, next to the 4^n-scaled ones a
# stability polynomial has; up to degree 25, one past the arity cap.
coefficient_lists = st.lists(
    st.one_of(
        st.fractions(max_denominator=10**9),
        st.integers(-(4**11), 4**11).map(lambda k: Fraction(k, 4**11)),
    ),
    max_size=26,
)
rho_values = st.one_of(
    st.integers(-50, 50),
    st.floats(min_value=-4, max_value=4),
    st.fractions(max_denominator=10**6),
    st.fractions(max_denominator=1000).map(str),
    # Bisection midpoints: dyadics down to 2^-41, both signs, past 1.
    st.builds(Fraction, st.integers(-(2**42), 2**42), st.integers(0, 41).map(lambda e: 2**e)),
)


@settings(max_examples=300)
@given(coefficient_lists, rho_values)
@example([], Fraction(1, 3))
@example([Fraction(-5, 6)], Fraction(7, 2))
@example([Fraction(3, 4)], 0)
def test_integer_horner_equals_fraction_horner(weights, rho):
    value = polynomial(weights).evaluate(rho)
    assert isinstance(value, Fraction)
    assert value == horner_oracle(weights, rho)


@settings(max_examples=200)
@given(coefficient_lists, st.integers(1, 64))
@example([], 1)
@example([], 5)
@example([Fraction(-5, 6)], 7)
@example([Fraction(0), Fraction(0), Fraction(0)], 3)
@example([Fraction(0), Fraction(1, 64), Fraction(0), Fraction(-3, 32), Fraction(0), Fraction(5, 64)], 64)
def test_grid_numerators_equal_evaluate(weights, points):
    poly = polynomial(weights)
    numerators, denom = poly.grid_numerators(points)
    assert len(numerators) == points + 1
    assert isinstance(denom, int) and denom > 0
    for t, value in enumerate(numerators):
        assert isinstance(value, int)
        assert Fraction(value, denom) == poly.evaluate(Fraction(t, points))


@st.composite
def threshold_spec_pairs(draw, max_n=7):
    n = draw(st.integers(1, max_n))

    def spec():
        weights = draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))
        # theta = 0 with an odd weight sum is tie-free and odd, hence unbiased:
        # such pairs have D(0) = 0, where a refutation is possible.
        theta = draw(st.just(0) | st.integers(-n, n))
        return LtfSpec(tuple(weights), theta, TIE_TO_MINUS_ONE)

    return spec(), spec()


@settings(max_examples=200)
@given(threshold_spec_pairs(), st.sampled_from([2, 8, 64]))
@example((LtfSpec((1, 1, 1), -2), LtfSpec((1, 1, 1))), 256)
@example((LtfSpec((2, 2, 1, 1, 1)), LtfSpec((1, 1, 1, 1, 1))), 2)
def test_compare_refutes_only_with_a_checked_witness(pair, grid):
    f, g = (materialize(spec) for spec in pair)
    report = compare_stability(f, g, grid)
    if report.verdict != VERDICT_REFUTES:
        assert report.small_rho_witness is None
        return
    rho, value = report.small_rho_witness
    assert report.diff.weights[0] == 0 and report.margin > 0 and value > 0
    assert value == stability_oracle(g, g, rho) - stability_oracle(f, f, rho)


@given(boolean_functions(max_n=8))
def test_stability_nondecreasing_on_unit_grid(f):
    poly = stability_polynomial(wht(f))
    values = [poly.evaluate(Fraction(t, 12)) for t in range(13)]
    assert all(a <= b for a, b in zip(values, values[1:]))


@given(boolean_functions(max_n=8))
def test_negate_inputs_involution_and_complement_rule(f):
    g = f.negate_inputs()
    assert g.negate_inputs() == f
    for j in range(f.size):
        assert g.evaluate(j) == f.evaluate(complement_index(j, f.n))


@given(st.integers(1, 12), st.data())
def test_flip_coordinate_involution(n, data):
    j = data.draw(st.integers(0, (1 << n) - 1))
    i = data.draw(st.integers(1, n))
    assert flip_coordinate(flip_coordinate(j, i, n), i, n) == j


@given(boolean_functions())
def test_hex_roundtrip(f):
    assert BooleanFunction.from_hex(f.n, f.to_hex()) == f


@given(
    st.lists(st.integers(-9, 9) | st.integers(), min_size=1, max_size=24),
    st.integers(-20, 20) | st.integers(),
    st.sampled_from([TIE_REJECT, TIE_TO_MINUS_ONE]),
)
def test_spec_text_roundtrip(weights, theta, tie_policy):
    spec = LtfSpec(tuple(weights), theta, tie_policy)
    assert parse_spec(render_spec(spec), tie_policy) == spec


@given(st.text() | st.text(alphabet="0123456789,@+- _\t\n"))
@example("")
@example("2,2,1,1,1@")
@example("1," * 25 + "1")
@example("1@2@3")
def test_parse_spec_parses_or_raises_value_error(text):
    try:
        spec = parse_spec(text)
    except ValueError:
        return
    assert isinstance(spec, LtfSpec)
    assert parse_spec(render_spec(spec)) == spec
