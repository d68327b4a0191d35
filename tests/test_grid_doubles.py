"""The certified float64 grid evaluator against exact integer division.

``fourier._grid_doubles`` must give, at every grid point, the double that
``int / int`` gives for the exact sample, and send to the exact ``_horner``
only the points it cannot certify.
"""

import functools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from boolfun import (
    LtfSpec,
    StabilityPolynomial,
    cli,
    majority,
    materialize,
    stability_polynomial,
    wht,
)
from boolfun.fourier import _GRID_BLOCK, _grid_doubles
from helpers import random_monotone_spec

GRIDS = (2, 3, 7, 100, 255, 256, 2047, 4096, 65535, 65536)


@pytest.fixture
def horner_points(monkeypatch):
    """The points of every exact ``_horner`` call, one list per call, while the test runs."""
    calls = []
    original = StabilityPolynomial._horner

    def recording(self, q, ps):
        ps = list(ps)
        calls.append(ps)
        return original(self, q, ps)

    monkeypatch.setattr(StabilityPolynomial, "_horner", recording)
    return calls


def exact_doubles(poly, points: int) -> list[str]:
    """float.hex of the nearest double to every sample, one int / int division each.

    Hex tells -0.0 from 0.0, which the CSV would print differently.
    """
    numerators, den = poly.grid_numerators(points)
    return [(a / den).hex() for a in numerators]


def assert_exact(polys, points: int) -> None:
    got = _grid_doubles(polys, points)
    assert got.shape == (len(polys), points + 1) and got.dtype == np.float64
    assert not got.flags.writeable
    for row, poly in zip(got.tolist(), polys):
        assert [x.hex() for x in row] == exact_doubles(poly, points)


@st.composite
def polys_over_4_to_the_n(draw):
    """One to three polynomials over one 4^n, numerators within 4^n, degrees up to 24."""
    n = draw(st.integers(1, 24))
    bound = 4**n
    count = draw(st.integers(1, 3))
    return [
        StabilityPolynomial(
            tuple(draw(st.lists(st.integers(-bound, bound), min_size=1, max_size=25))), bound
        )
        for _ in range(count)
    ]


@settings(max_examples=150, deadline=None)
@given(polys_over_4_to_the_n(), st.sampled_from(GRIDS[:7]))
@example([StabilityPolynomial((0,), 4)], 2)
@example([StabilityPolynomial((4**24,) * 25, 4**24)], 255)
@example([StabilityPolynomial((-(4**24), 4**24) * 12 + (1,), 4**24)], 2047)
def test_random_polynomials_equal_exact_division(polys, points):
    assert_exact(polys, points)


@functools.cache
def seeded_curves(n: int):
    """Two seeded stability curves at arity n, Maj_n's (odd n) and their differences."""
    rng = np.random.default_rng(3100 + n)
    specs = [random_monotone_spec(n, rng) for _ in range(2)]
    if n % 2:
        specs.append(LtfSpec((1,) * n))
    f, g, *rest = (stability_polynomial(wht(materialize(spec))) for spec in specs)
    diffs = [
        StabilityPolynomial(tuple(b - a for a, b in zip(p.numerators, q.numerators)), p.denominator)
        for p, q in [(f, g), *((f, h) for h in rest)]
    ]
    return (f, g, *rest, *diffs)


@pytest.fixture(scope="module", params=[1, 5, 11, 24])
def curves(request):
    return seeded_curves(request.param)


@pytest.mark.parametrize("points", GRIDS)
def test_stability_curves_and_differences_equal_exact_division(curves, points):
    assert_exact(curves, points)


def test_real_curves_leave_under_one_percent_uncertified(horner_points):
    # An evaluator that never certifies would pass every value test above.
    # At n = 5 on this grid about 600 samples are exact midpoints, whose
    # values have few enough bits; from n = 11 on, the misses are the zeros
    # and a few such midpoints.
    for n in (11, 16, 20, 24):
        polys = seeded_curves(n)
        _grid_doubles(polys, 2048)
        missed = sum(map(len, horner_points))
        horner_points.clear()
        assert missed < 0.01 * len(polys) * 2049, n


def test_compare_sends_few_points_to_the_exact_horner(horner_points, tmp_path, capsys):
    # Bisection (about 40 midpoints per bracket) plus the uncertified grid
    # points: the zero samples at rho = 0 and D(1) = 0, and few others.
    code = cli.main(
        ["compare", "5,4,3,3,2,2,2,1,1,1,1", ",".join(["1"] * 11),
         "--grid", "2048", "--out", str(tmp_path / "curve.csv")]
    )
    assert code == 0
    assert '"crossover_bracket": {' in capsys.readouterr().out
    assert sum(map(len, horner_points)) < 100


# Midpoints between two doubles must round to even. A midpoint never
# certifies, so each reaches the exact fallback at t = 1 of G = 2^16.
MIDPOINTS = [
    # numerators over 2^48, the exact value at 2^-16, its nearest double
    ((2**48, 2**11), 1 + Fraction(1, 2**53), 1.0),  # between 1 and 1 + 2^-52
    ((2**48, 3 * 2**11), 1 + Fraction(3, 2**53), 1 + 2**-51),  # 1 + 2^-52 is odd
    ((2**48, -(2**10)), 1 - Fraction(1, 2**54), 1.0),  # below a power of two
    ((-(2**48), -(2**11)), -1 - Fraction(1, 2**53), -1.0),
    ((-(2**48), 2**10), -1 + Fraction(1, 2**54), -1.0),
]


@pytest.mark.parametrize("numerators, exact, expected", MIDPOINTS)
def test_midpoints_round_to_even_through_the_fallback(numerators, exact, expected, horner_points):
    poly = StabilityPolynomial(numerators, 2**48)
    assert poly.evaluate(Fraction(1, 65536)) == exact
    assert _grid_doubles((poly,), 65536)[0, 1] == expected
    assert any(1 in points for points in horner_points)


def test_uncertified_points_past_the_first_block_take_their_own_exact_value(horner_points):
    # x - t0/G is an exact zero at t0, in the fourth column block; 8 + x/2^50
    # sits on the midpoint 8 + 2^-50 at t = 2^14, the first point of the
    # third block, and on 8 + 3 * 2^-50 at 3 * 2^14, in the seventh. Neither
    # certifies, so each must reach the exact Horner at its grid index: a
    # block-local index would evaluate a point of the first block instead.
    points = 65536
    t0 = 3 * _GRID_BLOCK + 5
    zero = StabilityPolynomial((-t0 * 2**32, 2**48), 2**48)
    midpoint = StabilityPolynomial((2**51, 1), 2**48)
    got = _grid_doubles((zero, midpoint), points)
    assert got[0, t0] == 0.0
    assert got[1, 2**14] == 8.0 and got[1, 3 * 2**14] == 8 + 2**-48  # ties to even
    assert t0 in horner_points[0] and {2**14, 3 * 2**14} <= set(horner_points[1])
    assert_exact((zero, midpoint), points)


def near_midpoint(target: Fraction, points: int, side: int) -> StabilityPolynomial:
    """A degree-24 polynomial over 2^48 whose value at 1/points lies within
    2^-48 points^-24 of ``target``, strictly above it (side 1) or below (-1).

    Its numerators are the base-``points`` digits of target 2^48 points^24,
    rounded to the side: for odd ``points`` and a dyadic target that is not
    an integer, the value never equals the target. The terms b - b G x,
    with b G near 2^53, vanish at x = 1/G, but their rounding errors leave
    the compensated sum off by far more than the target's half gap.
    """
    scaled = target * 2**48 * points**24
    rest = math.ceil(scaled) if side > 0 else math.floor(scaled)
    digits = []
    for _ in range(24):
        rest, digit = divmod(rest, points)
        digits.append(digit)
    numerators = [rest, *reversed(digits)]
    b = 2**53 // points
    numerators[0] += b
    numerators[1] -= b * points
    return StabilityPolynomial(tuple(numerators), 2**48)


@pytest.mark.parametrize("points", [255, 2047, 4095, 65535])
def test_values_a_hair_off_a_midpoint_round_to_their_own_side(points):
    # Each exact value lies within 2^-240 of a midpoint next to 2^-60, and
    # the compensated sum misses it by more than that, on either side. Both
    # midpoints are here, the one below 2^-60 between two gaps of different
    # size, with both signs. A bound of 0, or the wider half gap used on the
    # narrower side, certifies some of these wrongly.
    scale = Fraction(1, 2**60)
    polys = [
        StabilityPolynomial(tuple(sign * a for a in poly.numerators), poly.denominator)
        for target in (scale * (1 - Fraction(1, 2**54)), scale * (1 + Fraction(1, 2**53)))
        for side in (1, -1)
        for poly in [near_midpoint(target, points, side)]
        for sign in (1, -1)
    ]
    got = _grid_doubles(polys, points)
    for row, poly in zip(got, polys):
        assert row[1] == float(poly.evaluate(Fraction(1, points)))


def test_refuses_polynomials_outside_the_exact_double_range():
    with pytest.raises(ValueError):
        _grid_doubles((StabilityPolynomial((1, 1), 3),), 4)
    with pytest.raises(ValueError):
        _grid_doubles((StabilityPolynomial((2**54, 1), 4),), 4)
    with pytest.raises(ValueError):
        _grid_doubles((StabilityPolynomial((1,) * 26, 4),), 4)
    with pytest.raises(ValueError):
        _grid_doubles((StabilityPolynomial((1, 1), 4), StabilityPolynomial((1, 1), 16)), 4)


def test_majority_curves_at_the_arity_cap_take_the_fast_path(horner_points):
    poly = stability_polynomial(wht(majority(23)))
    got = _grid_doubles((poly,), 65535)
    assert horner_points == [[0]]  # rho = 0, where the value is 0
    assert got[0, 0] == 0 and got[0, -1] == 1
