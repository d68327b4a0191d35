"""Exact Walsh-Hadamard spectra: coefficients, influences, degree weights, stability.

Scaling convention: an expansion stores the integers 2^n * fhat(S) indexed by
subset mask S, where fhat(S) = 2^-n sum_x f(x) chi_S(x) and chi_S(x) is the
product of the coordinates in S. Division happens only at the reporting
boundary, so every published value is an exact Fraction in lowest terms.

With arity capped at 24, the fast paths are exact: the transform's int32
partial sums stay within 2^24 < 2^31, the int64 spectrum squares without
wrapping, and float64 level sums of squares stay within 4^24 = 2^48 < 2^53.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .core import ORACLE_MAX_ARITY, BooleanFunction, low_half_mask

__all__ = [
    "FourierExpansion",
    "StabilityPolynomial",
    "character_matrix",
    "coefficient",
    "correlation_by_distance",
    "degree_weight",
    "influence",
    "influence_from_spectrum",
    "inverse_wht",
    "naive_expansion",
    "stability_oracle",
    "stability_polynomial",
    "wht",
]


@dataclass(frozen=True, eq=False)
class FourierExpansion:
    """All 2^n scaled Fourier coefficients of a +-1 valued function."""

    n: int
    scaled: np.ndarray  # int64; scaled[S] = 2^n * fhat(S)

    def __post_init__(self):
        if self.scaled.shape != (1 << self.n,):
            raise ValueError("coefficient vector length must be 2^n")
        self.scaled.setflags(write=False)

    @property
    def size(self) -> int:
        return 1 << self.n


@dataclass(frozen=True)
class StabilityPolynomial:
    """The polynomial sum_k c_k rho^k with exact coefficients c_0..c_n.

    It holds any coefficients; the degree weights W_0..W_n, whose polynomial
    is the noise stability Stab_rho, are one case, and the difference of two
    stability polynomials is another.
    """

    weights: tuple[Fraction, ...]

    @cached_property
    def _integer_form(self) -> tuple[tuple[int, ...], int]:
        """(a_0..a_n, L) with c_k = a_k / L and L the lcm of the denominators."""
        denom = math.lcm(*(w.denominator for w in self.weights))
        return tuple(w.numerator * (denom // w.denominator) for w in self.weights), denom

    def evaluate(self, rho) -> Fraction:
        """Exact Horner evaluation at rational rho, in integers.

        With c_k = a_k / L over the common denominator L (4^n for a stability
        polynomial or a difference of two) and rho = p/q in lowest terms,
        P(p/q) = (sum_k a_k p^k q^(n-k)) / (L q^n). Horner runs on that
        integer numerator, acc = acc*p + a_k q^(n-k), with no gcd per step;
        the one Fraction built at the end reduces it, so the result is the
        exact value in lowest terms, equal to a Fraction Horner's.

        Values outside [0, 1] are allowed; they fall outside the noise
        interpretation and reporting layers flag them as such.
        """
        rho = Fraction(rho)
        if not self.weights:
            return Fraction(0)
        p, q = rho.numerator, rho.denominator
        numerators, denom = self._integer_form
        acc = numerators[-1]
        q_power = 1
        for a in reversed(numerators[:-1]):
            q_power *= q
            acc = acc * p + a * q_power
        return Fraction(acc, denom * q_power)

    def grid_numerators(self, points: int) -> tuple[list[int], int]:
        """([N_0..N_G], L G^d) with P(t/G) = N_t / (L G^d) for t = 0..G, G = points.

        With c_k = a_k / L for k = 0..d, N_t = sum_k a_k t^k G^(d-k):
        Horner in t over the coefficients pre-scaled by G^(d-k), with no gcd.
        The pairs are exact but not reduced; a caller builds a Fraction only
        where it reports one.
        """
        if not self.weights:
            return [0] * (points + 1), 1
        numerators, denom = self._integer_form
        d = len(numerators) - 1
        scaled = [a * points ** (d - k) for k, a in enumerate(numerators)]
        top, rest = scaled[-1], scaled[-2::-1]
        grid = []
        for t in range(points + 1):
            acc = top
            for b in rest:
                acc = acc * t + b
            grid.append(acc)
        return grid, denom * points**d


def _stages(vec: np.ndarray, lo: int, hi: int) -> None:
    """Butterfly stages for index bits lo..hi-1, in place on a contiguous vector.

    The stage for bit b maps pairs (x, y) = (bit clear, bit set) to
    (x + y, y - x); the sign asymmetry is forced by the encoding that puts
    x_i = +1 on set bits, where the textbook (x + y, x - y) butterfly would
    compute the chi of the complemented input instead. It runs as
    a += b; b *= 2; b -= a, so no stage copies a half of the vector.
    """
    for bit in range(lo, hi):
        m = vec.reshape(-1, 2, 1 << bit)
        a, b = m[:, 0, :], m[:, 1, :]
        a += b
        b *= 2
        b -= a


def wht(f: BooleanFunction) -> FourierExpansion:
    """Full spectrum by the fast transform, n * 2^n integer operations.

    The stages run in int32, exact because every value, 2y included, is a
    signed sum of at most 2^n entries +-1: |.| <= 2^n <= 2^24 < 2^31. The
    stages of the 4 low bits run on the transpose, where their inner runs
    are 2^(n-4) entries long instead of 1..8; the rest after transposing back.
    """
    low = min(f.n, 4)
    vec = f.signs().reshape(-1, 1 << low).T.astype(np.int32, order="C")
    _stages(vec.reshape(-1), f.n - low, f.n)
    vec = np.ascontiguousarray(vec.T).reshape(-1)
    _stages(vec, low, f.n)
    return FourierExpansion(f.n, vec.astype(np.int64))


def inverse_wht(e: FourierExpansion) -> BooleanFunction:
    """Recover the +-1 table from scaled coefficients, exactly.

    A stage's inverse (x, y) -> (x - y, x + y), up to the factor 2, is the
    forward stage with the pair swapped on both sides; reversing the index
    swaps every stage's pairs at once. So reverse, run the forward stages in
    int64 (the input is arbitrary) and reverse back.
    """
    vec = e.scaled[::-1].astype(np.int64, order="C")
    _stages(vec, 0, e.n)
    quotient, remainder = np.divmod(vec[::-1], e.size)
    if remainder.any() or not np.all(np.abs(quotient) == 1):
        raise ValueError("coefficients are not the spectrum of a +-1 valued function")
    return BooleanFunction.from_signs(quotient)


@lru_cache(maxsize=None)
def character_matrix(n: int) -> np.ndarray:
    """The 2^n x 2^n matrix M[S, j] = chi_S(j), by Kronecker doubling.

    Independent reference path for the fast transform; capped at the oracle
    arity because it costs 4^n memory.
    """
    if not 1 <= n <= ORACLE_MAX_ARITY:
        raise ValueError(f"character matrix arity must be in 1..{ORACLE_MAX_ARITY}")
    base = np.array([[1, 1], [-1, 1]], dtype=np.int64)  # rows: S = {}, {i}
    m = np.array([[1]], dtype=np.int64)
    for _ in range(n):
        m = np.kron(base, m)  # new coordinate takes the high bit of S and j
    m.setflags(write=False)
    return m


def naive_expansion(f: BooleanFunction) -> FourierExpansion:
    """Spectrum by direct summation: scaled[S] = sum_j f(j) chi_S(j), O(4^n)."""
    if f.n > ORACLE_MAX_ARITY:
        raise ValueError(f"naive summation capped at arity {ORACLE_MAX_ARITY}")
    scaled = character_matrix(f.n) @ f.signs().astype(np.int64)
    return FourierExpansion(f.n, scaled)


def coefficient(e: FourierExpansion, subset_mask: int) -> Fraction:
    """fhat(S) in lowest terms for the subset with the given bit mask."""
    if not 0 <= subset_mask < e.size:
        raise IndexError(f"subset mask {subset_mask} out of range for arity {e.n}")
    return Fraction(int(e.scaled[subset_mask]), e.size)


def influence(f: BooleanFunction, i: int) -> Fraction:
    """Inf_i[f] = Pr_x[f(x) != f(x with coordinate i flipped)], exact.

    Each disagreeing edge (j, j + stride) is one set bit of t ^ (t >> stride)
    on its bit-clear end j and counts for both of its inputs, so one masked
    popcount gives the count over all inputs.
    """
    if not 1 <= i <= f.n:
        raise ValueError(f"coordinate {i} out of range 1..{f.n}")
    stride = 1 << (i - 1)
    edges = (f.table ^ (f.table >> stride)) & low_half_mask(f.size, stride)
    return Fraction(2 * edges.bit_count(), f.size)


def influence_from_spectrum(e: FourierExpansion, i: int) -> Fraction:
    """Inf_i via the identity sum over S containing i of fhat(S)^2."""
    if not 1 <= i <= e.n:
        raise ValueError(f"coordinate {i} out of range 1..{e.n}")
    has_i = (np.arange(e.size) >> (i - 1)) & 1 == 1
    total = int(np.sum(e.scaled[has_i] ** 2))  # bounded by 4^n, exact in int64
    return Fraction(total, e.size * e.size)


def degree_weight(e: FourierExpansion, k: int) -> Fraction:
    """W_k = sum over |S| = k of fhat(S)^2, exact."""
    if not 0 <= k <= e.n:
        raise ValueError(f"degree {k} out of range 0..{e.n}")
    return stability_polynomial(e).weights[k]


def stability_polynomial(e: FourierExpansion) -> StabilityPolynomial:
    """The full weight vector W_0..W_n; the weights sum to 1 by Parseval.

    Row r of the spectrum holds the 2^16 masks (all 2^n when n < 16) whose
    high bits are r; its float64 squares, summed by the level of the low
    bits, add to the levels offset by popcount(r). Exact: every addend is an
    integer and every sum is at most the Parseval total 4^n <= 2^48 < 2^53.
    """
    low_bits = min(e.n, 16)
    low_levels = np.bitwise_count(np.arange(1 << low_bits, dtype=np.uint32)).astype(np.intp)
    sums = np.zeros(e.n + 1)
    for row, chunk in enumerate(e.scaled.reshape(-1, 1 << low_bits)):
        squares = np.square(chunk, dtype=np.float64)
        high = row.bit_count()
        sums[high : high + low_bits + 1] += np.bincount(low_levels, weights=squares)
    denom = e.size * e.size
    return StabilityPolynomial(tuple(Fraction(int(total), denom) for total in sums))


def correlation_by_distance(f: BooleanFunction, g: BooleanFunction) -> list[int]:
    """C[d] = sum over input pairs at Hamming distance d of f(x) g(y)."""
    if f.n != g.n:
        raise ValueError(f"arity mismatch: {f.n} vs {g.n}")
    if f.n > ORACLE_MAX_ARITY:
        raise ValueError(f"pair summation capped at arity {ORACLE_MAX_ARITY}")
    sf = f.signs().astype(np.int64)
    sg = g.signs().astype(np.int64)
    idx = np.arange(f.size)
    counts = [0] * (f.n + 1)
    for z in range(f.size):
        counts[z.bit_count()] += int(sf @ sg[idx ^ z])
    return counts


def stability_oracle(f: BooleanFunction, g: BooleanFunction, rho) -> Fraction:
    """E[f(x) g(y)] over rho-correlated pairs, by the direct double sum.

    y_i independently agrees with x_i with probability (1 + rho)/2, so a pair
    at Hamming distance d carries weight ((1+rho)/2)^(n-d) ((1-rho)/2)^d.
    Exact for rational rho; independent of the Fourier route, so it serves
    as the cross-check that Stab_rho equals sum_k W_k rho^k.
    """
    rho = Fraction(rho)
    agree = (1 + rho) / 2
    disagree = (1 - rho) / 2
    counts = correlation_by_distance(f, g)
    total = sum(
        c * agree ** (f.n - d) * disagree**d for d, c in enumerate(counts)
    )
    return total / f.size
