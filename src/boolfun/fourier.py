"""Exact Walsh-Hadamard spectra: coefficients, influences, degree weights, stability.

Scaling convention: an expansion stores the integers 2^n * fhat(S) indexed by
subset mask S, where fhat(S) = 2^-n sum_x f(x) chi_S(x) and chi_S(x) is the
product of the coordinates in S. Division happens only at the reporting
boundary, so every published value is an exact Fraction in lowest terms.

With arity capped at 24, the fast paths are exact: the transform's stage k
leaves every value within 2^k, so within each block of 2^18 entries it runs
stages 1-6 in int8, 7-14 in int16 and 15-18 in int32, in the block's slab of
the output; the stages above the block run in int32 on the whole output. A
stage's cost is numpy's loop over its rows, not its arithmetic, so each
block's stages run where their rows are long: the block's 18 index bits are
three 6-bit digits, and each digit's stages run while a copy has rotated it to
the outside. The int32 spectrum stays within 2^24 < 2^31, and it plus
512 KiB is the transform's peak: 64.5 MiB at n = 24. Every
expansion sums its squares by level once, on construction, in float64, and
is refused unless they total 4^n (Parseval); a true spectrum's level sums
stay within 4^24 = 2^48 < 2^53, so they are exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from .core import (
    MAX_ARITY,
    ORACLE_MAX_ARITY,
    BooleanFunction,
    _from_mask,
    _sign_block,
    checked_int,
    checked_ints,
    edge_ends,
)

# Largest grid (intervals) that grid_numerators accepts, and so compare_stability
# and crossover_scan; it must stay >= 4096, the crossover_scan default. It bounds
# the work of a grid: one integer Horner pass over its G + 1 points per curve.
MAX_GRID = 2**16

# wht runs its low stages on blocks of 2^_BLOCK_BITS entries. At 2^18 a block's
# int16 stages touch 512 KiB and its int32 slab 1 MiB, inside a 2 MiB per-core
# L2 cache, and its index bits are three 6-bit digits. On one 2^18-entry int16
# block, a stage on index bit 6 (rows of 64 entries) took 180 us, bit 8
# 135 us, bit 10 110 us and bits 12 and up about 30 us: numpy's per-row loop,
# not the arithmetic, sets the cost, so each digit's stages run while a copy
# has rotated it to the outside, onto bits 12-17.
_BLOCK_BITS = 18

# A spectrum's level sums add rows of 2^_LEVEL_CHUNK_BITS squares into one
# accumulator row per popcount of the row index, then make one bincount per
# accumulator row. At 2^12 the accumulator, one row's float64 squares and the
# intp level of each low mask take 0.38 MiB at n = 20; 2^14 rows need a
# 0.9 MiB accumulator. A bincount per row of 2^14 took 2.7 ms at n = 20 and
# 45 ms at n = 24; this takes 1.5 and 25 ms.
_LEVEL_CHUNK_BITS = 12

__all__ = [
    "MAX_GRID",
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
    scaled: np.ndarray  # scaled[S] = 2^n * fhat(S); int32 from wht, |.| <= 2^24
    # level_sums[k] = 4^n W_k, the sum of scaled[S]^2 over |S| = k.
    level_sums: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "n", checked_int(self.n, "arity", 1, MAX_ARITY))
        # Checked with no copy: wht's int32 spectrum sets the n = 24 peak.
        if not (isinstance(self.scaled, np.ndarray) and np.issubdtype(self.scaled.dtype, np.integer)):
            raise ValueError("scaled coefficients must be a numpy array of an integer dtype")
        if self.scaled.shape != (1 << self.n,):
            raise ValueError("coefficient vector length must be 2^n")
        # Exact in float64 for any integer vector: every addend is a nonnegative
        # square and rounding to nearest is monotone, so a level whose exact sum
        # is at most 2^53 is summed exactly, and one past 2^53 is computed as at
        # least 2^53 > 4^24. So the total equals 4^n only for a vector whose
        # squares truly sum to 4^n, which bounds every entry by 2^n: every
        # square and inverse_wht partial sum is then within 4^n.
        sums = _level_sums(self.scaled, self.n)
        if sum(sums) != 1 << 2 * self.n:
            raise ValueError(
                f"scaled coefficients must be a spectrum: squares summing to 4^{self.n} (Parseval)"
            )
        object.__setattr__(self, "level_sums", sums)
        self.scaled.setflags(write=False)

    @property
    def size(self) -> int:
        return 1 << self.n


@dataclass(frozen=True)
class StabilityPolynomial:
    """The polynomial sum_k (a_k / L) rho^k with integer a_0..a_d over one L > 0.

    It holds any coefficients; the degree weights W_0..W_n, whose polynomial
    is the noise stability Stab_rho, are one case (a_k = 4^n W_k, L = 4^n),
    and the difference of two stability polynomials of one arity is another.
    """

    numerators: tuple[int, ...]
    denominator: int

    def __post_init__(self):
        object.__setattr__(self, "numerators", checked_ints(self.numerators, "numerators"))
        object.__setattr__(self, "denominator", checked_int(self.denominator, "denominator", 1))
        checked_int(len(self.numerators), "coefficient count", 1)

    @cached_property
    def weights(self) -> tuple[Fraction, ...]:
        """The coefficients c_k = a_k / L as Fractions in lowest terms."""
        return tuple(Fraction(a, self.denominator) for a in self.numerators)

    def _horner(self, q: int, ps) -> tuple[list[int], int]:
        """([N_p for p in ps], L q^d) with P(p/q) = N_p / (L q^d).

        N_p = sum_k a_k p^k q^(d-k): Horner in p over the coefficients
        scaled by q^(d-k) once per call, outside the per-point loop, with no
        gcd. The pairs are exact but not reduced.
        """
        top, rest, q_power = self.numerators[-1], [], 1
        for a in self.numerators[-2::-1]:
            q_power *= q
            rest.append(a * q_power)
        values = []
        for p in ps:
            acc = top
            for b in rest:
                acc = acc * p + b
            values.append(acc)
        return values, self.denominator * q_power

    def evaluate(self, rho) -> Fraction:
        """Exact value at rational rho, in lowest terms.

        With rho = p/q, one integer Horner gives P(p/q) = N / (L q^d); the
        one Fraction built at the end reduces it, so the result equals a
        Fraction Horner's.

        Values outside [0, 1] are allowed; they fall outside the noise
        interpretation and reporting layers flag them as such.
        """
        rho = Fraction(rho)
        (value,), denom = self._horner(rho.denominator, (rho.numerator,))
        return Fraction(value, denom)

    def grid_numerators(self, points: int) -> tuple[list[int], int]:
        """([N_0..N_G], L G^d) with P(t/G) = N_t / (L G^d) for t = 0..G, G = points.

        One Horner pass over the grid; a caller builds a Fraction only where
        it reports one.
        """
        points = checked_int(points, "grid intervals", 1, MAX_GRID)
        return self._horner(points, range(points + 1))


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

    Each array is as narrow as a bound proven in advance allows. Stage k
    maps two values within 2^(k-1) to values within 2^k and forms 2y, within
    2^k, on the way; so stages 1-6 fit int8 (2^6 <= 127), stages 7-14 int16
    (2^14 <= 32767) and the rest int32 (2^24 < 2^31).

    The stages for the low _BLOCK_BITS index bits (all n of them below
    n = _BLOCK_BITS) run one block of 2^_BLOCK_BITS entries at a time. The
    block's bits are digits a (bits 0-5), b (6-11) and c (12-17), c and then
    b shorter or empty below n = 18, so in natural order it has shape
    (c, b, a). A stage on a low bit loops over short rows, so each rotation
    transpose(2, 0, 1) moves the inner digit outside, and its copy also
    widens: the table bytes unpack to int8 +-1 and rotate to (a, c, b) for
    stages 1-6; a cast to int16, written into the first half of the block's
    slab of the int32 output, rotates to (b, a, c) for stages 7-12; a fresh
    copy back to natural (c, b, a) runs stages 13-14; and a cast from it into
    the slab runs the block's stages from 15 on. That copy must not be a
    view: numpy does not buffer a cast from an int16 view of the slab into
    the slab, so it would overwrite entries before reading them. The stages
    above the block then run once over the whole output. Each block array is
    dropped once the next exists, so the peak is the int32 spectrum plus
    512 KiB, with no full-length narrow copy beside it.
    """
    n = f.n
    bits = min(n, _BLOCK_BITS)
    a = min(bits, 6)
    b = min(bits - a, 6)
    c = bits - a - b
    mid, block = min(bits, 14), 1 << bits
    out = np.empty(f.size, dtype=np.int32)
    for start in range(0, f.size, block):
        slab = out[start : start + block]
        vec = _sign_block(f, start, block).reshape(1 << c, 1 << b, 1 << a)
        vec = np.ascontiguousarray(vec.transpose(2, 0, 1))  # int8 (a, c, b)
        _stages(vec.reshape(-1), b + c, bits)
        wide = slab.view(np.int16)[:block].reshape(1 << b, 1 << a, 1 << c)
        np.copyto(wide, vec.transpose(2, 0, 1))  # int16 (b, a, c), in the slab's bytes
        del vec
        _stages(wide.reshape(-1), a + c, bits)
        vec = wide.transpose(2, 0, 1).copy().reshape(-1)  # natural (c, b, a), never a view
        _stages(vec, a + b, mid)
        slab[:] = vec
        del vec
        _stages(slab, mid, bits)
    _stages(out, bits, n)
    return FourierExpansion(n, out)


def inverse_wht(e: FourierExpansion) -> BooleanFunction:
    """Recover the +-1 table from scaled coefficients, exactly.

    A stage's inverse (x, y) -> (x - y, x + y), up to the factor 2, is the
    forward stage with the pair swapped on both sides; reversing the index
    swaps every stage's pairs at once. So reverse, run the forward stages in
    int64 and read the result reversed back: each stage at most doubles the
    largest value, so from entries within 2^n the partial sums stay within
    4^n <= 2^48. A spectrum's entries come out +-2^n exactly, and the +2^n
    ones are the table's set bits. The peak is the int64 vector, whose
    absolute values are taken in place, and one boolean mask: 9 bytes an entry.
    """
    vec = e.scaled[::-1].astype(np.int64, order="C")
    _stages(vec, 0, e.n)
    plus = vec[::-1] == e.size
    np.abs(vec, out=vec)
    if vec.min() != e.size or vec.max() != e.size:
        raise ValueError("coefficients are not the spectrum of a +-1 valued function")
    return _from_mask(plus)


def character_matrix(n: int) -> np.ndarray:
    """The 2^n x 2^n matrix M[S, j] = chi_S(j), by Kronecker doubling.

    Independent reference path for the fast transform; capped at the oracle
    arity because it costs 4^n memory.
    """
    n = checked_int(n, "character matrix arity", 1, ORACLE_MAX_ARITY)
    base = np.array([[1, 1], [-1, 1]], dtype=np.int64)  # rows: S = {}, {i}
    m = np.array([[1]], dtype=np.int64)
    for _ in range(n):
        m = np.kron(base, m)  # new coordinate takes the high bit of S and j
    return m


def naive_expansion(f: BooleanFunction) -> FourierExpansion:
    """Spectrum by direct summation: scaled[S] = sum_j f(j) chi_S(j), O(4^n)."""
    checked_int(f.n, "naive summation arity", hi=ORACLE_MAX_ARITY)
    scaled = character_matrix(f.n) @ f.signs().astype(np.int64)
    return FourierExpansion(f.n, scaled)


def coefficient(e: FourierExpansion, subset_mask: int) -> Fraction:
    """fhat(S) in lowest terms for the subset with the given bit mask."""
    subset_mask = checked_int(subset_mask, "subset mask")
    if not 0 <= subset_mask < e.size:
        raise IndexError(f"subset mask {subset_mask} out of range for arity {e.n}")
    return Fraction(int(e.scaled[subset_mask]), e.size)


def influence(f: BooleanFunction, i: int) -> Fraction:
    """Inf_i[f] = Pr_x[f(x) != f(x with coordinate i flipped)], exact.

    Each disagreeing edge is one set bit of lo ^ hi over the edges' two ends
    (``core.edge_ends``) and counts for both of its inputs, so one popcount
    over the words gives the count over all inputs.
    """
    lo, hi = edge_ends(f, checked_int(i, "coordinate", 1, f.n))
    return Fraction(2 * int(np.bitwise_count(lo ^ hi).sum()), f.size)


def influence_from_spectrum(e: FourierExpansion, i: int) -> Fraction:
    """Inf_i via the identity sum over S containing i of fhat(S)^2."""
    i = checked_int(i, "coordinate", 1, e.n)
    with_i = e.scaled.reshape(-1, 2, 1 << (i - 1))[:, 1, :]  # masks with bit i-1 set
    # Squared in int64: (2^24)^2 overflows int32, and the sum is at most 4^n.
    total = int(np.square(with_i, dtype=np.int64).sum())
    return Fraction(total, e.size * e.size)


def degree_weight(e: FourierExpansion, k: int) -> Fraction:
    """W_k = sum over |S| = k of fhat(S)^2, exact."""
    return stability_polynomial(e).weights[checked_int(k, "degree", 0, e.n)]


def _level_sums(scaled: np.ndarray, n: int) -> tuple[int, ...]:
    """(sum of scaled[S]^2 over |S| = k for k = 0..n), summed in float64.

    Row r of the spectrum holds the 2^_LEVEL_CHUNK_BITS masks (all 2^n when
    n is smaller) whose high bits are r. Its float64 squares add into
    accumulator row popcount(r); then each accumulator row, summed by the
    level of the low bits, adds to the levels offset by its high popcount.
    """
    low_bits = min(n, _LEVEL_CHUNK_BITS)
    low_levels = np.bitwise_count(np.arange(1 << low_bits, dtype=np.uint32)).astype(np.intp)
    squares = np.empty(1 << low_bits)
    by_high = np.zeros((n - low_bits + 1, 1 << low_bits))
    for row, chunk in enumerate(scaled.reshape(-1, 1 << low_bits)):
        np.square(chunk, out=squares, dtype=np.float64)
        by_high[row.bit_count()] += squares
    sums = np.zeros(n + 1)
    for high, part in enumerate(by_high):
        sums[high : high + low_bits + 1] += np.bincount(low_levels, weights=part)
    return tuple(int(total) for total in sums)


def stability_polynomial(e: FourierExpansion) -> StabilityPolynomial:
    """4^n W_0..4^n W_n over 4^n; the weights sum to 1 by Parseval.

    The level sums were taken, and checked to total 4^n, when the expansion
    was built; every sum is an integer at most 4^n <= 2^48 < 2^53, so exact.
    """
    return StabilityPolynomial(e.level_sums, e.size * e.size)


def correlation_by_distance(f: BooleanFunction, g: BooleanFunction) -> list[int]:
    """C[d] = sum over input pairs at Hamming distance d of f(x) g(y)."""
    if f.n != g.n:
        raise ValueError(f"arity mismatch: {f.n} vs {g.n}")
    checked_int(f.n, "pair summation arity", hi=ORACLE_MAX_ARITY)
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
