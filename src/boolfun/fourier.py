"""Exact Walsh-Hadamard spectra: coefficients, influences, degree weights, stability.

Scaling convention: an expansion's ``scaled`` holds the integers
2^n * fhat(S) indexed by subset mask S, where fhat(S) = 2^-n sum_x f(x)
chi_S(x) and chi_S(x) is the product of the coordinates in S. Division
happens only at the reporting boundary, so every published value is an
exact Fraction in lowest terms.

With arity capped at 24, the fast paths are exact: the transform's stage k
leaves every value within 2^k, so within each block of 2^18 entries it runs
stages 1-6 in int8, 7-14 in int16 and 15-18 in int32, in the block's slab of
the output; the stages above the block run in int32 on the whole output. A
stage's cost is numpy's loop over its rows, not its arithmetic, so each
block's stages run where their rows are long: the block's 18 index bits are
three 6-bit digits, and each digit's stages run while a copy has rotated it to
the outside. The int32 spectrum stays within 2^24 < 2^31, and it plus
512 KiB is the transform's peak: 64.5 MiB at n = 24. An odd table,
f(-x) = -f(x), as Maj_n and every tie-free LTF at theta = 0 are, transforms
only its x_n = -1 half this way, and its expansion keeps just that half's
spectrum G: the peak is G plus 512 KiB, 32.5 MiB at n = 24. Its level sums
come from G's, and the full vector, 2G or -2G within 2^n <= 2^24 where it is
not 0, is built only when ``scaled`` is read. Every expansion sums the
squares of the vector it keeps by level once, on construction, in float64,
and is refused unless they total 4^n, or 4^(n-1) for G (Parseval); a true
spectrum's level sums stay within 4^24 = 2^48 < 2^53, so they are exact.

A stability polynomial holds integers over 4^n and evaluates exactly in
Python ints. A grid of its values, as ``compare`` writes, is evaluated in
float64, in column blocks of 2^13 points, by a compensated Horner whose
a-posteriori bound proves each value the nearest double to the exact
sample; the few points it cannot prove (zeros, midpoints) go to the exact
integer Horner.
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
    _odd,
    _sign_block,
    checked_int,
    checked_ints,
    edge_ends,
)

# Largest grid (intervals) that grid_numerators and _grid_doubles accept, and so
# compare_stability and crossover_scan; it must stay >= 4096, the crossover_scan
# default. It bounds the work of a grid: one float64 pass over its G + 1 points
# per curve, or one integer Horner pass, and G <= 2^16 keeps t/G at least 2^-16.
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
# 45 ms at n = 24; this takes 1.5 and 25 ms. Each row is copied into the
# float64 buffer and squared there: np.square with dtype=float64 runs a
# buffered cast, and its loop over the 256 rows at n = 20 took 1.44 ms
# against 1.30 ms (best of 9 x 10).
_LEVEL_CHUNK_BITS = 12

# An odd expansion's scaled scales a row of 2^_LEVEL_CHUNK_BITS entries of
# its half spectrum G, at low masks m, by _TOP_FACTORS[p], p the parity of the
# row's high bits: for the lower output half 2 where |m| + p is odd, for the
# upper -2 where it is even, and 0 elsewhere. Built once, 64 KiB.
_LOW_ODD = (np.bitwise_count(np.arange(1 << _LEVEL_CHUNK_BITS)) & 1).astype(np.int32)
_TOP_FACTORS = 2 * np.array([[_LOW_ODD, _LOW_ODD - 1], [1 - _LOW_ODD, -_LOW_ODD]])

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


@dataclass(frozen=True, eq=False, init=False)
class FourierExpansion:
    """All 2^n scaled Fourier coefficients of a +-1 valued function.

    ``FourierExpansion(n, scaled)`` keeps the vector it is given; ``wht``
    keeps an odd table's as G, its x_n = -1 half's spectrum (see ``wht``).
    """

    n: int
    # level_sums[k] = 4^n W_k, the sum of scaled[S]^2 over |S| = k.
    level_sums: tuple[int, ...] = field(repr=False)
    _stored: np.ndarray = field(repr=False)  # scaled, or an odd table's G
    _half: bool = field(repr=False)  # whether _stored is G

    def __init__(self, n: int, scaled: np.ndarray):
        self._keep(n, scaled, half=False)

    @classmethod
    def _of_odd_half(cls, n: int, g: np.ndarray) -> FourierExpansion:
        """The expansion of an odd n-ary table from G, its x_n = -1 half's spectrum."""
        e = cls.__new__(cls)
        e._keep(n, g, half=True)
        return e

    def _keep(self, n, stored, half: bool) -> None:
        n = checked_int(n, "arity", 1, MAX_ARITY)
        bits = n - half
        # Checked with no copy: wht's int32 vector sets the n = 24 peak.
        if not (isinstance(stored, np.ndarray) and np.issubdtype(stored.dtype, np.integer)):
            raise ValueError("scaled coefficients must be a numpy array of an integer dtype")
        if stored.shape != (1 << bits,):
            raise ValueError(f"coefficient vector length must be 2^{'(n-1)' if half else 'n'}")
        # Exact in float64 for any integer vector: every addend is a nonnegative
        # square and rounding to nearest is monotone, so a level whose exact sum
        # is at most 2^53 is summed exactly, and one past 2^53 is computed as at
        # least 2^53 > 4^24. So the total equals 4^bits only for a vector whose
        # squares truly sum to 4^bits, which bounds every entry by 2^bits: every
        # square and inverse_wht partial sum is then within 4^n.
        sums = _level_sums(stored, bits)
        if sum(sums) != 1 << 2 * bits:
            raise ValueError(
                f"scaled coefficients must be a spectrum: squares summing to 4^{bits} (Parseval)"
            )
        if half:
            # See wht: 4^n W_k = 4 (L_k[G] + L_{k-1}[G]) for odd k, with
            # L_n[G] = 0, and 0 for even k. Parseval on G is Parseval on f.
            sums = tuple(4 * sum(sums[k - 1 : k + 1]) if k & 1 else 0 for k in range(n + 1))
        stored.setflags(write=False)
        for name, value in (("n", n), ("level_sums", sums), ("_stored", stored), ("_half", half)):
            object.__setattr__(self, name, value)

    @property
    def size(self) -> int:
        return 1 << self.n

    @cached_property
    def scaled(self) -> np.ndarray:
        """scaled[S] = 2^n * fhat(S), read-only; int32 from wht, |.| <= 2^24.

        An odd table's is built from G on first read by wht's top stage, one
        pass over rows of 2^_LEVEL_CHUNK_BITS entries of G scaled by
        ``_TOP_FACTORS``; |2G| <= 2^n <= 2^24 fits int32.
        """
        if not self._half:
            return self._stored
        g = self._stored
        out = np.empty(2 * g.size, dtype=g.dtype)
        width = 1 << min(self.n - 1, _LEVEL_CHUNK_BITS)
        rows = zip(*(half.reshape(-1, width) for half in (g, out[: g.size], out[g.size :])))
        for row, (g_row, low, high) in enumerate(rows):
            low_factor, high_factor = _TOP_FACTORS[row.bit_count() & 1, :, :width]
            np.multiply(g_row, low_factor, out=low)
            np.multiply(g_row, high_factor, out=high)
        out.setflags(write=False)
        return out


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


# _grid_doubles evaluates its grid in column blocks of 2^13 points, so the
# loop's eight (3, block) float64 work arrays, 1.5 MiB, stay in a 2 MiB L2.
# On three n = 24 curves at G = 2^16, whole rows took 114-118 ms and blocks
# of 2^13 54-65 ms (best of 5); a grid of at most 8192 points, as
# curve-11's 2049, is one block.
_GRID_BLOCK = 2**13

# Veltkamp's splitter for 53-bit doubles: a * (2^27 + 1) splits a into two
# 26-bit halves whose pairwise products are exact.
_SPLITTER = float(2**27 + 1)


def _split(a):
    """(a_hi, a_lo) with a = a_hi + a_lo exactly and each half 26 bits wide."""
    big = a * _SPLITTER
    hi = big - (big - a)
    return hi, a - hi


def _two_sum(a, b):
    """(s, e) with s = fl(a + b) and a + b = s + e exactly (Knuth)."""
    s = a + b
    z = s - a
    return s, (a - (s - z)) + (b - z)


def _certified_horner(coeffs, xh, xh_hi, xh_lo, xl) -> tuple[np.ndarray, np.ndarray]:
    """(hi, ok) of ``_grid_doubles``' compensated Horner over one block of points.

    ``coeffs`` has shape (d + 1, m, 1), c_0 first; the point arrays are x_h,
    its two halves and x_l. hi is fl(s_0 + r_0), and ok marks the points
    whose value hi is proven the nearest double to the exact sample.
    """
    # The loop runs in place in eight arrays: allocating a temporary per
    # operation took a third longer at G = 2^16 and a fifth at G = 2048.
    s = np.broadcast_to(coeffs[-1], (coeffs.shape[1], xh.size)).copy()
    r, bound = np.zeros_like(s), np.zeros_like(s)
    p, pi, a, b, z = (np.empty_like(s) for _ in range(5))
    for c in coeffs[-2::-1]:
        # TwoProd s x_h = p + pi, with s split into s_hi + s_lo in a and b.
        np.multiply(s, xh, out=p)
        np.multiply(s, _SPLITTER, out=a)
        np.subtract(a, s, out=b)
        a -= b
        np.subtract(s, a, out=b)
        np.multiply(a, xh_hi, out=pi)
        pi -= p
        a *= xh_lo
        pi += a
        np.multiply(b, xh_hi, out=a)
        pi += a
        b *= xh_lo
        pi += b
        # w = fl(s x_l) in a; TwoSum p + c = s + sigma, sigma into b.
        np.multiply(s, xl, out=a)
        np.add(p, c, out=s)
        np.subtract(s, p, out=z)
        np.subtract(s, z, out=b)
        p -= b
        np.subtract(c, z, out=b)
        b += p
        # v = fl(pi + sigma), r = fl(fl(r x_h) + fl(v + w)), bound += |v| + |w|.
        pi += b
        r *= xh
        np.add(pi, a, out=b)
        r += b
        np.abs(pi, out=pi)
        np.abs(a, out=a)
        pi += a
        bound *= xh
        bound += pi
    hi, lo = _two_sum(s, r)
    bound = bound * 2.0**-45 + 2.0**-1060
    up = (np.nextafter(hi, np.inf) - hi) * 0.5
    down = (hi - np.nextafter(hi, -np.inf)) * 0.5
    return hi, (lo + bound < up) & (lo - bound > -down)


def _grid_doubles(polys, points: int) -> np.ndarray:
    """The nearest double to P(t/G) for each P in ``polys`` and t = 0..G, G = points.

    A read-only (len(polys), G + 1) float64 array. Every polynomial has
    integer numerators |a_k| <= 2^53 over one denominator L = 2^e, e <= 48,
    and degree d <= 24 (zero leading coefficients pad the shorter ones), so
    each c_k = a_k / L is an exact double in 2^-48 Z. A compensated Horner
    (Graillat, Langlois and Louvet, 2009) evaluates every point at once and
    proves its rounded value correct; only points whose proof fails go to
    the exact ``_horner``, whose int / int rounds to nearest, ties to even.

    x = t/G is carried as x_h + x_l: x_h = fl(t/G), and since t - x_h G is
    exactly representable (the remainder of a rounded division), Dekker's
    TwoProd of x_h G gives it with no error, and x_l = fl((t - x_h G) / G).
    With eps = x - x_h, |eps| <= u x_h and |eps - x_l| <= u |x_l|, u = 2^-53.
    A power-of-two G makes x_l = 0, so every G takes the one path.

    Horner with error-free transforms, s_d = c_d and for i = d-1..0:
    s_{i+1} x_h = p_i + pi_i (TwoProd), p_i + c_i = s_i + sigma_i (TwoSum).
    With e_i = E_i - s_i against exact Horner E_i = E_{i+1} x + c_i,
    e_i = e_{i+1} x + q_i, q_i = pi_i + sigma_i + s_{i+1} eps, so
    P(x) = s_0 + e_0. The correction runs in floating point: w_i =
    fl(s_{i+1} x_l), v_i = fl(pi_i + sigma_i), q'_i = fl(v_i + w_i),
    r_i = fl(fl(r_{i+1} x_h) + q'_i), r_d = 0. Each rounding is within u of
    its result, so with rho_i = |v_i| + |w_i| the step error f_i = e_i - r_i
    obeys f_i = f_{i+1} x + l_i with |q_i - q'_i| <= (3 + 2u) u rho_i,
    |r_{i+1} eps| <= u x_h |r_{i+1}| and the two roundings of r_i within
    u (1 + u)^2 (rho_i + 2 x_h |r_{i+1}|): |l_i| <= u (4.001 rho_i +
    3.001 x_h |r_{i+1}|). By induction |r_{i+1}| <= (1 + u)^(2d) R_{i+1},
    R_i = R_{i+1} x_h + rho_i, R_d = 0; and x <= (1 + u) x_h. Summing
    |f_0| <= sum_i |l_i| x^i, where sum_i x_h^(i+1) R_{i+1} = sum_j j rho_j
    x_h^j <= d R_0, gives |f_0| <= 1.001 (4.001 + 3.004 d) u R_0 < 78 u R_0
    for d <= 24. The bound Horner R' computes R_0 from nonnegative terms,
    within a factor 1.001 of it, so B = fl(2^-45 R' + 2^-1060) >=
    2^-46 R' >= 78 u R_0 bounds |f_0|, and P(x) = hi + lo + f_0 with
    hi + lo = s_0 + r_0 by a last TwoSum.

    The 2^-1060 covers underflow: a sum that rounds into the subnormal range
    is exact, and each of the at most 3d = 72 products that round there
    adds at most 2^-1075, within 2^-1068 after the factors x^i <= 1. The
    error-free transforms are exact with no underflow or overflow:
    |s_i| < 2^58 keeps the splitter's product below 2^86; and every nonzero
    s_i has |s_i| >= 2^-492, since s_d = c_d lies in 2^-48 Z and a step
    either keeps a value >= 2^-101 (a sum of c_i != 0 with p_i >= 2^-49,
    both in 2^-101 Z, or with a smaller p_i, over 2^-49) or multiplies by
    x_h >= 2^-16 (c_i = 0), so a nonzero product s x_h has exponent at
    least -509, above Dekker's limit of -970 (x_h = 0 at t = 0 makes every
    product 0).

    hi is certified when [hi + lo - B, hi + lo + B] lies strictly inside
    hi's rounding cell, whose ends are the midpoints to its neighbours:
    fl(lo + B) < (succ(hi) - hi)/2 and fl(lo - B) > -(hi - pred(hi))/2,
    rigorous as rounding is monotone and each half gap is a double. The two
    gaps differ at a power of two, and a midpoint never certifies. A zero
    hi never does either, its half gaps rounding to 0. Every nonzero value
    is at least 1/(L G^d) >= 2^-432, far from underflow, so its nearest
    double is nonzero with its sign.
    """
    points = checked_int(points, "grid intervals", 1, MAX_GRID)
    den = polys[0].denominator
    degree = max(len(p.numerators) for p in polys) - 1
    if (
        den & (den - 1)
        or den > 4**MAX_ARITY
        or degree > MAX_ARITY
        or any(p.denominator != den or max(map(abs, p.numerators)) > 2**53 for p in polys)
    ):
        raise ValueError("grid doubles need numerators within 2^53 over one power of two <= 4^24")
    coeffs = np.zeros((degree + 1, len(polys), 1))
    for row, p in enumerate(polys):
        coeffs[: len(p.numerators), row, 0] = p.numerators
    coeffs /= den  # exact: a power of two
    t = np.arange(points + 1, dtype=np.float64)
    xh = t / points
    xh_hi, xh_lo = _split(xh)
    # TwoProd of x_h G: G has at most 17 bits, so it is its own high half.
    # t - p is exact (Sterbenz), and so is its difference with the error.
    p = xh * points
    xl = ((t - p) - ((xh_hi * points - p) + xh_lo * points)) / points
    # Column blocks keep the loop's work arrays in cache: see _GRID_BLOCK.
    hi = np.empty((len(polys), points + 1))
    ok = np.empty(hi.shape, dtype=bool)
    for start in range(0, points + 1, _GRID_BLOCK):
        cols = slice(start, start + _GRID_BLOCK)
        points_in = xh[cols], xh_hi[cols], xh_lo[cols], xl[cols]
        hi[:, cols], ok[:, cols] = _certified_horner(coeffs, *points_in)
    for k, poly in enumerate(polys):
        missed = np.flatnonzero(~ok[k]).tolist()
        if missed:
            values, denom = poly._horner(points, missed)
            hi[k, missed] = [value / denom for value in values]
    hi.setflags(write=False)
    return hi


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


def _blocked_transform(f: BooleanFunction, n: int, out: np.ndarray) -> None:
    """The scaled spectrum of f's first 2^n table entries, as an n-ary function, into ``out``.

    ``out`` is an int32 vector of 2^n entries. The stages for the low
    _BLOCK_BITS index bits (all n of them below n = _BLOCK_BITS) run one
    block of 2^_BLOCK_BITS entries at a time. The block's bits are digits a
    (bits 0-5), b (6-11) and c (12-17), c and then b shorter or empty below
    n = 18, so in natural order it has shape (c, b, a). A stage on a low bit
    loops over short rows, so each rotation transpose(2, 0, 1) moves the
    inner digit outside, and its copy also widens: the table bytes unpack to
    int8 +-1 and rotate to (a, c, b) for stages 1-6; a cast to int16,
    written into the first half of the block's slab of ``out``, rotates to
    (b, a, c) for stages 7-12; a fresh copy back to natural (c, b, a) runs
    stages 13-14; and a cast from it into the slab runs the block's stages
    from 15 on. That copy must not be a view: numpy does not buffer a cast
    from an int16 view of the slab into the slab, so it would overwrite
    entries before reading them. The stages above the block then run once
    over the whole of ``out``. Each block array is dropped once the next
    exists, so the peak is ``out`` plus 512 KiB.
    """
    bits = min(n, _BLOCK_BITS)
    a = min(bits, 6)
    b = min(bits - a, 6)
    c = bits - a - b
    mid, block = min(bits, 14), 1 << bits
    for start in range(0, 1 << n, block):
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


def wht(f: BooleanFunction) -> FourierExpansion:
    """Full spectrum by the fast transform, n * 2^n integer operations.

    Each array is as narrow as a bound proven in advance allows. Stage k
    maps two values within 2^(k-1) to values within 2^k and forms 2y, within
    2^k, on the way; so stages 1-6 fit int8 (2^6 <= 127), stages 7-14 int16
    (2^14 <= 32767) and the rest int32 (2^24 < 2^31). The stages run block
    by block in ``_blocked_transform``.

    An odd table, f(-x) = -f(x) (``core._odd``), transforms only its lower
    half, g(x') = f(x', -1), as an (n-1)-ary function, and the expansion
    keeps that half's int32 spectrum G. The upper half is u(x') = f(x', +1)
    = -g(-x'), whose spectrum is U(T) = -(-1)^|T| G(T), so the top stage's
    pairs (G + U, U - G) are (2G, 0) where |T| is odd and (0, -2G) where it
    is even. Every even level of f is then 0 and each odd level k sums
    4 G(T)^2 over |T| = k and |T| = k - 1: 4^n W_k = 4 (L_k[G] + L_{k-1}[G]),
    L the level sums of G. The full vector is written only when
    ``FourierExpansion.scaled`` is read, so the peak is G plus 512 KiB:
    32.5 MiB at n = 24. Every other table runs all n stages into the int32
    spectrum, and its peak is that plus 512 KiB: 64.5 MiB at n = 24.
    """
    if _odd(f):
        g = np.empty(f.size // 2, dtype=np.int32)
        _blocked_transform(f, f.n - 1, g)
        return FourierExpansion._of_odd_half(f.n, g)
    out = np.empty(f.size, dtype=np.int32)
    _blocked_transform(f, f.n, out)
    return FourierExpansion(f.n, out)


def inverse_wht(e: FourierExpansion) -> BooleanFunction:
    """Recover the +-1 table from scaled coefficients, exactly.

    A stage's inverse (x, y) -> (x - y, x + y), up to the factor 2, is the
    forward stage with the pair swapped on both sides; reversing the index
    swaps every stage's pairs at once. So reverse, run the forward stages in
    int64 and read the result reversed back: each stage at most doubles the
    largest value, so from entries within 2^n the partial sums stay within
    4^n <= 2^48. A spectrum's entries come out +-2^n exactly, and the +2^n
    ones are the table's set bits. The peak is the int64 vector, whose
    absolute values are taken in place, and one boolean mask: 9 bytes an
    entry, beside the int32 ``scaled`` that an odd table's expansion builds
    and keeps on this first read.
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
        squares[:] = chunk
        squares *= squares
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
