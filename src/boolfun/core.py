"""Bit-packed truth tables and index conventions for functions on {-1,+1}^n.

Input encoding: index j in [0, 2^n) decodes to the point with x_i = +1
exactly when bit (i-1) of j is set, a bijection between indices and the
hypercube. Truth tables pack one bit per input: bit j of ``table`` is set
exactly when f(j) = +1, so a popcount of the table counts the +1 outputs.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

# Full-table work is capped so a table is at most 2^24 bits (2 MiB) and
# every Walsh-Hadamard partial sum, |.| <= 2^24, fits int32.
MAX_ARITY = 24
# Quadratic-cost (4^n) reference oracles get a tighter cap.
ORACLE_MAX_ARITY = 10

__all__ = [
    "MAX_ARITY",
    "ORACLE_MAX_ARITY",
    "BooleanFunction",
    "checked_int",
    "complement_index",
    "flip_coordinate",
    "index_to_signs",
    "signs_to_index",
]


# Byte b with its 8 bits in reverse order, as a bytes.translate table.
_BIT_REVERSED = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))

# Entry i - 1 keeps, in one 64-bit word, the bits whose 2^(i-1) bit is clear:
# the bit-clear ends of the coordinate-i edges that stay inside a word (i <= 6).
_CLEAR_END_MASKS = np.array(
    [0x5555555555555555, 0x3333333333333333, 0x0F0F0F0F0F0F0F0F,
     0x00FF00FF00FF00FF, 0x0000FFFF0000FFFF, 0x00000000FFFFFFFF],
    dtype=np.uint64,
)


def checked_int(value, what: str, lo: int | None = None, hi: int | None = None) -> int:
    """``value`` as a Python int in [lo, hi]; else ValueError, which the CLI exits 2 on.

    The one test of what counts as an integer input: anything with
    ``__index__`` (int, numpy integers, bool), never a float, Fraction or
    string, even one with an integral value.
    """
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None
    if lo is not None and value < lo:
        raise ValueError(f"{what} must be at least {lo}, got {value}")
    if hi is not None and value > hi:
        raise ValueError(f"{what} is capped at {hi}: {value} is over the limit")
    return value


def checked_ints(values, what: str) -> tuple[int, ...]:
    """``checked_int`` over a sequence, unbounded, as one C-level map."""
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        raise ValueError(f"{what} must be integers, got {values!r}") from None


def _checked_index(j: int, n: int) -> int:
    """``j`` as a Python int; IndexError, not ValueError, outside [0, 2^n)."""
    j = checked_int(j, "input index")
    if not 0 <= j < (1 << n):
        raise IndexError(f"input index {j} out of range for arity {n}")
    return j


def index_to_signs(j: int, n: int) -> tuple[int, ...]:
    """Decode index j to its point (x_1, ..., x_n) with entries +-1."""
    n = checked_int(n, "arity", 1, MAX_ARITY)
    j = _checked_index(j, n)
    return tuple(1 if (j >> i) & 1 else -1 for i in range(n))


def signs_to_index(signs) -> int:
    """Encode a +-1 point back to its input index."""
    j = 0
    for i, x in enumerate(signs):
        if x == 1:
            j |= 1 << i
        elif x != -1:
            raise ValueError(f"coordinate values must be +-1, got {x!r}")
    return j


def flip_coordinate(j: int, i: int, n: int) -> int:
    """Toggle coordinate i (1-based) of input index j. Involutive."""
    n = checked_int(n, "arity", 1, MAX_ARITY)
    j = _checked_index(j, n)
    return j ^ (1 << (checked_int(i, "coordinate", 1, n) - 1))


def complement_index(j: int, n: int) -> int:
    """Index of -x, the point with every coordinate of j negated."""
    n = checked_int(n, "arity", 1, MAX_ARITY)
    j = _checked_index(j, n)
    return j ^ ((1 << n) - 1)


@dataclass(frozen=True)
class BooleanFunction:
    """A +-1 valued function on {-1,+1}^n held as a packed 2^n-bit table.

    ``table`` is a nonnegative int whose bit j is set iff f(j) = +1; bits at
    or above 2^n must be zero. Instances are immutable and hashable, and all
    operations below are pure, so unrestricted concurrent reads are safe.
    The one cached value, the read-only word view ``_words``, is built on
    first use; two concurrent first reads may both build it, and both build
    the same bytes. Equality, hashing and pickles see only the fields.
    """

    n: int
    table: int

    def __post_init__(self):
        object.__setattr__(self, "n", checked_int(self.n, "arity", 1, MAX_ARITY))
        object.__setattr__(self, "table", checked_int(self.table, "table", 0))
        if self.table >> self.size:
            raise ValueError(f"table has bits beyond the {self.size} valid positions")

    def __getstate__(self):
        return {"n": self.n, "table": self.table}

    @property
    def size(self) -> int:
        return 1 << self.n

    @cached_property
    def _words(self) -> np.ndarray:
        """The table as read-only little-endian uint64 words, zero-padded below n = 6."""
        return np.frombuffer(self.table.to_bytes(max(8, self.size // 8), "little"), dtype="<u8")

    @classmethod
    def from_signs(cls, signs) -> "BooleanFunction":
        """Build from a length-2^n sequence of +-1 values indexed by j."""
        vec = np.asarray(signs)
        if vec.ndim != 1 or not np.issubdtype(vec.dtype, np.integer):
            raise ValueError(f"sign vector must be 1-D and integer, not {vec.ndim}-D {vec.dtype}")
        size = vec.size
        if size < 2 or size & (size - 1):
            raise ValueError(f"sign vector length {size} is not a power of two >= 2")
        if not np.all(np.abs(vec) == 1):
            raise ValueError("sign vector entries must be +-1")
        checked_int(size.bit_length() - 1, "arity", 1, MAX_ARITY)
        return _from_mask(vec == 1)

    @classmethod
    def from_hex(cls, n: int, text: str) -> "BooleanFunction":
        """Parse the hex text form (little-endian bytes, bit 0 = input 0)."""
        n = checked_int(n, "arity", 1, MAX_ARITY)
        nbytes = ((1 << n) + 7) // 8
        raw = bytes.fromhex(text)
        if len(raw) != nbytes:
            raise ValueError(f"expected {nbytes} table bytes for arity {n}, got {len(raw)}")
        return cls(n, int.from_bytes(raw, "little"))

    def to_hex(self) -> str:
        """Lowercase hex of the packed table, bytes in increasing-j order."""
        nbytes = (self.size + 7) // 8
        return self.table.to_bytes(nbytes, "little").hex()

    def evaluate(self, j: int) -> int:
        """The stored sign (+1 or -1) at input index j."""
        j = _checked_index(j, self.n)
        return 1 if (self.table >> j) & 1 else -1

    def signs(self) -> np.ndarray:
        """The full table as an int8 array of +-1, indexed by j."""
        return _sign_block(self, 0, self.size)

    def ones(self) -> int:
        """Number of inputs mapped to +1."""
        return self.table.bit_count()

    def bias(self) -> Fraction:
        """E[f] over uniform inputs, exact."""
        return Fraction(2 * self.ones() - self.size, self.size)

    def negate_inputs(self) -> "BooleanFunction":
        """The function g(x) = f(-x). Involutive."""
        # -x is the complement index, so the table's bits reverse: the packed
        # bytes in reverse order, each byte bit-reversed. Below n = 3 the one
        # byte's valid bits land at its top and shift back down.
        nbytes = (self.size + 7) // 8
        raw = self.table.to_bytes(nbytes, "little")[::-1].translate(_BIT_REVERSED)
        return BooleanFunction(self.n, int.from_bytes(raw, "little") >> (8 * nbytes - self.size))

    def permute_coordinates(self, perm) -> "BooleanFunction":
        """The function g(x) = f(x_perm(1), ..., x_perm(n)).

        ``perm`` is a 1-based permutation of 1..n. Applying sigma then pi
        equals applying the single composite i -> pi(sigma(i)).
        """
        p = checked_ints(perm, "permutation entries")
        if sorted(p) != list(range(1, self.n + 1)):
            raise ValueError(f"malformed permutation {perm!r} for arity {self.n}")
        idx = np.arange(self.size, dtype=np.int64)
        src = np.zeros_like(idx)
        for i, target in enumerate(p):
            src |= ((idx >> (target - 1)) & 1) << i
        return BooleanFunction.from_signs(self.signs()[src])


def _sign_block(f: BooleanFunction, start: int, count: int) -> np.ndarray:
    """f(start), ..., f(start + count - 1) as a fresh int8 array of +-1; 8 divides start."""
    raw = f._words.view(np.uint8)[start // 8 :]
    signs = np.unpackbits(raw, bitorder="little", count=count).view(np.int8)
    signs *= 2  # in place: bits 0/1 become -1/+1 with no temporary
    signs -= 1
    return signs


def _from_packed(n: int, packed: bytes) -> BooleanFunction:
    """The arity-n function whose table is the little-endian bytes ``packed``.

    ``packed`` must be ``bytes``: ``int.from_bytes`` copies any other buffer
    into a new bytes object first, so a caller converts its array with
    ``tobytes`` and drops it, and the int is built beside one copy, not two.
    """
    return BooleanFunction(n, int.from_bytes(packed, "little"))


def _from_mask(mask: np.ndarray) -> BooleanFunction:
    """The function that is +1 exactly where a boolean vector of length 2^n is True."""
    packed = np.packbits(mask, bitorder="little").tobytes()  # the array is dropped here
    return _from_packed(mask.size.bit_length() - 1, packed)


def edge_ends(f: BooleanFunction, i: int) -> tuple[np.ndarray, np.ndarray]:
    """Words holding the bit-clear and bit-set ends of every coordinate-i edge.

    Bit b of ``lo[k]`` and bit b of ``hi[k]`` are f's two bits on one edge
    (j, j + 2^(i-1)), 1 <= i <= n; every other bit is zero in both. For
    i <= 6 an edge lies inside one word: ``lo`` masks the words and ``hi``
    masks them shifted down by 2^(i-1). For i >= 7 the stride is 2^(i-7)
    whole words, so the halves of a reshape pair them. Below n = 6 the
    padding bits of the one word are zero, so neither end holds a set bit
    outside the table.
    """
    words = f._words
    if i <= 6:
        mask = _CLEAR_END_MASKS[i - 1]
        return words & mask, (words >> (1 << (i - 1))) & mask
    halves = words.reshape(-1, 2, 1 << (i - 7))
    return halves[:, 0], halves[:, 1]
