"""Linear threshold functions: integer-weight specs, majority, structural predicates.

An LTF spec is a weight vector (w_1, ..., w_n), an integer threshold theta
(default 0), and a tie policy. Materializing evaluates sign(w . x - theta)
over the whole cube. sign(0) is undefined, so the default policy rejects any
spec whose weighted sum ever hits theta; ``map_to_minus_one`` exists for
exploratory work and sends ties to -1, which is the strict rule f = +1 iff
w . x > theta.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .core import (
    MAX_ARITY,
    BooleanFunction,
    _from_packed,
    checked_int,
    checked_ints,
    edge_ends,
    index_to_signs,
)

TIE_REJECT = "reject"
TIE_TO_MINUS_ONE = "map_to_minus_one"

__all__ = [
    "TIE_REJECT",
    "TIE_TO_MINUS_ONE",
    "COUNTEREXAMPLE_WEIGHTS",
    "LtfSpec",
    "TieEncountered",
    "counterexample",
    "counterexample_spec",
    "is_monotone",
    "is_odd",
    "is_unbiased",
    "majority",
    "materialize",
    "parse_spec",
    "render_spec",
    "tie_witness",
]


class TieEncountered(ValueError):
    """Raised when a reject-policy spec has an input with w . x = theta."""

    def __init__(self, spec: "LtfSpec", index: int):
        self.spec = spec
        self.index = index
        self.signs = index_to_signs(index, len(spec.weights))
        rendered = "(" + ", ".join(f"{x:+d}" for x in self.signs) + ")"
        super().__init__(
            f"weighted sum equals threshold {spec.threshold} at x = {rendered} (index {index})"
        )


@dataclass(frozen=True)
class LtfSpec:
    """Integer weights plus threshold and tie policy."""

    weights: tuple[int, ...]
    threshold: int = 0
    tie_policy: str = TIE_REJECT

    def __post_init__(self):
        object.__setattr__(self, "weights", checked_ints(self.weights, "weights"))
        object.__setattr__(self, "threshold", checked_int(self.threshold, "threshold"))
        checked_int(len(self.weights), "arity", 1, MAX_ARITY)
        if self.tie_policy not in (TIE_REJECT, TIE_TO_MINUS_ONE):
            raise ValueError(f"unknown tie policy {self.tie_policy!r}")

    @property
    def n(self) -> int:
        return len(self.weights)


_SPEC_RE = re.compile(r"^(?P<weights>[^@]+)(?:@(?P<theta>[+-]?\d+))?$")


def parse_spec(text: str, tie_policy: str = TIE_REJECT) -> LtfSpec:
    """Parse the text form: comma-separated weights, optional "@theta" suffix.

    Examples: "2,2,1,1,1" or "2,2,1,1,1@0" or "3,-1@-2".
    """
    m = _SPEC_RE.match(text.strip())
    if m is None:
        raise ValueError(f"cannot parse LTF spec {text!r}")
    try:
        weights = tuple(int(part.strip()) for part in m.group("weights").split(","))
    except ValueError:
        raise ValueError(f"cannot parse LTF spec {text!r}: weights must be integers") from None
    theta = int(m.group("theta")) if m.group("theta") is not None else 0
    return LtfSpec(weights, theta, tie_policy)


def render_spec(spec: LtfSpec) -> str:
    return ",".join(map(str, spec.weights)) + f"@{spec.threshold}"


def _sums_by_doubling(weights: np.ndarray) -> np.ndarray:
    """w . x for every input index, along the first axis of ``weights``.

    The one place that fixes the index order: coordinate i occupies bit
    (i-1), so for h = 2^(i-1) the bit-set half [h, 2h) is the first h sums
    plus w_i, and then those sums take away w_i. ``weights`` has shape
    (n, *batch), trailing axes holding stacked weight vectors as columns;
    the sums have shape (2^n, *batch) and keep the dtype of ``weights``.
    """
    sums = np.zeros((1 << len(weights),) + weights.shape[1:], dtype=weights.dtype)
    for i, w in enumerate(weights):
        h = 1 << i
        np.add(sums[:h], w, out=sums[h : 2 * h])
        sums[:h] -= w
    return sums


# Cap on 2^n * bits(|w|_1 + |theta|), checked before any sum exists. It bounds the work
# of a spec's 2^n comparisons, and at n <= 16, where the low half holds every sum, their
# payload (128 MiB). Fixed-width sums (< 2^62) always pass: 62 * 2^24 < 2^30. Past that
# the sums are Python ints: 2^62+1,1,...,1 at n = 24 passes, the most comparisons (a
# 0.5-0.7 s, 40 MiB `table` command); n - 1 weights of 4,000 nines, which double their
# peak with each arity (143 MiB at n = 16), are refused from n = 17 on.
MAX_SUM_BITS = 2**30

# Sum dtypes by the bound B = |w|_1 + |theta|: the first whose limit exceeds B.
_SUM_WIDTHS = ((2**14, np.int16), (2**30, np.int32), (2**62, np.int64))

# The low half of the sums spans the first 2^_LOW_BITS indices, one row of the scan.
# At n = 24 materialize took 30, 14, 10 and 9 ms with rows of 2^12, 2^14, 2^16 and
# 2^18: short rows pay their numpy calls many times. At n = 20 its tracemalloc peak
# is 0.38 bytes a table entry up to 2^16 and 0.91 at 2^18, where a row outweighs the table.
_LOW_BITS = 16


def _weighted_sums(spec: LtfSpec) -> tuple[np.ndarray, np.ndarray]:
    """(low, high): w . x at index h * 2^b + l is high[h] + low[l], b = min(n, 16).

    ``low`` holds the 2^b sums of the first b weights and ``high`` the
    2^(n-b) sums of the rest (one zero when n <= 16), both by
    ``_sums_by_doubling``, so neither is a 2^n array. Every partial sum of
    the doubling, theta itself and theta - high[h] lie within +-B,
    B = |w|_1 + |theta|. So the halves run in int16 if B < 2^14, int32 if
    B < 2^30, int64 if B < 2^62, each limit half its dtype's maximum, and in
    Python integers past that.
    """
    bound = sum(abs(w) for w in spec.weights) + abs(spec.threshold)
    checked_int((1 << spec.n) * bound.bit_length(), "2^n * bits(|w|_1 + |theta|)", hi=MAX_SUM_BITS)
    dtype = next((dtype for limit, dtype in _SUM_WIDTHS if bound < limit), object)
    weights = np.array(spec.weights, dtype=dtype)
    b = min(spec.n, _LOW_BITS)
    return _sums_by_doubling(weights[:b]), _sums_by_doubling(weights[b:])


def _scan(spec: LtfSpec, *, table: bool, ties: bool) -> tuple[np.ndarray | None, int | None]:
    """(packed table bytes or None, first tie index or None), row by row.

    Row h compares ``low`` with theta - high[h]: ``==`` finds a tie, and the
    first one found is the smallest index because rows run in index order;
    ``>`` gives the row's table bits, packed into one preallocated buffer.
    With ``ties`` the scan stops at the first tie, with no table.
    """
    low, high = _weighted_sums(spec)
    packed = np.empty(max(1, (1 << spec.n) // 8), dtype=np.uint8) if table else None
    step = max(1, low.size // 8)
    for h, s in enumerate(high):
        cut = spec.threshold - s
        if ties and (hits := np.flatnonzero(low == cut)).size:
            return None, h * low.size + int(hits[0])
        if table:
            packed[h * step : (h + 1) * step] = np.packbits(low > cut, bitorder="little")
    return packed, None


def tie_witness(spec: LtfSpec) -> int | None:
    """Smallest input index with w . x = theta, or None if tie-free."""
    return _scan(spec, table=False, ties=True)[1]


def materialize(spec: LtfSpec) -> BooleanFunction:
    """Truth table of sign(w . x - theta) under the spec's tie policy.

    One row scan over the split sums of ``_weighted_sums`` writes the table
    bytes, 2^(b-3) a row in index order, with no 2^n sums or mask. Only
    ``reject`` scans for a tie, to refuse it; ``tie_witness`` finds one.
    """
    packed, tie = _scan(spec, table=True, ties=spec.tie_policy == TIE_REJECT)
    if tie is not None:
        raise TieEncountered(spec, tie)
    packed = packed.tobytes()  # drops the array before the int is built
    return _from_packed(spec.n, packed)


def majority(n: int) -> BooleanFunction:
    """Maj_n: all-ones weights, threshold 0. Requires odd n (no ties then)."""
    n = checked_int(n, "arity", 1, MAX_ARITY)
    if n % 2 == 0:
        raise ValueError(f"majority needs an odd arity, got {n}")
    return materialize(LtfSpec((1,) * n))


# The bundled 5-variable function sign(2x1 + 2x2 + x3 + x4 + x5): an unbiased,
# monotone, odd LTF whose level-1 Fourier weight is 44/64, strictly below the
# 45/64 of Maj_5, so it is strictly less noise-stable than Maj_5 for small rho.
COUNTEREXAMPLE_WEIGHTS: tuple[int, ...] = (2, 2, 1, 1, 1)


def counterexample_spec() -> LtfSpec:
    return LtfSpec(COUNTEREXAMPLE_WEIGHTS)


def counterexample() -> BooleanFunction:
    """Materialize the bundled less-stable-than-majority function."""
    return materialize(counterexample_spec())


def is_unbiased(f: BooleanFunction) -> bool:
    """True iff exactly half the inputs map to +1 (E[f] = 0)."""
    return f.ones() * 2 == f.size


def is_odd(f: BooleanFunction) -> bool:
    """True iff f(-x) = -f(x) for every x."""
    mask = (1 << f.size) - 1
    return f.negate_inputs().table ^ f.table == mask


def is_monotone(f: BooleanFunction) -> bool:
    """True iff raising any coordinate from -1 to +1 never lowers f.

    Scans each coordinate's hypercube edges over the packed words: a
    violation is an edge valued +1 at its bit-clear end and -1 at its bit-set
    end, a set bit of lo & ~hi (``core.edge_ends``).
    """
    for i in range(1, f.n + 1):
        lo, hi = edge_ends(f, i)
        if (lo & ~hi).any():
            return False
    return True
