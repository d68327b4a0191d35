"""Output checks for every benchmarked command.

Each checker returns a list of problems; an empty list means the output
passed. The identities cross independent code paths of the program, so a
wrong fast path shows up as a broken identity rather than as a changed
number nobody compares against.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction

BRACKET_WIDTH = Fraction(1, 2**40)
CSV_HEADER = "rho,stab_f,stab_g,diff"
# The CSV holds each value as the nearest double, written with 17 significant
# digits, so it reads back as exactly that double. Values lie in [-1, 1], so
# stab_g - stab_f, from two rounded values, is within a few 2^-53 of diff.
CSV_TOLERANCE = 2.0**-50

# sha256 of the `search 9 8` results file, recorded at the commit that
# introduced this benchmark. The search inputs do not depend on the seed, and
# the results file is contractually byte-identical across --parallel, so any
# change to these bytes is a behaviour change.
SEARCH_9_8_DIGEST = "4280e09793f3f4464bbabf6b7141feeaca9bf094b6ac421a0b9873fd4531d2bc"


def exact(field) -> Fraction:
    """The exact value of a report's {"exact": "num/den", ...} field."""
    return Fraction(field["exact"])


def horner(coeffs, rho: Fraction) -> Fraction:
    """sum_k coeffs[k] rho^k, evaluated here rather than by the program."""
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * rho + c
    return acc


def grid_values(coeffs, grid: int) -> list[float]:
    """The nearest double to sum_k coeffs[k] (t/grid)^k, for t = 0..grid.

    Integer Horner over one common denominator, so it shares no code with the
    program's Fraction evaluation and costs little enough for every row.
    """
    den = math.lcm(*(c.denominator for c in coeffs))
    d = len(coeffs) - 1
    # sum_k c_k (t/grid)^k = sum_k b_k t^k / (den grid^d), b_k = c_k den grid^(d-k).
    b = [c.numerator * (den // c.denominator) * grid ** (d - k) for k, c in enumerate(coeffs)]
    scale = den * grid**d
    out = []
    for t in range(grid + 1):
        acc = 0
        for c in reversed(b):
            acc = acc * t + c
        out.append(acc / scale)  # int / int is correctly rounded
    return out


def majority_weights(n: int) -> list[Fraction]:
    """Degree weights W_0..W_n of Maj_n, n odd, from the closed form of its
    Fourier coefficients: for |S| = k odd,
    |Maj_n^(S)| = C(m, (k-1)/2) C(n-1, m) / (C(n-1, k-1) 2^(n-1)), m = (n-1)/2.
    """
    m = (n - 1) // 2
    weights = [Fraction(0)] * (n + 1)
    for k in range(1, n + 1, 2):
        coeff = Fraction(math.comb(m, (k - 1) // 2) * math.comb(n - 1, m),
                         math.comb(n - 1, k - 1) * 2 ** (n - 1))
        weights[k] = math.comb(n, k) * coeff * coeff
    return weights


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def check_analyze(doc: dict) -> list[str]:
    r = doc["results"]
    weights = [exact(w) for w in r["degree_weights"]]
    infs = [exact(x) for x in r["influences"]]
    problems = []
    if len(weights) != r["arity"] + 1 or len(infs) != r["arity"]:
        problems.append("analyze: influence or degree-weight count does not match arity")
    if sum(weights) != 1:
        problems.append("analyze: sum_k W_k != 1")
    # Packed-table influences against the WHT route: total influence is sum_k k W_k.
    if sum(infs) != sum(k * w for k, w in enumerate(weights)):
        problems.append("analyze: sum_i Inf_i != sum_k k W_k")
    # For monotone f, fhat({i}) = Inf_i, so W_1 = sum_i Inf_i^2.
    if sum(x * x for x in infs) != weights[1]:
        problems.append("analyze: sum_i Inf_i^2 != W_1")
    for flag in ("unbiased", "odd", "monotone"):
        if r[flag] is not True:
            problems.append(f"analyze: {flag} is not true for a tie-free positive-weight spec")
    return problems


def check_compare(doc: dict, csv_text: str, grid: int, reference=None) -> list[str]:
    """``reference``, when given, is the exact stability polynomial of spec_g."""
    r = doc["results"]
    diff = [exact(c) for c in r["diff_poly"]]
    margin = exact(r["margin"])
    problems = []
    if margin != diff[1]:
        problems.append("compare: margin != diff_poly[1]")
    # Both curves equal 1 at rho = 1 (Parseval), so D(1) = sum diff_poly = 0.
    if sum(diff) != 0:
        problems.append("compare: sum of diff_poly != 0")
    if (r["verdict"] == "refutes_at_small_rho") != (margin > 0):
        problems.append("compare: verdict disagrees with the sign of the margin")
    problems += check_csv(csv_text, grid, diff, reference)
    if r["csv"]["rows"] != grid + 1:
        problems.append("compare: reported CSV row count != grid + 1")
    bracket = r["crossover_bracket"]
    if bracket is not None:
        lo, hi = exact(bracket["lo"]), exact(bracket["hi"])
        if not 0 <= hi - lo <= BRACKET_WIDTH:
            problems.append("compare: bracket wider than 2^-40 or inverted")
        s_lo, s_hi = _sign(horner(diff, lo)), _sign(horner(diff, hi))
        # A zero-width bracket marks an exact rational root.
        if (s_lo != 0) if lo == hi else (s_lo * s_hi != -1):
            problems.append("compare: diff_poly has no sign change across the bracket")
    return problems


def check_csv(csv_text: str, grid: int, diff, reference=None) -> list[str]:
    """Every CSV row against values computed here, not by the program."""
    rows = csv_text.splitlines()
    if not rows or rows[0] != CSV_HEADER or len(rows) - 1 != grid + 1:
        return [f"compare: CSV does not hold a header and {grid + 1} rows"]
    table = [[float(x) for x in row.split(",")] for row in rows[1:]]
    if any(len(row) != 4 for row in table):
        return ["compare: a CSV row does not hold 4 values"]
    rho, stab_f, stab_g, d = zip(*table)
    problems = []
    if list(rho) != [t / grid for t in range(grid + 1)]:
        problems.append("compare: CSV rho column is not t/grid")
    if list(d) != grid_values(diff, grid):
        problems.append("compare: CSV diff column is not diff_poly at rho")
    if any(abs((g - f) - x) > CSV_TOLERANCE for f, g, x in zip(stab_f, stab_g, d)):
        problems.append("compare: CSV stab_g - stab_f != diff")
    # f is odd, so W_0 = 0, and Parseval gives sum_k W_k = 1.
    if stab_f[0] != 0 or stab_f[-1] != 1:
        problems.append("compare: CSV stab_f(0) != 0 or stab_f(1) != 1")
    if reference is not None:
        if list(stab_g) != grid_values(reference, grid):
            problems.append("compare: CSV stab_g column is not the reference's curve")
        if list(stab_f) != grid_values([g - x for g, x in zip(reference, diff)], grid):
            problems.append("compare: CSV stab_f column is not reference - diff_poly")
    return problems


def check_search(doc: dict, file_bytes: bytes, digest: str) -> list[str]:
    problems = []
    if hashlib.sha256(file_bytes).hexdigest() != digest:
        problems.append("search: results file differs from the recorded digest")
    entries = json.loads(file_bytes)["results"]["counterexamples"]
    if doc["results"]["count"] != len(entries):
        problems.append("search: stdout count != results file entries")
    if not all(exact(e["w1"]) < exact(e["w1_majority"]) for e in entries):
        problems.append("search: an entry has w1 >= w1_majority")
    return problems


def check_verify(rc: int, doc: dict, corrupt: bool) -> list[str]:
    """verify-paper passes with exit 0; with a corrupted table it must fail with exit 1."""
    want_rc, want_pass = (1, False) if corrupt else (0, True)
    if rc != want_rc or doc["results"]["pass"] is not want_pass:
        label = "verify-paper --corrupt-table" if corrupt else "verify-paper"
        return [f"{label}: exit {rc}, pass {doc['results']['pass']!r}; "
                f"expected exit {want_rc}, pass {want_pass}"]
    return []
