"""Shared randomized generators and slow reference paths for the test suite."""

import math
from fractions import Fraction

import numpy as np

from boolfun import (
    TIE_REJECT,
    TIE_TO_MINUS_ONE,
    BooleanFunction,
    FourierExpansion,
    LtfSpec,
    SearchResult,
    StabilityPolynomial,
    TieEncountered,
    canonical_weight_vectors,
    degree_weight,
    is_monotone,
    is_odd,
    is_unbiased,
    majority,
    materialize,
    wht,
)
from boolfun import conjecture
from boolfun.cli import _document, fraction_fields, render_document
from boolfun.conjecture import VERDICT_CONSISTENT, VERDICT_INDETERMINATE, VERDICT_REFUTES
from boolfun.ltf import render_spec


def random_function(n: int, rng) -> BooleanFunction:
    nbytes = ((1 << n) + 7) // 8
    raw = rng.integers(0, 256, size=nbytes, dtype=np.uint8).tobytes()
    return BooleanFunction(n, int.from_bytes(raw, "little") & ((1 << (1 << n)) - 1))


def random_odd_function(n: int, rng) -> BooleanFunction:
    """Uniform over functions with f(-x) = -f(x).

    The complement pairing (j, 2^n - 1 - j) splits the cube into pairs whose
    first element has the top bit clear, so the free half determines the rest.
    """
    half = 1 << (n - 1)
    top = rng.choice(np.array([-1, 1], dtype=np.int8), size=half)
    signs = np.concatenate([top, -top[::-1]])
    return BooleanFunction.from_signs(signs)


def random_monotone_spec(n: int, rng, max_weight: int = 7) -> LtfSpec:
    """Positive weights with odd total: tie-free at threshold 0, monotone."""
    w = [int(x) for x in rng.integers(1, max_weight + 1, size=n)]
    if sum(w) % 2 == 0:
        w[0] += 1
    return LtfSpec(tuple(w))


def weighted_sums_oracle(spec: LtfSpec) -> np.ndarray:
    """w . x for every input index by concatenation, one new array per weight.

    Appending a coordinate extends the array with the -w half (bit clear)
    followed by the +w half (bit set). It keeps its own dtype rule, int64
    or Python integers once |w|_1 + |theta| reaches 2^62, apart from the
    library's int16/int32/int64 choice: the reference whose values the
    two halves of ``ltf._weighted_sums``, composed, must equal exactly, at
    any width.
    """
    bound = sum(abs(w) for w in spec.weights) + abs(spec.threshold)
    sums = np.zeros(1, dtype=np.int64 if bound < 2**62 else object)
    for w in spec.weights:
        sums = np.concatenate([sums - w, sums + w])
    return sums


def table_oracle(sums: np.ndarray, theta: int) -> tuple[BooleanFunction, int | None]:
    """(table with ties sent to -1, first tie index or None) from weighted sums.

    The table goes through an int8 +-1 vector and ``from_signs``; the
    reference for ``ltf.materialize``, which packs each row's comparison
    straight to bits, and for ``tie_witness``.
    """
    hits = np.flatnonzero(sums == theta)
    signs = np.where(sums > theta, 1, -1).astype(np.int8)
    return BooleanFunction.from_signs(signs), int(hits[0]) if hits.size else None


def negate_subset(f: BooleanFunction, mask: int) -> BooleanFunction:
    """g(x) = f(x with the coordinates in ``mask`` negated)."""
    idx = np.arange(f.size)
    return BooleanFunction.from_signs(f.signs()[idx ^ mask])


def mask_image(mask: int, perm) -> int:
    """Image of a subset mask under the coordinate relabeling i -> perm[i-1]."""
    out = 0
    for i, target in enumerate(perm, start=1):
        if (mask >> (i - 1)) & 1:
            out |= 1 << (target - 1)
    return out


def polynomial(weights) -> StabilityPolynomial:
    """The polynomial with the given Fraction coefficients, over their lcm.

    No coefficients give the zero polynomial, 0 over 1.
    """
    weights = [Fraction(w) for w in weights] or [Fraction(0)]
    denom = math.lcm(*(w.denominator for w in weights))
    return StabilityPolynomial(tuple(w.numerator * (denom // w.denominator) for w in weights), denom)


def horner_oracle(weights, rho) -> Fraction:
    """sum_k weights[k] rho^k by Horner's rule in Fraction arithmetic.

    Every step normalizes with a gcd; this is the slow reference that the
    integer Horner of ``StabilityPolynomial.evaluate`` must equal exactly.
    """
    rho = Fraction(rho)
    acc = Fraction(0)
    for w in reversed(weights):
        acc = acc * rho + w
    return acc


def decimal17(x: Fraction) -> str:
    """A CSV cell: float(x), through ``Fraction.__float__``, to 17 significant digits."""
    return format(float(x), ".17g")


def csv_rows_oracle(report, grid: int) -> str:
    """The ``compare`` CSV text by one exact evaluation per row.

    Each row evaluates the candidate's curve and D at t/grid in Fractions,
    adds them for the reference's curve and renders every cell with
    ``decimal17``. D is rebuilt from the report's Fraction coefficients.
    The reference for the CLI, which writes the rows from the report's
    float64 ``grid_doubles``: the bytes must be equal.
    """
    diff = polynomial(report.diff.weights)
    lines = ["rho,stab_f,stab_g,diff\n"]
    for t in range(grid + 1):
        rho = Fraction(t, grid)
        sf, d = report.poly_candidate.evaluate(rho), diff.evaluate(rho)
        lines.append(",".join(decimal17(x) for x in (rho, sf, sf + d, d)) + "\n")
    return "".join(lines)


def comparison_oracle(diff_weights, grid: int):
    """(verdict, small-rho witness, sign-change brackets) from Fraction samples.

    D is evaluated at every t/grid as a Fraction; the verdict, the
    positive-prefix witness (or the halving fallback) and the bracket scan
    run over those values. The reference for ``compare_stability`` and
    ``crossover_scan``, which read the signs of the float64 grid samples.
    Bisection is shared with the library (``conjecture._refine_bracket``);
    the scans are not.
    """
    diff = polynomial(diff_weights)
    samples = [(Fraction(t, grid), diff.evaluate(Fraction(t, grid))) for t in range(grid + 1)]
    nonzero = [(rho, val > 0) for rho, val in samples if val != 0]
    brackets = [
        conjecture._refine_bracket(diff, r0, r1, 1 if p0 else -1)
        for (r0, p0), (r1, p1) in zip(nonzero, nonzero[1:])
        if p0 != p1
    ]
    c = diff.weights
    if c[0] != 0 or c[1] <= 0:
        positive = any(val > 0 for _, val in samples)
        return (VERDICT_INDETERMINATE if positive else VERDICT_CONSISTENT), None, brackets
    prefix = None
    for rho, val in samples[1:]:
        if val <= 0:
            break
        prefix = (rho, val)
    if prefix is None:
        rho = samples[1][0] / 2
        while diff.evaluate(rho) <= 0:
            rho /= 2
        prefix = (rho, diff.evaluate(rho))
    return VERDICT_REFUTES, prefix, brackets


def butterfly_oracle(f: BooleanFunction) -> np.ndarray:
    """Scaled coefficients by the plain int64 butterfly, one stage per bit.

    Each stage copies the bit-clear half and maps pairs (x, y) to
    (x + y, y - x); this is the reference that ``wht``, with its stages in
    int8, int16 and int32, must equal exactly, up to n = 24.
    """
    vec = f.signs().astype(np.int64)
    h = 1
    while h < vec.size:
        m = vec.reshape(-1, 2, h)
        x = m[:, 0, :].copy()
        m[:, 0, :] = x + m[:, 1, :]
        m[:, 1, :] -= x
        h *= 2
    return vec


def level_sums_oracle(scaled: np.ndarray) -> tuple:
    """4^n W_0..4^n W_n of a 2^n-entry scaled vector, one masked int64 sum of squares per level.

    On ``butterfly_oracle(f)`` it is independent of ``wht``, whose ``scaled``
    an odd table builds from the same half spectrum as its level sums.
    """
    levels = np.bitwise_count(np.arange(scaled.size, dtype=np.uint32))
    squares = scaled.astype(np.int64) ** 2
    return tuple(int(np.sum(squares[levels == k])) for k in range(scaled.size.bit_length()))


def level_weights_oracle(e: FourierExpansion) -> tuple:
    """W_0..W_n by ``level_sums_oracle``.

    The reference that the chunked float64 ``stability_polynomial`` must
    equal exactly.
    """
    return tuple(Fraction(total, e.size * e.size) for total in level_sums_oracle(e.scaled))


def _trim(p: list) -> list:
    """Drop zero top coefficients (lists run from the constant term up)."""
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def _sub_poly(a: list, b: list) -> list:
    size = max(len(a), len(b))
    a, b = a + [0] * (size - len(a)), b + [0] * (size - len(b))
    return _trim([x - y for x, y in zip(a, b)])


def _mul_poly(a: list, b: list) -> list:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _divmod_poly(num: list, den: list) -> tuple[list, list]:
    """Quotient and remainder of Fraction polynomials, ``den`` nonzero."""
    num, quot = list(num), [Fraction(0)] * max(len(num) - len(den) + 1, 0)
    for k in range(len(quot) - 1, -1, -1):
        c = num[k + len(den) - 1] / den[-1]
        quot[k] = c
        for j, d in enumerate(den):
            num[k + j] -= c * d
    return _trim(quot), _trim(num[: len(den) - 1])


def _derivative(p: list) -> list:
    return _trim([k * c for k, c in enumerate(p)][1:])


def _gcd_poly(a: list, b: list) -> list:
    """Monic gcd by Euclid's algorithm."""
    while b:
        a, b = b, _divmod_poly(a, b)[1]
    return [c / a[-1] for c in a]


def odd_root_sturm_chain(coeffs) -> list:
    """Sturm chain of a polynomial's odd-multiplicity part on (0, 1), in Fractions.

    ``coeffs`` runs from the constant term up. The roots at 0 and 1 are
    divided out first; every unbiased pair has D(0) = D(1) = 0. Yun's
    square-free split p = a_1 * a_2^2 * a_3^3 * ... gives q, the product of
    the odd-index a_i: its roots are p's odd-multiplicity roots, each once.
    For square-free q the chain q, q', -rem(q, q'), ... has
    ``sign_variations(chain, a) - sign_variations(chain, b)`` distinct roots
    in (a, b].
    """
    p = _trim([Fraction(c) for c in coeffs])
    while p[0] == 0:
        p = p[1:]
    while sum(p) == 0:
        p = _divmod_poly(p, [Fraction(-1), Fraction(1)])[0]
    g = _gcd_poly(p, _derivative(p))
    b = _divmod_poly(p, g)[0]
    d = _sub_poly(_divmod_poly(_derivative(p), g)[0], _derivative(b))
    q, i = [Fraction(1)], 1
    while len(b) > 1:
        a = _gcd_poly(b, d)
        if i % 2:
            q = _mul_poly(q, a)
        b = _divmod_poly(b, a)[0]
        d = _sub_poly(_divmod_poly(d, a)[0], _derivative(b))
        i += 1
    chain = [q, _derivative(q)]
    while chain[-1]:
        chain.append([-c for c in _divmod_poly(chain[-2], chain[-1])[1]])
    return chain[:-1]


def sign_variations(chain: list, x) -> int:
    """Sign changes along the chain at x, zeros skipped."""
    signs = [v > 0 for v in (horner_oracle(p, x) for p in chain) if v != 0]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def search_oracle(n: int, max_weight: int, require_tie_free: bool = True) -> list:
    """The weight search one candidate at a time, through full truth tables.

    Each canonical vector is materialized (tie-broken to -1 when ties are
    allowed) and screened with ``wht`` + ``degree_weight``. Every survivor
    must be tie-free, unbiased, monotone and odd by the table predicates,
    the flags the CLI reports for it. Deduplication keeps the first table in
    enumeration order and the sort matches the library's, so the result must
    equal ``search_counterexamples`` exactly.
    """
    w1_majority = degree_weight(wht(majority(n)), 1)
    seen, results = set(), []
    for weights in canonical_weight_vectors(n, max_weight):
        spec = LtfSpec(weights)
        try:
            f = materialize(spec)
        except TieEncountered:
            if require_tie_free:
                continue
            spec = LtfSpec(weights, 0, TIE_TO_MINUS_ONE)
            f = materialize(spec)
        if not is_unbiased(f):
            continue
        w1 = degree_weight(wht(f), 1)
        if w1 >= w1_majority or f.to_hex() in seen:
            continue
        seen.add(f.to_hex())
        # Under TIE_REJECT, materialize raised on any tie.
        assert spec.tie_policy == TIE_REJECT
        assert is_unbiased(f) and is_monotone(f) and is_odd(f)
        results.append(
            SearchResult(
                spec=spec,
                w1=w1,
                w1_majority=w1_majority,
                margin=w1_majority - w1,
                table_hex=f.to_hex(),
            )
        )
    results.sort(key=lambda r: (-r.margin, r.spec.weights))
    return results


def search_entry_oracle(r: SearchResult) -> dict:
    """One counterexample entry as a dict, for ``render_document`` to lay out.

    The reference for ``cli._search_listing``'s fixed-schema formatter.
    """
    return {
        "spec": render_spec(r.spec),
        "weights": list(r.spec.weights),
        "w1": fraction_fields(r.w1),
        "w1_majority": fraction_fields(r.w1_majority),
        "margin": fraction_fields(r.margin),
        "flags": {"unbiased": True, "monotone": True, "odd": True, "tie_free": True},
        "table_hex": r.table_hex,
    }


def render_search_oracle(args, results) -> tuple[str, str]:
    """The results-file and stdout text of ``search``, each document rendered whole.

    The reference for the CLI, which formats the counterexample list once,
    entry by entry, and splices it into both documents: the bytes must be equal.
    """
    entries = [search_entry_oracle(r) for r in results]
    file_doc = _document(
        "search",
        {
            "n": args.n,
            "max_weight": args.max_weight,
            "require_tie_free": not args.allow_ties,
        },
        {"count": len(entries), "counterexamples": entries},
    )
    inputs = {
        "n": args.n,
        "max_weight": args.max_weight,
        "parallel": args.parallel,
        "require_tie_free": not args.allow_ties,
        "out": args.out,
    }
    stdout_doc = _document(
        "search", inputs, {"count": len(entries), "out": args.out, "counterexamples": entries}
    )
    return render_document(file_doc) + "\n", render_document(stdout_doc) + "\n"
