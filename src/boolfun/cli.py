"""Command-line frontend with machine-readable JSON reports.

Commands: analyze, verify-paper, compare, search, table. Every rational in a
report appears as an exact "num/den" string in lowest terms next to a float
approximation under a separate key; CSV output is decimal-rendered and
therefore approximate by construction. Exit codes: 0 pass, 1 verification
mismatch, 2 usage or parse error, 3 tie encountered, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import stat
import sys
from fractions import Fraction

import numpy as np

from . import __version__
from .conjecture import compare_stability, search_counterexamples, verify_counterexample
from .core import BooleanFunction, checked_int
from .fourier import MAX_GRID, influence, stability_polynomial, wht
from .ltf import (
    TIE_REJECT,
    TIE_TO_MINUS_ONE,
    TieEncountered,
    counterexample,
    is_monotone,
    is_odd,
    is_unbiased,
    materialize,
    parse_spec,
    render_spec,
    tie_witness,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_TIE = 3
EXIT_IO = 4

# Largest `search --parallel` accepted; the search runs in one process
# whatever the value, which is only echoed in the stdout document.
MAX_WORKERS = 32


def fraction_fields(x: Fraction) -> dict:
    """Exact num/den string plus a presentation-only float approximation."""
    return {"exact": f"{x.numerator}/{x.denominator}", "approx": float(x)}


def value_fields(v):
    return fraction_fields(v) if isinstance(v, Fraction) else v


def render_document(doc: dict) -> str:
    """Canonical rendering: parsing and re-rendering is byte-identical."""
    return json.dumps(doc, indent=2, sort_keys=True)


def _write_out(path: str, parts) -> None:
    """Write ``parts`` over the old bytes at ``path``, then cut a regular file there.

    No O_TRUNC: on ext4 a truncating open of a just-rewritten file waits for
    the old data to reach the disk. A pipe or /dev/null cannot be truncated.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w") as handle:
        handle.writelines(parts)
        if stat.S_ISREG(os.fstat(fd).st_mode):
            handle.truncate()


def _document(command: str, inputs: dict, results) -> dict:
    return {
        "command": command,
        "inputs": inputs,
        "results": results,
        "version": __version__,
    }


def _comparison_display(lhs: Fraction, rhs: Fraction) -> dict:
    """Render both sides over their least common denominator, e.g. 44/64 < 45/64."""
    denom = math.lcm(lhs.denominator, rhs.denominator)
    left = f"{lhs.numerator * (denom // lhs.denominator)}/{denom}"
    right = f"{rhs.numerator * (denom // rhs.denominator)}/{denom}"
    relation = "<" if lhs < rhs else ("=" if lhs == rhs else ">")
    return {
        "lhs_common_denominator": left,
        "rhs_common_denominator": right,
        "display": f"{left} {relation} {right}",
    }


def cmd_analyze(args) -> int:
    spec = parse_spec(args.spec, args.tie_policy)
    f = materialize(spec)
    # Under reject, materialize has refused any tie. The spectrum is freed
    # before the document is built, so the two never coexist at the n = 24 peak.
    tie_broken = spec.tie_policy == TIE_TO_MINUS_ONE and tie_witness(spec) is not None
    poly = stability_polynomial(wht(f))
    weight_fields = [fraction_fields(w) for w in poly.weights]
    results = {
        "arity": f.n,
        "weights": list(spec.weights),
        "threshold": spec.threshold,
        "tie_broken": tie_broken,
        "table_hex": _SLOT,
        "ones": f.ones(),
        "bias": fraction_fields(f.bias()),
        "unbiased": is_unbiased(f),
        "odd": is_odd(f),
        "monotone": is_monotone(f),
        "influences": [fraction_fields(influence(f, i)) for i in range(1, f.n + 1)],
        "degree_weights": weight_fields,
        "stability_polynomial": {
            "form": "Stab(rho) = sum_k W_k rho^k",
            "coefficients": weight_fields,
        },
    }
    inputs = {"spec": args.spec, "tie_policy": args.tie_policy}
    # The hex is only [0-9a-f], so it is written as is, not JSON-encoded.
    hex_parts = ('"', f.to_hex(), '"')
    sys.stdout.writelines(_spliced(_document("analyze", inputs, results), "table_hex", hex_parts))
    return EXIT_OK


def cmd_verify(args) -> int:
    candidate = None
    if args.corrupt_table:
        clean = counterexample()
        candidate = BooleanFunction(clean.n, clean.table ^ 1)
    report = verify_counterexample(candidate=candidate)
    results = {
        "pass": report.passed,
        "first_failure": report.first_failure,
        "checks": [
            {
                "name": c.name,
                "claimed": value_fields(c.claimed),
                "computed": value_fields(c.computed),
                "pass": c.passed,
            }
            for c in report.checks
        ],
        "w1_comparison": {
            "lhs": "W^1[f]",
            "rhs": "W^1[Maj_5]",
            **_comparison_display(report.w1_candidate, report.w1_majority),
            "strict_less": report.w1_candidate < report.w1_majority,
        },
        "influence_symmetry": {
            "groups": [
                {
                    "coordinates": [1, 2],
                    "influence": fraction_fields(report.candidate_influences[0]),
                },
                {
                    "coordinates": [3, 4, 5],
                    "influence": fraction_fields(report.candidate_influences[2]),
                },
            ]
        },
        "stability_at_tenth": {
            "rho": fraction_fields(report.stab_rho),
            "candidate": fraction_fields(report.stab_candidate),
            "majority": fraction_fields(report.stab_majority),
            "difference": fraction_fields(report.stab_majority - report.stab_candidate),
        },
    }
    print(render_document(_document("verify-paper", {}, results)))
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


def cmd_compare(args) -> int:
    checked_int(args.grid, "rho grid intervals", 2, MAX_GRID)
    spec_f, spec_g = parse_spec(args.spec_f), parse_spec(args.spec_g)
    if spec_f.n != spec_g.n:
        raise ValueError(f"arity mismatch: {spec_f.n} vs {spec_g.n}")
    f, g = materialize(spec_f), materialize(spec_g)
    report = compare_stability(f, g, args.grid)
    # The report holds the nearest doubles to Stab_f, Stab_g and D at t/G, so
    # every row is four doubles and the whole CSV is one % format.
    rows = args.grid + 1
    table = np.empty((rows, 4))
    table[:, 0] = np.arange(rows) / args.grid
    table[:, 1:] = report.grid_doubles.T
    body = ("%.17g,%.17g,%.17g,%.17g\n" * rows) % tuple(table.ravel().tolist())
    _write_out(args.out, ("rho,stab_f,stab_g,diff\n", body))
    bracket = None
    if report.crossover_bracket is not None:
        lo, hi = report.crossover_bracket
        bracket = {
            "lo": fraction_fields(lo),
            "hi": fraction_fields(hi),
            "max_width": "2^-40",
        }
    witness = None
    if report.small_rho_witness is not None:
        rho0, val = report.small_rho_witness
        witness = {"rho": fraction_fields(rho0), "diff": fraction_fields(val)}
    results = {
        "arity": report.arity,
        "verdict": report.verdict,
        "margin": fraction_fields(report.margin),
        "diff_poly": [fraction_fields(c) for c in report.diff.weights],
        "small_rho_witness": witness,
        "crossover_bracket": bracket,
        "csv": {
            "path": args.out,
            "rows": args.grid + 1,
            "rendering": "decimal, 17 significant digits (approximate)",
        },
    }
    inputs = {"spec_f": args.spec_f, "spec_g": args.spec_g, "grid": args.grid, "out": args.out}
    print(render_document(_document("compare", inputs, results)))
    return EXIT_OK


def _fraction_block(x: Fraction) -> str:
    """``fraction_fields(x)`` as ``render_document`` lays it out at an entry's key depth."""
    return (
        f'{{\n          "approx": {float(x)!r},\n'
        f'          "exact": "{x.numerator}/{x.denominator}"\n        }}'
    )


# By construction: unbiased rules out ties, no tie at theta = 0 is odd, w > 0 monotone.
_FLAGS_BLOCK = (
    '{\n          "monotone": true,\n          "odd": true,\n'
    '          "tie_free": true,\n          "unbiased": true\n        }'
)


def _search_listing(found) -> list[str]:
    """The counterexample list as ``render_document`` lays it out at depth 2, in parts.

    Each entry is one f-string over a fixed schema, keys in sorted order, and
    a float is written as its repr, as ``json`` writes it. Nothing is escaped:
    every string value is digits, ",", "@", "-", "/" or hex. The parts are
    never joined, so no copy of the whole list is made.
    """
    if not found:
        return ["[]"]
    parts = ["[\n"]
    majority = w1 = margin = None
    for r in found:
        # A search shares one w1_majority object, and one w1/margin pair per
        # W_1 value, so each block is built once per run of one object.
        if r.w1_majority is not majority:
            majority, majority_block = r.w1_majority, _fraction_block(r.w1_majority)
        if r.w1 is not w1:
            w1, w1_block = r.w1, _fraction_block(r.w1)
        if r.margin is not margin:
            margin, margin_block = r.margin, _fraction_block(r.margin)
        weights = ",\n          ".join(map(str, r.spec.weights))
        parts += (
            f'      {{\n        "flags": {_FLAGS_BLOCK},\n'
            f'        "margin": {margin_block},\n'
            f'        "spec": "{render_spec(r.spec)}",\n'
            f'        "table_hex": "{r.table_hex}",\n'
            f'        "w1": {w1_block},\n'
            f'        "w1_majority": {majority_block},\n'
            f'        "weights": [\n          {weights}\n        ]\n      }}',
            ",\n",
        )
    parts[-1] = "\n    ]"
    return parts


# Stands in for one value, such as the counterexample list, while the rest of
# a document renders.
_SLOT = "<slot>"


def _spliced(doc: dict, key: str, parts) -> tuple[str, ...]:
    """``doc`` rendered with ``parts`` as the value of its ``key`` slot, ending in a newline.

    A quote inside a rendered JSON string is escaped, so '"key": ' only ends
    a key: the slot with its key occurs once, whatever an input string holds.
    """
    key_text = json.dumps(key) + ": "
    halves = render_document(doc).split(key_text + json.dumps(_SLOT))
    if len(halves) != 2:
        raise RuntimeError(f"expected one {key} slot in the document, found {len(halves) - 1}")
    return (halves[0] + key_text, *parts, halves[1] + "\n")


def cmd_search(args) -> int:
    checked_int(args.parallel, "workers", 1, MAX_WORKERS)
    found = search_counterexamples(args.n, args.max_weight)
    # Both documents hold the list at depth 2 (results -> counterexamples), so
    # the one listing is spliced into each.
    listing = _search_listing(found)
    inputs = {"n": args.n, "max_weight": args.max_weight, "require_tie_free": not args.allow_ties}
    results = {"count": len(found), "counterexamples": _SLOT}
    # The results file deliberately omits --parallel: it does not change the
    # search, and the file is contractually byte-identical across it.
    _write_out(args.out, _spliced(_document("search", inputs, results), "counterexamples", listing))
    inputs.update(parallel=args.parallel, out=args.out)
    results["out"] = args.out
    sys.stdout.writelines(
        _spliced(_document("search", inputs, results), "counterexamples", listing)
    )
    return EXIT_OK


def cmd_table(args) -> int:
    print(materialize(parse_spec(args.spec)).to_hex())
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boolfun",
        description="Exact spectral analysis of Boolean threshold functions.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command")

    analyze = sub.add_parser("analyze", help="full spectral report for an LTF spec")
    analyze.add_argument("spec", help='weights with optional threshold, e.g. "2,2,1,1,1@0"')
    analyze.add_argument(
        "--tie-policy",
        choices=[TIE_REJECT, TIE_TO_MINUS_ONE],
        default=TIE_REJECT,
        help="what to do when a weighted sum hits the threshold",
    )
    analyze.set_defaults(handler=cmd_analyze)

    verify = sub.add_parser(
        "verify-paper",
        help="recompute the bundled counterexample's exact values and check them",
    )
    verify.add_argument("--corrupt-table", action="store_true", help=argparse.SUPPRESS)
    verify.set_defaults(handler=cmd_verify)

    compare = sub.add_parser(
        "compare", help="exact stability comparison of two specs, with CSV curve"
    )
    compare.add_argument("spec_f", help="candidate spec")
    compare.add_argument("spec_g", help="reference spec")
    compare.add_argument("--grid", type=int, default=256, help="rho grid resolution")
    compare.add_argument("--out", required=True, help="CSV output path")
    compare.set_defaults(handler=cmd_compare)

    search = sub.add_parser(
        "search", help="exhaust small weight vectors for sub-majority W_1"
    )
    search.add_argument("n", type=int, help="odd arity, at most 9")
    search.add_argument("max_weight", type=int, help="largest weight to enumerate")
    search.add_argument(
        "--parallel",
        type=int,
        default=1,
        help=f"1 to {MAX_WORKERS}, echoed only; the search runs in one process",
    )
    search.add_argument("--out", required=True, help="results document path")
    search.add_argument(
        "--allow-ties",
        action="store_true",
        help="echoed only: a tie-broken theta=0 table is biased, so the results"
        " never change",
    )
    search.set_defaults(handler=cmd_search)

    table = sub.add_parser("table", help="print only the truth-table hex of a spec")
    table.add_argument("spec")
    table.set_defaults(handler=cmd_table)
    return parser


# Built once per process: every parse_args call returns a fresh Namespace.
_PARSER = _build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    if not hasattr(args, "handler"):
        _PARSER.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        return args.handler(args)
    except TieEncountered as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TIE
    except (ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
