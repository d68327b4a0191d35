"""Command-line contract: reports, files, and every exit code."""

import ast
import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from boolfun import (
    LtfSpec,
    SearchResult,
    cli,
    conjecture,
    fourier,
    is_monotone,
    is_odd,
    is_unbiased,
    ltf,
    materialize,
    parse_spec,
    stability_polynomial,
    tie_witness,
    wht,
)
from boolfun.cli import main

from helpers import (
    csv_rows_oracle,
    decimal17,
    horner_oracle,
    random_monotone_spec,
    render_search_oracle,
)

GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse usage failures
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def from_exact(field) -> Fraction:
    return Fraction(field["exact"])


def test_analyze_counterexample(capsys):
    code, out, _ = run_cli(capsys, "analyze", "2,2,1,1,1")
    assert code == 0
    doc = json.loads(out)
    results = doc["results"]
    assert results["table_hex"] == "88e8e8ee"
    assert from_exact(results["degree_weights"][1]) == Fraction(44, 64)
    assert [from_exact(x) for x in results["influences"]] == [
        Fraction(1, 2),
        Fraction(1, 2),
        Fraction(1, 4),
        Fraction(1, 4),
        Fraction(1, 4),
    ]
    assert results["unbiased"] and results["odd"] and results["monotone"]
    assert not results["tie_broken"]


def test_analyze_dictator(capsys):
    code, out, _ = run_cli(capsys, "analyze", "1")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["degree_weights"][1]["exact"] == "1/1"
    assert results["table_hex"] == "02"


def test_analyze_exact_and_approx_are_distinct_keys(capsys):
    _, out, _ = run_cli(capsys, "analyze", "2,2,1,1,1")
    bias = json.loads(out)["results"]["bias"]
    assert set(bias) == {"exact", "approx"}
    assert isinstance(bias["exact"], str) and isinstance(bias["approx"], float)


def test_analyze_tie_exit_3(capsys):
    code, _, err = run_cli(capsys, "analyze", "1,1,1,1,2")
    assert code == 3
    assert "(+1, +1, +1, -1, -1)" in err


def test_analyze_tie_policy_flag(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", "1,1,1,1,2", "--tie-policy", "map_to_minus_one"
    )
    assert code == 0
    assert json.loads(out)["results"]["tie_broken"] is True


def test_cli_imports_no_private_name_from_the_package():
    # The CLI and the demos are clients of the public API: every name they
    # take from a boolfun module is public (dunders such as __version__ aside).
    demos = sorted(Path(__file__).resolve().parent.parent.glob("demos/*.py"))
    assert demos
    private = [
        (path.name, alias.name)
        for path in [Path(cli.__file__), *demos]
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("boolfun"))
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")
    ]
    assert private == []


def test_analyze_parse_error_exit_2(capsys):
    code, _, err = run_cli(capsys, "analyze", "2,x,1")
    assert code == 2
    assert "error" in err


def test_verify_paper_passes(capsys):
    code, out, _ = run_cli(capsys, "verify-paper")
    assert code == 0
    doc = json.loads(out)
    results = doc["results"]
    assert results["pass"] is True
    by_name = {c["name"]: c for c in results["checks"]}
    assert by_name["Inf_1[Maj_5]"]["computed"]["exact"] == "3/8"
    assert by_name["Inf_1[f]"]["computed"]["exact"] == "1/2"
    assert by_name["Inf_3[f]"]["computed"]["exact"] == "1/4"
    assert by_name["W^1[Maj_5]"]["computed"]["exact"] == "45/64"
    assert from_exact(by_name["W^1[f]"]["computed"]) == Fraction(44, 64)
    assert results["w1_comparison"]["display"] == "44/64 < 45/64"
    assert results["w1_comparison"]["strict_less"] is True


def test_verify_paper_exit_zero_implies_pass_field(capsys):
    code, out, _ = run_cli(capsys, "verify-paper")
    assert code == 0
    assert json.loads(out)["results"]["pass"] is True


def test_verify_paper_corrupted_exit_1(capsys):
    code, out, _ = run_cli(capsys, "verify-paper", "--corrupt-table")
    assert code == 1
    results = json.loads(out)["results"]
    assert results["pass"] is False
    assert isinstance(results["first_failure"], str)
    assert any(not c["pass"] for c in results["checks"])


def test_compare_refutes(tmp_path, capsys):
    out_csv = tmp_path / "curve.csv"
    code, out, _ = run_cli(
        capsys, "compare", "2,2,1,1,1", "1,1,1,1,1", "--grid", "100", "--out", str(out_csv)
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["verdict"] == "refutes_at_small_rho"
    assert from_exact(doc["results"]["margin"]) == Fraction(1, 64)
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "rho,stab_f,stab_g,diff"
    assert len(lines) == 102  # header + grid + 1 rows
    assert lines[1] == "0,0,0,0"  # unbiased pair at rho = 0
    row001 = lines[2].split(",")
    assert row001[0] == "0.01"
    assert float(row001[3]) > 0
    last = lines[-1].split(",")
    assert last == ["1", "1", "1", "0"]


def test_compare_csv_matches_fraction_horner_at_arity_11(tmp_path, capsys):
    spec_f, spec_g, grid = "5,4,3,3,2,2,2,1,1,1,1", ",".join(["1"] * 11), 512
    out_csv = tmp_path / "curve.csv"
    code, _, _ = run_cli(
        capsys, "compare", spec_f, spec_g, "--grid", str(grid), "--out", str(out_csv)
    )
    assert code == 0
    w_f, w_g = (
        stability_polynomial(wht(materialize(parse_spec(s)))).weights for s in (spec_f, spec_g)
    )
    w_diff = [g - f for f, g in zip(w_f, w_g)]
    rows = out_csv.read_text().splitlines()[1:]
    assert len(rows) == grid + 1
    for t, row in enumerate(rows):
        rho = Fraction(t, grid)
        assert row.split(",") == [
            decimal17(rho),
            decimal17(horner_oracle(w_f, rho)),
            decimal17(horner_oracle(w_g, rho)),
            decimal17(horner_oracle(w_diff, rho)),
        ]


def compare_csv_bytes(capsys, tmp_path, spec_f, spec_g, grid):
    """(CLI CSV bytes, oracle CSV bytes) for one ``compare`` command."""
    out_csv = tmp_path / "curve.csv"
    code, _, _ = run_cli(
        capsys, "compare", spec_f, spec_g, "--grid", str(grid), "--out", str(out_csv)
    )
    assert code == 0
    f, g = (materialize(parse_spec(s)) for s in (spec_f, spec_g))
    report = conjecture.compare_stability(f, g, grid)
    return out_csv.read_bytes(), csv_rows_oracle(report, grid).encode()


@pytest.mark.parametrize(
    "name, spec_f, spec_g, grid",
    [
        ("compare_maj5", "2,2,1,1,1", "1,1,1,1,1", 256),
        ("compare_crossover", "5,4,4,3,2,2,1,1,1,1,1", ",".join(["1"] * 11), 512),
    ],
)
def test_compare_csv_goldens_match_row_oracle(name, spec_f, spec_g, grid, tmp_path, capsys):
    written, oracle = compare_csv_bytes(capsys, tmp_path, spec_f, spec_g, grid)
    assert written == oracle == (GOLDEN / f"{name}.out.csv").read_bytes()


@pytest.mark.parametrize("n", range(1, 14))
def test_compare_csv_matches_row_oracle_on_seeded_pairs(n, tmp_path, capsys):
    rng = np.random.default_rng(1600 + n)
    specs = [",".join(map(str, random_monotone_spec(n, rng).weights)) for _ in range(2)]
    for grid in (2, 3, 7, 256, 2048):
        written, oracle = compare_csv_bytes(capsys, tmp_path, *specs, grid)
        assert written == oracle


@pytest.mark.parametrize(
    "spec_f, spec_g", [("3,-1,2@1", "1,1,1"), ("1,1,1@-2", "1,1,1"), ("1,1,1", "1,1,1@-2")]
)
def test_compare_csv_matches_row_oracle_off_the_unbiased_case(spec_f, spec_g, tmp_path, capsys):
    # A threshold spec and a biased pair: D(0) != 0 and the two curves have
    # different denominators.
    for grid in (2, 3, 7, 256):
        written, oracle = compare_csv_bytes(capsys, tmp_path, spec_f, spec_g, grid)
        assert written == oracle


def test_compare_grid_over_limit_exit_2(tmp_path, capsys, monkeypatch):
    def no_transform(f):
        raise AssertionError("a spectrum was computed")

    def no_table(spec):
        raise AssertionError("a table was built")

    for module in (conjecture, fourier):
        monkeypatch.setattr(module, "wht", no_transform)
    monkeypatch.setattr(cli, "materialize", no_table)
    over = conjecture.MAX_GRID + 1
    out_csv = tmp_path / "x.csv"
    code, _, err = run_cli(
        capsys, "compare", "2,2,1,1,1", "1,1,1,1,1", "--grid", str(over), "--out", str(out_csv)
    )
    assert code == 2
    assert str(over) in err
    assert str(conjecture.MAX_GRID) in err
    assert not out_csv.exists()


def test_compare_identical_specs_all_zero_diff(tmp_path, capsys):
    out_csv = tmp_path / "same.csv"
    code, out, _ = run_cli(
        capsys, "compare", "1,1,1", "1,1,1", "--grid", "10", "--out", str(out_csv)
    )
    assert code == 0
    assert json.loads(out)["results"]["verdict"] == "consistent"
    for line in out_csv.read_text().splitlines()[1:]:
        assert line.split(",")[3] == "0"


def test_compare_biased_pair_returns_consistent(tmp_path):
    # OR_3 against Maj_3: D'(0) = 9/16 > 0 but D(0) = -9/16, and
    # D = -(1 - rho)(9/16 + 3 rho^2/16) <= 0 on [0, 1], so no witness search
    # may start; the timeout catches one that never ends.
    out_csv = tmp_path / "x.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "boolfun", "compare", "1,1,1@-2", "1,1,1", "--out", str(out_csv)],
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert proc.returncode == 0
    results = json.loads(proc.stdout)["results"]
    assert results["verdict"] == "consistent"
    assert results["small_rho_witness"] is None
    assert from_exact(results["diff_poly"][0]) == Fraction(-9, 16)
    assert from_exact(results["margin"]) == Fraction(9, 16)


def test_compare_arity_mismatch_exit_2(tmp_path, capsys, monkeypatch):
    def no_table(spec):
        raise AssertionError("a table was built")

    # The arities are compared right after parsing, before either table.
    monkeypatch.setattr(cli, "materialize", no_table)
    code, _, err = run_cli(
        capsys, "compare", "1,1,1", "1,1,1,1,1", "--out", str(tmp_path / "x.csv")
    )
    assert code == 2
    assert "mismatch" in err
    out_csv = tmp_path / "y.csv"
    code, _, err = run_cli(
        capsys, "compare", ",".join(["1"] * 24), ",".join(["1"] * 23), "--out", str(out_csv)
    )
    assert code == 2
    assert "arity mismatch: 24 vs 23" in err
    assert not out_csv.exists()


def test_compare_io_failure_exit_4(tmp_path, capsys):
    missing_dir = tmp_path / "no" / "such" / "dir" / "x.csv"
    code, _, err = run_cli(capsys, "compare", "1,1,1", "1,1,1", "--out", str(missing_dir))
    assert code == 4
    assert "error" in err


def test_search_results_file(tmp_path, capsys):
    out_path = tmp_path / "results.json"
    code, out, _ = run_cli(capsys, "search", "5", "2", "--out", str(out_path))
    assert code == 0
    doc = json.loads(out_path.read_text())
    hits = doc["results"]["counterexamples"]
    assert doc["results"]["count"] == 1
    assert hits[0]["weights"] == [2, 2, 1, 1, 1]
    assert from_exact(hits[0]["margin"]) == Fraction(1, 64)
    assert hits[0]["flags"] == {
        "unbiased": True,
        "monotone": True,
        "odd": True,
        "tie_free": True,
    }
    stdout_doc = json.loads(out)
    assert stdout_doc["results"]["count"] == 1


@pytest.mark.parametrize("tie_flag", [[], ["--allow-ties"]])
def test_search_flags_match_table_predicates(tie_flag, tmp_path, capsys):
    # The flags are written as constants; each must hold on the entry's table.
    out_path = tmp_path / "results.json"
    code, _, _ = run_cli(capsys, "search", "7", "3", *tie_flag, "--out", str(out_path))
    assert code == 0
    entries = json.loads(out_path.read_text())["results"]["counterexamples"]
    assert entries
    for entry in entries:
        spec = parse_spec(entry["spec"])
        f = materialize(spec)
        assert f.to_hex() == entry["table_hex"]
        assert entry["flags"] == {
            "unbiased": is_unbiased(f),
            "monotone": is_monotone(f),
            "odd": is_odd(f),
            "tie_free": tie_witness(spec) is None,
        }


def test_search_empty(tmp_path, capsys):
    out_path = tmp_path / "none.json"
    code, _, _ = run_cli(capsys, "search", "3", "5", "--out", str(out_path))
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["results"] == {"count": 0, "counterexamples": []}


def test_search_parallel_files_byte_identical(tmp_path, capsys):
    one = tmp_path / "serial.json"
    eight = tmp_path / "parallel.json"
    assert run_cli(capsys, "search", "5", "2", "--out", str(one))[0] == 0
    assert (
        run_cli(capsys, "search", "5", "2", "--parallel", "8", "--out", str(eight))[0] == 0
    )
    assert one.read_bytes() == eight.read_bytes()


# An --out path echoed on stdout: it holds a quote, a backslash and the list
# slot's rendered text, and it ends in a quote and the slot's value, which
# renders as an escaped quote followed by the value's JSON form.
ODD_OUT_NAME = f'q"b\\"counterexamples": {json.dumps(cli._SLOT)}"{cli._SLOT}'


@pytest.mark.parametrize(
    "argv, name",
    [
        (["3", "5"], "search.json"),
        (["5", "2"], "search.json"),
        (["5", "3", "--allow-ties"], "search.json"),
        (["7", "3"], "search.json"),
        (["9", "8", "--parallel", "2"], "search.json"),
        pytest.param(["5", "2"], ODD_OUT_NAME, id="odd-out-path"),
    ],
)
def test_search_spliced_list_matches_whole_documents(argv, name, tmp_path, capsys):
    out_path = tmp_path / name
    args = cli._build_parser().parse_args(["search", *argv, "--out", str(out_path)])
    code, out, _ = run_cli(capsys, "search", *argv, "--out", str(out_path))
    assert code == 0
    file_text, stdout_text = render_search_oracle(
        args, conjecture.search_counterexamples(args.n, args.max_weight)
    )
    assert out_path.read_text() == file_text
    assert out == stdout_text


@pytest.mark.parametrize("spec", ["1", "5,4,3,2,1", ",".join(["1"] * 20)])
def test_analyze_spliced_hex_matches_whole_document(spec, capsys):
    # The table hex is written between the two halves of the rest, not
    # JSON-encoded; rendering the parsed document whole must give the same bytes.
    code, out, _ = run_cli(capsys, "analyze", spec, "--tie-policy", "map_to_minus_one")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["table_hex"] == materialize(parse_spec(spec, "map_to_minus_one")).to_hex()
    assert out == cli.render_document(doc) + "\n"


@st.composite
def search_result_lists(draw):
    """SearchResult lists of length 0, 1 or many, at n from 1 to 9.

    A search shares one w1_majority object across its list, as here when
    ``shared`` is drawn; otherwise each entry gets its own majority value.
    A search also shares one w1/margin pair per W_1 value. Here an entry of
    a shared-majority list may take a pair from a small pool, so one pair
    recurs both in adjacent entries and apart, with other values between.
    A margin of one unit at n = 9 is 4^-9, whose float repr has an exponent.
    """
    n = draw(st.integers(1, 9))
    scale = 4**n
    shared = draw(st.booleans())
    shared_bar = draw(st.integers(1, scale))
    shared_majority = Fraction(shared_bar, scale)
    pool = [
        (Fraction(w1_scaled, scale), Fraction(shared_bar - w1_scaled, scale))
        for w1_scaled in draw(st.lists(st.integers(0, shared_bar - 1), min_size=1, max_size=3))
    ]
    table_bytes = max(1, (1 << n) // 8)

    def entry():
        bar = shared_bar if shared else draw(st.integers(1, scale))
        if shared and draw(st.booleans()):
            w1, margin = pool[draw(st.integers(0, len(pool) - 1))]
        else:
            w1_scaled = draw(st.integers(0, bar - 1))
            w1, margin = Fraction(w1_scaled, scale), Fraction(bar - w1_scaled, scale)
        weights = draw(st.lists(st.integers(1, 15), min_size=n, max_size=n))
        return SearchResult(
            spec=LtfSpec(tuple(weights)),
            w1=w1,
            w1_majority=shared_majority if shared else Fraction(bar, scale),
            margin=margin,
            table_hex=draw(st.binary(min_size=table_bytes, max_size=table_bytes)).hex(),
        )

    count = draw(st.one_of(st.just(0), st.just(1), st.integers(2, 12)))
    return [entry() for _ in range(count)]


TINY_MARGIN = [
    SearchResult(
        spec=LtfSpec((15,) * 9),
        w1=Fraction(4**9 - 1, 4**9),
        w1_majority=Fraction(1),
        margin=Fraction(1, 4**9),
        table_hex="00" * 64,
    )
]


@settings(max_examples=150, deadline=None)
@given(results=search_result_lists(), parallel=st.integers(1, cli.MAX_WORKERS))
@example(results=TINY_MARGIN, parallel=1)
def test_search_listing_matches_oracle_on_generated_results(results, parallel):
    # cmd_search on a stubbed search: both spliced documents must be the bytes
    # of whole-document renders of the oracle's entry dicts.
    with tempfile.TemporaryDirectory() as tmp:
        out_path = os.path.join(tmp, "search.json")
        argv = ["search", "9", "15", "--parallel", str(parallel), "--out", out_path]
        args = cli._build_parser().parse_args(argv)
        stdout = io.StringIO()
        with mock.patch.object(cli, "search_counterexamples", return_value=results):
            with contextlib.redirect_stdout(stdout):
                assert cli.main(argv) == 0
        with open(out_path) as handle:
            file_text = handle.read()
    assert (file_text, stdout.getvalue()) == render_search_oracle(args, results)


def test_search_even_arity_exit_2(tmp_path, capsys):
    code, _, _ = run_cli(capsys, "search", "4", "2", "--out", str(tmp_path / "x.json"))
    assert code == 2


def test_search_parallel_over_cap_exit_2(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "search", "5", "2", "--parallel", "100000", "--out", str(tmp_path / "x.json")
    )
    assert code == 2
    assert "capped" in err
    assert not (tmp_path / "x.json").exists()


def test_search_parallel_below_one_exit_2(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "search", "5", "2", "--parallel", "0", "--out", str(tmp_path / "x.json")
    )
    assert code == 2
    assert "at least 1" in err
    assert not (tmp_path / "x.json").exists()


def test_integer_options_and_sum_bound_exit_2(tmp_path, capsys, monkeypatch):
    def no_sums(weights):
        raise AssertionError("weighted sums were allocated")

    monkeypatch.setattr(ltf, "_sums_by_doubling", no_sums)
    out = str(tmp_path / "x")
    over_bound = ",".join(["9" * 4000] * 24)
    for argv in (
        ("compare", "2,2,1,1,1", "1,1,1,1,1", "--grid", "1", "--out", out),
        ("compare", "2,2,1,1,1", "1,1,1,1,1", "--grid", "65537", "--out", out),
        ("search", "5", "2", "--parallel", "0", "--out", out),
        ("search", "5", "2", "--parallel", "33", "--out", out),
        ("table", over_bound),
        ("analyze", over_bound),
    ):
        code, stdout, err = run_cli(capsys, *argv)
        assert (code, stdout) == (2, ""), argv
        assert "over the limit" in err or "at least" in err, argv
        assert not os.path.exists(out)


def test_search_over_vector_limit_exit_2(tmp_path, capsys, monkeypatch):
    def no_enumeration(n, max_weight):
        raise AssertionError("weight vectors were enumerated")
        yield

    monkeypatch.setattr(conjecture, "canonical_weight_vectors", no_enumeration)
    code, _, err = run_cli(capsys, "search", "9", "1000", "--out", str(tmp_path / "x.json"))
    assert code == 2
    assert str(math.comb(9 + 1000 - 1, 9)) in err
    assert str(conjecture.SEARCH_MAX_VECTORS) in err
    assert not (tmp_path / "x.json").exists()


def test_search_vector_limit_edge_at_arity_cap():
    # The documented edge: (9, 15) is the largest admitted search at n = 9.
    assert math.comb(9 + 15 - 1, 9) <= conjecture.SEARCH_MAX_VECTORS
    assert math.comb(9 + 16 - 1, 9) > conjecture.SEARCH_MAX_VECTORS


def test_search_9_8_results_file_digest(tmp_path, capsys):
    out_path = tmp_path / "search.json"
    code, _, _ = run_cli(capsys, "search", "9", "8", "--parallel", "2", "--out", str(out_path))
    assert code == 0
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == (
        "4280e09793f3f4464bbabf6b7141feeaca9bf094b6ac421a0b9873fd4531d2bc"
    )


def test_search_io_failure_exit_4(tmp_path, capsys):
    code, _, _ = run_cli(
        capsys, "search", "5", "2", "--out", str(tmp_path / "missing" / "x.json")
    )
    assert code == 4


@pytest.mark.parametrize(
    "argv, golden",
    [
        (["compare", "2,2,1,1,1", "1,1,1,1,1"], "compare_maj5.out.csv"),
        (["search", "7", "3"], "search_7_3_serial.out.json"),
    ],
    ids=["compare", "search"],
)
def test_out_file_written_in_place(argv, golden, tmp_path, capsys, monkeypatch):
    expected = (GOLDEN / golden).read_bytes()
    out_path = tmp_path / "out"
    opened = []
    real_open = os.open

    def recording_open(path, flags, *rest):
        opened.append((os.fspath(path), flags))
        return real_open(path, flags, *rest)

    monkeypatch.setattr(os, "open", recording_open)
    inodes = []
    for _ in range(2):
        assert run_cli(capsys, *argv, "--out", str(out_path))[0] == 0
        assert out_path.read_bytes() == expected
        inodes.append(out_path.stat().st_ino)
    assert inodes[0] == inodes[1]
    flags = [f for path, f in opened if path == str(out_path)]
    assert len(flags) == 2
    assert not any(f & os.O_TRUNC for f in flags)

    # A symlinked --out stays a link; its longer target is overwritten and cut.
    target = tmp_path / "target"
    target.write_bytes(expected + b"stale" * 1000)
    link = tmp_path / "link"
    link.symlink_to(target)
    assert run_cli(capsys, *argv, "--out", str(link))[0] == 0
    assert link.is_symlink()
    assert target.read_bytes() == expected

    # /dev/null is written but not truncated.
    assert run_cli(capsys, *argv, "--out", os.devnull)[0] == 0


def test_table_outputs():
    # via subprocess to pin the whole stdout contract, newline included
    # The last spec has |w|_1 >= 2^62, so its sums run in Python integers.
    for spec, expected in (
        ("1", "02"),
        ("1,1,1", "e8"),
        ("2,2,1,1,1", "88e8e8ee"),
        ("4611686018427387905,3,1@-2", "aa"),
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "boolfun", "table", spec],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == expected + "\n"


def test_table_tie_exit_3(capsys):
    code, _, _ = run_cli(capsys, "table", "1,1,1,1,2")
    assert code == 3


def test_no_command_prints_usage(capsys):
    code, _, err = run_cli(capsys)
    assert code == 2
    assert "usage" in err


def test_bad_subcommand_exit_2(capsys):
    code, _, _ = run_cli(capsys, "frobnicate")
    assert code == 2


def test_report_documents_round_trip(tmp_path, capsys):
    _, out, _ = run_cli(capsys, "analyze", "2,2,1,1,1")
    reparsed = json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
    assert reparsed == out

    out_path = tmp_path / "results.json"
    run_cli(capsys, "search", "5", "2", "--out", str(out_path))
    text = out_path.read_text()
    assert json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n" == text
