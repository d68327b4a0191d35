"""Golden outputs: exact stdout, out-file bytes and exit code of fixed commands.

The files under ``tests/golden/`` were produced by the CLI at commit 7a88d10.
Each command runs in-process from an empty working directory with a relative
``--out`` path, so no temporary path reaches stdout. A golden changes only in
a change that means to change the program's output; a refactor leaves every
one byte-identical.

For case ``name`` the golden stdout is ``name.stdout`` and, for commands that
write a file, the golden file is ``name.out.csv`` or ``name.out.json``.
"""

from pathlib import Path

import pytest

from boolfun.cli import main

GOLDEN = Path(__file__).parent / "golden"

# name -> (argv, out-file name or None, exit code)
CASES = {
    "analyze_counterexample": (["analyze", "2,2,1,1,1"], None, 0),
    "analyze_tie_broken": (
        ["analyze", "1,1,1,1", "--tie-policy", "map_to_minus_one"],
        None,
        0,
    ),
    "analyze_threshold": (["analyze", "3,-1,2@1"], None, 0),
    "verify_paper": (["verify-paper"], None, 0),
    "verify_paper_corrupt": (["verify-paper", "--corrupt-table"], None, 1),
    "compare_maj5": (["compare", "2,2,1,1,1", "1,1,1,1,1"], "out.csv", 0),
    "compare_crossover": (
        [
            "compare",
            "5,4,4,3,2,2,1,1,1,1,1",
            "1,1,1,1,1,1,1,1,1,1,1",
            "--grid",
            "512",
        ],
        "out.csv",
        0,
    ),
    "search_5_2": (["search", "5", "2"], "out.json", 0),
    "search_7_3_serial": (["search", "7", "3", "--parallel", "1"], "out.json", 0),
    "search_7_3_parallel": (["search", "7", "3", "--parallel", "2"], "out.json", 0),
    "search_5_3_ties": (["search", "5", "3", "--allow-ties"], "out.json", 0),
    "table_counterexample": (["table", "2,2,1,1,1"], None, 0),
}


def run_case(name, capsys):
    """Run one case in the current directory: (exit code, stdout, out bytes)."""
    argv, out_name, _ = CASES[name]
    if out_name is not None:
        argv = argv + ["--out", out_name]
    code = main(argv)
    stdout = capsys.readouterr().out
    out_bytes = Path(out_name).read_bytes() if out_name is not None else None
    return code, stdout, out_bytes


def golden_out_path(name) -> Path:
    out_name = CASES[name][1]
    return GOLDEN / f"{name}.out{Path(out_name).suffix}"


# What a stale out file holds past the golden bytes: a rerun must cut it off.
JUNK = bytes(range(256)) * 256


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runs = [run_case(name, capsys)]
    out_name = CASES[name][1]
    if out_name is not None:
        # Again over an older, longer file: the golden plus 64 KiB of junk.
        Path(out_name).write_bytes(golden_out_path(name).read_bytes() + JUNK)
        runs.append(run_case(name, capsys))
    for code, stdout, out_bytes in runs:
        assert code == CASES[name][2]
        assert stdout.encode() == (GOLDEN / f"{name}.stdout").read_bytes()
        if out_bytes is not None:
            assert out_bytes == golden_out_path(name).read_bytes()


def test_crossover_case_has_a_bracket():
    """The crossover golden exercises the bisection path, not only the grid."""
    doc = (GOLDEN / "compare_crossover.stdout").read_text()
    assert '"crossover_bracket": null' not in doc
