"""The table in ``console_checks.py`` passes, and the checker reports each kind of failure.

The checker always runs as a fresh process: a child's peak RSS keeps its
spawner's high-water mark, and this pytest process's own peak passes the
checker's bounds.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_golden import GOLDEN

TESTS = Path(__file__).resolve().parent
CMD = (sys.executable, "-m", "boolfun")
SRC = str(TESTS.parent / "src")
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))


def checker(argv, **kwargs):
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=ENV, timeout=900, **kwargs
    )


def test_every_console_check_passes():
    proc = checker([str(TESTS / "console_checks.py"), *CMD])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "FAIL" not in proc.stdout


TABLE = GOLDEN / "table_counterexample.stdout"


@pytest.mark.parametrize(
    "fields, report",
    [
        ("stdout=TABLE, peak_mib=160, timeout=60", None),
        ("stdout='0' * 64", "stdout sha256 "),
        ("stdout=TABLE, code=1", "exit code 0, expected 1"),
        ("stdout=TABLE, peak_mib=1", "MiB peak RSS, over 1"),
        ("stdout=CHANGED", "stdout sha256 "),
        ("stdout=TABLE, timeout=0.001", "exit code -9, expected 0"),
    ],
    ids=["control", "wrong digest", "wrong exit code", "1 MiB bound", "changed golden byte",
         "kill timer"],
)
def test_checker_reports_each_kind_of_failure(fields, report, tmp_path):
    changed = bytearray(TABLE.read_bytes())
    changed[0] ^= 1
    (tmp_path / "changed.stdout").write_bytes(changed)
    code = (
        "import sys; from pathlib import Path; from console_checks import Row, run; "
        f"TABLE, CHANGED = Path({str(TABLE)!r}), Path({str(tmp_path / 'changed.stdout')!r}); "
        f"sys.exit(run({CMD!r}, [Row(('table', '2,2,1,1,1'), {fields})]))"
    )
    proc = checker(["-c", code], cwd=TESTS)
    if report is None:
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert proc.stdout.startswith("ok ") and "1 of 1 rows passed" in proc.stdout
    else:
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert proc.stdout.startswith("FAIL") and "0 of 1 rows passed" in proc.stdout
        assert report in proc.stdout
