"""Check the command line row by row, exit 1 if one fails: ``tests/console_checks.py CMD...``

CMD is ``boolfun`` installed, or ``python -m boolfun`` with ``PYTHONPATH=src``. Each row runs in a
fresh child in its own empty directory, with a relative ``--out`` and a kill timer. A Linux child's
``ru_maxrss`` (via ``os.wait4``) keeps its spawner's peak across ``exec``, so this process holds no
output in memory and prints its own peak; pytest, whose peak passes the bounds, runs no row.
"""

import collections, hashlib, io, os, resource, subprocess, sys, tempfile, threading
from pathlib import Path

from test_golden import CASES, GOLDEN, JUNK, golden_out_path

REPO = Path(__file__).resolve().parent.parent
PATHS = os.environ.get("PYTHONPATH", "").split(os.pathsep)  # absolute: children run elsewhere
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(map(os.path.abspath, filter(None, PATHS))))
# stdout and out (the --out file): bytes, a file or a sha256, or None; prog replaces CMD.
Row = collections.namedtuple("Row", "args code stdout out peak_mib timeout stale prog",
                             defaults=(0, None, None, float("inf"), 60, False, ()))


def sha256(data) -> str:
    """The sha256 of bytes, or of a file read in chunks ("missing" if none); a str is one."""
    if isinstance(data, str) or isinstance(data, Path) and not data.exists():
        return data if isinstance(data, str) else "missing"
    h = hashlib.sha256()
    with io.BytesIO(data) if isinstance(data, bytes) else open(data, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def run(cmd: tuple, rows) -> int:
    """Run and print every row; 0 if all pass, else 1."""
    failed = 0
    for row in rows:
        with tempfile.TemporaryDirectory() as root, tempfile.TemporaryDirectory(dir=root) as cwd:
            out = Path(cwd, row.args[row.args.index("--out") + 1]) if row.out is not None else None
            if row.stale:
                out.write_bytes(row.out.read_bytes() + JUNK)
            with open(Path(root, "stdout"), "wb") as f:
                child = subprocess.Popen((row.prog or cmd) + row.args, cwd=cwd, stdout=f, env=ENV)
            (timer := threading.Timer(row.timeout, child.kill)).start()
            _, status, usage = os.wait4(child.pid, 0)
            timer.cancel()
            child.returncode = code = os.waitstatus_to_exitcode(status)  # -9 if the timer fired
            peak = usage.ru_maxrss / 1024
            problems = [f"exit code {code}, expected {row.code}"] * (code != row.code)
            problems += [f"{peak:.1f} MiB peak RSS, over {row.peak_mib}"] * (peak > row.peak_mib)
            problems += [f"{got.name} sha256 {sha256(got)} is not {want}"
                         for got, want in [(Path(f.name), row.stdout), (out, row.out)]
                         if want is not None and sha256(got) != sha256(want)]
        label = " ".join(row.args).removeprefix(f"{REPO}/")[:70] + " (stale out file)" * row.stale
        print(f"{'FAIL' if problems else 'ok':4} {peak:6.1f} MiB  {label}", *problems, sep="\n  ")
        failed += bool(problems)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"{len(rows) - failed} of {len(rows)} rows passed; the checker's own peak: {own:.1f} MiB")
    return 1 if failed else 0


N24 = "23,22,21,20,19,18,17,16,15,14,13,12,11,10,9,8,7,6,5,4,3,2,1,25"
ROWS = [
    *(Row((*argv, *(("--out", out) if out else ())), code, GOLDEN / f"{name}.stdout",
          out and golden_out_path(name), stale=stale)
      for name, (argv, out, code) in CASES.items() for stale in (False, True)[: 1 + bool(out)]),
    # n = 9 at SEARCH_MAX_VECTORS: int16 sums over the half cube, at most |w|_1 = 134. It read
    # 256 MiB through json.dumps and 92 MiB with full-cube sums and a w1/margin pair per entry.
    Row(("search", "9", "15", "--out", "out.json"), peak_mib=100, timeout=300,
        out="912a370a3b597e8f6f5e7a31cda38f377bd819a07d6d2f7822eac1c2d47831d4"),
    # n = 24, the arity cap: the peaks (98-102 MiB) are the int32 spectrum and one 2^18-entry
    # int16 array of wht's narrow stages; the table is built and tie-scanned row by row, with no
    # 2^n sums or mask, so it adds no large array before or beside them.
    Row(("analyze", N24), peak_mib=110, timeout=300,
        stdout="e535f6b02ffc06da6a3be76048fafa823a58971b62a0faf53684aed6765a3dfb"),
    # 24..1 has ties (tie_broken: true), the first at row 0 of the scan.
    Row(("analyze", ",".join(map(str, range(24, 0, -1))), "--tie-policy", "map_to_minus_one"),
        peak_mib=110, timeout=300,
        stdout="638897752442d9880131f0bf6e794804085c1cef177aa4ce3219ab01483641d7"),
    # Both outputs pinned: the transform and level sums are checked byte for byte at the cap.
    Row(("compare", N24, "3,3,3,3,3,3,3,3,3,3,3,3,1,1,1,1,1,1,1,1,1,1,1,2", "--grid", "65536",
         "--out", "out.csv"), peak_mib=110, timeout=120,
        stdout="480bcb9f747ceffd483b8b427a1e29ca389a6610423c09cf18233ea21bd99ede",
        out="e0a78bd1dc4a00e99a4f5a64f0bf8317fde3422cb071dda300dd898830859364"),
    # 2^16 - 1 intervals: t/G is no double, so the certified float grid carries x = x_h + x_l
    # at the cap. Both digests are those of the all-integer Horner and int / int CSV before it.
    Row(("compare", N24, "3,3,3,3,3,3,3,3,3,3,3,3,1,1,1,1,1,1,1,1,1,1,1,2", "--grid", "65535",
         "--out", "out.csv"), peak_mib=110, timeout=120,
        stdout="7910addb7913b57dc1721b7a73f5e70ef0a1b4dedb9f298f385e30d457c19cd1",
        out="78b413113903d28eb69248e26cc875d258df86d5b116ffd893f6e3b03c6a0d84"),
    # n = 24 in Python-int sums, the most comparisons MAX_SUM_BITS admits; 40 MiB, as its sums
    # are two half-length vectors.
    Row(("table", ",".join(["4611686018427387905"] + ["1"] * 23)), peak_mib=150, timeout=30,
        stdout="5bebfd2d7bf89fad13f91a178848719342d56d4415b25a56644eacafe3dfe6b4"),
    Row(("search", "5", "2", "--parallel", "33", "--out", "out.json"), code=2),  # > MAX_WORKERS
    Row(("compare", "2,2,1,1,1", "1,1,1,1,1", "--grid", "65537", "--out", "out.csv"), code=2),
    Row(("table", ",".join(["9" * 4000] * 24)), code=2, timeout=30),  # > MAX_SUM_BITS, no sums
    Row(("compare", "2,2,1,1,1", "1,1,1,1,1", "--out", "/dev/null")),  # written, not truncated
    Row(("compare", "1,1,1@-2", "1,1,1", "--out", "out.csv"), timeout=30),  # unequal W_0
    Row(("table", "4611686018427387905,3,1@-2"), stdout=b"aa\n"),  # sums in Python ints
    Row(("search", "5", "2", "--parallel", "8", "--out", "out.json"),  # no workers: same file
        out=golden_out_path("search_5_2")),
    *(Row((str(demo),), prog=(sys.executable,)) for demo in sorted(REPO.glob("demos/*.py"))),
]

if __name__ == "__main__":
    sys.exit(run(tuple(sys.argv[1:]), ROWS) if sys.argv[1:] else f"usage: {sys.argv[0]} CMD...")
