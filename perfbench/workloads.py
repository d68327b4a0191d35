"""Seeded workloads: the `boolfun` command lines each benchmark run issues.

A workload turns (seed, i) into the argv of its i-th command, so a run and
its traced twin replay the same inputs, and the same seed always gives the
same commands. The program sees only these generated arguments.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Positive weights are drawn from [1, MAX_WEIGHT]. At n = 11 against Maj_11
# this makes most curves cross majority's, so `curve-11` bisects on most
# commands; at n = 20 and 24 the spectral work does not depend on the weights.
MAX_WEIGHT = 5


def tie_free_weights(rng: random.Random, n: int) -> list[int]:
    """Positive integer weights in [1, MAX_WEIGHT] with an odd sum.

    Tie-free by construction at threshold 0: every +-w_i is congruent to w_i
    mod 2, so w . x is congruent to ||w||_1 mod 2 for every x. With ||w||_1
    odd, w . x is odd and never equals 0. Positive weights also make the
    function monotone, and odd (f(-x) = -f(x)), hence unbiased.
    """
    w = [rng.randint(1, MAX_WEIGHT) for _ in range(n)]
    if sum(w) % 2 == 0:
        i = rng.randrange(n)
        w[i] += 1 if w[i] < MAX_WEIGHT else -1
    return w


def render(weights) -> str:
    return ",".join(str(x) for x in weights)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a command family at a fixed input size."""

    name: str
    command: str  # boolfun subcommand; selects the output checker
    why: str
    arity: int
    grid: int = 256  # compare only
    against_majority: bool = False  # compare only: spec_g is Maj_n, else seeded
    max_weight: int = 0  # search only
    workers: int = 1  # search only: --parallel in untraced runs

    def argv(self, seed: int, i: int, out_dir: str, traced: bool = False) -> list[str]:
        """The i-th command of this workload under ``seed``."""
        rng = random.Random(f"{self.name}/{seed}/{i}")
        if self.command == "analyze":
            return ["analyze", render(tie_free_weights(rng, self.arity))]
        if self.command == "compare":
            f = render(tie_free_weights(rng, self.arity))
            if self.against_majority:
                g = render([1] * self.arity)
            else:
                g = render(tie_free_weights(rng, self.arity))
            return ["compare", f, g, "--grid", str(self.grid), "--out", f"{out_dir}/curve.csv"]
        # Traced runs use one worker so every span lands in this process.
        workers = 1 if traced else self.workers
        return [
            "search", str(self.arity), str(self.max_weight),
            "--parallel", str(workers),
            "--out", f"{out_dir}/search.json",
        ]

    def warmup_argv(self, out_dir: str) -> list[str]:
        """A small command of the same kind, run untimed before measuring.

        It loads the code paths lazily initialised on first use, without
        paying for a full-size command.
        """
        if self.command == "analyze":
            return ["analyze", "2,2,1,1,1"]
        if self.command == "compare":
            return ["compare", "2,2,1,1,1", "1,1,1,1,1", "--out", f"{out_dir}/warmup.csv"]
        return ["search", "5", "2", "--out", f"{out_dir}/warmup.json"]


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="analyze-20",
            command="analyze",
            arity=20,
            why="analyze at n=20: the only workload where the quadratic repunit-mask "
            "path of influence and is_monotone does most of the work",
        ),
        # Not in BENCHMARK.json, so no run gates on it; run it with report.py.
        # Out of L3, its command time depends on how much cache and memory
        # bandwidth other tenants of a shared host use: on a 2-vCPU VM it
        # moved between 6 s and 13 s within an hour, wider than any bound.
        Workload(
            name="compare-24",
            command="compare",
            arity=24,
            why="compare at the n=24 arity cap: materialize, signs, wht and "
            "stability_polynomial on a 128 MiB int64 spectrum, larger than a 105 MiB L3",
        ),
        Workload(
            name="search-9",
            command="search",
            arity=9,
            max_weight=8,
            workers=2,
            why="search 9 8 with 2 workers: per-candidate overhead over 11k tiny "
            "n=9 functions, JSON rendering and the process pool",
        ),
        Workload(
            name="curve-11",
            command="compare",
            arity=11,
            grid=2048,
            against_majority=True,
            why="compare n=11 specs against Maj_11 on a 2048-point grid: exact "
            "Fraction Horner evaluation, 2^-40 bisection and CSV rendering",
        ),
    ]
}
