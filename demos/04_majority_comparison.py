"""Majority is not least stable: the 5-variable comparison, end to end.

Among unbiased functions the stability curves of f and Maj_n meet at both
endpoints of [0, 1], so near rho = 0 the ordering is decided by the linear
coefficients W_1. The bundled function sign(2x1 + 2x2 + x3 + x4 + x5) has
W_1 = 44/64 against Maj_5's 45/64, so it is strictly LESS stable than
majority for small rho, although "Majority is Least Stable" would predict
otherwise for every linear threshold function.
"""

from fractions import Fraction

from boolfun import (
    compare_stability,
    counterexample,
    crossover_scan,
    majority,
    verify_counterexample,
)

print("=" * 64)
print("EXACT VERIFICATION OF THE HAND-COUNTABLE VALUES")
print("=" * 64)
report = verify_counterexample()
for check in report.checks:
    print(f"  [{'ok' if check.passed else 'XX'}] {check.name}: "
          f"claimed {check.claimed}, computed {check.computed}")
print(f"  overall: {'PASS' if report.passed else f'FAIL at {report.first_failure}'}")

print()
print("=" * 64)
print("THE CURVE COMPARISON, EXACTLY")
print("=" * 64)
f = counterexample()
maj = majority(5)
cmp = compare_stability(f, maj, grid_size=100)
print(f"  D(rho) = Stab[Maj_5] - Stab[f], coefficients {[str(c) for c in cmp.diff.weights]}")
print(f"  D'(0) = W^1[Maj_5] - W^1[f] = {cmp.margin}")
print(f"  verdict: {cmp.verdict}")
rho0, d0 = cmp.small_rho_witness
print(f"  witness: D > 0 on every sampled rho in (0, {rho0}];"
      f" e.g. D({rho0}) = {d0}")
at_tenth = dict(cmp.grid)[Fraction(1, 10)]
print(f"  at rho = 1/10: D = {at_tenth} ~ {float(at_tenth):.3e} > 0")

print()
print("=" * 64)
print("WHERE THE CURVES CROSS")
print("=" * 64)
brackets = crossover_scan(f, maj)
print(f"  sign changes of D located on (0, 1): {len(brackets)}")
for lo, hi in brackets:
    print(f"  bracket [{float(lo):.15f}, {float(hi):.15f}], width <= 2^-40")
print("  (D factors as rho (5 rho^2 - 1)(rho^2 - 1)/64: the crossing is 1/sqrt(5);")
print("   f is less stable below it and more stable above it, equal at 0 and 1)")
