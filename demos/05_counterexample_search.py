"""Searching small weight vectors for functions less stable than majority.

The search walks canonical weight vectors (nonincreasing, entries in
[1, max_weight], gcd 1) in blocks, computes every block's weighted sums in
one pass and counts its Chow vectors instead of building a truth table per
vector, keeps the unbiased ones, and reports every W_1 strictly below
majority's.
Each reported function is tie-free, odd and monotone by construction; the
table predicates below confirm it. Coordinate permutations and sign flips
never change degree weights and common scaling never changes the function,
so the canonical slice is exhaustive.
"""

from boolfun import (
    canonical_weight_vectors,
    is_monotone,
    is_odd,
    is_unbiased,
    materialize,
    search_counterexamples,
    tie_witness,
)

print("=" * 64)
print("THE CANONICAL SLICE AT n=5, WEIGHTS UP TO 2")
print("=" * 64)
for w in canonical_weight_vectors(5, 2):
    print(f"  {w}")

print()
print("=" * 64)
print("SEARCH n=5, max_weight=2")
print("=" * 64)
for r in search_counterexamples(5, 2):
    print(f"  weights {r.spec.weights}: W_1 = {r.w1} vs majority {r.w1_majority}")
    f = materialize(r.spec)
    print(f"    margin {r.margin}, unbiased={is_unbiased(f)}, monotone={is_monotone(f)},"
          f" odd={is_odd(f)}, tie_free={tie_witness(r.spec) is None}")
    print(f"    truth table {r.table_hex!r}")

print()
print("=" * 64)
print("SMALL ARITIES HAVE NOTHING: n=3 up to weight 5")
print("=" * 64)
print(f"  results: {search_counterexamples(3, 5)}")
print("  (every unbiased 3-variable threshold function has W_1 >= 3/4 = Maj_3's)")

print()
print("=" * 64)
print("WIDER NET: n=7, weights up to 3")
print("=" * 64)
results = search_counterexamples(7, 3)
print(f"  {len(results)} distinct functions beat Maj_7's W_1, sorted by margin:")
for r in results:
    print(f"  {str(r.spec.weights):>24}  margin {str(r.margin):>8}  W_1 = {r.w1}")

print()
print("  duplicate truth tables collapse: weights (2,2,2,2,1) ARE Maj_5:")
from boolfun import LtfSpec, majority  # noqa: E402

print(f"  materialize((2,2,2,2,1)) == majority(5) -> "
      f"{materialize(LtfSpec((2, 2, 2, 2, 1))) == majority(5)}")
