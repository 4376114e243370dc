"""Multiplier ideal vs test ideal, side by side over a prime sweep.

For torus-invariant pairs on cyclic quotient surfaces both ideals are
monomial, so agreement can be checked by exact generator-set equality.
The harness runs the characteristic-zero computation once and the
Frobenius fixed point once per prime, wild primes p | r included, and
records the smallest tested prime from which agreement is unbroken.
"""

import json
from fractions import Fraction

from surfideals import PairSpec, compare_pair, hj_resolve
from surfideals.compare import catalog_entries, compare_entry

model = hj_resolve(7, 3)
pair = PairSpec(model, model.boundary_divisor(), Fraction(5, 4))
report = compare_pair(pair, primes=(2, 3, 5, 7, 11, 13))
print("1/7(1,3), Z = boundary, lambda = 5/4:")
print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
print()

print("catalog slice (every entry with r = 9):")
for entry in catalog_entries():
    if entry.r != 9:
        continue
    rep = compare_entry(entry, primes=(2, 5, 11, 31))
    verdict = "all equal" if rep.all_equal() else "DISAGREEMENT"
    print(f"  {entry.entry_id:42s} {verdict} (stable from p = {rep.stable_from_prime})")
