"""Resolving cyclic quotient surface singularities.

The quotient 1/r(1,a) of the plane by the cyclic group of order r acting
with weights (1, a) is resolved by a chain of rational curves whose
self-intersections -b_i come from the negative continued fraction of
r/a.  This script walks through the construction and the two classical
sanity checks: du Val points 1/r(1,r-1) resolve to chains of -2 curves
with zero discrepancies, and the chain matrix has |det| = r.  For a
chain, det(-M) is the continuant of the b_i: K_0 = 1, K_1 = b_1 and
K_i = b_i K_{i-1} - K_{i-2}, the numerator of [[b_1, ..., b_s]] = r/a.
"""

from surfideals import discrepancies, hj_resolve, to_resolution

for r, a in [(2, 1), (3, 1), (3, 2), (5, 2), (7, 4), (12, 5)]:
    model = hj_resolve(r, a)
    res = to_resolution(model)
    chain = [-b for b in model.hj]
    disc = discrepancies(res)
    det, previous = 1, 0
    for b in model.hj:
        det, previous = b * det - previous, det
    print(f"1/{r}(1,{a}):")
    print(f"  chain         {chain}")
    print(f"  rays          {[vec for _, vec in model.rays()]}")
    print(f"  discrepancies {[str(disc[c.label.name]) for c in res.curves]}")
    print(f"  det(-M) = {det} (order of the local class group)")
print()
print("A singularity is canonical exactly when all discrepancies are >= 0;")
print("for quotient surface points that happens only at the du Val chains:")
for r in (2, 4, 8):
    model = hj_resolve(r, r - 1)
    print(f"  1/{r}(1,{r-1}) -> chain {[-b for b in model.hj]}, discrepancies all 0")
