"""Test ideals from first principles: Frobenius traces on monomials.

In characteristic p the trace maps on a toric chart act on monomials by
exact exponent division, x^u -> x^((u + c)/p^e), with the twist c ranging
over a finitely generated module.  The test ideal is the smallest
nonzero ideal stable under all of them; the fixed-point computation
below watches it stabilize.  Every function here takes a pair
(X, lambda Z) as one validated `PairSpec` and the characteristic as a
`CharPContext`.
"""

from fractions import Fraction

from surfideals import CharPContext, PairSpec, hj_resolve, test_ideal, test_ideal_detailed, trace_maps, trace_value

# -- the trace map, concretely, on the smooth chart ---------------------------
smooth = hj_resolve(1, 1)
p = 3
ctx = CharPContext(p)
tm = trace_maps(PairSpec(smooth, smooth.divisor({})), ctx, 1)[0]
print(f"smooth chart, p = {p}: minimal depth-1 trace map has twist {tm.twist}")
for u in [(p - 1, p - 1), (2 * p - 1, p - 1), (1, 0)]:
    value = trace_value(p, tm, u)
    print(f"  x^{u} -> " + (f"x^{value}" if value else "0"))
print()

# -- closed form on the smooth chart ------------------------------------------
z = smooth.divisor({"BR": 1})  # the divisor of the first coordinate
print("tau(A^2, lambda * div x), p = 2:")
for lam in (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(7, 3)):
    tau = test_ideal(PairSpec(smooth, z, lam), CharPContext(2))
    print(f"  lambda = {lam}: {'unit ideal' if tau.is_unit() else list(tau.gens)}")
print("  (the jump at each integer is the F-pure threshold pattern of a smooth divisor)")
print()

# -- strong F-regularity of a quotient, wild prime p = 5 included --------------
model = hj_resolve(5, 3)
for p in (2, 5, 7, 31):
    detail = test_ideal_detailed(PairSpec(model, model.boundary_divisor(), Fraction(2, 3)), CharPContext(p))
    tau = detail.ideal
    print(
        f"1/5(1,3), W = (2/3) boundary, p = {p}: "
        + ("unit ideal" if tau.is_unit() else f"generators {list(tau.gens)}")
        + f"  [depth {detail.depth_used}]"
    )
