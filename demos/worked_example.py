"""Tour of the two-object model for W = x^5/5.

Builds the Koszul factorisations X = {x^2, x^3/5} and Y = {x^3, x^2/5},
prints the quotient-ring data and the derived interaction vertices, then
evaluates a couple of higher products and checks the defining relations.

Run from the repository root:  python3 demos/worked_example.py
"""

from fractions import Fraction

from ainfmf.ainfmodel import Model
from ainfmf.mfcat import KoszulFactorisation
from ainfmf.normalorder import FeynmanBackend, VertexCatalog
from ainfmf.poly import parse_poly
from ainfmf.quotient import QuotientBasis, t_adic_expand
from ainfmf.superspace import rational_state, scaled_state

W = parse_poly("1/5*x1^5", 1)
X = KoszulFactorisation(
    [(parse_poly("x1^2", 1), parse_poly("1/5*x1^3", 1))], W, "X")
Y = KoszulFactorisation(
    [(parse_poly("x1^3", 1), parse_poly("1/5*x1^2", 1))], W, "Y")
qb = QuotientBasis([parse_poly("x1^4", 1)])
model = Model([X, Y], qb, cap=2)

print("potential W =", W)
print("quotient basis:", [str(qb.basis_poly(i)) for i in range(qb.mu)])

exp = t_adic_expand(parse_poly("x1^2 + x1^5", 1), qb, 3)
print("t-adic expansion of x^2 + x^5:", dict(exp.coefficients))

print()
print("interaction vertices for Hom(X, Y):")
cat = VertexCatalog(model.pair(0, 1).arena)
for row in cat.rows():
    if row["coefficient"] is None:
        continue
    print("  %-4s  coeff %-5s  shifts %s"
          % (row["vertex"], row["coefficient"], row["shifts"]))

# a binary product and a genuine higher product; mu2_transported works
# on states as integer numerators over one denominator
space = model.pair(0, 1).arena.space
a = {(2, 0, (0,)): Fraction(1)}   # xi1 in End(Y)
b = {(4, 0, (0,)): Fraction(1)}   # xibar1 in Hom(X, Y)
out = rational_state(model.mu2_transported(
    scaled_state(a), (1, 1), scaled_state(b), (0, 1)))
print()
print("mu_2(xi1, xibar1) =",
      {space.key_label(k): v for k, v in out.items() if v})

path = (0, 0, 1, 1)
inputs = [
    {(2, 2, (0,)): Fraction(1)},
    {(6, 1, (0,)): Fraction(1)},
    {(4, 3, (0,)): Fraction(1)},
]
out = model.rho_apply(3, path, inputs)
print("rho_3 sample:", {space.key_label(k): v for k, v in out.items() if v})

# one tree's contribution, recomputed by the normal-ordering backend
backend = FeynmanBackend(model)
combo = tuple(next(iter(s)) for s in inputs)
c = backend.c_tau((1, (2, 3)), path, combo, (4, 3, (0,)))
print("right-comb contribution from the normal-ordering backend:", c)

report = model.verify_ainf(2)
print()
print("A-infinity relations up to level 2: checked %d, failures %d"
      % (report["checked"], len(report["failures"])))
