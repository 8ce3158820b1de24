"""Minimal model of the stabilised residue field for W = x^3.

The endomorphisms of the Koszul object {x, x^2} retract onto the
exterior algebra on one odd generator xibar.  The retract kills rho_1,
rho_2 restricts to the exterior product, and the cube of the potential
shows up as rho_3(xibar, xibar, xibar) = unit.

Run from the repository root:  python3 demos/residue_field.py
"""

from fractions import Fraction

from ainfmf.ainfmodel import Model, kstab_minimal
from ainfmf.mfcat import HomotopySet, KoszulFactorisation
from ainfmf.poly import Polynomial, parse_poly
from ainfmf.quotient import QuotientBasis

W = parse_poly("x1^3", 1)
X = KoszulFactorisation(
    [(parse_poly("x1", 1), parse_poly("x1^2", 1))], W, "kstab")
qb = QuotientBasis([parse_poly("x1", 1)])
one = Polynomial.const(1, 1)
hom = HomotopySet(F=[[Polynomial.zero(1)]], G=[[one]])
model = Model([X], qb, cap=4, homotopies={0: hom})

result = kstab_minimal(model, 0, [parse_poly("x1^2", 1)], level=4)
space = model.pair(0, 0).arena.space
print("rho_1 vanishes on the kernel:", result["rho1_zero"])
print("kernel closed under rho_j, j <= 4:", result["closed"])
print("kernel basis:")
for st in result["kernel"]:
    print("  ", {space.key_label(k): v for k, v in st.items()})

xibar_pos = space.gen_pos("xibar", 0)
xibar = {(1 << xibar_pos, 0, (0,)): Fraction(1)}
out = model.rho_apply(3, (0, 0, 0, 0), [xibar, xibar, xibar])
print("rho_3(xibar, xibar, xibar) =",
      {space.key_label(k): v for k, v in out.items() if v})

cliff = model.e1_and_clifford((0, 0))
print()
print("gamma on the core basis (it acts as -xi*):")
for key in model.pair(0, 0).arena.core_basis():
    img = {space.key_label(k): v
           for k, v in cliff["gamma"][0].get(key, {}).items() if v}
    print("  %-12s -> %s" % (space.key_label(key), img or 0))
