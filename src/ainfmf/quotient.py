"""Calculus on the quotient algebra R/I tensored with polynomial boson
variables t_1..t_n.

Everything here is driven by a Groebner basis of I = (t_1,...,t_n) with
cofactors, which lets us expand any polynomial r as a finite or truncated
sum  r = sum_{i,delta} r_{(i,delta)} sigma(z_i) t^delta  where the z_i are
the standard monomials of R/I.  On top of that expansion sits the
structure tensor Gamma of the multiplication.  The transported
multiplication operator r^# acts on the arena's states in sdrcore.
"""

from fractions import Fraction
from math import lcm

from .poly import GroebnerBasis, Polynomial
from .superspace import add_into


class CapExceeded(Exception):
    pass


def _add_delta(a, b):
    return tuple(x + y for x, y in zip(a, b))


class QuotientBasis:
    """Standard monomial basis of R/I for I generated by a sequence t.

    Monomials are listed ascending in the active order, so index 0 is the
    constant monomial 1.
    """

    def __init__(self, tseq, order="grevlex"):
        if not tseq:
            raise ValueError("empty t-sequence")
        self.nvars = tseq[0].nvars
        self.n = len(tseq)
        self.tseq = list(tseq)
        self.order = order
        self.gb = GroebnerBasis(tseq, order)
        self.monomials = self.gb.standard_monomials()
        self.mu = len(self.monomials)
        self.index = {m: i for i, m in enumerate(self.monomials)}
        assert self.monomials[0] == (0,) * self.nvars

    def sigma(self, r):
        """Normal form of r: the canonical representative supported on
        standard monomials."""
        return self.gb.reduce(r)

    def basis_poly(self, i):
        return Polynomial.monomial(self.nvars, self.monomials[i])


class TAdicExpansion:
    def __init__(self, source, cap, coefficients, exact_beyond_cap):
        self.source = source
        self.cap = cap
        # (basis index i, boson multi-index delta) -> Fraction
        self.coefficients = coefficients
        self.exact_beyond_cap = exact_beyond_cap


def t_adic_expand(r, qb, cap):
    """Expand r = sum r_{(i,delta)} sigma(z_i) t^delta by iterated
    division: the remainder gives the coefficients at the current delta,
    and the t_j-cofactor of the quotient is expanded at delta + e_j."""
    coeffs = {}
    exact = True
    zero_delta = (0,) * qb.n
    work = [(zero_delta, r)]
    while work:
        delta, p = work.pop()
        quots, rem = qb.gb.reduce_with_quotients(p)
        for m, c in rem.terms.items():
            add_into(coeffs, (qb.index[m], delta), c)
        for j in range(qb.n):
            aj = Polynomial.zero(qb.nvars)
            for q, cof in zip(quots, qb.gb.cofactors):
                if q:
                    aj = aj + q * cof[j]
            if aj.is_zero():
                continue
            if sum(delta) >= cap:
                exact = False
                continue
            ej = tuple(1 if k == j else 0 for k in range(qb.n))
            work.append((_add_delta(delta, ej), aj))
    return TAdicExpansion(r, cap, coeffs, exact)


class GammaTensor:
    """sigma(z_i) sigma(z_j) = sum_{k,delta} Gamma^{ij}_{k delta}
    sigma(z_k) t^delta, stored for |delta| <= cap; den is the lcm of the
    entries' denominators."""

    def __init__(self, qb, cap):
        self.qb = qb
        self.cap = cap
        self.entries = {}
        for i in range(qb.mu):
            for j in range(i, qb.mu):
                prod = qb.basis_poly(i) * qb.basis_poly(j)
                exp = t_adic_expand(prod, qb, cap)
                for (k, delta), c in exp.coefficients.items():
                    self.entries[(i, j, k, delta)] = c
                    if i != j:
                        self.entries[(j, i, k, delta)] = c
        self.den = lcm(*(c.denominator for c in self.entries.values()))
        # (i, j) -> [(k, delta, coeff)], in entries order
        self._products = {}
        for (i, j, k, delta), c in self.entries.items():
            self._products.setdefault((i, j), []).append((k, delta, c))

    def get(self, i, j, k, delta):
        return self.entries.get((i, j, k, delta), Fraction(0))

    def products_of(self, i, j):
        """All (k, delta, coeff) with Gamma^{ij}_{k delta} nonzero."""
        return self._products.get((i, j), ())

