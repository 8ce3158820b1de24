"""Calculus on the quotient algebra R/I tensored with polynomial boson
variables t_1..t_n.

Everything here is driven by a Groebner basis of I = (t_1,...,t_n) with
cofactors, which lets us expand any polynomial r as a finite or truncated
sum  r = sum_{i,delta} r_{(i,delta)} sigma(z_i) t^delta  where the z_i are
the standard monomials of R/I.  On top of that expansion sits the
structure tensor Gamma of the multiplication.

QuotientBasis.columns owns the exact t-adic columns of multiplication by
a polynomial r, i -> expansion of r z_i, kept per polynomial: the
transported multiplication r^# of the arena (sdrcore) and the
coefficient tables of the interaction vertices (normalorder) both read
them there.
"""

from math import lcm

from .poly import GroebnerBasis, Polynomial, divide, mono_mul
from .superspace import add_into


class CapExceeded(Exception):
    pass


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
        self._columns = {}

    def basis_poly(self, i):
        return Polynomial.monomial(self.nvars, self.monomials[i])

    def columns(self, r):
        """The exact t-adic columns of multiplication by r: {i: {(l,
        delta): coeff}} over the basis indices i with r z_i non-zero.
        Each column is expanded with the cap raised until it is exact.
        Kept per polynomial, so equal polynomials share one dict; callers
        only read it."""
        cols = self._columns.get(r)
        if cols is None:
            cols = {}
            for i in range(self.mu):
                p = r * self.basis_poly(i)
                cap = max(p.total_degree(), 1)
                for _ in range(12):
                    exp = t_adic_expand(p, self, cap)
                    if exp.exact_beyond_cap:
                        break
                    cap *= 2
                else:
                    raise ValueError("t-adic expansion did not terminate; "
                                     "is t quasi-regular?")
                if exp.coefficients:
                    cols[i] = exp.coefficients
            self._columns[r] = cols
        return cols


class TAdicExpansion:
    def __init__(self, coefficients, exact_beyond_cap):
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
        quots, rem = divide(p, qb.gb.basis, qb.gb.order)
        for m, c in rem.terms.items():
            add_into(coeffs, (qb.index[m], delta), c)
        for j in range(qb.n):
            aj = Polynomial.zero(qb.nvars)
            for q, cof in zip(quots, qb.gb.cofactors):
                if q:
                    aj = aj + q * cof[j]
            if not aj:
                continue
            if sum(delta) >= cap:
                exact = False
                continue
            ej = tuple(1 if k == j else 0 for k in range(qb.n))
            work.append((mono_mul(delta, ej), aj))
    return TAdicExpansion(coeffs, exact)


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

    def products_of(self, i, j):
        """All (k, delta, coeff) with Gamma^{ij}_{k delta} nonzero."""
        return self._products.get((i, j), ())

