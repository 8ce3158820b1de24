"""Calculus on the quotient algebra R/I tensored with polynomial boson
variables t_1..t_n.

Everything here is driven by a Groebner basis of I = (t_1,...,t_n) with
cofactors, which lets us expand any polynomial r as a finite or truncated
sum  r = sum_{i,delta} r_{(i,delta)} sigma(z_i) t^delta  where the z_i are
the standard monomials of R/I.  On top of that expansion sit the structure
tensor Gamma of the multiplication, the connection components d/dt_i,
and the rescaled Euler idempotent.  The transported multiplication
operator r^# acts on the arena's states in sdrcore.
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


def dt_operator(i, n):
    """The formal partial derivative in t_i acting on states
    {(h, delta): coeff}: basis-wise delta_i * t^(delta - e_i)."""

    def op(state):
        out = {}
        for (h, delta), c in state.items():
            if delta[i] == 0:
                continue
            nd = tuple(e - 1 if k == i else e for k, e in enumerate(delta))
            add_into(out, (h, nd), c * delta[i])
        return out

    return op


def dt_of_polynomial(r, qb, i, cap=None):
    """d/dt_i of a polynomial r, computed through its expansion, returned
    as a polynomial (t powers substituted back).  Needs the expansion to
    terminate within the cap."""
    if cap is None:
        cap = r.total_degree() + 1
    exp = t_adic_expand(r, qb, cap)
    if not exp.exact_beyond_cap:
        raise CapExceeded("expansion of r did not terminate within the cap")
    deriv = dt_operator(i, qb.n)(
        {key: c for key, c in exp.coefficients.items()}
    )
    out = Polynomial.zero(qb.nvars)
    for (h, delta), c in deriv.items():
        p = Polynomial.const(qb.nvars, c) * qb.basis_poly(h)
        for j, e in enumerate(delta):
            for _ in range(e):
                p = p * qb.tseq[j]
        out = out + p
    return out


# The Koszul differential of the sequence t_1..t_n and the connection, on
# zero- and one-form states.  A zero-form state is {(h, delta): c}; a
# one-form state is {(h, delta, j): c} for the component along dz_j.


def koszul_d(qb, form_state):
    out = {}
    for key, c in form_state.items():
        h, delta, j = key
        nd = tuple(e + 1 if k == j else e for k, e in enumerate(delta))
        add_into(out, (h, nd), c)
    return out


def nabla0(qb, state):
    out = {}
    for (h, delta), c in state.items():
        for j, e in enumerate(delta):
            if e == 0:
                continue
            nd = tuple(x - 1 if k == j else x for k, x in enumerate(delta))
            add_into(out, (h, nd, j), c * e)
    return out


def euler_idempotent(qb, state):
    """d_K (d_K nabla^1 + nabla^0 d_K)^{-1} nabla^0 applied to a zero-form
    state: the diagonal operator in the middle scales the dz_j component
    at t-degree |N| by 1/(1 + |N|)."""
    one_form = nabla0(qb, state)
    scaled = {}
    for (h, delta, j), c in one_form.items():
        scaled[(h, delta, j)] = c / (1 + sum(delta))
    return koszul_d(qb, scaled)
