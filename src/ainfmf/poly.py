"""Sparse multivariate polynomials over Q.

Monomials are exponent tuples, coefficients are fractions.Fraction.
Provides monomial orders (lex, grlex, grevlex), multivariate division
with quotient tracking, Buchberger's algorithm with cofactor tracking
(each Groebner basis element is recorded as an explicit combination of
the input generators), and the finiteness check for quotient dimension.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import combinations


def lex_key(m):
    return tuple(m)


def grlex_key(m):
    return (sum(m), tuple(m))


def grevlex_key(m):
    # larger key == larger monomial: total degree first, ties broken by
    # smallest exponent on the last variable in which they differ
    return (sum(m), tuple(-e for e in reversed(m)))


ORDERS = {"lex": lex_key, "grlex": grlex_key, "grevlex": grevlex_key}


def mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def mono_div(a, b):
    return tuple(x - y for x, y in zip(a, b))


def mono_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


class Polynomial:
    """Immutable sparse polynomial: dict exponent-tuple -> Fraction."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        clean = {}
        if terms:
            for m, c in terms.items():
                c = Fraction(c)
                if c:
                    clean[tuple(m)] = c
        self.terms = clean

    @classmethod
    def zero(cls, nvars):
        return cls(nvars)

    @classmethod
    def const(cls, nvars, c):
        c = Fraction(c)
        return cls(nvars, {(0,) * nvars: c} if c else {})

    @classmethod
    def var(cls, nvars, i, power=1):
        e = [0] * nvars
        e[i] = power
        return cls(nvars, {tuple(e): Fraction(1)})

    @classmethod
    def monomial(cls, nvars, expts, c=1):
        return cls(nvars, {tuple(expts): Fraction(c)})

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.const(self.nvars, other)
        return isinstance(other, Polynomial) and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.const(self.nvars, other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, Fraction(0)) + c
        return Polynomial(self.nvars, out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.nvars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.const(self.nvars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Fraction(other)
            return Polynomial(
                self.nvars, {m: c * other for m, c in self.terms.items()}
            )
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                out[m] = out.get(m, Fraction(0)) + c1 * c2
        return Polynomial(self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, k):
        out = Polynomial.const(self.nvars, 1)
        for _ in range(k):
            out = out * self
        return out

    def leading(self, order="grevlex"):
        """(monomial, coefficient) of the leading term."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        key = ORDERS[order]
        m = max(self.terms, key=key)
        return m, self.terms[m]

    def total_degree(self):
        return max((sum(m) for m in self.terms), default=-1)

    def diff(self, i):
        out = {}
        for m, c in self.terms.items():
            if m[i]:
                e = list(m)
                e[i] -= 1
                out[tuple(e)] = out.get(tuple(e), Fraction(0)) + c * m[i]
        return Polynomial(self.nvars, out)

    def sorted_terms(self, order="grevlex"):
        key = ORDERS[order]
        return sorted(self.terms.items(), key=lambda t: key(t[0]), reverse=True)

    def __str__(self):
        return format_poly(self)

    __repr__ = __str__


def format_poly(p, varnames=None):
    """Canonical text form: descending grevlex, coefficients as p/q,
    variables x1..xn (e.g. "1/5*x1^3 - 2*x1*x2")."""
    if not p.terms:
        return "0"
    if varnames is None:
        varnames = [f"x{i + 1}" for i in range(p.nvars)]
    parts = []
    for m, c in p.sorted_terms():
        factors = []
        for i, e in enumerate(m):
            if e == 1:
                factors.append(varnames[i])
            elif e > 1:
                factors.append(f"{varnames[i]}^{e}")
        if not factors:
            body = str(abs(c))
        elif abs(c) == 1:
            body = "*".join(factors)
        else:
            body = str(abs(c)) + "*" + "*".join(factors)
        sign = "-" if c < 0 else "+"
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out


_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<var>[a-zA-Z_]\w*)|(?P<op>[-+*^()]))"
)


def is_variable_name(name):
    """Whether parse_poly reads name as one variable token."""
    m = _TOKEN.fullmatch(name)
    return m is not None and m.group("var") == name


def parse_poly(text, nvars, varnames=None):
    """Parse expressions like "x1^2 - 2/5*x1*x2 + 3" into a Polynomial.

    Supports + - * ^ and parentheses; implicit multiplication is not
    supported (write 2*x1 not 2x1).
    """
    if varnames is None:
        varnames = [f"x{i + 1}" for i in range(nvars)]
    index = {v: i for i, v in enumerate(varnames)}
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ValueError(f"bad token at {text[pos:]!r}")
            break
        pos = m.end()
        if m.group("num"):
            try:
                tokens.append(("num", Fraction(m.group("num"))))
            except ZeroDivisionError:
                raise ValueError(
                    f"zero denominator in {m.group('num')!r}") from None
        elif m.group("var"):
            v = m.group("var")
            if v not in index:
                raise ValueError(f"unknown variable {v!r}")
            tokens.append(("var", index[v]))
        else:
            tokens.append(("op", m.group("op")))
    tokens.append(("end", None))

    k = [0]

    def peek():
        return tokens[k[0]]

    def take():
        t = tokens[k[0]]
        k[0] += 1
        return t

    def atom():
        kind, val = take()
        if kind == "num":
            return Polynomial.const(nvars, val)
        if kind == "var":
            base = Polynomial.var(nvars, val)
        elif kind == "op" and val == "(":
            base = expr()
            if take() != ("op", ")"):
                raise ValueError("expected )")
        else:
            raise ValueError(f"unexpected {val!r}")
        if peek() == ("op", "^"):
            take()
            ekind, e = take()
            if ekind != "num" or e.denominator != 1:
                raise ValueError("exponent must be an integer")
            base = base ** int(e)
        return base

    def term():
        out = atom()
        while peek() == ("op", "*"):
            take()
            out = out * atom()
        return out

    def expr():
        if peek() == ("op", "-"):
            take()
            out = -term()
        else:
            if peek() == ("op", "+"):
                take()
            out = term()
        while peek()[0] == "op" and peek()[1] in "+-":
            _, op = take()
            t = term()
            out = out + t if op == "+" else out - t
        return out

    out = expr()
    if peek()[0] != "end":
        raise ValueError(f"trailing input at token {peek()!r}")
    return out


def divide(f, divisors, order="grevlex"):
    """Multivariate division: f = sum q_i * divisors_i + r.

    Returns (quotients, remainder); no term of r is divisible by any
    leading monomial of the divisors.
    """
    key = ORDERS[order]
    nvars = f.nvars
    lead = [g.leading(order) for g in divisors]
    quots = [dict() for _ in divisors]
    rem = {}
    work = dict(f.terms)
    while work:
        m = max(work, key=key)
        c = work[m]
        if not c:
            del work[m]
            continue
        for i, (lm, lc) in enumerate(lead):
            if mono_divides(lm, m):
                qm = mono_div(m, lm)
                qc = c / lc
                quots[i][qm] = quots[i].get(qm, Fraction(0)) + qc
                # cancels the leading term of work exactly
                for gm, gc in divisors[i].terms.items():
                    t = mono_mul(qm, gm)
                    work[t] = work.get(t, Fraction(0)) - qc * gc
                    if not work[t]:
                        del work[t]
                break
        else:
            rem[m] = rem.get(m, Fraction(0)) + c
            del work[m]
    return (
        [Polynomial(nvars, q) for q in quots],
        Polynomial(nvars, rem),
    )


class GroebnerBasis:
    """Reduced Groebner basis of (t_1, .., t_m) with cofactors.

    basis[i] is monic; cofactors[i] is the list h with
    basis[i] == sum_j h[j] * t[j], kept exact through reduction and
    interreduction.
    """

    def __init__(self, gens, order="grevlex"):
        if not gens:
            raise ValueError("need at least one generator")
        self.order = order
        self.gens = list(gens)
        self.nvars = gens[0].nvars
        self._compute()

    def _compute(self):
        order = self.order
        m = len(self.gens)
        nvars = self.nvars

        def unit_cof(i):
            cof = [Polynomial.zero(nvars) for _ in range(m)]
            cof[i] = Polynomial.const(nvars, 1)
            return cof

        basis = []  # list of (poly, cofactors)
        for i, g in enumerate(self.gens):
            if g:
                basis.append((g, unit_cof(i)))
        if not basis:
            raise ValueError("all generators are zero")

        def reduce_by(p, pcof, divisors):
            """The remainder of p by the polys of divisors, a list of
            (poly, cofactors), and its cofactors: pcof minus q times
            each divisor's cofactors."""
            quots, rem = divide(p, [b for b, _ in divisors], order)
            cof = list(pcof)
            for q, (_, bcof) in zip(quots, divisors):
                if q:
                    for j in range(m):
                        cof[j] = cof[j] - q * bcof[j]
            return rem, cof

        pairs = list(combinations(range(len(basis)), 2))
        while pairs:
            i, j = pairs.pop()
            gi, ci = basis[i]
            gj, cj = basis[j]
            mi, lci = gi.leading(order)
            mj, lcj = gj.leading(order)
            lcm = mono_lcm(mi, mj)
            if lcm == mono_mul(mi, mj):
                continue  # coprime leading terms: S-poly reduces to zero
            ai = Polynomial.monomial(self.nvars, mono_div(lcm, mi), 1 / lci)
            aj = Polynomial.monomial(self.nvars, mono_div(lcm, mj), 1 / lcj)
            s = ai * gi - aj * gj
            scof = [ai * ci[k] - aj * cj[k] for k in range(m)]
            rem, rcof = reduce_by(s, scof, basis)
            if rem:
                basis.append((rem, rcof))
                new = len(basis) - 1
                pairs.extend((k, new) for k in range(new))

        # minimalize: ascending scan keeps only elements whose leading
        # monomial is not a multiple of an earlier one (divisor <= multiple
        # in every monomial order, so ascending order suffices)
        key = ORDERS[order]
        basis.sort(key=lambda t: key(t[0].leading(order)[0]))
        minimal = []
        for g, cof in basis:
            lm = g.leading(order)[0]
            if not any(
                mono_divides(h.leading(order)[0], lm) for h, _ in minimal
            ):
                minimal.append((g, cof))
        basis = minimal

        # reduce each element against the others and make monic
        reduced = []
        for i, (g, cof) in enumerate(basis):
            rem, rcof = reduce_by(g, cof, basis[:i] + basis[i + 1:])
            if rem:
                _, lc = rem.leading(self.order)
                rem = rem * (1 / lc)
                rcof = [c * (1 / lc) for c in rcof]
                reduced.append((rem, rcof))
        key = ORDERS[self.order]
        reduced.sort(key=lambda t: key(t[0].leading(self.order)[0]))
        self.basis = [g for g, _ in reduced]
        self.cofactors = [c for _, c in reduced]

    def reduce_with_quotients(self, f):
        return divide(f, self.basis, self.order)

    def leading_monomials(self):
        return [g.leading(self.order)[0] for g in self.basis]

    def standard_monomials(self):
        """Monomials outside the leading ideal, ascending in the order.

        Raises ValueError if the quotient is zero or infinite
        dimensional.
        """
        leads = self.leading_monomials()
        nvars = self.nvars
        if (0,) * nvars in leads:
            raise ValueError("the ideal is the unit ideal, so the quotient "
                             "ring is zero")
        bound = [None] * nvars
        for lm in leads:
            nz = [i for i in range(nvars) if lm[i]]
            if len(nz) == 1:
                i = nz[0]
                if bound[i] is None or lm[i] < bound[i]:
                    bound[i] = lm[i]
        if None in bound:
            raise ValueError(
                "quotient ring is infinite dimensional: no power of "
                "variable %d lies in the ideal" % (bound.index(None) + 1))
        monos = []

        def rec(prefix):
            if len(prefix) == nvars:
                m = tuple(prefix)
                if not any(mono_divides(lm, m) for lm in leads):
                    monos.append(m)
                return
            for e in range(bound[len(prefix)]):
                rec(prefix + [e])

        rec([])
        monos.sort(key=ORDERS[self.order])
        return monos
