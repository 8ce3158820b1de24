from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ainfmf.poly import (
    GroebnerBasis,
    Polynomial,
    divide,
    format_poly,
    grevlex_key,
    grlex_key,
    lex_key,
    parse_poly,
)


def P(text, n=2):
    return parse_poly(text, n)


def normal_form(gb, f):
    """The normal form of f modulo a Groebner basis: the remainder of
    its division."""
    return gb.reduce_with_quotients(f)[1]


def test_parse_format_roundtrip():
    p = P("x1^2 - 2/5*x1*x2 + 3")
    assert format_poly(p) == "x1^2 - 2/5*x1*x2 + 3"
    assert parse_poly(format_poly(p), 2) == p


def test_parse_rejects_a_zero_denominator():
    # Fraction raises ZeroDivisionError, which callers that catch parse
    # errors as ValueError would let through
    with pytest.raises(ValueError, match="zero denominator"):
        parse_poly("1/0", 1)


def test_arithmetic():
    x = Polynomial.var(1, 0)
    assert (x + 1) * (x - 1) == x ** 2 - 1
    assert (x ** 2).diff(0) == 2 * x
    p = parse_poly("1/5*x1^5", 1)
    assert p.diff(0) == parse_poly("x1^4", 1)


def test_orders():
    # x1 > x2 in all three orders; degree dominates in graded orders
    a, b, c = (1, 0), (0, 1), (0, 2)
    for key in (lex_key, grlex_key, grevlex_key):
        assert key(a) > key(b)
    assert lex_key(a) > lex_key(c)
    assert grlex_key(c) > grlex_key(a)
    assert grevlex_key(c) > grevlex_key(a)
    # grevlex vs grlex differ on x1*x3^2 vs x2^2*x3 (classic example)
    m1, m2 = (1, 0, 2), (0, 2, 1)
    assert grlex_key(m1) > grlex_key(m2)
    assert grevlex_key(m2) > grevlex_key(m1)


def test_division_identity():
    f = P("x1^2*x2 + x1*x2^2 + x2^2")
    gs = [P("x1*x2 - 1"), P("x2^2 - 1")]
    quots, rem = divide(f, gs, "lex")
    assert sum((q * g for q, g in zip(quots, gs)), rem) == f
    assert rem == P("x1 + x2 + 1")


coef = st.integers(-4, 4).map(Fraction)
expt = st.tuples(st.integers(0, 3), st.integers(0, 3))
polys = st.dictionaries(expt, coef, max_size=5).map(
    lambda d: Polynomial(2, d)
)


@settings(max_examples=60, deadline=None)
@given(polys, polys, polys)
def test_division_identity_random(f, g1, g2):
    divisors = [g for g in (g1, g2) if g]
    if not divisors:
        return
    quots, rem = divide(f, divisors)
    assert sum((q * g for q, g in zip(quots, divisors)), rem) == f
    lms = [g.leading()[0] for g in divisors]
    for m in rem.terms:
        assert not any(all(a <= b for a, b in zip(lm, m)) for lm in lms)


def test_groebner_cofactors():
    gens = [P("x1^2 + x2^2 - 1"), P("x1*x2 - 2")]
    gb = GroebnerBasis(gens)
    for g, cof in zip(gb.basis, gb.cofactors):
        assert sum((h * t for h, t in zip(cof, gens)), Polynomial.zero(2)) == g
    # remainders of the generators themselves vanish
    for t in gens:
        assert normal_form(gb, t).is_zero()
    # S-polynomials reduce to zero
    from ainfmf.poly import mono_div, mono_lcm, Polynomial as Poly

    for i in range(len(gb.basis)):
        for j in range(i + 1, len(gb.basis)):
            gi, gj = gb.basis[i], gb.basis[j]
            mi, ci = gi.leading()
            mj, cj = gj.leading()
            lcm = mono_lcm(mi, mj)
            s = Poly.monomial(2, mono_div(lcm, mi), 1 / ci) * gi - Poly.monomial(
                2, mono_div(lcm, mj), 1 / cj
            ) * gj
            assert normal_form(gb, s).is_zero()


def test_groebner_univariate_power():
    gb = GroebnerBasis([parse_poly("x1^4", 1)])
    assert gb.basis == [parse_poly("x1^4", 1)]
    assert gb.standard_monomials() == [(0,), (1,), (2,), (3,)]


def test_standard_monomials_sorted_with_one_first():
    gens = [P("x1^3"), P("x2^2")]
    gb = GroebnerBasis(gens)
    sm = gb.standard_monomials()
    assert sm[0] == (0, 0)
    assert len(sm) == 6
    keys = [grevlex_key(m) for m in sm]
    assert keys == sorted(keys)


def test_milnor_numbers():
    # mu = dim Q[x]/(dW): the standard monomials of the Jacobian ideal
    def milnor(w):
        parts = [w.diff(i) for i in range(w.nvars)]
        return len(GroebnerBasis(parts).standard_monomials())

    # x^5/5: mu = 4
    assert milnor(parse_poly("1/5*x1^5", 1)) == 4
    # x^3 + y^3: mu = 4
    assert milnor(P("x1^3 + x2^3")) == 4
    # x^3: mu = 2
    assert milnor(parse_poly("x1^3", 1)) == 2


def test_remainder_is_linear():
    gb = GroebnerBasis([P("x1^2 - x2"), P("x2^3")])
    f, g = P("x1^4 + x2"), P("x1*x2 - 3")
    assert normal_form(gb, f + g) == normal_form(gb, f) + normal_form(gb, g)
    assert divide(f, gb.basis)[1] == normal_form(gb, f)
