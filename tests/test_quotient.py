from fractions import Fraction

from hypothesis import given, settings, strategies as st

from ainfmf.poly import Polynomial, parse_poly
from ainfmf.quotient import (
    CapExceeded,
    GammaTensor,
    QuotientBasis,
    t_adic_expand,
)
from ainfmf.superspace import add_into

from test_poly import normal_form


def gamma(g, i, j, k, delta):
    """The entry Gamma^{ij}_{k delta} of a GammaTensor, zero if absent."""
    return g.entries.get((i, j, k, delta), Fraction(0))


def reconstruct(coefficients, qb):
    """The polynomial of t-adic coefficients {(h, delta): c}, with the
    polynomials t_j substituted back.  On the coefficients of an
    expansion it equals the source exactly when exp.exact_beyond_cap
    holds."""
    out = Polynomial.zero(qb.nvars)
    for (i, delta), c in coefficients.items():
        p = Polynomial.const(qb.nvars, c) * qb.basis_poly(i)
        for j, e in enumerate(delta):
            for _ in range(e):
                p = p * qb.tseq[j]
        out = out + p
    return out


# ----------------------------------------------------------------------
# reference oracles of the paper: the connection components d/dt_i and
# the rescaled Euler idempotent, on states {(h, delta): coeff}


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
    return reconstruct(dt_operator(i, qb.n)(exp.coefficients), qb)


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


def nabla1(qb, one_form):
    """Extension of the connection to one-forms.  Two-form components are
    keyed (h, delta, k, j) with k < j canonical (dz_k wedge dz_j)."""
    out = {}
    for (h, delta, j), c in one_form.items():
        for k, e in enumerate(delta):
            if e == 0 or k == j:
                continue
            nd = tuple(x - 1 if m == k else x for m, x in enumerate(delta))
            if k < j:
                key, sign = (h, nd, k, j), 1
            else:
                key, sign = (h, nd, j, k), -1
            add_into(out, key, sign * c * e)
    return out


def koszul_d2(qb, two_form):
    """Koszul differential on two-forms: contract dz_k wedge dz_j against
    sum t_i (dz_i)^*."""
    out = {}
    for (h, delta, k, j), c in two_form.items():
        for pos, (idx, other) in enumerate(((k, j), (j, k))):
            sign = 1 if pos == 0 else -1
            nd = tuple(
                x + 1 if m == idx else x for m, x in enumerate(delta)
            )
            add_into(out, (h, nd, other), sign * c)
    return out


def middle_operator(qb, one_form):
    """d_K nabla^1 + nabla^0 d_K on one-forms.  Diagonal: scales the
    component at t-degree |N| by 1 + |N|."""
    a = koszul_d2(qb, nabla1(qb, one_form))
    b = nabla0(qb, koszul_d(qb, one_form))
    out = dict(a)
    for key, c in b.items():
        add_into(out, key, c)
    return out


def qb_x4():
    # Q[x] with t = x^4
    return QuotientBasis([parse_poly("x1^4", 1)])


def qb_xy():
    # Q[x,y] with t = (x^2, y^2)
    return QuotientBasis([parse_poly("x1^2", 2), parse_poly("x2^2", 2)])


def test_standard_basis():
    qb = qb_x4()
    assert qb.monomials == [(0,), (1,), (2,), (3,)]
    assert qb.mu == 4
    qb2 = qb_xy()
    assert qb2.mu == 4
    assert qb2.monomials[0] == (0, 0)
    assert set(qb2.monomials) == {(0, 0), (1, 0), (0, 1), (1, 1)}


def test_sigma():
    qb = qb_x4()
    assert normal_form(qb.gb, parse_poly("x1^3", 1)) == parse_poly("x1^3", 1)
    assert not normal_form(qb.gb, parse_poly("x1^5", 1))
    p = parse_poly("x1^2 + x1^5", 1)
    assert normal_form(qb.gb, p) == parse_poly("x1^2", 1)


def test_expand_x2_plus_x5():
    qb = qb_x4()
    exp = t_adic_expand(parse_poly("x1^2 + x1^5", 1), qb, 3)
    assert exp.exact_beyond_cap
    assert exp.coefficients == {
        (2, (0,)): Fraction(1),  # z_3 = x^2 at t^0
        (1, (1,)): Fraction(1),  # z_2 = x at t^1
    }
    assert reconstruct(exp.coefficients, qb) == parse_poly("x1^2 + x1^5", 1)


def test_expand_powers_closed_form():
    qb = qb_x4()
    # (x^a)_{(m, alpha)} = [m = a][alpha = 0] for 0 <= a <= 3
    for a in range(4):
        exp = t_adic_expand(Polynomial.var(1, 0) ** a, qb, 2)
        assert exp.coefficients == {(a, (0,)): Fraction(1)}
    # t itself
    exp = t_adic_expand(parse_poly("x1^4", 1), qb, 2)
    assert exp.coefficients == {(0, (1,)): Fraction(1)}


def test_expand_cap_flag():
    qb = qb_x4()
    exp = t_adic_expand(parse_poly("x1^9", 1), qb, 1)
    assert not exp.exact_beyond_cap
    full = t_adic_expand(parse_poly("x1^9", 1), qb, 3)
    assert full.exact_beyond_cap
    assert full.coefficients == {(1, (2,)): Fraction(1)}
    # truncation agrees with the full expansion below the cap
    for (i, d), c in exp.coefficients.items():
        assert full.coefficients.get((i, d)) == c


coef = st.integers(-3, 3).map(Fraction)
upolys = st.dictionaries(
    st.tuples(st.integers(0, 9)), coef, max_size=4
).map(lambda d: Polynomial(1, d))


@settings(max_examples=50, deadline=None)
@given(upolys)
def test_expand_reconstruction_random(r):
    qb = qb_x4()
    exp = t_adic_expand(r, qb, 4)
    assert exp.exact_beyond_cap
    assert reconstruct(exp.coefficients, qb) == r


@settings(max_examples=30, deadline=None)
@given(upolys)
def test_expand_representative_independence(r):
    # adding an element of I rewritten through the sequence changes nothing
    qb = qb_x4()
    t = parse_poly("x1^4", 1)
    a = t_adic_expand(r * t, qb, 5)
    b = t_adic_expand(r, qb, 4)
    shifted = {(i, (d[0] + 1,)): c for (i, d), c in b.coefficients.items()}
    assert a.coefficients == shifted


def test_gamma_closed_form():
    # Gamma^{mh}_{l beta} for Q[x]/(x^4) in 0-based labels:
    # [m+h<=3][l=m+h][beta=0] + [m+h>3][l=m+h-4][beta=1]
    qb = qb_x4()
    g = GammaTensor(qb, 2)
    for m in range(4):
        for h in range(4):
            for l in range(4):
                for beta in ((0,), (1,), (2,)):
                    expected = Fraction(0)
                    if m + h <= 3 and l == m + h and beta == (0,):
                        expected = Fraction(1)
                    if m + h > 3 and l == m + h - 4 and beta == (1,):
                        expected = Fraction(1)
                    assert gamma(g, m, h, l, beta) == expected


def test_gamma_symmetry_and_unit():
    qb = qb_xy()
    g = GammaTensor(qb, 2)
    for (i, j, k, d), c in g.entries.items():
        assert gamma(g, j, i, k, d) == c
        if i == 0:
            assert c == (1 if (k == j and sum(d) == 0) else 0)
    # x * x = 1 * t_1
    ix = qb.index[(1, 0)]
    assert gamma(g, ix, ix, 0, (1, 0)) == 1


def r_sharp(r):
    """The columns of r^# over t = x^4, as the arena reads them:
    i -> {(l, delta): coeff}, the expansion of r * sigma(z_i)."""
    return qb_x4().columns(r)


def compose_columns(a, b):
    """The columns of a after b."""
    out = {}
    for i, col in b.items():
        acc = {}
        for (l, d), c in col.items():
            for (m, d2), c2 in a.get(l, {}).items():
                key = (m, tuple(x + y for x, y in zip(d, d2)))
                acc[key] = acc.get(key, 0) + c * c2
        acc = {key: c for key, c in acc.items() if c}
        if acc:
            out[i] = acc
    return out


def test_r_sharp_direct_vs_convolution():
    # the columns of r^# equal the convolution
    # sum_{alpha+beta=delta} sum_k r_{(k,alpha)} Gamma^{ki}_{l beta}
    qb = qb_x4()
    g = GammaTensor(qb, 3)
    for text in ("x1", "x1^2 + x1^5", "2 + 3*x1^3", "x1^6"):
        r = parse_poly(text, 1)
        rexp = t_adic_expand(r, qb, 3)
        assert rexp.exact_beyond_cap
        conv = {}
        for i in range(qb.mu):
            col = {}
            for (k, alpha), c in rexp.coefficients.items():
                for l, beta, gc in g.products_of(k, i):
                    key = (l, tuple(x + y for x, y in zip(alpha, beta)))
                    col[key] = col.get(key, 0) + c * gc
            col = {key: c for key, c in col.items() if c}
            if col:
                conv[i] = col
        assert r_sharp(r) == conv


def test_r_sharp_action():
    x = r_sharp(parse_poly("x1", 1))
    assert x[2] == {(3, (0,)): Fraction(1)}
    assert x[3] == {(0, (1,)): Fraction(1)}
    # r = 1 is the identity
    one = r_sharp(Polynomial.const(1, 1))
    assert one == {i: {(i, (0,)): Fraction(1)} for i in range(4)}


def test_r_sharp_ring_action():
    x = Polynomial.var(1, 0)
    r, s = x + 1, x ** 2
    assert r_sharp(r * s) == compose_columns(r_sharp(r), r_sharp(s))


def test_columns_kept_per_polynomial():
    # two separately parsed equal polynomials read one dict
    qb = qb_x4()
    cols = qb.columns(parse_poly("x1^2 + x1^5", 1))
    assert qb.columns(parse_poly("x1^5 + x1^2", 1)) is cols
    assert cols == {0: {(2, (0,)): 1, (1, (1,)): 1},
                    1: {(3, (0,)): 1, (2, (1,)): 1},
                    2: {(0, (1,)): 1, (3, (1,)): 1},
                    3: {(1, (1,)): 1, (0, (2,)): 1}}


def test_dt_operator():
    op = dt_operator(0, 2)
    assert op({(2, (2, 1)): Fraction(1)}) == {(2, (1, 1)): Fraction(2)}
    assert op({(2, (0, 3)): Fraction(1)}) == {}


def test_middle_operator_diagonal():
    qb = qb_xy()
    for h in range(qb.mu):
        for delta in ((0, 0), (1, 0), (1, 1), (2, 1)):
            for j in range(2):
                one = {(h, delta, j): Fraction(1)}
                out = middle_operator(qb, one)
                assert out == {(h, delta, j): Fraction(1 + sum(delta))}


def test_euler_idempotent():
    # removes exactly the t-degree-0 part; idempotent
    qb = qb_x4()
    state = {
        (0, (0,)): Fraction(3),
        (2, (0,)): Fraction(-1, 2),
        (1, (1,)): Fraction(2),
        (3, (2,)): Fraction(7, 3),
    }
    out = euler_idempotent(qb, state)
    assert out == {(1, (1,)): Fraction(2), (3, (2,)): Fraction(7, 3)}
    assert euler_idempotent(qb, out) == out
