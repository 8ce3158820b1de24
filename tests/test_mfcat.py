import random
from fractions import Fraction
from itertools import product

import pytest

from ainfmf.mfcat import (
    HomotopyIdentityFailed,
    NotAFactorisation,
    default_homotopies,
    RhoPresentation,
    KoszulFactorisation,
    nu_signed,
)
from ainfmf.poly import Polynomial, parse_poly
from ainfmf.superspace import add_into, contract_mask, wedge_mask

from test_linalg import rref


# an independent Clifford reference for the rho presentation: left
# multiplication by the generators on dicts (A, B) -> coefficient of
# xi_A tensor xibar_B


def clifford_left_xi(i, elem):
    """Left Clifford multiplication by xi_i."""
    out = {}
    for (A, B), c in elem.items():
        hit = wedge_mask(A, i)
        if hit:
            s, A2 = hit
            add_into(out, (A2, B), c * s)
    return out


def clifford_left_xibar(i, elem):
    """xibar_i bullet (-) = xi_i* tensor 1 + 1 tensor xibar_i."""
    out = {}
    for (A, B), c in elem.items():
        hit = contract_mask(A, i)
        if hit:
            s, A2 = hit
            add_into(out, (A2, B), c * s)
        hit = wedge_mask(B, i)
        if hit:
            s, B2 = hit
            sign = s * (-1 if A.bit_count() & 1 else 1)
            add_into(out, (A, B2), c * sign)
    return out


def clifford_mult(e1, e2):
    """Clifford product on wedge(F_xi) tensor wedge(F_xibar)."""
    out = {}
    for (A, B), c in e1.items():
        cur = {k: v * c for k, v in e2.items()}
        for i in reversed(range(64)):
            if B >> i & 1:
                cur = clifford_left_xibar(i, cur)
        for i in reversed(range(64)):
            if A >> i & 1:
                cur = clifford_left_xi(i, cur)
        for k, v in cur.items():
            add_into(out, k, v)
    return out


def worked_pair():
    # W = x^5/5, X from (x^2, x^3/5), Y from (x^3, x^2/5)
    W = parse_poly("1/5*x1^5", 1)
    X = KoszulFactorisation(
        [(parse_poly("x1^2", 1), parse_poly("1/5*x1^3", 1))], W, "X")
    Y = KoszulFactorisation(
        [(parse_poly("x1^3", 1), parse_poly("1/5*x1^2", 1))], W, "Y")
    return W, X, Y


def test_koszul_factorisation_keeps_its_pairs():
    W, X, Y = worked_pair()
    assert X.pairs == [(parse_poly("x1^2", 1), parse_poly("1/5*x1^3", 1))]
    assert (X.r, X.nvars, X.label, X.W) == (1, 1, "X", W)
    # a rank-two object: d^2 = (x1^2 + x2^2) 1 needs no matrix check
    W2 = parse_poly("x1^2 + x2^2", 2)
    x, y = parse_poly("x1", 2), parse_poly("x2", 2)
    K = KoszulFactorisation([(x, x), (y, y)], W2)
    assert (K.r, K.nvars) == (2, 2)


def test_not_a_factorisation():
    W = parse_poly("1/5*x1^5", 1)
    with pytest.raises(NotAFactorisation):
        KoszulFactorisation([(parse_poly("x1", 1), parse_poly("x1", 1))], W)
    with pytest.raises(NotAFactorisation):
        KoszulFactorisation([], W)


def test_degenerate_w_zero():
    W = Polynomial.zero(1)
    # W = 0 is factorised by (x, 0): the pair is kept, zero included
    K = KoszulFactorisation([(parse_poly("x1", 1), Polynomial.zero(1))], W)
    assert K.pairs == [(parse_poly("x1", 1), Polynomial.zero(1))]


def test_default_homotopies_worked_example():
    W, X, Y = worked_pair()
    hX = default_homotopies(X)
    hY = default_homotopies(Y)
    # lambda^X = 2x xi* + (3/5) x^2 xi
    assert hX.F[0][0] == parse_poly("2*x1", 1)
    assert hX.G[0][0] == parse_poly("3/5*x1^2", 1)
    # lambda^Y: the derivative rule gives F = 3x^2, G = (2/5)x, and
    # sum(F g + G f) = x^4 = t holds for these and fails for F = 3x
    assert hY.F[0][0] == parse_poly("3*x1^2", 1)
    assert hY.G[0][0] == parse_poly("2/5*x1", 1)
    f, g = Y.pairs[0]
    assert hY.F[0][0] * g + hY.G[0][0] * f == parse_poly("x1^4", 1)
    assert parse_poly("3*x1", 1) * g + hY.G[0][0] * f != parse_poly("x1^4", 1)


def test_default_homotopies_rank1():
    W = parse_poly("x1^2", 1)
    X = KoszulFactorisation([(parse_poly("x1", 1), parse_poly("x1", 1))], W)
    h = default_homotopies(X)
    assert h.F == [[Polynomial.const(1, 1)]]
    assert h.G == [[Polynomial.const(1, 1)]]


def test_homotopy_identity_failure_on_non_jacobian_t():
    W, X, Y = worked_pair()
    with pytest.raises(HomotopyIdentityFailed):
        default_homotopies(X, tseq=[parse_poly("x1^3", 1)])


def test_nu_identity_example():
    ident = {(0, 0): Fraction(1), (1, 1): Fraction(1)}
    assert nu_signed(ident) == {(0, 0): Fraction(1), (1, 1): Fraction(1)}
    # round trip on every elementary matrix
    for S in range(2):
        for T in range(2):
            e = {(S, T): Fraction(1)}
            assert nu_signed(nu_signed(e)) == e


def test_nu_sign_two_generators():
    # |T| = 2 picks up (-1)^{binom(2,2)} = -1
    e = {(0, 0b11): Fraction(1)}
    assert nu_signed(e) == {(0, 0b11): Fraction(-1)}
    assert nu_signed(nu_signed(e)) == e


def test_rho_round_trip_and_example():
    W, X, Y = worked_pair()
    rho = RhoPresentation(X)
    # rho(xi tensor xibar) = xi wedge after xi* contraction: maps xi -> xi
    m = rho.to_matrix({(1, 1): Fraction(1)})
    assert m == {(1, 1): Fraction(1)}
    for A in range(2):
        for B in range(2):
            e = {(A, B): Fraction(1)}
            assert rho.from_matrix(rho.to_matrix(e)) == e


def quadric_object(n):
    # the rank-n Koszul object (x_i, x_i) of W = x1^2 + ... + xn^2
    xs = [parse_poly("x%d" % (i + 1), n) for i in range(n)]
    W = parse_poly("+".join("x%d^2" % (i + 1) for i in range(n)), n)
    return KoszulFactorisation([(x, x) for x in xs], W)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_rho_inverse_matches_dense_inverse(n):
    # one dense rref of [M | I], with M the matrix of the presentation in
    # the flat bases: column A * dim + B, row row * dim + col
    rho = RhoPresentation(quadric_object(n))
    dim = 1 << n
    flat = list(product(range(dim), repeat=2))
    red, pivots = rref([
        [rho._cols[AB].get(unit, Fraction(0)) for AB in flat]
        + [Fraction(int(unit == other)) for other in flat]
        for unit in flat
    ])
    assert pivots == list(range(len(flat)))
    inverse = {
        unit: {AB: red[i][len(flat) + j] for i, AB in enumerate(flat)
               if red[i][len(flat) + j]}
        for j, unit in enumerate(flat)
    }
    assert rho._inv_cols == inverse
    assert sum(map(len, inverse.values())) == 5 ** n


def test_rho_round_trip_rank4():
    rho = RhoPresentation(quadric_object(4))
    for A in range(16):
        for B in range(16):
            e = {(A, B): Fraction(1)}
            assert rho.from_matrix(rho.to_matrix(e)) == e


def test_rho_intertwines_clifford():
    # every pair at rank 2, a fixed sample of the 4,096 pairs at rank 3:
    # the matrix of a Clifford product is the composite of the matrices,
    # and from_matrix takes the composite back to the product
    rng = random.Random(5)
    for n, sample in ((2, None), (3, 300)):
        rho = RhoPresentation(quadric_object(n))
        dim = 1 << n
        quads = list(product(range(dim), repeat=4))
        if sample is not None:
            quads = rng.sample(quads, sample)
        for A1, B1, A2, B2 in quads:
            a = {(A1, B1): Fraction(1)}
            b = {(A2, B2): Fraction(1)}
            # compose the operator matrices
            ma, mb = rho.to_matrix(a), rho.to_matrix(b)
            comp = {}
            for (r, m), c in ma.items():
                for (m2, c2col), c2 in mb.items():
                    if m == m2:
                        key = (r, c2col)
                        comp[key] = comp.get(key, Fraction(0)) + c * c2
            comp = {k: v for k, v in comp.items() if v}
            prod = clifford_mult(a, b)
            assert rho.to_matrix(prod) == comp
            assert rho.from_matrix(comp) == prod


def test_clifford_relations():
    # [xi_i, xibar_j] = delta_ij inside the product algebra
    one = {(0, 0): Fraction(1)}
    xi1 = {(1, 0): Fraction(1)}
    bar1 = {(0, 1): Fraction(1)}
    anti = clifford_mult(xi1, bar1)
    anti2 = clifford_mult(bar1, xi1)
    total = dict(anti)
    for k, v in anti2.items():
        total[k] = total.get(k, Fraction(0)) + v
    assert {k: v for k, v in total.items() if v} == one
