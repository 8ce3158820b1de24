from fractions import Fraction
from math import lcm

import pytest

from ainfmf.superspace import (
    LinearOp,
    Space,
    contract_mask,
    merge_sign,
    move_word,
    series_column,
    state_parity,
    wedge_mask,
)


# ----------------------------------------------------------------------
# whole-basis reference operators, built one column per basis key


def from_rule(space, degree, rule, keys=None):
    """The operator of rule(key) -> dict key_out -> rational coeff (int
    or Fraction), or None, on keys (default: the whole basis).  The
    columns are brought over the lcm of the denominators."""
    cols = {}
    den = 1
    for key in keys if keys is not None else space.basis():
        col = rule(key)
        if col:
            cols[key] = col = dict(col)
            den = lcm(den, *(c.denominator for c in col.values()))
    for col in cols.values():
        for k2, c in col.items():
            col[k2] = c.numerator * (den // c.denominator)
    return LinearOp.from_cols(space, degree, cols, den)


def _fermion_op(space, pos, move):
    cols = {}
    for mask, h, delta in space.basis():
        hit = move(mask, pos)
        if hit:
            cols[mask, h, delta] = {(hit[1], h, delta): hit[0]}
    return LinearOp(space, 1, cols)


def wedge_op(space, pos):
    return _fermion_op(space, pos, wedge_mask)


def contract_op(space, pos):
    return _fermion_op(space, pos, contract_mask)


def identity(space):
    return LinearOp(space, 0, {key: {key: 1} for key in space.basis()})


def ref_merge_sign(m1, m2):
    """Sign of sorting the generators of mask m1 followed by those of
    mask m2 into one ascending list."""
    gens = [i for i in range(m1.bit_length()) if m1 >> i & 1]
    gens += [i for i in range(m2.bit_length()) if m2 >> i & 1]
    inversions = sum(a > b for i, a in enumerate(gens) for b in gens[i + 1:])
    return -1 if inversions & 1 else 1


def whole(op):
    """op with every basis column read: a copy over a plain dict of its
    non-empty columns, so that compose and + see them all."""
    return LinearOp(op.space, op.degree,
                    {key: col for key in op.space.basis()
                     if (col := op.cols.get(key))}, op.den)


def graded_commutator(a, b):
    """[a, b] = a b - (-1)^(|a||b|) b a, by whole-basis compositions."""
    a, b = whole(a), whole(b)
    ba = b.compose(a)
    return a.compose(b) + (ba if a.degree and b.degree else scaled(ba, -1))


def is_zero(op):
    return all(not col for col in op.cols.values())


def scaled(op, c):
    """The operator c op, for a rational c."""
    c = Fraction(c)
    return LinearOp.from_cols(
        op.space, op.degree,
        {k: {k2: v * c.numerator for k2, v in col.items()}
         for k, col in op.cols.items()},
        op.den * c.denominator)


def minus(a, b):
    return a + scaled(b, -1)


def equals(a, b):
    return is_zero(minus(a, b))


def small_space():
    # two theta generators, two target fermions, mu = 2, one boson
    return Space([("theta", 2), ("eta", 2)], mu=2, nboson=1, cap=2)


def test_wedge_contract_signs():
    sp = small_space()
    t1, t2 = sp.gen_pos("theta", 0), sp.gen_pos("theta", 1)
    both = 1 << t1 | 1 << t2
    # contract theta1 out of theta1^theta2: position 1, sign +
    assert contract_mask(both, t1) == (1, 1 << t2)
    # contract theta2 out of theta1^theta2: position 2, sign -
    assert contract_mask(both, t2) == (-1, 1 << t1)
    # wedge repeated generator gives zero, and so does contracting an
    # absent one
    assert wedge_mask(both, t1) is None
    assert contract_mask(1 << t1, t2) is None
    # wedge theta2 onto theta1: theta1 lies below position t2
    assert wedge_mask(1 << t1, t2) == (-1, both)

def test_move_word_multiplies_the_signs():
    t1, t2 = 0, 1
    # theta1 then theta2 wedged onto nothing: theta2 ^ theta1 = -both
    assert move_word(0, [(wedge_mask, t1), (wedge_mask, t2)]) == (-1, 3)
    # theta2 theta2* is the number operator: both signs are -1
    assert move_word(3, [(contract_mask, t2), (wedge_mask, t2)]) == (1, 3)
    assert move_word(3, [(contract_mask, t1), (contract_mask, t1)]) is None
    assert move_word(5, []) == (1, 5)


def test_wedge_sign_convention():
    sp = small_space()
    t1, t2 = sp.gen_pos("theta", 0), sp.gen_pos("theta", 1)
    # theta2 ^ (theta1) : one generator below position of theta2 -> sign -1
    s, _ = wedge_mask(1 << t1, t2)
    assert s == -1
    # theta1 ^ (theta2) : nothing below position of theta1 -> sign +1
    s, _ = wedge_mask(1 << t2, t1)
    assert s == 1


def test_anticommutation_relations():
    sp = small_space()
    gens = [sp.gen_pos("theta", 0), sp.gen_pos("theta", 1), sp.gen_pos("eta", 0)]
    ident = identity(sp)
    for p in gens:
        for q in gens:
            w_p, w_q = wedge_op(sp, p), wedge_op(sp, q)
            c_p, c_q = contract_op(sp, p), contract_op(sp, q)
            assert is_zero(graded_commutator(w_p, w_q))
            assert is_zero(graded_commutator(c_p, c_q))
            cross = graded_commutator(w_p, c_q)
            if p == q:
                assert equals(cross, ident)
            else:
                assert is_zero(cross)


def test_operator_degree_bookkeeping():
    sp = small_space()
    w = wedge_op(sp, 0)
    assert w.degree == 1
    assert w.compose(w).degree == 0
    with pytest.raises(ValueError):
        w + LinearOp(sp, 0)


def test_state_parity_and_format():
    sp = small_space()
    t1 = sp.gen_pos("theta", 0)
    e1 = sp.gen_pos("eta", 0)
    key = (1 << t1 | 1 << e1, 1, (1,))
    assert state_parity({key: Fraction(-12, 25)}) == 0
    assert sp.key_label(key) == "theta1*eta1*z2*t1"
    with pytest.raises(ValueError):
        state_parity({(0, 0, (0,)): Fraction(1), (1 << t1, 0, (0,)): Fraction(1)})


def series_op(op, coeffs, tail):
    """The operator sum_m c[m] op^m tail for integers c[m], m = 0..N,
    summed by series_column on each column of tail."""
    cols = {key: series_column(op.image, op.den, coeffs, col)
            for key, col in tail.cols.items()}
    return LinearOp.from_cols(op.space, tail.degree, cols,
                              op.den ** (len(coeffs) - 1) * tail.den)


def test_power_series():
    sp = Space([("theta", 2)], mu=1, nboson=0, cap=0)
    # even nilpotent: N = theta1 theta2 wedge (degree 0 composite)
    w1, w2 = wedge_op(sp, 0), wedge_op(sp, 1)
    n = w1.compose(w2)
    # e^{+-N} = 1 +- N since N^2 = 0
    e, e_minus = (series_op(n, cs, identity(sp)) for cs in ([1, 1], [1, -1]))
    assert equals(e, identity(sp) + n)
    assert equals(e_minus, minus(identity(sp), n))
    assert equals(e.compose(e_minus), identity(sp))
    # a tail of odd degree: (1 + N/2) theta2*, the coefficients over 2
    c2 = contract_op(sp, 1)
    got = series_op(n, [2, 1], c2)
    assert got.degree == 1
    assert equals(scaled(got, Fraction(1, 2)),
                  c2 + scaled(n.compose(c2), Fraction(1, 2)))
    # an operator over a denominator: e^{N/3} = 1 + N/3, the power m
    # weighted by den^(N - m)
    third = scaled(n, Fraction(1, 3))
    assert third.den == 3
    assert equals(series_op(third, [1, 1], identity(sp)),
                  identity(sp) + third)
    # a column that the powers kill at once is summed with no power
    assert series_column(n.image, n.den, [1, 1], {(3, 0, ()): 5}) == {
        (3, 0, ()): 5}


def test_power_series_must_truncate():
    sp = Space([("theta", 2)], mu=1, nboson=0, cap=0)
    n = wedge_op(sp, 0).compose(wedge_op(sp, 1))
    # N^1 does not vanish on the empty mask, so a series that stops at
    # m = 0 raises there and on no other column
    with pytest.raises(ValueError, match="does not truncate"):
        series_column(n.image, n.den, [1], {(0, 0, ()): 1})
    assert series_column(n.image, n.den, [1], {(1, 0, ()): 1}) == {
        (1, 0, ()): 1}
    # theta1 theta1* is idempotent, so no power of it vanishes
    number = wedge_op(sp, 0).compose(contract_op(sp, 0))
    for top in range(4):
        with pytest.raises(ValueError, match="does not truncate"):
            series_column(number.image, number.den, [1] * (top + 1),
                          {(1, 0, ()): 1})


def test_virtual_degree():
    sp = small_space()
    t2 = sp.gen_pos("theta", 1)
    key = (1 << t2, 0, (2,))
    assert sp.virtual_degree(key) == 3
    assert sp.virtual_degree((0, 1, (0,))) == 0


def test_merge_sign_counts_inversions():
    for m1 in range(1 << 6):
        for m2 in range(1 << 6):
            assert merge_sign(m1, m2) == ref_merge_sign(m1, m2), (m1, m2)
