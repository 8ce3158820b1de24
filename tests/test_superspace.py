from fractions import Fraction
from math import lcm

import pytest

from ainfmf.superspace import (
    LinearOp,
    Space,
    contract_mask,
    graded_commutator,
    merge_sign,
    move_word,
    power_series,
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


def is_zero(op):
    return all(not col for col in op.cols.values())


def equals(a, b):
    return is_zero(a - b)


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


def test_power_series():
    sp = Space([("theta", 2)], mu=1, nboson=0, cap=0)
    # even nilpotent: N = theta1 theta2 wedge (degree 0 composite)
    w1, w2 = wedge_op(sp, 0), wedge_op(sp, 1)
    n = w1.compose(w2)
    # e^{+-N} = 1 +- N since N^2 = 0, both from one pass over the powers
    e, e_minus = power_series(n, [[1, 1], [1, -1]], identity(sp))
    assert equals(e, identity(sp) + n)
    assert equals(e_minus, identity(sp) - n)
    assert equals(e.compose(e_minus), identity(sp))
    # a tail of odd degree: (1 + N/2) theta2*
    c2 = contract_op(sp, 1)
    got, = power_series(n, [[1, Fraction(1, 2)]], c2)
    assert got.degree == 1
    assert equals(got, c2 + n.compose(c2).scaled(Fraction(1, 2)))


def test_power_series_must_truncate():
    sp = Space([("theta", 2)], mu=1, nboson=0, cap=0)
    n = wedge_op(sp, 0).compose(wedge_op(sp, 1))
    # N^1 does not vanish, so a series that stops at m = 0 raises
    with pytest.raises(ValueError):
        power_series(n, [[1]], identity(sp))
    # theta1 theta1* is idempotent, so no power of it vanishes
    number = wedge_op(sp, 0).compose(contract_op(sp, 0))
    for top in range(4):
        with pytest.raises(ValueError):
            power_series(number, [[1] * (top + 1)], identity(sp))


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
