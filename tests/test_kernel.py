"""The scaled-integer kernel of the operator backend against plain
Fraction arithmetic.

Random rational states and operators, with mixed and negative
denominators and with terms that cancel, go through LinearOp and
Model.mu2_transported.  A test-local Fraction reference computes the
same results, and every result must come back in lowest terms.

The factored ComposeKernel and the span-table contraction are checked
against references that compose one key pair at a time in Fraction:
ref_compose_keys, ref_mu2 and ref_r2.
"""

import random
from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from ainfmf import cli
from ainfmf.ainfmodel import SectorMismatch
from ainfmf.normalorder import FeynmanBackend
from ainfmf.superspace import (
    Space,
    add_into,
    rational_state,
    reduced,
    scaled_state,
    state_parity,
)

from test_normalorder import compose_keys, quadric_model, split, worked_model
from test_superspace import (from_rule, identity, minus, ref_merge_sign,
                             scaled)


def ref_compose_keys(model, pa, pb, ka, kb, table, cap=None):
    """mu2 on a pair of basis keys, one pair at a time, in Fraction: ka
    in space(pa) composed after kb in space(pb), through the exterior
    table of pa after pb, with the outputs beyond the t-cap (the
    model's, unless cap is given) dropped."""
    cap = model.cap if cap is None else cap
    pc = model.pair(pb.src, pa.tgt)
    m1, h1, d1 = ka
    m2, h2, d2 = kb
    th1, ea = split(pa, m1)
    th2, eb = split(pb, m2)
    out = {}
    if not th1 & th2:
        alpha_par = (m1 >> pa.n).bit_count() & 1
        omega2_par = th2.bit_count() & 1
        sign = -1 if alpha_par & omega2_par else 1
        sign *= ref_merge_sign(th1, th2)
        ext = table.get((ea, eb))
        if ext:
            th = th1 | th2
            base = tuple(a + b for a, b in zip(d1, d2))
            for k, delta, g in model.gamma.products_of(h1, h2):
                nd = tuple(a + b for a, b in zip(base, delta))
                if sum(nd) > cap:
                    continue
                for ec, c3 in ext.items():
                    add_into(out, (th | pc.ext_mask(ec), k, nd),
                             Fraction(sign) * g * c3)
    return out


def ref_mu2(model, sa, pair_a, sb, pair_b):
    """mu2 on Fraction states, summed over key pairs: sa in pair_a =
    (mid, tgt) composed after sb in pair_b = (src, mid)."""
    pa, pb = model.pair(*pair_a), model.pair(*pair_b)
    table = model._kernel(pa, pb).table
    out = {}
    for ka, c1 in sa.items():
        for kb, c2 in sb.items():
            for kc, c3 in ref_compose_keys(model, pa, pb, ka, kb,
                                           table).items():
                add_into(out, kc, c1 * c2 * c3)
    return out


def ref_r2(model, s1, pair_1, s2, pair_2):
    """The suspended product on Fraction states: s1 earlier (pair_1 =
    (src, mid)), s2 later (pair_2 = (mid, tgt))."""
    t1 = state_parity(s1) ^ 1
    t2 = state_parity(s2) ^ 1
    sign = -1 if ((t1 & t2) ^ t2 ^ 1) else 1
    return {k: sign * v
            for k, v in ref_mu2(model, s2, pair_2, s1, pair_1).items()}

SPACE = Space([("theta", 1), ("eta", 2)], mu=2, nboson=1, cap=1)
KEYS = list(SPACE.basis())

# the worked model as the backends-worked benchmark scales it at seed 7:
# some of its compose_keys coefficients have denominator 5
SCALED_WORKED = {
    "variables": ["x"],
    "potential": "-5/3*(1/5*x^5)",
    "objects": [
        {"label": "X", "pairs": [["-1*(x^2)", "5/3*(1/5*x^3)"]]},
        {"label": "Y", "pairs": [["-3/4*(x^3)", "20/9*(1/5*x^2)"]]},
    ],
    "cap": 2,
}
MODEL = cli.Problem(SCALED_WORKED).model
PAIRS = [(0, 1, 0), (1, 1, 0), (0, 0, 1), (1, 0, 1)]


def low_keys(pair):
    return [k for k in MODEL.pair(*pair).arena.space.basis() if sum(k[2]) <= 1]


LOW_KEYS = {pair: low_keys(pair) for pair in product(range(2), repeat=2)}

coeffs = st.builds(
    Fraction,
    st.integers(-12, 12),
    st.integers(1, 30) | st.integers(-30, -1),
)


def states(keys, max_size=6):
    """A rational state as a sum of terms over the keys, with repeated
    keys, and with a copy of its first term negated when cancel is
    drawn."""
    terms = st.lists(st.tuples(st.sampled_from(keys), coeffs),
                     min_size=1, max_size=max_size)

    def build(drawn):
        terms, cancel = drawn
        if cancel:
            terms = terms + [(terms[0][0], -terms[0][1])]
        out = {}
        for key, c in terms:
            out[key] = out.get(key, 0) + c
        return {k: v for k, v in out.items() if v}

    return st.tuples(terms, st.booleans()).map(build)


operators = st.dictionaries(st.sampled_from(KEYS), states(KEYS, 4), max_size=10)


def ref_apply(cols, state):
    out = {}
    for key, c in state.items():
        for k2, c2 in cols.get(key, {}).items():
            out[k2] = out.get(k2, 0) + c * c2
    return {k: v for k, v in out.items() if v}


def ref_op(cols):
    """Operator columns with the zero entries and empty columns dropped."""
    cols = {k: {k2: v for k2, v in col.items() if v} for k, col in cols.items()}
    return {k: col for k, col in cols.items() if col}


def op_of(cols, degree=0):
    return from_rule(SPACE, degree, cols.get, KEYS)


def columns(op):
    """The Fraction columns of an operator, checked to be in lowest
    terms."""
    assert op.den > 0
    g = op.den
    for col in op.cols.values():
        assert col and all(col.values())
        g = gcd(g, *col.values())
    assert g == 1
    return {k: rational_state((col, op.den)) for k, col in op.cols.items()}


def lowest(scaled):
    """The Fraction state of a scaled state, checked to be in lowest
    terms."""
    nums, den = scaled
    assert den > 0 and all(nums.values())
    assert gcd(den, *nums.values()) == 1
    return rational_state(scaled)


FIXED = settings(max_examples=60, deadline=None, derandomize=True)


@FIXED
@given(operators, states(KEYS))
def test_apply_matches_fractions(cols, state):
    op = op_of(cols)
    assert columns(op) == ref_op(cols)
    assert lowest(op.apply(scaled_state(state))) == ref_apply(cols, state)
    for key in KEYS:
        assert lowest(op.apply_key(key)) == cols.get(key, {})


@FIXED
@given(operators, operators, coeffs)
def test_compose_add_scaled_match_fractions(a, b, c):
    opa, opb = op_of(a), op_of(b)
    composed = {k: ref_apply(a, col) for k, col in b.items()}
    assert columns(opa.compose(opb)) == ref_op(composed)
    summed = {k: dict(col) for k, col in a.items()}
    for k, col in b.items():
        dst = summed.setdefault(k, {})
        for k2, v in col.items():
            dst[k2] = dst.get(k2, 0) + v
    assert columns(opa + opb) == ref_op(summed)
    assert columns(minus(opa, opa)) == {}
    multiple = {k: {k2: v * c for k2, v in col.items()}
                for k, col in a.items()}
    assert columns(scaled(opa, c)) == ref_op(multiple)


@st.composite
def mu2_inputs(draw):
    src, mid, tgt = draw(st.sampled_from(PAIRS))
    sa = draw(states(LOW_KEYS[(mid, tgt)]))
    sb = draw(states(LOW_KEYS[(src, mid)]))
    return sa, (mid, tgt), sb, (src, mid)


@FIXED
@given(mu2_inputs())
def test_mu2_matches_fractions(args):
    sa, pair_a, sb, pair_b = args
    got = MODEL.mu2_transported(scaled_state(sa), pair_a,
                                scaled_state(sb), pair_b)
    assert lowest(got) == ref_mu2(MODEL, sa, pair_a, sb, pair_b)


def test_model_has_compose_denominator_five():
    # the mu2 test above covers compose_keys results that are not
    # integers
    dens = set()
    for src, mid, tgt in PAIRS:
        pa, pb = MODEL.pair(mid, tgt), MODEL.pair(src, mid)
        for ka, kb in product(pa.arena.core_basis(), pb.arena.core_basis()):
            dens.add(scaled_state(compose_keys(
                MODEL, pa, pb, ka, kb, MODEL._kernel(pa, pb).table))[1])
    assert 5 in dens


def test_compose_needs_a_shared_middle_object():
    # the one sector check, in ComposeKernel, guards both backends
    with pytest.raises(SectorMismatch):
        MODEL._kernel(MODEL.pair(0, 1), MODEL.pair(0, 1))
    with pytest.raises(SectorMismatch):
        FeynmanBackend(MODEL).mu2({}, (0, 1), {}, (0, 1))


# ----------------------------------------------------------------------
# the factored kernel and the contraction against their references


@cache
def oracle_model(name):
    # cap 1 on the rank-3 quadric: sums of two keys of t-degree one
    # leave the cap
    return {"worked": lambda: worked_model(cap=2),
            "twovar": lambda: quadric_model(2, cap=2),
            "quadric3": lambda: quadric_model(3, cap=1)}[name]()


def triples(m):
    return list(product(range(len(m.objects)), repeat=3))


@pytest.mark.parametrize("name", ["worked", "twovar", "quadric3"])
def test_factored_compose_matches_per_pair_reference(name):
    # key pairs drawn from the whole arenas, so that thetas overlap,
    # thetas merge with a sign, and outputs leave the cap
    m = oracle_model(name)
    rng = random.Random(name)
    seen = Counter()
    for src, mid, tgt in triples(m):
        pa, pb = m.pair(mid, tgt), m.pair(src, mid)
        kernel = m._kernel(pa, pb)
        keys_a = list(pa.arena.space.basis())
        keys_b = list(pb.arena.space.basis())
        for _ in range(3000 // len(triples(m))):
            ka, kb = rng.choice(keys_a), rng.choice(keys_b)
            want = ref_compose_keys(m, pa, pb, ka, kb, kernel.table)
            got = {kc: Fraction(v, kernel.den)
                   for _, comp in kernel.row(kb, kernel.laters([ka]))
                   for kc, v in comp.items()}
            assert got == want, (src, mid, tgt, ka, kb)
            assert compose_keys(m, pa, pb, ka, kb, kernel.table) == want
            th1, th2 = split(pa, ka[0])[0], split(pb, kb[0])[0]
            seen["overlap"] += bool(th1 & th2)
            seen["merge sign"] += bool(want) and ref_merge_sign(th1, th2) < 0
            seen["beyond cap"] += ref_compose_keys(
                m, pa, pb, ka, kb, kernel.table, cap=99) != want
            seen["non-zero"] += bool(want)
    assert seen["overlap"] and seen["beyond cap"] and seen["non-zero"] > 100
    if m.qb.n > 1:
        assert seen["merge sign"]


def random_states(m, pair, parity, rng, count):
    """count states of the given parity on the arena of pair, each a
    sum of one to four keys with small Fraction coefficients."""
    keys = [k for k in m.pair(*pair).arena.space.basis()
            if k[0].bit_count() & 1 == parity]
    return [{k: Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 4))
             for k in rng.sample(keys, rng.randint(1, 4))}
            for _ in range(count)]


@pytest.mark.parametrize("name", ["worked", "twovar", "quadric3"])
def test_contraction_matches_per_pair_r2(name):
    # every split contracts a left span table against a right one; on
    # states of both parities each product is the per-pair r2
    m = oracle_model(name)
    rng = random.Random(name)
    signs = Counter()
    for src, mid, tgt in triples(m):
        pair_1, pair_2 = (src, mid), (mid, tgt)
        left = {("l", p, i): st for p in (0, 1) for i, st in
                enumerate(random_states(m, pair_1, p, rng, 4))}
        right = {("r", p, i): st for p in (0, 1) for i, st in
                 enumerate(random_states(m, pair_2, p, rng, 4))}
        tables = (pair_1, {(t,): scaled_state(st) for t, st in left.items()},
                  pair_2, {(t,): scaled_state(st) for t, st in right.items()})
        got = {(tl, tr): rational_state(reduced(*st)) for tl, tr, st in
               m._contract(*tables, identity(m.pair(src, tgt).arena.space))}
        # with a vertex operator, its kernel rows hold H_hat after mu2
        hat = m.pair(src, tgt).arena.H_hat
        fused = {(tl, tr): rational_state(reduced(*st))
                 for tl, tr, st in m._contract(*tables, hat)}
        for tl, tr in product(left, right):
            want = ref_r2(m, left[tl], pair_1, right[tr], pair_2)
            assert got.get(((tl,), (tr,)), {}) == want, (pair_1, tl, tr)
            assert fused.get(((tl,), (tr,)), {}) == rational_state(
                hat.apply(scaled_state(want))), (pair_1, tl, tr)
            if want:
                signs[tl[1], tr[1]] += 1
    assert set(signs) == {(0, 0), (0, 1), (1, 0), (1, 1)}
