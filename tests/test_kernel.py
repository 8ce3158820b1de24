"""The scaled-integer kernel of the operator backend against plain
Fraction arithmetic.

Random rational states and operators, with mixed and negative
denominators and with terms that cancel, go through LinearOp and
Model.mu2_transported.  A test-local Fraction reference computes the
same results, and every result must come back in lowest terms.
"""

from fractions import Fraction
from itertools import product
from math import gcd

from hypothesis import given, settings, strategies as st

from ainfmf import cli
from ainfmf.ainfmodel import compose_keys
from ainfmf.superspace import LinearOp, Space, rational_state, scaled_state

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
    return LinearOp.from_rule(SPACE, degree, cols.get, keys=KEYS)


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
    assert columns(opa - opa) == {}
    scaled = {k: {k2: v * c for k2, v in col.items()} for k, col in a.items()}
    assert columns(opa.scaled(c)) == ref_op(scaled)


def ref_mu2(sa, pair_a, sb, pair_b):
    pa, pb = MODEL.pair(*pair_a), MODEL.pair(*pair_b)
    out = {}
    for ka, c1 in sa.items():
        for kb, c2 in sb.items():
            for kc, c3 in compose_keys(MODEL, pa, pb, ka, kb,
                                       MODEL._ext_composition).items():
                out[kc] = out.get(kc, 0) + c1 * c2 * c3
    return {k: v for k, v in out.items() if v}


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
    assert lowest(got) == ref_mu2(sa, pair_a, sb, pair_b)


def test_model_has_compose_denominator_five():
    # the mu2 test above covers compose_keys results that are not
    # integers
    dens = set()
    for src, mid, tgt in PAIRS:
        pa, pb = MODEL.pair(mid, tgt), MODEL.pair(src, mid)
        for ka, kb in product(pa.core_basis(), pb.core_basis()):
            dens.add(MODEL._compose_keys(pa, pb, ka, kb)[1])
    assert 5 in dens
