import random
from fractions import Fraction
from math import comb

from ainfmf.treealg import (
    enumerate_binary,
    leaves,
    mirror_eval,
    mirror_sign,
    right_branch_counts,
)


def denote(tree, dec, inputs):
    """Koszul-signed denotation.  dec must provide:

      leaf(i, state) / leaf_parity(i)
      edge(lo, hi, state) / edge_parity  -- applied on internal edges
      vertex(lo, mid, hi, s1, s2)        -- r2, signs of its own included
      root(state)
      tilde(i)                           -- tilde degree of input i

    inputs: dict leaf label -> state.
    """
    sign = [1]

    def go(node, is_top):
        if isinstance(node, int):
            return dec.leaf(node, inputs[node]), dec.leaf_parity(node) & 1, [node]
        s1, p1, l1 = go(node[0], False)
        s2, p2, l2 = go(node[1], False)
        if p2 & 1:
            crossed = sum(dec.tilde(i) for i in l1) & 1
            if crossed:
                sign[0] = -sign[0]
        lo, mid, hi = l1[0], l1[-1], l2[-1]
        out = dec.vertex(lo, mid, hi, s1, s2)
        parity = (p1 + p2 + 1) & 1
        if not is_top:
            out = dec.edge(lo, hi, out)
            parity = (parity + dec.edge_parity) & 1
        return out, parity, l1 + l2

    state, _, _ = go(tree, True)
    state = dec.root(state)
    if sign[0] == -1:
        return {k: -v for k, v in state.items()}
    return state


def catalan(n):
    return comb(2 * n, n) // (n + 1)


def test_enumeration_counts():
    for k in range(2, 9):
        trees = enumerate_binary(k)
        assert len(trees) == catalan(k - 1)
        assert len(set(trees)) == len(trees)
        for t in trees:
            assert leaves(t) == list(range(1, k + 1))


def test_right_branch_counts_comb():
    # right comb (1,(2,3)): P = (0, 1, 2)
    assert right_branch_counts((1, (2, 3))) == {1: 0, 2: 1, 3: 2}
    # left comb ((1,2),3): paths of 1 always left, 2 right once, 3 right once
    assert right_branch_counts(((1, 2), 3)) == {1: 0, 2: 1, 3: 1}


def test_mirror_sign_all_even():
    # all inputs of even tilde degree: only the k+1 term survives
    for k in range(2, 6):
        tilde = {i: 0 for i in range(1, k + 1)}
        for t in enumerate_binary(k):
            assert mirror_sign(t, tilde) == (-1) ** (k + 1)


# A toy graded setting for the dual-path test: states are elements of an
# exterior algebra (dict mask -> Fraction), mu2 is the wedge product, and
# the decoration wedges a fixed odd generator on every internal edge so
# that the edge operators are odd, as in the intended decoration.


def wedge_product(a, b, ngen):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            if m1 & m2:
                continue
            sign = 1
            # count inversions between the two masks
            for i in range(ngen):
                if m2 >> i & 1:
                    above = bin(m1 >> (i + 1)).count("1")
                    if above & 1:
                        sign = -sign
            key = m1 | m2
            out[key] = out.get(key, Fraction(0)) + c1 * c2 * sign
            if not out[key]:
                del out[key]
    return out


class ToyDecoration:
    edge_parity = 1

    def __init__(self, ngen, edge_gen, parities):
        self.ngen = ngen
        self.edge_gen = edge_gen  # mask of the odd generator wedged on edges
        self.parities = parities  # tilde degrees of the inputs

    def leaf(self, i, state):
        return dict(state)

    def leaf_parity(self, i):
        return 0

    def tilde(self, i):
        return self.parities[i]

    def edge(self, lo, hi, state):
        return wedge_product({self.edge_gen: Fraction(1)}, state, self.ngen)

    def mu2(self, lo, mid, hi, a, b):
        return wedge_product(a, b, self.ngen)

    def _parity(self, state):
        ps = {bin(m).count("1") & 1 for m in state}
        assert len(ps) <= 1
        return ps.pop() if ps else 0

    def vertex(self, lo, mid, hi, s1, s2):
        if not s1 or not s2:
            return {}
        t1 = self._parity(s1) ^ 1
        t2 = self._parity(s2) ^ 1
        sign = (-1) ** ((t1 & t2) ^ t2 ^ 1)
        out = wedge_product(s2, s1, self.ngen)
        return {k: v * sign for k, v in out.items()}

    def root(self, state):
        return dict(state)


def test_dual_path_equality():
    rng = random.Random(7)
    for k in range(2, 6):
        trees = enumerate_binary(k)
        for trial in range(100 // len(trees) + 2):
            # one odd generator per possible edge use plus per leaf
            ngen = 2 * k
            edge_gen = 1 << (ngen - 1)
            parities = {}
            inputs = {}
            used = 0
            for i in range(1, k + 1):
                odd = rng.randint(0, 1)
                if odd:
                    mask = 1 << used
                    used += 1
                else:
                    mask = 0
                inputs[i] = {mask: Fraction(rng.randint(1, 5))}
                # tilde degree is the plain parity plus one
                parities[i] = (bin(mask).count("1") & 1) ^ 1
            dec = ToyDecoration(ngen, edge_gen, parities)
            for t in trees:
                lhs = denote(t, dec, inputs)
                rhs = mirror_eval(t, dec, inputs)
                s = mirror_sign(t, parities)
                rhs = {k2: v * s for k2, v in rhs.items()}
                assert lhs == rhs, (t, inputs)


def test_denote_multilinear():
    rng = random.Random(3)
    k = 3
    ngen = 6
    parities = {1: 1, 2: 1, 3: 1}
    dec = ToyDecoration(ngen, 1 << 5, parities)
    t = enumerate_binary(3)[0]
    a = {0: Fraction(2)}
    b = {0: Fraction(5)}
    inputs1 = {1: a, 2: a, 3: a}
    inputs2 = {1: b, 2: a, 3: a}
    sum_inputs = {1: {0: Fraction(7)}, 2: a, 3: a}
    lhs = denote(t, dec, sum_inputs)
    r1 = denote(t, dec, inputs1)
    r2 = denote(t, dec, inputs2)
    total = dict(r1)
    for key, v in r2.items():
        total[key] = total.get(key, Fraction(0)) + v
    assert lhs == {k2: v for k2, v in total.items() if v}


def test_single_leaf_denotation():
    dec = ToyDecoration(2, 1, {1: 1})
    inputs = {1: {1: Fraction(3)}}
    # tree consisting of a single leaf: leaf op then root, both identity
    assert denote(1, dec, inputs) == inputs[1]
