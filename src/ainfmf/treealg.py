"""Plane binary trees, decorations and the signless mirror evaluation.

A tree with k leaves is a nested tuple over the leaf labels 1..k, e.g.
((1, 2), 3).  Internal vertices are trivalent; the root hangs below the
top vertex.  A decoration assigns operators to leaves, internal edges,
internal vertices (a binary product r2) and the root; its denotation
evaluates the tree on a tuple of inputs with the Koszul sign convention
in the tilde grading (the tests keep it as their reference, in
tests/test_treealg.py).  The mirror evaluation runs the left-right
mirrored decoration on the reversed inputs with no Koszul signs, with
mu2 at the vertices; the two paths differ by a pure sign computed by
mirror_sign.
"""


def enumerate_binary(k):
    """All plane binary trees with k leaves labelled 1..k, ordered with
    the left subtree size descending; there are Catalan(k-1) of them."""
    if k < 2:
        raise ValueError("need at least two leaves")

    def enum(lo, hi):
        if lo == hi:
            return [lo]
        out = []
        for mid in range(hi - 1, lo - 1, -1):
            for left in enum(lo, mid):
                for right in enum(mid + 1, hi):
                    out.append((left, right))
        return out

    return enum(1, k)


def leaves(tree):
    if isinstance(tree, int):
        return [tree]
    return leaves(tree[0]) + leaves(tree[1])


def right_branch_counts(tree):
    """P_i: how often the path from leaf i to the root enters a
    trivalent vertex as the right-hand branch.  Returns a dict leaf -> count."""
    out = {}

    def walk(node, count):
        if isinstance(node, int):
            out[node] = count
            return
        walk(node[0], count)
        walk(node[1], count + 1)

    walk(tree, 0)
    return out


def mirror_sign(tree, tilde):
    """The exchange sign between the Koszul-signed denotation
    and the signless mirror evaluation: exponent
    sum_{i<j} tilde_i tilde_j + sum_i tilde_i P_i + (k + 1).

    tilde: dict or list of Z2 tilde-degrees indexed by leaf label."""

    def t(i):
        return tilde[i] & 1

    ls = leaves(tree)
    k = len(ls)
    P = right_branch_counts(tree)
    exp = (k + 1) & 1
    for a in range(len(ls)):
        for b in range(a + 1, len(ls)):
            exp ^= t(ls[a]) & t(ls[b])
    for i in ls:
        exp ^= t(i) & (P[i] & 1)
    return -1 if exp else 1


def mirror_eval(tree, dec, inputs):
    """Signless evaluation of the mirrored decoration on the reversed
    inputs.  dec must additionally provide mu2(lo, mid, hi, a, b) which
    is the plain composition product (first argument composed after the
    second); no Koszul signs are applied anywhere."""

    def go(node, is_top):
        if isinstance(node, int):
            return dec.leaf(node, inputs[node])
        ls = leaves(node[0])
        lo, mid, hi = ls[0], ls[-1], leaves(node[1])[-1]
        a = go(node[1], False)
        b = go(node[0], False)
        out = dec.mu2(lo, mid, hi, a, b)
        if not is_top:
            out = dec.edge(lo, hi, out)
        return out

    return dec.root(go(tree, True))
