"""linalg.Echelon on random rational columns, and the cohomology, the
induced maps and the kstab kernels built on it, each against a dense
reference.

The reference is the plain rref of a list-of-lists matrix: the rank of
a set of vectors is the number of pivots of the matrix they form, the
kernel has one vector per free column, and one rref of [image | kernel
| I] gives the cohomology representatives and the rows that reduce a
cocycle to its class.
"""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from ainfmf import cli
from ainfmf.ainfmodel import cohomology, induced_map, kstab_minimal
from ainfmf.linalg import Echelon
from ainfmf.poly import parse_poly
from ainfmf.superspace import rational_state

from test_normalorder import kstab_model, quadric_model


def rref(mat):
    """Reduced row echelon form.  Returns (rref matrix, pivot columns)."""
    m = [row[:] for row in mat]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def columns_rref(cols, n):
    """rref of the n-row matrix whose columns are cols."""
    return rref([[c[i] for c in cols] for i in range(n)])


def dense_kernel(cols, n):
    """One kernel vector per free column fc: 1 at fc, minus the rref
    entries of fc at the pivot columns."""
    red, pivots = columns_rref(cols, n)
    out = []
    for fc in range(len(cols)):
        if fc in pivots:
            continue
        vec = [Fraction(0)] * len(cols)
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -red[r][fc]
        out.append(vec)
    return out


def rank(vectors, n):
    return len(columns_rref(vectors, n)[1])


def sparse(vec):
    return {i: c for i, c in enumerate(vec) if c}


def combination(weights, cols, n):
    return [sum((w * c[i] for w, c in zip(weights, cols)), Fraction(0))
            for i in range(n)]


# small entries with many zeros, so that drawn columns are often
# dependent and some are zero
entries = st.sampled_from([0, 0, 0, 1, -1, 2]).map(Fraction) | st.builds(
    Fraction, st.integers(-5, 5), st.integers(1, 4))


@st.composite
def column_sets(draw):
    n = draw(st.integers(0, 4))
    cols = draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                         max_size=5))
    weights = draw(st.lists(entries, min_size=len(cols), max_size=len(cols)))
    other = draw(st.lists(entries, min_size=n, max_size=n))
    return n, cols, weights, other


FIXED = settings(max_examples=80, deadline=None, derandomize=True)


@FIXED
@given(column_sets())
def test_echelon_against_dense_rref(drawn):
    n, cols, weights, other = drawn
    red, pivots = columns_rref(cols, n)
    # the independent tags are the greedy ones, and a dependent column
    # gets its rref entries as coordinates on them
    echelon = Echelon()
    independent = []
    for j, col in enumerate(cols):
        coords = echelon.add(sparse(col), j)
        if coords is None:
            independent.append(j)
        else:
            assert coords == {pc: red[r][j] for r, pc in enumerate(pivots)
                              if red[r][j]}
    assert independent == pivots
    # each kernel vector is 1 at its own column and 0 at the other
    # dependent columns, and is the dense one
    dependent = [j for j in range(len(cols)) if j not in pivots]
    kernel = Echelon().kernel([sparse(c) for c in cols])
    assert kernel == [sparse(v) for v in dense_kernel(cols, n)]
    for j, vec in zip(dependent, kernel):
        assert [vec.get(d, 0) for d in dependent] == [int(d == j)
                                                      for d in dependent]
        assert not any(combination([vec.get(i, 0) for i in range(len(cols))],
                                   cols, n))
    # a vector in the span reduces to nothing, with the coordinates that
    # the rref of [pivot columns | v] gives
    v = combination(weights, cols, n)
    rem, coords = echelon.reduce(sparse(v))
    assert not rem
    solved, _ = columns_rref([cols[p] for p in pivots] + [v], n)
    assert coords == {p: solved[r][-1] for r, p in enumerate(pivots)
                      if solved[r][-1]}
    # and the remainder is empty exactly on the span
    inside = rank(cols + [other], n) == len(pivots)
    assert inside == (not echelon.reduce(sparse(other))[0])


WORKED = {
    "variables": ["x"],
    "potential": "1/5*x^5",
    "objects": [
        {"label": "X", "pairs": [["x^2", "1/5*x^3"]]},
        {"label": "Y", "pairs": [["x^3", "1/5*x^2"]]},
    ],
    "cap": 2,
}
TWO_VARIABLE = {
    "variables": ["x1", "x2"],
    "potential": "x1^2 + x2^2",
    "objects": [
        {"label": "K", "pairs": [["x1", "x1"], ["x2", "x2"]]},
        {"label": "L", "pairs": [["x1", "x1"], ["-x2", "-x2"]]},
    ],
    "cap": 2,
}
MODEL = cli.Problem(WORKED).model
PAIRS = list(product(range(2), repeat=2))


def differential(model, pair):
    """rho_1 as Fraction columns on the core basis of a pair."""
    basis = model.pair(*pair).arena.core_basis()
    return basis, [rational_state(model.rho1_apply(pair, ({b: 1}, 1)))
                   for b in basis]


def vector(basis, state):
    return [Fraction(state.get(b, 0)) for b in basis]


def test_cohomology_representatives_on_worked_pairs():
    for pair in PAIRS:
        basis, cols = differential(MODEL, pair)
        n = len(basis)
        dense = [vector(basis, col) for col in cols]
        rank_d = rank(dense, n)
        assert rank_d > 0, pair  # rho_1 is not zero here
        coh = cohomology(MODEL, pair)
        reps = [vector(basis, v) for v in coh.reps]
        for v in reps:
            assert not any(combination(v, dense, n)), pair
        # independent modulo the image, and as many as dim ker - rank
        assert rank(dense + reps, n) == rank_d + len(reps)
        assert coh.dim == len(reps) == (n - rank_d) - rank_d, pair


def test_reduce_on_worked_pairs():
    for pair in PAIRS:
        basis, cols = differential(MODEL, pair)
        coh = cohomology(MODEL, pair)
        for i, state in enumerate(coh.reps):
            assert coh.reduce(state) == [int(i == j) for j in range(coh.dim)]
        moved = 0
        for b, col in zip(basis, cols):
            if col:
                assert coh.reduce(col) == [0] * coh.dim
                assert coh.reduce({b: 1}) is None
                moved += 1
        assert moved, pair


class DenseCohomology:
    """The dense reference: one rref of [image | kernel | I]."""

    def __init__(self, basis, cols):
        self.basis = basis
        self.index = {b: i for i, b in enumerate(basis)}
        n = len(basis)
        self.dense = [vector(basis, col) for col in cols]
        image = [c for c in self.dense if any(c)]
        kernel = dense_kernel(self.dense, n)
        m = len(image) + len(kernel)
        red, pivots = columns_rref(
            image + kernel + [[int(i == j) for i in range(n)]
                              for j in range(n)], n)
        rows = [row[m:] for row in red]
        rank = sum(1 for p in pivots if p < m)
        self.reps = [kernel[p - len(image)] for p in pivots[:rank]
                     if p >= len(image)]
        self.coords = rows[rank - len(self.reps):rank]
        self.null = rows[rank:]

    def dot(self, row, state):
        return sum((row[self.index[k]] * c for k, c in state.items()),
                   Fraction(0))

    def reduce(self, state):
        """The class of a cocycle, or None for a state that is not one."""
        boundary = [sum((c * self.dense[self.index[k]][i]
                         for k, c in state.items()), Fraction(0))
                    for i in range(len(self.basis))]
        if any(boundary):
            return None
        assert not any(self.dot(row, state) for row in self.null)
        return [self.dot(row, state) for row in self.coords]

    def induced(self, colmap):
        rows = []
        for v in self.reps:
            image = {}
            for b, c in zip(self.basis, v):
                for k2, c2 in colmap.get(b, {}).items():
                    image[k2] = image.get(k2, 0) + c * c2
            rows.append(self.reduce({k: c for k, c in image.items() if c}))
            if rows[-1] is None:
                return None
        return [list(r) for r in zip(*rows)] if rows else []


@pytest.mark.parametrize("name, model, pairs", [
    pytest.param("worked", MODEL, PAIRS, id="worked"),
    pytest.param("two-variable", cli.Problem(TWO_VARIABLE).model, PAIRS,
                 id="two-variable"),
    pytest.param("quadric3", quadric_model(3, cap=1), [(0, 0)],
                 id="quadric3"),
])
def test_cohomology_matches_dense_reference(name, model, pairs):
    for pair in pairs:
        basis, cols = differential(model, pair)
        coh = cohomology(model, pair)
        ref = DenseCohomology(basis, cols)
        if name == "quadric3":
            assert len(basis) == 64
        assert coh.reps == [{b: c for b, c in zip(basis, v) if c}
                            for v in ref.reps], (name, pair)
        # the coordinates of each representative plus boundaries
        for i, state in enumerate(coh.reps):
            shifted = dict(state)
            for col in cols[i::3]:
                for key, c in col.items():
                    shifted[key] = shifted.get(key, 0) + (i + 1) * c
            shifted = {k: c for k, c in shifted.items() if c}
            assert coh.reduce(shifted) == ref.reduce(shifted), (name, pair)
        # the matrices that E1, gamma, dagger and At induce
        cliff = model.e1_and_clifford(pair)
        maps = [cliff["E1"]] + cliff["gamma"] + cliff["dagger"] + cliff["At"]
        for colmap in maps:
            assert induced_map(coh, colmap) == ref.induced(colmap), (
                name, pair)


@pytest.mark.parametrize("model, decomposition", [
    pytest.param(kstab_model(cap=3), ["x1^2"], id="residue-field"),
    pytest.param(quadric_model(2, cap=1), ["x1", "x2"], id="quadric2"),
    pytest.param(quadric_model(3, cap=1), ["x1", "x2", "x3"], id="quadric3"),
])
def test_kstab_kernel_matches_dense_reference(model, decomposition):
    nvars = model.qb.nvars
    result = kstab_minimal(
        model, 0, [parse_poly(w, nvars) for w in decomposition], level=1)
    basis = model.pair(0, 0).arena.core_basis()
    gammas = model.e1_and_clifford((0, 0))["gamma"]
    stacked = [sum((vector(basis, g.get(b, {})) for g in gammas), [])
               for b in basis]
    kernel = dense_kernel(stacked, len(basis) * len(gammas))
    assert kernel
    assert result["kernel"] == [{b: c for b, c in zip(basis, v) if c}
                                for v in kernel]
