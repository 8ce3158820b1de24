"""linalg.basis_change on random rational columns, and the cohomology
built on it on every pair of the worked model.

The reference is the plain rref: the rank of a set of vectors is the
number of pivots of the matrix they form.
"""

from fractions import Fraction
from itertools import product

from hypothesis import given, settings, strategies as st

from ainfmf import cli
from ainfmf.ainfmodel import cohomology
from ainfmf.linalg import basis_change, rref
from ainfmf.superspace import rational_state

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


def rank(vectors, n):
    """Rank of a list of vectors of length n."""
    if not vectors or not n:
        return 0
    return len(rref([list(row) for row in zip(*vectors)])[1])


def dot(row, v):
    return sum((a * b for a, b in zip(row, v)), Fraction(0))


FIXED = settings(max_examples=80, deadline=None, derandomize=True)


@FIXED
@given(column_sets())
def test_basis_change_coordinates_and_null_rows(drawn):
    n, cols, weights, other = drawn
    pivots, coords, null = basis_change(cols, n)
    # the greedy independent subset, in order
    greedy = []
    for j, c in enumerate(cols):
        if rank([cols[p] for p in greedy] + [c], n) > len(greedy):
            greedy.append(j)
    assert pivots == greedy
    r = len(pivots)
    assert len(coords) == r and len(null) == n - r
    # the coordinate rows invert the pivot columns
    for i, j in product(range(r), repeat=2):
        assert dot(coords[i], cols[pivots[j]]) == (i == j)
    # and read off the coefficients of any vector in the span
    v = [sum((w * c[i] for w, c in zip(weights, cols)), Fraction(0))
         for i in range(n)]
    rebuilt = [sum((dot(coords[k], v) * cols[p][i]
                    for k, p in enumerate(pivots)), Fraction(0))
               for i in range(n)]
    assert rebuilt == v
    # the rows past the rank vanish on the span, are independent, so
    # vanish nowhere else
    assert not any(dot(row, c) for row in null for c in cols)
    assert rank(null, n) == n - r
    inside = rank(cols + [other], n) == r
    assert inside == (not any(dot(row, other) for row in null))


WORKED = {
    "variables": ["x"],
    "potential": "1/5*x^5",
    "objects": [
        {"label": "X", "pairs": [["x^2", "1/5*x^3"]]},
        {"label": "Y", "pairs": [["x^3", "1/5*x^2"]]},
    ],
    "cap": 2,
}
MODEL = cli.Problem(WORKED).model
PAIRS = list(product(range(2), repeat=2))


def differential(pair):
    """rho_1 as Fraction columns on the core basis of a pair."""
    basis = MODEL.pair(*pair).core_basis()
    return basis, [rational_state(MODEL.rho1_apply(pair, ({b: 1}, 1)))
                   for b in basis]


def vector(basis, state):
    return [Fraction(state.get(b, 0)) for b in basis]


def test_cohomology_representatives_on_worked_pairs():
    for pair in PAIRS:
        basis, cols = differential(pair)
        n = len(basis)
        dense = [vector(basis, col) for col in cols]
        rank_d = rank(dense, n)
        assert rank_d > 0, pair  # rho_1 is not zero here
        coh = cohomology(MODEL, pair)
        for v in coh.reps:
            image = [sum((c * d[i] for c, d in zip(v, dense)), Fraction(0))
                     for i in range(n)]
            assert not any(image), pair
        # independent modulo the image, and as many as dim ker - rank
        assert rank(dense + coh.reps, n) == rank_d + len(coh.reps)
        assert coh.dim == len(coh.reps) == (n - rank_d) - rank_d, pair


def test_reduce_on_worked_pairs():
    for pair in PAIRS:
        basis, cols = differential(pair)
        coh = cohomology(MODEL, pair)
        for i, v in enumerate(coh.reps):
            state = {b: c for b, c in zip(basis, v) if c}
            assert coh.reduce(state) == [int(i == j) for j in range(coh.dim)]
        moved = 0
        for b, col in zip(basis, cols):
            if col:
                assert coh.reduce(col) == [0] * coh.dim
                assert coh.reduce({b: 1}) is None
                moved += 1
        assert moved, pair
