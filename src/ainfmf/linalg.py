"""Dense exact linear algebra over Fraction: rref, kernel, basis change.

Matrices are lists of lists of Fraction.  Dimensions in this package are
small (tens to a few hundred), so Gaussian elimination is plenty.
"""

from fractions import Fraction


def rref(mat):
    """Reduced row echelon form.  Returns (rref matrix, pivot columns)."""
    m = [row[:] for row in mat]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot = None
        for i in range(r, rows):
            if m[i][c]:
                pivot = i
                break
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


def kernel_basis(mat):
    """Basis of the right kernel, as column vectors (lists)."""
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    if rows == 0:
        return [[Fraction(1) if i == j else Fraction(0) for i in range(cols)] for j in range(cols)]
    red, pivots = rref(mat)
    pivot_set = set(pivots)
    free = [c for c in range(cols) if c not in pivot_set]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * cols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -red[r][fc]
        basis.append(vec)
    return basis


def basis_change(cols, n):
    """One rref of [cols | I] for column vectors of length n.  Returns

    - pivots: the indices of the greedy independent subset of cols, in
      order;
    - coords: one row per pivot; coords[i] . v is the coefficient of
      cols[pivots[i]] in v, for v in the span of cols;
    - null: the rows past the rank; all of them vanish on v exactly
      when v is in the span of cols.
    """
    m = len(cols)
    red, pivots = rref([
        [c[i] for c in cols] + [Fraction(int(i == j)) for j in range(n)]
        for i in range(n)
    ])
    rank = sum(1 for p in pivots if p < m)
    rows = [row[m:] for row in red]
    return pivots[:rank], rows[:rank], rows[rank:]


def mat_mul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = [[Fraction(0)] * cols for _ in range(rows)]
    for i in range(rows):
        ai = a[i]
        for k in range(inner):
            c = ai[k]
            if not c:
                continue
            bk = b[k]
            oi = out[i]
            for j in range(cols):
                if bk[j]:
                    oi[j] += c * bk[j]
    return out
