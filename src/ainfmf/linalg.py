"""Exact linear algebra over Fraction on sparse vectors.

A vector is a dict key -> Fraction with no zero entries, the same shape
as every state in the package.  One Echelon holds a growing set of
independent vectors, each with a tag, and reduces any vector to a
remainder (empty exactly on the span) and its coordinates on the tags.
Every answer is fixed by the order in which the vectors are added: the
independent ones are the greedy subset, and the coordinates on them are
unique.  mat_mul multiplies, and rank takes the rank of, the small
dense matrices that maps induce on cohomology classes.
"""

from fractions import Fraction

from .superspace import add_into


class Echelon:
    """Semi-reduced rows: each row is 1 at its pivot key and 0 at the
    pivot keys of the rows before it, and is stored with its expression
    {tag: coefficient} in the tagged vectors that were added."""

    def __init__(self):
        self._rows = []

    def reduce(self, vec):
        """(remainder, coordinates): vec equals the remainder plus the
        sum of coordinates[tag] times the vector added with that tag, and
        the remainder is empty exactly when vec lies in the span."""
        rem = dict(vec)
        coords = {}
        for pivot, row, combo in self._rows:
            c = rem.get(pivot)
            if c:
                for key, v in row.items():
                    add_into(rem, key, -c * v)
                for tag, v in combo.items():
                    add_into(coords, tag, c * v)
        return rem, coords

    def add(self, vec, tag):
        """Keep vec under tag and return None if it extends the span;
        otherwise keep nothing and return its coordinates on the tags."""
        rem, coords = self.reduce(vec)
        if not rem:
            return coords
        pivot = next(iter(rem))
        inv = 1 / rem[pivot]
        combo = {t: -c * inv for t, c in coords.items()}
        combo[tag] = inv
        self._rows.append((pivot, {k: c * inv for k, c in rem.items()}, combo))
        return None

    def kernel(self, images):
        """Add images[j] under tag j, in order.  Returns the kernel of
        the map e_j -> images[j], one vector {j: coefficient} per image
        that depends on the earlier ones: 1 at j, minus its coordinates
        on the earlier independent images."""
        out = []
        for j, image in enumerate(images):
            coords = self.add(image, j)
            if coords is not None:
                vec = {i: -c for i, c in sorted(coords.items())}
                vec[j] = Fraction(1)
                out.append(vec)
        return out


def rank(matrix):
    """The rank of a dense matrix: the number of its columns that
    extend the span of the columns before them."""
    echelon = Echelon()
    return sum(
        1 for j in range(len(matrix[0]) if matrix else 0)
        if echelon.add({i: row[j] for i, row in enumerate(matrix) if row[j]},
                       j) is None)


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
