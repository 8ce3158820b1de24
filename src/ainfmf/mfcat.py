"""Matrix factorisations of a potential W over R = Q[x_1..x_n].

Two object forms: a generic matrix form (square odd matrix d with
d^2 = W) and the Koszul form built from pairs (f_i, g_i) with
sum f_i g_i = W.  For Koszul objects the Hom spaces have exterior-algebra
presentations: the nu presentation of Hom(X, Y) on wedge(F_eta) tensor
wedge(F_xibar), and for X = X the rho presentation on wedge(F_xi) tensor
wedge(F_xibar) which identifies composition with Clifford multiplication.

Hom elements over Q are dicts (row_mask, col_mask) -> Fraction; over R
the values are Polynomial.  Exterior elements are dicts
(target_mask, source_bar_mask) -> Fraction.
"""

from fractions import Fraction
from math import comb

from .linalg import inverse
from .poly import Polynomial
from .superspace import add_into, contract_mask, wedge_mask


class NotAFactorisation(Exception):
    pass


class HomotopyIdentityFailed(Exception):
    pass


def _matmul_poly(a, b, nvars):
    """Compose matrices of polynomials: (a b)[r, c] = sum a[r, m] b[m, c]."""
    out = {}
    for (r, m), p in a.items():
        for (m2, c), q in b.items():
            if m != m2:
                continue
            key = (r, c)
            acc = out.get(key, Polynomial.zero(nvars)) + p * q
            if acc.is_zero():
                out.pop(key, None)
            else:
                out[key] = acc
    return out


class MatrixFactorisation:
    """Generic form: basis indices 0..dim-1 with declared parities and an
    odd matrix d (dict (row, col) -> Polynomial) squaring to W."""

    def __init__(self, nvars, W, parities, d, label="X"):
        self.nvars = nvars
        self.W = W
        self.parities = list(parities)
        self.dim = len(parities)
        self.d = {k: v for k, v in d.items() if not v.is_zero()}
        self.label = label
        for (r, c), p in self.d.items():
            if self.parities[r] == self.parities[c]:
                raise NotAFactorisation("d has an even entry at %r" % ((r, c),))
        sq = _matmul_poly(self.d, self.d, nvars)
        for r in range(self.dim):
            expect = W
            got = sq.get((r, r), Polynomial.zero(nvars))
            if got != expect:
                raise NotAFactorisation("d^2 != W on basis index %d" % r)
        for (r, c), p in sq.items():
            if r != c and not p.is_zero():
                raise NotAFactorisation("d^2 has off-diagonal entry at %r" % ((r, c),))


class KoszulFactorisation:
    """d = sum f_i xi_i* + sum g_i xi_i on wedge(F_xi) tensor R."""

    def __init__(self, pairs, W, label="X"):
        if not pairs:
            raise NotAFactorisation("no pairs")
        self.pairs = [(f, g) for f, g in pairs]
        self.W = W
        self.label = label
        self.r = len(pairs)
        self.nvars = W.nvars
        total = Polynomial.zero(self.nvars)
        for f, g in self.pairs:
            total = total + f * g
        if total != W:
            raise NotAFactorisation("sum f_i g_i != W")
        self.dim = 1 << self.r
        self.d = {}
        for col in range(self.dim):
            for i, (f, g) in enumerate(self.pairs):
                hit = contract_mask(col, i)
                if hit and not f.is_zero():
                    s, row = hit
                    self._add(row, col, f * Fraction(s))
                hit = wedge_mask(col, i)
                if hit and not g.is_zero():
                    s, row = hit
                    self._add(row, col, g * Fraction(s))

    def _add(self, row, col, p):
        key = (row, col)
        acc = self.d.get(key, Polynomial.zero(self.nvars)) + p
        if acc.is_zero():
            self.d.pop(key, None)
        else:
            self.d[key] = acc

    def as_matrix_mf(self):
        parities = [m.bit_count() & 1 for m in range(self.dim)]
        return MatrixFactorisation(self.nvars, self.W, parities, self.d, self.label)


def koszul_mf(pairs, W, label="X"):
    K = KoszulFactorisation(pairs, W, label)
    K.as_matrix_mf()  # verifies d^2 = W exactly
    return K


def d_hom(X, Y):
    """d_Hom(alpha) = d_Y alpha - (-1)^{|alpha|} alpha d_X on Hom elements
    over R, given as (parity, entries)."""
    nvars = X.nvars

    def apply(parity, entries):
        left = _matmul_poly(Y.d, entries, nvars)
        right = _matmul_poly(entries, X.d, nvars)
        sign = Fraction(-1 if parity == 0 else 1)
        out = dict(left)
        for k, p in right.items():
            acc = out.get(k, Polynomial.zero(nvars)) + p * sign
            if acc.is_zero():
                out.pop(k, None)
            else:
                out[k] = acc
        return out

    return apply


class HomotopySet:
    """Per index k a homotopy matrix lam[k] with [lam_k, d] = t_k, and for
    Koszul objects the coefficient lists F[k][i], G[k][i]."""

    def __init__(self, lam, F=None, G=None):
        self.lam = lam
        self.F = F
        self.G = G


def default_homotopies(X, tseq=None):
    """Entrywise x_k-derivative of d.  Valid when t is the Jacobian
    sequence of W; the identity [lam_k, d] = t_k is verified exactly."""
    nvars = X.nvars
    if tseq is None:
        tseq = [X.W.diff(k) for k in range(nvars)]
    d = X.d
    lams = []
    for k in range(nvars):
        lam = {}
        for key, p in d.items():
            dp = p.diff(k)
            if not dp.is_zero():
                lam[key] = dp
        lams.append(lam)
    dim = X.dim if not isinstance(X, KoszulFactorisation) else 1 << X.r
    for k, lam in enumerate(lams):
        anti = _matmul_poly(lam, d, nvars)
        for key, p in _matmul_poly(d, lam, nvars).items():
            acc = anti.get(key, Polynomial.zero(nvars)) + p
            if acc.is_zero():
                anti.pop(key, None)
            else:
                anti[key] = acc
        for r in range(dim):
            if anti.get((r, r), Polynomial.zero(nvars)) != tseq[k]:
                raise HomotopyIdentityFailed(
                    "[lam_%d, d] != t_%d at basis index %d" % (k + 1, k + 1, r)
                )
        for (r, c), p in anti.items():
            if r != c and not p.is_zero():
                raise HomotopyIdentityFailed(
                    "[lam_%d, d] has off-diagonal entry at %r" % (k + 1, (r, c))
                )
    F = G = None
    if isinstance(X, KoszulFactorisation):
        F = [[f.diff(k) for f, _ in X.pairs] for k in range(nvars)]
        G = [[g.diff(k) for _, g in X.pairs] for k in range(nvars)]
    return HomotopySet(lams, F, G)


class NuPresentation:
    """Hom_k(X~, Y~) <-> wedge(F_eta) tensor wedge(F_xibar): the
    elementary map E_{S,T} corresponds to (-1)^{binom(|T|,2)} eta_S xibar_T."""

    def __init__(self, X, Y):
        self.X = X
        self.Y = Y
        self.r = X.r
        self.s = Y.r

    def to_ext(self, entries):
        out = {}
        for (S, T), c in entries.items():
            sign = -1 if comb(T.bit_count(), 2) & 1 else 1
            add_into(out, (S, T), c * sign)
        return out

    def from_ext(self, ext):
        # the sign is plus-minus one, so the map is its own inverse shape
        return self.to_ext(ext)


class RhoPresentation:
    """wedge(F_xi) tensor wedge(F_xibar) <-> End_k(wedge F_xi):
    xi_A tensor xibar_B maps to the composite of the wedge operators for A
    (ascending) followed by the contraction operators for B (ascending)."""

    def __init__(self, X):
        self.X = X
        self.r = X.r
        self.dim = 1 << self.r
        n2 = self.dim * self.dim
        # matrix of the map in the flat basis: column (A,B), row (row,col)
        mat = [[Fraction(0)] * n2 for _ in range(n2)]
        self._cols = {}
        for A in range(self.dim):
            for B in range(self.dim):
                entries = self._operator_matrix(A, B)
                self._cols[(A, B)] = entries
                ci = A * self.dim + B
                for (row, col), c in entries.items():
                    mat[row * self.dim + col][ci] = c
        self._inv = inverse(mat)

    def _operator_matrix(self, A, B):
        out = {}
        for col in range(self.dim):
            cur = {col: Fraction(1)}
            # contractions for B, applied ascending-last (rightmost acts first)
            for i in reversed(range(self.r)):
                if not B >> i & 1:
                    continue
                nxt = {}
                for m, c in cur.items():
                    hit = contract_mask(m, i)
                    if hit:
                        s, m2 = hit
                        add_into(nxt, m2, c * s)
                cur = nxt
            for i in reversed(range(self.r)):
                if not A >> i & 1:
                    continue
                nxt = {}
                for m, c in cur.items():
                    hit = wedge_mask(m, i)
                    if hit:
                        s, m2 = hit
                        add_into(nxt, m2, c * s)
                cur = nxt
            for row, c in cur.items():
                out[(row, col)] = c
        return out

    def to_matrix(self, ext):
        out = {}
        for (A, B), c in ext.items():
            for key, c2 in self._cols[(A, B)].items():
                add_into(out, key, c * c2)
        return out

    def from_matrix(self, entries):
        vec = [Fraction(0)] * (self.dim * self.dim)
        for (row, col), c in entries.items():
            vec[row * self.dim + col] = c
        out = {}
        for ci in range(self.dim * self.dim):
            acc = Fraction(0)
            row = self._inv[ci]
            for j, c in enumerate(vec):
                if c:
                    acc += row[j] * c
            if acc:
                out[(ci // self.dim, ci % self.dim)] = acc
        return out


def clifford_left_xi(i, elem):
    """Left Clifford multiplication by xi_i on dicts (A, B) -> coeff."""
    out = {}
    for (A, B), c in elem.items():
        hit = wedge_mask(A, i)
        if hit:
            s, A2 = hit
            add_into(out, (A2, B), c * s)
    return out


def clifford_left_xibar(i, elem):
    """xibar_i bullet (-) = xi_i* tensor 1 + 1 tensor xibar_i."""
    out = {}
    for (A, B), c in elem.items():
        hit = contract_mask(A, i)
        if hit:
            s, A2 = hit
            add_into(out, (A2, B), c * s)
        hit = wedge_mask(B, i)
        if hit:
            s, B2 = hit
            sign = s * (-1 if A.bit_count() & 1 else 1)
            add_into(out, (A, B2), c * sign)
    return out


def clifford_mult(e1, e2):
    """Clifford product on wedge(F_xi) tensor wedge(F_xibar)."""
    out = {}
    for (A, B), c in e1.items():
        cur = {k: v * c for k, v in e2.items()}
        for i in reversed(range(64)):
            if B >> i & 1:
                cur = clifford_left_xibar(i, cur)
        for i in reversed(range(64)):
            if A >> i & 1:
                cur = clifford_left_xi(i, cur)
        for k, v in cur.items():
            add_into(out, k, v)
    return out
