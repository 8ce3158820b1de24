"""Matrix factorisations of a potential W over R = Q[x_1..x_n].

Objects are Koszul factorisations built from pairs (f_i, g_i) with
sum f_i g_i = W.  Their Hom spaces are presented on exterior algebras:
Hom(X, Y) by the nu presentation on wedge(F_eta) tensor wedge(F_xibar),
and Hom(X, X) by the rho presentation on wedge(F_xi) tensor
wedge(F_xibar), which identifies composition with Clifford
multiplication.  The rho presentation is inverted on one sparse
echelon of its columns: each matrix unit reduces to its coordinates on
them, one exterior element per matrix unit, so converting a matrix back
costs time in its non-zero entries.  Each object is checked once,
when it is built: KoszulFactorisation checks sum f_i g_i = W, which is
d^2 = W for a Koszul d.  check_homotopies is the one check of the
homotopy identity sum_i (F_ki g_i + G_ki f_i) = t_k; default_homotopies
and the model call it, once per object.

Hom elements over Q are dicts (row_mask, col_mask) -> Fraction; over R
the values are Polynomial.  Exterior elements are dicts
(target_mask, source_bar_mask) -> Fraction.
"""

from fractions import Fraction
from itertools import product
from math import comb

from .linalg import Echelon
from .poly import Polynomial
from .superspace import (add_into, contract_mask, extend_linearly, move_word,
                         wedge_mask)


class NotAFactorisation(Exception):
    pass


class HomotopyIdentityFailed(Exception):
    pass


class KoszulFactorisation:
    """The Koszul factorisation d = sum f_i xi_i* + sum g_i xi_i on
    wedge(F_xi) tensor R of the pairs (f_i, g_i).  d^2 = (sum f_i g_i) 1
    holds for every Koszul d, so the check sum f_i g_i = W is the check
    d^2 = W; the arena builds the matrices of d from the pairs."""

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


class HomotopySet:
    """Per t-sequence index k the coefficient lists F[k][i], G[k][i] of
    the homotopy lambda_k = sum_i (F_ki xi_i* + G_ki xi_i) of a Koszul
    object."""

    def __init__(self, F, G):
        self.F = F
        self.G = G


def check_homotopies(X, hom, tseq):
    """Raise HomotopyIdentityFailed unless [lambda_k, d] = t_k for every
    index k of the t-sequence; on a Koszul object this is the identity
    sum_i (F_ki g_i + G_ki f_i) = t_k."""
    if len(hom.F) != len(tseq) or len(hom.G) != len(tseq):
        raise HomotopyIdentityFailed(
            "object %r: %d homotopies for %d t-sequence entries"
            % (X.label, len(hom.F), len(tseq)))
    for k, t in enumerate(tseq):
        total = Polynomial.zero(X.nvars)
        for i, (f, g) in enumerate(X.pairs):
            total = total + hom.F[k][i] * g + hom.G[k][i] * f
        if total != t:
            raise HomotopyIdentityFailed(
                "object %r: sum_i (F_%di g_i + G_%di f_i) != t_%d"
                % (X.label, k + 1, k + 1, k + 1))


def default_homotopies(X, tseq=None):
    """The x_k-derivatives F_ki = df_i/dx_k, G_ki = dg_i/dx_k of the
    pairs, checked against tseq (default: the Jacobian sequence of W,
    for which the identity always holds)."""
    nvars = X.nvars
    hom = HomotopySet(
        [[f.diff(k) for f, _ in X.pairs] for k in range(nvars)],
        [[g.diff(k) for _, g in X.pairs] for k in range(nvars)],
    )
    if tseq is None:
        tseq = [X.W.diff(k) for k in range(nvars)]
    check_homotopies(X, hom, tseq)
    return hom


def nu_signed(entries):
    """Hom_k(X~, Y~) <-> wedge(F_eta) tensor wedge(F_xibar): the
    elementary map E_{S,T} corresponds to (-1)^{binom(|T|,2)} eta_S
    xibar_T.  The sign is plus-minus one, so the map is its own inverse
    and presents both ways."""
    out = {}
    for (S, T), c in entries.items():
        add_into(out, (S, T), -c if comb(T.bit_count(), 2) & 1 else c)
    return out


class RhoPresentation:
    """wedge(F_xi) tensor wedge(F_xibar) <-> End_k(wedge F_xi):
    xi_A tensor xibar_B maps to the composite of the wedge operators for A
    (ascending) followed by the contraction operators for B (ascending),
    one word of wedge_mask and contract_mask moves per column.
    The inverse is kept as sparse columns: _inv_cols[(row, col)] holds the
    non-zero coefficients of the matrix unit E_{row,col} (5^r in all)."""

    def __init__(self, X):
        self.X = X
        self.r = X.r
        self.dim = 1 << self.r
        masks = range(self.dim)
        self._cols = {}
        echelon = Echelon()
        for AB in product(masks, masks):
            self._cols[AB] = self._operator_matrix(*AB)
            if echelon.add(self._cols[AB], AB) is not None:
                raise ValueError("the rho presentation is singular")
        # the coordinates of the matrix unit E_{row,col} on the columns
        self._inv_cols = {
            unit: dict(sorted(echelon.reduce({unit: Fraction(1)})[1].items()))
            for unit in product(masks, masks)
        }

    def _operator_matrix(self, A, B):
        """The matrix of xi_A xibar_B: on each column one word of moves,
        the contractions for B and then the wedges for A, each family
        from its highest generator down (the rightmost acts first)."""
        down = range(self.r - 1, -1, -1)
        word = ([(contract_mask, i) for i in down if B >> i & 1]
                + [(wedge_mask, i) for i in down if A >> i & 1])
        out = {}
        for col in range(self.dim):
            hit = move_word(col, word)
            if hit:
                out[hit[1], col] = Fraction(hit[0])
        return out

    def to_matrix(self, ext):
        return extend_linearly(self._cols.__getitem__, ext)

    def from_matrix(self, entries):
        return extend_linearly(self._inv_cols.__getitem__, entries)
