"""The operator arena for a pair of Koszul matrix factorisations.

For each ordered pair (X, Y) we build the truncated state space
wedge(F_theta (+) fermions of the pair's presentation) tensor R/I tensor
Q[t]_{<= cap}, with the rho presentation (fermions xi, xibar) when X is Y
and the nu presentation (eta, xibar) otherwise, together with the cached
operators: the transported differential d_A, delta, the connection
nabla, the critical Atiyah class At = [d_A, nabla], the inclusion sigma
of the theta- and t-degree-zero sector (which is also the projection
pi onto it), the perturbation series sigma_infty and phi_infty, and the
homotopy equivalence Phi, Phi^{-1}, H_hat.  The propagator zeta and
zeta At are built on the way and not kept: zeta At is dropped once both
series are summed.  The exponentials e^{+-delta} go into Phi and
Phi^{-1}, and only H_hat's column store keeps them.  d_A and delta come
from integer mask moves: each summand moves the fermion bits of a mask,
then multiplies by a polynomial through its t-adic columns over one
denominator (the transported multiplication r^#).  The columns are
read from QuotientBasis.columns, which keeps them per polynomial, so
the arenas of a model and the vertex catalogs of the normal-ordering
backend expand each polynomial once.  d_A, delta and e^{+-delta}
commute with the t-shifts and never lower the t-degree, so each is
built on the keys of t-degree zero only, at the full cap, and
Arena._shifted carries those columns to every other key, finding the
output keys by basis position and cutting at the cap.  Every output key
of an operator is the space's own key object (Space.own_key), so all
the operators share one tuple per basis key.  e^{+-delta} (one pass
over the powers of delta) and sigma_infty, phi_infty (two tails of one
zeta At) are power series summed column by column; Phi and Phi^{-1}
are compositions; At is built column by column by graded_commutator.
H_hat = e^delta phi_infty e^{-delta} is a ComposedColumns store: the
first read of a column takes it through the three operators, drops its
cancelled entries and keeps it, so building an arena fills no H_hat
column and each command fills only the columns it reads.  The columns
share one int object per distinct value, over the product of the three
denominators, not in lowest terms.  The core basis and the test keys
of each margin are built once per arena.  sdr_verify checks the
defining identities exactly on a margin-restricted basis, in one pass
over the test keys, in integers over one denominator per identity; its
default margin is n plus the t-degree R that the identities' terms
reach from the keys of t-degree zero, which come first in the basis:
the same pass reads R from the term images it tests on them.
"""

from fractions import Fraction
from math import factorial, lcm
from operator import add

from .superspace import (
    LinearOp,
    Space,
    ZeroVirtualDegree,
    contract_mask,
    graded_commutator,
    move_word,
    power_series,
    wedge_mask,
)


class ComposedColumns(dict):
    """The columns of outer after mid after inner, each built on its
    first read and kept: a read of key's column takes inner's column
    through mid and then outer, drops the cancelled entries and swaps
    every entry for one int object per distinct value, shared by all
    the columns built.  The entries are integers over outer.den mid.den
    inner.den, not brought to lowest terms.  Every key has a column,
    possibly empty; get returns default for an empty one.  The dict
    holds the columns read so far, and iterating it gives only those."""

    def __init__(self, outer, mid, inner):
        super().__init__()
        self._ops = outer, mid, inner
        self._shared = {}

    def __missing__(self, key):
        outer, mid, inner = self._ops
        share = self._shared.setdefault
        image = outer.image(mid.image(inner.cols.get(key, {})))
        out = self[key] = {k: share(c, c) for k, c in image.items() if c}
        return out

    def get(self, key, default=None):
        return self[key] or default


class Arena:
    def __init__(self, X, Y, qb, cap, homX, homY):
        self.X = X
        self.Y = Y
        self.qb = qb
        self.cap = cap
        self.n = qb.n
        self.presentation = "rho" if X is Y else "nu"
        self.homX = homX
        self.homY = homY
        if self.presentation == "nu":
            fam = [("theta", self.n), ("eta", Y.r), ("xibar", X.r)]
        else:
            fam = [("theta", self.n), ("xi", X.r), ("xibar", X.r)]
        self.space = Space(fam, qb.mu, self.n, cap)
        self._core = tuple(k for k in self.space.basis() if self.is_core_key(k))
        # the keys of t-degree zero: the first block of the basis
        self._t0 = self.space.basis()[:self.space.mu << self.space.ngen]
        self._test_keys = {}
        self._build_operators()

    # ------------------------------------------------------------------
    # the main operators

    def _differentials(self):
        """(d_A, delta), each a sum of (sign, r, word) terms: the fermion
        moves of word act on the mask, last to first, and then the
        t-adic columns of r, cut at the cap, act on (h, delta)."""
        pos = self.space.gen_pos

        def wedge(family, i):
            return wedge_mask, pos(family, i)

        def contract(family, i):
            return contract_mask, pos(family, i)

        d_terms, delta_terms = [], []
        if self.presentation == "nu":
            for j, (u, v) in enumerate(self.Y.pairs):
                d_terms += [(1, u, [contract("eta", j)]),
                            (1, v, [wedge("eta", j)])]
            for i, (f, g) in enumerate(self.X.pairs):
                d_terms += [(-1, f, [wedge("xibar", i)]),
                            (1, g, [contract("xibar", i)])]
            for k in range(self.n):
                tk = contract("theta", k)
                for j in range(self.Y.r):
                    delta_terms += [
                        (1, self.homY.F[k][j], [contract("eta", j), tk]),
                        (1, self.homY.G[k][j], [wedge("eta", j), tk])]
        else:
            for i, (f, g) in enumerate(self.X.pairs):
                d_terms += [(1, f, [contract("xi", i)]),
                            (1, g, [contract("xibar", i)])]
            for k in range(self.n):
                tk = contract("theta", k)
                for i in range(self.X.r):
                    F, G = self.homX.F[k][i], self.homX.G[k][i]
                    delta_terms += [(1, F, [contract("xi", i), tk]),
                                    (1, F, [wedge("xibar", i), tk]),
                                    (1, G, [wedge("xi", i), tk])]

        return (self._term_sum(1, d_terms), self._term_sum(0, delta_terms))

    def _term_sum(self, degree, terms):
        """The operator sum of sign * r after word over the terms with a
        non-zero polynomial r, through the columns of r in the quotient
        basis.  The columns are brought over one denominator as integers;
        the moves of every term are made on the keys of t-degree zero,
        and _shifted carries their columns to the other keys."""
        sp, cap, qb, own = self.space, self.cap, self.qb, self.space.own_key
        terms = [(sign, word[::-1], qb.columns(r)) for sign, r, word in terms
                 if r]
        den = lcm(*(c.denominator for _, _, cols in terms
                    for col in cols.values() for c in col.values()))
        cols = {}
        for key in self._t0:
            mask0, h, _ = key
            out = {}
            for sign, word, tcols in terms:
                hit = move_word(mask0, word)
                if hit:
                    for (l, d2), c in tcols.get(h, {}).items():
                        if sum(d2) <= cap:
                            k2 = own[hit[1], l, d2]
                            out[k2] = (out.get(k2, 0) + sign * hit[0]
                                       * c.numerator * (den // c.denominator))
            if out:
                cols[key] = out
        return self._shifted(LinearOp.from_cols(sp, degree, cols, den))

    def _shifted(self, op):
        """The operator whose column on each key (mask, h, delta) is op's
        column on (mask, h, 0) with every entry's boson multi-index raised
        by delta, and the entries beyond the cap dropped.  op holds
        columns on keys of t-degree zero only, at the full cap, in lowest
        terms; so the result is in lowest terms over op.den too.  Exact
        for an operator that commutes with the t-shifts and never lowers
        the t-degree.  Output keys are found by their basis position,
        block(delta) + (h << ngen | mask), as the basis is delta-major."""
        sp = self.space
        basis, deltas, ngen = sp.basis(), sp.deltas, sp.ngen
        stride = sp.mu << ngen
        index = {d: b for b, d in enumerate(deltas)}
        block = {d: b * stride for d, b in index.items()}
        # offsets[b0][b2]: the block of deltas[b0] + deltas[b2], or None
        # beyond the cap
        offsets = [[block.get(tuple(map(add, d0, d2))) for d2 in deltas]
                   for d0 in deltas]
        t0 = [(key[1] << ngen | key[0],
               [(index[k2[2]], k2[1] << ngen | k2[0], c)
                for k2, c in col.items()])
              for key, col in op.cols.items()]
        cols = {}
        for b0, offs in enumerate(offsets):
            start = b0 * stride
            for low0, entries in t0:
                out = {basis[o + low]: c for b2, low, c in entries
                       if (o := offs[b2]) is not None}
                if out:
                    cols[basis[start + low0]] = out
        return LinearOp(sp, op.degree, cols, op.den)

    def _build_operators(self):
        n = self.n
        self.d_A, self.delta = self._differentials()
        self.nabla = self._build_nabla()
        self.At = graded_commutator(self.d_A, self.nabla)
        self.sigma = self._build_sigma()
        # the perturbation series sum_m (-1)^m (zeta At)^m tail, which
        # stops at m = n, for the tails sigma and zeta nabla; zeta At is
        # dropped once both are summed
        zeta_at = self.zeta_after(self.At)
        alternating = [[(-1) ** m for m in range(n + 1)]]
        self.sigma_infty, = power_series(zeta_at, alternating, self.sigma)
        self.phi_infty, = power_series(zeta_at, alternating,
                                       self.zeta_after(self.nabla))
        del zeta_at
        # e^{+-delta} go into Phi and Phi_inv, and only H_hat's column
        # store keeps them; sigma is also the projection pi onto the core
        e_delta, e_minus_delta = self._exponentials()
        self.Phi = self.sigma.compose(e_minus_delta)
        self.Phi_inv = e_delta.compose(self.sigma_infty)
        # e^{+-delta} are even: H_hat has the degree of phi_infty
        self.H_hat = LinearOp(
            self.space, self.phi_infty.degree,
            ComposedColumns(e_delta, self.phi_infty, e_minus_delta),
            e_delta.den * self.phi_infty.den * e_minus_delta.den)

    def _exponentials(self):
        """(e^delta, e^{-delta}).  delta lowers the theta-degree, so
        delta^(n+1) = 0; it commutes with the t-shifts and never lowers
        the t-degree, so each series is summed on the keys of t-degree
        zero, in one pass over the powers of delta, and shifted."""
        exp = [Fraction(1, factorial(m)) for m in range(self.n + 1)]
        one = LinearOp(self.space, 0, {key: {key: 1} for key in self._t0})
        return tuple(map(self._shifted, power_series(
            self.delta, [exp, [(-1) ** m * c for m, c in enumerate(exp)]],
            one)))

    def _build_nabla(self):
        """nabla = sum_k theta_k d/dt_k, integer columns over 1."""
        sp = self.space
        own = sp.own_key
        cols = {}
        for key in sp.basis():
            mask, h, delta = key
            col = {}
            for k in range(self.n):
                hit = delta[k] and wedge_mask(mask, sp.gen_pos("theta", k))
                if hit:
                    nd = tuple(e - 1 if j == k else e
                               for j, e in enumerate(delta))
                    col[own[hit[1], h, nd]] = hit[0] * delta[k]
            if col:
                cols[key] = col
        return LinearOp.from_cols(sp, 1, cols, 1)

    def is_core_key(self, key):
        """theta-degree 0 and t-degree 0: the subspace B'."""
        return not key[0] & self.space.theta_mask and not sum(key[2])

    def core_basis(self):
        """The keys of B', in basis order; built once per arena."""
        return self._core

    def _build_sigma(self):
        cols = {key: {key: 1} for key in self._core}
        return LinearOp(self.space, 0, cols)

    def zeta_after(self, op):
        """zeta, the division by the virtual degree, composed after an
        operator whose image avoids virtual degree zero."""
        vdeg = {}
        for col in op.cols.values():
            for key in col:
                if key not in vdeg:
                    v = self.space.virtual_degree(key)
                    if v == 0:
                        raise ZeroVirtualDegree(key)
                    vdeg[key] = v
        m = lcm(*set(vdeg.values()))
        cols = {key: {k2: c * (m // vdeg[k2]) for k2, c in col.items()}
                for key, col in op.cols.items()}
        return LinearOp.from_cols(self.space, op.degree, cols, op.den * m)

    # ------------------------------------------------------------------

    def test_keys(self, margin):
        """The keys of t-degree <= cap - margin, in basis order; built
        once per arena and margin."""
        keys = self._test_keys.get(margin)
        if keys is None:
            limit = self.cap - margin
            keys = self._test_keys[margin] = tuple(
                k for k in self.space.basis() if sum(k[2]) <= limit)
        return keys

    def sdr_verify(self, margin=None):
        """Check the homotopy-equivalence identities exactly on all basis
        states of t-degree <= cap - margin, in one pass over those keys
        that reads each key's H_hat, Phi, d_A and Phi_inv columns once.
        Each identity is an unreduced integer image over one denominator,
        tested for a non-zero entry; only the first failing key of an
        identity is reduced to its rational diff.  Returns a report
        dict.  The default margin is n + R, R the largest t-degree that
        the terms d H, H d, Phi_inv Phi and Phi Phi_inv reach from a key
        of t-degree zero (Phi_inv has columns on the core only): only
        nabla lowers the t-degree, a term applies at most n nablas, so
        the cap changes no output of t-degree <= cap - n, where the terms
        on the keys inside the margin stay (README, "Truncation model").
        The keys of t-degree zero come first in the basis, so the same
        pass reads R from the term images it tests on them."""
        Phi, Phi_inv, H, d = self.Phi, self.Phi_inv, self.H_hat, self.d_A
        # Phi_inv Phi + d H + H d - 1 over the lcm of its two denominators
        den_pp, den_dh = Phi_inv.den * Phi.den, d.den * H.den
        den_retract = lcm(den_pp, den_dh)
        m_pp, m_dh = den_retract // den_pp, den_retract // den_dh
        first = {}

        def test(name, key, nums, den):
            if name not in first and any(nums.values()):
                first[name] = key, {k: Fraction(v, den)
                                    for k, v in nums.items() if v}

        def times(col, m):
            return col if m == 1 else {k: c * m for k, c in col.items()}

        def top(*images):
            return max((sum(k[2]) for image in images
                        for k, c in image.items() if c), default=0)

        empty = {}

        def check(key, reach):
            """Test the identities on key.  With reach, return the
            largest t-degree that their terms reach from key, else 0."""
            tdeg = 0
            h_col = H.cols.get(key, empty)
            if self.is_core_key(key):
                inv_col = Phi_inv.cols.get(key, empty)
                out = Phi.image(inv_col)
                if reach:
                    tdeg = top(out)
                out[key] = out.get(key, 0) - den_pp
                test("Phi Phi_inv = 1", key, out, den_pp)
                test("H Phi_inv = 0", key, H.image(inv_col),
                     H.den * Phi_inv.den)
            out = d.image(times(h_col, m_dh))
            terms = (H.image(times(d.cols.get(key, empty), m_dh)),
                     Phi_inv.image(times(Phi.cols.get(key, empty), m_pp)))
            if reach:
                tdeg = max(tdeg, top(out, *terms))
            for term in terms:
                for k, c in term.items():
                    out[k] = out.get(k, 0) + c
            out[key] = out.get(key, 0) - den_retract
            test("Phi_inv Phi = 1 - [d, H]", key, out, den_retract)
            test("H H = 0", key, H.image(h_col), H.den * H.den)
            test("Phi H = 0", key, Phi.image(h_col), Phi.den * H.den)
            return tdeg

        done = 0
        if margin is None:
            # the keys of t-degree zero give R; they are test keys unless
            # the margin n + R leaves none
            margin = self.n + max(check(key, True) for key in self._t0)
            if margin > self.cap:
                first.clear()
            done = len(self._t0)
        keys = self.test_keys(margin)
        for key in keys[done:]:
            check(key, False)
        identities = {}
        for name in ("Phi Phi_inv = 1", "Phi_inv Phi = 1 - [d, H]",
                     "H H = 0", "H Phi_inv = 0", "Phi H = 0"):
            if name in first:
                witness, diff = first[name]
                identities[name] = {"ok": False, "witness": witness,
                                    "diff": diff}
            else:
                identities[name] = {"ok": True}
        return {"margin": margin, "checked": len(keys),
                "identities": identities}
