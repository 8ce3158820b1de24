"""The operator arena for a pair of Koszul matrix factorisations.

For each ordered pair (X, Y) we build the truncated state space
wedge(F_theta (+) fermions of the pair's presentation) tensor R/I tensor
Q[t]_{<= cap}, with the rho presentation (fermions xi, xibar) when X is Y
and the nu presentation (eta, xibar) otherwise, together with its
operators: the transported differential d_A, delta, the connection
nabla, the critical Atiyah class At = [d_A, nabla], the perturbation
series sigma_infty and phi_infty, and the homotopy equivalence Phi,
Phi^{-1}, H_hat.  Each is a LinearOp over a ColumnStore, whose first
read of a column builds it from the columns of the operators it is made
of and keeps it; building an arena fills no column.  Each denominator
is fixed when the arena is built, not in lowest terms.  d_A and delta
come from integer mask moves: each summand moves the fermion bits of a
mask, then multiplies by a polynomial through its t-adic columns (the
transported multiplication r^#), read from QuotientBasis.columns, so
the arenas and vertex catalogs of a model expand each polynomial once.
d_A, delta and e^{+-delta} commute with the t-shifts and never lower
the t-degree, so _shifted builds their column on (mask, h, delta) from
the one on (mask, h, 0).  At = d_A nabla + nabla d_A; the propagator
zeta divides by the virtual degree.  sigma_infty and phi_infty are the
series sum_m (-1)^m (zeta At)^m on the column of sigma (the inclusion
of the core) and of zeta nabla, e^delta the series over delta, each
summed one column at a time by series_column; e^{-delta} = P e^delta P
with P = (-1)^(theta-degree).  Phi = pi e^{-delta} is the core part of
the e^{-delta} column, Phi^{-1} = e^delta sigma_infty, and H_hat =
e^delta phi_infty e^{-delta}, whose columns share one int object per
distinct value.  Every output key of an operator is the space's own key
object (Space.own_key), so the operators share one tuple per basis key.
The core basis and the test keys of each margin are built once per
arena.  sdr_verify checks the defining identities exactly on a
margin-restricted basis, in one pass over the test keys, in integers
over one denominator per identity; its default margin is n plus the
t-degree R that the identities' terms reach from the keys of t-degree
zero, which come first in the basis: the same pass reads R from the
term images it tests on them.
"""

from fractions import Fraction
from itertools import combinations
from math import factorial, lcm, prod
from operator import add

from .superspace import (
    ColumnStore,
    LinearOp,
    Space,
    ZeroVirtualDegree,
    contract_mask,
    move_word,
    series_column,
    wedge_mask,
)


def _divided(nums, g):
    """Integer numerators over a denominator d, over d / g: g divides
    each numerator."""
    return {k: v // g for k, v in nums.items()}


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
        # raised[delta][d2]: delta + d2, for each d2 it leaves within cap
        deltas = self.space.deltas
        self._raised = {d0: {d2: nd for d2 in deltas
                             if sum(nd := tuple(map(add, d0, d2))) <= cap}
                        for d0 in deltas}
        # zeta divides by a virtual degree, at most n + cap
        self._zeta_den = lcm(*range(1, self.n + cap + 1))
        self._test_keys = {}
        self._build_operators()

    # ------------------------------------------------------------------
    # the main operators

    def _build_operators(self):
        n, sp, own = self.n, self.space, self.space.own_key
        core = self.is_core_key

        def op(degree, den, rule):
            return LinearOp(sp, degree, ColumnStore(rule), den)

        self.d_A, self.delta, self._theta_dens = self._differentials()
        d = self.d_A
        self.nabla = nabla = op(1, 1, self._nabla_column)
        # [d_A, nabla] of two odd operators
        self.At = at = op(0, d.den, lambda key: nabla.image(
            d.cols[key], d.image(nabla.cols[key])))
        # sum_m (-1)^m (zeta At)^m, which stops at m = n, on the columns
        # of sigma and zeta nabla.  nabla and zeta At raise the
        # theta-degree by one, and zeta divides by a theta-degree q plus
        # a t-degree <= cap, a divisor of lcm(q..q+cap).  A term passes
        # each q in 1..n once at most, so its sum, made over a power of
        # zeta_at.den, divides down to At.den^n, or ^(n-1), times lam
        zeta, zeta_den = self._zeta, self._zeta_den
        zeta_at = op(0, at.den * zeta_den, lambda key: zeta(at.cols[key]))
        lam = prod(lcm(*range(q, q + self.cap + 1)) for q in range(1, n + 1))
        sigma_den, phi_den = at.den ** n * lam, at.den ** max(n - 1, 0) * lam
        alternating = [(-1) ** m for m in range(n + 1)]
        top = zeta_at.den ** n

        def perturbed(tail, g):
            return _divided(series_column(zeta_at.image, zeta_at.den,
                                          alternating, tail), g)

        self.sigma_infty = op(0, sigma_den, lambda key: perturbed(
            {own[key]: 1}, top // sigma_den) if core(key) else {})
        self.phi_infty = phi = op(1, phi_den, lambda key: perturbed(
            zeta(nabla.cols[key]), top * zeta_den // phi_den))
        # only the rules of Phi, Phi_inv and H_hat keep e^{+-delta}
        e_delta, e_minus_delta = self._exp_delta()
        # pi, the projection onto the core, after e^{-delta}
        self.Phi = op(0, e_minus_delta.den, lambda key: {
            k: c for k, c in e_minus_delta.cols[key].items() if core(k)})
        self.Phi_inv = op(0, e_delta.den * self.sigma_infty.den, lambda key:
                          e_delta.image(self.sigma_infty.cols[key]))
        share = {}.setdefault

        def h_column(key):
            image = e_delta.image(phi.image(e_minus_delta.cols[key]))
            return {k: share(c, c) for k, c in image.items() if c}

        # e^{+-delta} are even: H_hat has the degree of phi_infty
        self.H_hat = op(phi.degree, e_delta.den * phi.den * e_minus_delta.den,
                        h_column)

    def _differentials(self):
        """(d_A, delta, dens), d_A and delta each a sum of (sign, r, word)
        terms: the fermion moves of word act on the mask, last to first,
        and then the t-adic columns of r, cut at the cap, act on (h,
        delta).  dens[k] is the denominator of delta's terms that
        contract theta_k."""
        pos = self.space.gen_pos

        def wedge(family, i):
            return wedge_mask, pos(family, i)

        def contract(family, i):
            return contract_mask, pos(family, i)

        d_terms, delta_terms = [], [[] for _ in range(self.n)]
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
                    delta_terms[k] += [
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
                    delta_terms[k] += [(1, F, [contract("xi", i), tk]),
                                    (1, F, [wedge("xibar", i), tk]),
                                    (1, G, [wedge("xi", i), tk])]

        return (self._term_sum(1, d_terms),
                self._term_sum(0, [t for terms in delta_terms for t in terms]),
                [self._den(terms) for terms in delta_terms])

    def _den(self, terms):
        """The lcm of the denominators of the terms' t-adic columns."""
        return lcm(*(c.denominator for _, r, _ in terms if r
                     for col in self.qb.columns(r).values()
                     for c in col.values()))

    def _term_sum(self, degree, terms):
        """The operator sum of sign * r after word over the terms with a
        non-zero polynomial r, through the columns of r in the quotient
        basis, cut at the cap, in integers over _den(terms).  Its columns
        are made on the keys of t-degree zero and shifted."""
        own, cap, den = self.space.own_key, self.cap, self._den(terms)
        # per term, its moves last to first and h -> [(l, delta, signed
        # integer entry)]
        terms = [(word[::-1], {h: [(l, d2, sign * c.numerator
                                    * (den // c.denominator))
                                   for (l, d2), c in col.items()
                                   if sum(d2) <= cap]
                               for h, col in self.qb.columns(r).items()})
                 for sign, r, word in terms if r]

        def column(key):
            mask0, h, _ = key
            out = {}
            for word, tcols in terms:
                hit = move_word(mask0, word)
                if hit:
                    for l, d2, c in tcols.get(h, ()):
                        k2 = own[hit[1], l, d2]
                        out[k2] = out.get(k2, 0) + hit[0] * c
            return out

        return LinearOp(self.space, degree, self._shifted(column), den)

    def _shifted(self, column):
        """The column store of an operator that commutes with the
        t-shifts and never lowers the t-degree, from column, its rule on
        the keys of t-degree zero at the full cap: its column on (mask, h,
        delta) is the store's column on (mask, h, 0) with every entry's
        boson multi-index raised by delta and the entries beyond the cap
        dropped."""
        own, raised = self.space.own_key, self._raised
        zero = self.space.deltas[0]

        def rule(key):
            mask, h, delta = key
            if delta == zero:
                return column(key)
            up = raised[delta]
            return {own[m, l, nd]: c
                    for (m, l, d2), c in cols[own[mask, h, zero]].items()
                    if (nd := up.get(d2)) is not None}

        cols = ColumnStore(rule)  # the rule reads its own store
        return cols

    def _exp_delta(self):
        """(e^delta, e^{-delta}), shifted from the keys of t-degree zero.
        delta lowers the theta-degree by one, so delta^(n+1) = 0 and
        e^{-delta} = P e^delta P, P = (-1)^(theta-degree).  delta^m
        contracts m distinct thetas, so it lies over the lcm of products
        of m of _theta_dens, and e^delta over the lcm of m! times those,
        a divisor of n! delta.den^n, the denominator of the sum."""
        sp, delta, own, n = self.space, self.delta, self.space.own_key, self.n
        coeffs = [factorial(n) // factorial(m) for m in range(n + 1)]
        den = lcm(*(factorial(m) * lcm(*map(prod, combinations(
            self._theta_dens, m))) for m in range(n + 1)))
        g = factorial(n) * delta.den ** n // den
        e_delta = LinearOp(sp, 0, self._shifted(
            lambda key: _divided(series_column(
                delta.image, delta.den, coeffs, {own[key]: 1}), g)), den)
        tm = sp.theta_mask
        return e_delta, LinearOp(sp, 0, self._shifted(lambda key: {
            k: -c if ((k[0] ^ key[0]) & tm).bit_count() & 1 else c
            for k, c in e_delta.cols[key].items()}), den)

    def _nabla_column(self, key):
        """nabla = sum_k theta_k d/dt_k on one key, in integers."""
        mask, h, delta = key
        col = {}
        for k in range(self.n):
            hit = delta[k] and wedge_mask(mask, self.space.gen_pos("theta", k))
            if hit:
                nd = tuple(e - 1 if j == k else e for j, e in enumerate(delta))
                col[self.space.own_key[hit[1], h, nd]] = hit[0] * delta[k]
        return col

    def _zeta(self, nums):
        """zeta, the division by the virtual degree, on integer
        numerators, over the further denominator _zeta_den.  Raises
        ZeroVirtualDegree on a key where it is zero."""
        vdeg, m, out = self.space.virtual_degree, self._zeta_den, {}
        for key, c in nums.items():
            if not (v := vdeg(key)):
                raise ZeroVirtualDegree(key)
            out[key] = c * (m // v)
        return out

    def is_core_key(self, key):
        """theta-degree 0 and t-degree 0: the subspace B'."""
        return not key[0] & self.space.theta_mask and not sum(key[2])

    def core_basis(self):
        """The keys of B', in basis order; built once per arena."""
        return self._core

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
