"""The operator arena for a pair of Koszul matrix factorisations.

For each ordered pair (X, Y) we build the truncated state space
wedge(F_theta (+) fermions of the pair's presentation) tensor R/I tensor
Q[t]_{<= cap}, with the rho presentation (fermions xi, xibar) when X is Y
and the nu presentation (eta, xibar) otherwise, together with the cached
operators: the transported differential d_A, the connection nabla, the
propagator zeta, the critical Atiyah class At = [d_A, nabla], delta and
its exponentials, the inclusion/projection sigma/pi of the theta- and
t-degree-zero sector, the perturbation series sigma_infty and phi_infty,
and the homotopy equivalence Phi, Phi^{-1}, H_hat.  d_A and delta come
from integer mask moves: each summand moves the fermion bits of a mask
once per (mask, h), then multiplies by a polynomial through its t-adic
columns over one denominator (the transported multiplication r^#),
shifted by each boson multi-index and cut at the cap.  e^{+-delta} (one
pass over the powers of delta) and sigma_infty, phi_infty (two tails of
one zeta At) are power series summed column by column; Phi, Phi^{-1}
and H_hat are compositions.  sdr_verify checks the defining identities
exactly on a margin-restricted basis.
"""

from fractions import Fraction
from itertools import product
from math import factorial, lcm
from operator import add

from .quotient import t_adic_expand
from .superspace import (
    LinearOp,
    Space,
    contract_mask,
    graded_commutator,
    move_word,
    power_series,
    rational_state,
    state_sum,
    wedge_mask,
)


class ZeroVirtualDegree(Exception):
    pass


def full_expansion(r, qb):
    """t-adic expansion with the cap raised until it is exact."""
    cap = max(r.total_degree(), 1)
    for _ in range(12):
        exp = t_adic_expand(r, qb, cap)
        if exp.exact_beyond_cap:
            return exp
        cap *= 2
    raise ValueError("t-adic expansion did not terminate; is t quasi-regular?")


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
        self.table_max_tdeg = 0
        self._build_operators()

    # ------------------------------------------------------------------
    # coefficient tables

    def _columns(self, r):
        """The t-adic columns of multiplication by a polynomial:
        i -> {(l, delta): coeff}."""
        qb = self.qb
        cols = {}
        for i in range(qb.mu):
            col = dict(full_expansion(r * qb.basis_poly(i), qb).coefficients)
            if col:
                cols[i] = col
            for (_, d) in col:
                self.table_max_tdeg = max(self.table_max_tdeg, sum(d))
        return cols

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

        columns = {}
        for _, r, _ in d_terms + delta_terms:
            if r and r not in columns:
                columns[r] = self._columns(r)
        return (self._term_sum(1, d_terms, columns),
                self._term_sum(0, delta_terms, columns))

    def _term_sum(self, degree, terms, columns):
        """The operator sum of sign * r after word over the terms with a
        non-zero polynomial r; columns maps each r to its columns.  The
        columns are brought over one denominator as integers; the moves
        of every term are made once per (mask, h), and their outputs are
        then shifted by each boson multi-index and cut at the cap."""
        sp, cap = self.space, self.cap
        terms = [(sign, word[::-1], columns[r]) for sign, r, word in terms
                 if r]
        den = lcm(*(c.denominator for _, _, cols in terms
                    for col in cols.values() for c in col.values()))
        moves = {}
        for mask0, h in product(range(1 << sp.ngen), range(sp.mu)):
            outs = moves[mask0, h] = []
            for sign, word, cols in terms:
                hit = move_word(mask0, word)
                if hit:
                    outs += [(hit[1], l, d2, sum(d2), sign * hit[0]
                              * c.numerator * (den // c.denominator))
                             for (l, d2), c in cols.get(h, {}).items()]
        cols = {}
        for key in sp.basis():
            delta, room = key[2], cap - sum(key[2])
            out = {}
            for mask, l, d2, t, c in moves[key[:2]]:
                if t <= room:
                    k2 = (mask, l, tuple(map(add, delta, d2)))
                    out[k2] = out.get(k2, 0) + c
            if out:
                cols[key] = out
        return LinearOp.from_cols(sp, degree, cols, den)

    def _build_operators(self):
        n = self.n
        self.d_A, self.delta = self._differentials()
        self.nabla = self._build_nabla()
        self.At = graded_commutator(self.d_A, self.nabla)
        self.sigma = self._build_sigma()
        self.pi = self.sigma
        # e^{+-delta}: delta lowers the theta-degree, so delta^(n+1) = 0
        exp = [Fraction(1, factorial(m)) for m in range(n + 1)]
        self.e_delta, self.e_minus_delta = power_series(
            self.delta, [exp, [(-1) ** m * c for m, c in enumerate(exp)]])
        # the perturbation series sum_m (-1)^m (zeta At)^m tail, which
        # stops at m = n, for the tails sigma and zeta nabla
        zeta_at = self.zeta_after(self.At)
        alternating = [[(-1) ** m for m in range(n + 1)]]
        self.sigma_infty, = power_series(zeta_at, alternating, self.sigma)
        self.phi_infty, = power_series(zeta_at, alternating,
                                       self.zeta_after(self.nabla))
        self.Phi = self.pi.compose(self.e_minus_delta)
        self.Phi_inv = self.e_delta.compose(self.sigma_infty)
        self.H_hat = self.e_delta.compose(self.phi_infty).compose(self.e_minus_delta)

    def _build_nabla(self):
        """nabla = sum_k theta_k d/dt_k, integer columns over 1."""
        sp = self.space
        cols = {}
        for key in sp.basis():
            mask, h, delta = key
            col = {}
            for k in range(self.n):
                hit = delta[k] and wedge_mask(mask, sp.gen_pos("theta", k))
                if hit:
                    nd = tuple(e - 1 if j == k else e
                               for j, e in enumerate(delta))
                    col[hit[1], h, nd] = hit[0] * delta[k]
            if col:
                cols[key] = col
        return LinearOp.from_cols(sp, 1, cols, 1)

    def is_core_key(self, key):
        """theta-degree 0 and t-degree 0: the subspace B'."""
        return not key[0] & self.space.theta_mask and not sum(key[2])

    def core_basis(self):
        return [k for k in self.space.basis() if self.is_core_key(k)]

    def _build_sigma(self):
        cols = {key: {key: 1} for key in self.core_basis()}
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
        limit = self.cap - margin
        return [k for k in self.space.basis() if sum(k[2]) <= limit]

    def sdr_verify(self, margin=None):
        """Check the homotopy-equivalence identities exactly on all basis
        states of t-degree <= cap - margin.  Returns a report dict."""
        if margin is None:
            margin = 2 * self.table_max_tdeg
        keys = self.test_keys(margin)
        core = [k for k in keys if self.is_core_key(k)]
        report = {"margin": margin, "checked": len(keys), "identities": {}}

        def check(name, fn, domain):
            for key in domain:
                got = rational_state(fn(key))
                if got:
                    report["identities"][name] = {
                        "ok": False,
                        "witness": key,
                        "diff": got,
                    }
                    return
            report["identities"][name] = {"ok": True}

        Phi, Phi_inv, H = self.Phi, self.Phi_inv, self.H_hat
        d = self.d_A

        def section_defect(key):
            return state_sum([Phi.apply(Phi_inv.apply_key(key)),
                              ({key: -1}, 1)])

        check("Phi Phi_inv = 1", section_defect, core)

        def retract_defect(key):
            return state_sum([Phi_inv.apply(Phi.apply_key(key)),
                              d.apply(H.apply_key(key)),
                              H.apply(d.apply_key(key)),
                              ({key: -1}, 1)])

        check("Phi_inv Phi = 1 - [d, H]", retract_defect, keys)
        check("H H = 0", lambda key: H.apply(H.apply_key(key)), keys)
        check("H Phi_inv = 0", lambda key: H.apply(Phi_inv.apply_key(key)), core)
        check("Phi H = 0", lambda key: Phi.apply(H.apply_key(key)), keys)
        return report
