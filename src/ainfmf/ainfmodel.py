"""The finite model: transported composition, higher products as sums
over decorated trees, relation checking, and the Clifford structure of
the splitting idempotent.

A Model holds a list of Koszul factorisations of a common potential and
builds, per ordered pair, the operator arena from sdrcore.  Morphism
spaces B(X,Y) are the theta- and t-degree-zero cores of those arenas.
The binary composition mu2 is transported through the exterior
presentation of each pair and the Gamma tensor of R/I; the higher
products rho_k are signed tree sums, evaluated as sums over leaf spans
split at the root;
verify_ainf checks the defining constraints exactly on every basis
tuple, in both the suspended (r) and unsuspended (mu) sign conventions.

The products, the span sums and the relation contraction work on
scaled states (integer numerators over one denominator, see superspace)
and the rho tables are stored as integers over one denominator per
table.  rho_table, rho_apply, rho_span_sums, the failure defects of
verify_ainf and the maps of e1_and_clifford are the Fraction edge.
"""

from fractions import Fraction
from itertools import product
from math import comb, lcm, prod

from .mfcat import (
    KoszulFactorisation,
    NuPresentation,
    RhoPresentation,
    check_homotopies,
    default_homotopies,
)
from .linalg import Echelon
from .quotient import CapExceeded, GammaTensor
from .sdrcore import Arena
from .superspace import (
    ZERO_STATE,
    LinearOp,
    add_into,
    extend_linearly,
    rational_state,
    reduced,
    scaled_state,
    state_parity,
    state_sum,
)
from .treealg import denote, enumerate_binary

ZERO = Fraction(0)


class SectorMismatch(Exception):
    pass


class DecompositionInvalid(Exception):
    pass


def _merge_sign(m1, m2):
    """Sign of reordering the concatenation of two ascending generator
    lists (masks m1 then m2) into one ascending list."""
    inv = 0
    q = m2
    while q:
        low = q & -q
        pos = low.bit_length() - 1
        inv += (m1 >> (pos + 1)).bit_count()
        q ^= low
    return -1 if inv & 1 else 1


def compose_keys(model, pa, pb, ka, kb, ext_table):
    """mu2 on a pair of basis keys: ka in space(pa) composed after kb in
    space(pb), through the Gamma tensor of the model, as a state of
    Fraction coefficients.  ext_table(pa, pb) gives the composition
    table of the exterior parts.  Outputs beyond the t-cap are dropped.
    Each backend caches the results in its own arithmetic."""
    if pa.src != pb.tgt:
        raise SectorMismatch("composition needs a shared middle object")
    table = ext_table(pa, pb)
    pc = model.pair(pb.src, pa.tgt)
    m1, h1, d1 = ka
    m2, h2, d2 = kb
    th1, ea = pa.split(m1)
    th2, eb = pb.split(m2)
    out = {}
    if not th1 & th2:
        alpha_par = (m1 >> pa.n).bit_count() & 1
        omega2_par = th2.bit_count() & 1
        sign = -1 if alpha_par & omega2_par else 1
        sign *= _merge_sign(th1, th2)
        ext = table.get((ea, eb))
        if ext:
            th = th1 | th2
            base = tuple(a + b for a, b in zip(d1, d2))
            for k, delta, g in model.gamma.products_of(h1, h2):
                nd = tuple(a + b for a, b in zip(base, delta))
                if sum(nd) > model.cap:
                    continue
                for ec, c3 in ext.items():
                    add_into(
                        out,
                        (th | pc.ext_mask(ec), k, nd),
                        Fraction(sign) * g * c3,
                    )
    return out


def _conversion_parity(tildes):
    """Parity of the sign converting the suspended product into the
    unsuspended one, on arguments with the given tildes (earliest
    first)."""
    n = len(tildes)
    exp = comb(n, 2)
    seen = 0
    for pos, t in enumerate(tildes):
        exp += (seen + pos) * t
        seen += t
    return exp & 1


class PairData:
    """Arena plus exterior-presentation bookkeeping for an ordered pair
    of objects (source src, target tgt)."""

    def __init__(self, model, src, tgt):
        self.src = src
        self.tgt = tgt
        X = model.objects[src]
        Y = model.objects[tgt]
        self.arena = Arena(
            X,
            Y,
            model.qb,
            model.cap,
            homX=model.homotopies[src],
            homY=model.homotopies[tgt],
        )
        self.presentation = self.arena.presentation
        sp = self.arena.space
        self.n = model.qb.n
        fam1, fam2 = sp.families[1], sp.families[2]
        self.c1 = fam1[1]
        self.c2 = fam2[1]
        self.theta_all = (1 << self.n) - 1
        # exterior elements (S, T) <-> Hom matrices (row mask, col mask)
        if self.presentation == "nu":
            nu = NuPresentation(X, Y)
            self.to_matrix, self.from_matrix = nu.from_ext, nu.to_ext
        else:
            rho = model.rho_presentation(src)
            self.to_matrix, self.from_matrix = rho.to_matrix, rho.from_matrix

    def split(self, mask):
        """mask -> (theta part, ext key (S, T))."""
        th = mask & self.theta_all
        f = mask >> self.n
        return th, (f & ((1 << self.c1) - 1), f >> self.c1)

    def ext_mask(self, ext_key):
        S, T = ext_key
        return (S | T << self.c1) << self.n

    def ext_basis(self):
        for S in range(1 << self.c1):
            for T in range(1 << self.c2):
                yield (S, T)

    def core_basis(self):
        return self.arena.core_basis()


class Model:
    def __init__(self, objects, qb, cap, homotopies=None):
        """homotopies: optional {object index: HomotopySet}; the others
        default to the x_k-derivatives of the pairs.  Every object's
        homotopies are checked against the t-sequence of qb
        (HomotopyIdentityFailed)."""
        if not objects:
            raise ValueError("no objects")
        self.objects = list(objects)
        W = objects[0].W
        for obj in objects:
            if obj.W != W:
                raise ValueError("objects factorise different potentials")
            if not isinstance(obj, KoszulFactorisation):
                raise ValueError("model requires Koszul-form objects")
        self.W = W
        self.qb = qb
        self.cap = cap
        self.homotopies = dict(homotopies or {})
        for idx, obj in enumerate(self.objects):
            hom = self.homotopies.get(idx)
            if hom is None:
                self.homotopies[idx] = default_homotopies(obj, qb.tseq)
            else:
                check_homotopies(obj, hom, qb.tseq)
        self.gamma = GammaTensor(qb, cap)
        self._pairs = {}
        self._rho_pres = {}
        self._comp_tables = {}
        self._term_comp = {}
        self._tables = {}

    # ------------------------------------------------------------------
    # plumbing

    def rho_presentation(self, idx):
        if idx not in self._rho_pres:
            self._rho_pres[idx] = RhoPresentation(self.objects[idx])
        return self._rho_pres[idx]

    def pair(self, src, tgt):
        key = (src, tgt)
        if key not in self._pairs:
            self._pairs[key] = PairData(self, src, tgt)
        return self._pairs[key]

    def _ext_composition(self, pa, pb):
        """Composition table on exterior elements: (ext of pa) after
        (ext of pb), presented in the pair (pb.src, pa.tgt)."""
        key = ((pa.src, pa.tgt), (pb.src, pb.tgt))
        if key in self._comp_tables:
            return self._comp_tables[key]
        if pa.src != pb.tgt:
            raise SectorMismatch("composition needs a shared middle object")
        pc = self.pair(pb.src, pa.tgt)
        # each pb matrix once per table, its entries grouped by row
        rows_b = []
        for eb in pb.ext_basis():
            by_row = {}
            for (r2, c2), v2 in pb.to_matrix({eb: Fraction(1)}).items():
                by_row.setdefault(r2, []).append((c2, v2))
            rows_b.append((eb, by_row))
        table = {}
        for ea in pa.ext_basis():
            mata = pa.to_matrix({ea: Fraction(1)})
            for eb, by_row in rows_b:
                prod = {}
                for (r1, c1), v1 in mata.items():
                    for c2, v2 in by_row.get(c1, ()):
                        add_into(prod, (r1, c2), v1 * v2)
                if prod:
                    ext = pc.from_matrix(prod)
                    if ext:
                        table[(ea, eb)] = ext
        self._comp_tables[key] = table
        return table

    def _compose_keys(self, pa, pb, ka, kb):
        """compose_keys as a scaled state, cached."""
        key = ((pa.src, pa.tgt), (pb.src, pb.tgt), ka, kb)
        hit = self._term_comp.get(key)
        if hit is None:
            hit = self._term_comp[key] = scaled_state(
                compose_keys(self, pa, pb, ka, kb, self._ext_composition))
        return hit

    def mu2_transported(self, sa, pair_a, sb, pair_b):
        """Binary composition of scaled states: sa in the space of
        pair_a = (mid, tgt) composed after sb in the space of pair_b =
        (src, mid)."""
        pa = self.pair(*pair_a)
        pb = self.pair(*pair_b)
        nums_a, den_a = sa
        nums_b, den_b = sb
        cache = self._term_comp
        ta, tb = (pa.src, pa.tgt), (pb.src, pb.tgt)
        parts = {}  # denominator of the compose_keys result -> numerators
        for ka, c1 in nums_a.items():
            for kb, c2 in nums_b.items():
                hit = cache.get((ta, tb, ka, kb))
                if hit is None:
                    hit = self._compose_keys(pa, pb, ka, kb)
                terms, dc = hit
                if not terms:
                    continue
                acc = parts.get(dc)
                if acc is None:
                    acc = parts[dc] = {}
                c = c1 * c2
                for kc, c3 in terms.items():
                    acc[kc] = acc.get(kc, 0) + c * c3
        den = den_a * den_b
        return state_sum([reduced(acc, den * dc) for dc, acc in parts.items()])

    def r2_states(self, s1, pair_1, s2, pair_2):
        """The suspended binary product on scaled states: s1 earlier
        (pair_1 = (src, mid)), s2 later (pair_2 = (mid, tgt))."""
        if not s1[0] or not s2[0]:
            return ZERO_STATE
        t1 = state_parity(s1[0]) ^ 1
        t2 = state_parity(s2[0]) ^ 1
        sign = -1 if ((t1 & t2) ^ t2 ^ 1) else 1
        out = self.mu2_transported(s2, pair_2, s1, pair_1)
        if sign == -1:
            out = {k: -v for k, v in out[0].items()}, out[1]
        return out

    # ------------------------------------------------------------------
    # higher products

    def rho1_apply(self, pair_key, state):
        """The differential on B on a scaled state: the theta- and
        t-degree-zero block of the arena differential."""
        arena = self.pair(*pair_key).arena
        nums, den = arena.d_A.apply(state)
        return reduced({k: v for k, v in nums.items() if arena.is_core_key(k)},
                       den)

    def _span_sum(self, path, tokens, states, lo, hi, memo):
        """Sum over all binary trees on the leaves lo..hi (1-based) of
        their evaluation on scaled states, one per slot, named by
        tokens: Phi_inv of the state on a leaf, else the sum over root
        splits mid of r2 on the sums over lo..mid and mid+1..hi, with
        H_hat applied below the whole span.  Sub-span sums are memoised
        by their tokens.  Each is an even operator applied to its
        inputs, so the Koszul signs of the general denotation vanish
        here; the test suite pins this against rho_denote."""
        mkey = (lo, hi) + tokens[lo - 1 : hi]
        out = memo.get(mkey)
        if out is not None:
            return out
        if lo == hi:
            arena = self.pair(path[lo - 1], path[lo]).arena
            out = arena.Phi_inv.apply(states[lo - 1])
        else:
            parts = []
            for mid in range(hi - 1, lo - 1, -1):
                s1 = self._span_sum(path, tokens, states, lo, mid, memo)
                if not s1[0]:
                    continue
                s2 = self._span_sum(path, tokens, states, mid + 1, hi, memo)
                part = self.r2_states(
                    s1, (path[lo - 1], path[mid]), s2, (path[mid], path[hi]))
                if part[0]:
                    parts.append(part)
            out = state_sum(parts)
            if hi - lo + 1 == len(tokens):
                return out
            out = self.pair(path[lo - 1], path[hi]).arena.H_hat.apply(out)
        memo[mkey] = out
        return out

    def _span_sums(self, k, path, slots):
        """rho_k (k >= 2) on every tuple drawn from slots, one list of
        (token, scaled core state) pairs per slot: {token tuple: scaled
        output state in the core of (path[0], path[k])}, non-zero
        outputs only.  Phi and the sign (-1)^k are applied once per
        tuple, to the sum over the root splits."""
        root = self.pair(path[0], path[k]).arena.Phi
        memo = {}
        out = {}
        for picks in product(*slots):
            tokens, states = zip(*picks)
            nums, den = root.apply(
                self._span_sum(path, tokens, states, 1, k, memo))
            if nums:
                if k & 1:
                    nums = {kk: -v for kk, v in nums.items()}
                out[tokens] = nums, den
        return out

    def rho_span_sums(self, k, path, slots):
        """_span_sums on slots of (token, core state) pairs with Fraction
        coefficients, with Fraction results."""
        slots = [[(tok, scaled_state(st)) for tok, st in slot]
                 for slot in slots]
        return {tok: rational_state(st)
                for tok, st in self._span_sums(k, path, slots).items()}

    def _table(self, k, path):
        """The stored rho_k table along an object path, a RhoTable over
        the tuples of core basis keys; built on first use."""
        path = tuple(path)
        if len(path) != k + 1:
            raise SectorMismatch("path length must be k + 1")
        key = (k, path)
        table = self._tables.get(key)
        if table is not None:
            return table
        cores = [
            self.pair(path[i], path[i + 1]).core_basis() for i in range(k)
        ]
        if k == 1:
            states = {}
            for bkey in cores[0]:
                out = self.rho1_apply((path[0], path[1]), ({bkey: 1}, 1))
                if out[0]:
                    states[(bkey,)] = out
        else:
            slots = [[(b, ({b: 1}, 1)) for b in core] for core in cores]
            states = self._span_sums(k, path, slots)
        table = self._tables[key] = RhoTable(states)
        return table

    def rho_table(self, k, path):
        """Dense product table: tuples of core basis keys along the
        object path -> output state (Fraction coefficients) in the core
        of (path[0], path[k])."""
        table = self._table(k, path)
        return {tup: rational_state((nums, table.den))
                for tup, nums in table.items()}

    def rho_denote(self, k, path, inputs):
        """Reference evaluation through the general sign-carrying tree
        denotation, one tree at a time; the tests compare the span sums
        against it."""
        path = tuple(path)
        if k == 1:
            return rational_state(
                self.rho1_apply((path[0], path[1]), scaled_state(inputs[0])))
        dec = _ModelDecoration(self, path, inputs)
        in_map = {i + 1: inputs[i] for i in range(k)}
        acc = {}
        sign = Fraction((-1) ** k)
        for T in enumerate_binary(k):
            for kk, v in denote(T, dec, in_map).items():
                add_into(acc, kk, v * sign)
        return acc

    def rho_apply(self, k, path, inputs):
        """rho_k on a tuple of (not necessarily basis) core states with
        Fraction coefficients, by multilinear expansion over the stored
        table."""
        table = self._table(k, path)
        scaled = [scaled_state(s) for s in inputs]
        out = {}
        for terms in product(*(nums.items() for nums, _ in scaled)):
            hit = table.get(tuple(key for key, _ in terms))
            if hit:
                coeff = prod(c for _, c in terms)
                for kk, v in hit.items():
                    out[kk] = out.get(kk, 0) + v * coeff
        den = table.den * prod(d for _, d in scaled)
        return rational_state(reduced(out, den))

    # ------------------------------------------------------------------
    # relation checking

    def tilde(self, key):
        return (key[0].bit_count() & 1) ^ 1

    def verify_ainf(self, level, object_paths=None, forms=("r", "mu")):
        """Check the A-infinity relations at every level n = 1 .. level
        (level an integer >= 1) on every tuple of core basis keys along
        every object path of length n + 1 (all paths, or those listed in
        object_paths), in each sign convention named in forms: "r" for
        the suspended products, "mu" for the unsuspended ones.

        Each (level, path) is one sparse contraction: for every term
        (i, j) of the relation, the non-zero entries of the rho_j table
        on path[i:i+j+1] are contracted into slot i of the rho_{n-j+1}
        table on the remaining path, and the products are summed into
        per-tuple defects for the requested forms together.  Returns a
        report; each failure carries its witness tuple and non-zero
        defect state, in basis-tuple order, r before mu.  Raises
        ValueError on a level below 1 or on forms that are empty or name
        anything but "r" and "mu"."""
        if isinstance(level, bool) or not isinstance(level, int) or level < 1:
            raise ValueError("level must be an integer >= 1")
        if not forms or any(f not in ("r", "mu") for f in forms):
            raise ValueError('forms must be a non-empty choice of "r", "mu"')
        report = {"level": level, "forms": list(forms), "checked": 0, "failures": []}
        for n in range(1, level + 1):
            if object_paths is None:
                paths = list(product(range(len(self.objects)), repeat=n + 1))
            else:
                paths = [p for p in object_paths if len(p) == n + 1]
            for path in paths:
                defects, den = self._relation_defects(n, path, forms)
                cores = [
                    self.pair(path[i], path[i + 1]).core_basis()
                    for i in range(n)
                ]
                for combo in product(*cores):
                    report["checked"] += 1
                    for form, found in defects.items():
                        nums = found.get(combo)
                        if nums:
                            report["failures"].append(
                                {"form": form, "level": n, "path": path,
                                 "inputs": combo,
                                 "defect": rational_state(reduced(nums, den))}
                            )
        report["ok"] = not report["failures"]
        return report

    def _relation_defects(self, n, path, forms):
        """({form: {basis tuple: integer numerator defect}}, den): the
        defects of the level-n relations along one object path, all
        over the one denominator den; tuples whose defect cancels map to
        {}."""
        terms = []
        for j in range(1, n + 1):
            for i in range(n - j + 1):
                inner = self._table(j, path[i : i + j + 1])
                if inner:
                    outer = self._table(n - j + 1,
                                        path[: i + 1] + path[i + j :])
                    terms.append((i, j, inner, outer))
        den = lcm(*(inner.den * outer.den for _, _, inner, outer in terms))
        defects = {form: {} for form in ("r", "mu") if form in forms}
        for i, j, inner, outer in terms:
            scale = den // (inner.den * outer.den)
            # outer tuples by their slot-i key, with the sign parities
            # fixed by the outer tuple.  In the unsuspended form these
            # are the conversion sign of the outer product (slot i
            # carries the inner output, whose tilde is that of each of
            # its keys), the Koszul sign of the degree-j operator
            # crossing the later arguments, and the sign of the term.
            by_slot = {}
            for otup, out in outer.items():
                tl = [self.tilde(k) for k in otup]
                odd = {
                    "r": sum(tl[:i]),
                    "mu": _conversion_parity(tl)
                    + j * sum(t ^ 1 for t in tl[i + 1 :])
                    + i * j + i + j + n,
                }
                by_slot.setdefault(otup[i], []).append(
                    (otup[:i], otup[i + 1 :], odd, out)
                )
            for itup, st in inner.items():
                inner_odd = {"r": 0}
                if "mu" in defects:
                    state_parity(st)  # raises on mixed parity
                    inner_odd["mu"] = _conversion_parity(
                        [self.tilde(k) for k in itup]
                    )
                for kk, v in st.items():
                    v *= scale
                    for pre, post, odd, out in by_slot.get(kk, ()):
                        combo = pre + itup + post
                        for form, found in defects.items():
                            acc = found.setdefault(combo, {})
                            sv = -v if (odd[form] + inner_odd[form]) & 1 else v
                            for ok, w in out.items():
                                # drop what cancels: defects of a passing
                                # check stay empty, not full of zeros
                                x = acc.get(ok, 0) + sv * w
                                if x:
                                    acc[ok] = x
                                else:
                                    del acc[ok]
        return defects, den

    # ------------------------------------------------------------------
    # the splitting idempotent and its Clifford structure

    def _conjugated(self, pair_key, op):
        """Phi op Phi^{-1} restricted to the core, as a column map."""
        arena = self.pair(*pair_key).arena
        cols = {}
        for key in arena.core_basis():
            st = rational_state(
                arena.Phi.apply(op.apply(arena.Phi_inv.apply_key(key))))
            if st:
                cols[key] = st
        return cols

    def e1_and_clifford(self, pair_key):
        """E1 = Phi e Phi^{-1} with e the projector onto theta-degree
        zero, the Clifford maps gamma_i = Phi theta_i* Phi^{-1} and
        gamma_i^dagger = Phi theta_i Phi^{-1}, and the transported
        components At_i = [d, d/dt_i] on the core.  At cap 0 no key
        has positive t-degree, so At vanishes and the maps say nothing:
        CapExceeded."""
        if self.cap == 0:
            raise CapExceeded("cap 0 leaves no t-degree for At")
        arena = self.pair(*pair_key).arena
        n = self.qb.n
        thetas = sum(1 << arena.space.gen_pos("theta", k) for k in range(n))
        e = LinearOp.from_rule(
            arena.space, 0,
            lambda key: None if key[0] & thetas else {key: 1},
        )
        gammas = []
        daggers = []
        ats = []
        for i in range(n):
            theta_star = arena.contract("theta", i)
            gammas.append(self._conjugated(pair_key, theta_star))
            daggers.append(self._conjugated(pair_key, arena.wedge("theta", i)))
            # on the core nabla kills the input, so At = nabla d there;
            # theta_i* picks out d/dt_i after d, and [d, d/dt_i] is
            # minus that
            cols = {}
            for key in arena.core_basis():
                image = theta_star.apply(arena.At.apply_key(key))
                st = {k2: -c for k2, c in rational_state(image).items()
                      if arena.is_core_key(k2)}
                if st:
                    cols[key] = st
            ats.append(cols)
        return {
            "E1": self._conjugated(pair_key, e),
            "gamma": gammas,
            "dagger": daggers,
            "At": ats,
        }


class RhoTable(dict):
    """A stored rho_k table: {tuple of core basis keys: integer numerator
    state}, all over the one denominator den."""

    __slots__ = ("den",)

    def __init__(self, states):
        """states: {tuple: scaled state}, each in lowest terms; so is the
        table over the lcm of their denominators."""
        den = lcm(*{d for _, d in states.values()})
        super().__init__(
            (tup, nums if d == den
             else {kk: v * (den // d) for kk, v in nums.items()})
            for tup, (nums, d) in states.items())
        self.den = den


class _ModelDecoration:
    """Decoration protocol adapter for the general tree denotation:
    inputs and the root output have Fraction coefficients, the states in
    between are scaled states."""

    leaf_parity_value = 0
    edge_parity = 1

    def __init__(self, model, path, inputs):
        self.model = model
        self.path = path
        self.tildes = {
            i + 1: state_parity(inputs[i]) ^ 1 for i in range(len(inputs))
        }

    def leaf(self, i, state):
        arena = self.model.pair(self.path[i - 1], self.path[i]).arena
        return arena.Phi_inv.apply(scaled_state(state))

    def leaf_parity(self, i):
        return 0

    def tilde(self, i):
        return self.tildes[i]

    def edge(self, lo, hi, state):
        arena = self.model.pair(self.path[lo - 1], self.path[hi]).arena
        return arena.H_hat.apply(state)

    def vertex(self, lo, mid, hi, s1, s2):
        return self.model.r2_states(
            s1,
            (self.path[lo - 1], self.path[mid]),
            s2,
            (self.path[mid], self.path[hi]),
        )

    def mu2(self, lo, mid, hi, a, b):
        return self.model.mu2_transported(
            a,
            (self.path[mid], self.path[hi]),
            b,
            (self.path[lo - 1], self.path[mid]),
        )

    def root(self, state):
        arena = self.model.pair(self.path[0], self.path[-1]).arena
        return rational_state(arena.Phi.apply(state))


# ----------------------------------------------------------------------
# cohomology of a finite complex over Q


class CohomologyData:
    """The cohomology of a differential given by its columns on a basis.
    One echelon is fed the columns, which gives the kernel, and then the
    kernel vectors: those independent of the image are the
    representatives, and a cocycle reduces to its class by its
    coordinates on them."""

    def __init__(self, basis, diff_cols):
        self._diff = dict(zip(basis, diff_cols))
        self._echelon = Echelon()
        self.reps = []
        for vec in self._echelon.kernel(diff_cols):
            state = {basis[j]: c for j, c in vec.items()}
            if self._echelon.add(state, ("rep", len(self.reps))) is None:
                self.reps.append(state)
        self.dim = len(self.reps)

    def reduce(self, state):
        """Class of a cocycle in the chosen representative basis, or
        None if the state is not a cocycle."""
        if extend_linearly(self._diff.__getitem__, state):
            return None
        rem, coords = self._echelon.reduce(state)
        if rem:
            raise ValueError("cocycle outside kernel + image span")
        return [coords.get(("rep", i), ZERO) for i in range(self.dim)]


def cohomology(model, pair_key):
    pd = model.pair(*pair_key)
    basis = pd.core_basis()
    cols = [
        rational_state(model.rho1_apply(pair_key, ({b: 1}, 1)))
        for b in basis
    ]
    return CohomologyData(basis, cols)


def induced_map(coh, colmap):
    """Matrix of a cochain map on cohomology classes, given its column
    map on the underlying basis.  Returns None if the map fails to send
    some representative cocycle to a cocycle."""
    rows = []
    for state in coh.reps:
        red = coh.reduce(
            extend_linearly(lambda key: colmap.get(key, {}), state))
        if red is None:
            return None
        rows.append(red)
    # rows[i] is the class of the image of the i-th representative
    return [list(r) for r in zip(*rows)] if rows else []


def kstab_minimal(model, idx, decomposition, level=4):
    """Minimal model data for a stabilised-generator object: the joint
    kernel of the gamma_i inside the core, closure of that subspace
    under the products up to the requested level, and the restricted
    tables.

    decomposition: polynomials W^i with W = sum x_i W^i.
    """
    from .poly import Polynomial

    X = model.objects[idx]
    nvars = X.nvars
    total = Polynomial.zero(nvars)
    for i, wi in enumerate(decomposition):
        xi = Polynomial.monomial(
            nvars, tuple(1 if j == i else 0 for j in range(nvars))
        )
        total = total + xi * wi
    if total != model.W:
        raise DecompositionInvalid("sum x_i W^i != W")
    pair_key = (idx, idx)
    gammas = model.e1_and_clifford(pair_key)["gamma"]
    basis = model.pair(*pair_key).core_basis()
    # the joint kernel of the gamma_i, from their stacked columns
    kernel = Echelon().kernel([
        {(i, k2): c for i, g in enumerate(gammas)
         for k2, c in g.get(b, {}).items()}
        for b in basis
    ])
    kernel_states = [{basis[j]: c for j, c in v.items()} for v in kernel]
    span = Echelon()
    for i, st in enumerate(kernel_states):
        span.add(st, i)

    def in_span(state):
        return not span.reduce(state)[0]

    result = {
        "kernel": kernel_states,
        "tables": {},
        "rho1_zero": True,
        "closed": True,
        "witness": None,
    }
    for st in kernel_states:
        if model.rho1_apply(pair_key, scaled_state(st))[0]:
            result["rho1_zero"] = False
    slot = list(enumerate(kernel_states))
    for j in range(2, level + 1):
        sums = model.rho_span_sums(j, (idx,) * (j + 1), [slot] * j)
        table = {}
        for combo in product(range(len(kernel_states)), repeat=j):
            table[combo] = out = sums.get(combo, {})
            if not in_span(out):
                result["closed"] = False
                if result["witness"] is None:
                    result["witness"] = (j, combo, out)
        result["tables"][j] = table
    return result
