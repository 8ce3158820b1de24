"""The finite model: transported composition, higher products as sums
over decorated trees, relation checking, and the Clifford structure of
the splitting idempotent.

A Model holds a list of Koszul factorisations of a common potential and
builds, per ordered pair, the operator arena from sdrcore.  Morphism
spaces B(X,Y) are the theta- and t-degree-zero cores of those arenas.
The binary composition mu2 is transported through the exterior
presentation of each pair and the Gamma tensor of R/I, by one factored
ComposeKernel per pair of pairs, kept in one cache (_term_comp; the
normalorder backend keeps its own).  On states mu2 is
ComposeKernel.product, the bilinear extension of the kernel's rows.  A
kernel takes its exterior composition table as an argument and keeps
it: the model's come from the Hom matrices of the two pairs, and
normalorder's from fermion pairing.  The higher products rho_k are
signed tree sums, built bottom-up as span tables: every span of leaves
lo..hi maps each token tuple to the sum over all trees on those leaves,
and each split of a span is one contraction of its two tables, whose
kernel rows hold the vertex operator after mu2 (H_hat; Phi at the
root).  The span tables below a root, on core basis keys, are kept per
sub-path, so each is built once per model and a rho_k table builds only
its root.
verify_ainf checks the defining constraints exactly on every basis
tuple, summing once for the suspended (r) and unsuspended (mu) signs
and reading each outer table once per (level, path).

The products, the span sums and the relation contraction work on
scaled states (integer numerators over one denominator, see superspace)
and the rho tables are stored as integers over one denominator per
table.  rho_table, rho_apply, rho_span_sums, the failure defects of
verify_ainf and the maps of e1_and_clifford are the Fraction edge.
"""

from fractions import Fraction
from itertools import product
from math import comb, lcm, prod
from operator import add

from .mfcat import (
    KoszulFactorisation,
    RhoPresentation,
    check_homotopies,
    default_homotopies,
    nu_signed,
)
from .linalg import Echelon
from .quotient import CapExceeded, GammaTensor
from .sdrcore import Arena
from .superspace import (
    add_into,
    contract_mask,
    extend_linearly,
    merge_sign,
    rational_state,
    reduced,
    scaled_state,
    state_parity,
    state_sum,
    wedge_mask,
)

ZERO = Fraction(0)


class SectorMismatch(Exception):
    pass


class DecompositionInvalid(Exception):
    pass


class ComposeKernel:
    """mu2 on basis keys: a key ka of pair pa composed after a key kb of
    pair pb, through the Gamma tensor of the model and the exterior
    composition table of the two pairs ({(ea, eb): {ec: Fraction}}).

    The part that depends only on (ea, eb, h1, h2), the table entry
    times GammaTensor.products_of, is built once per quadruple as
    integers over the one denominator den of the kernel.  Per key pair
    only the theta-overlap test, the merge and alpha signs, the t-shift
    and the cap filter remain."""

    __slots__ = ("pa", "pb", "pc", "table", "gamma", "cap", "den", "_parts")

    def __init__(self, model, pa, pb, table):
        if pa.src != pb.tgt:
            raise SectorMismatch("composition needs a shared middle object")
        self.pa = pa
        self.pb = pb
        self.pc = model.pair(pb.src, pa.tgt)
        self.table = table
        self.gamma = model.gamma
        self.cap = model.cap
        self.den = model.gamma.den * lcm(
            *(c.denominator for ext in table.values() for c in ext.values()))
        self._parts = {}

    def _part(self, f1, f2, h1, h2):
        """(ext mask of ec, k, delta, |delta|, numerator) for every
        Gamma^{h1 h2}_{k delta} ext[ec], smallest |delta| first, where
        ext is the table entry of the exterior masks f1 and f2."""
        lo1, lo2 = (1 << self.pa.c1) - 1, (1 << self.pb.c1) - 1
        ext = self.table.get(((f1 & lo1, f1 >> self.pa.c1),
                              (f2 & lo2, f2 >> self.pb.c1)), {})
        den = self.den
        part = self._parts[f1, f2, h1, h2] = sorted(
            ((self.pc.ext_mask(ec), k, delta, sum(delta),
              g.numerator * c3.numerator
              * (den // (g.denominator * c3.denominator)))
             for k, delta, g in self.gamma.products_of(h1, h2)
             for ec, c3 in ext.items()),
            key=lambda entry: entry[3])
        return part

    def laters(self, keys):
        """Keys of pa split once for row: (theta mask, exterior mask, h,
        delta, |delta|, parity of the exterior mask)."""
        n, theta_all = self.pa.n, self.pa.theta_all
        return [(m & theta_all, m >> n, h, d, sum(d), (m >> n).bit_count() & 1)
                for m, h, d in keys]

    def row(self, kb, laters):
        """[(i, {key: integer numerator over den})]: mu2 of the i-th key
        of laters after the key kb of pb, non-zero results only.
        Outputs beyond the t-cap are dropped."""
        m2, h2, d2 = kb
        th2 = m2 & self.pb.theta_all
        f2 = m2 >> self.pb.n
        omega = th2.bit_count() & 1
        size2 = sum(d2)
        room2 = self.cap - size2
        parts = self._parts
        out = []
        for i, (th1, f1, h1, d1, size1, alpha) in enumerate(laters):
            if th1 & th2:
                continue
            part = parts.get((f1, f2, h1, h2))
            if part is None:
                part = self._part(f1, f2, h1, h2)
            room = room2 - size1
            if not part or part[0][3] > room:
                continue
            # the alpha sign: the exterior generators of ka cross the
            # thetas of kb; then the thetas merge into one ascending list
            neg = alpha & omega
            if th1 and th2 and merge_sign(th1, th2) < 0:
                neg ^= 1
            th = th1 | th2
            base = tuple(map(add, d1, d2)) if size1 or size2 else None
            comp = {}
            for mask, k, delta, size, c in part:
                if size > room:
                    break
                comp[th | mask, k,
                     tuple(map(add, base, delta)) if base else delta] = (
                         -c if neg else c)
            out.append((i, comp))
        return out

    def product(self, sa, sb):
        """mu2 of the state sa of pa after the state sb of pb, the
        bilinear extension of row: {key: coefficient times den}, for int
        or Fraction coefficients, non-zero entries only."""
        coeffs = list(sa.values())
        laters = self.laters(sa)
        out = {}
        for kb, cb in sb.items():
            for i, comp in self.row(kb, laters):
                c = coeffs[i] * cb
                for kc, v in comp.items():
                    out[kc] = out.get(kc, 0) + c * v
        return {kc: v for kc, v in out.items() if v}


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
            self.to_matrix = self.from_matrix = nu_signed
        else:
            rho = RhoPresentation(X)
            self.to_matrix, self.from_matrix = rho.to_matrix, rho.from_matrix

    def ext_mask(self, ext_key):
        S, T = ext_key
        return (S | T << self.c1) << self.n

    def ext_basis(self):
        for S in range(1 << self.c1):
            for T in range(1 << self.c2):
                yield (S, T)


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
        self._term_comp = {}
        self._tables = {}  # (k, path) -> RhoTable
        # sub-path -> span table on core basis keys, below a rho root:
        # Phi_inv of a pair's keys, H_hat of an inner span's splits
        self._spans = {}

    # ------------------------------------------------------------------
    # plumbing

    def pair(self, src, tgt):
        key = (src, tgt)
        if key not in self._pairs:
            self._pairs[key] = PairData(self, src, tgt)
        return self._pairs[key]

    def _ext_composition(self, pa, pb):
        """Composition table on exterior elements: (ext of pa) after
        (ext of pb), presented in the pair (pb.src, pa.tgt); built once
        per kernel, which keeps it."""
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
        return table

    def _kernel(self, pa, pb):
        """The ComposeKernel of pa after pb on the model's exterior
        tables, one per pair of pairs."""
        key = ((pa.src, pa.tgt), (pb.src, pb.tgt))
        kernel = self._term_comp.get(key)
        if kernel is None:
            kernel = self._term_comp[key] = ComposeKernel(
                self, pa, pb, self._ext_composition(pa, pb))
        return kernel

    def _contract(self, pair_1, left, pair_2, right, op, sign=1):
        """sign * op after r2 of every left state and every right state,
        that is mu2 of the right state after the left one with the r2 sign:
        left and right are {token tuple: scaled state}, left in the space
        of pair_1 = (src, mid) and right in that of pair_2 = (mid, tgt),
        op a LinearOp on the space of (src, tgt), and sign 1 or -1,
        folded into the right coefficients.  Yields (left token, right
        token, (nums, den)) for the products with a non-zero term, in the
        order of the left and then the right table; the products are not
        reduced.

        One left entry at a time, stage 1 forms the column map ka ->
        op(mu2(ka, left state)) over every key ka of the right states,
        and stage 2 adds each non-empty column into the right states
        that hold its key.  Each key pair goes through mu2 and op once:
        a kernel row holds op(mu2(ka, kb)) over kernel.den * op.den, in
        a cache dropped at the end."""
        kernel = self._kernel(self.pair(*pair_2), self.pair(*pair_1))
        index = {}  # right key -> its column
        # per column, the right states holding its key: (position, its
        # coefficient with the r2 sign after an even and an odd left
        # state).  r2(s1, s2) is mu2(s2, s1) for s1 odd and s2 even, else
        # minus it
        users = []
        rights = []
        for r, (tr, (nums, den)) in enumerate(right.items()):
            odd = state_parity(nums)
            for ka, c in nums.items():
                i = index.get(ka)
                if i is None:
                    i = index[ka] = len(users)
                    users.append([])
                c *= sign
                users[i].append((r, -c, -c if odd else c))
            rights.append((tr, den))
        laters = kernel.laters(index)
        rows = {}  # left key -> [(column, op of compose result)], non-zero
        for tl, (nums1, den1) in left.items():
            cols = {}
            for kb, c in nums1.items():
                row = rows.get(kb)
                if row is None:
                    row = rows[kb] = [
                        (i, image) for i, comp in kernel.row(kb, laters)
                        if (image := {ko: v for ko, v in
                                      op.image(comp).items() if v})]
                for i, comp in row:
                    col = cols.get(i)
                    if col is None:
                        cols[i] = {kc: c * v for kc, v in comp.items()}
                    else:
                        for kc, v in comp.items():
                            col[kc] = col.get(kc, 0) + c * v
            if not cols:
                continue
            slot = 2 if state_parity(nums1) else 1
            outs = [None] * len(rights)
            for i, col in cols.items():
                for user in users[i]:
                    c = user[slot]
                    out = outs[user[0]]
                    if out is None:
                        outs[user[0]] = {kc: c * v for kc, v in col.items()}
                    else:
                        for kc, v in col.items():
                            out[kc] = out.get(kc, 0) + c * v
            den = den1 * kernel.den * op.den
            for (tr, den2), out in zip(rights, outs):
                if out:
                    yield tl, tr, (out, den * den2)

    def mu2_transported(self, sa, pair_a, sb, pair_b):
        """Binary composition of scaled states: sa in the space of
        pair_a = (mid, tgt) composed after sb in the space of pair_b =
        (src, mid)."""
        kernel = self._kernel(self.pair(*pair_a), self.pair(*pair_b))
        return reduced(kernel.product(sa[0], sb[0]),
                       sa[1] * sb[1] * kernel.den)

    # ------------------------------------------------------------------
    # higher products

    def rho1_apply(self, pair_key, state):
        """The differential on B on a scaled state: the theta- and
        t-degree-zero block of the arena differential."""
        arena = self.pair(*pair_key).arena
        nums, den = arena.d_A.apply(state)
        return reduced({k: v for k, v in nums.items() if arena.is_core_key(k)},
                       den)

    def _span_table(self, path, tables, lo, hi, op):
        """{token tuple: op applied to the sum over the splits lo <= mid
        < hi of r2 on the span tables of lo..mid and mid+1..hi}, non-zero
        entries only.  op is applied in the contraction's kernel rows, and
        each product is reduced and summed as it is produced.  The root
        span (1, k) of a path of k + 1 objects is rho_k's, and its sign
        (-1)^k goes into the contraction."""
        sign = -1 if (lo, hi) == (1, len(path) - 1) and hi & 1 else 1
        acc = {}
        for mid in range(hi - 1, lo - 1, -1):
            for tl, tr, part in self._contract(
                    (path[lo - 1], path[mid]), tables[lo, mid],
                    (path[mid], path[hi]), tables[mid + 1, hi], op, sign):
                image = reduced(*part)
                if image[0]:
                    tokens = tl + tr
                    prev = acc.get(tokens)
                    acc[tokens] = (image if prev is None
                                   else state_sum([prev, image]))
        return {tokens: st for tokens, st in acc.items() if st[0]}

    def _span_sums(self, k, path, slots, spans=None):
        """rho_k (k >= 2) on every tuple drawn from slots, one list of
        (token, scaled core state) pairs per slot: {token tuple: scaled
        output state in the core of (path[0], path[k])}, non-zero
        outputs only.

        The tree sum is built bottom-up as one span table per leaf span
        (lo, hi), 1-based: Phi_inv of the states on the leaves, H_hat of
        the sum over the splits of r2 on every inner span, and Phi of
        that sum with the sign (-1)^k at the root.  Each split is one
        contraction of its two span tables.  Every vertex is an even
        operator applied to its inputs, so the Koszul signs of the
        general tree denotation vanish here; the test suite pins the
        span sums against that denotation.

        spans, if given, keeps the span tables below the root by their
        sub-path path[lo-1:hi+1]: a table found there is not built
        again.  That is only sound where each slot is the core basis of
        its pair, as in the model's own span tables (_table)."""
        tables = {}
        for width in range(k - 1):
            for lo in range(1, k - width + 1):
                hi = lo + width
                sub = path[lo - 1 : hi + 1]
                table = spans.get(sub) if spans is not None else None
                if table is None:
                    arena = self.pair(path[lo - 1], path[hi]).arena
                    if width:
                        table = self._span_table(path, tables, lo, hi,
                                                 arena.H_hat)
                    else:
                        table = {(tok,): st for tok, state in slots[lo - 1]
                                 if (st := arena.Phi_inv.apply(state))[0]}
                    if spans is not None:
                        spans[sub] = table
                tables[lo, hi] = table
        return self._span_table(path, tables, 1, k,
                                self.pair(path[0], path[k]).arena.Phi)

    def rho_span_sums(self, k, path, slots):
        """_span_sums on slots of (token, core state) pairs with Fraction
        coefficients, with Fraction results: rho_k on every tuple of
        states drawn one per slot, by the span-table contraction.  Its
        span tables are its own, built for these slots."""
        slots = [[(tok, scaled_state(st)) for tok, st in slot]
                 for slot in slots]
        return {tok: rational_state(st)
                for tok, st in self._span_sums(k, path, slots).items()}

    def _table(self, k, path):
        """The stored rho_k table along an object path, a RhoTable over
        the tuples of core basis keys; built on first use, from the
        model's span tables (_spans), so that only its root is new."""
        path = tuple(path)
        if len(path) != k + 1:
            raise SectorMismatch("path length must be k + 1")
        key = (k, path)
        table = self._tables.get(key)
        if table is not None:
            return table
        cores = [self.pair(path[i], path[i + 1]).arena.core_basis()
                 for i in range(k)]
        if k == 1:
            states = {}
            for bkey in cores[0]:
                out = self.rho1_apply((path[0], path[1]), ({bkey: 1}, 1))
                if out[0]:
                    states[(bkey,)] = out
        else:
            slots = [[(b, ({b: 1}, 1)) for b in core] for core in cores]
            states = self._span_sums(k, path, slots, self._spans)
        table = self._tables[key] = RhoTable(states)
        return table

    def rho_table(self, k, path):
        """Dense product table: tuples of core basis keys along the
        object path -> output state (Fraction coefficients) in the core
        of (path[0], path[k])."""
        table = self._table(k, path)
        return {tup: rational_state((nums, table.den))
                for tup, nums in table.items()}

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
        table on the remaining path, and the products are summed once
        into per-tuple defects (see _relation_defects).  Returns a
        report; each failure carries its witness tuple and non-zero
        defect state, in basis-tuple order, r before mu.  Raises
        ValueError on a level below 1 or on forms that are empty, repeat
        a form or name anything but "r" and "mu"."""
        if isinstance(level, bool) or not isinstance(level, int) or level < 1:
            raise ValueError("level must be an integer >= 1")
        if (not forms or any(f not in ("r", "mu") for f in forms)
                or len(set(forms)) < len(forms)):
            raise ValueError(
                'forms must be a non-empty choice of distinct "r", "mu"')
        report = {"level": level, "forms": list(forms), "checked": 0, "failures": []}
        for n in range(1, level + 1):
            if object_paths is None:
                paths = list(product(range(len(self.objects)), repeat=n + 1))
            else:
                paths = [p for p in object_paths if len(p) == n + 1]
            for path in paths:
                defects, den = self._relation_defects(n, path, forms)
                cores = [self.pair(*path[i : i + 2]).arena.core_basis()
                         for i in range(n)]
                report["checked"] += prod(map(len, cores))
                ranks = [{key: r for r, key in enumerate(c)} for c in cores]
                for *_, form, combo, nums in sorted(
                        (list(map(dict.get, ranks, combo)), form == "mu",
                         form, combo, nums)
                        for form, found in defects.items()
                        for combo, nums in found.items()):
                    report["failures"].append({
                        "form": form, "level": n, "path": path, "inputs": combo,
                        "defect": rational_state(reduced(nums, den))})
        report["ok"] = not report["failures"]
        return report

    def _relation_defects(self, n, path, forms):
        """({form: {basis tuple: integer numerator defect}}, den): the
        non-empty defects of the level-n relations along one object path,
        all over the one denominator den.

        Let term (i, j) act on a tuple with tildes t whose sums are A
        before the inner arguments, B on them and P after them.  Its r
        parity is A, its mu parity c(outer tildes) + c(inner tildes) +
        j (n - i - j - P) + ij + i + j + n, with the conversion parity
        c(t) = C(len t, 2) + C(sum t, 2) + sum_p p t_p and B + 1 for the
        inner output's tilde (rho_j has parity j).  By C(x + y, 2) =
        C(x, 2) + C(y, 2) + xy that is A + c(t), for every (i, j).  So
        with both forms the defects are summed once, in r signs, and a
        mu defect is the r defect times (-1)^c(t), read off the tuple's
        terms.  Only a sign fault gives a tuple terms of mixed ratio;
        then the path is summed again in mu signs, so the mu defects are
        exact in every case."""
        terms = []
        for j in range(1, n + 1):
            for i in range(n - j + 1):
                inner = self._table(j, path[i : i + j + 1])
                if inner:
                    outer = self._table(n - j + 1,
                                        path[: i + 1] + path[i + j :])
                    terms.append((i, j, inner, outer))
        den = lcm(*(inner.den * outer.den for _, _, inner, outer in terms))
        form = "r" if "r" in forms else "mu"
        sums, ratios = self._defect_sums(n, terms, den, form, len(forms) > 1)
        defects = {form: sums}
        if len(forms) > 1:
            defects["mu"] = (
                self._defect_sums(n, terms, den, "mu", False)[0]
                if ratios is None else
                {combo: {ok: -w for ok, w in nums.items()}
                 if ratios[combo] else nums for combo, nums in sums.items()})
        return defects, den

    def _defect_sums(self, n, terms, den, form, both):
        """({basis tuple: integer numerator defect}, ratios): the non-empty
        defects in the signs of form, and their tuples' mu-over-r sign
        ratios (with both set), or None if a tuple's terms disagree.

        Slot-major: each term's inner table is indexed by its output
        key, on the keys that slot i of its outer table holds, and each
        outer table is read once for all the terms that share it (at
        level n, the n terms with j = 1 share rho_n), looking up every
        slot i of those terms in its index.  A tuple's sign parities are
        worked out only where the index has a match."""
        mu = form == "mu"
        tilde = _Memo(self.tilde)
        conversions = _Memo(_conversion_parity)

        def outer_parities(i, j):
            """tildes of an outer tuple -> (its sign parity in form, its
            share of the sign ratio) in term (i, j).  In mu: its
            conversion, the degree-j operator crossing the later
            arguments, the term's sign."""
            def parities(tl):
                odd_r = sum(tl[:i]) & 1
                odd_mu = (conversions[tl] + j * sum(t ^ 1 for t in tl[i + 1 :])
                          + i * j + i + j + n) & 1
                return odd_mu if mu else odd_r, odd_r ^ odd_mu if both else 0
            return _Memo(parities)

        groups = {}  # id of an outer table -> (table, [(i, index, parities)])
        for i, j, inner, outer in terms:
            group = groups.setdefault(id(outer), (outer, []))[1]
            # only the keys slot i of a smaller outer table holds
            wanted = ({otup[i] for otup in outer} if len(outer) < len(inner)
                      else None)
            scale = den // (inner.den * outer.den)
            # inner tuples by output key: (tuple, its share of the sign
            # ratio, value times scale with its conversion sign in mu)
            index = {}
            for itup, st in inner.items():
                hit = None
                for kk, v in st.items():
                    if wanted is not None and kk not in wanted:
                        continue
                    if hit is None:  # the tuple's first key in the index
                        ratio, sign = 0, scale
                        if mu or both:
                            state_parity(st)  # raises on mixed parity
                            conversion = conversions[
                                tuple(map(tilde.__getitem__, itup))]
                            if mu and conversion:
                                sign = -scale
                            if both:
                                ratio = conversion
                    hit = (itup, ratio, sign * v)
                    hits = index.get(kk)
                    if hits is None:
                        index[kk] = [hit]
                    else:
                        hits.append(hit)
            group.append((i, index, outer_parities(i, j)))
        found = {}  # basis tuple -> (defect, sign ratio of its first term)
        mixed = False
        for outer, group in groups.values():
            for otup, out in outer.items():
                tl = None
                for i, index, parities in group:
                    hits = index.get(otup[i])
                    if hits is None:
                        continue
                    if tl is None:
                        tl = tuple(map(tilde.__getitem__, otup))
                    odd, outer_ratio = parities[tl]
                    pre, post = otup[:i], otup[i + 1 :]
                    for itup, inner_ratio, v in hits:
                        ratio = outer_ratio ^ inner_ratio
                        combo = pre + itup + post
                        if odd:
                            v = -v
                        entry = found.get(combo)
                        if entry is None:
                            found[combo] = (
                                {ok: v * w for ok, w in out.items()}, ratio)
                            continue
                        mixed |= entry[1] != ratio
                        acc = entry[0]
                        for ok, w in out.items():
                            # drop what cancels: defects of a passing
                            # check stay empty, not full of zeros
                            x = acc.get(ok, 0) + v * w
                            if x:
                                acc[ok] = x
                            else:
                                del acc[ok]
        sums = {combo: acc for combo, (acc, _) in found.items() if acc}
        return sums, None if mixed else {c: found[c][1] for c in sums}

    # ------------------------------------------------------------------
    # the splitting idempotent and its Clifford structure

    def e1_and_clifford(self, pair_key):
        """E1 = Phi e Phi^{-1} with e the projector onto theta-degree
        zero, the Clifford maps gamma_i = Phi theta_i* Phi^{-1} and
        gamma_i^dagger = Phi theta_i Phi^{-1}, and the transported
        components At_i = [d, d/dt_i] on the core, as column maps.  e,
        theta_i* and theta_i are mask moves made on the Phi^{-1} image
        of each core key, and theta_i* on its At image.  At cap 0 no key
        has positive t-degree, so At vanishes and the maps say nothing:
        CapExceeded."""
        if self.cap == 0:
            raise CapExceeded("cap 0 leaves no t-degree for At")
        arena = self.pair(*pair_key).arena
        core = arena.core_basis()
        lifts = [arena.Phi_inv.apply_key(key) for key in core]
        thetas = arena.space.theta_mask

        def column_map(images, finish, move, *args):
            """key -> finish(move(mask, *args) made on the image of key),
            non-zero columns only.  A move is injective on masks, so no
            two keys of an image meet."""
            cols = {}
            for key, (nums, den) in zip(core, images):
                hits = [(move(m, *args), h, d, c)
                        for (m, h, d), c in nums.items()]
                st = finish(({(hit[1], h, d): hit[0] * c
                              for hit, h, d, c in hits if hit}, den))
                if st:
                    cols[key] = st
            return cols

        def conjugated(state):
            return rational_state(arena.Phi.apply(state))

        def minus_core(state):
            # on the core nabla kills the input, so At = nabla d there;
            # theta_i* picks out d/dt_i after d, and [d, d/dt_i] is
            # minus that
            return {k: -c for k, c in rational_state(state).items()
                    if arena.is_core_key(k)}

        ats = [arena.At.apply_key(key) for key in core]
        pos = [arena.space.gen_pos("theta", i) for i in range(self.qb.n)]
        return {
            "E1": column_map(lifts, conjugated,
                             lambda m: None if m & thetas else (1, m)),
            "gamma": [column_map(lifts, conjugated, contract_mask, p)
                      for p in pos],
            "dagger": [column_map(lifts, conjugated, wedge_mask, p)
                       for p in pos],
            "At": [column_map(ats, minus_core, contract_mask, p)
                   for p in pos],
        }


class _Memo(dict):
    """fn on keys, each worked out on first use."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


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
    """The cohomology of rho_1 on the core of a pair, its columns read
    from the stored rho_1 table."""
    basis = model.pair(*pair_key).arena.core_basis()
    table = model._table(1, pair_key)
    cols = [rational_state((table.get((b,), {}), table.den)) for b in basis]
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
    basis = model.pair(*pair_key).arena.core_basis()
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
