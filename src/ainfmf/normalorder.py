"""Normal-ordering backend for the higher products.

This module recomputes tree coefficients by bookkeeping of creation and
annihilation operators, independently of the sparse-matrix operator
algebra in sdrcore/ainfmodel.  The ingredients are

  * a catalog of interaction vertices per ordered pair of objects: the
    summands of the Atiyah class (A-type) and of the homotopy
    perturbation delta (C-type), each a word in fermion operators
    together with a coefficient table read from the t-adic columns of a
    polynomial, which QuotientBasis.columns owns and keeps for both
    backends; the connection nabla has no rules, the edge engine
    applies it by its own per-key rule.  The catalog checks nothing:
    the Model checked the objects and homotopies it reads when it was
    built;
  * an edge engine that sums the vertex words into the leaf, internal
    edge and root operators of a tree evaluation, each memoised per
    basis key and extended linearly to states;
  * a tree walker (FeynmanBackend) whose signed sums over trees the
    feynman command compares against the reported rho_k tables of the
    matrix backend.  Each tree is evaluated on its own, by one
    tree_state call over all tuples grouped by the keys left of its top
    split, from states and top-node column maps that the backend
    shares across tuples and trees.

The junction (binary composition) is the operator backend's
ainfmodel.ComposeKernel, one per pair of pairs: the two backends share
its Gamma times exterior-table combine, its alpha and merge signs, its
t-shift and its cap filter.  Only the kernel's exterior table is this
module's own (_ext_pair_compose): it pairs the fermions of the shared
middle object directly on exterior masks, not through the Hom matrices
of the main backend, so the comparison cross-checks that table and not
the rest of the kernel.  Nothing here is imported from sdrcore: the
arena of a pair supplies only its quotient basis, space, cap,
presentation, objects, homotopies and core keys.

The vertex catalog and the series of the edge engine compute with
Fraction coefficients, each once per basis key.  Every state of tree
evaluation is a pair (numerators, denominator) of ints: the leaf, edge
and root states of a key are converted once, mu2 is
ComposeKernel.product's integers over the kernel's den, and the sums of
the tree walker join denominators by their lcm (combine).  This
integer bookkeeping is the module's own: it takes none of superspace's
scaled-state helpers, so a fault in those moves only the operator
backend's side of the comparison.
"""

from fractions import Fraction
from itertools import product
from math import comb, factorial, gcd, lcm

from .ainfmodel import ComposeKernel
from .quotient import CapExceeded
from .superspace import (ZeroVirtualDegree, add_into, contract_mask,
                         merge_sign, move_word, wedge_mask)
from .treealg import leaves


# the fermion move of each operation name of a vertex word
_MOVES = {"wedge": wedge_mask, "contract": contract_mask}


class DegreeMismatch(Exception):
    pass


def check_cap(model, k):
    """Raise CapExceeded unless the cap leaves a key inside the margin
    n (k - 1) of a k-leaf tree.  Only nabla lowers the t-degree, by one,
    and adds a theta, so a tree uses it at most n times per leaf and per
    internal edge: as in sdr-verify, the cap must leave a key inside
    that margin."""
    margin = model.qb.n * (k - 1)
    if model.cap < margin:
        raise CapExceeded(
            "cap %d is below the margin %d = n (k - 1) of a %d-leaf tree"
            % (model.cap, margin, k))


# ----------------------------------------------------------------------
# integer states: (numerators, denominator)


# the empty integer state, shared: states are never changed in place
_EMPTY = ({}, 1)


def combine(terms, den=1):
    """The sum of c * state over terms, a list of (int c, state) where a
    state is ({key: int numerator}, denominator), divided by den: one
    state over den times the lcm of the terms' denominators, in lowest
    terms, zero entries dropped; the shared _EMPTY when no entry is
    left."""
    if not terms:
        return _EMPTY
    common = lcm(*{d for _, (_, d) in terms})
    out = {}
    get = out.get
    for c, (nums, d) in terms:
        if d != common:
            c *= common // d
        for key, v in nums.items():
            out[key] = get(key, 0) + c * v
    den *= common
    g = gcd(den, *out.values())
    out = {key: v // g for key, v in out.items() if v} if g > 1 else {
        key: v for key, v in out.items() if v}
    return (out, den // g) if out else _EMPTY


def _integer(state):
    """A state of Fraction coefficients as ({key: int numerator}, the
    lcm of its denominators), or _EMPTY."""
    den = lcm(*{c.denominator for c in state.values()})
    nums = {key: c.numerator * (den // c.denominator)
            for key, c in state.items() if c}
    return (nums, den) if nums else _EMPTY


# ----------------------------------------------------------------------
# the propagator


def zeta(state, virtual_degree):
    """The propagator: each basis key scaled by 1/(its virtual degree)."""
    out = {}
    for key, c in state.items():
        v = virtual_degree(key)
        if v == 0:
            raise ZeroVirtualDegree(key)
        out[key] = c * Fraction(1, v)
    return out


# ----------------------------------------------------------------------
# vertex catalog


class VertexRule:
    """One family of interaction vertices.

    kind: "A" (from the Atiyah class) or "C" (from delta); the
    connection has no rule (EdgeEngine.nabla_state).  ops is the
    ordered list of fermion operations (family, index,
    "wedge"|"contract") applied to the mask, theta included.  columns
    maps an incoming coefficient index h to a list of (l, delta,
    coeff): the t-adic expansion of poly * z_h, with the rule sign
    folded into coeff.  For A-type rules the vertex monomial t^delta is
    differentiated at t_k before it multiplies; C-type rules multiply by
    it.
    """

    __slots__ = ("name", "kind", "k", "ops", "poly", "columns")

    def __init__(self, name, kind, k, ops, poly, columns):
        self.name = name
        self.kind = kind
        self.k = k
        self.ops = ops
        self.poly = poly
        self.columns = columns

    def profile(self):
        """Per incoming h: (coeff, outgoing l, number of emitted t's),
        for rules whose expansion has a single term per column.  The
        emitted count is taken after the t_k-derivative for A-type
        rules.  Columns where the rule vanishes are omitted."""
        out = {}
        for h, entries in self.columns.items():
            live = []
            for (l, delta, c) in entries:
                if self.kind == "A":
                    if delta[self.k] == 0:
                        continue
                    emit = sum(delta) - 1
                    live.append((c * delta[self.k], l, emit))
                else:
                    live.append((c, l, sum(delta)))
            if not live:
                continue
            if len(live) > 1:
                raise ValueError("rule %s has a non-monomial column" % self.name)
            out[h] = live[0]
        return out


class VertexCatalog:
    def __init__(self, arena):
        self.arena = arena
        self.qb = arena.qb
        self.vertices = []
        self._build()

    def _add(self, name, kind, k, ops, poly, sign):
        """A rule of poly with sign, its columns read from the quotient
        basis: h -> [(l, delta, sign * coeff)]."""
        if poly:
            columns = {h: [(l, d, c * sign) for (l, d), c in col.items()]
                       for h, col in self.qb.columns(poly).items()}
            self.vertices.append(VertexRule(
                name, kind, k, ops, poly, columns))

    def _build(self):
        a = self.arena
        n = a.n
        if a.presentation == "nu":
            for j, (u, v) in enumerate(a.Y.pairs):
                for k in range(n):
                    self._add("A.1", "A", k,
                              [("eta", j, "contract"), ("theta", k, "wedge")],
                              u, 1)
                    self._add("A.2", "A", k,
                              [("eta", j, "wedge"), ("theta", k, "wedge")],
                              v, 1)
            for i, (f, g) in enumerate(a.X.pairs):
                for k in range(n):
                    self._add("A.3", "A", k,
                              [("xibar", i, "wedge"), ("theta", k, "wedge")],
                              f, -1)
                    self._add("A.4", "A", k,
                              [("xibar", i, "contract"), ("theta", k, "wedge")],
                              g, 1)
            for k in range(n):
                for j in range(a.Y.r):
                    self._add("C.1", "C", k,
                              [("theta", k, "contract"), ("eta", j, "contract")],
                              a.homY.F[k][j], 1)
                    self._add("C.2", "C", k,
                              [("theta", k, "contract"), ("eta", j, "wedge")],
                              a.homY.G[k][j], 1)
        else:
            for i, (f, g) in enumerate(a.X.pairs):
                for k in range(n):
                    self._add("A.1", "A", k,
                              [("xi", i, "contract"), ("theta", k, "wedge")],
                              f, 1)
                    self._add("A.4", "A", k,
                              [("xibar", i, "contract"), ("theta", k, "wedge")],
                              g, 1)
            for k in range(n):
                for i in range(a.X.r):
                    self._add("C.1", "C", k,
                              [("theta", k, "contract"), ("xi", i, "contract")],
                              a.homX.F[k][i], 1)
                    self._add("C.2", "C", k,
                              [("theta", k, "contract"), ("xi", i, "wedge")],
                              a.homX.G[k][i], 1)
                    self._add("C.3", "C", k,
                              [("theta", k, "contract"), ("xibar", i, "wedge")],
                              a.homX.F[k][i], 1)

    def rows(self):
        """Summary rows for display and comparison: one per rule, with
        the single scalar coefficient and the shift pattern when the
        expansion is monomial per column."""
        out = []
        for rule in self.vertices:
            try:
                prof = rule.profile()
            except ValueError:
                prof = None
            coeffs = set(c for c, _, _ in prof.values()) if prof else set()
            out.append({
                "vertex": rule.name,
                "kind": rule.kind,
                "k": rule.k,
                "ops": list(rule.ops),
                "poly": str(rule.poly),
                "coefficient": coeffs.pop() if len(coeffs) == 1 else None,
                "shifts": {h: (l, emit) for h, (c, l, emit) in prof.items()}
                if prof is not None else None,
            })
        return out


# ----------------------------------------------------------------------
# the edge engine: vertex words summed into series operators


class EdgeEngine:
    """Evaluates the leaf, internal-edge and root operators of a tree on
    one ordered pair of objects, from the vertex catalog alone.  The
    series run on Fraction states; each operator's image of a key is
    kept as an integer state (numerators, denominator)."""

    def __init__(self, arena):
        self.arena = arena
        self.space = arena.space
        self.cap = arena.cap
        self.n = arena.n
        self.catalog = VertexCatalog(arena)
        self.A_rules = [r for r in self.catalog.vertices if r.kind == "A"]
        self.C_rules = [r for r in self.catalog.vertices if r.kind == "C"]
        self._leaf = {}
        self._edge = {}
        self._root = {}

    # -- single vertex families -----------------------------------------

    def apply_rule(self, rule, key):
        mask, h, delta = key
        pos = self.space.gen_pos
        hit = move_word(mask, [(_MOVES[mode], pos(fam, i))
                               for fam, i, mode in rule.ops])
        if hit is None:
            return {}
        sign, mask = hit
        out = {}
        for l, dvec, c in rule.columns.get(h, ()):
            if rule.kind == "A":
                k = rule.k
                if dvec[k] == 0:
                    continue
                factor = c * dvec[k]
                nd = tuple(
                    a + (b - 1 if j == k else b)
                    for j, (a, b) in enumerate(zip(delta, dvec))
                )
            else:
                factor = c
                nd = tuple(a + b for a, b in zip(delta, dvec))
            if sum(nd) > self.cap:
                continue
            add_into(out, (mask, l, nd), factor * sign)
        return out

    def _sum_rules(self, rules, state):
        out = {}
        for key, c in state.items():
            for rule in rules:
                for k2, c2 in self.apply_rule(rule, key).items():
                    add_into(out, k2, c * c2)
        return out

    def at_state(self, state):
        return self._sum_rules(self.A_rules, state)

    def delta_state(self, state):
        return self._sum_rules(self.C_rules, state)

    def nabla_state(self, state):
        pos = self.space.gen_pos
        out = {}
        for (mask, h, delta), c in state.items():
            for k in range(self.n):
                hit = delta[k] and wedge_mask(mask, pos("theta", k))
                if hit:
                    nd = tuple(e - 1 if j == k else e
                               for j, e in enumerate(delta))
                    add_into(out, (hit[1], h, nd), c * hit[0] * delta[k])
        return out

    # -- series ----------------------------------------------------------

    def _series(self, state, step, coeff):
        """state plus sum_{m >= 1} coeff(m) step^m(state); every step
        moves the theta count one way, so the series stops by itself."""
        total = dict(state)
        cur = state
        for m in range(1, self.n + 2):
            cur = step(cur)
            if not cur:
                return total
            c = coeff(m)
            for key, v in cur.items():
                add_into(total, key, v * c)
        raise ValueError("series failed to terminate")

    def sigma_tail(self, state):
        """sum_m (-1)^m (zeta At)^m applied to the state; each A-type
        vertex raises the theta count."""
        vd = self.space.virtual_degree
        return self._series(state, lambda st: zeta(self.at_state(st), vd),
                            lambda m: -1 if m & 1 else 1)

    def exp_delta(self, state, sgn):
        """exp(sgn * delta); each C-type vertex removes a theta."""
        return self._series(state, self.delta_state,
                            lambda m: Fraction(sgn ** m, factorial(m)))

    # -- tree-location operators ----------------------------------------

    def leaf(self, key):
        out = self._leaf.get(key)
        if out is None:
            if self.space.virtual_degree(key):
                raise DegreeMismatch("leaf input carries theta or t content")
            out = self._leaf[key] = _integer(
                self.exp_delta(self.sigma_tail({key: Fraction(1)}), 1))
        return out

    def edge_key(self, key):
        out = self._edge.get(key)
        if out is None:
            st = self.exp_delta({key: Fraction(1)}, -1)
            st = self.nabla_state(st)
            st = zeta(st, self.space.virtual_degree) if st else st
            st = self.sigma_tail(st) if st else st
            out = self._edge[key] = _integer(
                self.exp_delta(st, 1) if st else {})
        return out

    def edge(self, state):
        nums, den = state
        return combine([(c, self.edge_key(key)) for key, c in nums.items()],
                       den)

    def root_key(self, key):
        out = self._root.get(key)
        if out is None:
            st = self.exp_delta({key: Fraction(1)}, -1)
            out = self._root[key] = _integer(
                {k2: c for k2, c in st.items() if self.arena.is_core_key(k2)})
        return out


# ----------------------------------------------------------------------
# junctions: pairing the fermions of the shared middle object


def _unit_to_words(S, T, r):
    """Expansion of the matrix unit E_{S,T} on r fermions in the basis of
    normal-ordered words (creations ascending, then annihilations
    ascending): E_{S,T} = xi_S |0><0| xibar_T with the vacuum projector
    written as prod_i (1 - xi_i xibar_i).  The word xi_V xibar_V of m
    free fermions V enters with (-1)^(m + binom(m, 2)), and merging V
    into S and T gives the rest of its sign."""
    out = {}
    for V in _subsets(((1 << r) - 1) & ~(S | T)):
        m = V.bit_count()
        sign = merge_sign(S, V) * merge_sign(V, T)
        out[S | V, T | V] = Fraction(-sign if (m + comb(m, 2)) & 1 else sign)
    return out


def _ext_pair_compose(pa, pb):
    """Composition table on exterior elements: (ext of pa, later) after
    (ext of pb, earlier), computed by contracting the bar generators of
    the left factor against the unbar generators of the right factor on
    a flat four-block word S1 T1 S2 T2.  Leftover middle-object
    generators survive only into blocks the output pair actually has:
    into its unbar family when pa is an endomorphism pair (rho), into
    its bar family when pb is.  When neither is but the output pair is,
    the resulting matrix units are re-expanded in the normal-ordered
    word basis of that endomorphism pair."""
    if pa.c2 != pb.c1:
        raise ValueError("middle fermion counts disagree")
    merge_u = pa.arena.presentation == "rho"
    merge_b = pb.arena.presentation == "rho"
    out_words = not (merge_u or merge_b) and pb.arena.X is pa.arena.Y
    off2, off3, off4 = pa.c1, pa.c1 + pa.c2, pa.c1 + 2 * pa.c2
    table = {}
    for S1, T1, S2, T2 in product(range(1 << pa.c1), range(1 << pa.c2),
                                  range(1 << pb.c1), range(1 << pb.c2)):
        flat = S1 | T1 << off2 | S2 << off3 | T2 << off4
        acc = {}
        for U in _subsets(T1 & S2):
            T1p, S2p = T1 & ~U, S2 & ~U
            if ((S2p and not merge_u) or (T1p and not merge_b)
                    or S1 & S2p or T1p & T2):
                continue
            # the contractions, then the reordering of S1 T1p S2p T2
            # into the two ascending output blocks
            sign = move_word(flat, [(contract_mask, off + i)
                                    for i in range(pa.c2) if U >> i & 1
                                    for off in (off2, off3)])[0]
            sign *= merge_sign(S1, S2p) * merge_sign(T1p, T2)
            if T1p.bit_count() * S2p.bit_count() & 1:
                sign = -sign
            So, To = S1 | S2p, T1p | T2
            if out_words:
                for key, s2 in _unit_to_words(So, To, pa.c1).items():
                    add_into(acc, key, sign * s2)
            else:
                add_into(acc, (So, To), Fraction(sign))
        if acc:
            table[(S1, T1), (S2, T2)] = acc
    return table


def _subsets(mask):
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


class FeynmanBackend:
    """Tree evaluation by vertex words and middle-object pairing.

    Reuses the model for its pair layouts, quotient data and junction;
    At and delta are rebuilt from the vertex catalog, and nabla from
    its per-key rule in EdgeEngine.nabla_state.  The junction is one
    ainfmodel.ComposeKernel per pair of pairs in _junction, the
    operator backend's Gamma combine, signs, t-shift and cap filter over
    this module's exterior table (_ext_pair_compose), and mu2 on states
    is its product; the edge engines are kept per pair in _engines.

    Every state below is an integer state (numerators, denominator).
    Three memos of tree evaluation live as long as the backend:
      * _states: the state below every internal node but the top, keyed
        by path, node and the keys of the node's leaves;
      * _top: the top operator on a key pair, top(ka, kb) =
        root(mu2(ka, kb)), core outputs only, kept per key ka and the
        three objects of the top node as {kb: top(ka, kb)};
      * _columns: per left sub-tree state of a top node, keyed by path,
        left node and the keys of its leaves (not by the split alone:
        the left nodes ((1, 2), 3) and (1, (2, 3)) share one), the
        column map ka -> sum over kb of c_b top(ka, kb).
    The top operator is linear in the key pairs of its two states, so a
    tree's output is the sum over the keys ka of its right state of c_a
    times the column of ka.  tree_state evaluates one tree over many
    tuples: those that share the keys left of the top split share one
    left state and one column map, and when that left state is empty
    no column is built and none of them has an output."""

    def __init__(self, model):
        self.model = model
        self._engines = {}
        self._junction = {}
        self._spans = {}
        self._states = {}
        self._top = {}
        self._columns = {}

    def engine(self, src, tgt):
        key = (src, tgt)
        if key not in self._engines:
            self._engines[key] = EdgeEngine(self.model.pair(src, tgt).arena)
        return self._engines[key]

    def _kernel(self, pair_a, pair_b):
        """The junction of pair_a = (mid, tgt) after pair_b = (src, mid):
        one ComposeKernel per pair of pairs, which keeps the exterior
        table of _ext_pair_compose."""
        key = (pair_a, pair_b)
        kernel = self._junction.get(key)
        if kernel is None:
            pa, pb = self.model.pair(*pair_a), self.model.pair(*pair_b)
            kernel = self._junction[key] = ComposeKernel(
                self.model, pa, pb, _ext_pair_compose(pa, pb))
        return kernel

    def mu2(self, sa, pair_a, sb, pair_b):
        """Binary composition of integer states: sa (later, in pair_a =
        (mid, tgt)) after sb (earlier, in pair_b = (src, mid)), the
        kernel's integers over the product of the denominators."""
        kernel = self._kernel(pair_a, pair_b)
        return kernel.product(sa[0], sb[0]), kernel.den * sa[1] * sb[1]

    # -- tree walking ----------------------------------------------------

    def _span(self, node):
        """(first leaf, last leaf of the left branch, last leaf)."""
        if node not in self._spans:
            self._spans[node] = (
                leaves(node)[0], leaves(node[0])[-1], leaves(node[1])[-1])
        return self._spans[node]

    def _eval(self, node, path, keys):
        """The state below a node other than the top.  It depends only
        on the path, the node and the keys of its leaves, so it is shared
        by every tuple and tree of this backend that has them."""
        if isinstance(node, int):
            eng = self.engine(path[node - 1], path[node])
            return eng.leaf(keys[node - 1])
        lo, mid, hi = self._span(node)
        mkey = (path, node, keys[lo - 1:hi])
        out = self._states.get(mkey)
        if out is None:
            sa = self._eval(node[1], path, keys)
            sb = self._eval(node[0], path, keys)
            out = self.mu2(
                sa, (path[mid], path[hi]), sb, (path[lo - 1], path[mid]))
            out = self._states[mkey] = self.engine(
                path[lo - 1], path[hi]).edge(out)
        return out

    def _column(self, pair_a, pair_b, ka, sb):
        """sum over the keys kb of the left state sb of c_b top(ka, kb),
        where top(ka, kb) = root(mu2(ka, kb)) is kept per key pair."""
        kernel = self._kernel(pair_a, pair_b)
        root = self.engine(pair_b[0], pair_a[1]).root_key
        tops = self._top.setdefault((pair_b[0], pair_a[0], pair_a[1], ka), {})
        laters = None
        terms = []
        nums, den = sb
        for kb, cb in nums.items():
            st = tops.get(kb)
            if st is None:
                if laters is None:
                    laters = kernel.laters([ka])
                parts = []
                for _, comp in kernel.row(kb, laters):
                    for kc, v in comp.items():
                        image = root(kc)
                        if image[0]:
                            parts.append((v, image))
                st = tops[kb] = combine(parts, kernel.den)
            if st[0]:
                terms.append((cb, st))
        return combine(terms, den)

    def tree_state(self, tree, path, combos):
        """The output states of one tree on a list of tuples of core basis
        keys, {combo: integer state} for the non-empty states only; each
        equals the signless mirror evaluation of the matrix backend: the
        right state below the top summed against the column map of the
        left state.  The tuples are grouped by the keys left of the top
        split, combo[:mid], so each left state is built once per group,
        and a group whose left state is empty is skipped."""
        path = tuple(path)
        _, mid, hi = self._span(tree)
        pair_a, pair_b = (path[mid], path[hi]), (path[0], path[mid])
        groups = {}
        for combo in combos:
            groups.setdefault(combo[:mid], []).append(combo)
        out = {}
        for left, group in groups.items():
            sb = self._eval(tree[0], path, group[0])
            if not sb[0]:
                continue
            cols = self._columns.setdefault((path, tree[0], left), {})
            for combo in group:
                nums, den = self._eval(tree[1], path, combo)
                terms = []
                for ka, ca in nums.items():
                    col = cols.get(ka)
                    if col is None:
                        col = cols[ka] = self._column(pair_a, pair_b, ka, sb)
                    if col[0]:
                        terms.append((ca, col))
                if terms:
                    state = combine(terms, den)
                    if state[0]:
                        out[combo] = state
        return out

    def c_tau(self, tree, path, keys, tau):
        k = len(leaves(tree))
        path = tuple(path)
        keys = tuple(keys)
        if len(path) != k + 1:
            raise ValueError("path length must be k + 1")
        check_cap(self.model, k)
        for i, key in enumerate(keys):
            eng = self.engine(path[i], path[i + 1])
            if eng.space.virtual_degree(key):
                raise DegreeMismatch("input %d carries theta or t content" % (i + 1))
        nums, den = self.tree_state(tree, path, [keys]).get(keys, _EMPTY)
        return Fraction(nums.get(tau, 0), den)
