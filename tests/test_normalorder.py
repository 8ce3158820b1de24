import json
import os
import random
from fractions import Fraction
from itertools import permutations, product

import pytest

from ainfmf import cli, quotient
from ainfmf.ainfmodel import ComposeKernel, Model
from ainfmf.mfcat import (HomotopyIdentityFailed, HomotopySet,
                          KoszulFactorisation, check_homotopies)
from ainfmf.normalorder import (
    _MOVES,
    CapExceeded,
    DegreeMismatch,
    EdgeEngine,
    FeynmanBackend,
    VertexCatalog,
    zeta,
)
from ainfmf.poly import Polynomial, parse_poly
from ainfmf.quotient import QuotientBasis
from ainfmf.sdrcore import Arena
from ainfmf.superspace import (ZeroVirtualDegree, add_into, extend_linearly,
                               rational_state, scaled_state)
from ainfmf.treealg import enumerate_binary, leaves, mirror_eval

from test_ainfmodel import ModelDecoration


def worked_model(cap=3):
    W = parse_poly("1/5*x1^5", 1)
    X = KoszulFactorisation(
        [(parse_poly("x1^2", 1), parse_poly("1/5*x1^3", 1))], W, "X")
    Y = KoszulFactorisation(
        [(parse_poly("x1^3", 1), parse_poly("1/5*x1^2", 1))], W, "Y")
    qb = QuotientBasis([parse_poly("x1^4", 1)])
    return Model([X, Y], qb, cap)


def kstab_model(cap=3):
    W = parse_poly("x1^3", 1)
    X = KoszulFactorisation(
        [(parse_poly("x1", 1), parse_poly("x1^2", 1))], W, "kstab")
    qb = QuotientBasis([parse_poly("x1", 1)])
    one = Polynomial.const(1, 1)
    hom = HomotopySet(F=[[Polynomial.zero(1)]], G=[[one]])
    return Model([X], qb, cap, homotopies={0: hom})


def quadric_model(n, cap, nobj=1):
    # rank-n objects (x_i, x_i) for W = x1^2 + ... + xn^2
    xs = ["x%d" % (i + 1) for i in range(n)]
    W = parse_poly("+".join(x + "^2" for x in xs), n)
    pairs = [(parse_poly(x, n), parse_poly(x, n)) for x in xs]
    objs = [KoszulFactorisation(
        list(pairs), W, "D%d" % i) for i in range(nobj)]
    qb = QuotientBasis([parse_poly("2*" + x, n) for x in xs])
    return Model(objs, qb, cap)


def twovar_model(cap=3, nobj=1):
    # rank-two object for W = x^2 + y^2; exercises multi-bit fermion
    # pairings that a rank-one model cannot see
    return quadric_model(2, cap, nobj)


def split(pair, mask):
    """A mask of the pair's space -> (theta part, ext key (S, T))."""
    th = mask & pair.theta_all
    f = mask >> pair.n
    return th, (f & ((1 << pair.c1) - 1), f >> pair.c1)


def rational(state):
    """An integer state (numerators, denominator) of the Feynman backend,
    or None for an absent one, as a state of Fraction coefficients."""
    if state is None:
        return {}
    nums, den = state
    return {key: Fraction(v, den) for key, v in nums.items() if v}


def integer(state):
    """A state of Fraction coefficients as an integer state over the
    product of its denominators."""
    den = 1
    for c in state.values():
        den *= Fraction(c).denominator
    return {key: int(c * den) for key, c in state.items()}, den


def root(eng, state):
    """The edge engine's root operator on a state of Fraction
    coefficients, key by key."""
    return extend_linearly(lambda key: rational(eng.root_key(key)), state)


def compose_keys(model, pa, pb, ka, kb, table):
    """mu2 on a pair of basis keys as a state of Fraction coefficients:
    the ComposeKernel of the one entry of the exterior table of pa after
    pb that the pair reads.  With the model's exterior tables this is
    the matrix backend's composition, one key pair at a time."""
    ext_key = (split(pa, ka[0])[1], split(pb, kb[0])[1])
    ext = table.get(ext_key)
    kernel = ComposeKernel(model, pa, pb, {ext_key: ext} if ext else {})
    for _, comp in kernel.row(kb, kernel.laters([ka])):
        return {kc: Fraction(v, kernel.den) for kc, v in comp.items()}
    return {}


def demo_model(name):
    """The model of demos/<name>.json."""
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "demos",
                           name + ".json")) as fh:
        return cli.Problem(json.load(fh)).need_model()


def clean(state):
    return {k: v for k, v in state.items() if v}


def apply(op, state):
    """An operator of the matrix backend on a state of Fraction
    coefficients."""
    return rational_state(op.apply(scaled_state(state)))


# ----------------------------------------------------------------------
# propagator scalars: the factors contributed by the 1/(virtual degree)
# insertions, a reference for the paper's closed form


def z_factor_forward(a, degrees):
    """Product of 1/(a + d_1 + ... + d_j) over j = 1..m for one ordering
    of the boson emissions."""
    total = a
    out = Fraction(1)
    for d in degrees:
        total += d
        if total == 0:
            raise ZeroVirtualDegree((a, tuple(degrees)))
        out /= total
    return out


def z_factor_sym(a, degrees):
    """Sum of z_factor_forward over all orderings of the emissions.
    For a = 0 this collapses to 1 / (d_1 * ... * d_m)."""
    acc = Fraction(0)
    for p in permutations(degrees):
        acc += z_factor_forward(a, p)
    return acc


def test_z_factor_examples():
    assert z_factor_forward(0, (1, 2)) == Fraction(1, 3)
    assert z_factor_forward(2, ()) == 1
    assert z_factor_sym(1, (1, 1)) == Fraction(1, 3)
    assert z_factor_sym(0, (2, 3)) == Fraction(1, 6)


# ----------------------------------------------------------------------
# vertex rules against the operator backend


def margin_keys(arena):
    """The keys below the cap by at least the largest t-degree that d_A
    and delta reach from a key of t-degree zero."""
    lim = arena.cap - max(sum(k2[2]) for op in (arena.d_A, arena.delta)
                          for key in arena.space.basis() if not sum(key[2])
                          for k2 in op.cols.get(key, ()))
    return [k for k in arena.space.basis() if sum(k[2]) <= lim]


@pytest.mark.parametrize("maker", [worked_model, kstab_model, twovar_model])
def test_engine_matches_operator_backend(maker):
    m = maker(cap=3)
    for s in range(len(m.objects)):
        for t in range(len(m.objects)):
            arena = m.pair(s, t).arena
            eng = EdgeEngine(arena)
            for key in margin_keys(arena):
                st = {key: Fraction(1)}
                assert clean(eng.at_state(st)) == apply(arena.At, st)
                assert clean(eng.delta_state(st)) == apply(arena.delta, st)
                assert clean(eng.nabla_state(st)) == apply(arena.nabla, st)


@pytest.mark.parametrize("maker", [worked_model, kstab_model])
def test_series_match_sdr_operators(maker):
    m = maker(cap=4)
    for s in range(len(m.objects)):
        for t in range(len(m.objects)):
            arena = m.pair(s, t).arena
            eng = EdgeEngine(arena)
            for key in margin_keys(arena):
                st = {key: Fraction(1)}
                if arena.space.virtual_degree(key) == 0:
                    assert rational(eng.leaf(key)) == apply(arena.Phi_inv, st)
                assert rational(eng.edge_key(key)) == apply(arena.H_hat, st)
                assert clean(root(eng, st)) == apply(arena.Phi, st)


def test_constant_coefficient_rules_are_inert():
    # a unit first entry gives an A-type rule whose t-derivative always
    # vanishes; the engine must still agree with the operator backend
    W = parse_poly("1/5*x1^5", 1)
    one = Polynomial.const(1, 1)
    X = KoszulFactorisation([(one, W)], W, "U")
    qb = QuotientBasis([parse_poly("x1^4", 1)])
    m = Model([X], qb, 3)
    arena = m.pair(0, 0).arena
    eng = EdgeEngine(arena)
    inert = [r for r in eng.catalog.vertices
             if r.kind == "A" and r.source == ("f", 0)]
    assert inert and all(r.profile() == {} for r in inert)
    for key in margin_keys(arena):
        st = {key: Fraction(1)}
        assert clean(eng.at_state(st)) == apply(arena.At, st)


# ----------------------------------------------------------------------
# junction tables


# quadric3 checks the rho presentation's sparse inverse entry by entry
# on a rank-3 endomorphism pair; with two objects it is the one rank-3
# check of the nu junction and of _unit_to_words on three fermions
@pytest.mark.parametrize(
    "m", [worked_model(cap=3), twovar_model(cap=3, nobj=2),
          quadric_model(3, cap=0), quadric_model(3, cap=0, nobj=2)],
    ids=["worked", "twovar", "quadric3", "quadric3-two"])
def test_junction_tables_match(m):
    backend = FeynmanBackend(m)
    objs = range(len(m.objects))
    for s in objs:
        for mid in objs:
            for t in objs:
                pa = m.pair(mid, t)
                pb = m.pair(s, mid)
                want = {k: clean(v) for k, v in
                        m._kernel(pa, pb).table.items()}
                got = {k: clean(v) for k, v in
                       backend._kernel((mid, t), (s, mid)).table.items()}
                want = {k: v for k, v in want.items() if v}
                got = {k: v for k, v in got.items() if v}
                assert got == want, (s, mid, t)


def test_compose_keys_match_matrix_backend():
    m = worked_model(cap=3)
    backend = FeynmanBackend(m)
    rng = random.Random(17)
    for s, mid, t in [(0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1)]:
        pa = m.pair(mid, t)
        pb = m.pair(s, mid)
        keys_a = [k for k in pa.arena.space.basis() if sum(k[2]) <= 1]
        keys_b = [k for k in pb.arena.space.basis() if sum(k[2]) <= 1]
        for _ in range(60):
            ka = rng.choice(keys_a)
            kb = rng.choice(keys_b)
            got = rational(backend.mu2(({ka: 1}, 1), (mid, t),
                                       ({kb: 1}, 1), (s, mid)))
            want = compose_keys(m, pa, pb, ka, kb, m._kernel(pa, pb).table)
            assert got == want, (s, mid, t, ka, kb)


# ----------------------------------------------------------------------
# full tree evaluation, both backends


def test_tree_dual_backend_kstab():
    m = kstab_model(cap=4)
    backend = FeynmanBackend(m)
    for k in (2, 3):
        path = (0,) * (k + 1)
        cores = [m.pair(0, 0).arena.core_basis() for _ in range(k)]
        combos = list(product(*cores))
        states = {T: backend.tree_state(T, path, combos)
                  for T in enumerate_binary(k)}
        for combo in combos:
            inputs = [{key: Fraction(1)} for key in combo]
            in_map = {i + 1: inputs[i] for i in range(k)}
            dec = ModelDecoration(m, path, inputs)
            for T in enumerate_binary(k):
                got = rational(states[T].get(combo))
                want = clean(mirror_eval(T, dec, in_map))
                assert got == want, (T, combo)


def test_tree_dual_backend_worked_sample():
    m = worked_model(cap=3)
    backend = FeynmanBackend(m)
    rng = random.Random(23)
    for path in [(0, 0, 1, 1), (0, 1, 0, 1)]:
        cores = [m.pair(path[i], path[i + 1]).arena.core_basis()
                 for i in range(3)]
        combos = [tuple(rng.choice(c) for c in cores) for _ in range(25)]
        states = {T: backend.tree_state(T, path, combos)
                  for T in enumerate_binary(3)}
        for combo in combos:
            inputs = [{key: Fraction(1)} for key in combo]
            in_map = {i + 1: inputs[i] for i in range(3)}
            dec = ModelDecoration(m, path, inputs)
            for T in enumerate_binary(3):
                got = rational(states[T].get(combo))
                want = clean(mirror_eval(T, dec, in_map))
                assert got == want, (path, T, combo)


# the four k = 3 paths of the benchmark's feynman commands: XYXY, XXYY,
# YXYX and YYXX
WORKED_PATHS = [(0, 1, 0, 1), (0, 0, 1, 1), (1, 0, 1, 0), (1, 1, 0, 0)]


@pytest.mark.parametrize("maker, k, paths, sample", [
    (worked_model, 3, WORKED_PATHS, 12),
    (kstab_model, 3, [(0,) * 4], None),
    (worked_model, 4, [(0,) * 5, (0, 1, 0, 1, 0), (1, 1, 0, 0, 1)], 24),
], ids=["worked", "kstab", "worked-k4"])
def test_shared_subtree_states_match_fresh_backend(maker, k, paths, sample):
    # one backend keeps its sub-tree states across paths, trees and
    # tuples; each must equal what a fresh backend computes.  Every pair
    # of these models has the same core keys, so the same key tuples
    # recur on every path: a memo that ignored the path would hand one
    # path's states to another.  At k = 4 the sub-trees ((1, 2), 3) and
    # (1, (2, 3)) cover the same keys, and on the worked model their
    # states differ.  sample tuples are drawn, or all when it is None:
    # every kstab state of four inputs is empty, so that model runs every
    # tuple of three, 4 of whose 128 states are not
    m = maker(cap=3)
    shared = FeynmanBackend(m)
    rng = random.Random(31)
    cores = [m.pair(0, 0).arena.core_basis()] * k
    combos = (list(product(*cores)) if sample is None else
              [tuple(rng.choice(c) for c in cores) for _ in range(sample)])
    trees = enumerate_binary(k)
    for path in paths:
        non_empty = 0
        for T in trees:
            states = shared.tree_state(T, path, combos)
            for combo in combos:
                fresh = FeynmanBackend(m).tree_state(T, path, [combo])
                assert (combo in states) == (combo in fresh)
                assert rational(states.get(combo)) == rational(
                    fresh.get(combo)), (path, T, combo)
                non_empty += combo in states
        # a case of empty states only would compare nothing
        assert non_empty, path
    assert shared._states


def whole_state_root(eng, state):
    """The root operator as exp(-delta) on the whole state, then its core
    part: the reference for root_key extended linearly."""
    st = eng.exp_delta(state, -1)
    return {key: c for key, c in st.items()
            if eng.arena.is_core_key(key) and c}


@pytest.mark.parametrize("maker", [worked_model, twovar_model])
def test_root_is_key_linear(maker):
    m = maker(cap=3)
    rng = random.Random(5)
    objs = range(len(m.objects))
    for s in objs:
        for t in objs:
            eng = EdgeEngine(m.pair(s, t).arena)
            keys = list(eng.space.basis())
            for _ in range(20):
                state = {key: Fraction(rng.choice((-3, -1, 2, 5)),
                                       rng.randint(1, 4))
                         for key in rng.sample(keys, 4)}
                assert root(eng, state) == whole_state_root(eng, state), (s, t)


def per_tuple_tree_state(backend, tree, path, keys, products=None):
    """The reference for tree_state, one tuple at a time and with no
    memo but the edge engine's and, when given, the dict products of
    compose_keys per key pair: mu2 over every key pair of two states,
    one compose_keys call per pair on the backend's exterior tables,
    then the edge operator below the top and the root operator on the
    whole product at the top."""
    m = backend.model

    def compose(pa, pb, ka, kb, table):
        if products is None:
            return compose_keys(m, pa, pb, ka, kb, table)
        pkey = (pa, pb, ka, kb)
        if pkey not in products:
            products[pkey] = compose_keys(m, pa, pb, ka, kb, table)
        return products[pkey]

    def mu2(sa, pair_a, sb, pair_b):
        pa, pb = m.pair(*pair_a), m.pair(*pair_b)
        table = backend._kernel(pair_a, pair_b).table
        out = {}
        for ka, c1 in sa.items():
            for kb, c2 in sb.items():
                for kc, c3 in compose(pa, pb, ka, kb, table).items():
                    out[kc] = out.get(kc, 0) + c1 * c2 * c3
        return clean(out)

    def ev(node):
        if isinstance(node, int):
            return rational(backend.engine(path[node - 1], path[node]).leaf(
                keys[node - 1]))
        lo, mid, hi = leaves(node)[0], leaves(node[0])[-1], leaves(node)[-1]
        st = mu2(ev(node[1]), (path[mid], path[hi]),
                 ev(node[0]), (path[lo - 1], path[mid]))
        eng = backend.engine(path[lo - 1], path[hi])
        if node == tree:
            return whole_state_root(eng, st)
        return extend_linearly(lambda key: rational(eng.edge_key(key)), st)

    return ev(tree)


# (model, k, paths, tuples per path or None for all): the worked model
# on the four benchmark paths, the kstab model at k = 4 (five trees,
# two of them with the left node ((1, 2), 3) or (1, (2, 3))), where
# every tree vanishes, the worked model at k = 4, where the states of
# those two left nodes differ, the rank-two model of
# demos/two_variable.json on K, L, K and the rank-3 quadric at its
# margin
TOP_CASES = {
    "worked": (lambda: worked_model(cap=3), 3, WORKED_PATHS, 40),
    "kstab": (lambda: kstab_model(cap=3), 4, [(0,) * 5], None),
    "worked-k4": (lambda: worked_model(cap=3), 4, [(0, 1, 0, 1, 0)], 40),
    "twovar-KLK": (lambda: demo_model("two_variable"), 2, [(0, 1, 0)], 120),
    "quadric3": (lambda: quadric_model(3, cap=3), 2, [(0, 0, 0)], 12),
}


@pytest.mark.parametrize("case", list(TOP_CASES))
def test_top_columns_match_per_tuple_reference(case):
    # one backend for the whole case, so that columns and top key pairs
    # built for one tuple are read by later tuples and trees; tuples are
    # drawn from a few keys per slot to make that happen often
    maker, k, paths, count = TOP_CASES[case]
    m = maker()
    backend = FeynmanBackend(m)
    rng = random.Random(case)
    trees = enumerate_binary(k)
    live = set()
    for path in paths:
        cores = [m.pair(path[i], path[i + 1]).arena.core_basis()
                 for i in range(k)]
        if count is None:
            combos = list(product(*cores))
        else:
            pools = [rng.sample(c, min(len(c), 6)) for c in cores]
            combos = [tuple(rng.choice(p) for p in pools)
                      for _ in range(count)]
        nonzero = 0
        for T in trees:
            states = backend.tree_state(T, path, combos)
            mid = leaves(T[0])[-1]
            for combo in combos:
                want = per_tuple_tree_state(backend, T, path, combo)
                assert rational(states.get(combo)) == want, (path, T, combo)
                nonzero += bool(want)
                if backend._eval(T[0], path, combo)[0]:
                    live.add((path, T[0], combo[:mid]))
        assert nonzero or case == "kstab", path
    assert backend._top
    # every kept state is ints: numerators over a positive denominator
    kept = [*backend._states.values(),
            *(st for tops in backend._top.values() for st in tops.values()),
            *(col for cols in backend._columns.values()
              for col in cols.values())]
    assert all(type(den) is int and den > 0
               and all(type(v) is int for v in nums.values())
               for nums, den in kept)
    # one column map per left node and keys of a non-empty left state:
    # keyed by left node, not by split alone, and none for a skipped
    # group.  Both left nodes of three leaves are empty on every kstab
    # tuple, and on worked-k4 their states differ
    assert set(backend._columns) == live
    if case == "worked-k4":
        assert {ckey[1] for ckey in backend._columns} >= {((1, 2), 3),
                                                          (1, (2, 3))}


# (model, paths) checked on every tuple at k = 3: the worked model on the
# four benchmark paths and the residue field of demos/residue_field.json
GROUPED_CASES = {
    "worked": (lambda: worked_model(cap=3), WORKED_PATHS),
    "residue-field": (lambda: kstab_model(cap=4), [(0,) * 4]),
}


@pytest.mark.parametrize("case", list(GROUPED_CASES))
def test_grouped_tree_state_matches_per_tuple_reference(monkeypatch, case):
    # tree_state groups the tuples by the keys left of the top split and
    # skips a group whose left state is empty: on every tuple it must
    # equal the per-tuple reference, no column may be built against an
    # empty left state, and some group must have been skipped.  A fresh
    # backend on a prefix that ends inside a left group gives the same
    # states on that prefix
    maker, paths = GROUPED_CASES[case]
    m = maker()
    column = FeynmanBackend._column
    built = []

    def spy(self, pair_a, pair_b, ka, sb):
        built.append(bool(sb[0]))
        return column(self, pair_a, pair_b, ka, sb)

    monkeypatch.setattr(FeynmanBackend, "_column", spy)
    backend = FeynmanBackend(m)
    products = {}
    skipped = compared = 0
    for path in paths:
        cores = [m.pair(path[i], path[i + 1]).arena.core_basis()
                 for i in range(3)]
        combos = list(product(*cores))
        cut = len(combos) // 2 + 1
        for T in enumerate_binary(3):
            states = backend.tree_state(T, path, combos)
            for combo in combos:
                want = per_tuple_tree_state(backend, T, path, combo, products)
                assert rational(states.get(combo)) == want, (path, T, combo)
                compared += bool(want)
            mid = leaves(T[0])[-1]
            skipped += sum(not backend._eval(T[0], path, left)[0]
                           for left in dict.fromkeys(c[:mid] for c in combos))
            assert combos[cut - 1][:mid] == combos[cut][:mid]
            head = set(combos[:cut])
            fresh = FeynmanBackend(m).tree_state(T, path, combos[:cut])
            assert {c: rational(st) for c, st in fresh.items()} == {
                c: rational(st) for c, st in states.items() if c in head}, (
                    path, T)
    assert built and all(built)
    assert skipped and compared


def test_c_tau_guards():
    m = kstab_model(cap=1)
    backend = FeynmanBackend(m)
    T = ((1, 2), (3, 4))
    with pytest.raises(CapExceeded):
        backend.c_tau(T, (0,) * 5, [(0, 0, (0,))] * 4, (0, 0, (0,)))
    m2 = kstab_model(cap=3)
    b2 = FeynmanBackend(m2)
    with pytest.raises(DegreeMismatch):
        b2.c_tau((1, 2), (0, 0, 0), [(0, 0, (1,)), (0, 0, (0,))], (0, 0, (0,)))


def test_c_tau_margin_boundary():
    # n = 1 and k = 3: the margin n (k - 1) is 2
    T = ((1, 2), 3)
    unit = (0, 0, (0,))
    with pytest.raises(CapExceeded):
        FeynmanBackend(kstab_model(cap=1)).c_tau(T, (0,) * 4, [unit] * 3, unit)
    value = FeynmanBackend(kstab_model(cap=2)).c_tau(T, (0,) * 4, [unit] * 3,
                                                     unit)
    assert isinstance(value, Fraction)


# ----------------------------------------------------------------------
# a literal operator word: one hand-written summand of the expansion,
# evaluated atom by atom on explicit inputs


def _parse_atom(space, atom):
    """Atom strings: pi, zeta, t[k], dt[k], z{h}, z{h}*, and fermion
    generators by family name with an optional 1-based index and a
    trailing * for the annihilator (e.g. theta*, eta2, xibar*).  z
    indices are 0-based coefficient-basis indices (z0 is the unit)."""
    if atom == "pi":
        return ("pi",)
    if atom == "zeta":
        return ("zeta",)
    star = atom.endswith("*")
    body = atom[:-1] if star else atom
    head = body.rstrip("0123456789")
    digits = body[len(head):]
    if head == "z":
        if digits == "":
            raise ValueError("z atom needs an index: %r" % atom)
        return ("zstar" if star else "zset", int(digits))
    if head in ("t", "dt"):
        if star:
            raise ValueError("no starred t atoms: %r" % atom)
        k = int(digits) - 1 if digits else 0
        return ("dt" if head == "dt" else "t", k)
    i = int(digits) - 1 if digits else 0
    if (head, i) not in space.positions:
        raise ValueError("unknown generator %r" % atom)
    return ("contract" if star else "wedge", head, i)


def _apply_atom(arena, parsed, state):
    space = arena.space
    kind = parsed[0]
    out = {}
    if kind == "pi":
        for key, c in state.items():
            if arena.is_core_key(key):
                out[key] = c
        return out
    if kind == "zeta":
        return zeta(state, space.virtual_degree)
    if kind in _MOVES:
        pos = space.gen_pos(parsed[1], parsed[2])
        for (mask, h, delta), c in state.items():
            hit = _MOVES[kind](mask, pos)
            if hit:
                add_into(out, (hit[1], h, delta), c * hit[0])
        return out
    if kind == "zset":
        l = parsed[1]
        for (mask, h, delta), c in state.items():
            if h != 0:
                raise DegreeMismatch("z creation on an occupied register")
            add_into(out, (mask, l, delta), c)
        return out
    if kind == "zstar":
        hreq = parsed[1]
        for (mask, h, delta), c in state.items():
            if h == hreq:
                add_into(out, (mask, 0, delta), c)
        return out
    if kind == "t":
        k = parsed[1]
        for (mask, h, delta), c in state.items():
            nd = tuple(e + 1 if j == k else e for j, e in enumerate(delta))
            if sum(nd) > arena.cap:
                continue
            add_into(out, (mask, h, nd), c)
        return out
    if kind == "dt":
        k = parsed[1]
        for (mask, h, delta), c in state.items():
            if delta[k] == 0:
                continue
            nd = tuple(e - 1 if j == k else e for j, e in enumerate(delta))
            add_into(out, (mask, h, nd), c * delta[k])
        return out
    raise ValueError(parsed)


def _word_span(word):
    if word[0] == "leaf":
        return (word[1], word[1])
    lo1, hi1 = _word_span(word[2])
    lo2, hi2 = _word_span(word[3])
    return (min(lo1, lo2), max(hi1, hi2))


def evaluate_summand(model, path, word, inputs, tau, prefactor=Fraction(1)):
    """Evaluate one hand-written operator word and return the
    coefficient of tau, times the prefactor.

    word is nested: ("leaf", i, ops) applies the atom list ops to the
    i-th input (1-based), ("node", ops, later, earlier) composes the two
    sub-words (first slot is the later morphism, as written) and applies
    ops to the result.  Atoms are listed in operator order: the
    rightmost atom acts first.  The ops of a node stand for the
    operators between that composition and the next one below it."""
    backend = FeynmanBackend(model)
    path = tuple(path)

    def pair_of(span):
        return (path[span[0] - 1], path[span[1]])

    def ev(w):
        span = _word_span(w)
        arena = backend.model.pair(*pair_of(span)).arena
        if w[0] == "leaf":
            st, ops = inputs[w[1] - 1], w[2]
        else:
            sa = ev(w[2])
            sb = ev(w[3])
            st = rational(backend.mu2(integer(sa), pair_of(_word_span(w[2])),
                                      integer(sb), pair_of(_word_span(w[3]))))
            ops = w[1]
        for atom in reversed(ops):
            st = _apply_atom(arena, _parse_atom(arena.space, atom), st)
            if not st:
                return {}
        return st

    return Fraction(prefactor) * ev(word).get(tau, Fraction(0))


def test_evaluate_summand_atom_errors():
    m = kstab_model(cap=3)
    word = ("leaf", 1, ["z1"])
    occupied = [{(0, 1, (0,)): Fraction(1)}]
    with pytest.raises(DegreeMismatch):
        evaluate_summand(m, (0, 0), word, occupied, (0, 1, (0,)))
    with pytest.raises(ValueError):
        evaluate_summand(m, (0, 0), ("leaf", 1, ["eta"]),
                         [{(0, 0, (0,)): Fraction(1)}], (0, 0, (0,)))


# ----------------------------------------------------------------------
# coefficient tables of the sample computation


HALF5 = Fraction(1, 5)

REF_XY = [
    {"vertex": "A.1", "coefficient": Fraction(1),
     "shifts": {1: (0, 0), 2: (1, 0), 3: (2, 0)}},
    {"vertex": "A.2", "coefficient": HALF5,
     "shifts": {2: (0, 0), 3: (1, 0)}},
    {"vertex": "A.3", "coefficient": Fraction(-1),
     "shifts": {2: (0, 0), 3: (1, 0)}},
    {"vertex": "A.4", "coefficient": HALF5,
     "shifts": {1: (0, 0), 2: (1, 0), 3: (2, 0)}},
    {"vertex": "C.1", "coefficient": Fraction(3),
     "shifts": {0: (1, 0), 1: (2, 0), 2: (3, 0), 3: (0, 1)}},
    {"vertex": "C.2", "coefficient": Fraction(2, 5),
     "shifts": {0: (1, 0), 1: (2, 0), 2: (3, 0), 3: (0, 1)}},
]

REF_XX = [
    {"vertex": "A.1", "coefficient": Fraction(1),
     "shifts": {2: (0, 0), 3: (1, 0)}},
    {"vertex": "A.4", "coefficient": HALF5,
     "shifts": {1: (0, 0), 2: (1, 0), 3: (2, 0)}},
    {"vertex": "C.1", "coefficient": Fraction(2),
     "shifts": {0: (1, 0), 1: (2, 0), 2: (3, 0), 3: (0, 1)}},
    {"vertex": "C.2", "coefficient": Fraction(3, 5),
     "shifts": {0: (2, 0), 1: (3, 0), 2: (0, 1), 3: (1, 1)}},
    {"vertex": "C.3", "coefficient": Fraction(2),
     "shifts": {0: (1, 0), 1: (2, 0), 2: (3, 0), 3: (0, 1)}},
]

REF_YY = [
    {"vertex": "A.1", "coefficient": Fraction(1),
     "shifts": {1: (0, 0), 2: (1, 0), 3: (2, 0)}},
    {"vertex": "A.4", "coefficient": HALF5,
     "shifts": {2: (0, 0), 3: (1, 0)}},
    {"vertex": "C.1", "coefficient": Fraction(3),
     "shifts": {0: (1, 0), 1: (2, 0), 2: (3, 0), 3: (0, 1)}},
    {"vertex": "C.2", "coefficient": Fraction(2, 5),
     "shifts": {0: (1, 0), 1: (2, 0), 2: (3, 0), 3: (0, 1)}},
    {"vertex": "C.3", "coefficient": Fraction(3),
     "shifts": {0: (1, 0), 1: (2, 0), 2: (3, 0), 3: (0, 1)}},
]


def catalog_diff(catalog, reference):
    """Compare a catalog against a reference table of rows
    {"vertex": name, "coefficient": Fraction, "shifts": {h: (l, emit)}}.
    Returns {"matches": [...], "flags": [...]} where each flag is a dict
    with the computed and reference data and, when reconstructible, the
    coefficient polynomial implied by the reference shifts together with
    the result of re-checking the homotopy identity with it."""
    rows = {r["vertex"]: r for r in catalog.rows()}
    rules = {r.name: r for r in catalog.vertices}
    matches, flags = [], []
    for ref in reference:
        name = ref["vertex"]
        got = rows.get(name)
        if got is None:
            flags.append({"vertex": name, "reason": "rule absent"})
            continue
        if (got["coefficient"] == ref["coefficient"]
                and got["shifts"] == ref["shifts"]):
            matches.append(name)
            continue
        flag = {
            "vertex": name,
            "computed": {"coefficient": got["coefficient"],
                         "shifts": got["shifts"]},
            "reference": {"coefficient": ref["coefficient"],
                          "shifts": ref["shifts"]},
        }
        rule = rules[name]
        qb = catalog.qb
        if qb.nvars == 1 and rule.kind == "C":
            # the reference shift pattern h -> l with e emissions pins the
            # degree of the coefficient polynomial in the graded case
            degs = {l - h + emit * qb.mu for h, (l, emit) in ref["shifts"].items()}
            if len(degs) == 1:
                m = degs.pop()
                if m >= 0:
                    cand = Polynomial.monomial(1, (m,), ref["coefficient"])
                    flag["implied_poly"] = str(cand)
                    flag["implied_poly_identity_ok"] = _identity_with(
                        catalog, rule, cand
                    )
        flags.append(flag)
    return {"matches": matches, "flags": flags}


def _identity_with(catalog, rule, candidate):
    """Re-check sum_i (F_ki g_i + G_ki f_i) = t_k with the polynomial of
    one C-type rule replaced by a candidate."""
    a = catalog.arena
    kind, k, idx = rule.source[:3]
    if catalog.presentation == "nu":
        hom, obj = a.homY, a.Y
    else:
        hom, obj = a.homX, a.X
    F, G = list(hom.F[k]), list(hom.G[k])
    if kind in ("F", "F2"):
        F[idx] = candidate
    elif kind == "G":
        G[idx] = candidate
    try:
        check_homotopies(obj, HomotopySet([F], [G]), [catalog.qb.tseq[k]])
    except HomotopyIdentityFailed:
        return False
    return True


def test_second_arena_and_catalog_expand_nothing(monkeypatch):
    # the t-adic columns are kept by the quotient basis: once one arena
    # has read them, a second arena on the same objects and a vertex
    # catalog after it expand no polynomial again
    calls = []
    original = quotient.t_adic_expand

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(quotient, "t_adic_expand", counted)
    m = worked_model(cap=3)
    X, Y = m.objects
    hom = m.homotopies
    Arena(X, Y, m.qb, 3, hom[0], hom[1])
    assert calls
    calls.clear()
    arena = Arena(X, Y, m.qb, 3, hom[0], hom[1])
    VertexCatalog(arena)
    assert not calls
