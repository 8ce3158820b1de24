import random
from fractions import Fraction
from itertools import product
from math import comb

import pytest

from ainfmf import ainfmodel
from ainfmf.ainfmodel import (
    Model,
    RhoTable,
    cohomology,
    induced_map,
    kstab_minimal,
)
from ainfmf.mfcat import HomotopySet, KoszulFactorisation
from ainfmf.poly import Polynomial, parse_poly
from ainfmf.quotient import QuotientBasis
from ainfmf.superspace import (
    add_into,
    rational_state,
    scaled_state,
    state_parity,
)
from ainfmf.treealg import enumerate_binary

from test_treealg import denote


def compose_colmaps(a, b):
    """Column map of a after b."""
    out = {}
    for key, col in b.items():
        acc = {}
        for kmid, c in col.items():
            for k2, c2 in a.get(kmid, {}).items():
                add_into(acc, k2, c * c2)
        if acc:
            out[key] = acc
    return out


def unit_state(m, idx):
    """1 tensor z_1 tensor id, the strict unit of (idx, idx)."""
    pd = m.pair(idx, idx)
    dim = 1 << m.objects[idx].r
    ext = pd.from_matrix({(e, e): Fraction(1) for e in range(dim)})
    zero = (0,) * m.qb.n
    return {(pd.ext_mask(e), 0, zero): c for e, c in ext.items()}


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


def mu2(m, a, pair_a, b, pair_b):
    """mu2_transported on states of Fraction coefficients."""
    return rational_state(
        m.mu2_transported(scaled_state(a), pair_a, scaled_state(b), pair_b))


def r2_states(m, s1, pair_1, s2, pair_2):
    """The suspended binary product on scaled states, one product at a
    time: s1 earlier (pair_1 = (src, mid)), s2 later (pair_2 = (mid,
    tgt))."""
    if not s1[0] or not s2[0]:
        return {}, 1
    t1 = state_parity(s1[0]) ^ 1
    t2 = state_parity(s2[0]) ^ 1
    out = m.mu2_transported(s2, pair_2, s1, pair_1)
    if (t1 & t2) ^ t2 ^ 1:
        out = {k: -v for k, v in out[0].items()}, out[1]
    return out


class ModelDecoration:
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
        return r2_states(self.model, s1, (self.path[lo - 1], self.path[mid]),
                         s2, (self.path[mid], self.path[hi]))

    def mu2(self, lo, mid, hi, a, b):
        return self.model.mu2_transported(
            a, (self.path[mid], self.path[hi]),
            b, (self.path[lo - 1], self.path[mid]))

    def root(self, state):
        arena = self.model.pair(self.path[0], self.path[-1]).arena
        return rational_state(arena.Phi.apply(state))


def rho_denote(m, k, path, inputs):
    """Reference evaluation of rho_k (k >= 2) through the general
    sign-carrying tree denotation, one tree at a time."""
    path = tuple(path)
    dec = ModelDecoration(m, path, inputs)
    in_map = {i + 1: inputs[i] for i in range(k)}
    acc = {}
    sign = Fraction((-1) ** k)
    for T in enumerate_binary(k):
        for kk, v in denote(T, dec, in_map).items():
            add_into(acc, kk, v * sign)
    return acc


def apply(op, state):
    return rational_state(op.apply(scaled_state(state)))


def sub_states(a, b):
    out = dict(a)
    for k, v in b.items():
        add_into(out, k, -v)
    return out


def test_mu2_unit():
    m = worked_model(cap=3)
    for src, tgt in [(0, 1), (0, 0), (1, 1)]:
        u_t = unit_state(m, tgt)
        u_s = unit_state(m, src)
        for key in m.pair(src, tgt).arena.core_basis():
            beta = {key: Fraction(1)}
            left = mu2(m, u_t, (tgt, tgt), beta, (src, tgt))
            right = mu2(m, beta, (src, tgt), u_s, (src, src))
            assert left == beta
            assert right == beta


def test_mu2_leibniz():
    # d(a b) = d(a) b + (-1)^{|a|} a d(b), on low t-degree basis states so
    # the cap never truncates
    m = worked_model(cap=4)
    for src, mid, tgt in [(0, 1, 0), (0, 0, 1), (1, 0, 0)]:
        pa = m.pair(mid, tgt)
        pb = m.pair(src, mid)
        pc_key = (src, tgt)
        da = pa.arena.d_A
        db = pb.arena.d_A
        dc = m.pair(*pc_key).arena.d_A
        keys_a = [k for k in pa.arena.space.basis() if sum(k[2]) == 0]
        keys_b = [k for k in pb.arena.space.basis() if sum(k[2]) == 0]
        rng = random.Random(5)
        for _ in range(30):
            ka = rng.choice(keys_a)
            kb = rng.choice(keys_b)
            a = {ka: Fraction(1)}
            b = {kb: Fraction(1)}
            lhs = apply(dc, mu2(m, a, (mid, tgt), b, (src, mid)))
            rhs = mu2(m, apply(da, a), (mid, tgt), b, (src, mid))
            sign = -1 if bin(ka[0]).count("1") & 1 else 1
            term = mu2(m, a, (mid, tgt), apply(db, b), (src, mid))
            for k, v in term.items():
                add_into(rhs, k, v * sign)
            assert not {k: v for k, v in sub_states(lhs, rhs).items() if v}


def test_mu2_associative():
    m = worked_model(cap=4)
    path = (0, 1, 0, 1)
    pa = m.pair(path[2], path[3])
    pb = m.pair(path[1], path[2])
    pc = m.pair(path[0], path[1])
    rng = random.Random(11)
    for _ in range(25):
        a = {rng.choice(pa.arena.core_basis()): Fraction(1)}
        b = {rng.choice(pb.arena.core_basis()): Fraction(1)}
        c = {rng.choice(pc.arena.core_basis()): Fraction(1)}
        ab = mu2(m, a, (path[2], path[3]), b, (path[1], path[2]))
        bc = mu2(m, b, (path[1], path[2]), c, (path[0], path[1]))
        lhs = mu2(m, ab, (path[1], path[3]), c, (path[0], path[1]))
        rhs = mu2(m, a, (path[2], path[3]), bc, (path[0], path[2]))
        assert lhs == rhs


def test_r2_unit_conventions():
    # r2(u, x) = -x and r2(x, u) = (-1)^{x~} x
    m = worked_model(cap=3)
    for src, tgt in [(0, 1), (0, 0)]:
        u_s = unit_state(m, src)
        u_t = unit_state(m, tgt)
        for key in m.pair(src, tgt).arena.core_basis():
            x = {key: Fraction(1)}
            left = m.rho_apply(2, (src, src, tgt), [u_s, x])
            assert left == {key: Fraction(-1)}
            right = m.rho_apply(2, (src, tgt, tgt), [x, u_t])
            sign = m.tilde(key)
            expect = {key: Fraction(-1 if sign else 1)}
            assert right == expect


def test_rho_table_matches_denotation():
    m = worked_model(cap=2)
    path = (0, 1, 0)
    table = m.rho_table(2, path)
    cores = [m.pair(0, 1).arena.core_basis(), m.pair(1, 0).arena.core_basis()]
    rng = random.Random(3)
    for _ in range(20):
        combo = (rng.choice(cores[0]), rng.choice(cores[1]))
        got = table.get(combo, {})
        ref = rho_denote(m, 2, path, [{k: Fraction(1)} for k in combo])
        assert got == {k: v for k, v in ref.items() if v}
    path3 = (0, 1, 1, 0)
    table3 = m.rho_table(3, path3)
    cores3 = [m.pair(path3[i], path3[i + 1]).arena.core_basis()
              for i in range(3)]
    for _ in range(10):
        combo = tuple(rng.choice(c) for c in cores3)
        got = table3.get(combo, {})
        ref = rho_denote(m, 3, path3, [{k: Fraction(1)} for k in combo])
        assert got == {k: v for k, v in ref.items() if v}
    # a stored table holds no empty state and no zero coefficient, so
    # the rho command reports its entries as they are
    for key in [(1, (0, 1)), (2, path), (3, path3)]:
        stored = m._table(*key)
        assert stored and all(st and all(st.values())
                              for st in stored.values())


def _span_sums_against_denotation(m, k, path, per_slot):
    # per_slot core keys in each slot, sampled with the slot as seed
    samples = [
        random.Random(i).sample(
            m.pair(path[i], path[i + 1]).arena.core_basis(), per_slot)
        for i in range(k)
    ]
    slots = [[(key, {key: Fraction(1)}) for key in keys] for keys in samples]
    sums = m.rho_span_sums(k, path, slots)
    for combo in product(*samples):
        ref = rho_denote(m, k, path, [{key: Fraction(1)} for key in combo])
        assert sums.get(combo, {}) == {kk: v for kk, v in ref.items() if v}
    return sums


@pytest.mark.parametrize("path", [(0, 1, 0, 1, 0), (0, 0, 1, 1, 0),
                                  (1, 0, 1, 0, 1)])
def test_span_sums_match_denotation_k4(path):
    m = worked_model(cap=2)
    sums = _span_sums_against_denotation(m, 4, path, 3)
    assert len(sums) >= 10


@pytest.mark.parametrize("path", [(0, 1, 0, 1, 0, 1), (0, 0, 1, 1, 0, 0),
                                  (1, 0, 1, 0, 1, 0)])
def test_span_sums_match_denotation_k5(path):
    m = worked_model(cap=3)
    sums = _span_sums_against_denotation(m, 5, path, 2)
    assert sums


def _basis_slots(m, path):
    return [[(key, {key: Fraction(1)})
             for key in m.pair(path[i], path[i + 1]).arena.core_basis()]
            for i in range(len(path) - 1)]


@pytest.mark.parametrize("path", [(0, 1, 0, 1), (1, 1, 0, 1),
                                  (0, 1, 1, 0, 1)])
def test_tables_from_shared_span_tables(path):
    # other paths fill the span tables kept per sub-path first; the
    # table built from them is a fresh model's table, and the span sums
    # on the basis slots, which build their own span tables
    k = len(path) - 1
    m = worked_model(cap=2)
    for other in [(1, 0, 1, 1), (0, 1, 0, 0), (1, 1, 0, 1, 1)]:
        m._table(len(other) - 1, other)
    assert path[:3] in m._spans and path[-3:] in m._spans
    table = m.rho_table(k, path)
    assert table == worked_model(cap=2).rho_table(k, path)
    assert table == m.rho_span_sums(k, path, _basis_slots(m, path))


def test_span_sums_on_states_ignore_the_span_tables_kept():
    # rho_span_sums on kernel states gives the same with the model's
    # span tables filled as on a fresh model
    m = kstab_model(cap=4)
    kernel = kstab_minimal(m, 0, [parse_poly("x1^2", 1)], level=2)["kernel"]
    slot = list(enumerate(kernel))
    fresh = kstab_model(cap=4)
    for k in (3, 4):
        m._table(k, (0,) * (k + 1))
    assert m._spans
    sums = {k: m.rho_span_sums(k, (0,) * (k + 1), [slot] * k)
            for k in (2, 3, 4)}
    assert sums == {k: fresh.rho_span_sums(k, (0,) * (k + 1), [slot] * k)
                    for k in (2, 3, 4)}
    # rho_3 is non-zero on one triple of kernel states
    assert len(sums[3]) == 1


def test_span_tables_are_kept_apart_from_the_rho_tables():
    # verify_ainf(3) stores 28 rho tables, and one span table per pair
    # and per sub-path of three objects
    m = worked_model(cap=2)
    assert m.verify_ainf(3)["ok"]
    assert len(m._tables) == 28
    assert all(isinstance(t, RhoTable) for t in m._tables.values())
    assert sorted(map(len, m._spans)) == [2] * 4 + [3] * 8


def test_rho1_squares_to_zero():
    m = worked_model(cap=3)
    for src in range(2):
        for tgt in range(2):
            for key in m.pair(src, tgt).arena.core_basis():
                once = m.rho1_apply((src, tgt), ({key: 1}, 1))
                twice = m.rho1_apply((src, tgt), once)
                assert twice == ({}, 1)


def test_strict_unitality_higher():
    # rho_3 vanishes whenever one input is a unit
    m = worked_model(cap=2)
    rng = random.Random(9)
    for slot in range(3):
        path = [0, 1, 1, 0]
        if slot == 0:
            path = [0, 0, 1, 0]
        elif slot == 1:
            path = [0, 1, 1, 0]
        else:
            path = [0, 1, 0, 0]
        pairs = [(path[i], path[i + 1]) for i in range(3)]
        for _ in range(10):
            inputs = []
            for i, p in enumerate(pairs):
                if i == slot:
                    inputs.append(unit_state(m, p[0]))
                else:
                    inputs.append(
                        {rng.choice(m.pair(*p).arena.core_basis()):
                         Fraction(1)}
                    )
            out = m.rho_apply(3, tuple(path), inputs)
            assert not {k: v for k, v in out.items() if v}


def test_verify_ainf_level_two():
    m = worked_model(cap=2)
    report = m.verify_ainf(2)
    assert report["ok"], report["failures"][:1]


# A per-tuple reference for the relation checker: each term of a relation
# is evaluated by pushing singleton states through rho_apply.


def _ref_r_defect(m, n, path, combo):
    total = {}
    tildes = [m.tilde(k) for k in combo]
    for j in range(1, n + 1):
        for i in range(0, n - j + 1):
            inner = m.rho_apply(
                j, path[i : i + j + 1],
                [{combo[l]: Fraction(1)} for l in range(i, i + j)])
            if not inner:
                continue
            sign = -1 if sum(tildes[:i]) & 1 else 1
            outer_inputs = (
                [{combo[l]: Fraction(1)} for l in range(i)]
                + [inner]
                + [{combo[l]: Fraction(1)} for l in range(i + j, n)]
            )
            out = m.rho_apply(n - j + 1, path[: i + 1] + path[i + j :],
                              outer_inputs)
            for kk, v in out.items():
                add_into(total, kk, v * sign)
    return total


def _ref_mu_eval(m, args_desc, path):
    # the unsuspended product on a descending argument list, by the
    # standard conversion sign from the suspended one
    n = len(args_desc)
    forward = list(reversed(args_desc))
    tildes = [state_parity(s) ^ 1 for s in forward]
    exp = comb(n, 2)
    for i in range(n):
        for j in range(i + 1, n):
            exp += tildes[n - 1 - i] * tildes[n - 1 - j]
        exp += (n - 1 - i) * tildes[n - 1 - i]
    out = m.rho_apply(n, path, forward)
    if exp & 1:
        out = {k: -v for k, v in out.items()}
    return out


def _ref_mu_defect(m, n, path, combo):
    total = {}
    states = [{k: Fraction(1)} for k in combo]
    parities = [bin(k[0]).count("1") & 1 for k in combo]
    for j in range(1, n + 1):
        for i in range(0, n - j + 1):
            inner_desc = [states[l - 1] for l in range(i + j, i, -1)]
            inner = _ref_mu_eval(m, inner_desc, path[i : i + j + 1])
            if not inner:
                continue
            outer_desc = (
                [states[l - 1] for l in range(n, i + j, -1)]
                + [inner]
                + [states[l - 1] for l in range(i, 0, -1)]
            )
            out = _ref_mu_eval(m, outer_desc, path[: i + 1] + path[i + j :])
            crossed = j * sum(parities[i + j :])
            sign = -1 if (i * j + i + j + n + crossed) & 1 else 1
            for kk, v in out.items():
                add_into(total, kk, v * sign)
    return total


def _ref_failures(m, paths):
    failures = []
    for path in sorted(paths, key=len):
        n = len(path) - 1
        cores = [m.pair(path[i], path[i + 1]).arena.core_basis()
                 for i in range(n)]
        for combo in product(*cores):
            for form, defect in (("r", _ref_r_defect), ("mu", _ref_mu_defect)):
                d = defect(m, n, path, combo)
                if d:
                    failures.append({"form": form, "level": n, "path": path,
                                     "inputs": combo, "defect": d})
    return failures


def inject(m, k, path, fault):
    """Apply fault to the Fraction view of the stored rho_k table and
    store the faulted table in its place."""
    table = m.rho_table(k, path)
    fault(table)
    m._tables[(k, path)] = RhoTable(
        {tup: scaled_state(st) for tup, st in table.items()})


def test_verify_ainf_catches_injected_faults():
    m = worked_model(cap=2)

    # negate one rho_3 entry and shift one rho_2 entry by 1/7
    def negate(t3):
        combo3 = sorted(t3, key=str)[0]
        key3 = sorted(t3[combo3], key=str)[0]
        t3[combo3][key3] = -t3[combo3][key3]

    def shift(t2):
        combo2 = sorted(t2, key=str)[0]
        key2 = sorted(t2[combo2], key=str)[0]
        t2[combo2][key2] += Fraction(1, 7)

    inject(m, 3, (0, 1, 0, 1), negate)
    inject(m, 2, (0, 1, 0), shift)
    # every path on which a faulted table enters a relation of level <= 3
    # as the outer or the inner product, with the inner one at slot 0 and 1
    paths = [(0, 1), (0, 1, 0), (0, 1, 0, 1), (1, 0, 1, 0)]
    report = m.verify_ainf(3, object_paths=paths)
    expect = _ref_failures(m, paths)
    assert {f["form"] for f in expect} == {"r", "mu"}
    assert not report["ok"]
    assert report["failures"] == expect


def _merged(m, *reports):
    """The failures of single-form reports in the order verify_ainf
    reports both forms: by level, path and basis tuple, r before mu."""
    def rank(f):
        n, path = f["level"], f["path"]
        cores = [m.pair(path[i], path[i + 1]).arena.core_basis()
                 for i in range(n)]
        return (n, path, [c.index(k) for c, k in zip(cores, f["inputs"])],
                f["form"] == "mu")

    return sorted((f for rep in reports for f in rep["failures"]), key=rank)


def _record_sums(monkeypatch):
    """The (form, both) of every Model._defect_sums call, as they come."""
    calls = []
    sums = Model._defect_sums

    def defect_sums(self, n, terms, den, form, both):
        calls.append((form, both))
        return sums(self, n, terms, den, form, both)

    monkeypatch.setattr(Model, "_defect_sums", defect_sums)
    return calls


def test_verify_ainf_sums_mixed_ratios_again_in_mu_signs(monkeypatch):
    # with both forms the defects are summed once, in r signs; a wrong
    # conversion parity on the tildes (1, 0) gives some tuples terms of
    # mixed mu/r sign ratio, and those paths are summed again in mu signs
    original = ainfmodel._conversion_parity
    monkeypatch.setattr(ainfmodel, "_conversion_parity",
                        lambda tl: original(tl) ^ (tuple(tl) == (1, 0)))
    calls = _record_sums(monkeypatch)
    m = worked_model(cap=2)
    report = m.verify_ainf(3)
    assert ("mu", False) in calls
    assert {f["form"] for f in report["failures"]} == {"mu"}
    assert len(report["failures"]) == 8873
    assert report["failures"] == _merged(
        m, m.verify_ainf(3, forms=["r"]), m.verify_ainf(3, forms=["mu"]))


def test_verify_ainf_both_forms_merge_single_form_reports(monkeypatch):
    # under injected table faults, one run of both forms reports exactly
    # what one run of each form reports.  The faults keep every parity,
    # so every tuple's terms share one sign ratio: one sum per path
    def first_entry(table, change):
        combo = min(table, key=str)
        key = min(table[combo], key=str)
        table[combo][key] = change(table[combo][key])

    # the faults of test_verify_ainf_catches_injected_faults
    m = worked_model(cap=2)
    inject(m, 3, (0, 1, 0, 1), lambda t3: first_entry(t3, lambda v: -v))
    inject(m, 2, (0, 1, 0),
           lambda t2: first_entry(t2, lambda v: v + Fraction(1, 7)))
    paths = [(0, 1), (0, 1, 0), (0, 1, 0, 1), (1, 0, 1, 0)]
    calls = _record_sums(monkeypatch)
    both = m.verify_ainf(3, object_paths=paths)
    assert set(calls) == {("r", True)}
    assert {f["form"] for f in both["failures"]} == {"r", "mu"}
    assert both["failures"] == _merged(
        m, m.verify_ainf(3, object_paths=paths, forms=["r"]),
        m.verify_ainf(3, object_paths=paths, forms=["mu"]))


def test_verify_ainf_rejects_mixed_parity():
    # the unsuspended signs need a parity for each inner product
    m = worked_model(cap=2)

    def mix(t2):
        combo = sorted(t2, key=str)[0]
        mask, h, delta = sorted(t2[combo], key=str)[0]
        t2[combo][(mask ^ 1, h, delta)] = Fraction(1)

    inject(m, 2, (0, 1, 0), mix)
    with pytest.raises(ValueError, match="parity"):
        m.verify_ainf(2, object_paths=[(0, 1, 0)], forms=["mu"])


@pytest.mark.parametrize("level,forms", [
    (1, ("R",)),
    (1, ()),
    (1, ("r", "nu")),
    (0, ("r", "mu")),
    (True, ("r",)),
    (1, ("r", "r")),
    (2, ("mu", "r", "mu")),
])
def test_verify_ainf_rejects_bad_arguments(level, forms):
    # a form it does not know must not pass as a check of nothing
    m = kstab_model(cap=3)
    with pytest.raises(ValueError):
        m.verify_ainf(level, forms=forms)


def test_kstab_rho1_and_gamma():
    m = kstab_model(cap=3)
    pd = m.pair(0, 0)
    for key in pd.arena.core_basis():
        assert m.rho1_apply((0, 0), ({key: 1}, 1)) == ({}, 1)
    cliff = m.e1_and_clifford((0, 0))
    xi_pos = pd.arena.space.gen_pos("xi", 0)
    # gamma = -xi* exactly
    for key in pd.arena.core_basis():
        mask, h, delta = key
        expect = {}
        if mask >> xi_pos & 1:
            below = bin(mask & ((1 << xi_pos) - 1)).count("1")
            sign = -1 if below & 1 else 1
            expect = {(mask & ~(1 << xi_pos), h, delta): Fraction(-sign)}
        assert cliff["gamma"][0].get(key, {}) == expect
    # E1 is the projector onto states with no xi
    for key in pd.arena.core_basis():
        mask, h, delta = key
        got = cliff["E1"].get(key, {})
        if mask >> xi_pos & 1:
            assert got == {}
        else:
            assert got == {key: Fraction(1)}
    # E1 = gamma gamma^dagger on the nose here
    prod = compose_colmaps(cliff["gamma"][0], cliff["dagger"][0])
    for key in pd.arena.core_basis():
        assert prod.get(key, {}) == cliff["E1"].get(key, {})


def test_kstab_minimal_model():
    m = kstab_model(cap=3)
    w1 = parse_poly("x1^2", 1)
    result = kstab_minimal(m, 0, [w1], level=3)
    assert result["rho1_zero"]
    assert result["closed"], result["witness"]
    # the joint kernel is spanned by 1 and xibar
    pd = m.pair(0, 0)
    xi_pos = pd.arena.space.gen_pos("xi", 0)
    masks = set()
    for st in result["kernel"]:
        for (mask, h, delta) in st:
            assert not mask >> xi_pos & 1
            masks.add(mask)
    assert len(result["kernel"]) == 2
    # rho_3 on (xibar, xibar, xibar) is a nonzero multiple of the unit
    xibar_pos = pd.arena.space.gen_pos("xibar", 0)
    xibar = {(1 << xibar_pos, 0, (0,)): Fraction(1)}
    out = m.rho_apply(3, (0, 0, 0, 0), [xibar, xibar, xibar])
    out = {k: v for k, v in out.items() if v}
    assert list(out) == [(0, 0, (0,))]
    assert out[(0, 0, (0,))] != 0


def test_kstab_tables_match_rho_apply():
    # the span sums on kernel states equal the expansion over basis tables
    m = kstab_model(cap=4)
    result = kstab_minimal(m, 0, [parse_poly("x1^2", 1)], level=4)
    kernel = result["kernel"]
    nonzero = 0
    for j, table in result["tables"].items():
        assert set(table) == set(product(range(len(kernel)), repeat=j))
        for combo, out in table.items():
            ref = m.rho_apply(j, (0,) * (j + 1), [kernel[c] for c in combo])
            assert out == ref
            nonzero += bool(out)
    assert nonzero


def test_decomposition_validation():
    from ainfmf.ainfmodel import DecompositionInvalid

    m = kstab_model(cap=3)
    with pytest.raises(DecompositionInvalid):
        kstab_minimal(m, 0, [parse_poly("x1", 1)], level=2)


def test_cohomology_and_induced_maps():
    m = worked_model(cap=3)
    coh = cohomology(m, (0, 1))
    assert coh.dim == 8
    cliff = m.e1_and_clifford((0, 1))
    e1 = induced_map(coh, cliff["E1"])
    assert e1 is not None
    # idempotent on cohomology
    from ainfmf.linalg import mat_mul

    assert mat_mul(e1, e1) == e1
