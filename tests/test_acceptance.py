"""Acceptance checks, one test per criterion.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line
per criterion.  Everything here is exact rational arithmetic; no check
uses tolerances.  Each test also prints its own verdict line for `-s`
runs.
"""

import random
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import comb

from ainfmf.ainfmodel import Model, cohomology, induced_map, \
    kstab_minimal
from ainfmf.linalg import mat_mul
from ainfmf.mfcat import HomotopySet, KoszulFactorisation
from ainfmf.normalorder import FeynmanBackend, VertexCatalog
from ainfmf.poly import Polynomial, parse_poly
from ainfmf.quotient import GammaTensor, QuotientBasis
from ainfmf.treealg import enumerate_binary, mirror_eval, mirror_sign

from test_ainfmodel import ModelDecoration
from test_normalorder import REF_XX, REF_XY, REF_YY, catalog_diff, \
    evaluate_summand, z_factor_sym
from test_quotient import dt_of_polynomial, euler_idempotent, gamma
from test_treealg import ToyDecoration, denote


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


def clean(state):
    return {k: v for k, v in state.items() if v}


def verdict(n, label):
    print("criterion %2d: pass - %s" % (n, label))


def test_criterion_01_single_summand_value():
    # one literal operator word of the three-input sample computation,
    # evaluated against its printed value -12/25
    m = worked_model(cap=3)
    path = (0, 0, 1, 1)
    inputs = [
        {(2, 2, (0,)): Fraction(1)},
        {(6, 1, (0,)): Fraction(1)},
        {(4, 3, (0,)): Fraction(1)},
    ]
    edge_ops = ["z1", "eta*", "theta*", "zeta", "theta", "dt", "eta", "t",
                "z3*", "theta*"]
    leaf2_ops = ["zeta", "theta", "z1*", "xibar*"]
    leaf1_ops = ["z1", "xibar", "theta*", "zeta", "theta", "xi*", "z2*"]
    word = ("node", ["pi"],
            ("node", edge_ops, ("leaf", 3, []), ("leaf", 2, leaf2_ops)),
            ("leaf", 1, leaf1_ops))
    tau = (4, 2, (0,))
    got = evaluate_summand(m, path, word, inputs, tau,
                           prefactor=Fraction(-12, 25))
    assert got == Fraction(-12, 25)
    # the bare word contributes exactly one unit of tau
    assert evaluate_summand(m, path, word, inputs, tau) == 1
    verdict(1, "literal summand evaluates to -12/25")


def test_criterion_02_gamma_closed_form():
    # multiplication tensor of Q[x]/(x^4) against its closed form,
    # all 4 x 4 x (4 x 2) entries
    qb = QuotientBasis([parse_poly("x1^4", 1)])
    g = GammaTensor(qb, 2)
    for m in range(4):
        for h in range(4):
            for l in range(4):
                for beta in ((0,), (1,)):
                    expected = Fraction(0)
                    if m + h <= 3 and l == m + h and beta == (0,):
                        expected = Fraction(1)
                    if m + h > 3 and l == m + h - 4 and beta == (1,):
                        expected = Fraction(1)
                    assert gamma(g, m, h, l, beta) == expected, (m, h, l, beta)
    verdict(2, "gamma tensor matches its closed form on all entries")


def test_criterion_03_vertex_catalog_vs_reference():
    # the derived vertex coefficients reproduce the reference tables
    # (+1, +1/5, -1, +3, +2/5, +2, +3/5) and shift patterns; the three
    # rows whose reference polynomial is the degree-one 3*x1 instead of
    # the derivative 3*x1^2 are flagged, not silently accepted
    m = worked_model(cap=3)
    diff_xy = catalog_diff(VertexCatalog(m.pair(0, 1).arena), REF_XY)
    assert sorted(diff_xy["matches"]) == ["A.1", "A.2", "A.3", "A.4", "C.2"]
    assert [f["vertex"] for f in diff_xy["flags"]] == ["C.1"]
    diff_xx = catalog_diff(VertexCatalog(m.pair(0, 0).arena), REF_XX)
    assert sorted(diff_xx["matches"]) == ["A.1", "A.4", "C.1", "C.2", "C.3"]
    assert diff_xx["flags"] == []
    diff_yy = catalog_diff(VertexCatalog(m.pair(1, 1).arena), REF_YY)
    assert sorted(diff_yy["matches"]) == ["A.1", "A.4", "C.2"]
    assert [f["vertex"] for f in diff_yy["flags"]] == ["C.1", "C.3"]
    for fl in diff_xy["flags"] + diff_yy["flags"]:
        assert fl["computed"]["coefficient"] == fl["reference"]["coefficient"]
        assert fl["implied_poly"] == "3*x1"
        assert fl["implied_poly_identity_ok"] is False
    verdict(3, "vertex catalog matches reference tables, discrepancy flagged")


def test_criterion_04_dt_connection():
    qb = QuotientBasis([parse_poly("x1^4", 1)])
    got = dt_of_polynomial(parse_poly("x1^2 + x1^5", 1), qb, 0)
    assert got == parse_poly("x1", 1)
    verdict(4, "d/dt (x^2 + x^5) = x over Q[x]/(x^4)")


def test_criterion_05_propagator_scalar_closed_form():
    # Z(0; d_1..d_m) = 1 / prod(d_i), exhaustively for m <= 5, d_i <= 6;
    # the symmetrised scalar is invariant under permuting the degrees by
    # construction, so multisets cover all orderings
    for m in range(1, 6):
        for ds in combinations_with_replacement(range(1, 7), m):
            prod_d = 1
            for d in ds:
                prod_d *= d
            assert z_factor_sym(0, ds) == Fraction(1, prod_d), ds
    verdict(5, "symmetrised propagator scalar equals 1/prod(d_i)")


def test_criterion_06_ainf_relations():
    # forms of the higher-product relations up to level 3 on the
    # two-object sample model (all object paths), and level 4 on the
    # single-object stabilised residue field
    m = worked_model(cap=2)
    report = m.verify_ainf(3)
    assert report["ok"], report["failures"][:1]
    assert report["checked"] > 0
    mk = kstab_model(cap=3)
    report4 = mk.verify_ainf(4)
    assert report4["ok"], report4["failures"][:1]
    verdict(6, "higher-product relations hold (level 3 worked, level 4 kstab)")


def test_criterion_07_sdr_identities():
    # the deformation-retract identities on every pair of the worked
    # model and on the stabilised residue field, inside the margin where
    # the cap cannot truncate
    m = worked_model(cap=3)
    for s in range(2):
        for t in range(2):
            rep = m.pair(s, t).arena.sdr_verify()
            assert all(v.get("ok") for v in rep["identities"].values()), (s, t)
            assert rep["checked"] > 0
    mk = kstab_model(cap=4)
    rep = mk.pair(0, 0).arena.sdr_verify(margin=2)
    assert all(v.get("ok") for v in rep["identities"].values())
    verdict(7, "retract identities verified on all pairs")


def test_criterion_08_dual_backend_coefficients():
    # tree coefficients from the normal-ordering backend against the
    # operator backend: exhaustive over every tree with k <= 4 leaves and
    # every input tuple on the stabilised residue field of x^3, plus the
    # printed k = 3 sample computation
    m = kstab_model(cap=4)
    backend = FeynmanBackend(m)
    core = m.pair(0, 0).arena.core_basis()
    taus = [k for k in m.pair(0, 0).arena.space.basis() if sum(k[2]) <= 2]
    for k in (2, 3, 4):
        path = (0,) * (k + 1)
        for combo in product(core, repeat=k):
            inputs = [{key: Fraction(1)} for key in combo]
            in_map = {i + 1: inputs[i] for i in range(k)}
            dec = ModelDecoration(m, path, inputs)
            for T in enumerate_binary(k):
                want = mirror_eval(T, dec, in_map)
                for tau in taus:
                    got = backend.c_tau(T, path, combo, tau)
                    assert got == want.get(tau, 0), (T, combo, tau)
    # the k = 3 sample: full coefficient of the right comb is 126/125
    mw = worked_model(cap=3)
    bw = FeynmanBackend(mw)
    path = (0, 0, 1, 1)
    combo = ((2, 2, (0,)), (6, 1, (0,)), (4, 3, (0,)))
    assert bw.c_tau((1, (2, 3)), path, combo, (4, 3, (0,))) == \
        Fraction(126, 125)
    inputs = [{key: Fraction(1)} for key in combo]
    dec = ModelDecoration(mw, path, inputs)
    want = mirror_eval((1, (2, 3)), dec, {i + 1: inputs[i] for i in range(3)})
    assert clean(want)[(4, 3, (0,))] == Fraction(126, 125)
    verdict(8, "both backends agree on all tree coefficients")


def test_criterion_09_idempotent_and_clifford():
    # on cohomology: E1 is idempotent and factors as
    # gamma_n ... gamma_1 gamma_1^dagger ... gamma_n^dagger with
    # gamma_i the class of At_i; on the stabilised residue field gamma
    # acts as -xi* and the image of E1 is the span of the xibar monomials
    m = worked_model(cap=3)
    for s in range(2):
        for t in range(2):
            coh = cohomology(m, (s, t))
            cliff = m.e1_and_clifford((s, t))
            e1 = induced_map(coh, cliff["E1"])
            assert mat_mul(e1, e1) == e1, (s, t)
            gammas = [induced_map(coh, g) for g in cliff["gamma"]]
            assert gammas == [induced_map(coh, g) for g in cliff["At"]]
            prod = None
            for g in reversed(gammas):
                prod = g if prod is None else mat_mul(prod, g)
            for d in [induced_map(coh, g) for g in cliff["dagger"]]:
                prod = mat_mul(prod, d)
            assert prod == e1, (s, t)
    mk = kstab_model(cap=3)
    pd = mk.pair(0, 0)
    cliff = mk.e1_and_clifford((0, 0))
    xi_pos = pd.arena.space.gen_pos("xi", 0)
    for key in pd.arena.core_basis():
        mask, h, delta = key
        expect = {}
        if mask >> xi_pos & 1:
            below = bin(mask & ((1 << xi_pos) - 1)).count("1")
            expect = {(mask & ~(1 << xi_pos), h, delta):
                      Fraction(1 if below & 1 else -1)}
        assert clean(cliff["gamma"][0].get(key, {})) == expect
        # E1 projects onto the xibar monomials
        got = clean(cliff["E1"].get(key, {}))
        if mask >> xi_pos & 1:
            assert got == {}
        else:
            assert got == {key: Fraction(1)}
    verdict(9, "E1 idempotent and Clifford-factorised on cohomology")


def test_criterion_10_minimal_model_of_residue_field():
    # the minimal model of the stabilised residue field of x^3: the
    # joint kernel is the exterior algebra on xibar, it is closed under
    # rho_j for j <= 4, rho_1 vanishes on it, and
    # rho_3(xibar, xibar, xibar) = +1 times the unit
    m = kstab_model(cap=4)
    result = kstab_minimal(m, 0, [parse_poly("x1^2", 1)], level=4)
    assert result["rho1_zero"]
    assert result["closed"], result.get("witness")
    assert len(result["kernel"]) == 2
    pd = m.pair(0, 0)
    xi_pos = pd.arena.space.gen_pos("xi", 0)
    for st in result["kernel"]:
        for (mask, h, delta) in st:
            assert not mask >> xi_pos & 1
    xibar_pos = pd.arena.space.gen_pos("xibar", 0)
    one = {(0, 0, (0,)): Fraction(1)}
    xibar = {(1 << xibar_pos, 0, (0,)): Fraction(1)}
    # rho_2 restricted to the kernel is the exterior product up to the
    # suspended-sign unit conventions; the square of the odd generator
    # vanishes and its Clifford defect is carried by rho_3 below
    r2 = lambda a, b: clean(m.rho_apply(2, (0, 0, 0), [a, b]))
    assert r2(one, one) == {(0, 0, (0,)): Fraction(-1)}
    assert r2(one, xibar) == {(1 << xibar_pos, 0, (0,)): Fraction(-1)}
    assert r2(xibar, one) == {(1 << xibar_pos, 0, (0,)): Fraction(1)}
    assert r2(xibar, xibar) == {}
    out = clean(m.rho_apply(3, (0, 0, 0, 0), [xibar, xibar, xibar]))
    assert out == {(0, 0, (0,)): Fraction(1)}
    verdict(10, "minimal model closed, rho_1 = 0, rho_3(xibar^3) = unit")


def test_criterion_11_tree_enumeration_and_mirror_sign():
    # Catalan counts for the tree enumeration, and the two evaluation
    # orders differ by exactly the mirror sign for k <= 5 over 100
    # random parity assignments
    for k in range(2, 9):
        trees = enumerate_binary(k)
        assert len(trees) == comb(2 * (k - 1), k - 1) // k
        assert len(set(trees)) == len(trees)
    rng = random.Random(41)
    checked = 0
    while checked < 100:
        k = rng.randint(2, 5)
        ngen = 2 * k
        edge_gen = 1 << (ngen - 1)
        parities = {}
        inputs = {}
        used = 0
        for i in range(1, k + 1):
            mask = 0
            if rng.randint(0, 1):
                mask = 1 << used
                used += 1
            inputs[i] = {mask: Fraction(rng.randint(1, 5))}
            parities[i] = (bin(mask).count("1") & 1) ^ 1
        dec = ToyDecoration(ngen, edge_gen, parities)
        for t in enumerate_binary(k):
            lhs = denote(t, dec, inputs)
            s = mirror_sign(t, parities)
            rhs = {k2: v * s for k2, v in mirror_eval(t, dec, inputs).items()}
            assert lhs == rhs, (t, parities)
        checked += 1
    verdict(11, "Catalan counts and mirror-sign duality hold")


def test_criterion_12_euler_idempotent():
    # on every basis state of Q[x]/(x^4) tensor Q[t] up to t-degree 3 the
    # Euler operator composite is the identity minus the t-degree-0 part,
    # and it is idempotent
    qb = QuotientBasis([parse_poly("x1^4", 1)])
    for h in range(4):
        for d in range(4):
            state = {(h, (d,)): Fraction(1)}
            out = euler_idempotent(qb, state)
            if d == 0:
                assert out == {}
            else:
                assert out == state
            assert euler_idempotent(qb, out) == out
    # and on a mixed state the t-degree-0 part is removed in one pass
    mixed = {(0, (0,)): Fraction(3), (2, (1,)): Fraction(-1, 2),
             (3, (3,)): Fraction(7, 3)}
    out = euler_idempotent(qb, mixed)
    assert out == {(2, (1,)): Fraction(-1, 2), (3, (3,)): Fraction(7, 3)}
    assert euler_idempotent(qb, out) == out
    verdict(12, "Euler composite removes exactly the t-degree-0 part")
