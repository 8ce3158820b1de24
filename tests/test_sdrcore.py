from fractions import Fraction

import pytest

from ainfmf.mfcat import HomotopySet, default_homotopies, koszul_mf
from ainfmf.poly import Polynomial, parse_poly
from ainfmf.quotient import QuotientBasis, t_adic_expand
from ainfmf.sdrcore import Arena
from ainfmf.superspace import (LinearOp, ZeroVirtualDegree, graded_commutator,
                               rational_state, state_sum)
from test_superspace import (contract_op, from_rule, identity, is_zero,
                             wedge_op)


def image(op, key):
    """The image of a basis key with Fraction coefficients."""
    return rational_state(op.apply_key(key))


def derivative_arena(X, Y, qb, cap):
    """The arena of (X, Y) with the x_k-derivative homotopies, checked
    against the t-sequence of qb as a Model checks them."""
    homX = default_homotopies(X, qb.tseq)
    homY = homX if X is Y else default_homotopies(Y, qb.tseq)
    return Arena(X, Y, qb, cap, homX, homY)


def worked_arena(cap=4, presentation="nu"):
    W = parse_poly("1/5*x1^5", 1)
    X = koszul_mf([(parse_poly("x1^2", 1), parse_poly("1/5*x1^3", 1))], W, "X")
    Y = koszul_mf([(parse_poly("x1^3", 1), parse_poly("1/5*x1^2", 1))], W, "Y")
    qb = QuotientBasis([parse_poly("x1^4", 1)])
    # the presentation follows the pair: rho on Hom(X, X), nu otherwise
    if presentation == "rho":
        return derivative_arena(X, X, qb, cap)
    return derivative_arena(X, Y, qb, cap)


def kstab_arena(cap=3):
    # W = x^3 with the non-Jacobian sequence t = (x): pairs (x, x^2),
    # homotopy lambda = xi (F = 0, G = 1)
    W = parse_poly("x1^3", 1)
    X = koszul_mf([(parse_poly("x1", 1), parse_poly("x1^2", 1))], W, "kstab")
    qb = QuotientBasis([parse_poly("x1", 1)])
    one = Polynomial.const(1, 1)
    hom = HomotopySet(F=[[Polynomial.zero(1)]], G=[[one]])
    return Arena(X, X, qb, cap, homX=hom, homY=hom)


def twovar_arena(presentation, cap=2):
    # rank-two objects K = (x1, x1), (x2, x2) and L = (x1, x1), (-x2, -x2)
    # of W = x1^2 + x2^2: delta carries two thetas
    W = parse_poly("x1^2 + x2^2", 2)
    x1, x2 = parse_poly("x1", 2), parse_poly("x2", 2)
    K = koszul_mf([(x1, x1), (x2, x2)], W, "K")
    L = koszul_mf([(x1, x1), (-x2, -x2)], W, "L")
    qb = QuotientBasis([parse_poly("2*x1", 2), parse_poly("2*x2", 2)])
    return derivative_arena(K, K if presentation == "rho" else L, qb, cap)


def quadric3_arena(cap=2):
    # x1^2 + x2^2 + x3^2 with K = (x_i, x_i): delta^3 carries three thetas
    W = parse_poly("x1^2 + x2^2 + x3^2", 3)
    xs = [parse_poly("x%d" % i, 3) for i in (1, 2, 3)]
    K = koszul_mf([(x, x) for x in xs], W, "K")
    qb = QuotientBasis([parse_poly("2*x%d" % i, 3) for i in (1, 2, 3)])
    return derivative_arena(K, K, qb, cap)


def exact_expansion(r, qb):
    """The t-adic coefficients of r with the cap raised until they are
    exact, by its own loop over t_adic_expand, apart from the columns
    the arena reads."""
    cap = max(r.total_degree(), 1)
    for _ in range(12):
        exp = t_adic_expand(r, qb, cap)
        if exp.exact_beyond_cap:
            return exp.coefficients
        cap *= 2
    raise AssertionError("t-adic expansion did not terminate")


def composed_differentials(a):
    """Reference (d_A, delta): sums of the whole-basis operator r^# (the
    t-adic columns of r, cut at the cap) after whole-basis fermion
    operators, composed as LinearOps.  Returns the two operators and
    the largest t-degree in the columns of r."""
    sp, n = a.space, a.n
    tmax = [0]

    def mult_op(r):
        cols = [exact_expansion(r * a.qb.basis_poly(h), a.qb)
                for h in range(a.qb.mu)]
        for col in cols:
            for (_, d) in col:
                tmax[0] = max(tmax[0], sum(d))

        def rule(key):
            mask, h, delta = key
            out = {}
            for (l, d2), c in cols[h].items():
                nd = tuple(x + y for x, y in zip(delta, d2))
                if sum(nd) <= sp.cap:
                    out[(mask, l, nd)] = c
            return out

        return from_rule(sp, 0, rule)

    def fermion(move, family, i):
        op = wedge_op if move == "wedge" else contract_op
        return op(sp, sp.gen_pos(family, i))

    def total(degree, terms):
        acc = LinearOp(sp, degree)
        for sign, r, word in terms:
            if r:
                term = mult_op(r)
                for f in word:
                    term = term.compose(fermion(*f))
                acc = acc + term if sign > 0 else acc - term
        return acc

    d_terms, delta_terms = [], []
    if a.presentation == "nu":
        for j, (u, v) in enumerate(a.Y.pairs):
            d_terms += [(1, u, [("contract", "eta", j)]),
                        (1, v, [("wedge", "eta", j)])]
        for i, (f, g) in enumerate(a.X.pairs):
            d_terms += [(-1, f, [("wedge", "xibar", i)]),
                        (1, g, [("contract", "xibar", i)])]
        for k in range(n):
            tk = ("contract", "theta", k)
            for j in range(a.Y.r):
                delta_terms += [
                    (1, a.homY.F[k][j], [("contract", "eta", j), tk]),
                    (1, a.homY.G[k][j], [("wedge", "eta", j), tk])]
    else:
        for i, (f, g) in enumerate(a.X.pairs):
            d_terms += [(1, f, [("contract", "xi", i)]),
                        (1, g, [("contract", "xibar", i)])]
        for k in range(n):
            tk = ("contract", "theta", k)
            for i in range(a.X.r):
                F, G = a.homX.F[k][i], a.homX.G[k][i]
                delta_terms += [(1, F, [("contract", "xi", i), tk]),
                                (1, F, [("wedge", "xibar", i), tk]),
                                (1, G, [("wedge", "xi", i), tk])]
    return total(1, d_terms), total(0, delta_terms), tmax[0]


FIXTURES = [
    lambda: worked_arena(cap=4),
    lambda: worked_arena(cap=4, presentation="rho"),
    lambda: kstab_arena(cap=3),
    lambda: twovar_arena("rho"),
    lambda: twovar_arena("nu"),
]
FIXTURE_IDS = ["worked-nu", "worked-rho", "kstab", "twovar-rho", "twovar-nu"]


@pytest.mark.parametrize("make", FIXTURES, ids=FIXTURE_IDS)
def test_differentials_match_composed_reference(make):
    a = make()
    tdeg = a.table_max_tdeg
    d_A, delta, tmax = composed_differentials(a)
    assert (a.d_A.cols, a.d_A.den) == (d_A.cols, d_A.den)
    assert (a.delta.cols, a.delta.den) == (delta.cols, delta.den)
    assert a.d_A.degree == 1 and a.delta.degree == 0
    assert tdeg == tmax
    assert a.delta.cols and a.d_A.cols


def ref_exp_nilpotent(op, max_power):
    """Reference: sum of op^m / m! until the power vanishes, by whole
    operator compositions."""
    total = identity(op.space)
    power = op
    for m in range(2, max_power + 2):
        if is_zero(power):
            return total
        total = total + power
        power = op.compose(power).scaled(Fraction(1, m))
    raise ValueError("operator is not nilpotent within the bound")


def ref_perturbation_series(a, zeta_at, tail):
    """Reference: sum_m (-1)^m (zeta At)^m tail by whole operator
    compositions; the series stops at m = n and the m = n + 1 term is
    asserted to vanish."""
    total = tail
    term = tail
    sign = 1
    for m in range(1, a.n + 2):
        term = zeta_at.compose(term)
        sign = -sign
        if m <= a.n:
            total = total + term.scaled(sign)
        else:
            if not is_zero(term):
                raise ValueError("perturbation series failed to truncate")
    return total


def reference_operators(a):
    """The arena's operators rebuilt from the composed reference d_A and
    delta by whole-operator series and compositions."""
    d_A, delta, _ = composed_differentials(a)
    at = graded_commutator(d_A, a.nabla)
    zeta_at = a.zeta_after(at)
    ops = {
        "At": at,
        "e_delta": ref_exp_nilpotent(delta, a.n + 1),
        "e_minus_delta": ref_exp_nilpotent(delta.scaled(-1), a.n + 1),
        "sigma_infty": ref_perturbation_series(a, zeta_at, a.sigma),
        "phi_infty": ref_perturbation_series(a, zeta_at,
                                             a.zeta_after(a.nabla)),
    }
    ops["Phi"] = a.pi.compose(ops["e_minus_delta"])
    ops["Phi_inv"] = ops["e_delta"].compose(ops["sigma_infty"])
    ops["H_hat"] = ops["e_delta"].compose(ops["phi_infty"]).compose(
        ops["e_minus_delta"])
    return ops


@pytest.mark.parametrize("make", FIXTURES + [lambda: quadric3_arena(cap=2)],
                         ids=FIXTURE_IDS + ["quadric3"])
def test_operators_match_composed_reference(make):
    a = make()
    for name, ref in reference_operators(a).items():
        op = getattr(a, name)
        assert (op.cols, op.den, op.degree) == (ref.cols, ref.den,
                                                ref.degree), name
    # the top power m = n of the series is there: delta^n and
    # (zeta At)^n sigma do not vanish
    delta, zeta_at, sigma_top = a.delta, a.zeta_after(a.At), a.sigma
    delta_top = delta
    for _ in range(a.n):
        sigma_top = zeta_at.compose(sigma_top)
    for _ in range(a.n - 1):
        delta_top = delta.compose(delta_top)
    assert not is_zero(delta_top) and not is_zero(sigma_top)


ARENA_OPERATORS = ("d_A", "delta", "nabla", "At", "sigma", "pi", "e_delta",
                   "e_minus_delta", "sigma_infty", "phi_infty", "Phi",
                   "Phi_inv", "H_hat")


@pytest.mark.parametrize("make", FIXTURES + [lambda: quadric3_arena(cap=2)],
                         ids=FIXTURE_IDS + ["quadric3"])
def test_operators_share_the_space_keys(make):
    # one tuple per basis key: every column key and entry key of every
    # operator, the core basis and the test keys are the space's own
    a = make()
    basis = a.space.basis()
    assert isinstance(basis, tuple) and a.space.basis() is basis
    own = a.space.own_key
    assert len(own) == len(basis) and all(own[k] is k for k in basis)
    for name in ARENA_OPERATORS:
        for key, col in getattr(a, name).cols.items():
            assert own[key] is key, name
            assert all(own[k2] is k2 for k2 in col), name
    assert a.core_basis() is a.core_basis() and a.test_keys(2) is a.test_keys(2)
    assert all(own[k] is k for k in a.core_basis() + a.test_keys(2))


def test_h_hat_is_built_by_columns(monkeypatch):
    # an arena makes four compositions, the two of At, Phi and Phi_inv:
    # H_hat is none, and none of its columns holds a zero
    calls = []
    original = LinearOp.compose

    def counted(self, other):
        calls.append(1)
        return original(self, other)

    monkeypatch.setattr(LinearOp, "compose", counted)
    a = quadric3_arena(cap=2)
    assert len(calls) == 4
    assert a.H_hat.cols
    assert all(all(col.values()) for col in a.H_hat.cols.values())


def test_d_a_squares_to_zero_worked():
    a = worked_arena(cap=4)
    sq = a.d_A.compose(a.d_A)
    for key in a.test_keys(2):
        assert not image(sq, key)


def test_d_a_nu_term_structure():
    # on the t- and theta-degree-0 core, d_A^nu agrees with the closed
    # formula u eta* + v eta - f xibar + g xibar*
    a = worked_arena(cap=4)
    sp = a.space
    eta = sp.gen_pos("eta", 0)
    xibar = sp.gen_pos("xibar", 0)
    # apply to the core state z_1 (mask 0): only creation terms survive:
    # v eta (z-shift by x^2/5) and -f xibar (z-shift x^2)
    out = image(a.d_A, (0, 0, (0,)))
    assert out == {
        (1 << eta, 2, (0,)): Fraction(1, 5),
        (1 << xibar, 2, (0,)): Fraction(-1),
    }


def test_atiyah_raises_theta_degree():
    a = worked_arena(cap=4)
    sp = a.space
    for key, col in a.At.cols.items():
        tin = sp.virtual_degree(key) - sum(key[2])
        for k2 in col:
            tout = sp.virtual_degree(k2) - sum(k2[2])
            assert tout == tin + 1


def test_atiyah_is_closed():
    a = worked_arena(cap=4)
    comm = graded_commutator(a.d_A, a.At)
    for key in a.test_keys(2):
        assert not image(comm, key)


def test_zeta():
    a = worked_arena(cap=4)
    sp = a.space
    th = sp.gen_pos("theta", 0)
    k1, k3 = (1 << th, 0, (0,)), (1 << th, 0, (2,))

    def ident(keys):
        return from_rule(sp, 0, lambda key: {key: 1}, keys)

    z = a.zeta_after(ident([k1, k3]))
    assert image(z, k1) == {k1: Fraction(1)}
    assert image(z, k3) == {k3: Fraction(1, 3)}
    with pytest.raises(ZeroVirtualDegree):
        a.zeta_after(ident([(0, 0, (0,))]))


def test_pi_sigma_infty_is_identity_on_core():
    a = worked_arena(cap=4)
    for key in a.core_basis():
        out = a.pi.apply(a.sigma_infty.apply_key(key))
        assert rational_state(out) == {key: Fraction(1)}


def test_exponentials_inverse():
    a = worked_arena(cap=4)
    comp = a.e_delta.compose(a.e_minus_delta)
    for key in a.test_keys(2):
        assert image(comp, key) == {key: Fraction(1)}


def test_delta_conjugation_fixes_theta_star():
    # e^{-delta} theta* e^{delta} = theta*
    a = worked_arena(cap=4)
    th_star = contract_op(a.space, a.space.gen_pos("theta", 0))
    conj = a.e_minus_delta.compose(th_star).compose(a.e_delta)
    for key in a.test_keys(2):
        assert conj.apply_key(key) == th_star.apply_key(key)


def test_sdr_verify_worked_example():
    a = worked_arena(cap=4)
    report = a.sdr_verify(margin=2)
    assert all(v["ok"] for v in report["identities"].values())
    assert report["checked"] > 0


def test_sdr_verify_worked_example_rho():
    a = worked_arena(cap=4, presentation="rho")
    report = a.sdr_verify(margin=2)
    assert all(v["ok"] for v in report["identities"].values())


def reference_sdr_report(a, margin):
    """Reference sdr_verify: each identity checked on its own, key by
    key, as a reduced scaled state made by apply, apply_key and
    state_sum."""
    keys = a.test_keys(margin)
    core = [k for k in keys if a.is_core_key(k)]
    Phi, Phi_inv, H, d = a.Phi, a.Phi_inv, a.H_hat, a.d_A
    identities = {}

    def check(name, fn, domain):
        for key in domain:
            got = rational_state(fn(key))
            if got:
                identities[name] = {"ok": False, "witness": key, "diff": got}
                return
        identities[name] = {"ok": True}

    check("Phi Phi_inv = 1", lambda key: state_sum(
        [Phi.apply(Phi_inv.apply_key(key)), ({key: -1}, 1)]), core)
    check("Phi_inv Phi = 1 - [d, H]", lambda key: state_sum(
        [Phi_inv.apply(Phi.apply_key(key)), d.apply(H.apply_key(key)),
         H.apply(d.apply_key(key)), ({key: -1}, 1)]), keys)
    check("H H = 0", lambda key: H.apply(H.apply_key(key)), keys)
    check("H Phi_inv = 0", lambda key: H.apply(Phi_inv.apply_key(key)), core)
    check("Phi H = 0", lambda key: Phi.apply(H.apply_key(key)), keys)
    return {"margin": margin, "checked": len(keys), "identities": identities}


def with_sign_fault(op, keys):
    """A copy of op with the first entry of its first column on keys
    negated."""
    key = next(k for k in keys if k in op.cols)
    col = dict(op.cols[key])
    k2 = next(iter(col))
    col[k2] = -col[k2]
    return LinearOp(op.space, op.degree, {**op.cols, key: col}, op.den)


def fault_sites(a, keys):
    """Per operator that sdr_verify reads, keys whose columns it reads,
    the most telling first: H_hat on the image of Phi_inv, which H Phi_inv
    and H H read on the worked model, and d_A on the image of H_hat."""
    core = [k for k in keys if a.is_core_key(k)]
    inv_image = [k2 for k in core for k2 in a.Phi_inv.cols.get(k, ())]
    h_image = [k2 for k in keys for k2 in a.H_hat.cols.get(k, ())]
    return {"H_hat": inv_image + list(keys), "Phi": keys, "Phi_inv": keys,
            "d_A": h_image + list(keys)}


# each fixture with the smallest margin at which its clean check passes,
# and whether each of the five identities fails under some fault: only
# the worked model has an H_hat column on the image of Phi_inv
SDR_CASES = list(zip(FIXTURES + [lambda: quadric3_arena(cap=2)],
                     [2, 2, 2, 1, 1, 1],
                     [True, True, False, False, False, False]))


@pytest.mark.parametrize("make, margin, all_five", SDR_CASES,
                         ids=FIXTURE_IDS + ["quadric3"])
def test_sdr_verify_matches_reference(make, margin, all_five, monkeypatch):
    # the one-pass report equals the per-identity reference at the
    # default margin, at margin 0 (where the cap cuts), and at the
    # smallest passing margin clean and with a sign fault in one entry
    # of each operator it reads; every fault fails some identity
    a = make()
    assert a.sdr_verify() == reference_sdr_report(a, 2 * a.table_max_tdeg)
    assert a.sdr_verify(0) == reference_sdr_report(a, 0)
    report = a.sdr_verify(margin)
    assert report == reference_sdr_report(a, margin)
    assert all(v["ok"] for v in report["identities"].values())
    failed = set()
    for name, keys in fault_sites(a, a.test_keys(margin)).items():
        monkeypatch.setattr(a, name, with_sign_fault(getattr(a, name), keys))
        report = a.sdr_verify(margin)
        assert report == reference_sdr_report(a, margin), name
        names = {n for n, v in report["identities"].items() if not v["ok"]}
        assert names, name
        failed |= names
        monkeypatch.undo()
    assert failed == set(report["identities"]) or not all_five


def test_kstab_arena_structure():
    a = kstab_arena(cap=3)
    sp = a.space
    xi = sp.gen_pos("xi", 0)
    xibar = sp.gen_pos("xibar", 0)
    # d_A^rho = x xi* + x^2 xibar*, so every entry has t-degree >= 1
    for key, col in a.d_A.cols.items():
        for k2, c in col.items():
            assert sum(k2[2]) >= sum(key[2]) + 1
    # the xi* term: applied to xi at t^0 gives z tensor t
    out = image(a.d_A, (1 << xi, 0, (0,)))
    assert out == {(0, 0, (1,)): Fraction(1)}
    out2 = image(a.d_A, (1 << xibar, 0, (0,)))
    assert out2 == {(0, 0, (2,)): Fraction(1)}


def test_sdr_verify_kstab():
    # d_A raises t-degree by up to 2 here (the x^2 xibar* term), so a
    # margin of 2 is the safe floor
    a = kstab_arena(cap=3)
    report = a.sdr_verify(margin=2)
    assert all(v["ok"] for v in report["identities"].values())
