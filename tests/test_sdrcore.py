from fractions import Fraction

import pytest

from ainfmf import cli
from ainfmf.mfcat import (HomotopySet, KoszulFactorisation,
                          default_homotopies)
from ainfmf.poly import Polynomial, parse_poly
from ainfmf.quotient import QuotientBasis, t_adic_expand
from ainfmf.sdrcore import Arena
from ainfmf.superspace import (LinearOp, ZeroVirtualDegree, rational_state,
                               state_sum)
from test_superspace import (contract_op, from_rule, graded_commutator,
                             identity, is_zero, minus, scaled, wedge_op, whole)


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
    X = KoszulFactorisation(
        [(parse_poly("x1^2", 1), parse_poly("1/5*x1^3", 1))], W, "X")
    Y = KoszulFactorisation(
        [(parse_poly("x1^3", 1), parse_poly("1/5*x1^2", 1))], W, "Y")
    qb = QuotientBasis([parse_poly("x1^4", 1)])
    # the presentation follows the pair: rho on Hom(X, X), nu otherwise
    if presentation == "rho":
        return derivative_arena(X, X, qb, cap)
    return derivative_arena(X, Y, qb, cap)


def kstab_arena(cap=3):
    # W = x^3 with the non-Jacobian sequence t = (x): pairs (x, x^2),
    # homotopy lambda = xi (F = 0, G = 1)
    W = parse_poly("x1^3", 1)
    X = KoszulFactorisation(
        [(parse_poly("x1", 1), parse_poly("x1^2", 1))], W, "kstab")
    qb = QuotientBasis([parse_poly("x1", 1)])
    one = Polynomial.const(1, 1)
    hom = HomotopySet(F=[[Polynomial.zero(1)]], G=[[one]])
    return Arena(X, X, qb, cap, homX=hom, homY=hom)


def twovar_arena(presentation, cap=2):
    # rank-two objects K = (x1, x1), (x2, x2) and L = (x1, x1), (-x2, -x2)
    # of W = x1^2 + x2^2: delta carries two thetas
    W = parse_poly("x1^2 + x2^2", 2)
    x1, x2 = parse_poly("x1", 2), parse_poly("x2", 2)
    K = KoszulFactorisation([(x1, x1), (x2, x2)], W, "K")
    L = KoszulFactorisation([(x1, x1), (-x2, -x2)], W, "L")
    qb = QuotientBasis([parse_poly("2*x1", 2), parse_poly("2*x2", 2)])
    return derivative_arena(K, K if presentation == "rho" else L, qb, cap)


def quadric3_arena(cap=2):
    # x1^2 + x2^2 + x3^2 with K = (x_i, x_i): delta^3 carries three thetas
    W = parse_poly("x1^2 + x2^2 + x3^2", 3)
    xs = [parse_poly("x%d" % i, 3) for i in (1, 2, 3)]
    K = KoszulFactorisation([(x, x) for x in xs], W, "K")
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
    operators, composed as LinearOps."""
    sp, n = a.space, a.n

    def mult_op(r):
        cols = [exact_expansion(r * a.qb.basis_poly(h), a.qb)
                for h in range(a.qb.mu)]

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
                acc = acc + term if sign > 0 else minus(acc, term)
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
    return total(1, d_terms), total(0, delta_terms)


FIXTURES = [
    lambda: worked_arena(cap=4),
    lambda: worked_arena(cap=4, presentation="rho"),
    lambda: kstab_arena(cap=3),
    lambda: twovar_arena("rho"),
    lambda: twovar_arena("nu"),
]
FIXTURE_IDS = ["worked-nu", "worked-rho", "kstab", "twovar-rho", "twovar-nu"]


def assert_same_operator(op, ref, name=None):
    """op and the reference ref have one degree and, on every basis key,
    the same column as rationals: op's column read through its store,
    entry by entry over op.den, with no zero entry."""
    assert op.degree == ref.degree, name
    for key in op.space.basis():
        col = op.cols.get(key, {})
        assert all(col.values()), (name, key)
        assert {k: Fraction(c, op.den) for k, c in col.items()} == {
            k: Fraction(c, ref.den)
            for k, c in ref.cols.get(key, {}).items()}, (name, key)


@pytest.mark.parametrize("make", FIXTURES, ids=FIXTURE_IDS)
def test_differentials_match_composed_reference(make):
    a = make()
    d_A, delta = composed_differentials(a)
    assert_same_operator(a.d_A, d_A)
    assert_same_operator(a.delta, delta)
    assert a.d_A.degree == 1 and a.delta.degree == 0
    assert any(a.delta.cols.values()) and any(a.d_A.cols.values())


def ref_exp_nilpotent(op, max_power):
    """Reference: sum of op^m / m! until the power vanishes, by whole
    operator compositions."""
    total = identity(op.space)
    power = op
    for m in range(2, max_power + 2):
        if is_zero(power):
            return total
        total = total + power
        power = scaled(op.compose(power), Fraction(1, m))
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
            total = total + scaled(term, sign)
        else:
            if not is_zero(term):
                raise ValueError("perturbation series failed to truncate")
    return total


def zeta_after(op):
    """Reference: zeta, the division by the virtual degree, after op, on
    every basis column of op."""
    vdeg = op.space.virtual_degree
    return from_rule(op.space, op.degree, lambda key: {
        k2: Fraction(c, op.den * vdeg(k2))
        for k2, c in op.cols.get(key, {}).items()})


def sigma(a):
    """The inclusion of the core, which is also the projection pi onto
    it."""
    return from_rule(a.space, 0, lambda key: {key: 1}, a.core_basis())


def reference_operators(a):
    """The arena's operators rebuilt from the composed reference d_A and
    delta by whole-operator series and compositions."""
    d_A, delta = composed_differentials(a)
    at = graded_commutator(d_A, a.nabla)
    zeta_at = zeta_after(at)
    ops = {
        "At": at,
        "e_delta": ref_exp_nilpotent(delta, a.n + 1),
        "e_minus_delta": ref_exp_nilpotent(scaled(delta, -1), a.n + 1),
        "sigma_infty": ref_perturbation_series(a, zeta_at, sigma(a)),
        "phi_infty": ref_perturbation_series(a, zeta_at, zeta_after(a.nabla)),
    }
    ops["Phi"] = sigma(a).compose(ops["e_minus_delta"])
    ops["Phi_inv"] = ops["e_delta"].compose(ops["sigma_infty"])
    ops["H_hat"] = ops["e_delta"].compose(ops["phi_infty"]).compose(
        ops["e_minus_delta"])
    return ops


ARENA_OPERATORS = ("d_A", "delta", "nabla", "At", "sigma_infty",
                   "phi_infty", "Phi", "Phi_inv", "H_hat")


def exponentials(a):
    """(e^delta, e^{-delta}), which the arena builds for Phi, Phi_inv and
    H_hat and keeps only in their column rules, rebuilt by its own
    method."""
    return a._exp_delta()


def arena_operators(a):
    """The operators the arena keeps, by name, and e^{+-delta}, each
    with every basis column read through its store."""
    ops = {name: getattr(a, name) for name in ARENA_OPERATORS}
    ops["e_delta"], ops["e_minus_delta"] = exponentials(a)
    for op in ops.values():
        for key in a.space.basis():
            op.cols.get(key)
    return ops


@pytest.mark.parametrize("make", FIXTURES + [lambda: quadric3_arena(cap=2)],
                         ids=FIXTURE_IDS + ["quadric3"])
def test_operators_match_composed_reference(make):
    # every column, read through its store, is the reference's as
    # rationals, with no zero entry; the denominators are fixed when the
    # arena is built, as products with no gcd pass, so H_hat's is the
    # product of the three
    a = make()
    ours = arena_operators(a)
    refs = reference_operators(a)
    for name, ref in refs.items():
        assert_same_operator(ours[name], ref, name)
    assert a.H_hat.den == (ours["e_delta"].den * a.phi_infty.den
                           * ours["e_minus_delta"].den)
    # the top power m = n of the series is there: delta^n and
    # (zeta At)^n sigma do not vanish
    delta, zeta_at, sigma_top = whole(a.delta), zeta_after(a.At), sigma(a)
    delta_top = delta
    for _ in range(a.n):
        sigma_top = zeta_at.compose(sigma_top)
    for _ in range(a.n - 1):
        delta_top = delta.compose(delta_top)
    assert not is_zero(delta_top) and not is_zero(sigma_top)


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
    for name, op in arena_operators(a).items():
        for key, col in op.cols.items():
            assert own[key] is key, name
            assert all(own[k2] is k2 for k2 in col), name
    assert a.core_basis() is a.core_basis() and a.test_keys(2) is a.test_keys(2)
    assert all(own[k] is k for k in a.core_basis() + a.test_keys(2))


def test_h_hat_is_built_by_columns(monkeypatch):
    # an arena makes no composition and fills no column of any operator:
    # each H_hat column, and each column it is made of, is built on its
    # first read, with no zero entry and no composition
    calls = []
    original = LinearOp.compose

    def counted(self, other):
        calls.append(1)
        return original(self, other)

    monkeypatch.setattr(LinearOp, "compose", counted)
    a = quadric3_arena(cap=2)
    assert not calls
    assert not any(getattr(a, name).cols for name in ARENA_OPERATORS)
    basis = a.space.basis()
    for key in basis:
        a.H_hat.cols.get(key)
    assert not calls and len(a.H_hat.cols) == len(basis)
    assert any(a.H_hat.cols.values())
    assert all(all(col.values()) for col in a.H_hat.cols.values())


@pytest.mark.parametrize("make", [lambda: quadric3_arena(cap=3),
                                  lambda: worked_arena(cap=4)],
                         ids=["quadric3-cap3", "worked"])
def test_arena_keeps_one_int_per_h_hat_value(make):
    # H_hat shares one int object per distinct coefficient over all its
    # columns once each is read, and the arena keeps neither e^{+-delta}
    # nor a pi beside sigma
    a = make()
    for key in a.space.basis():
        a.H_hat.cols.get(key)
    entries = [c for col in a.H_hat.cols.values() for c in col.values()]
    assert len({id(c) for c in entries}) == len(set(entries)) < len(entries)
    assert not any(hasattr(a, name)
                   for name in ("e_delta", "e_minus_delta", "pi", "sigma"))


# the spec of the arena-quadric3 benchmark workload, unscaled
QUADRIC3 = {"variables": ["x1", "x2", "x3"],
            "potential": "x1^2 + x2^2 + x3^2", "cap": 3,
            "objects": [{"label": "K", "pairs": [["x1", "x1"], ["x2", "x2"],
                                                 ["x3", "x3"]]}]}


def test_commands_fill_few_h_hat_columns(monkeypatch):
    # the 10,240-key arena fills no column of any operator when it is
    # built, e1 and clifford fill no H_hat or phi_infty column, and
    # sdr-verify then verify-ainf level 2 fill at most 2,000 columns of
    # each operator (measured: at most 1,856, of phi_infty; H_hat 1,664,
    # of which 1,152 non-empty)
    prob = cli.Problem(QUADRIC3)
    monkeypatch.setattr(cli, "Problem", lambda raw, cap_override=None: prob)
    a = prob.model.pair(0, 0).arena
    filled = {name: getattr(a, name).cols for name in ARENA_OPERATORS}
    assert len(a.space.basis()) == 10240
    assert not any(filled.values())
    assert cli.run(QUADRIC3, commands=["e1", "clifford"])[1] == cli.EXIT_OK
    assert not filled["H_hat"] and not filled["phi_infty"]
    report, code = cli.run(QUADRIC3, commands=[
        "sdr-verify", {"command": "verify-ainf", "level": 2}])
    assert code == cli.EXIT_OK
    assert all(len(cols) <= 2000 for cols in filled.values()), {
        name: len(cols) for name, cols in filled.items()}
    h_hat = filled["H_hat"]
    assert 0 < sum(1 for col in h_hat.values() if col) < len(h_hat)


def test_d_a_squares_to_zero_worked():
    a = worked_arena(cap=4)
    sq = whole(a.d_A).compose(whole(a.d_A))
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
    at = whole(a.At)
    assert at.cols
    for key, col in at.cols.items():
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
    # zeta divides each entry by the virtual degree of its key, over
    # lcm(1..n + cap), and a column built through it raises
    # ZeroVirtualDegree where it meets virtual degree zero
    a = worked_arena(cap=4)
    sp = a.space
    th = sp.gen_pos("theta", 0)
    k1, k3 = (1 << th, 0, (0,)), (1 << th, 0, (2,))
    assert a._zeta_den == 60
    z = a._zeta({k1: 1, k3: 2})
    assert {k: Fraction(c, a._zeta_den) for k, c in z.items()} == {
        k1: Fraction(1), k3: Fraction(2, 3)}
    zero = sp.own_key[0, 0, (0,)]
    with pytest.raises(ZeroVirtualDegree):
        a._zeta({zero: 1})
    # the tail zeta nabla of phi_infty, and the power zeta At of
    # sigma_infty, each on a column faulted to reach that key
    key = sp.own_key[0, 0, (1,)]
    a.nabla.cols[key] = {zero: 1}
    with pytest.raises(ZeroVirtualDegree):
        a.phi_infty.cols.get(key)
    a.At.cols[zero] = {zero: 1}
    with pytest.raises(ZeroVirtualDegree):
        a.sigma_infty.cols.get(zero)


def test_series_columns_must_truncate():
    # a column whose series does not stop at m = n raises: phi_infty on
    # a column whose tail At fixes, and e^{-delta}, read through Phi, on
    # a key that delta fixes
    a = worked_arena(cap=4)
    key = next(k for k in a.space.basis() if a.nabla.cols.get(k))
    for k2 in a.nabla.cols[key]:
        a.At.cols[k2] = {k2: 1}
    with pytest.raises(ValueError, match="does not truncate"):
        a.phi_infty.cols.get(key)
    core = a.core_basis()[0]
    a.delta.cols[core] = {core: 1}
    with pytest.raises(ValueError, match="does not truncate"):
        a.Phi.cols.get(core)


def test_pi_sigma_infty_is_identity_on_core():
    a = worked_arena(cap=4)
    for key in a.core_basis():
        # pi, the projection onto the core, is sigma
        out = sigma(a).apply(a.sigma_infty.apply_key(key))
        assert rational_state(out) == {key: Fraction(1)}


def test_exponentials_inverse():
    a = worked_arena(cap=4)
    e_delta, e_minus_delta = exponentials(a)
    for key in a.test_keys(2):
        comp = e_delta.apply(e_minus_delta.apply_key(key))
        assert rational_state(comp) == {key: Fraction(1)}


def test_delta_conjugation_fixes_theta_star():
    # e^{-delta} theta* e^{delta} = theta*
    a = worked_arena(cap=4)
    th_star = contract_op(a.space, a.space.gen_pos("theta", 0))
    e_delta, e_minus_delta = exponentials(a)
    for key in a.test_keys(2):
        conj = e_minus_delta.apply(th_star.apply(e_delta.apply_key(key)))
        assert conj == th_star.apply_key(key)


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


def reference_reach(a):
    """Reference R of sdr_verify's default margin n + R: the largest
    t-degree of the terms d H, H d, Phi_inv Phi and, on the core, Phi
    Phi_inv on the keys of t-degree zero, each a reduced scaled state
    made by apply and apply_key."""
    Phi, Phi_inv, H, d = a.Phi, a.Phi_inv, a.H_hat, a.d_A
    reach = 0
    for key in a.space.basis():
        if sum(key[2]):
            continue
        terms = [d.apply(H.apply_key(key)), H.apply(d.apply_key(key)),
                 Phi_inv.apply(Phi.apply_key(key))]
        if a.is_core_key(key):
            terms.append(Phi.apply(Phi_inv.apply_key(key)))
        reach = max([reach] + [sum(k[2]) for nums, _ in terms for k in nums])
    return reach


def with_sign_fault(monkeypatch, op, keys):
    """Negate the first entry of op's first non-empty column on keys,
    read through H_hat's column store, in a copy of that column that
    stands in op's columns until monkeypatch is undone."""
    key = next(k for k in keys if op.cols.get(k))
    col = dict(op.cols[key])
    k2 = next(iter(col))
    col[k2] = -col[k2]
    monkeypatch.setitem(op.cols, key, col)


def fault_sites(a, keys):
    """Per operator that sdr_verify reads, keys whose columns it reads,
    the most telling first: H_hat on the image of Phi_inv, which H Phi_inv
    and H H read on the worked model, and d_A on the image of H_hat."""
    core = [k for k in keys if a.is_core_key(k)]
    inv_image = [k2 for k in core for k2 in a.Phi_inv.cols.get(k, ())]
    h_image = [k2 for k in keys for k2 in a.H_hat.cols.get(k, ())]
    return {"H_hat": inv_image + list(keys), "Phi": keys, "Phi_inv": keys,
            "d_A": h_image + list(keys)}


# each fixture with its default margin n + R, the smallest margin at
# which its clean check passes, and whether each of the five identities
# fails under some fault: only the worked model has an H_hat column on
# the image of Phi_inv.  quadric3 at cap 2 has no key inside its
# default margin 3
SDR_CASES = list(zip(FIXTURES + [lambda: quadric3_arena(cap=2)],
                     [2, 2, 2, 2, 2, 3],
                     [2, 2, 2, 1, 1, 1],
                     [True, True, False, False, False, False]))


@pytest.mark.parametrize("make, default, margin, all_five", SDR_CASES,
                         ids=FIXTURE_IDS + ["quadric3"])
def test_sdr_verify_matches_reference(make, default, margin, all_five,
                                      monkeypatch):
    # the one-pass report equals the per-identity reference at the
    # default margin, at margin 0 (where the cap cuts), and at the
    # smallest passing margin clean and with a sign fault in one entry
    # of each operator it reads; every fault fails some identity
    a = make()
    assert a.n + reference_reach(a) == default
    assert a.sdr_verify() == reference_sdr_report(a, default)
    assert a.sdr_verify(0) == reference_sdr_report(a, 0)
    report = a.sdr_verify(margin)
    assert report == reference_sdr_report(a, margin)
    assert all(v["ok"] for v in report["identities"].values())
    failed = set()
    for name, keys in fault_sites(a, a.test_keys(margin)).items():
        with_sign_fault(monkeypatch, getattr(a, name), keys)
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
    d_A = whole(a.d_A)
    assert d_A.cols
    for key, col in d_A.cols.items():
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
