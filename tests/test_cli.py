import json
import re
from fractions import Fraction
from itertools import product

import pytest

from ainfmf import ainfmodel, cli
from ainfmf.ainfmodel import Model
from ainfmf.normalorder import FeynmanBackend
from ainfmf.sdrcore import Arena
from ainfmf.treealg import mirror_sign

from test_superspace import identity


WORKED = {
    "variables": ["x"],
    "potential": "1/5*x^5",
    "objects": [
        {"label": "X", "pairs": [["x^2", "1/5*x^3"]]},
        {"label": "Y", "pairs": [["x^3", "1/5*x^2"]]},
    ],
    "cap": 2,
    "commands": [
        "basis",
        "groebner",
        {"command": "gamma", "cap": 2},
        {"command": "expand", "polynomial": "x^2 + x^5"},
        {"command": "vertices", "source": "X", "target": "Y"},
        {"command": "rho", "k": 2, "path": ["X", "Y", "X"]},
        {"command": "verify-ainf", "level": 1},
    ],
}

KSTAB = {
    "variables": ["x"],
    "potential": "x^3",
    "t_sequence": ["x"],
    "objects": [{"label": "k", "pairs": [["x", "x^2"]]}],
    "homotopies": {"k": {"F": [["0"]], "G": [["1"]]}},
    "cap": 3,
    "commands": [
        {"command": "kstab", "object": "k", "decomposition": ["x^2"],
         "level": 3},
        {"command": "feynman", "k": 2},
        "e1",
        "clifford",
    ],
}


def test_run_worked_spec():
    report, code = cli.run(WORKED)
    assert code == cli.EXIT_OK
    assert report["ok"] and report["cap_ok"]
    by_name = {r["command"]: r for r in report["results"]}
    assert by_name["basis"]["result"]["dimension"] == 4
    labels = [row["label"] for row in by_name["basis"]["result"]["monomials"]]
    assert labels == ["z1", "z2", "z3", "z4"]
    # x * x = z3 with no t emission
    assert [1, 1, 2, [0], "1/1"] in by_name["gamma"]["result"]["entries"]
    # x^2 + x^5 = z3 + z2 t
    assert by_name["expand"]["result"]["coefficients"] == [
        [1, [1], "1/1"], [2, [0], "1/1"]]
    rows = by_name["vertices"]["result"]["pairs"][0]["rows"]
    coeffs = {r["vertex"]: r["coefficient"] for r in rows}
    assert coeffs["C.1"] == "3/1"
    assert coeffs["A.3"] == "-1/1"
    assert by_name["rho"]["result"]["entries"]
    assert by_name["verify-ainf"]["result"]["failures"] == 0


def test_report_has_no_floats():
    report, code = cli.run(WORKED)
    assert code == cli.EXIT_OK
    text = json.dumps(report)
    assert not re.search(r"\d\.\d", text)


def test_run_kstab_spec():
    report, code = cli.run(KSTAB)
    assert code == cli.EXIT_OK
    by_name = {r["command"]: r for r in report["results"]}
    assert by_name["kstab"]["result"]["rho1_zero"]
    assert by_name["kstab"]["result"]["closed"]
    assert len(by_name["kstab"]["result"]["kernel"]) == 2
    assert by_name["feynman"]["result"]["mismatches"] == 0
    assert all(p["idempotent"] for p in by_name["e1"]["result"]["pairs"])
    cl = by_name["clifford"]["result"]["pairs"][0]
    assert cl["gamma_equals_At"] and cl["E1_equals_gamma_product"]


def test_theta_projector_on_two_variables():
    # E1 is Phi e Phi^-1 with e the projector onto theta-degree zero; with
    # two theta generators a product of wedges and contractions is -e
    spec = {
        "variables": ["x1", "x2"],
        "potential": "x1^2 + x2^2",
        "objects": [{"label": "K", "pairs": [["x1", "x1"], ["x2", "x2"]]}],
        "cap": 1,
        "commands": ["e1", "clifford"],
    }
    report, code = cli.run(spec)
    assert code == cli.EXIT_OK
    by_name = {r["command"]: r for r in report["results"]}
    assert by_name["e1"]["result"]["pairs"][0]["idempotent"]
    cl = by_name["clifford"]["result"]["pairs"][0]
    assert cl["gamma_equals_At"] and cl["E1_equals_gamma_product"]


def test_input_errors():
    bad_poly = {"variables": ["x"], "potential": "x^^2"}
    report, code = cli.run(bad_poly, commands=["basis"])
    assert code == cli.EXIT_INPUT
    assert "error" in report

    unknown_cmd, code = cli.run(WORKED, commands=["frobnicate"])
    assert code == cli.EXIT_INPUT

    bad_label, code = cli.run(
        WORKED, commands=[{"command": "rho", "k": 2, "path": ["X", "Z", "X"]}])
    assert code == cli.EXIT_INPUT


# a repeated name, and one the polynomial parser cannot read: before
# the check they were reported as an infinite quotient ring and as the
# unknown variable 'x'
@pytest.mark.parametrize("variables, message", [
    pytest.param(["x", "x"], "duplicate variable name 'x'", id="repeated"),
    pytest.param(["1x"],
                 "variable '1x' is not a name the polynomial parser reads",
                 id="unreadable"),
])
def test_bad_variable_names_are_named(variables, message):
    spec = {"variables": variables, "potential": "x^2",
            "commands": ["basis"]}
    report, code = cli.run(spec)
    assert code == cli.EXIT_INPUT
    assert message in report["error"]


def _malformed(name, spec, edit):
    spec = json.loads(json.dumps(spec))
    edit(spec)
    return pytest.param(spec, id=name)


# each a spec field of the wrong shape: before validation these escaped
# cli.run as tracebacks or were silently accepted
@pytest.mark.parametrize("spec", [
    _malformed("no-pairs", WORKED, lambda s: s["objects"][0].pop("pairs")),
    _malformed("pairs-int", WORKED, lambda s: s["objects"][0].update(pairs=5)),
    _malformed("pair-str", WORKED,
               lambda s: s["objects"][0].update(pairs=["ab"])),
    _malformed("objects-int", WORKED, lambda s: s.update(objects=3)),
    _malformed("object-int", WORKED, lambda s: s["objects"].append(5)),
    _malformed("command-unnamed", WORKED,
               lambda s: s["commands"].append({"level": 2})),
    _malformed("command-int", WORKED, lambda s: s["commands"].append(5)),
    _malformed("commands-int", WORKED, lambda s: s.update(commands=5)),
    _malformed("cap-bool", WORKED,
               lambda s: s.update(cap=True, commands=["basis"])),
    _malformed("variables-str", WORKED, lambda s: s.update(variables="xy")),
    _malformed("order-unknown", WORKED, lambda s: s.update(order="bogus")),
    _malformed("t-sequence-int", WORKED, lambda s: s.update(t_sequence=5)),
    _malformed("path-int", WORKED, lambda s: s.update(
        commands=[{"command": "rho", "k": 2, "path": 5}])),
    _malformed("short-F", KSTAB, lambda s: s["homotopies"]["k"].update(F=[])),
    # a homotopy entry holds F and G only: a stale "lam" or a misspelt
    # key is an input error, not silently ignored
    _malformed("homotopy-lam", KSTAB,
               lambda s: s["homotopies"]["k"].update(lam=[[["a", 0, "1"]]])),
    _malformed("homotopy-typo", KSTAB,
               lambda s: s["homotopies"]["k"].update(GG=[["1"]])),
    # homotopies that do not sum to the t-sequence: the derivatives of
    # the pairs (F = 1, G = 2x give 3x^2, not x), and F = 0, G = 7
    _malformed("default-homotopy-off-t", KSTAB, lambda s: s.update(
        homotopies={}, commands=["sdr-verify",
                                 {"command": "verify-ainf", "level": 3},
                                 "vertices"])),
    _malformed("spec-homotopy-off-t", KSTAB, lambda s: s.update(
        homotopies={"k": {"F": [["0"]], "G": [["7"]]}},
        commands=["sdr-verify", {"command": "verify-ainf", "level": 3},
                  "vertices"])),
    _malformed("decomposition-int", KSTAB, lambda s: s.update(
        commands=[{"command": "kstab", "decomposition": 5}])),
    # t-sequences whose quotient is not finite dimensional and non-zero:
    # the partials (2x, 0) of x^2 leave y free, and 1 is the unit ideal
    _malformed("infinite-quotient", WORKED, lambda s: s.update(
        variables=["x", "y"], potential="x^2",
        objects=[{"label": "X", "pairs": [["x", "x"]]}])),
    _malformed("unit-ideal", KSTAB, lambda s: s.update(t_sequence=["1"])),
    # unknown keys are named, not ignored: in the spec, in an object and
    # among a command's arguments
    _malformed("spec-key-typo", WORKED,
               lambda s: s.update(potental=s.pop("potential"))),
    _malformed("object-extra-key", WORKED,
               lambda s: s["objects"][0].update(extra=1)),
    _malformed("command-arg-typo", WORKED, lambda s: s.update(
        commands=[{"command": "verify-ainf", "levl": 3}])),
])
def test_malformed_spec_exits_2(spec):
    report, code = cli.run(spec)
    assert code == cli.EXIT_INPUT
    assert "error" in report or "error" in report["results"][-1]


# a zero denominator in a coefficient, in the spec and in a command's
# argument: before the check it escaped cli.run as a ZeroDivisionError
@pytest.mark.parametrize("spec", [
    pytest.param({"variables": ["x"], "potential": "1/0*x^2",
                  "commands": ["basis"]}, id="potential"),
    pytest.param(dict(WORKED, commands=[
        {"command": "expand", "polynomial": "3/0"}]), id="expand"),
])
def test_zero_denominator_exits_2(spec):
    report, code = cli.run(spec)
    assert code == cli.EXIT_INPUT
    error = report.get("error") or report["results"][-1]["error"]
    assert "cannot parse" in error


# a cap that leaves no key inside the margin: the worked spec at caps 0
# and 1 (margin 2) and the KSTAB spec (cap 3, margin 4)
@pytest.mark.parametrize("spec", [
    pytest.param(dict(WORKED, cap=0), id="worked-cap0"),
    pytest.param(dict(WORKED, cap=1), id="worked-cap1"),
    pytest.param(KSTAB, id="kstab"),
])
def test_empty_sdr_verify_exits_3(spec):
    report, code = cli.run(spec, commands=["sdr-verify"])
    assert code == cli.EXIT_CAP
    assert not report["cap_ok"]
    assert all(p["checked"] == 0
               for p in report["results"][0]["result"]["pairs"])


# at cap 0 no key has positive t-degree, so At vanishes and E1, gamma and
# the kstab kernel say nothing: cap insufficiency; cap 1 is enough
@pytest.mark.parametrize("spec, command", [
    pytest.param(WORKED, "e1", id="e1"),
    pytest.param(WORKED, "clifford", id="clifford"),
    pytest.param(KSTAB, KSTAB["commands"][0], id="kstab"),
])
def test_linear_part_needs_cap_1(spec, command):
    report, code = cli.run(dict(spec, cap=0), commands=[command])
    assert code == cli.EXIT_CAP
    assert not report["cap_ok"]
    assert "cap insufficient" in report["results"][0]["error"]
    report, code = cli.run(dict(spec, cap=1), commands=[command])
    assert code == cli.EXIT_OK
    assert report["ok"] and report["cap_ok"]


# each command with a bad argument
@pytest.mark.parametrize("args", [
    {"command": "verify-ainf", "level": 1, "forms": ["R"]},
    {"command": "verify-ainf", "level": 1, "forms": "mu"},
    {"command": "verify-ainf", "level": 1, "forms": []},
    {"command": "verify-ainf", "level": 0},
    {"command": "verify-ainf", "level": "two"},
    {"command": "verify-ainf", "level": True},
    {"command": "kstab", "decomposition": ["1/5*x^4"], "level": "two"},
    {"command": "kstab", "decomposition": ["1/5*x^4"], "level": 0},
    {"command": "rho", "k": "two"},
    {"command": "rho", "k": 0},
    {"command": "rho", "k": True},
    {"command": "feynman", "k": "two"},
    {"command": "feynman", "k": -1},
    {"command": "feynman", "k": 1},
    {"command": "feynman", "k": 2, "limit": "l"},
    {"command": "feynman", "k": 2, "limit": -1},
    {"command": "gamma", "cap": "two"},
    {"command": "gamma", "cap": -1},
    {"command": "expand", "polynomial": "x^2", "cap": "x"},
    {"command": "sdr-verify", "margin": "m"},
    {"command": "sdr-verify", "margin": -1},
    # JSON booleans are not object indices
    {"command": "rho", "k": 2, "path": [True, False, True]},
    {"command": "sdr-verify", "source": True},
    # repeated forms would be checked and reported twice
    {"command": "verify-ainf", "level": 1, "forms": ["r", "r"]},
    {"command": "verify-ainf", "level": 1, "forms": ["mu", "r", "mu"]},
    # a limit of 0 would check no tuple and still report ok
    {"command": "feynman", "k": 2, "limit": 0},
])
def test_verify_ainf_rejects_bad_arguments(args):
    report, code = cli.run(WORKED, commands=[args])
    assert code == cli.EXIT_INPUT
    assert "error" in report["results"][-1]


def test_optional_integer_arguments():
    # limit and margin may be absent or null; a numeric limit cuts tuples
    report, code = cli.run(WORKED, commands=[
        {"command": "feynman", "k": 2, "limit": None},
        {"command": "feynman", "k": 2, "limit": 3},
        {"command": "sdr-verify", "source": "X", "target": "Y",
         "margin": None},
    ])
    assert code == cli.EXIT_OK
    tuples = [r["result"]["tuples"] for r in report["results"][:2]]
    assert tuples == [256, 3]


def test_feynman_reads_limit_before_the_cap():
    # a malformed limit is an input error even where the cap is too
    # small for the tree
    report, code = cli.run(WORKED, commands=[
        {"command": "feynman", "k": 3, "limit": "x"}], cap=1)
    assert code == cli.EXIT_INPUT
    assert "limit" in report["results"][-1]["error"]


def test_feynman_limit_draws_only_limit_tuples(monkeypatch):
    # a limit must not build every basis tuple first: on a large core at
    # k = 4 that is millions of tuples to check a few
    drawn = []

    def counted(*cores):
        for combo in product(*cores):
            drawn.append(combo)
            yield combo

    monkeypatch.setattr(cli, "product", counted)
    report, code = cli.run(WORKED, commands=[
        {"command": "feynman", "k": 3, "limit": 5}])
    assert code == cli.EXIT_OK
    assert report["results"][0]["result"]["tuples"] == 5
    assert len(drawn) == 5


def _faulty_span_table(fault):
    """Model._span_table with one fault: "drop-split" leaves out the root
    split at mid = lo, "skip-H_hat" leaves out H_hat on the inner spans
    (the identity in their kernel rows)."""
    original = Model._span_table

    def span_table(self, path, tables, lo, hi, op):
        root = (lo, hi) == (1, len(path) - 1)
        if root and fault == "drop-split":
            # no left states for the split at mid = lo
            tables = {**tables, (lo, lo): {}}
        if not root and fault == "skip-H_hat":
            op = identity(op.space)
        return original(self, path, tables, lo, hi, op)

    return span_table


@pytest.mark.parametrize("fault", ["drop-split", "skip-H_hat"])
def test_feynman_catches_faults_in_span_sums(monkeypatch, fault):
    # feynman checks the rho_k table that rho and verify-ainf report, so
    # a fault in the span tables that build it is a verification failure
    monkeypatch.setattr(Model, "_span_table", _faulty_span_table(fault))
    report, code = cli.run(WORKED, commands=[{"command": "feynman", "k": 3}])
    assert code == cli.EXIT_VERIFY
    assert report["results"][0]["result"]["mismatches"] > 0


@pytest.mark.parametrize("fault", ["drop-split", "skip-H_hat"])
def test_feynman_limit_catches_faults_in_span_sums(monkeypatch, fault):
    # with a limit, the rho_k side is the span sums on the drawn tuples'
    # keys, through the same span tables, so the same faults are caught.
    # The first keys of slot 0 take nothing from the root split at
    # mid = 1, so the limit reaches past them
    monkeypatch.setattr(Model, "_span_table", _faulty_span_table(fault))
    report, code = cli.run(WORKED, commands=[
        {"command": "feynman", "k": 3, "limit": 2048}])
    assert code == cli.EXIT_VERIFY
    assert report["results"][0]["result"]["mismatches"] > 0


def test_feynman_limit_builds_no_rho_table():
    # a limited run computes its drawn tuples only: on the worked model
    # at cap 3, k = 4 with limit 1, the whole rho_4 table is most of the
    # time of the command
    prob = cli.Problem(dict(WORKED, cap=3))
    result, ok, _ = cli.cmd_feynman(prob, {
        "k": 4, "path": ["X", "Y", "X", "Y", "X"], "limit": 1})
    assert ok and result["tuples"] == 1 and result["mismatches"] == 0
    assert (4, (0, 1, 0, 1, 0)) not in prob.model._tables


def test_feynman_limit_past_every_tuple_reports_as_unlimited():
    # the span sums on the drawn keys and the stored table agree
    command = {"command": "feynman", "k": 3, "path": ["X", "Y", "Y", "X"]}
    reports = [cli.run(WORKED, commands=[dict(command, **limit)])[0]
               ["results"][0]["result"] for limit in ({}, {"limit": 10**6})]
    assert reports[0] == reports[1]
    assert reports[0]["tuples"] == 4096 and reports[0]["mismatches"] == 0


def test_verify_ainf_names_its_witness(monkeypatch):
    # a wrong conversion parity on the tildes (1, 0) is a mu failure;
    # first_failure names its inputs and defect in key labels and p/q
    original = ainfmodel._conversion_parity
    monkeypatch.setattr(ainfmodel, "_conversion_parity",
                        lambda tl: original(tl) ^ (tuple(tl) == (1, 0)))
    report, code = cli.run(WORKED, commands=[
        {"command": "verify-ainf", "level": 2}])
    assert code == cli.EXIT_VERIFY
    first = report["results"][0]["result"]["first_failure"]
    m = cli.Problem(WORKED).model
    want = m.verify_ainf(2)["failures"][0]
    assert first["form"] == "mu" and first["level"] == 2
    path = want["path"]
    assert first["inputs"] == [m.pair(*path[i : i + 2]).arena.space.key_label(k)
                               for i, k in enumerate(want["inputs"])]
    space = m.pair(path[0], path[-1]).arena.space
    assert first["defect"] == {space.key_label(k): cli.frac(v)
                               for k, v in want["defect"].items()}
    assert all(re.fullmatch(r"-?\d+/\d+", v) for v in first["defect"].values())


def test_sdr_verify_names_its_witness(monkeypatch):
    # a sign fault in one entry of H_hat fails sdr-verify (exit 1), and
    # each failing identity names its witness key and its diff in key
    # labels and p/q
    original = Arena._build_h_hat

    def faulty(self):
        op = original(self)
        col = next(iter(op.cols.values()))
        k2 = next(iter(col))
        col[k2] = -col[k2]
        return op

    monkeypatch.setattr(Arena, "_build_h_hat", faulty)
    command = {"command": "sdr-verify", "source": "X", "target": "X",
               "margin": 2}
    report, code = cli.run(WORKED, commands=[command], cap=4)
    assert code == cli.EXIT_VERIFY
    pair, = report["results"][0]["result"]["pairs"]
    arena = cli.Problem(WORKED, cap_override=4).model.pair(0, 0).arena
    want = arena.sdr_verify(margin=2)["identities"]
    label = arena.space.key_label
    failed = {name for name, v in want.items() if not v["ok"]}
    assert failed and set(pair["failures"]) == failed
    assert {name for name, ok in pair["identities"].items() if not ok} == failed
    for name in failed:
        got = pair["failures"][name]
        assert got["witness"] == label(want[name]["witness"])
        assert got["diff"] == {label(k): cli.frac(v)
                               for k, v in want[name]["diff"].items()}
        assert got["diff"] and all(re.fullmatch(r"-?\d+/\d+", v)
                                   for v in got["diff"].values())


def test_sdr_verify_below_its_margin_names_its_witness():
    # at cap 2 with margin 1 the cap cuts the retract identity on
    # Hom(X, X); pinned as measured by the per-identity check
    command = {"command": "sdr-verify", "source": "X", "target": "X",
               "margin": 1}
    report, code = cli.run(WORKED, commands=[command])
    assert code == cli.EXIT_VERIFY
    pair, = report["results"][0]["result"]["pairs"]
    assert pair["checked"] == 64
    assert pair["failures"] == {"Phi_inv Phi = 1 - [d, H]": {
        "witness": "theta1*xibar1*z4*t1",
        "diff": {"z2*t1^2": "-6/25", "theta1*xi1*z1*t1^2": "-3/25",
                 "xi1*xibar1*z2*t1^2": "6/25"}}}


def _faulty_column(fault):
    """FeynmanBackend._column with one fault in the stage-1 columns of the
    top: "flip" negates the first non-empty column a backend builds,
    "drop" empties it, "spurious" puts the key ka into every empty
    column."""
    original = FeynmanBackend._column

    def column(self, pair_a, pair_b, ka, sb):
        col = original(self, pair_a, pair_b, ka, sb)
        if fault == "spurious":
            return col or {ka: Fraction(1)}
        if col and not getattr(self, "faulted", False):
            self.faulted = True
            return {kc: -c for kc, c in col.items()} if fault == "flip" else {}
        return col

    return column


@pytest.mark.parametrize("fault, one_sided", [
    ("flip", None), ("drop", "table"), ("spurious", "feynman")])
def test_feynman_catches_faults_in_top_columns(monkeypatch, fault, one_sided):
    monkeypatch.setattr(FeynmanBackend, "_column", _faulty_column(fault))
    report, code = cli.run(WORKED, commands=[{"command": "feynman", "k": 2}])
    assert code == cli.EXIT_VERIFY
    assert report["results"][0]["result"]["mismatches"] > 0
    if one_sided is None:
        return
    # k = 2 has one tree, so a tuple's feynman side is empty exactly when
    # its tree_state is: the faults leave some tuple non-empty on one
    # side only, which the comparison must count as well
    m = cli.Problem(WORKED).need_model()
    backend = FeynmanBackend(m)
    table = m.rho_table(2, (0, 0, 0))
    core = m.pair(0, 0).arena.core_basis()
    sides = {(bool(table.get(combo)),
              bool(backend.tree_state((1, 2), (0, 0, 0), combo)))
             for combo in product(core, core)}
    assert ((True, False) if one_sided == "table" else (False, True)) in sides


def test_feynman_names_its_first_mismatch(monkeypatch):
    # a passing report has no first_mismatch; with a sign fault in the
    # backend's top columns the first mismatched tuple is named in key
    # labels, with the Feynman side minus the table in p/q
    report, code = cli.run(WORKED, commands=[{"command": "feynman", "k": 2}])
    assert code == cli.EXIT_OK
    assert "first_mismatch" not in report["results"][0]["result"]
    monkeypatch.setattr(FeynmanBackend, "_column", _faulty_column("flip"))
    report, code = cli.run(WORKED, commands=[{"command": "feynman", "k": 2}])
    assert code == cli.EXIT_VERIFY
    first = report["results"][0]["result"]["first_mismatch"]
    # k = 2 has the one tree (1, 2), of sign (-1)^2 mirror_sign
    m = cli.Problem(WORKED).need_model()
    backend = FeynmanBackend(m)
    table = m.rho_table(2, (0, 0, 0))
    core = m.pair(0, 0).arena.core_basis()
    label = m.pair(0, 0).arena.space.key_label
    for combo in product(core, core):
        tilde = dict(enumerate((m.tilde(key) for key in combo), 1))
        sign = mirror_sign((1, 2), tilde)
        diff = {kk: sign * v for kk, v in
                backend.tree_state((1, 2), (0, 0, 0), combo).items()}
        for kk, v in table.get(combo, {}).items():
            diff[kk] = diff.get(kk, 0) - v
        diff = {kk: v for kk, v in diff.items() if v}
        if diff:
            break
    assert first == {"inputs": [label(key) for key in combo],
                     "diff": {label(kk): cli.frac(v)
                              for kk, v in sorted(diff.items(), key=str)}}
    assert all(re.fullmatch(r"-?\d+/\d+", v) for v in first["diff"].values())


def test_timing_per_command():
    # a repeated command keeps its own timing entry
    cmd = {"command": "verify-ainf", "level": 1}
    report, code = cli.run(WORKED, commands=[cmd, "basis", cmd])
    assert code == cli.EXIT_OK
    assert "timing" not in report
    assert [r["command"] for r in report["results"]] == [
        "verify-ainf", "basis", "verify-ainf"]
    assert all(type(r["timing"]) is int and r["timing"] >= 0
               for r in report["results"])


def test_cap_insufficiency_exit():
    spec = {
        "variables": ["x"], "potential": "1/5*x^5", "cap": 1,
        "commands": [{"command": "expand", "polynomial": "x^12", "cap": 1}],
    }
    report, code = cli.run(spec)
    assert code == cli.EXIT_CAP
    assert not report["cap_ok"]
    # feynman on a tree needing more cap than provided
    spec2 = dict(KSTAB, cap=0, commands=[{"command": "feynman", "k": 3}])
    report2, code2 = cli.run(spec2)
    assert code2 == cli.EXIT_CAP


# rho_2 needs the margin n (k - 1) = 1: at cap 0 the operator backend
# drops terms that pass through t-degree 1 on their way to the core
@pytest.mark.parametrize("path", [["X", "X", "X"], ["X", "Y", "X"],
                                  ["Y", "Y", "Y"]])
@pytest.mark.parametrize("cap, want", [(0, cli.EXIT_CAP), (1, cli.EXIT_OK)])
def test_feynman_cap_margin(path, cap, want):
    spec = dict(WORKED, cap=cap)
    report, code = cli.run(spec, commands=[
        {"command": "feynman", "k": 2, "path": path}])
    assert code == want
    assert report["cap_ok"] == (cap == 1)
    if cap == 1:
        assert report["results"][0]["result"]["mismatches"] == 0


def test_cap_and_presentation_overrides():
    report, code = cli.run(
        dict(WORKED, commands=[{"command": "verify-ainf", "level": 1}]),
        cap=3)
    assert code == cli.EXIT_OK
    assert report["spec"]["cap"] == 3


def test_pin_roundtrip(tmp_path):
    report, _ = cli.run(KSTAB)
    golden = tmp_path / "golden.json"
    assert cli.pin(report, str(golden), create=True) == []
    assert cli.pin(report, str(golden)) == []
    # a changed coefficient is located by path
    mutated = json.loads(cli.canonical(report).decode())
    mutated["results"][0]["result"]["level"] = 99
    diffs = cli.pin(mutated, str(golden))
    assert diffs and any("level" in d for d in diffs)
    # timing differences never matter
    with_timing = json.loads(cli.canonical(report).decode())
    with_timing["results"][0]["timing"] = 123456
    assert cli.pin(with_timing, str(golden)) == []


def test_pin_missing_golden(tmp_path):
    report, _ = cli.run(KSTAB)
    try:
        cli.pin(report, str(tmp_path / "absent.json"))
    except cli.InputError:
        pass
    else:
        raise AssertionError("expected InputError")


def test_main_entry(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(WORKED))
    out_path = tmp_path / "report.json"
    code = cli.main(["run", str(spec_path), "--out", str(out_path)])
    assert code == cli.EXIT_OK
    report = json.loads(out_path.read_text())
    assert report["ok"]
    # single-command mode picks the matching entry from the spec
    code = cli.main(["basis", str(spec_path), "--out", str(out_path)])
    assert code == cli.EXIT_OK
    report = json.loads(out_path.read_text())
    assert [r["command"] for r in report["results"]] == ["basis"]


def test_report_to_a_missing_directory(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(dict(WORKED, commands=["basis"])))
    out_path = tmp_path / "missing" / "report.json"
    code = cli.main(["run", str(spec_path), "--out", str(out_path)])
    assert code == cli.EXIT_INPUT
    assert "error: cannot write %s" % out_path in capsys.readouterr().err


def test_pin_create_in_a_missing_directory(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(dict(WORKED, commands=["basis"])))
    report_path = tmp_path / "report.json"
    assert cli.main(["run", str(spec_path), "--out",
                     str(report_path)]) == cli.EXIT_OK
    golden = tmp_path / "missing" / "golden.json"
    code = cli.main(["pin", str(report_path), str(golden), "--create"])
    assert code == cli.EXIT_INPUT
    assert "error: cannot write %s" % golden in capsys.readouterr().err


def test_presentation_rho_is_not_a_choice(tmp_path):
    # the presentation follows the pair (rho on Hom(X, X), nu otherwise),
    # so --presentation is no option at all
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(WORKED))
    for value in ("rho", "nu"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", str(spec_path), "--presentation", value])
        assert exc.value.code == cli.EXIT_INPUT
