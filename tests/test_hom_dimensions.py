"""The Hom dimensions of Fermat-type models against their closed form.

By the paper, the image of the idempotent E on H(B) is H*(Hom_MF(X, Y)),
so the rank of the E1 that Phi e Phi^-1 induces on H(B) is
dim H*(Hom_MF(X, Y)), and dim H(B) is 2^n times that.  For W = sum_i
c_i x_i^{n_i}, with X of pairs (x_i^{a_i}, .) and Y of pairs
(x_i^{b_i}, .), that dimension is

    P = prod_i 2 min(a_i, b_i, n_i - a_i, n_i - b_i):

the brane spectrum of one variable (Kapustin-Li, hep-th/0210296) and
Kuenneth for tensor products of matrix factorisations (Dyckerhoff,
arXiv:0904.4713).  The e1 command reports both numbers per pair, as
cohomology_dim and rank; the rank is linalg.rank, by linalg.Echelon.
"""

import json
import os
from math import prod

import pytest
from hypothesis import assume, given, settings, strategies as st

from ainfmf import cli
from test_sdrcore import reference_reach

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def demo(name):
    with open(os.path.join(ROOT, "demos", name)) as fh:
        return json.load(fh)


def fermat(variables, potential, objects):
    """A spec at cap 2 with objects {label: [[f_i, g_i], ...]}."""
    return {"variables": variables, "potential": potential, "cap": 2,
            "objects": [{"label": label, "pairs": pairs}
                        for label, pairs in objects.items()]}


def closed_form(exponents, a, b):
    """P for objects of exponents a and b."""
    return prod(2 * min(a[i], b[i], ni - a[i], ni - b[i])
                for i, ni in enumerate(exponents))


# each model with its exponents n_i, each object's exponents a_i, and
# (dim H(B), rank E1) per pair as measured; the closed form must give
# the same numbers
MODELS = [
    pytest.param(
        fermat(["x"], "1/5*x^5", {"X": [["x^2", "1/5*x^3"]],
                                  "Y": [["x^3", "1/5*x^2"]]}),
        [5], {"X": [2], "Y": [3]},
        {("X", "X"): (8, 4), ("X", "Y"): (8, 4), ("Y", "X"): (8, 4),
         ("Y", "Y"): (8, 4)}, id="worked"),
    pytest.param(
        dict(demo("cubic2_relations.json"), commands=[]),
        [3, 3], {"K": [1, 1]}, {("K", "K"): (16, 4)}, id="cubic2"),
    pytest.param(
        dict(demo("residue_field.json"), cap=2, commands=[]),
        [3], {"k": [1]}, {("k", "k"): (4, 2)}, id="residue-field"),
    pytest.param(
        fermat(["x"], "x^7", {"A": [["x^2", "x^5"]], "B": [["x^3", "x^4"]]}),
        [7], {"A": [2], "B": [3]},
        {("A", "A"): (8, 4), ("A", "B"): (8, 4), ("B", "A"): (8, 4),
         ("B", "B"): (12, 6)}, id="x^7"),
    pytest.param(
        fermat(["x", "y"], "x^4 + y^3",
               {"A": [["x", "x^3"], ["y", "y^2"]],
                "B": [["x^2", "x^2"], ["y^2", "y"]]}),
        [4, 3], {"A": [1, 1], "B": [2, 2]},
        {("A", "A"): (16, 4), ("A", "B"): (16, 4), ("B", "A"): (16, 4),
         ("B", "B"): (32, 8)}, id="x^4+y^3"),
]


@pytest.mark.parametrize("spec, exponents, objects, measured", MODELS)
def test_hom_dimensions_match_the_closed_form(spec, exponents, objects,
                                              measured):
    # the e1 command's cohomology_dim and rank on every pair, one run
    report, code = cli.run(spec, commands=[
        {"command": "e1", "source": s, "target": t} for s, t in measured])
    assert code == 0
    n = len(exponents)
    got = {}
    for (source, target), want in measured.items():
        closed = closed_form(exponents, objects[source], objects[target])
        assert want == (2 ** n * closed, closed), (source, target)
    for result in report["results"]:
        pair, = result["result"]["pairs"]
        got[pair["source"], pair["target"]] = (pair["cohomology_dim"],
                                               pair["rank"])
    assert got == measured


# the (exponents, object exponents) of the fixtures above
FIXTURE_SHAPES = [(p.values[1], list(p.values[2].values())) for p in MODELS]
RANDOM = settings(max_examples=25, deadline=None, derandomize=True)


@st.composite
def fermat_models(draw):
    """W = sum_i x_i^{n_i} in one or two variables (n_i in 2..6, or
    2..4 with two), with two objects A and B of pairs
    (x_i^{a_i}, x_i^{n_i - a_i}); never one of the fixtures."""
    names = ["x", "y"][:draw(st.integers(1, 2))]
    top = 6 if len(names) == 1 else 4
    exponents = [draw(st.integers(2, top)) for _ in names]
    objects = {label: [draw(st.integers(1, ni - 1)) for ni in exponents]
               for label in "AB"}
    assume((exponents, list(objects.values())) not in FIXTURE_SHAPES)
    spec = fermat(names, " + ".join("%s^%d" % (v, ni)
                                    for v, ni in zip(names, exponents)),
                  {label: [["%s^%d" % (v, ai), "%s^%d" % (v, ni - ai)]
                           for v, ai, ni in zip(names, a, exponents)]
                   for label, a in objects.items()})
    return spec, exponents, objects


@RANDOM
@given(fermat_models())
def test_random_fermat_models(model):
    # e1's cohomology_dim and rank match the closed form on every pair,
    # and sdr-verify at its default margin fails no identity on any
    # pair (a cap below the margin is cap insufficiency, exit 3); that
    # margin, read in sdr-verify's one pass, is n + R with R by the
    # per-key reference
    spec, exponents, objects = model
    prob = cli.Problem(spec)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "Problem", lambda raw, cap_override=None: prob)
        report, code = cli.run(spec, commands=["e1", "sdr-verify"])
    assert code in (cli.EXIT_OK, cli.EXIT_CAP)
    e1, sdr = report["results"]
    assert e1["ok"] and sdr["ok"]
    n = len(exponents)
    for pair in sdr["result"]["pairs"]:
        arena = prob.model.pair(prob.obj_index(pair["source"]),
                                prob.obj_index(pair["target"])).arena
        assert pair["margin"] == n + reference_reach(arena)
    for pair in e1["result"]["pairs"]:
        closed = closed_form(exponents, objects[pair["source"]],
                             objects[pair["target"]])
        assert (pair["cohomology_dim"], pair["rank"]) == (2 ** n * closed,
                                                          closed)


# sdr-verify at its default margin n + R on two-variable models with R =
# 2: no identity fails on any pair of x^4+y^3, nor on cubic2 at caps 2
# to 4; the margin 4 leaves no key below cap 4 (exit 3), and at cap 4
# the keys of t-degree zero
@pytest.mark.parametrize("spec, cap, code", [
    pytest.param(MODELS[4].values[0], 2, cli.EXIT_CAP, id="x^4+y^3"),
    pytest.param(demo("cubic2_relations.json"), 2, cli.EXIT_CAP,
                 id="cubic2-cap2"),
    pytest.param(demo("cubic2_relations.json"), 3, cli.EXIT_CAP,
                 id="cubic2-cap3"),
    pytest.param(demo("cubic2_relations.json"), 4, cli.EXIT_OK,
                 id="cubic2-cap4"),
])
def test_sdr_verify_default_margin_fails_nothing(spec, cap, code):
    report, got = cli.run(spec, commands=["sdr-verify"], cap=cap)
    assert got == code
    result, = report["results"]
    assert result["ok"]
    for pair in result["result"]["pairs"]:
        assert pair["margin"] == 4
        assert (pair["checked"] > 0) == (cap == 4)
