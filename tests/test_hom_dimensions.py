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

from ainfmf import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def demo(name):
    with open(os.path.join(ROOT, "demos", name)) as fh:
        return json.load(fh)


def fermat(variables, potential, objects):
    """A spec at cap 2 with objects {label: [[f_i, g_i], ...]}."""
    return {"variables": variables, "potential": potential, "cap": 2,
            "objects": [{"label": label, "pairs": pairs}
                        for label, pairs in objects.items()]}


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
        a, b = objects[source], objects[target]
        closed = prod(2 * min(a[i], b[i], ni - a[i], ni - b[i])
                      for i, ni in enumerate(exponents))
        assert want == (2 ** n * closed, closed), (source, target)
    for result in report["results"]:
        pair, = result["result"]["pairs"]
        got[pair["source"], pair["target"]] = (pair["cohomology_dim"],
                                               pair["rank"])
    assert got == measured
