"""cli.run on drawn specs and command entries: every input ends in one
of the documented exit codes (0 ok, 1 verification failure, 2 input
error, 3 cap insufficiency), and no exception escapes.

Integers stay at 3 or below, so no level-4 check, no k past 3 and no
large exponent is drawn: the fuzzer looks for tracebacks, not for slow
inputs.
"""

from hypothesis import given, settings, strategies as st

from ainfmf import cli

from test_cli import KSTAB, WORKED

EXIT_CODES = {cli.EXIT_OK, cli.EXIT_VERIFY, cli.EXIT_INPUT, cli.EXIT_CAP}
FUZZ = settings(max_examples=300, derandomize=True, deadline=None,
                database=None)


def either(*options):
    """A value of one of the strategies, the strategy drawn first: a | b
    flattens a nested one_of in a, so each of its branches would weigh
    as much as b."""
    return st.sampled_from(options).flatmap(lambda option: option)


# strings that reach past the first check: labels, forms and small
# polynomials, a few malformed, plus short arbitrary text
WORDS = either(st.sampled_from(["X", "Y", "Z", "k", "r", "mu", "x", "y",
                                "x^2", "x^3", "1/5*x^3", "1/5*x^4",
                                "x^2+y^2", "x*y", "1", "0", "1/0", "x^^2",
                                ""]),
               st.text(max_size=3))
SCALARS = either(st.none(), st.booleans(), st.integers(-1, 3), WORDS)
JSON = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(WORDS, inner, max_size=3),
    max_leaves=8)
# command arguments: integers, labels, and lists of labels, forms or
# polynomials as paths, forms and decompositions take them, so that some
# entries pass every check; or any JSON value
VALUES = either(st.integers(-1, 3), st.sampled_from(["X", "Y"]),
                st.lists(st.sampled_from(["X", "Y", "r", "mu", "1/5*x^4"]),
                         min_size=1, max_size=4),
                JSON)

QUADRIC2 = {"variables": ["x", "y"], "potential": "x^2 + y^2",
            "objects": [{"label": "K", "pairs": [["x", "x"], ["y", "y"]]}],
            "cap": 1}
POLYS = st.sampled_from(["x", "x^2", "x^3", "y", "y^2", "x*y", "1/5*x^3",
                         "x^3 + y^3", "0", "1"])
LABELS = st.sampled_from(["X", "Y", "K", "k"])
# [f, g] pairs, and pairs of the wrong length
PAIRS = st.lists(st.lists(POLYS, min_size=1, max_size=3), max_size=2)
OBJECT = either(
    st.builds(lambda label, pairs: {"label": label, "pairs": pairs},
              LABELS, PAIRS),
    st.fixed_dictionaries({}, optional={"label": either(LABELS, SCALARS),
                                        "pairs": either(PAIRS, JSON),
                                        "extra": JSON}),
    SCALARS)
ROWS = st.lists(st.lists(POLYS, max_size=2), max_size=2)
HOMOTOPY = either(
    st.fixed_dictionaries({"F": ROWS, "G": ROWS}),
    st.fixed_dictionaries({}, optional={"F": JSON, "G": JSON,
                                        "extra": JSON}),
    SCALARS)
# per spec field, values of about the right shape and malformed ones;
# the homotopies are drawn for the labels of the spec at hand
FIELDS = {
    "variables": either(st.sampled_from([["x"], ["x", "y"], ["x", "x"],
                                         ["1x"], [], [5]]), SCALARS),
    "potential": either(POLYS, SCALARS),
    "t_sequence": either(st.lists(POLYS, max_size=2), SCALARS),
    "order": either(st.sampled_from(["grevlex", "lex", "bogus"]), SCALARS),
    "cap": SCALARS,
    "objects": either(st.lists(OBJECT, min_size=1, max_size=3), SCALARS),
    "commands": either(st.lists(either(
        st.sampled_from(["basis", "groebner", "gamma", "vertices", "bogus"]),
        st.fixed_dictionaries(
            {"command": st.sampled_from(["gamma", "expand"])},
            optional={"cap": SCALARS, "polynomial": either(POLYS, SCALARS)}),
        JSON), max_size=3), SCALARS),
    "extra": JSON,
}


@st.composite
def specs(draw):
    """A valid spec with one to three fields redrawn: each drawn as a
    value of about the right shape or a malformed one, null, or left
    out; the commands are cheap ones and malformed entries.  Now and then
    the spec is any JSON value instead."""
    if draw(st.sampled_from([False] * 9 + [True])):
        return draw(JSON)
    spec = dict(draw(st.sampled_from([WORKED, KSTAB, QUADRIC2])),
                commands=["basis", "vertices"])
    labels = [desc["label"] for desc in spec["objects"]]
    fields = dict(FIELDS, homotopies=either(
        st.dictionaries(st.sampled_from(labels + ["Z"]), HOMOTOPY,
                        min_size=1, max_size=2),
        SCALARS))
    count = draw(st.sampled_from([1, 1, 2, 3]))
    for field in draw(st.lists(st.sampled_from(sorted(fields)), unique=True,
                               min_size=count, max_size=count)):
        how = draw(st.sampled_from(["draw", "null", "drop"]))
        spec.pop(field, None)
        if how != "drop":
            spec[field] = draw(fields[field]) if how == "draw" else None
    return spec


@FUZZ
@given(specs())
def test_drawn_specs_exit_with_a_documented_code(spec):
    _, code = cli.run(spec)
    assert code in EXIT_CODES


@st.composite
def command_entries(draw):
    """One entry of a command of COMMANDS, or of an unknown one, with
    arguments among those it reads, and now and then one it does not."""
    name = draw(st.sampled_from(sorted(cli.COMMANDS) + ["frobnicate"]))
    known = cli.COMMANDS.get(name, ())
    keys = sorted(draw(st.sets(st.sampled_from(known)))) if known else []
    if draw(st.sampled_from([False] * 4 + [True])):
        keys.append("extra")
    return dict({key: draw(VALUES) for key in keys}, command=name)


@FUZZ
@given(command_entries())
def test_drawn_commands_exit_with_a_documented_code(entry):
    _, code = cli.run(dict(WORKED, cap=1), commands=[entry])
    assert code in EXIT_CODES
