"""The demos and the console entry point run to completion, and the
reports of the demo spec, the two-variable spec and the residue-field
spec match their pinned golden files.

Each demo runs in a fresh interpreter from the repository root, with
the package on PYTHONPATH, and must exit 0.
"""

import json
import os
import subprocess
import sys

import pytest

from ainfmf import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(*args, hash_seed=None, stdin=None):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = hash_seed
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          input=stdin, capture_output=True, text=True,
                          timeout=120)


@pytest.mark.parametrize("demo", ["worked_example.py", "residue_field.py"])
def test_demo_runs(demo):
    proc = run(os.path.join("demos", demo))
    assert proc.returncode == 0, proc.stderr


def test_cli_runs_demo_spec():
    proc = run("-m", "ainfmf.cli", "run", "demos/worked_example.json")
    assert proc.returncode == 0, proc.stderr
    assert '"ok": true' in proc.stdout


# x1^2+x2^2+x3^2 at cap 2: H_hat's columns are built in the order the
# commands read them; the default sdr-verify margin 3 would leave no key
QUADRIC3 = {"variables": ["x1", "x2", "x3"],
            "potential": "x1^2 + x2^2 + x3^2", "cap": 2,
            "objects": [{"label": "K", "pairs": [["x1", "x1"], ["x2", "x2"],
                                                 ["x3", "x3"]]}],
            "commands": [{"command": "sdr-verify", "margin": 1},
                         {"command": "verify-ainf", "level": 2},
                         "e1", {"command": "rho", "k": 2,
                                "path": ["K", "K", "K"]}]}
CANONICAL = ("import json, sys\n"
             "from ainfmf import cli\n"
             "report, code = cli.run(json.load(sys.stdin))\n"
             "sys.stdout.write(cli.canonical(report).decode())\n"
             "sys.exit(code)\n")


def test_report_does_not_depend_on_the_hash_seed():
    # the canonical report is byte-identical under two PYTHONHASHSEEDs
    reports = []
    for seed in ("1", "2"):
        proc = run("-c", CANONICAL, hash_seed=seed,
                   stdin=json.dumps(QUADRIC3))
        assert proc.returncode == 0, proc.stderr
        reports.append(proc.stdout)
    assert reports[0] == reports[1]
    assert '"ok": true' in reports[0]


def matches_golden(name):
    """The canonical report of demos/<name>.json equals its pinned
    demos/<name>.golden.json."""
    with open(os.path.join(ROOT, "demos", name + ".json")) as fh:
        report, code = cli.run(json.load(fh))
    assert code == cli.EXIT_OK
    golden = os.path.join(ROOT, "demos", name + ".golden.json")
    assert cli.pin(report, golden) == []


def test_demo_report_matches_golden():
    matches_golden("worked_example")


def test_two_variable_report_matches_golden():
    # rank two with two objects: the pinned reports of delta with two
    # thetas, of both presentations and of feynman on K, L, K
    matches_golden("two_variable")


def test_residue_field_report_matches_golden():
    # kstab feeds the span tables kernel states rather than basis keys;
    # with rho_3, verify-ainf level 3 and feynman k=3 on one object
    matches_golden("residue_field")
