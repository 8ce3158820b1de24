"""The demos and the console entry point run to completion, and the
demo spec's report matches its pinned golden file.

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


def run(*args):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("demo", ["worked_example.py", "residue_field.py"])
def test_demo_runs(demo):
    proc = run(os.path.join("demos", demo))
    assert proc.returncode == 0, proc.stderr


def test_cli_runs_demo_spec():
    proc = run("-m", "ainfmf.cli", "run", "demos/worked_example.json")
    assert proc.returncode == 0, proc.stderr
    assert '"ok": true' in proc.stdout


def test_demo_report_matches_golden():
    # the canonical report of the demo spec is pinned in the repository
    with open(os.path.join(ROOT, "demos", "worked_example.json")) as fh:
        report, code = cli.run(json.load(fh))
    assert code == cli.EXIT_OK
    golden = os.path.join(ROOT, "demos", "worked_example.golden.json")
    assert cli.pin(report, golden) == []
