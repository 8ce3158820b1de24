"""Self-test of the benchmark harness on a tiny stabilised-residue-field
spec (W = x^3, one object (x, x^2), cap 4) that runs in seconds.

    python3 -m pytest -q benchmark/tests
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

import run  # noqa: E402


def kstab(expect_checked=584):
    return run.Workload(
        "kstab", ["x"], "x^3", [("k", [("x", "x^2")])], 4,
        ["basis", {"command": "verify-ainf", "level": 3},
         {"command": "feynman", "k": 3}],
        [(0, 0)],
        [{"dimension": 2}, {"checked": expect_checked, "failures": 0},
         {"tuples": 512, "trees": 2, "mismatches": 0}],
    )


def measure(workload, trace, tmp_path):
    lines = []
    result = run.measure(workload, seed=3, seconds=0, trace=trace,
                         log=lines.append, out_dir=str(tmp_path))
    return result, "\n".join(lines)


def assert_reported(result, text, metrics):
    assert set(result["metrics"]) == {name for name, _ in metrics}
    for name, unit in metrics:
        assert result["metrics"][name]["unit"] == unit
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit
                   for line in text.splitlines()), name


def test_end_to_end_metrics_printed_with_units(tmp_path):
    result, text = measure(kstab(), False, tmp_path)
    assert result["correct"], text
    assert result["failed"] == 0 and result["attempted"] > 0
    assert_reported(result, text, run.END_TO_END)
    assert "fail_ratio" in text and "host: nproc=" in text
    for name, _ in run.END_TO_END:
        assert result["metrics"][name]["value"] > 0


def test_traced_run_reports_every_layer_metric(tmp_path):
    result, text = measure(kstab(), True, tmp_path)
    assert result["correct"], text
    assert_reported(result, text, run.PER_LAYER)
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["normalorder.tree_state_calls"] == 2 * 512
    assert values["treealg.mirror_eval_calls"] == 2 * 512
    assert values["sdrcore.arenas"] == 1
    assert values["ainfmodel.verify_s"] > 0
    with open(os.path.join(str(tmp_path), "kstab-seed3.spans")) as fh:
        header = json.loads(fh.readline())
        assert header["spans"] == sum(1 for _ in fh)
    assert "superspace.apply" in header["names"]


def test_wrong_expected_count_is_a_failure(tmp_path):
    result, text = measure(kstab(expect_checked=585), False, tmp_path)
    assert not result["correct"]
    assert result["failed"] >= 2  # one per repetition
    assert "checked == 585" in text


def test_metric_lists_match_benchmark_json():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    for key, metrics in [("end_to_end", run.END_TO_END),
                         ("per_layer", run.PER_LAYER)]:
        assert [(m["name"], m["unit"]) for m in declared[key]] == metrics
    assert sorted(w["name"] for w in declared["workloads"]) == \
        sorted(run.WORKLOADS)


def test_spec_depends_only_on_seed():
    w = run.WORKLOADS["backends-worked"]
    assert w.spec(7) == w.spec(7)
    assert w.spec(7)["potential"] != w.spec(8)["potential"] or \
        w.spec(7)["objects"] != w.spec(8)["objects"]


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_every_workload_spec_is_accepted(name):
    sys.path.insert(0, run.SRC)
    from ainfmf import cli

    w = run.WORKLOADS[name]
    prob = cli.Problem(w.spec(5))
    assert len(w.expect) == len(w.commands)
    assert len(prob.labels) == len(w.objects)


def test_fails_without_the_program(tmp_path):
    root = tmp_path / "bare"
    shutil.copytree(BENCH, root / "benchmark",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), root)
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "backends-worked",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
