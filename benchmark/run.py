#!/usr/bin/env python3
"""Benchmark for ainfmf: a verified A-infinity report, timed end to end.

    python3 benchmark/run.py --workload relations-worked --seed 1 \\
        --seconds 36 --trace 0

Run from the root of a source checkout.  The workload's problem spec is
generated from --seed; each repetition runs it in a fresh,
single-threaded Python process (worker.py) on the package under src/.
Repetitions continue while the next one is predicted to end within
--seconds; there are at least two, so that every run compares two
canonical reports.  In a traced run, untraced and traced repetitions
alternate.
Every repetition's verdicts and counts are checked.  The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics for --trace 0 and the per-layer metrics of
a traced run for --trace 1.  See README.md in this directory.
"""

import argparse
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

from tracing import PER_LAYER

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
RUN_LIMIT_S = 170  # a run must end within 180 s
MIN_REPS = 2

END_TO_END = [
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("wall_s", "s"),
    ("tuples_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
]

class Workload:
    """A base spec, the pairs its set-up builds, and the result fields
    each command must report.  Polynomials are strings; each object is
    a list of Koszul pairs (f, g)."""

    def __init__(self, name, variables, potential, objects, cap,
                 commands, pairs, expect):
        self.name = name
        self.variables = variables
        self.potential = potential
        self.objects = objects
        self.cap = cap
        self.commands = commands
        self.pairs = pairs
        self.expect = expect  # one dict of result fields per command

    def spec(self, seed):
        """The problem spec for a seed: W becomes c*W and every pair
        (f, g) becomes (a*f, (c/a)*g), so each object still factorises
        the new W and every basis and count is the same as for the base
        spec, while the coefficients change."""
        rng = random.Random("%s:%d" % (self.name, seed))

        def factor():
            x = Fraction(rng.randint(1, 5), rng.randint(1, 5))
            return x if rng.random() < 0.5 else -x

        c = factor()
        objects = []
        for label, pairs in self.objects:
            scaled = []
            for f, g in pairs:
                a = factor()
                scaled.append([_scaled(f, a), _scaled(g, c / a)])
            objects.append({"label": label, "pairs": scaled})
        return {
            "variables": self.variables,
            "potential": _scaled(self.potential, c),
            "objects": objects,
            "cap": self.cap,
            "commands": self.commands,
        }


def _scaled(poly, k):
    return "%s*(%s)" % (k, poly)


WORKED_OBJECTS = [("X", [("x^2", "1/5*x^3")]), ("Y", [("x^3", "1/5*x^2")])]
ALL_WORKED_PAIRS = [(0, 0), (0, 1), (1, 0), (1, 1)]
FEYNMAN_PATHS = [list("XYXY"), list("XXYY"), list("YXYX"), list("YYXX")]

WORKLOADS = {w.name: w for w in [
    Workload(
        "relations-worked",
        ["x"], "1/5*x^5", WORKED_OBJECTS, 2,
        [{"command": "verify-ainf", "level": 3}],
        ALL_WORKED_PAIRS,
        [{"checked": 67648, "failures": 0}],
    ),
    Workload(
        "arena-quadric3",
        ["x1", "x2", "x3"], "x1^2 + x2^2 + x3^2",
        [("K", [("x1", "x1"), ("x2", "x2"), ("x3", "x3")])], 3,
        ["sdr-verify", {"command": "verify-ainf", "level": 2}],
        [(0, 0)],
        [{}, {"checked": 4160, "failures": 0}],
    ),
    Workload(
        "backends-worked",
        ["x"], "1/5*x^5", WORKED_OBJECTS, 3,
        ["groebner", "basis",
         {"command": "expand", "polynomial": "x^2 + x^5"},
         {"command": "vertices", "source": "X", "target": "Y"},
         {"command": "rho", "k": 2, "path": ["X", "Y", "X"]},
         "sdr-verify", {"command": "verify-ainf", "level": 2}, "e1",
         "clifford"]
        + [{"command": "feynman", "k": 3, "path": p} for p in FEYNMAN_PATHS],
        ALL_WORKED_PAIRS,
        [{}, {"dimension": 4}, {}, {}, {}, {}, {"checked": 2112, "failures": 0},
         {}, {}]
        + [{"trees": 2, "tuples": 4096, "mismatches": 0}] * 4,
    ),
]}


# ----------------------------------------------------------------------
# one repetition


def run_rep(job, hash_seed, deadline):
    """Run one repetition in a fresh process.  Returns the worker's
    result, or None with a reason if the process failed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, HERE])
    # each repetition iterates sets and dicts in another order, so that
    # the canonical-report check catches output that depends on it
    env["PYTHONHASHSEED"] = str(hash_seed)
    with subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, cwd=ROOT, env=env, text=True) as proc:
        try:
            out, err = proc.communicate(
                json.dumps(job), timeout=max(deadline - time.monotonic(), 1))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return None, "timed out"
        except BaseException:  # interrupted: never leave the worker running
            proc.kill()
            proc.communicate()
            raise
    lines = out.strip().splitlines()
    try:
        return json.loads(lines[-1]), err
    except (IndexError, ValueError):
        return None, "no result (exit %d): %s" % (proc.returncode,
                                                  err.strip()[-400:])


def check_rep(workload, result, reference_digest):
    """List of (check name, passed) for one repetition."""
    results = result["report"]["results"]
    checks = [("ainfmf run exit code 0", result["exit_code"] == 0)]
    for i, (cmd, want) in enumerate(zip(results, workload.expect)):
        checks.append(("%d:%s ok" % (i, cmd["command"]), cmd["ok"]))
        got = cmd.get("result", {})
        for field, value in want.items():
            checks.append(("%d:%s %s == %r" % (i, cmd["command"], field, value),
                           got.get(field) == value))
    checks.append(("command count", len(results) == len(workload.expect)))
    if reference_digest is not None:
        checks.append(("canonical report repeats",
                       result["canonical_sha256"] == reference_digest))
    return checks


def tuples_checked(result):
    """Basis tuples the solve checked: verify-ainf `checked` plus
    feynman tuples x trees."""
    total = 0
    for cmd in result["report"]["results"]:
        res = cmd.get("result", {})
        if cmd["command"] == "verify-ainf":
            total += res.get("checked", 0)
        elif cmd["command"] == "feynman":
            total += res.get("tuples", 0) * res.get("trees", 0)
    return total


# ----------------------------------------------------------------------
# one run


def host_record():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return "host: nproc=%d python=%s cpu=%s" % (
        os.cpu_count(), platform.python_version(), cpu)


def measure(workload, seed, seconds, trace, log=print, out_dir=OUT):
    """Run repetitions for about `seconds`; returns the result object
    run.py prints last, or None if no repetition completed."""
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    rng = random.Random("hash:%d" % seed)
    # in a traced run, untraced and traced repetitions alternate; the
    # difference of their wall times is the tracing overhead
    modes = [False, True] if trace else [False]
    reps = []
    attempted = failed = 0
    digest = None
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, "%s-seed%d" % (workload.name, seed))
    spans_out = stem + ".spans"
    spec = workload.spec(seed)
    while True:
        mode = modes[len(reps) % len(modes)]
        job = {"spec": spec, "pairs": workload.pairs,
               "trace": mode, "report_out": stem + ".report.json",
               "spans_out": spans_out if mode else None}
        t0 = time.monotonic()
        result, err = run_rep(job, rng.randint(1, 2**32 - 1), deadline)
        if result is None:
            attempted += 1
            failed += 1
            log("FAIL repetition %d: %s" % (len(reps) + 1, err))
            break
        checks = check_rep(workload, result, digest)
        digest = digest or result["canonical_sha256"]
        attempted += len(checks)
        for name, ok in checks:
            if not ok:
                failed += 1
                log("FAIL check: %s" % name)
        result["traced"] = mode
        reps.append(result)
        now = time.monotonic()
        next_end = now + (now - t0)
        if next_end > deadline or (len(reps) >= MIN_REPS
                                   and next_end > start + seconds):
            break
    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    log(host_record())
    log("workload %s seed %d: %d repetitions (%d traced)"
        % (workload.name, seed, len(reps), len(traced)))
    if not plain or (trace and not traced):
        log("no complete repetition")
        return None
    metrics = end_to_end(plain)
    tuples = tuples_checked(plain[0])
    log("fixed counts: %s" % "; ".join(
        "%s %s" % (cmd["command"], " ".join(
            "%s=%s" % (k, cmd["result"].get(k)) for k in want))
        for cmd, want in zip(plain[0]["report"]["results"], workload.expect)
        if want and "result" in cmd))
    log("tuples checked per repetition: %d" % tuples)
    for name, secs in plain[0]["command_s"]:
        log("  %-12s %8.3f s" % (name, secs))
    log("per repetition: solve_s %s; setups %d"
        % (" ".join("%.3f" % r["solve_s"] for r in plain),
           sum(len(w) for r in plain for w in r["setup_s"])))
    for name, unit in END_TO_END:
        log("%-16s %12.4f %s" % (name, metrics[name]["value"], unit))
    log("fail_ratio       %12.4f (%d of %d checks failed)"
        % (failed / attempted, failed, attempted))
    if trace:
        metrics = per_layer(traced, plain)
        for name, unit in PER_LAYER:
            log("%-34s %14.4f %s" % (name, metrics[name]["value"], unit))
        log("spans written to %s" % spans_out)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def end_to_end(reps):
    tuples = tuples_checked(reps[0])
    values = {
        # the host switches between a fast and a slow speed every few
        # seconds, so a median of single builds flips between the two;
        # a window's mean tracks how long each speed lasted
        "setup_s": statistics.median(statistics.fmean(w)
                                     for r in reps for w in r["setup_s"]),
        "solve_s": statistics.median(r["solve_s"] for r in reps),
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "tuples_per_s": statistics.median(tuples / r["solve_s"] for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_kb"] for r in reps) / 1024,
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END}


def per_layer(traced, plain):
    values = {}
    for name in traced[0]["layers"]:
        values[name] = statistics.median(r["layers"][name] for r in traced)
    values["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                  - statistics.median(r["wall_s"] for r in plain))
    return {name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args(argv)
    # on SIGTERM, unwind so that run_rep stops its worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(SRC, "ainfmf", "cli.py")):
        print("error: no ainfmf sources under %s" % SRC, file=sys.stderr)
        return 2
    result = measure(WORKLOADS[ns.workload], ns.seed, ns.seconds, bool(ns.trace))
    if result is None:
        return 1
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
