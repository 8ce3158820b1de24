"""One measured repetition of a benchmark workload, in a fresh process.

Reads a job from standard input as JSON:

    {"spec": {...}, "pairs": [[0, 0], ...], "trace": false,
     "report_out": "...", "spans_out": null}

and prints one JSON object as the last line of standard output with the
set-up times, the solve and emit times, peak resident memory, the exit
code and report of `ainfmf run`, each command's time, and a digest of
the timing-free canonical report.  With "trace" on, wrappers from
tracing.py are installed around the package's entry points before
anything runs, and the result also carries the per-layer metrics.

The program is driven only through its public front door: the problem
is built by ainfmf.cli.Problem and each needed arena by Model.pair
(the set-up), then cli.run executes the spec's command list on that
problem (the solve) and cli's report writer emits the report.  Commands
are timed here, from outside the package, by wrapping the command
functions cli.run dispatches to.
"""

import contextlib
import gc
import hashlib
import json
import os
import resource
import sys
import time

# Set-up is repeated in two windows, one before the solve and one after
# the report is emitted, while the next build is predicted to fit in
# SETUP_WINDOW_S, so that it samples the host's speed at both ends of
# the repetition rather than at one instant.  A set-up longer than the
# window runs once, before the solve.
SETUP_WINDOW_S = 1.0
MAX_SETUPS = 50  # per window


def build(cli, spec, pairs):
    prob = cli.Problem(spec)
    for s, t in pairs:
        prob.model.pair(s, t)
    return prob


def set_up(cli, job, span, times, repeat):
    """Build the problem, timing each build into `times`; with `repeat`,
    build again while the next build is predicted to fit in the window.
    Only the last problem is kept: the previous one is released before
    each rebuild, so peak memory reflects a single set-up."""
    prob = None
    spent = 0.0
    for _ in range(MAX_SETUPS):
        prob = None
        gc.collect()
        t0 = time.perf_counter()
        with span("setup"):
            prob = build(cli, job["spec"], job["pairs"])
        times.append(time.perf_counter() - t0)
        spent += times[-1]
        if not repeat or spent + times[-1] > SETUP_WINDOW_S:
            break
    return prob


@contextlib.contextmanager
def solving_on(cli, prob, span, seconds):
    """Make cli.run solve on the already built `prob`, and time each
    command it dispatches into `seconds`.  cli.run looks up Problem,
    cmd_feynman and DISPATCH in its module when it runs."""
    saved = cli.Problem, cli.cmd_feynman, cli.DISPATCH

    def timed(name, fn):
        def command(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                with span("command"):
                    return fn(*args, **kwargs)
            finally:
                seconds.append([name, time.perf_counter() - t0])
        return command

    cli.Problem = lambda raw, cap_override=None, presentation=None: prob
    cli.cmd_feynman = timed("feynman", cli.cmd_feynman)
    cli.DISPATCH = {name: timed(name, fn) for name, fn in cli.DISPATCH.items()}
    try:
        yield
    finally:
        cli.Problem, cli.cmd_feynman, cli.DISPATCH = saved


def main():
    job = json.load(sys.stdin)
    tracer = None
    if job.get("trace"):
        import tracing

        tracer = tracing.install()
    from ainfmf import cli

    if tracer is not None:
        span = tracer.span
    else:
        def span(name):
            return contextlib.nullcontext()

    # a traced repetition sets up once, so that its spans and counts
    # describe one set-up
    repeat = tracer is None
    setups = [[]]  # build times, one list per window
    prob = set_up(cli, job, span, setups[0], repeat)

    command_s = []
    t_solve = time.perf_counter()
    with solving_on(cli, prob, span, command_s):
        report, code = cli.run(job["spec"])
    solve_s = time.perf_counter() - t_solve

    t_emit = time.perf_counter()
    with span("cli.emit"):
        cli._emit(report, job["report_out"])
        canon = cli.canonical(report)
    emit_s = time.perf_counter() - t_emit

    out = {
        "setup_s": setups,
        "solve_s": solve_s,
        "emit_s": emit_s,
        "wall_s": setups[0][-1] + solve_s + emit_s,
        "exit_code": code,
        "report": report,
        "command_s": command_s,
        "canonical_sha256": hashlib.sha256(canon).hexdigest(),
    }
    if tracer is not None:
        out["layers"] = tracer.layer_metrics(
            prob, os.path.getsize(job["report_out"]))
        tracer.write_spans(job["spans_out"])
    out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if repeat and setups[0][-1] <= SETUP_WINDOW_S:
        prob = None
        setups.append([])
        set_up(cli, job, span, setups[-1], repeat)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
