"""Spans and counts around the entry points of each ainfmf module.

install() wraps the entry points listed in SPANS and COUNTS in place,
from outside the package: no source file changes.  A span records its
name, start, end (integer nanoseconds) and the span open when it
started.  Spans stay in memory in flat arrays until the run ends; then
write_spans() stores them and layer_metrics() reduces them to per-layer
self time, a span's duration minus the time its child spans cover.
Counts are call counts, plus sizes read from the objects at the end.
"""

import contextlib
import functools
import importlib
import json
import sys
import time
from array import array
from collections import Counter

# (module, qualified attribute, span name).  Every name a module bound
# with `from ... import` is patched as well, so cli's direct references
# are traced too.
SPANS = [
    ("ainfmf.cli", "Problem.__init__", "cli.problem"),
    ("ainfmf.quotient", "QuotientBasis.__init__", "quotient.basis"),
    ("ainfmf.quotient", "GammaTensor.__init__", "quotient.gamma"),
    ("ainfmf.sdrcore", "Arena.__init__", "sdrcore.arena"),
    ("ainfmf.sdrcore", "Arena.sdr_verify", "sdrcore.sdr_verify"),
    ("ainfmf.superspace", "LinearOp.compose", "superspace.compose"),
    ("ainfmf.superspace", "LinearOp.__add__", "superspace.add"),
    ("ainfmf.superspace", "LinearOp.apply", "superspace.apply"),
    ("ainfmf.ainfmodel", "Model.verify_ainf", "ainfmodel.verify"),
    ("ainfmf.ainfmodel", "Model.mu2_transported", "ainfmodel.mu2"),
    ("ainfmf.ainfmodel", "Model.e1_and_clifford", "linalg.e1_and_clifford"),
    ("ainfmf.ainfmodel", "cohomology", "linalg.cohomology"),
    ("ainfmf.ainfmodel", "induced_map", "linalg.induced_map"),
    ("ainfmf.treealg", "mirror_eval", "treealg.mirror_eval"),
    ("ainfmf.normalorder", "FeynmanBackend.tree_state", "normalorder.tree_state"),
    ("ainfmf.normalorder", "EdgeEngine.__init__", "normalorder.engine"),
    ("ainfmf.normalorder", "VertexCatalog.__init__", "normalorder.catalog"),
]

# call counts only: these run too often, or too briefly, for a span each
COUNTS = [
    ("ainfmf.ainfmodel", "Model.rho_apply", "ainfmodel.rho_apply"),
]

# every per-layer metric with its unit.  layer_metrics() gives all but
# trace.overhead_s, which run.py takes from the traced and untraced
# repetitions of one run.
PER_LAYER = [
    ("quotient.basis_s", "s"), ("quotient.gamma_s", "s"),
    ("quotient.gamma_entries", "count"),
    ("sdrcore.arena_s", "s"), ("sdrcore.arenas", "count"),
    ("sdrcore.arena_keys", "count"), ("sdrcore.op_entries", "count"),
    ("sdrcore.sdr_verify_s", "s"),
    ("superspace.compose_calls", "count"), ("superspace.compose_s", "s"),
    ("superspace.add_calls", "count"), ("superspace.add_s", "s"),
    ("superspace.apply_calls", "count"), ("superspace.apply_s", "s"),
    ("ainfmodel.rho_table_s", "s"), ("ainfmodel.rho_tables", "count"),
    ("ainfmodel.rho_nnz", "count"), ("ainfmodel.verify_s", "s"),
    ("ainfmodel.mu2_s", "s"), ("ainfmodel.rho_apply_calls", "count"),
    ("ainfmodel.mu2_calls", "count"),
    ("ainfmodel.compose_cache_entries", "count"),
    ("treealg.mirror_eval_s", "s"), ("treealg.mirror_eval_calls", "count"),
    ("normalorder.tree_state_s", "s"),
    ("normalorder.tree_state_calls", "count"),
    ("normalorder.engine_s", "s"), ("normalorder.leaf_memo", "count"),
    ("normalorder.edge_memo", "count"),
    ("normalorder.junction_entries", "count"),
    ("linalg.e1_clifford_s", "s"),
    ("cli.problem_s", "s"), ("cli.emit_s", "s"),
    ("cli.report_bytes", "bytes"),
    ("trace.overhead_s", "s"),
]

OPERATORS = ("d_A", "delta", "nabla", "At", "sigma_infty", "phi_infty",
             "Phi", "Phi_inv", "H_hat")


class Tracer:
    def __init__(self):
        self._ids = {}
        self.names = []
        self.name = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.stack = []
        self.calls = Counter()
        self.backends = []

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid):
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.start.append(time.perf_counter_ns())
        self.end.append(0)
        self.stack.append(idx)
        return idx

    def close(self, idx):
        self.end[idx] = time.perf_counter_ns()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        idx = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(idx)

    def spanned(self, name, fn):
        nid = self.name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return wrapper

    def counted(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def self_times(self):
        """name -> (self seconds, span count)."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        self_ns = Counter()
        count = Counter()
        for i in range(n):
            name = self.names[self.name[i]]
            self_ns[name] += dur[i] - child[i]
            count[name] += 1
        return {k: (self_ns[k] / 1e9, count[k]) for k in count}

    def write_spans(self, path):
        """JSON header line, then one `name parent start end` line per
        span; parent is a line index into the spans, -1 for none."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"names": self.names,
                                 "spans": len(self.start),
                                 "clock": "perf_counter_ns"}) + "\n")
            for i in range(len(self.start)):
                fh.write("%d %d %d %d\n" % (self.name[i], self.parent[i],
                                            self.start[i], self.end[i]))

    def layer_metrics(self, prob, report_bytes):
        st = self.self_times()

        def secs(*names):
            return sum(st.get(n, (0.0, 0))[0] for n in names)

        def calls(name):
            return st.get(name, (0.0, 0))[1]

        model = prob.model
        arenas = [pd.arena for pd in model._pairs.values()]
        engines = [e for b in self.backends for e in b._engines.values()]
        return {
            "quotient.basis_s": secs("quotient.basis"),
            "quotient.gamma_s": secs("quotient.gamma"),
            "quotient.gamma_entries": len(model.gamma.entries),
            "sdrcore.arena_s": secs("sdrcore.arena"),
            "sdrcore.arenas": len(arenas),
            "sdrcore.arena_keys": sum(
                sum(1 for _ in a.space.basis()) for a in arenas),
            "sdrcore.op_entries": sum(
                len(col) for a in arenas for op in OPERATORS
                for col in getattr(a, op).cols.values()),
            "sdrcore.sdr_verify_s": secs("sdrcore.sdr_verify"),
            "superspace.compose_calls": calls("superspace.compose"),
            "superspace.compose_s": secs("superspace.compose"),
            "superspace.add_calls": calls("superspace.add"),
            "superspace.add_s": secs("superspace.add"),
            "superspace.apply_calls": calls("superspace.apply"),
            "superspace.apply_s": secs("superspace.apply"),
            "ainfmodel.rho_table_s": secs("ainfmodel.rho_table"),
            "ainfmodel.rho_tables": len(model._tables),
            "ainfmodel.rho_nnz": sum(
                1 for table in model._tables.values()
                for state in table.values() for v in state.values() if v),
            "ainfmodel.verify_s": secs("ainfmodel.verify"),
            "ainfmodel.mu2_s": secs("ainfmodel.mu2"),
            "ainfmodel.rho_apply_calls": self.calls["ainfmodel.rho_apply"],
            "ainfmodel.mu2_calls": calls("ainfmodel.mu2"),
            "ainfmodel.compose_cache_entries": len(model._term_comp),
            "treealg.mirror_eval_s": secs("treealg.mirror_eval"),
            "treealg.mirror_eval_calls": calls("treealg.mirror_eval"),
            "normalorder.tree_state_s": secs("normalorder.tree_state"),
            "normalorder.tree_state_calls": calls("normalorder.tree_state"),
            "normalorder.engine_s": secs("normalorder.engine",
                                         "normalorder.catalog"),
            "normalorder.leaf_memo": sum(len(e._leaf) for e in engines),
            "normalorder.edge_memo": sum(len(e._edge) for e in engines),
            "normalorder.junction_entries": sum(
                len(b._junction) for b in self.backends),
            "linalg.e1_clifford_s": secs("linalg.e1_and_clifford",
                                         "linalg.cohomology",
                                         "linalg.induced_map"),
            "cli.problem_s": secs("cli.problem"),
            "cli.emit_s": secs("cli.emit"),
            "cli.report_bytes": report_bytes,
        }


def _patch(modname, attr, make):
    """Replace modname.attr (attr may be Class.method) with
    make(original); rebind every ainfmf module global that referred to a
    patched module-level function."""
    mod = importlib.import_module(modname)
    owner, _, leaf = attr.rpartition(".")
    holder = getattr(mod, owner) if owner else mod
    original = getattr(holder, leaf)
    setattr(holder, leaf, make(original))
    if not owner:
        for other in list(sys.modules.values()):
            name = getattr(other, "__name__", "")
            if name.startswith("ainfmf") and getattr(other, leaf, None) is original:
                setattr(other, leaf, getattr(holder, leaf))


def install():
    """Wrap the entry points and return the tracer that records them."""
    tracer = Tracer()
    importlib.import_module("ainfmf.cli")  # load every module first
    for modname, attr, name in SPANS:
        _patch(modname, attr, functools.partial(tracer.spanned, name))
    for modname, attr, name in COUNTS:
        _patch(modname, attr, functools.partial(tracer.counted, name))

    from ainfmf.ainfmodel import Model
    from ainfmf.normalorder import FeynmanBackend

    # rho_table is looked up on every rho_apply; only a build is a span
    lookup = Model.rho_table
    build = tracer.spanned("ainfmodel.rho_table", lookup)

    @functools.wraps(lookup)
    def rho_table(model, k, path):
        if (k, tuple(path)) in model._tables:
            return lookup(model, k, path)
        return build(model, k, path)

    Model.rho_table = rho_table

    # backends are local to each feynman command; keep them for counts
    init = FeynmanBackend.__init__

    @functools.wraps(init)
    def backend_init(backend, model):
        init(backend, model)
        tracer.backends.append(backend)

    FeynmanBackend.__init__ = backend_init
    return tracer
