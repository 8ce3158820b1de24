"""Batch front door: JSON problem specs in, JSON reports out.

A problem spec is a JSON object:

    {
      "variables": ["x"],
      "potential": "1/5*x^5",
      "t_sequence": ["x^4"],          # optional, default: partials of W
      "objects": [
        {"label": "X", "pairs": [["x^2", "1/5*x^3"]]},
        {"label": "Y", "pairs": [["x^3", "1/5*x^2"]]}
      ],
      "homotopies": {"X": {"F": [["2*x"]],
                            "G": [["3/5*x^2"]]}},   # optional
      "cap": 3,
      "order": "grevlex",             # optional
      "commands": ["basis", {"command": "verify-ainf", "level": 2}]
    }

Subcommands: groebner basis gamma expand vertices rho verify-ainf
sdr-verify e1 clifford kstab feynman, plus `run` (execute the spec's own
command list) and `pin` (regression-compare a report against a golden
file).  Exit codes: 0 all verifications pass, 1 verification failure,
2 input error, 3 cap insufficiency.  Every number in a report is an
exact rational rendered "p/q".

Unknown keys in the spec, in an object or in a command entry are input
errors.  feynman checks the rho_k tables that rho and verify-ainf
report against the normal-ordering backend's signed tree sums, and
counts the basis tuples where they disagree as mismatches; a cap below
the margin n (k - 1) is cap insufficiency.  So is cap 0 for e1,
clifford and kstab, where no key has the t-degree that At needs.
"""

import argparse
import json
import sys
import time
from fractions import Fraction
from itertools import islice, product

from .ainfmodel import (
    DecompositionInvalid,
    Model,
    cohomology,
    induced_map,
    kstab_minimal,
)
from .linalg import mat_mul
from .mfcat import HomotopyIdentityFailed, HomotopySet, koszul_mf
from .normalorder import FeynmanBackend, VertexCatalog, check_cap
from .poly import ORDERS, is_variable_name, parse_poly
from .quotient import CapExceeded, GammaTensor, QuotientBasis, t_adic_expand
from .superspace import add_into
from .treealg import enumerate_binary, mirror_sign

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_CAP = 3

SPEC_KEYS = ("variables", "potential", "t_sequence", "order", "cap",
             "objects", "homotopies", "commands")
OBJECT_KEYS = ("label", "pairs")
PAIR_ARGS = ("source", "target")
# each command with the arguments it reads
COMMANDS = {
    "groebner": (),
    "basis": (),
    "gamma": ("cap",),
    "expand": ("polynomial", "cap"),
    "vertices": PAIR_ARGS,
    "rho": ("k", "path"),
    "verify-ainf": ("level", "forms"),
    "sdr-verify": PAIR_ARGS + ("margin",),
    "e1": PAIR_ARGS,
    "clifford": PAIR_ARGS,
    "kstab": ("object", "decomposition", "level"),
    "feynman": ("k", "path", "limit"),
}


class InputError(Exception):
    pass


def frac(x):
    x = Fraction(x)
    return "%d/%d" % (x.numerator, x.denominator)


_REQUIRED = object()
_KINDS = {list: "list", dict: "JSON object", str: "string"}


def _known_keys(desc, keys, where):
    """InputError naming every key of desc outside keys."""
    unknown = sorted(set(desc) - set(keys))
    if unknown:
        raise InputError("%s: unknown keys %s (known: %s)"
                         % (where, ", ".join(map(repr, unknown)),
                            ", ".join(map(repr, keys)) or "none"))


def _field(desc, name, kind, where, default=_REQUIRED):
    """desc[name] checked to be of type kind (never a bool).  An absent
    or null field gives the default, or an InputError when there is
    none."""
    value = desc.get(name)
    if value is None:
        if default is _REQUIRED:
            raise InputError("%s needs a %r field" % (where, name))
        return default
    if isinstance(value, bool) or not isinstance(value, kind):
        raise InputError("%s: %r must be a %s" % (where, name, _KINDS[kind]))
    return value


class Problem:
    """Validated problem spec plus the model built from it.  Every
    malformed field raises InputError."""

    def __init__(self, raw, cap_override=None):
        if not isinstance(raw, dict):
            raise InputError("spec must be a JSON object")
        _known_keys(raw, SPEC_KEYS, "spec")
        self.varnames = _field(raw, "variables", list, "spec")
        if not self.varnames or not all(isinstance(v, str) for v in self.varnames):
            raise InputError("variables must be a non-empty list of names")
        for i, name in enumerate(self.varnames):
            if not is_variable_name(name):
                raise InputError("variable %r is not a name the polynomial "
                                 "parser reads" % name)
            if name in self.varnames[:i]:
                raise InputError("duplicate variable name %r" % name)
        self.nvars = len(self.varnames)
        if raw.get("potential") is None:
            raise InputError("spec needs a 'potential' field")
        self.W = self._poly(raw["potential"])
        tseq = _field(raw, "t_sequence", list, "spec", None)
        if tseq is None:
            self.tseq = [self.W.diff(i) for i in range(self.nvars)]
        else:
            self.tseq = [self._poly(s) for s in tseq]
        self.order = _field(raw, "order", str, "spec", "grevlex")
        if self.order not in ORDERS:
            raise InputError("order must be one of %s" % ", ".join(ORDERS))
        self.cap = cap_override if cap_override is not None else raw.get("cap", 3)
        if isinstance(self.cap, bool) or not isinstance(self.cap, int) or self.cap < 0:
            raise InputError("cap must be a non-negative integer")
        try:
            self.qb = QuotientBasis(self.tseq, self.order)
        except ValueError as exc:
            raise InputError("bad t-sequence: %s" % exc) from exc
        self.labels = []
        objects = []
        for desc in _field(raw, "objects", list, "spec", []):
            if not isinstance(desc, dict):
                raise InputError("each object must be a JSON object")
            label = _field(desc, "label", str, "object", "M%d" % len(objects))
            _known_keys(desc, OBJECT_KEYS, "object %r" % label)
            if label in self.labels:
                raise InputError("duplicate object label %r" % label)
            pairs = []
            for pair in _field(desc, "pairs", list, "object %r" % label):
                if not isinstance(pair, list) or len(pair) != 2:
                    raise InputError("object %r: each pair must be [f, g]" % label)
                pairs.append((self._poly(pair[0]), self._poly(pair[1])))
            try:
                objects.append(koszul_mf(pairs, self.W, label))
            except Exception as exc:
                raise InputError("object %r: %s" % (label, exc)) from exc
            self.labels.append(label)
        homotopies = {}
        for label, desc in _field(raw, "homotopies", dict, "spec", {}).items():
            if label not in self.labels:
                raise InputError("homotopy for unknown object %r" % label)
            idx = self.labels.index(label)
            homotopies[idx] = self._homotopy(desc, objects[idx].r,
                                             "homotopy %r" % label)
        self.model = None
        if objects:
            try:
                self.model = Model(objects, self.qb, self.cap,
                                   homotopies=homotopies)
            except HomotopyIdentityFailed as exc:
                raise InputError(
                    "homotopies do not fit the t-sequence (%s); give each "
                    "object homotopies F, G with sum_i (F_ki g_i + G_ki f_i)"
                    " = t_k" % exc) from exc
            except ValueError as exc:
                raise InputError(str(exc)) from exc

    def _homotopy(self, desc, rank, where):
        """The HomotopySet of a spec entry for an object of the given
        rank: per t-sequence index one "F" and one "G" row of rank
        polynomials, and no other key."""
        if not isinstance(desc, dict):
            raise InputError("%s must be a JSON object" % where)
        _known_keys(desc, ("F", "G"), where)
        n = len(self.tseq)
        F, G = [], []
        for name, rows in (("F", F), ("G", G)):
            for row in _field(desc, name, list, where):
                if not isinstance(row, list) or len(row) != rank:
                    raise InputError("%s: each %r row must hold %d polynomials"
                                     % (where, name, rank))
                rows.append([self._poly(p) for p in row])
            if len(rows) != n:
                raise InputError("%s: %r must hold %d rows" % (where, name, n))
        return HomotopySet(F, G)

    def _poly(self, text):
        try:
            return parse_poly(str(text), self.nvars, self.varnames)
        except ValueError as exc:
            raise InputError("cannot parse %r: %s" % (text, exc)) from exc

    def need_model(self):
        if self.model is None:
            raise InputError("this command needs at least one object")
        return self.model

    def obj_index(self, label):
        if isinstance(label, bool):
            raise InputError("object index %s is a boolean, not an integer"
                             % json.dumps(label))
        if isinstance(label, int):
            if 0 <= label < len(self.labels):
                return label
            raise InputError("object index %r out of range" % label)
        if label not in self.labels:
            raise InputError("unknown object label %r" % label)
        return self.labels.index(label)

    def path_indices(self, path):
        if not isinstance(path, list):
            raise InputError("path must be a list of object labels")
        return tuple(self.obj_index(p) for p in path)


# ----------------------------------------------------------------------
# command implementations; each returns (result_dict, ok, cap_ok)


def _int_arg(args, name, default, minimum):
    """The integer argument args[name] (default when absent), checked to
    be an int, not a bool, and >= minimum.  A default of None stays
    None when the argument is absent or null."""
    value = args.get(name, default)
    if value is None and default is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise InputError("%s must be an integer >= %d" % (name, minimum))
    return value


def cmd_groebner(prob, args):
    gb = prob.qb.gb
    check = True
    for g, cof in zip(gb.basis, gb.cofactors):
        acc = None
        for h, t in zip(cof, prob.tseq):
            term = h * t
            acc = term if acc is None else acc + term
        if acc != g:
            check = False
    return {
        "basis": [str(g) for g in gb.basis],
        "cofactors_verified": check,
    }, check, True


def cmd_basis(prob, args):
    qb = prob.qb
    rows = []
    for i, mono in enumerate(qb.monomials):
        rows.append({
            "index": i,
            "label": "z%d" % (i + 1),
            "monomial": str(qb.basis_poly(i)),
        })
    return {"dimension": qb.mu, "monomials": rows}, True, True


def cmd_gamma(prob, args):
    cap = _int_arg(args, "cap", prob.cap, 0)
    g = GammaTensor(prob.qb, cap)
    entries = sorted(
        ([i, j, k, list(d), frac(c)] for (i, j, k, d), c in g.entries.items() if c),
        key=str,
    )
    return {"cap": cap, "entries": entries}, True, True


def cmd_expand(prob, args):
    if "polynomial" not in args:
        raise InputError("expand needs a \"polynomial\" argument")
    r = prob._poly(args["polynomial"])
    cap = _int_arg(args, "cap", prob.cap, 0)
    exp = t_adic_expand(r, prob.qb, cap)
    coeffs = sorted(
        ([i, list(d), frac(c)] for (i, d), c in exp.coefficients.items() if c),
        key=str,
    )
    return {
        "polynomial": str(r),
        "cap": cap,
        "coefficients": coeffs,
        "exact_beyond_cap": exp.exact_beyond_cap,
    }, True, exp.exact_beyond_cap


def _pair_list(prob, args):
    m = prob.need_model()
    if "source" in args or "target" in args:
        s = prob.obj_index(args.get("source", prob.labels[0]))
        t = prob.obj_index(args.get("target", prob.labels[0]))
        return [(s, t)]
    k = len(m.objects)
    return [(s, t) for s in range(k) for t in range(k)]


def cmd_vertices(prob, args):
    m = prob.need_model()
    out = []
    ok = True
    for s, t in _pair_list(prob, args):
        cat = VertexCatalog(m.pair(s, t).arena)
        rows = []
        for row in cat.rows():
            rows.append({
                "vertex": row["vertex"],
                "kind": row["kind"],
                "k": row["k"],
                "ops": [list(op) for op in row["ops"]],
                "poly": row["poly"],
                "coefficient": frac(row["coefficient"])
                if row["coefficient"] is not None else None,
                "shifts": {str(h): list(v) for h, v in (row["shifts"] or {}).items()},
            })
        if cat.notes:
            ok = False
        out.append({
            "source": prob.labels[s],
            "target": prob.labels[t],
            "presentation": m.pair(s, t).presentation,
            "rows": rows,
            "notes": list(cat.notes),
        })
    return {"pairs": out}, ok, True


def cmd_rho(prob, args):
    m = prob.need_model()
    k = _int_arg(args, "k", 2, 1)
    path = prob.path_indices(args.get("path", prob.labels[:1] * (k + 1)))
    if len(path) != k + 1:
        raise InputError("rho needs a path of k + 1 object labels")
    table = m.rho_table(k, path)
    space = m.pair(path[0], path[-1]).arena.space
    spaces = [m.pair(path[i], path[i + 1]).arena.space for i in range(k)]
    entries = []
    for combo in sorted(table, key=str):
        entries.append({
            "inputs": [spaces[i].key_label(combo[i]) for i in range(k)],
            "output": {space.key_label(kk): frac(v)
                       for kk, v in sorted(table[combo].items(), key=str)},
        })
    return {"k": k, "path": [prob.labels[p] for p in path],
            "entries": entries}, True, True


def cmd_verify_ainf(prob, args):
    m = prob.need_model()
    level = _int_arg(args, "level", 2, 1)
    forms = args.get("forms", ["r", "mu"])
    if (not isinstance(forms, list) or not forms
            or any(f not in ("r", "mu") for f in forms)
            or len(set(forms)) < len(forms)):
        raise InputError('verify-ainf forms must be a non-empty list of '
                         'distinct "r" and "mu"')
    report = m.verify_ainf(level, forms=forms)
    result = {
        "level": level,
        "forms": list(forms),
        "checked": report["checked"],
        "failures": len(report["failures"]),
    }
    if report["failures"]:
        first = report["failures"][0]
        path = first["path"]
        space = m.pair(path[0], path[-1]).arena.space
        result["first_failure"] = {
            "form": first["form"], "level": first["level"],
            "path": [prob.labels[p] for p in path],
            "inputs": [m.pair(*path[i : i + 2]).arena.space.key_label(key)
                       for i, key in enumerate(first["inputs"])],
            "defect": {space.key_label(kk): frac(v) for kk, v in
                       sorted(first["defect"].items(), key=str)},
        }
    return result, report["ok"], True


def cmd_sdr_verify(prob, args):
    m = prob.need_model()
    margin = _int_arg(args, "margin", None, 0)
    out = []
    ok = cap_ok = True
    for s, t in _pair_list(prob, args):
        arena = m.pair(s, t).arena
        rep = arena.sdr_verify(margin=margin)
        identities = sorted(rep["identities"].items())
        # the cap leaves no key inside the margin: nothing was checked
        cap_ok = cap_ok and rep["checked"] > 0
        entry = {
            "source": prob.labels[s],
            "target": prob.labels[t],
            "margin": rep["margin"],
            "checked": rep["checked"],
            "identities": {name: v["ok"] for name, v in identities},
        }
        label = arena.space.key_label
        failures = {
            name: {"witness": label(v["witness"]),
                   "diff": {label(kk): frac(c) for kk, c in
                            sorted(v["diff"].items(), key=str)}}
            for name, v in identities if not v["ok"]}
        if failures:
            ok = False
            entry["failures"] = failures
        out.append(entry)
    return {"pairs": out}, ok, cap_ok


def _on_cohomology(m, pair):
    """The cohomology of a pair and the matrices that E1 and the lists
    gamma, dagger and At of e1_and_clifford induce on it."""
    coh = cohomology(m, pair)
    cliff = m.e1_and_clifford(pair)
    induced = {name: [induced_map(coh, g) for g in cliff[name]]
               for name in ("gamma", "dagger", "At")}
    induced["E1"] = induced_map(coh, cliff["E1"])
    return coh, induced


def cmd_e1(prob, args):
    m = prob.need_model()
    out = []
    ok = True
    for s, t in _pair_list(prob, args):
        coh, induced = _on_cohomology(m, (s, t))
        e1 = induced["E1"]
        idem = mat_mul(e1, e1) == e1
        rank = sum(
            1 for j in range(coh.dim)
            if any(e1[i][j] for i in range(coh.dim))
        )
        ok = ok and idem
        out.append({
            "source": prob.labels[s],
            "target": prob.labels[t],
            "cohomology_dim": coh.dim,
            "idempotent": idem,
            "nonzero_columns": rank,
        })
    return {"pairs": out}, ok, True


def cmd_clifford(prob, args):
    # the Clifford operators induced on cohomology: gamma_i equals the
    # transported class At_i, and E1 factorises as gamma...gamma^dagger
    m = prob.need_model()
    out = []
    ok = True
    for s, t in _pair_list(prob, args):
        _, induced = _on_cohomology(m, (s, t))
        gammas = induced["gamma"]
        gamma_is_at = gammas == induced["At"]
        prod = None
        for g in reversed(gammas):
            prod = g if prod is None else mat_mul(prod, g)
        for d in induced["dagger"]:
            prod = mat_mul(prod, d)
        factorised = prod == induced["E1"]
        pair_ok = gamma_is_at and factorised
        ok = ok and pair_ok
        out.append({
            "source": prob.labels[s],
            "target": prob.labels[t],
            "gamma_equals_At": gamma_is_at,
            "E1_equals_gamma_product": factorised,
        })
    return {"pairs": out}, ok, True


def cmd_kstab(prob, args):
    m = prob.need_model()
    idx = prob.obj_index(args.get("object", prob.labels[0]))
    decomposition = [prob._poly(p) for p in
                     _field(args, "decomposition", list, "kstab", [])]
    level = _int_arg(args, "level", 3, 1)
    try:
        result = kstab_minimal(m, idx, decomposition, level=level)
    except DecompositionInvalid as exc:
        raise InputError("invalid decomposition: %s" % exc) from exc
    ok = bool(result["rho1_zero"] and result["closed"])
    space = m.pair(idx, idx).arena.space
    kernel = [
        {space.key_label(kk): frac(v) for kk, v in sorted(st.items(), key=str)}
        for st in result["kernel"]
    ]
    return {
        "object": prob.labels[idx],
        "level": level,
        "rho1_zero": bool(result["rho1_zero"]),
        "closed": bool(result["closed"]),
        "kernel": kernel,
    }, ok, True


def cmd_feynman(prob, args):
    m = prob.need_model()
    k = _int_arg(args, "k", 2, 2)
    path = prob.path_indices(args.get("path", [prob.labels[0]] * (k + 1)))
    if len(path) != k + 1:
        raise InputError("feynman needs a path of k + 1 object labels")
    limit = _int_arg(args, "limit", None, 1)
    check_cap(m, k)
    cores = [m.pair(path[i], path[i + 1]).arena.core_basis()
             for i in range(k)]
    combos = list(islice(product(*cores), limit))
    if limit is None:
        table = m.rho_table(k, path)
    else:
        # rho_k on the drawn tuples only, by the span sums on the keys
        # they use in each slot, not the whole table
        table = m.rho_span_sums(k, path, [
            [(key, {key: Fraction(1)}) for key in dict.fromkeys(keys)]
            for keys in zip(*combos)])
    backend = FeynmanBackend(m)
    trees = enumerate_binary(k)
    signs = {}
    bad = 0
    first = None
    for combo in combos:
        # rho_k = (-1)^k sum_T of the Koszul-signed denotation of T, which
        # is mirror_sign times the signless tree_state; the sign depends
        # on the tree and the inputs' parities only
        parity = tuple(m.tilde(key) for key in combo)
        if parity not in signs:
            tilde = dict(enumerate(parity, 1))
            signs[parity] = [(-1) ** k * mirror_sign(T, tilde) for T in trees]
        got = {}
        for T, sign in zip(trees, signs[parity]):
            for kk, v in backend.tree_state(T, path, combo).items():
                add_into(got, kk, sign * v)
        want = table.get(combo, {})
        if got != want:
            bad += 1
            if first is None:
                # the witness: the Feynman side minus the table
                for kk, v in want.items():
                    add_into(got, kk, -v)
                first = combo, got
    result = {
        "k": k,
        "path": [prob.labels[p] for p in path],
        "trees": len(trees),
        "tuples": len(combos),
        "mismatches": bad,
    }
    if first:
        combo, diff = first
        space = m.pair(path[0], path[-1]).arena.space
        result["first_mismatch"] = {
            "inputs": [m.pair(*path[i : i + 2]).arena.space.key_label(key)
                       for i, key in enumerate(combo)],
            "diff": {space.key_label(kk): frac(v) for kk, v in
                     sorted(diff.items(), key=str)},
        }
    return result, bad == 0, True


DISPATCH = {
    "groebner": cmd_groebner,
    "basis": cmd_basis,
    "gamma": cmd_gamma,
    "expand": cmd_expand,
    "vertices": cmd_vertices,
    "rho": cmd_rho,
    "verify-ainf": cmd_verify_ainf,
    "sdr-verify": cmd_sdr_verify,
    "e1": cmd_e1,
    "clifford": cmd_clifford,
    "kstab": cmd_kstab,
    "feynman": cmd_feynman,
}


def _parse_commands(entries):
    """(name, args) per command entry: a command name, or an object with
    a "command" name and the command's arguments."""
    if not isinstance(entries, list):
        raise InputError("commands must be a list")
    out = []
    for entry in entries:
        if isinstance(entry, str):
            out.append((entry, {}))
        elif isinstance(entry, dict) and isinstance(entry.get("command"), str):
            args = dict(entry)
            name = args.pop("command")
            if name in COMMANDS:
                _known_keys(args, COMMANDS[name], "command %r" % name)
            out.append((name, args))
        else:
            raise InputError(
                "command entry %r is neither a name nor an object with a "
                "\"command\" name" % (entry,))
    return out


def run(raw_spec, commands=None, cap=None):
    """Execute a spec.  Returns (report, exit_code)."""
    report = {"results": [], "ok": True, "cap_ok": True}
    try:
        prob = Problem(raw_spec, cap_override=cap)
        if commands is None:
            commands = raw_spec.get("commands", [])
        commands = _parse_commands(commands)
    except InputError as exc:
        return {"error": str(exc), "ok": False}, EXIT_INPUT
    report["spec"] = {
        "variables": prob.varnames,
        "potential": str(prob.W),
        "t_sequence": [str(t) for t in prob.tseq],
        "objects": prob.labels,
        "cap": prob.cap,
        "order": prob.order,
    }
    code = EXIT_OK
    for name, args in commands:
        t0 = time.perf_counter_ns()
        try:
            if name not in DISPATCH:
                raise InputError("unknown command %r" % name)
            result, ok, cap_ok = DISPATCH[name](prob, args)
        except InputError as exc:
            report["results"].append(
                {"command": name, "error": str(exc), "ok": False})
            report["ok"] = False
            return report, EXIT_INPUT
        except CapExceeded as exc:
            report["results"].append(
                {"command": name, "error": "cap insufficient: %s" % exc,
                 "ok": False})
            report["ok"] = False
            report["cap_ok"] = False
            code = EXIT_CAP
            continue
        # integer milliseconds: reports carry no floats anywhere
        report["results"].append(
            {"command": name, "result": result, "ok": ok,
             "timing": (time.perf_counter_ns() - t0) // 1_000_000})
        if not cap_ok:
            report["cap_ok"] = False
            code = EXIT_CAP
        if not ok:
            report["ok"] = False
            if code == EXIT_OK:
                code = EXIT_VERIFY
    return report, code


# ----------------------------------------------------------------------
# regression pinning


def canonical(report):
    """Canonical JSON bytes for pinning; timing is dropped because it is
    the one non-deterministic field."""

    def strip(node):
        if isinstance(node, dict):
            return {k: strip(v) for k, v in sorted(node.items())
                    if k != "timing"}
        if isinstance(node, list):
            return [strip(v) for v in node]
        return node

    return json.dumps(strip(report), sort_keys=True, indent=1).encode()


def diff_reports(a, b, prefix=""):
    out = []
    if isinstance(a, dict) and isinstance(b, dict):
        for k in sorted(set(a) | set(b)):
            if k == "timing":
                continue
            if k not in a:
                out.append("%s/%s: only in golden" % (prefix, k))
            elif k not in b:
                out.append("%s/%s: only in report" % (prefix, k))
            else:
                out += diff_reports(a[k], b[k], "%s/%s" % (prefix, k))
        return out
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            out.append("%s: length %d != %d" % (prefix, len(a), len(b)))
            return out
        for i, (x, y) in enumerate(zip(a, b)):
            out += diff_reports(x, y, "%s[%d]" % (prefix, i))
        return out
    if a != b:
        out.append("%s: %r != %r" % (prefix, a, b))
    return out


def pin(report, golden_path, create=False):
    """Compare a report against a golden file.  Returns a list of
    difference descriptions (empty means identical)."""
    import os

    data = canonical(report)
    if not os.path.exists(golden_path):
        if create:
            try:
                with open(golden_path, "wb") as fh:
                    fh.write(data)
            except OSError as exc:
                raise InputError("cannot write %s: %s"
                                 % (golden_path, exc)) from exc
            return []
        raise InputError("golden file %s does not exist (use --create)"
                         % golden_path)
    with open(golden_path, "rb") as fh:
        golden_bytes = fh.read()
    if golden_bytes == data:
        return []
    try:
        golden = json.loads(golden_bytes)
    except ValueError:
        return ["golden file is not valid JSON"]
    return diff_reports(json.loads(data.decode()), golden) or \
        ["whitespace-only difference; re-pin with --create"]


# ----------------------------------------------------------------------
# entry point


def _load_json(path):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise InputError("cannot read %s: %s" % (path, exc)) from exc


def _emit(report, out):
    text = json.dumps(report, indent=1, sort_keys=True)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    for res in report.get("results", []):
        line = "%-12s %s" % (res["command"],
                             "ok" if res.get("ok") else "FAIL")
        if "error" in res:
            line += "  (%s)" % res["error"]
        print(line, file=sys.stderr)


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="ainfmf",
        description="exact minimal-model computations for Koszul matrix "
                    "factorisations",
    )
    sub = ap.add_subparsers(dest="mode", required=True)

    def add_common(p):
        p.add_argument("spec", help="problem spec JSON file, or - for stdin")
        p.add_argument("--out", help="write the JSON report here")
        p.add_argument("--cap", type=int, help="override the t-degree cap")

    add_common(sub.add_parser("run", help="execute the spec's command list"))
    for name in COMMANDS:
        add_common(sub.add_parser(name, help="run the %s command" % name))

    pp = sub.add_parser("pin", help="regression-compare a report")
    pp.add_argument("report", help="report JSON file, or - for stdin")
    pp.add_argument("golden", help="golden file path")
    pp.add_argument("--create", action="store_true",
                    help="write the golden file if missing")

    ns = ap.parse_args(argv)

    if ns.mode == "pin":
        try:
            report = _load_json(ns.report)
            diffs = pin(report, ns.golden, create=ns.create)
        except InputError as exc:
            print("error: %s" % exc, file=sys.stderr)
            return EXIT_INPUT
        for line in diffs:
            print(line)
        return EXIT_VERIFY if diffs else EXIT_OK

    try:
        raw = _load_json(ns.spec)
    except InputError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    commands = None
    if ns.mode != "run":
        try:
            listed = _parse_commands(
                raw.get("commands", []) if isinstance(raw, dict) else [])
        except InputError as exc:
            print("error: %s" % exc, file=sys.stderr)
            return EXIT_INPUT
        commands = [dict(args, command=name)
                    for name, args in listed if name == ns.mode] or [ns.mode]
    report, code = run(raw, commands=commands, cap=ns.cap)
    if "error" in report:
        print("error: %s" % report["error"], file=sys.stderr)
        return code
    try:
        _emit(report, ns.out)
    except OSError as exc:
        print("error: cannot write %s: %s" % (ns.out, exc), file=sys.stderr)
        return EXIT_INPUT
    return code


if __name__ == "__main__":
    sys.exit(main())
