"""Outside-in tracing of anyongates: spans and counts around public functions.

The tracer replaces each target function with a wrapper, in its defining
module, in every ``anyongates`` namespace that imported the same object, and
on the class for methods.  A wrapper records one span (name, start, end,
parent span, operation id) and, for some targets, adds counts read from the
call's arguments or result.  Spans stay in flat arrays until the run ends.
``uninstall`` puts every original object back, so untraced passes run the
unmodified program.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time
from array import array
from collections import Counter

import numpy as np


def _n_perms(arg) -> int:
    """Candidate count of a solver permutation argument: one perm or a list."""
    seq = list(arg)
    if seq and isinstance(seq[0], (int, np.integer)):
        return 1
    return len(seq)


def _solve_intertwiner(tr, call, result):
    n = np.asarray(call.arguments["v"]).shape[0]
    perm_in = call.arguments.get("perm_in")
    perm_out = call.arguments.get("perm_out")
    cands = math.factorial(n) if perm_in is None else _n_perms(perm_in)
    if perm_out is not None:
        cands *= _n_perms(perm_out)
    tr.count["solver.solve_intertwiner.candidates"] += cands
    tr.count["solver.solve_intertwiner.solutions"] += len(result)


def _enumerate_labelings(tr, call, result):
    key = (id(call.arguments["model"]), repr(call.arguments["surface"]))
    if key in tr.seen:
        tr.count["surfaces.enumerate_labelings.repeats"] += 1
    tr.seen.add(key)


def _evaluate_word(tr, call, result):
    dim = result.matrix.shape[0]
    tr.count["mcg.evaluate_word.bytes"] += dim * dim * 16


def _coset_intersect(tr, call, result):
    tr.count["solver.coset_intersect.kept"] += result is not None


def _scan_column_perms(tr, call, result):
    n_perm, n = np.asarray(call.arguments["perms"]).shape
    tr.count["kernels.scan_column_perms.perms"] += n_perm
    tr.count["kernels.scan_column_perms.ops"] += n_perm * n**3
    no_match, unique, ambiguous = np.bincount(np.asarray(result[0]), minlength=3)[:3]
    tr.count["kernels.scan_column_perms.no_match"] += int(no_match)
    tr.count["kernels.scan_column_perms.unique"] += int(unique)
    tr.count["kernels.scan_column_perms.ambiguous"] += int(ambiguous)


def _enumerate_matchings(tr, call, result):
    tr.count["kernels.enumerate_matchings.matchings"] += len(result)


def _classify(tr, call, result):
    details = result.details
    tr.count["classify.classes"] += result.n_classes
    per_curve = details.get("candidates_per_curve")
    if per_curve:
        tr.count["classify.candidates"] += math.prod(per_curve.values())
        tr.count["classify.candidate_classes"] += result.n_classes
    tr.count["classify.clifford_star_checked"] += details.get("clifford_star_checked", 0)


def _torus_word_families(tr, call, result):
    tr.count["abelian.torus_word_families.families"] += len(result)


# (module, attribute or Class.method, span name, count hook or None).
# Span names use the layer name first; ``anyongates._kernels`` is the
# ``kernels`` layer because metric names may not start with "_".
TARGETS = [
    ("anyongates.cli", "main", "cli.main", None),
    ("anyongates.models", "load_builtin", "models.load_builtin", None),
    ("anyongates.models", "validate", "models.validate", None),
    ("anyongates.models", "AnyonModel.fmove_block", "models.fmove_block", None),
    ("anyongates.surfaces", "enumerate_labelings", "surfaces.enumerate_labelings",
     _enumerate_labelings),
    ("anyongates.surfaces", "cut_dimensions", "surfaces.cut_dimensions", None),
    ("anyongates.mcg", "evaluate_word", "mcg.evaluate_word", _evaluate_word),
    ("anyongates.mcg", "braid_generator", "mcg.braid_generator", None),
    ("anyongates.solver", "solve_intertwiner", "solver.solve_intertwiner",
     _solve_intertwiner),
    ("anyongates.solver", "delta_set", "solver.delta_set", None),
    ("anyongates.solver", "intersect_delta", "solver.intersect_delta", None),
    ("anyongates.solver", "PhaseCoset.intersect", "solver.coset_intersect",
     _coset_intersect),
    ("anyongates.solver", "is_monomial", "solver.is_monomial", None),
    ("anyongates._kernels", "scan_column_perms", "kernels.scan_column_perms",
     _scan_column_perms),
    ("anyongates._kernels", "enumerate_matchings", "kernels.enumerate_matchings",
     _enumerate_matchings),
    ("anyongates.classify", "classify", "classify.classify", _classify),
    ("anyongates.classify", "iso_phase_set", "classify.iso_phase_set", None),
    ("anyongates.classify", "ClassificationReport.to_json", "classify.to_json", None),
    ("anyongates.abelian", "torus_word_families", "abelian.torus_word_families",
     _torus_word_families),
    ("anyongates.abelian", "clifford_star_membership",
     "abelian.clifford_star_membership", None),
    ("anyongates.abelian", "lattice_commutation_check",
     "abelian.lattice_commutation_check", None),
]

ARGUMENT_HOOKS = (_solve_intertwiner, _enumerate_labelings, _scan_column_perms)

LAYERS = ("cli", "models", "surfaces", "mcg", "solver", "kernels", "classify", "abelian")


class Tracer:
    """Span and count recorder; one operation at a time, one thread."""

    def __init__(self):
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.op_pass: list[int] = []
        self.op_scale: list[float] = []
        self.counts: list[Counter] = []
        self.count: Counter = Counter()
        self.seen: set = set()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._wrappers: dict[str, object] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def begin_pass(self) -> None:
        self.count = Counter()
        self.counts.append(self.count)

    def begin_op(self) -> None:
        """Start a new operation in the current pass."""
        self.op_pass.append(len(self.counts) - 1)
        self.seen = set()

    def _wrap(self, fn, name: str, hook):
        nid = len(self.names)
        self.names.append(name)
        start, end, names, parent, op = self.start, self.end, self.name, self.parent, self.op
        stack, op_pass, clock = self._stack, self.op_pass, time.perf_counter
        # Binding arguments costs microseconds, so only hooks that read them do it.
        sig = inspect.signature(fn) if hook in ARGUMENT_HOOKS else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            names.append(nid)
            parent.append(stack[-1] if stack else -1)
            op.append(len(op_pass) - 1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                call = None
                if sig is not None:
                    call = sig.bind(*args, **kwargs)
                    call.apply_defaults()
                hook(self, call, result)
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every target that exists; record the ones that do not."""
        self.missing = []
        packages = [
            mod for mod_name, mod in list(sys.modules.items())
            if mod_name == "anyongates" or mod_name.startswith("anyongates.")
        ]
        for module_name, attr, name, hook in TARGETS:
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(name)
                continue
            cls_name, _, key = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name, None)
            original = getattr(owner, key, None)
            if original is None:
                self.missing.append(name)
                continue
            if name not in self._wrappers:
                self._wrappers[name] = self._wrap(original, name, hook)
            wrapper = self._wrappers[name]
            if cls_name:
                self._patch(owner, key, original, wrapper)
                continue
            for mod in packages:
                for mod_key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, mod_key, original, wrapper)

    def _patch(self, owner, key, original, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._patches.append((owner, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches = []

    # -- results -----------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "op_pass": np.asarray(self.op_pass, dtype=np.int32),
        }

    def pass_totals(self) -> list[dict[str, float]]:
        """Per traced pass: inclusive seconds, self seconds and calls per span name.

        Span durations are multiplied by their operation's entry in
        ``op_scale``.  Self time is a span's duration minus the durations of
        its direct children; with one thread, children never overlap.
        """
        sp = self.spans()
        dur = (sp["end"] - sp["start"]) * np.asarray(self.op_scale)[sp["op"]]
        has_parent = sp["parent"] >= 0
        child = np.bincount(sp["parent"][has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_dur = dur - child
        span_pass = sp["op_pass"][sp["op"]]
        k = len(self.names)
        totals = []
        for p in range(len(self.counts)):
            sel = span_pass == p
            names = sp["name"][sel]
            incl = np.bincount(names, weights=dur[sel], minlength=k)
            own = np.bincount(names, weights=self_dur[sel], minlength=k)
            calls = np.bincount(names, minlength=k)
            row = {}
            for i, name in enumerate(self.names):
                row[f"{name}.s"] = float(incl[i])
                row[f"{name}.self_s"] = float(own[i])
                row[f"{name}.calls"] = int(calls[i])
            totals.append(row)
        return totals
