"""In-memory span tracer for pbcrt's layer functions.

The tracer replaces each layer's public function by a wrapper at every
place a caller looks it up: every ``pbcrt`` module attribute bound to
the function, or the class attribute for a method.  Spans are kept in a
list while the benchmark runs and are reduced to per-layer totals (and,
on request, written out as JSON lines) when it ends.

A layer whose function no longer exists is reported as absent; the
tracer never fails on it.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time

ROOT_SPAN = "op"

_REML_NAMES = {
    "EXCHANGEABLE": "reml.exchangeable",
    "NESTED_EXCHANGEABLE": "reml.nested",
}


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs.get(name)


def _reml_name(args, kwargs):
    structure = _arg(args, kwargs, 1, "structure")
    return _REML_NAMES.get(getattr(structure, "name", ""), "reml.other")


def _fit_name(args, kwargs):
    kind = _arg(args, kwargs, 1, "kind")
    return "estimators.fit." + str(getattr(kind, "value", kind))


def _fixed(name):
    return lambda args, kwargs: name


# (module, attribute path, span namer, reported layer names).  The attribute
# path names a module-level function or a method as Class.method.
LAYERS = [
    ("pbcrt.simulate", "generate_trial", _fixed("simulate.generate_trial"),
     ["simulate.generate_trial"]),
    ("pbcrt.simulate", "run_study", _fixed("simulate.run_study"),
     ["simulate.run_study"]),
    ("pbcrt.trial", "ObservedTrial.__init__", _fixed("trial.ObservedTrial"),
     ["trial.ObservedTrial"]),
    ("pbcrt.trial", "ObservedTrial.drop_cluster", _fixed("trial.drop_cluster"),
     ["trial.drop_cluster"]),
    ("pbcrt.blocks", "inverse_cell_terms", _fixed("blocks.inverse_cell_terms"),
     ["blocks.inverse_cell_terms"]),
    ("pbcrt.reml", "estimate_variance_components", _reml_name,
     ["reml.exchangeable", "reml.nested"]),
    ("pbcrt.estimators", "fit", _fit_name,
     ["estimators.fit." + k for k in
      ("iee", "ieew", "fe", "few", "eme", "emew", "neme", "nemew")]),
    ("pbcrt.inference", "jackknife_variance",
     _fixed("inference.jackknife_variance"), ["inference.jackknife_variance"]),
    ("pbcrt.inference", "confidence_interval", _fixed("inference.ci_wald"),
     ["inference.ci_wald"]),
    ("pbcrt.inference", "wald_test", _fixed("inference.ci_wald"),
     ["inference.ci_wald"]),
    ("pbcrt.io", "parse_trial_csv", _fixed("io.parse_trial_csv"),
     ["io.parse_trial_csv"]),
]

RECORDS_SPAN = "trial.ObservedTrial"
EVALS_SPAN = "blocks.inverse_cell_terms"


def layer_names(layers=LAYERS) -> list[str]:
    """Every reported layer name, in declaration order, without repeats."""
    return list(dict.fromkeys(n for *_, names in layers for n in names))


def _records_of(args, kwargs) -> int:
    outcomes = _arg(args, kwargs, 4, "outcomes")
    try:
        return len(outcomes)
    except TypeError:
        return 0


class Tracer:
    """Patch layer functions, record nested spans, reduce them to totals."""

    def __init__(self, layers=LAYERS):
        self.layers = layers
        # Each span: [name, start, end, parent index, op index].
        self.spans: list[list] = []
        self.records = 0  # records passed to the ObservedTrial constructor
        self.absent: set[str] = set()
        self._stack: list[int] = []
        self._op = -1
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _enter(self, name) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._op])
        self._stack.append(idx)
        return idx

    def _exit(self, idx) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def op(self, index: int, fn, *args):
        """Run one benchmark operation under a root span."""
        self._op = index
        idx = self._enter(ROOT_SPAN)
        try:
            return fn(*args)
        finally:
            self._exit(idx)

    def _wrap(self, fn, namer, records: bool):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._enter(namer(args, kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(idx)
                if records:
                    tracer.records += _records_of(args, kwargs)

        return traced

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        found: set[str] = set()
        for module_name, path, namer, names in self.layers:
            try:
                owner = importlib.import_module(module_name)
                *owners, attr = path.split(".")
                for part in owners:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                continue
            found.update(names)
            wrapper = self._wrap(original, namer, RECORDS_SPAN in names)
            if owners:
                self._set(owner, attr, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "pbcrt"
                                       or mod_name.startswith("pbcrt.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)
        self.absent = set(layer_names(self.layers)) - found

    def _set(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reduction ---------------------------------------------------------

    def totals(self) -> dict:
        """Per-name calls and self seconds, plus the derived counters.

        Self time is a span's duration minus the durations of its direct
        children; spans of one thread nest, so this is exact.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        root_s = 0.0
        reml_evals = 0
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start - child[i])
            if name == ROOT_SPAN:
                root_s += end - start
            elif name == EVALS_SPAN and self._under_reml(parent):
                reml_evals += 1
        return {
            "calls": calls,
            "self_s": self_s,
            "root_s": root_s,
            "records": self.records,
            "reml_evals": reml_evals,
        }

    def _under_reml(self, idx: int) -> bool:
        while idx >= 0:
            name, _, _, parent, _ = self.spans[idx]
            if name.startswith("reml."):
                return True
            idx = parent
        return False

    def write(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "op": op}) + "\n")
