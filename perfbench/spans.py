"""Spans around calls into hiermix's modules, recorded from outside.

``Tracer.install`` replaces each listed function or method with a
wrapper that records a span: name, start, end, parent span and the id
of the fit it belongs to. Module-level functions are replaced in every
loaded hiermix module that holds a reference to them, because the
modules import each other's functions by name. Nothing under ``src/``
is edited; ``uninstall`` puts the originals back.

Spans stay in memory until ``write`` saves them once, at the end of a
run. Self time is a span's duration minus the time its child spans
cover, accumulated per name as spans close.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
import time
from collections import defaultdict

# (layer key, module, attribute path). The key is the metric prefix the
# span's self time and call count are reported under.
TARGETS = [
    ("dsl.validate", "hiermix.dsl", "validate_spec"),
    ("data.hierarchy", "hiermix.data", "build_hierarchy"),
    ("data.load_csv", "hiermix.data", "load_csv"),
    ("predictor.compile", "hiermix.predictor", "compile_program"),
    ("predictor.eta", "hiermix.predictor", "eval_eta"),
    ("predictor.ev", "hiermix.predictor", "eval_ev"),
    ("predictor.outcome_logl", "hiermix.predictor", "outcome_logl"),
    ("families", "hiermix.families", "Family.logl"),
    ("families", "hiermix.families", "Family.log_hazard"),
    ("families", "hiermix.families", "Family.cum_hazard"),
    ("families", "hiermix.families", "Family.base_log_hazard"),
    ("families", "hiermix.families", "Family.inverse_link"),
    ("families", "hiermix.families", "rp_logl"),
    ("basis", "hiermix.basis", "rcs_eval"),
    ("basis", "hiermix.basis", "rcs_deriv"),
    ("basis", "hiermix.basis", "fp_eval"),
    ("integrate.adapt", "hiermix.integrate", "adapt_locations"),
    ("integrate.draws", "hiermix.integrate", "kernel_draws"),
    ("likelihood.objective", "hiermix.likelihood", "LikelihoodEvaluator.logl"),
    ("likelihood.refresh", "hiermix.likelihood", "LikelihoodEvaluator.refresh"),
    ("likelihood.reduce", "hiermix.likelihood", "logsumexp"),
    ("optim.grad", "hiermix.optim", "fd_gradient"),
    ("optim.hess", "hiermix.optim", "fd_hessian"),
    ("optim.initial_values", "hiermix.optim", "initial_values"),
    ("optim.result", "hiermix.optim", "build_fit_result"),
    ("cli.document", "hiermix.cli", "result_document"),
    ("simulate", "hiermix.simulate", "simulate"),
]

# objective-call phases, by the optimizer routine that made the call
PHASES = ("grad", "hess", "search", "refresh_eval")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (fit id, span id, parent id, key, start, end)
        self.fit_id = "setup"
        self.absent: list[str] = []
        self.self_time: dict = defaultdict(float)  # (fit id, key) -> seconds
        self.calls: dict = defaultdict(int)  # (fit id, key) -> count
        self.inclusive: dict = defaultdict(float)  # (fit id, key) -> seconds, children included
        self.results: dict = {}  # fit id -> FitResult built during that fit
        self.phase_calls: dict = defaultdict(int)  # (fit id, phase) -> objective calls
        self._stack: list[list] = []  # open spans: [span id, key, child seconds]
        self._next_id = 0
        self._patches: list[tuple] = []  # (owner, attribute, original)
        self._refreshed = False

    # -- patching ------------------------------------------------------

    def install(self) -> None:
        """Wrap every target that exists; record the missing ones."""
        self.absent = []
        loaded = [m for name, m in sorted(sys.modules.items()) if name == "hiermix" or name.startswith("hiermix.")]
        for key, modname, path in TARGETS:
            try:
                module = importlib.import_module(modname)
            except ImportError:
                self.absent.append(f"{modname}.{path}")
                continue
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.absent.append(f"{modname}.{path}")
                continue
            wrapper = self._wrap(key, attr, original)
            if owner_name:
                self._patch(owner, attr, wrapper)
                continue
            for mod in loaded:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, key, attr, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if key == "likelihood.objective":
                tracer._count_phase()
            elif key == "likelihood.refresh":
                tracer._refreshed = True
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1][0] if tracer._stack else None
            frame = [span_id, key, 0.0]
            tracer._stack.append(frame)
            start = time.perf_counter()
            try:
                value = fn(*args, **kwargs)
                if key == "optim.result":
                    tracer.results[tracer.fit_id] = value
                return value
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                dur = end - start
                if tracer._stack:
                    tracer._stack[-1][2] += dur
                fid = tracer.fit_id
                tracer.self_time[(fid, key)] += dur - frame[2]
                tracer.calls[(fid, key)] += 1
                tracer.inclusive[(fid, key)] += dur
                tracer.spans.append((fid, span_id, parent, key, start, end))

        wrapper.__name__ = attr
        wrapper.__wrapped__ = fn
        return wrapper

    def _count_phase(self) -> None:
        """Attribute one objective call to the optimizer phase that made
        it: inside the gradient or Hessian probes, the re-evaluation that
        follows an adaptation refresh, or else the line search.
        """
        keys = [frame[1] for frame in self._stack]
        if "optim.hess" in keys:
            phase = "hess"
        elif "optim.grad" in keys:
            phase = "grad"
        elif self._refreshed:
            phase = "refresh_eval"
        else:
            phase = "search"
        self._refreshed = False
        self.phase_calls[(self.fit_id, phase)] += 1

    # -- reading -------------------------------------------------------

    def begin_fit(self, fit_id) -> None:
        self.fit_id = fit_id
        self._refreshed = False

    def total(self, fit_id, key, what="self") -> float:
        """Self seconds, inclusive seconds or calls of one key in one fit."""
        table = {"self": self.self_time, "inclusive": self.inclusive, "calls": self.calls}[what]
        return table.get((fit_id, key), 0)

    def write(self, path) -> None:
        """Save every span, one JSON array per line, gzip-compressed."""
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps({"fields": ["fit", "span", "parent", "name", "start", "end"], "absent": self.absent}))
            fh.write("\n")
            for span in self.spans:
                fh.write(json.dumps(span))
                fh.write("\n")
