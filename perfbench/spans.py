"""Spans around calls into qduality's layers, installed from outside the package.

A span records its name, start, end, parent span and task id.  Spans are kept
in memory in flat arrays and written out once, when the run ends.  A wrapper
replaces a function on every qduality module attribute that refers to it, so
``qstate.apply_gate`` and its import ``circuit.apply_gate`` are both traced.

Span names are ``<module>.<function>``; the module is the layer.  A few spans
group or rename calls: ``qstate.objects`` (validation of every StateVector,
GateOp and Projector), ``fock.gate_maps`` (physical_cz and physical_ch),
``fock.postselect``, ``hv.linprog`` (the HiGHS call) and ``lp.pivot``.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import defaultdict

LAYERS = ("qstate", "circuit", "fock", "hv", "lp", "cli")


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.task = array("l")
        self.counters = defaultdict(float)
        self.merged = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        self.task_id = -1
        self.enabled = False
        self._stack = []

    def wrap(self, name, fn, count=None):
        """Return ``fn`` wrapped in a span; ``count(counters, args, result)`` adds counts."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._ids[name]
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.name.append(name_id)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.task.append(self.task_id)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self._stack.pop()
            if count is not None:
                count(self.counters, args, result)
            return result

        return traced

    def summary(self) -> dict:
        """{span name: {"calls", "self_s"}}, self time = duration minus child spans."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        for i in range(n):
            entry = out[self.names[self.name[i]]]
            entry["calls"] += 1
            entry["self_s"] += self.end[i] - self.start[i] - child[i]
        for name, entry in self.merged.items():
            out[name]["calls"] += entry["calls"]
            out[name]["self_s"] += entry["self_s"]
        return dict(out)

    def merge(self, dump: dict) -> None:
        """Add another process's ``export()`` to this tracer's totals."""
        for name, entry in dump["summary"].items():
            self.merged[name]["calls"] += entry["calls"]
            self.merged[name]["self_s"] += entry["self_s"]
        for key, value in dump["counters"].items():
            self.counters[key] += value

    def export(self) -> dict:
        return {"summary": self.summary(), "counters": dict(self.counters)}

    def write_spans(self, path) -> None:
        """Write every span as CSV: name,start_s,end_s,parent,task."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_s,end_s,parent,task\n")
            for i in range(len(self.start)):
                fh.write(f"{self.names[self.name[i]]},{self.start[i]!r},{self.end[i]!r},"
                         f"{self.parent[i]},{self.task[i]}\n")


# --- counters recorded at span boundaries -----------------------------------

def _count_points(counters, args, table):
    counters["circuit.correlation_surface.points"] += table.size


def _count_shots(counters, args, counts):
    # sample_counts draws one float64 uniform (8 B) plus one bool (1 B) per
    # remaining event at each of its three binomial steps.
    remaining = int(sum(counts))
    drawn = 0
    for k in range(3):
        if remaining == 0:
            break
        drawn += remaining
        remaining -= int(counts[k])
    counters["circuit.sample_counts.shots"] += int(sum(counts))
    counters["circuit.sample_counts.bytes_computed"] += 9 * drawn


def _count_terms(counters, args, state):
    counters["fock.ModeState.transform.terms"] += len(state.amps)


def _count_postselect(counters, args, result):
    counters["fock.postselect.input"] += len(args[0].amps)
    counters["fock.postselect.kept"] += len(result[0].amps)


def _count_strategies(counters, args, strategies):
    counters["hv.enumerate_strategies.strategies"] += len(strategies)


def _count_witness(counters, args, result):
    if result.feasible and result.model is not None:
        counters["hv.witness.strategies"] += len(result.model.strategies)


def _count_tableau(counters, args, result):
    c, a = args[0], args[1]
    counters["lp.tableau_cells"] += len(a) * (len(c) + len(a) + 1)


def _linprog_wrapper(tracer, fn):
    traced = tracer.wrap("hv.linprog", fn)

    @functools.wraps(fn)
    def call(c, *args, **kwargs):
        if tracer.enabled:  # rows x columns of the constraint matrices HiGHS receives
            rows = len(kwargs.get("A_ub") or []) + len(kwargs.get("A_eq") or [])
            tracer.counters["hv.linprog.cells"] += rows * len(c)
        return traced(c, *args, **kwargs)

    return call


SPECIAL_NAMES = {
    ("fock", "physical_cz"): "fock.gate_maps",
    ("fock", "physical_ch"): "fock.gate_maps",
}

COUNTERS = {
    "circuit.correlation_surface": _count_points,
    "circuit.sample_counts": _count_shots,
    "hv.enumerate_strategies": _count_strategies,
    "hv.feasibility": _count_witness,
    "lp.solve": _count_tableau,
}


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every imported qduality layer.

    ``cli`` is traced at ``main`` only, so that its self time is parsing,
    formatting and file I/O.
    """
    replace = {}
    for layer in LAYERS:
        mod = sys.modules.get(f"qduality.{layer}")
        if mod is None:
            continue
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_") and (layer != "cli" or attr == "main")):
                name = SPECIAL_NAMES.get((layer, attr), f"{layer}.{attr}")
                replace[obj] = tracer.wrap(name, obj, COUNTERS.get(name))
        if layer == "qstate":
            for cls in (mod.StateVector, mod.GateOp, mod.Projector):
                cls.__post_init__ = tracer.wrap("qstate.objects", cls.__post_init__)
        elif layer == "fock":
            mod.ModeState.transform = tracer.wrap(
                "fock.ModeState.transform", mod.ModeState.transform, _count_terms)
            mod.ModeState.postselect_one_per_port = tracer.wrap(
                "fock.postselect", mod.ModeState.postselect_one_per_port, _count_postselect)
        elif layer == "hv":
            replace[mod.linprog] = _linprog_wrapper(tracer, mod.linprog)
        elif layer == "lp":
            mod._pivot = tracer.wrap("lp.pivot", mod._pivot)
    for name, mod in list(sys.modules.items()):
        if name != "qduality" and not name.startswith("qduality."):
            continue
        for attr, obj in list(vars(mod).items()):
            try:
                wrapped = replace.get(obj)
            except TypeError:  # unhashable attribute
                continue
            if wrapped is not None:
                setattr(mod, attr, wrapped)
