"""Spans around calls into the spinhv layers, recorded from outside the package.

``Tracer.install`` replaces each traced public function with a wrapper in
its defining module and in every ``spinhv`` module that imported it by
name, so calls through ``from .x import y`` and through module globals are
both seen.  A span records its name, start, end, parent span, op id, the
sizes the layer metrics need, and whether the call raised.  Spans stay in
memory; ``layer_totals`` turns them into per-layer totals after the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter


def _enumerate_sizes(args, kwargs, result):
    return {"scanned": (args[0].doubled + 1) ** 3, "kept": len(result)}


def _scan_kind(args, kwargs, result):
    return {"constrained": bool(kwargs["constrained"] if "constrained" in kwargs else args[2])}


def _bell_entries(args, kwargs, result):
    return {"entries": result.dim**2}


def _vertex_columns(args, kwargs, result):
    return {"columns": len(result)}


def _lp_columns(args, kwargs, result):
    return {"columns": len(args[0][0])}


# (defining module, function) -> (span name, size hook)
TRACED = {
    ("spinhv.number_theory", "magnitude_feasible"): ("number_theory.feasible", None),
    ("spinhv.assignments", "enumerate_unconstrained"): ("assignments.enumerate", _enumerate_sizes),
    ("spinhv.assignments", "enumerate_constrained"): ("assignments.enumerate", _enumerate_sizes),
    ("spinhv.assignments", "feasible_by_enumeration"): ("assignments.oracle", None),
    ("spinhv.assignments", "squared_magnitude_classes"): ("assignments.classes", None),
    ("spinhv.bounds", "classical_bound"): ("bounds.scan", _scan_kind),
    ("spinhv.quantum", "bell_operator"): ("quantum.bell_build", _bell_entries),
    ("spinhv.quantum", "quantum_bound"): ("quantum.eigensolve", None),
    ("spinhv.quantum", "rotated_singlet"): ("quantum.states", None),
    ("spinhv.quantum", "expectation"): ("quantum.states", None),
    ("spinhv.quantum", "schmidt_coefficients"): ("quantum.states", None),
    ("spinhv.polytope", "vertex_array_quadrupled"): ("polytope.vertices", _vertex_columns),
    ("spinhv.polytope", "membership"): ("polytope.membership", None),
    ("spinhv.simplex", "solve_equality_lp"): ("simplex.lp", _lp_columns),
    ("spinhv.cli", "main"): ("cli", None),
}

NAME, START, END, PARENT, OP, SIZES, RAISED = range(7)


def _size(span: list, key: str) -> int:
    """A recorded size, 0 for a span whose call raised before returning one."""
    return span[SIZES][key] if span[SIZES] else 0


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op_id: int | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, sizes):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # a layer calling itself (enumerate_constrained -> _unconstrained)
            # stays one span
            if stack and spans[stack[-1]][NAME] == name:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id, None, False]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[RAISED] = True
                raise
            finally:
                span[END] = perf_counter()
                stack.pop()
            if sizes is not None:
                span[SIZES] = sizes(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        wrappers = {}
        for (module, attr), (name, sizes) in TRACED.items():
            fn = getattr(importlib.import_module(module), attr)
            wrappers[id(fn)] = self._wrap(name, fn, sizes)
        for module_name, module in list(sys.modules.items()):
            if module_name != "spinhv" and not module_name.startswith("spinhv."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()


def layer_totals(spans: list[list], op_seconds: float) -> dict[str, float]:
    """Per-layer counts and seconds, all additive across passes.

    Self time excludes direct child spans.
    """
    duration = [s[END] - s[START] for s in spans]
    child_time = [0.0] * len(spans)
    children: dict[int, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += duration[i]
            children[s[PARENT]].append(i)

    calls: dict[str, int] = defaultdict(int)
    busy: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    for i, s in enumerate(spans):
        calls[s[NAME]] += 1
        busy[s[NAME]] += duration[i]
        self_time[s[NAME]] += duration[i] - child_time[i]

    def kept_below(i: int) -> int:
        return sum(_size(spans[c], "kept") for c in children[i] if spans[c][NAME] == "assignments.enumerate")

    def total(name: str, key: str) -> int:
        return sum(_size(s, key) for s in spans if s[NAME] == name)

    scanned = total("assignments.enumerate", "scanned")
    kept = total("assignments.enumerate", "kept")
    pairs = sum(kept_below(i) ** 2 for i, s in enumerate(spans) if s[NAME] == "polytope.vertices")
    columns = total("polytope.vertices", "columns")
    # the constrained scan fills an (na, na) table, the unconstrained one a
    # closed-form minimum per b
    table = sum(
        kept_below(i) ** 2 if _size(s, "constrained") else kept_below(i)
        for i, s in enumerate(spans)
        if s[NAME] == "bounds.scan"
    )
    failed = [i for i, s in enumerate(spans) if s[NAME] == "simplex.lp" and s[RAISED]]

    return {
        "simplex.lp.calls": calls["simplex.lp"],
        "simplex.lp.busy_s": busy["simplex.lp"],
        "simplex.lp.columns": total("simplex.lp", "columns"),
        "simplex.lp.failures": len(failed),
        "simplex.lp.failed_s": sum(duration[i] for i in failed),
        "polytope.vertices.calls": calls["polytope.vertices"],
        "polytope.vertices.busy_s": busy["polytope.vertices"],
        "polytope.vertices.pairs": pairs,
        "polytope.vertices.columns": columns,
        "polytope.membership.self_s": self_time["polytope.membership"],
        "assignments.enumerate.calls": calls["assignments.enumerate"],
        "assignments.enumerate.busy_s": busy["assignments.enumerate"],
        "assignments.enumerate.scanned": scanned,
        "assignments.enumerate.kept": kept,
        "assignments.oracle.busy_s": busy["assignments.oracle"],
        "assignments.classes.busy_s": busy["assignments.classes"],
        "bounds.scan.calls": calls["bounds.scan"],
        "bounds.scan.self_s": self_time["bounds.scan"],
        "bounds.scan.table_entries": table,
        "quantum.bell_build.calls": calls["quantum.bell_build"],
        "quantum.bell_build.busy_s": busy["quantum.bell_build"],
        "quantum.bell_build.entries": total("quantum.bell_build", "entries"),
        "quantum.eigensolve.self_s": self_time["quantum.eigensolve"],
        "quantum.states.busy_s": busy["quantum.states"],
        "number_theory.feasible.calls": calls["number_theory.feasible"],
        "number_theory.feasible.busy_s": busy["number_theory.feasible"],
        "cli.self_s": self_time["cli"],
        "trace.self_s": sum(self_time.values()),
        "trace.op_s": op_seconds,
    }


def with_ratios(totals: dict[str, float]) -> dict[str, float]:
    """The totals plus the useful-work ratios of enumeration and vertex generation."""
    ratios = {
        "polytope.vertices.useful_ratio": ("polytope.vertices.columns", "polytope.vertices.pairs"),
        "assignments.enumerate.kept_ratio": ("assignments.enumerate.kept", "assignments.enumerate.scanned"),
    }
    out = dict(totals)
    for name, (num, den) in ratios.items():
        out[name] = totals[num] / totals[den] if totals[den] else 0.0
    return out
