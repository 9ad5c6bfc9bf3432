"""Span tracing of msfem from outside the package.

The traced run replaces the module or class attribute through which a caller
looks a function up with a wrapper that records a span (name, start, end,
parent) and a few counts.  Nothing inside ``src/`` is changed; uninstalling
restores every original attribute.  A wrapped name that no longer exists is
recorded as absent, so a refactor that deletes a layer does not break the
benchmark.
"""

from __future__ import annotations

import importlib
import inspect
import math
import statistics
import time
from collections import defaultdict

# (owner, attribute, span name).  The owner is the module or class the caller
# looks the attribute up through: scheme imports build_structured,
# build_*_space and interpolate into its own namespace, forms imports
# from_arrays into its own, and everything else is reached as module.name.
WRAPPED = [
    ("scheme", "build_structured", "mesh.build_structured"),
    ("scheme", "build_scalar_space", "space.build"),
    ("scheme", "build_vector_space", "space.build"),
    ("scheme", "interpolate", "space.interpolate"),
    ("space.FeSpace", "gather_cells", "space.gather_cells"),
    ("forms", "assemble_mass", "forms.assemble_mass"),
    ("forms", "assemble_stiffness", "forms.assemble_stiffness"),
    ("forms", "assemble_D", "forms.assemble_D"),
    ("forms", "assemble_B", "forms.assemble_B"),
    ("forms", "assemble_weighted_mass", "forms.assemble_weighted_mass"),
    ("forms", "assemble_current_load", "forms.assemble_current_load"),
    ("forms", "assemble_source_load", "forms.assemble_source_load"),
    ("forms", "assemble_coefficient_load", "forms.assemble_coefficient_load"),
    ("forms", "from_arrays", "forms.from_arrays"),
    ("sparsela.SparseMatrix", "add", "sparsela.SparseMatrix.add"),
    ("sparsela", "solve_spd", "sparsela.solve"),
    ("sparsela", "solve_complex", "sparsela.solve"),
    ("mms", "source_f", "mms.source_f"),
    ("mms", "source_g", "mms.source_g"),
    ("mms", "source_l", "mms.source_l"),
    ("mms", "error_norms", "mms.error_norms"),
    ("scheme.AlternatingStepper", "step_wave_a", "scheme.step_wave_a"),
    ("scheme.AlternatingStepper", "step_wave_phi", "scheme.step_wave_phi"),
    ("scheme.AlternatingStepper", "step_schrodinger", "scheme.step_schrodinger"),
]

# Assembly routines that loop over quadrature points themselves; the
# wrappers around assemble_mass and assemble_source_load only delegate.
QUADRATURE_FORMS = {
    "forms.assemble_stiffness", "forms.assemble_D", "forms.assemble_B",
    "forms.assemble_weighted_mass", "forms.assemble_current_load",
    "forms.assemble_coefficient_load",
}
SOURCES = {"mms.source_f", "mms.source_g", "mms.source_l"}
# A solve span takes the name of the step phase that called it.
SOLVE_PHASE = {
    "scheme.step_wave_a": "sparsela.solve_A",
    "scheme.step_wave_phi": "sparsela.solve_phi",
    "scheme.step_schrodinger": "sparsela.solve_psi",
}
STEP_PHASES = tuple(SOLVE_PHASE)
TRAJECTORY_SPAN = "trajectory"
SETUP_SPAN = "scheme.setup"
STEP_SPAN = "scheme.advance"


class Span:
    __slots__ = ("id", "name", "parent", "start", "end", "attrs")

    def __init__(self, id_, name, parent, start):
        self.id = id_
        self.name = name
        self.parent = parent
        self.start = start
        self.end = None
        self.attrs = None

    def as_list(self):
        return [self.id, self.name, self.parent, self.start, self.end, self.attrs]


class Tracer:
    """In-memory span recorder with attribute patching."""

    def __init__(self, wrapped=WRAPPED):
        self.wrapped = wrapped
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []
        self.absent: list[str] = []
        self._rule_sizes: dict[tuple[int, int], int] = {}

    # ---- spans -------------------------------------------------------------

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, parent, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span):
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def span(self, name: str):
        return _SpanContext(self, name)

    def current_name(self) -> str | None:
        return self._stack[-1].name if self._stack else None

    # ---- patching ------------------------------------------------------------

    def _resolve(self, owner: str):
        module, _, cls = owner.partition(".")
        obj = importlib.import_module(f"msfem.{module}")
        for part in filter(None, cls.split(".")):
            obj = getattr(obj, part)
        return obj

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.absent = []
        for owner, attr, name in self.wrapped:
            try:
                target = self._resolve(owner)
                original = target.__dict__[attr]
            except (AttributeError, KeyError, ImportError):
                self.absent.append(f"{owner}.{attr}")
                continue
            self._patches.append((target, attr, original))
            setattr(target, attr, self._wrapper(original, name))

    def uninstall(self):
        while self._patches:
            target, attr, original = self._patches.pop()
            setattr(target, attr, original)

    def _wrapper(self, fn, name):
        tracer = self
        try:
            signature = inspect.signature(fn)
        except (TypeError, ValueError):
            signature = None
        counts_qpoints = name in QUADRATURE_FORMS and signature is not None \
            and "qdeg" in signature.parameters
        is_source = name in SOURCES
        is_solve = name == "sparsela.solve"

        def traced(*args, **kwargs):
            span_name = name
            if is_solve:
                span_name = SOLVE_PHASE.get(tracer.current_name(), "sparsela.solve_other")
            span = tracer.open(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if counts_qpoints:
                span.attrs = tracer._qpoint_counts(signature, args, kwargs)
            elif is_source:
                x = args[1] if len(args) > 1 else kwargs["x"]
                span.attrs = {"points": math.prod(getattr(x, "shape", (1, 1))[:-1])}
            elif is_solve:
                span.attrs = _solve_attrs(fn.__name__, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _qpoint_counts(self, signature, args, kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        space = next(iter(bound.arguments.values()))
        qdeg = bound.arguments["qdeg"]
        if qdeg is None:
            qdeg = 2 * space.degree + 2
        mesh = space.mesh
        key = (mesh.dim, qdeg)
        if key not in self._rule_sizes:
            elements = importlib.import_module("msfem.elements")
            self._rule_sizes[key] = int(elements.quadrature_rule(*key).weights.size)
        return {"cells": int(mesh.n_cells), "qpoints": int(mesh.n_cells) * self._rule_sizes[key]}


class _SpanContext:
    __slots__ = ("tracer", "name", "span")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.span = self.tracer.open(self.name)
        return self.span

    def __exit__(self, *exc):
        self.tracer.close(self.span)
        return False


def _solve_attrs(fn_name, args, kwargs, result):
    report = result[1] if isinstance(result, tuple) and len(result) > 1 else None
    method = getattr(report, "method", None)
    if fn_name == "solve_complex":
        tried_iterative = kwargs.get("precond") is not None
    else:
        tried_iterative = kwargs.get("method", "auto") != "direct"
    return {
        "iters": getattr(report, "iterations", 0),
        "method": method,
        "fallback": int(tried_iterative and method == "direct-lu"),
    }


# ---- reduction of spans to per-layer metrics ---------------------------------

def _duration(span):
    return span.end - span.start


def _children(spans):
    kids = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            kids[s.parent].append(s)
    return kids


def _subtree_totals(root, kids):
    """Per-name totals (time, self time, calls, attribute sums) under a span."""
    totals = defaultdict(lambda: defaultdict(float))
    todo = list(kids.get(root.id, ()))
    while todo:
        s = todo.pop()
        dur = _duration(s)
        inner = sum(_duration(c) for c in kids.get(s.id, ()))
        t = totals[s.name]
        t["s"] += dur
        t["self_s"] += dur - inner
        t["calls"] += 1
        for key, value in (s.attrs or {}).items():
            if isinstance(value, (int, float)):
                t[key] += value
        todo.extend(kids.get(s.id, ()))
    return totals


def _median(values):
    return statistics.median(values) if values else 0.0


def step_coverage(step, kids):
    """Share of one advance() span covered by the three step-phase spans."""
    covered = sum(_duration(c) for c in kids.get(step.id, ()) if c.name in STEP_PHASES)
    return covered / _duration(step)


def layer_metrics(tracer: Tracer, warmup: int):
    """Per-layer metrics of every traced trajectory.

    A trajectory is a top-level span named TRAJECTORY_SPAN holding one setup
    span and its advance() spans.  Per-step values are medians over the
    advance() spans after the first ``warmup`` of each trajectory, setup
    values medians over the setups, and per-trajectory values medians over
    the trajectories.  Returns ({name: (value, unit)}, step coverages).
    """
    kids = _children(tracer.spans)
    roots = [s for s in tracer.spans if s.parent is None and s.name == TRAJECTORY_SPAN]
    setups, steps = [], []
    for root in roots:
        setups += [c for c in kids.get(root.id, ()) if c.name == SETUP_SPAN]
        steps += [c for c in kids.get(root.id, ()) if c.name == STEP_SPAN][warmup:]
    per_step = [_subtree_totals(s, kids) for s in steps]
    per_setup = [_subtree_totals(s, kids) for s in setups]
    per_root = [_subtree_totals(r, kids) for r in roots]

    def med(totals, name, key):
        return _median([t[name][key] for t in totals])

    out = {}
    for src in sorted(SOURCES):
        out[f"{src}.s"] = (med(per_step, src, "s"), "s")
        out[f"{src}.calls"] = (med(per_step, src, "calls"), "count")
    out["mms.source_points_per_step"] = (
        _median([sum(t[s]["points"] for s in SOURCES) for t in per_step]), "count")
    out["forms.assemble_source_load.self_s"] = (
        med(per_step, "forms.assemble_source_load", "self_s"), "s")
    for form in ("forms.assemble_B", "forms.assemble_weighted_mass",
                 "forms.assemble_current_load"):
        out[f"{form}.s"] = (med(per_step, form, "s"), "s")
        out[f"{form}.calls"] = (med(per_step, form, "calls"), "count")
    out["forms.assemble_coefficient_load.self_s"] = (
        med(per_step, "forms.assemble_coefficient_load", "self_s"), "s")
    out["forms.assemble_coefficient_load.calls"] = (
        med(per_step, "forms.assemble_coefficient_load", "calls"), "count")
    for layer in ("forms.from_arrays", "sparsela.SparseMatrix.add", "space.gather_cells"):
        out[f"{layer}.s"] = (med(per_step, layer, "s"), "s")
        out[f"{layer}.calls"] = (med(per_step, layer, "calls"), "count")
    qpoints = [sum(t[f]["qpoints"] for f in QUADRATURE_FORMS) for t in per_step]
    cells = [sum(t[f]["cells"] for f in QUADRATURE_FORMS) for t in per_step]
    out["forms.qpoints_per_step"] = (_median(qpoints), "count")
    out["elements.qpoints_per_cell"] = (
        _median([q / c for q, c in zip(qpoints, cells) if c]), "count")
    for layer in ("forms.assemble_D", "forms.assemble_mass", "forms.assemble_stiffness",
                  "space.build", "mesh.build_structured", "space.interpolate"):
        out[f"{layer}.s"] = (med(per_setup, layer, "s"), "s")
    out["scheme.setup.self_s"] = (_median(
        [_duration(s) - sum(_duration(c) for c in kids.get(s.id, ())) for s in setups]), "s")
    for solve in ("sparsela.solve_psi", "sparsela.solve_A", "sparsela.solve_phi"):
        out[f"{solve}.s"] = (med(per_step, solve, "s"), "s")
        out[f"{solve}.iters"] = (med(per_step, solve, "iters"), "count")
    out["sparsela.fallbacks"] = (_median(
        [sum(t[solve]["fallback"] for solve in SOLVE_PHASE.values()) for t in per_root]),
        "count")
    for phase in STEP_PHASES:
        out[f"{phase}.s"] = (med(per_step, phase, "s"), "s")
        out[f"{phase}.self_s"] = (med(per_step, phase, "self_s"), "s")
    out["mms.error_norms.s"] = (med(per_root, "mms.error_norms", "s"), "s")
    coverages = [step_coverage(s, kids) for s in steps]
    return out, coverages
