"""Spans recorded around the public calls of each gradcon layer, from outside.

``install`` replaces every public function of the layer modules (and the
public methods of the classes they define) with a wrapper that records a
span: name, layer, start, end, parent span and the id of the solve it
belongs to.  ``scipy.sparse.linalg.splu`` is wrapped as well, as the
factorization step of the ``linalg`` layer.  Nothing in ``src/`` is
changed: a name bound to a wrapped function in any gradcon module is
rebound to its wrapper, so calls between modules are seen too.

Spans are kept in memory; :func:`setup_metrics` and :func:`solve_metrics`
turn them into the per-layer numbers the benchmark reports.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

LAYERS = ("mesh", "problems", "fem", "linalg", "solver", "evolution", "cli")


@dataclass
class Span:
    id: int
    parent: int | None
    name: str             # "<layer>.<function>"
    layer: str
    solve_id: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; records nothing while ``enabled`` is false."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.enabled = False
        self.solve_id = ""
        self._stack: list[Span] = []

    def open(self, name: str, layer: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, name, layer, self.solve_id, self.clock())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    @contextmanager
    def solve(self, solve_id: str):
        """Record the calls inside the block as one solve."""
        self.enabled, self.solve_id = True, solve_id
        try:
            yield
        finally:
            self.enabled, self.solve_id = False, ""

    @contextmanager
    def paused(self):
        enabled, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = enabled


def _solve_spd_attrs(result) -> dict:
    _, report = result
    return {"nnz": int(report.factor_nnz), "regularized": bool(report.regularized)}


def _newton_attrs(result) -> dict:
    return {"iterations": int(result[1])}


# facts read off a call's return value, by span name
ANNOTATE = {
    "linalg.solve_spd": _solve_spd_attrs,
    "solver.newton_solve": _newton_attrs,
}


def _wrap(tracer: Tracer, layer: str, name: str, fn):
    span_name = f"{layer}.{name}"
    annotate = ANNOTATE.get(span_name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        span = tracer.open(span_name, layer)
        try:
            result = fn(*args, **kwargs)
        except Exception:
            span.attrs["error"] = True
            raise
        finally:
            tracer.close(span)
        if annotate is not None:
            span.attrs.update(annotate(result))
        return result

    return traced


def install(tracer: Tracer, package: str = "gradcon"):
    """Wrap the public API of every layer module; returns an undo callable."""
    undo = []
    originals = {}   # id(function) -> (function, wrapper)

    def patch(owner, attr, value):
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    for layer in LAYERS:
        module = importlib.import_module(f"{package}.{layer}")
        for name, obj in list(vars(module).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                originals[id(obj)] = (obj, _wrap(tracer, layer, name, obj))
            elif inspect.isclass(obj):
                for attr, member in list(vars(obj).items()):
                    if attr.startswith("_"):
                        continue
                    qual = f"{name}.{attr}"
                    if isinstance(member, classmethod):
                        patch(obj, attr, classmethod(_wrap(tracer, layer, qual, member.__func__)))
                    elif inspect.isfunction(member):
                        patch(obj, attr, _wrap(tracer, layer, qual, member))

    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == package or mod_name.startswith(package + ".")):
            continue
        for name, obj in list(vars(module).items()):
            hit = originals.get(id(obj))
            if hit is not None and hit[0] is obj:
                patch(module, name, hit[1])

    import scipy.sparse.linalg as spla
    patch(spla, "splu", _wrap(tracer, "linalg", "splu", spla.splu))

    def restore():
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)
        undo.clear()

    return restore


# --- span arithmetic ----------------------------------------------------------


def children_index(spans) -> dict:
    index = {}
    for s in spans:
        index.setdefault(s.parent, []).append(s)
    return index


def self_time(span: Span, children: dict) -> float:
    """Duration minus the time its direct child spans cover."""
    return span.duration - sum(c.duration for c in children.get(span.id, ()))


def layer_self_time(span: Span, children: dict) -> float:
    """Duration minus the time spent in other layers below it.

    Descendants in the span's own layer are transparent: their time counts
    as the span's own, except for what they in turn spend in other layers.
    """
    foreign, stack = 0.0, list(children.get(span.id, ()))
    while stack:
        child = stack.pop()
        if child.layer == span.layer:
            stack.extend(children.get(child.id, ()))
        else:
            foreign += child.duration
    return span.duration - foreign


def descendants(span: Span, children: dict):
    stack = list(children.get(span.id, ()))
    while stack:
        child = stack.pop()
        yield child
        stack.extend(children.get(child.id, ()))


def outermost(spans, layer: str, by_id: dict):
    """Spans of ``layer`` with no ancestor in the same layer."""
    for s in spans:
        if s.layer != layer:
            continue
        parent = by_id.get(s.parent)
        while parent is not None and parent.layer != layer:
            parent = by_id.get(parent.parent)
        if parent is None:
            yield s


def _median(values, default=0.0):
    values = list(values)
    return float(statistics.median(values)) if values else default


def setup_metrics(spans) -> dict:
    """Set-up layer times over the spans of one set-up."""
    by_id = {s.id: s for s in spans}
    return {
        "mesh.build_s": sum(s.duration for s in outermost(spans, "mesh", by_id)),
        "fem.workspace_s": sum(s.duration for s in spans if s.name == "fem.build_workspace"),
        "problems.eval_s": sum(s.duration for s in outermost(spans, "problems", by_id)),
    }


def solve_metrics(spans) -> dict:
    """Per-layer times and counts over the spans of one solve."""
    by_id = {s.id: s for s in spans}
    children = children_index(spans)

    def named(name):
        return [s for s in spans if s.name == name]

    residual, jacobian = named("fem.assemble_huber_residual"), named("fem.assemble_huber_jacobian")
    spd, newton = named("linalg.solve_spd"), named("solver.newton_solve")
    newton_steps = sum(s.attrs.get("iterations", 0) for s in newton)
    # every line-search trial and the initial residual of a stage assemble
    # the residual once inside newton_solve
    trials = sum(
        sum(1 for d in descendants(s, children) if d.name == "fem.assemble_huber_residual") - 1
        for s in newton)
    steps = named("evolution.step")
    runs = named("evolution.run")
    newton_per_step = [
        sum(d.attrs.get("iterations", 0) for d in descendants(s, children)
            if d.name == "solver.newton_solve")
        for s in steps]
    return {
        "fem.residual_s": sum(s.duration for s in residual),
        "fem.residual_calls": len(residual),
        "fem.jacobian_s": sum(s.duration for s in jacobian),
        "fem.jacobian_calls": len(jacobian),
        "linalg.spd_s": sum(s.duration for s in spd),
        "linalg.factor_s": sum(s.duration for s in named("linalg.splu")),
        "linalg.calls": len(spd),
        "linalg.factor_nnz_p50": _median(s.attrs["nnz"] for s in spd if "nnz" in s.attrs),
        "linalg.regularized": sum(1 for s in spd if s.attrs.get("regularized")),
        "linalg.errors": sum(1 for s in spd if s.attrs.get("error")),
        "solver.stages": len(newton),
        "solver.newton_steps": newton_steps,
        "solver.backtracks": trials - newton_steps,
        "solver.ls_accept_ratio": newton_steps / trials if trials else 0.0,
        "solver.newton_self_s": sum(layer_self_time(s, children) for s in newton),
        "solver.diagnostics_s": sum(s.duration for s in named("solver.diagnostics")),
        "evolution.steps": len(steps),
        "evolution.newton_per_step_p50": _median(newton_per_step),
        "evolution.overhead_s": sum(s.duration for s in runs) - sum(s.duration for s in steps),
        "cli.export_s": sum(s.duration for s in outermost(spans, "cli", by_id)),
    }


def self_times(spans) -> dict:
    """Total self time per span name, largest first."""
    children = children_index(spans)
    totals = {}
    for s in spans:
        totals[s.name] = totals.get(s.name, 0.0) + self_time(s, children)
    return dict(sorted(totals.items(), key=lambda kv: -kv[1]))


def group_by_solve(spans) -> dict:
    groups = {}
    for s in spans:
        groups.setdefault(s.solve_id, []).append(s)
    return groups
