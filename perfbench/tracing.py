"""Spans around kreinkit's cross-module calls, recorded from the benchmark's side.

Nothing under ``src/`` knows about these spans. :class:`Tracer` rebinds, in
every ``kreinkit`` module taken from ``sys.modules``, each public function of
the layer modules: ``from .spaces import operator_norm`` copies the binding
into ``mnps``, ``ball``, ``fixpoint``, ``cli`` and ``fixtures``, so every copy
is replaced, and the defining module's own binding too, so intra-module calls
(``common_fixed_point`` -> ``group_average_metric``) are seen.  The package
``kreinkit`` re-exports the same objects, so ``kreinkit.mnps`` resolves to the
wrapped function while tracing is installed.  It also wraps the
``GroupRep.norm`` property and ``FiniteGroup.from_table`` at their classes,
the CLI's private JSON read/write helpers, and ``scipy.linalg.schur``, which
only ``kreinkit.mnps`` calls (it looks the name up on the module each time).

Leaving the ``with`` block restores every binding, so an untraced pass runs
the unmodified program.  Spans are kept in memory with their parent;
:func:`summarize` folds them into additive per-layer totals.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import threading
import time

LAYERS = ("mnps", "spaces", "ball", "fixpoint", "qpd", "groups", "serialization", "cli")

#: Private CLI helpers that bound the parse and write stages.
CLI_PRIVATE = ("_load_json", "_write_json")

CERTIFY = {"spaces.invariance_residual", "spaces.subspace_signature", "spaces.operator_norm"}
SUBSPACE = {"spaces.graph_of", "spaces.graph_from_subspace", "spaces.subspace_signature"}
# A CLI command's time splits into parse (input JSON to arrays), write (arrays
# to output JSON on disk) and solve (the rest).
COMMANDS = {f"cli.cmd_{c}" for c in ("mnps", "ladder", "ball", "fixpoint", "unitarize", "qpd", "gen")}
PARSE = {"cli._load_json"} | {f"serialization.{x}_from_json" for x in ("matrix", "space", "group", "rep", "group_function")}
WRITE = {"cli._write_json"} | {f"serialization.{x}_to_json" for x in ("matrix", "space", "group", "rep", "group_function")}


class Span:
    __slots__ = ("name", "layer", "parent", "start", "end", "info")

    def __init__(self, name, layer, parent):
        self.name, self.layer, self.parent, self.info = name, layer, parent, None


class Tracer:
    """Installs wrappers while active and collects their spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._main_stack: list[Span] = []
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[Span]) -> Span | None:
        if stack:
            return stack[-1]
        # A worker thread (the CLI's threaded ladder) is caused by whatever
        # the main thread has open when it starts its first span.
        main = self._main_stack
        return main[-1] if main else None

    def wrap(self, fn, name: str, layer: str, on_return=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span = Span(name, layer, tracer._parent(stack))
            stack.append(span)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if on_return is not None:
                span.info = on_return(args, out)
            return out

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        mods = {n: m for n, m in list(sys.modules.items()) if n == "kreinkit" or n.startswith("kreinkit.")}
        wrapped: dict[int, object] = {}
        for layer in LAYERS:
            mod = mods.get(f"kreinkit.{layer}")
            if mod is None:
                continue
            for attr, obj in vars(mod).items():
                public = not attr.startswith("_") or (layer == "cli" and attr in CLI_PRIVATE)
                if public and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    hook = _mnps_info if obj.__qualname__ == "mnps" and layer == "mnps" else None
                    wrapped[id(obj)] = self.wrap(obj, f"{layer}.{attr}", layer, hook)
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    self._set(mod, attr, wrapped[id(obj)])

        mnps_mod = mods["kreinkit.mnps"]
        self._set(mnps_mod.sla, "schur", self.wrap(mnps_mod.sla.schur, "scipy.schur", "scipy"))
        rep_cls = mods["kreinkit.fixpoint"].GroupRep
        norm = rep_cls.__dict__["norm"]
        self._set(rep_cls, "norm", property(self.wrap(norm.fget, "fixpoint.GroupRep.norm", "fixpoint")))
        group_cls = mods["kreinkit.groups"].FiniteGroup
        from_table = group_cls.__dict__["from_table"]
        self._set(group_cls, "from_table", classmethod(self.wrap(from_table.__func__, "groups.from_table", "groups")))
        return self

    def __exit__(self, *exc) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def drain(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans


def _mnps_info(args, report):
    space = args[0]
    return space.n, space.n_minus, report.iterations, report.certified and report.iterations <= 1


def _union(intervals) -> float:
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b > end:
            total += b - max(a, end)
            end = b
    return total


def _top(spans, names) -> list[Span]:
    """Spans named in ``names`` with no ancestor named in ``names``."""
    out = []
    for s in spans:
        if s.name not in names:
            continue
        p = s.parent
        while p is not None and p.name not in names:
            p = p.parent
        if p is None:
            out.append(s)
    return out


def summarize(spans: list[Span]) -> dict:
    """Additive totals (seconds, counts, lists of seconds) for one batch of spans."""
    acc: dict = {}

    def add(key, value):
        acc[key] = acc.get(key, 0.0) + value

    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append(s)
    for s in spans:
        dur = s.end - s.start
        kids = [(max(c.start, s.start), min(c.end, s.end)) for c in children.get(id(s), ())]
        add(f"{s.layer}.self_s", dur - _union(kids))
        add(f"{s.name}#calls", 1)
        add(f"{s.name}#s", dur)
        if s.name == "mnps.mnps" and s.info is not None:
            n, k, iterations, first = s.info
            add("mnps.iterations", iterations)
            add("mnps.first_step", int(first))
            add("mnps.reports", 1)
            if s.parent is None:
                acc.setdefault(f"mnps.solve_s.n{n}_k{k}", []).append(dur)
        if s.name in CERTIFY and s.parent is not None and s.parent.layer == "mnps":
            add("mnps.certify_s", dur)
    add("spaces.subspace_s", _total(_top(spans, SUBSPACE)))
    in_cli = [s for s in spans if _inside(s, COMMANDS)]
    parse_s, write_s = _total(_top(in_cli, PARSE)), _total(_top(in_cli, WRITE))
    add("cli.parse_s", parse_s)
    add("cli.write_s", write_s)
    add("cli.solve_s", _total(_top(spans, COMMANDS)) - parse_s - write_s)
    return acc


def _total(spans) -> float:
    return sum(s.end - s.start for s in spans)


def _inside(span: Span, names) -> bool:
    p = span.parent
    while p is not None:
        if p.name in names:
            return True
        p = p.parent
    return False


def merge(into: dict, acc: dict) -> dict:
    for key, value in acc.items():
        if isinstance(value, list):
            into.setdefault(key, []).extend(value)
        else:
            into[key] = into.get(key, 0.0) + value
    return into


def layer_metrics(acc: dict, ops: int) -> dict:
    """Per-layer metrics from merged totals; per operation unless the unit says otherwise."""
    get = acc.get

    def per_op(key):
        return get(key, 0.0) / ops

    def ratio(num, den):
        return get(num, 0.0) / get(den) if get(den) else 0.0

    out = {
        "mnps.calls": (per_op("mnps.mnps#calls"), "count/op"),
        "mnps.s": (per_op("mnps.mnps#s"), "s/op"),
        "mnps.iterations_mean": (ratio("mnps.iterations", "mnps.reports"), "count/call"),
        "mnps.first_step_ratio": (ratio("mnps.first_step", "mnps.reports"), "ratio"),
        "mnps.schur_calls": (per_op("scipy.schur#calls"), "count/op"),
        "mnps.schur_s": (per_op("scipy.schur#s"), "s/op"),
        "mnps.certify_s": (per_op("mnps.certify_s"), "s/op"),
        "mnps.certify_share": (ratio("mnps.certify_s", "mnps.mnps#s"), "ratio"),
    }
    for size in ("n400_k5", "n400_k20", "n1000_k5", "n1000_k20", "n200_k5"):
        solves = get(f"mnps.solve_s.{size}")
        out[f"mnps.solve_ms.{size}"] = (1e3 * statistics.median(solves) if solves else 0.0, "ms")
    out.update({
        "mnps.ladder_s": (per_op("mnps.approximation_ladder#s"), "s/op"),
        "spaces.operator_norm_calls": (per_op("spaces.operator_norm#calls"), "count/op"),
        "spaces.operator_norm_s": (per_op("spaces.operator_norm#s"), "s/op"),
        "spaces.subspace_s": (per_op("spaces.subspace_s"), "s/op"),
        "ball.fractional_linear_calls": (per_op("ball.fractional_linear#calls"), "count/op"),
        "ball.fractional_linear_s": (per_op("ball.fractional_linear#s"), "s/op"),
        "ball.mobius_matrix_s": (per_op("ball.mobius_matrix#s"), "s/op"),
        "fixpoint.common_fixed_point_s": (per_op("fixpoint.common_fixed_point#s"), "s/op"),
        "fixpoint.group_average_metric_s": (per_op("fixpoint.group_average_metric#s"), "s/op"),
        "fixpoint.unitarize_s": (per_op("fixpoint.unitarize#s"), "s/op"),
        "fixpoint.rep_norm_calls": (per_op("fixpoint.GroupRep.norm#calls"), "count/op"),
        "qpd.decompose_s": (per_op("qpd.decompose#s"), "s/op"),
        "qpd.gns_construct_s": (per_op("qpd.gns_construct#s"), "s/op"),
        "qpd.verify_decomposition_s": (per_op("qpd.verify_decomposition#s"), "s/op"),
        "qpd.negative_squares_calls": (per_op("qpd.negative_squares#calls"), "count/op"),
        "groups.from_table_s": (per_op("groups.from_table#s"), "s/op"),
        "serialization.matrix_from_json_s": (per_op("serialization.matrix_from_json#s"), "s/op"),
        "serialization.matrix_to_json_s": (per_op("serialization.matrix_to_json#s"), "s/op"),
        "cli.import_s": (per_op("cli.import_s"), "s/op"),
        "cli.parse_s": (per_op("cli.parse_s"), "s/op"),
        "cli.solve_s": (per_op("cli.solve_s"), "s/op"),
        "cli.write_s": (per_op("cli.write_s"), "s/op"),
    })
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (per_op(f"{layer}.self_s"), "s/op")
    for command in ("mnps", "ball", "unitarize", "ladder"):
        walls = get(f"cli.wall_s.{command}")
        out[f"cli.{command}_ms"] = (1e3 * statistics.median(walls) if walls else 0.0, "ms")
    return out
