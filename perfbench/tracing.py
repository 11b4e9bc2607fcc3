"""Spans around tdvrp's public functions, installed from outside the package.

The package has no counters or spans of its own, so the tracer rebinds each
traced function in every ``tdvrp`` module that holds it (``compare`` and
``cli`` import ``solve`` by name, for example) and restores the bindings on
exit. A span records its name, start, end, parent and a few attributes;
spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
from math import factorial
from time import perf_counter_ns


def _matrix_note(args, kwargs, result):
    return {"layers": args[1].n_layers}


def _candidates_note(args, kwargs, result):
    return {"candidates": len(result)}


def _improve_note(args, kwargs, result):
    route, params = args[0], args[2]
    n = len(route.order if hasattr(route, "order") else route)
    l_del = params.l_delete
    # every deletion scans each node of the shrinking tour and every
    # reinsertion each slot of the growing one: 2 * sum_{i<l} (n - i) moves
    moves = 2 * (l_del * n - l_del * (l_del - 1) // 2)
    return {"rounds": params.n_improve, "moves": moves * params.n_improve}


def _brute_force_note(args, kwargs, result):
    return {"permutations": factorial(args[0].n_nodes - 1)}


def _plan_note(args, kwargs, result):
    return {"requests": len(result.requests), "billed": result.quota_elements}


def _query_note(args, kwargs, result):
    return {"billed": len(args[1]) * len(args[2])}


def _path_note(args, kwargs, result):
    return {"path": str(args[0])}


# (module, attribute path, span name, attribute recorder)
TARGETS = (
    ("tdvrp.cli", "main", "cli.main", None),
    ("tdvrp.grasp", "solve", "grasp.solve", _matrix_note),
    ("tdvrp.grasp", "run_grasp", "grasp.run_grasp", None),
    ("tdvrp.grasp", "improve", "grasp.improve", _improve_note),
    ("tdvrp.grasp", "construct_route", "grasp.construct_route", None),
    ("tdvrp.grasp", "enumerate_insertions", "grasp.enumerate_insertions", _candidates_note),
    ("tdvrp.compare", "run_compare", "compare.run_compare", None),
    ("tdvrp.model", "average_matrix", "model.average_matrix", None),
    ("tdvrp.model", "evaluate_route", "model.evaluate_route", None),
    ("tdvrp.model", "validate_matrix", "model.validate_matrix", None),
    ("tdvrp.model", "save_matrix", "model.save_matrix", None),
    ("tdvrp.model", "load_matrix", "model.load_matrix", None),
    ("tdvrp.oracle", "brute_force_optimum", "oracle.brute_force_optimum", _brute_force_note),
    ("tdvrp.fetch", "plan_fetch", "fetch.plan_fetch", _plan_note),
    ("tdvrp.fetch", "execute_fetch", "fetch.execute_fetch", None),
    ("tdvrp.fetch", "read_cache_file", "fetch.read_cache_file", _path_note),
    ("tdvrp.fetch", "RecordedBackend.query", "fetch.query", _query_note),
    ("tdvrp.synth", "generate_synthetic", "synth.generate_synthetic", None),
    ("tdvrp.synth", "min_plus_closure", "synth.min_plus_closure", None),
)


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "attrs")

    def __init__(self, sid, parent, name, start):
        self.id = sid
        self.parent = parent
        self.name = name
        self.start = start
        self.end = None
        self.attrs = {}

    @property
    def seconds(self) -> float:
        return (self.end - self.start) / 1e9

    def as_dict(self) -> dict:
        return {
            "id": self.id, "parent": self.parent, "name": self.name,
            "start_ns": self.start, "end_ns": self.end, **self.attrs,
        }


class Tracer:
    """Collects spans while installed; one tracer per benchmark run."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._restore: list = []

    def _open(self, name) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, name, perf_counter_ns())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span):
        span.end = perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name, **attrs):
        """A span the benchmark opens itself, around a call or a phase."""
        span = self._open(name)
        span.attrs.update(attrs)
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, func, name, note):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self._close(span)
            if note is not None:
                span.attrs.update(note(args, kwargs, result))
            return result

        return traced

    def install(self):
        for module_name, attr, name, note in TARGETS:
            owner = importlib.import_module(module_name)
            *path, last = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, last)
            traced = self._wrap(original, name, note)
            holders = [owner] if path else [
                mod for mod_name, mod in sys.modules.items()
                if mod_name.split(".")[0] == "tdvrp" and mod is not None
                and getattr(mod, last, None) is original
            ]
            for holder in holders:
                setattr(holder, last, traced)
                self._restore.append((holder, last, original))

    def uninstall(self):
        while self._restore:
            holder, last, original = self._restore.pop()
            setattr(holder, last, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([s.as_dict() for s in self.spans], fh)
            fh.write("\n")


# --- reading the spans back -------------------------------------------------


class SpanIndex:
    """Parent and child lookups over a finished list of spans."""

    def __init__(self, spans):
        self.spans = spans
        self.children = {}
        for s in spans:
            self.children.setdefault(s.parent, []).append(s)

    def descendants(self, root, name=None):
        out = []
        stack = list(self.children.get(root.id, ()))
        while stack:
            s = stack.pop()
            if name is None or s.name == name:
                out.append(s)
            stack.extend(self.children.get(s.id, ()))
        return out

    def self_seconds(self, span) -> float:
        """Duration minus the time covered by direct children (one thread,
        so children never overlap)."""
        return span.seconds - sum(c.seconds for c in self.children.get(span.id, ()))

    def ancestors(self, span):
        by_id = self.spans
        out = []
        while span.parent is not None:
            span = by_id[span.parent]
            out.append(span)
        return out


@contextlib.contextmanager
def capture(owner, attr, keep):
    """Record `keep(args, result)` for every call of owner.attr while open.

    Used in untraced runs too, where it is the only rebinding: it reads the
    outputs a check needs and that the caller does not return (the baseline
    tour compare builds, the queries a CLI fetch sends). It takes no times.
    """
    original = getattr(owner, attr)
    kept = []

    @functools.wraps(original)
    def recording(*args, **kwargs):
        result = original(*args, **kwargs)
        kept.append(keep(args, result))
        return result

    setattr(owner, attr, recording)
    try:
        yield kept
    finally:
        setattr(owner, attr, original)
