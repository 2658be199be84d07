"""Spans around calls into labt, recorded from outside the library.

:class:`Tracer` replaces module-level names such as
``labt.engine.select_threshold`` with wrappers that record a span (name,
start, end, parent span, op id) and, for some calls, a count taken from
the result. Spans stay in memory until the run ends. A name that no
longer exists, for instance because a later version batched it away, is
listed in ``absent`` instead of raising.
"""

from __future__ import annotations

import importlib
import json
from collections import defaultdict
from time import perf_counter


def _read_span(args, kwargs):
    data = args[0] if args else kwargs.get("data", b"")
    magic = bytes(data[:2])
    return "image_core.read_pgm.p2" if magic == b"P2" else "image_core.read_pgm.p5"


def _count_run(tracer, args, kwargs, res):
    g = res.grid
    tracer.count("engine.blocks", g.rows * g.cols)
    tracer.count("engine.out_of_range", res.out_of_range_count)
    tracer.count("engine.non_overlap", res.non_overlap_count)


def _count_multiscan(tracer, args, kwargs, res):
    combined = int(res.combined.sum())
    tracer.count("multiscan.combined_fg", combined)
    tracer.count("multiscan.added_fg", combined - int(res.per_scan[0].sum()))


def _count_read(tracer, args, kwargs, res):
    data = args[0] if args else kwargs.get("data", b"")
    tracer.count("image_core.read_pgm.bytes", len(data))


def _count_write(tracer, args, kwargs, res):
    tracer.count("image_core.write_pgm.bytes", len(res))


# (module, attribute, span name or function of the call, result counter).
# Each wrapped callee is wrapped where its callers look it up.
TARGETS = [
    ("labt.engine", "run_labt", "engine.run_labt", _count_run),
    ("labt.multiscan", "run_labt", "engine.run_labt", _count_run),
    ("labt.cli", "run_labt", "engine.run_labt", _count_run),
    ("labt.engine", "select_threshold", "thresholders.select_threshold", None),
    ("labt.engine", "histogram", "image_core.histogram", None),
    ("labt.engine", "neighbor_range", "engine.neighbor_range", None),
    ("labt.engine", "choose_grid", "engine.choose_grid", None),
    ("labt.engine", "pad_to_multiple", "image_core.pad_to_multiple", None),
    ("labt.multiscan", "run_multiscan", "multiscan.run_multiscan", _count_multiscan),
    ("labt.thresholders", "niblack_binarize", "thresholders.niblack_binarize", None),
    ("labt.image_core", "read_pgm", _read_span, _count_read),
    ("labt.cli", "read_pgm", _read_span, _count_read),
    ("labt.image_core", "write_pgm", "image_core.write_pgm", _count_write),
    ("labt.cli", "write_pgm", "image_core.write_pgm", _count_write),
]


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id]
        self.counts = []  # (name, value, op id)
        self.absent = []
        self.op = None
        self._stack = []
        self._patched = []

    def count(self, name, value):
        self.counts.append((name, value, self.op))

    def span(self, name):
        """Context manager recording one span around a block of code."""
        return _Span(self, name)

    def install(self):
        self.absent = []
        for module_name, attr, name, counter in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(f"{module_name}.{attr}")
                continue
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(original, name, counter))
            self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched = []

    def _wrap(self, fn, name, counter):
        tracer = self

        def wrapper(*args, **kwargs):
            span_name = name if isinstance(name, str) else name(args, kwargs)
            with _Span(tracer, span_name):
                res = fn(*args, **kwargs)
            if counter is not None:
                counter(tracer, args, kwargs, res)
            return res

        wrapper.__wrapped__ = fn
        return wrapper

    def dump(self, path, extra=None):
        """Write one JSON array per line: ``["span", name, start, end,
        parent, op]``, ``["count", name, value, op]`` or ``["extra", key, value]``."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(["span", *span]) + "\n")
            for count in self.counts:
                fh.write(json.dumps(["count", *count]) + "\n")
            for key, value in (extra or {}).items():
                fh.write(json.dumps(["extra", key, value]) + "\n")

    @staticmethod
    def load(path):
        """Spans, counts and extras written by :meth:`dump`."""
        spans, counts, extra = [], [], {}
        with open(path) as fh:
            for line in fh:
                kind, *rec = json.loads(line)
                if kind == "span":
                    spans.append(rec)
                elif kind == "count":
                    counts.append(tuple(rec))
                else:
                    extra[rec[0]] = rec[1]
        return spans, counts, extra

    def merge(self, spans, counts, op):
        """Append spans and counts recorded by another process under op id ``op``."""
        offset = len(self.spans)
        for name, start, end, parent, _ in spans:
            self.spans.append([name, start, end, None if parent is None else parent + offset, op])
        self.counts.extend((name, value, op) for name, value, _ in counts)


class _Span:
    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        self.index = len(t.spans)
        parent = t._stack[-1] if t._stack else None
        t.spans.append([self.name, perf_counter(), None, parent, t.op])
        t._stack.append(self.index)
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.spans[self.index][2] = perf_counter()
        t._stack.pop()
        return False


def summarize(spans, counts, ops):
    """Per-name call counts, busy seconds and self seconds over ``ops``.

    Self time is a span's duration minus its direct children's, which
    cover disjoint parts of it because one thread makes the calls.
    """
    calls = defaultdict(int)
    busy = defaultdict(float)
    child = defaultdict(float)
    for name, start, end, parent, op in spans:
        if op not in ops:
            continue
        calls[name] += 1
        busy[name] += end - start
        if parent is not None:
            child[parent] += end - start
    self_s = defaultdict(float)
    for i, (name, start, end, parent, op) in enumerate(spans):
        if op in ops:
            self_s[name] += (end - start) - child.get(i, 0.0)
    totals = defaultdict(float)
    for name, value, op in counts:
        if op in ops:
            totals[name] += value
    return calls, busy, self_s, totals
