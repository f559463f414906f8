"""Span tracing of cellalg's layers, installed from outside the library.

Each layer is one module of ``cellalg``.  ``Tracer.install`` replaces the
layer's public functions, plus the methods and private functions named in
``EXTRA_SPANS``, with wrappers that record one span per call: which
function, the index of the enclosing span, and the start and end clock
readings.  ``from .x import y`` copies the binding into the importing
module, so every module attribute bound to a traced function object is
replaced, not only the defining one.

Spans stay in memory until ``take_summary`` folds them into per-function
totals: call count, self time (duration minus the time covered by child
spans) and inclusive time of the outermost calls (a recursive call inside a
call of the same function is not counted twice).  Memo hit ratios and sizes
come from ``cache_info()`` of the ``lru_cache`` objects of each module.
"""

import importlib
import inspect
import time

LAYERS = ("exactring", "linalg", "combin", "hecke", "bmw", "brauer",
          "towers", "specsim", "cli")

# CoeffFraction operators and the poly_* helpers run millions of times per
# query; a span on each would swamp what it measures, so exactring is
# spanned only at these three entry points.
EXACTRING_SPANS = ("poly_gcd", "parse_fraction", "Specialization.apply")

# Further spans: the solver classes of linalg, and private functions that
# another layer calls directly or that carry a per-layer metric of their own.
EXTRA_SPANS = {
    "linalg": tuple("{}.{}".format(cls, method)
                    for cls in ("ColumnSolver", "TallSolver", "LinearSolver")
                    for method in ("__init__", "solve_vector")),
    "specsim": ("_det",),
    "cli": ("_load_cache", "_write_cache"),
}


def modules():
    return {layer: importlib.import_module("cellalg." + layer)
            for layer in LAYERS}


def traced_functions(modules):
    """(layer, qualified name, owner, attribute, function) for every
    function the tracer wraps, at its defining binding."""
    out = []
    for layer, mod in modules.items():
        if layer == "exactring":
            names = list(EXACTRING_SPANS)
        else:
            names = [k for k, v in vars(mod).items()
                     if not k.startswith("_") and callable(v)
                     and not inspect.isclass(v)
                     and getattr(v, "__module__", None) == mod.__name__]
            names.extend(EXTRA_SPANS.get(layer, ()))
        for name in names:
            owner, attr = mod, name
            if "." in name:
                cls, attr = name.split(".")
                owner = getattr(mod, cls)
            out.append((layer, name, owner, attr, getattr(owner, attr)))
    return out


def memo_objects(modules):
    """{layer: [lru_cache wrappers defined in that module]}."""
    out = {}
    for layer, mod in modules.items():
        out[layer] = [v for v in vars(mod).values()
                      if hasattr(v, "cache_info")
                      and getattr(v, "__module__", None) == mod.__name__]
    return out


def memo_snapshot(memos):
    """{layer: [hits, misses, currsize]} summed over the layer's memos."""
    out = {}
    for layer, objs in memos.items():
        total = [0, 0, 0]
        for obj in objs:
            info = obj.cache_info()
            total[0] += info.hits
            total[1] += info.misses
            total[2] += info.currsize
        out[layer] = total
    return out


def self_times(spans):
    """Self time of each span: its duration minus the durations of its
    direct children.  ``spans`` holds (fid, parent index or -1, start, end)
    with every parent listed before its children; calls are sequential, so
    children of one span never overlap."""
    covered = [0.0] * len(spans)
    for fid, parent, start, end in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i]
            for i, (fid, parent, start, end) in enumerate(spans)]


def summarize(spans, names):
    """{name: [calls, self_s, inclusive_s]} over a list of spans."""
    selfs = self_times(spans)
    empty = frozenset()
    ancestors = [empty] * len(spans)
    table = {}
    for i, (fid, parent, start, end) in enumerate(spans):
        above = empty
        if parent >= 0:
            above = ancestors[parent] | {spans[parent][0]}
        ancestors[i] = above
        row = table.setdefault(names[fid], [0, 0.0, 0.0])
        row[0] += 1
        row[1] += selfs[i]
        if fid not in above:
            row[2] += end - start
    return table


def merge_tables(into, table):
    for name, (calls, self_s, incl_s) in table.items():
        row = into.setdefault(name, [0, 0.0, 0.0])
        row[0] += calls
        row[1] += self_s
        row[2] += incl_s
    return into


class Tracer:
    """Owns the span list and the patched bindings of one process."""

    def __init__(self):
        self.modules = modules()
        self.memos = memo_objects(self.modules)
        self.names = []
        self.spans = []
        self._stack = []
        self._saved = []

    def _wrap(self, fid, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            record = [fid, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[3] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer, name, owner, attr, fn in traced_functions(self.modules):
            fid = len(self.names)
            self.names.append("{}.{}".format(layer, name))
            wrappers[id(fn)] = self._wrap(fid, fn)
            if inspect.isclass(owner):
                self._saved.append((owner, attr, fn))
                setattr(owner, attr, wrappers[id(fn)])
        for mod in list(self.modules.values()) + [
                importlib.import_module("cellalg")]:
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def memo(self):
        return memo_snapshot(self.memos)

    def take_summary(self):
        """Per-function totals of the spans recorded so far; clears them."""
        if self._stack:
            raise RuntimeError("summary taken inside a traced call")
        table = summarize(self.spans, self.names)
        del self.spans[:]
        return table
