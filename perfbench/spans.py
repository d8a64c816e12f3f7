"""In-memory span recorder for the traced benchmark run.

``SpanRecorder.installed(modules)`` wraps every public function of the
given mvskin modules under each name the package binds it to: the
defining module's global, every other module's ``from ... import``
alias, and module-level dicts such as ``SKIN_BACKENDS``.  On exit the
original objects are put back.  Each call becomes a span (name, start,
end, parent span, op id); counts are attached at the same boundaries.
Nothing is written until ``write_tsv`` is called at the end of the run.

Self time is a span's duration minus the part of it that its children
cover, so along one op the self times add up to the op's wall time.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
from time import perf_counter_ns


class SpanRecorder:
    """Spans kept as parallel lists; index i is span i."""

    def __init__(self):
        self.names: list = []
        self.start: list = []
        self.end: list = []
        self.parent: list = []
        self.op: list = []
        self.counts: dict = {}  # span index -> {count name: value}
        self.current_op = None
        self._stack: list = []
        self._patches: list = []  # (container, key, original), in patch order

    # ------------------------------------------------------------ recording

    def _open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.current_op)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(perf_counter_ns())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = perf_counter_ns()
        self._stack.pop()

    def add_count(self, i: int, key: str, value) -> None:
        if i >= 0:
            bucket = self.counts.setdefault(i, {})
            bucket[key] = bucket.get(key, 0) + value

    def wrap(self, name: str, fn, count=None):
        """fn traced as span `name`; count(rec, i, args, kwargs, result) runs after close."""
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = rec._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec._close(i)
            if count is not None:
                count(rec, i, args, kwargs, result)
            return result

        return traced

    # ------------------------------------------------------------ install

    def _patch(self, container, key, value) -> None:
        if isinstance(container, dict):
            self._patches.append((container, key, container[key]))
            container[key] = value
        else:
            self._patches.append((container, key, getattr(container, key)))
            setattr(container, key, value)

    def install(self, modules, methods=(), counts=None) -> None:
        """Wrap the public functions of `modules` wherever those modules bind them.

        `modules` maps a layer name to its module.  `methods` lists
        (layer, class, method name, span name) triples patched on the
        class.  `counts` maps a span name to its count hook.
        """
        if self._patches:
            raise RuntimeError("span recorder is already installed")
        counts = counts or {}
        wrappers = {}  # id(original function) -> wrapper
        for layer, mod in modules.items():
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrappers[id(fn)] = self.wrap(name, fn, counts.get(name))
        try:
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if id(value) in wrappers and inspect.isfunction(value):
                        self._patch(mod, attr, wrappers[id(value)])
                    elif isinstance(value, dict) and not attr.startswith("__"):
                        for key, item in list(value.items()):
                            if inspect.isfunction(item) and id(item) in wrappers:
                                self._patch(value, key, wrappers[id(item)])
            for layer, cls, meth, span in methods:
                name = f"{layer}.{cls.__name__}.{span}"
                original = cls.__dict__[meth]
                self._patch(cls, meth, self.wrap(name, original, counts.get(name)))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._patches:
            container, key, original = self._patches.pop()
            if isinstance(container, dict):
                container[key] = original
            else:
                setattr(container, key, original)

    @contextlib.contextmanager
    def installed(self, modules, methods=(), counts=None):
        self.install(modules, methods, counts)
        try:
            yield self
        finally:
            self.uninstall()

    # ------------------------------------------------------------ analysis

    def self_times(self) -> list:
        return self_times(self.start, self.end, self.parent)

    def table(self, spans) -> dict:
        """Per span name over the given span indices: calls, total, self, counts."""
        selfs = self.self_times()
        out: dict = {}
        for i in spans:
            row = out.setdefault(self.names[i], {"calls": 0, "total_ns": 0, "self_ns": 0, "counts": {}})
            row["calls"] += 1
            row["total_ns"] += self.end[i] - self.start[i]
            row["self_ns"] += selfs[i]
            for key, value in self.counts.get(i, {}).items():
                row["counts"][key] = row["counts"].get(key, 0) + value
        return out

    def write_tsv(self, path) -> None:
        selfs = self.self_times()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tparent\top\tname\tstart_ns\tend_ns\tself_ns\tcounts\n")
            for i, name in enumerate(self.names):
                op = "" if self.op[i] is None else self.op[i]
                counts = json.dumps(self.counts[i], sort_keys=True) if i in self.counts else ""
                fh.write(
                    f"{i}\t{self.parent[i]}\t{op}\t{name}\t{self.start[i]}\t{self.end[i]}\t{selfs[i]}\t{counts}\n"
                )


def self_times(start, end, parent) -> list:
    """Duration of each span minus the union of its children's intervals.

    Children are clipped to their parent's interval and must be listed
    in order of start time, as recording produces them.
    """
    n = len(start)
    covered = [0] * n
    reach: dict = {}  # parent -> end of the children's covered prefix
    for i in range(n):
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], start[p], reach.get(p, start[p]))
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return [end[i] - start[i] - covered[i] for i in range(n)]
