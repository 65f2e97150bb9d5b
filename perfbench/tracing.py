"""Span recorder that wraps the library's public functions from outside.

``Tracer.install`` replaces each traced function at every module attribute
through which package code (and the benchmark) calls it, e.g.
``lspace.classify``, ``formats.normalize``, ``cli.classify_family`` and
``twist.evaluate_point``; ``uninstall`` puts the originals back.  No source
file is edited.  Spans live in flat arrays until the run ends: name, parent
span, the op (request) that caused them, start and end in nanoseconds, and
whether the call raised.
"""

from __future__ import annotations

import gzip
import importlib
from array import array
from time import perf_counter_ns

LAYERS = ("rationals", "seifert", "lspace", "twist", "families", "formats", "corpus", "cli")

TRACED = {
    "rationals": ("simplest_between",),
    "seifert": ("normalize", "classify"),
    "lspace": ("decide", "third_slot_threshold"),
    "twist": ("classify_family", "evaluate_point"),
    "families": ("check_guarantee", "catalog"),
    "formats": ("parse_form", "verdict_json", "report_json"),
    "corpus": ("run_corpus",),
    "cli": ("main",),
}

# simplest_between recurses through its own module global; wrapping it there
# would add a frame per level and move the depth at which it overflows.
_NOT_IN_OWN_MODULE = {"simplest_between"}


class Tracer:
    def __init__(self):
        self.names = []
        self.parent = array("q")
        self.name = array("H")
        self.op = array("q")
        self.start = array("q")
        self.end = array("q")
        self.error = array("b")
        self.stack = [-1]
        self.current_op = -1
        self._patched = []

    def begin_op(self, op_id):
        """Start a new request: later spans carry op_id, and the stack is
        reset in case a timeout cut a span off before it was popped."""
        self.current_op = op_id
        del self.stack[1:]

    def _wrap(self, fn, label):
        idx = len(self.names)
        self.names.append(label)
        parent, name, op, start, end, error = (self.parent, self.name, self.op,
                                               self.start, self.end, self.error)
        stack = self.stack

        def traced(*args, **kwargs):
            sid = len(start)
            parent.append(stack[-1])
            name.append(idx)
            op.append(self.current_op)
            start.append(0)
            end.append(0)
            error.append(0)
            stack.append(sid)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                error[sid] = 1
                raise
            finally:
                end[sid] = perf_counter_ns()
                start[sid] = t0
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self, package="seifert_lspace"):
        if not self._patched:
            modules = {m: importlib.import_module(f"{package}.{m}") for m in LAYERS}
            for layer, fnames in TRACED.items():
                for fname in fnames:
                    orig = getattr(modules[layer], fname)
                    wrapper = self._wrap(orig, f"{layer}.{fname}")
                    for mname, mod in modules.items():
                        if mname == layer and fname in _NOT_IN_OWN_MODULE:
                            continue
                        for attr, value in vars(mod).items():
                            if value is orig:
                                self._patched.append((mod, attr, orig, wrapper))
        for mod, attr, _, wrapper in self._patched:
            setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, orig, _ in self._patched:
            setattr(mod, attr, orig)

    def spans(self, lo=0, hi=None):
        """(label, op, inclusive ns, self ns) for each span in [lo, hi) that
        ended without raising.  Self time is the span minus its child spans."""
        hi = len(self.start) if hi is None else hi
        child = [0] * (hi - lo)
        dur = [0] * (hi - lo)
        for i in range(lo, hi):
            if self.end[i]:
                d = dur[i - lo] = self.end[i] - self.start[i]
                p = self.parent[i]
                if p >= lo:
                    child[p - lo] += d
        return [(self.names[self.name[i]], self.op[i], dur[i - lo], dur[i - lo] - child[i - lo])
                for i in range(lo, hi) if self.end[i] and not self.error[i]]

    def write(self, path):
        """All spans as gzip-compressed tab-separated text."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span\tparent\top\tname\tstart_ns\tend_ns\terror\n")
            for i in range(len(self.start)):
                out.write(f"{i}\t{self.parent[i]}\t{self.op[i]}\t{self.names[self.name[i]]}\t"
                          f"{self.start[i]}\t{self.end[i]}\t{self.error[i]}\n")
