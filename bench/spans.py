"""In-memory call spans around the package's public functions.

A Tracer replaces each named function with a wrapper in every module that
holds a reference to it, so calls made inside the package are caught as well
as calls made by the benchmark.  Each call becomes one span: name, start,
end (monotonic nanoseconds), parent span and the phase the benchmark was in.
Spans stay in flat arrays until the run ends; ``aggregate`` turns them into
per-name totals with self time, and ``write`` saves them as gzipped CSV.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array
from dataclasses import dataclass


@dataclass
class Totals:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0

    def ms(self) -> float:
        return self.total_ns / 1e6 / self.calls if self.calls else 0.0

    def self_ms(self) -> float:
        return self.self_ns / 1e6 / self.calls if self.calls else 0.0


class Tracer:
    def __init__(self) -> None:
        self.labels: list[str] = []
        self.phases: list[str] = []
        self.phase = 0
        self.name = array("l")
        self.parent = array("l")
        self.start = array("q")
        self.end = array("q")
        self.span_phase = array("b")
        self.extra: dict = {}
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    def set_phase(self, label: str) -> None:
        if label not in self.phases:
            self.phases.append(label)
        self.phase = self.phases.index(label)

    def _wrap(self, label: str, fn, on_result):
        nid = len(self.labels)
        self.labels.append(label)
        name, parent, start, end = self.name, self.parent, self.start, self.end
        span_phase, stack, clock = self.span_phase, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(name)
            name.append(nid)
            parent.append(stack[-1])
            span_phase.append(self.phase)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(self, idx, args, kwargs, result)
            return result
        return wrapper

    def install(self, targets, modules) -> None:
        """Wrap each target in every given module that binds it.

        ``targets`` holds (label, defining module, attribute, recursive,
        on_result); every name bound to the function is replaced, whatever
        alias it was imported under.  A recursive function calls itself
        through its module global, so it is left unwrapped in its defining
        module; otherwise the recursion would count as calls.
        """
        for label, home, attr, recursive, on_result in targets:
            original = getattr(home, attr)
            wrapper = self._wrap(label, original, on_result)
            for module in modules:
                if recursive and module is home:
                    continue
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapper)
                        self._restore.append((module, name, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def __len__(self) -> int:
        return len(self.name)

    def aggregate(self) -> dict[str, dict[str, Totals]]:
        """Per phase, per label: call count, total time and self time.

        Self time is a span's duration minus the durations of its direct
        child spans, which never overlap one another (one thread).
        """
        child_ns = [0] * len(self.name)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child_ns[p] += self.end[i] - self.start[i]
        out: dict[str, dict[str, Totals]] = {ph: {} for ph in self.phases}
        for i, nid in enumerate(self.name):
            t = out[self.phases[self.span_phase[i]]].setdefault(
                self.labels[nid], Totals())
            dur = self.end[i] - self.start[i]
            t.calls += 1
            t.total_ns += dur
            t.self_ns += dur - child_ns[i]
        return out

    def count_children(self, child: str, parents: set[str], phase: str) -> int:
        """Spans named ``child`` in ``phase`` whose direct parent is named in
        ``parents``."""
        if phase not in self.phases:
            return 0
        wanted = self.phases.index(phase)
        cids = {i for i, label in enumerate(self.labels) if label == child}
        pids = {i for i, label in enumerate(self.labels) if label in parents}
        return sum(1 for i, nid in enumerate(self.name)
                   if nid in cids and self.span_phase[i] == wanted
                   and self.parent[i] >= 0
                   and self.name[self.parent[i]] in pids)

    def write(self, path) -> None:
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span,name,phase,parent,start_ns,end_ns\n")
            for i in range(len(self.name)):
                out.write(f"{i},{self.labels[self.name[i]]},"
                          f"{self.phases[self.span_phase[i]]},{self.parent[i]},"
                          f"{self.start[i]},{self.end[i]}\n")


def package_modules(extra=()) -> list:
    """Loaded modules of the package plus the given benchmark modules."""
    mods = [m for name, m in sys.modules.items()
            if name == "actualcause" or name.startswith("actualcause.")]
    return mods + list(extra)
