"""In-memory span recorder for the traced benchmark run.

A hook replaces one module attribute, in the namespace of the module
that calls it (``beliefplan.belief_rrt.propagate_mlo``, not
``beliefplan.dynamics.propagate_mlo``), with a wrapper that records a
span per call: name, parent span, start and end. Spans stay in compact
arrays until the run ends; self time is computed from them afterwards.

A hook whose module or attribute no longer exists is reported as
absent instead of raising, and every original is restored when the
recorder closes, also when the run fails.
"""

from __future__ import annotations

import importlib
import time
from array import array
from collections import defaultdict


class Tracer:
    def __init__(self, hooks):
        """hooks: iterable of (module, attribute, span name, observer).
        An observer, when not None, is called as observer(args, result)
        after each call, outside the span's timed interval."""
        self.hooks = list(hooks)
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._saved: list = []
        self.installed: list[str] = []
        self.fired: list[int] = []  # calls per installed hook
        self.absent: list[str] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def __enter__(self):
        try:
            for module_name, attr, span, observer in self.hooks:
                target = f"{module_name}.{attr}"
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    self.absent.append(target)
                    continue
                original = getattr(module, attr, None)
                if not callable(original):
                    self.absent.append(target)
                    continue
                hooked = self._wrap(original, self._id(span), observer, len(self.fired))
                self.fired.append(0)
                setattr(module, attr, hooked)
                self._saved.append((module, attr, original))
                self.installed.append(target)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, nid: int, observer, hook: int):
        stack, fired = self._stack, self.fired
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        clock = time.perf_counter

        def hooked(*args, **kwargs):
            fired[hook] += 1
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            start.append(clock())
            end.append(0.0)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if observer is not None:
                observer(args, result)
            return result

        hooked.__wrapped__ = fn
        return hooked

    def fired_counts(self) -> dict:
        return dict(zip(self.installed, self.fired))

    def __len__(self) -> int:
        return len(self.name_id)

    def summary(self, lo: int = 0, hi: int | None = None) -> dict:
        """Per span name over spans [lo, hi): calls, total seconds and
        self seconds (duration minus the direct children's durations)."""
        hi = len(self.name_id) if hi is None else hi
        calls = defaultdict(int)
        total = defaultdict(float)
        child = defaultdict(float)  # span index -> covered by children
        for i in range(lo, hi):
            d = self.end[i] - self.start[i]
            name = self.names[self.name_id[i]]
            calls[name] += 1
            total[name] += d
            p = self.parent[i]
            if p >= lo:
                child[p] += d
        self_time = defaultdict(float)
        for i in range(lo, hi):
            d = self.end[i] - self.start[i]
            self_time[self.names[self.name_id[i]]] += d - child.get(i, 0.0)
        return {
            name: {"calls": calls[name], "s": total[name], "self_s": self_time[name]}
            for name in calls
        }

    def write(self, path: str) -> None:
        """All spans as CSV: index, name, parent index, start, end."""
        with open(path, "w") as fh:
            fh.write("span,name,parent,start_s,end_s\n")
            for i in range(len(self.name_id)):
                fh.write(
                    f"{i},{self.names[self.name_id[i]]},{self.parent[i]},"
                    f"{self.start[i]!r},{self.end[i]!r}\n"
                )


def hook_cost(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds a hook adds to one call: a hooked no-op against a bare
    one, best of `repeats`. Its spans go to a scratch recorder."""
    def noop():
        pass

    scratch = Tracer([])
    scratch.fired.append(0)
    hooked = scratch._wrap(noop, scratch._id("noop"), None, 0)
    clock = time.perf_counter
    best = float("inf")
    for _ in range(repeats):
        t0 = clock()
        for _ in range(calls):
            hooked()
        t1 = clock()
        for _ in range(calls):
            noop()
        t2 = clock()
        best = min(best, (t1 - t0) - (t2 - t1))
    return max(best, 0.0) / calls
