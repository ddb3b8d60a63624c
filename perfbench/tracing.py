"""Spans and counting wrappers for the traced benchmark run.

Spans are recorded by the benchmark around its own calls into trafficflow;
nothing inside the package is instrumented.  Call counts and inclusive call
times come from wrappers that replace public module functions, installed
only for the traced run and removed afterwards.  Everything stays in memory
until ``Tracer.dump`` writes it out at the end of the run.
"""

import contextlib
import functools
import json
import sys
import time

_NULL_SPAN = contextlib.nullcontext()


class Tracer:
    """In-memory span recorder; a disabled tracer records nothing."""

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.spans = []         # (id, parent id or -1, name, start, end)
        self._stack = []

    def span(self, name: str):
        if not self.enabled:
            return _NULL_SPAN
        return self._record(name)

    @contextlib.contextmanager
    def _record(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans[sid] = (sid, parent, name, start, time.perf_counter())
            self._stack.pop()

    def durations(self, name: str) -> list:
        """Durations in seconds of every closed span with this name."""
        return [s[4] - s[3] for s in self.spans if s is not None and s[2] == name]

    def dump(self, path, counters: dict) -> None:
        spans = [dict(zip(("id", "parent", "name", "start", "end"), s))
                 for s in self.spans if s is not None]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": spans, "counters": counters}, fh)


class CallCounters:
    """Counting wrappers on public trafficflow functions.

    Modules bind each other's functions at import time (``from .model import
    pde_residual``), so a wrapper replaces every module attribute that holds
    the original function, not only the defining one.
    """

    def __init__(self, targets):
        self.targets = list(targets)          # ("model", "pde_residual"), ...
        self.calls = {}
        self.seconds = {}
        self._patched = []                    # (module, attribute, original)

    def install(self) -> None:
        mods = [m for name, m in list(sys.modules.items())
                if name == "trafficflow" or name.startswith("trafficflow.")]
        for modname, fname in self.targets:
            key = f"{modname}.{fname}"
            orig = getattr(sys.modules[f"trafficflow.{modname}"], fname)
            wrapper = self._wrap(key, orig)
            self.calls[key] = 0
            self.seconds[key] = 0.0
            for m in mods:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, attr, wrapper)
                        self._patched.append((m, attr, orig))

    def uninstall(self) -> None:
        for m, attr, orig in reversed(self._patched):
            setattr(m, attr, orig)
        self._patched.clear()

    def _wrap(self, key, fn):
        calls, seconds, clock = self.calls, self.seconds, time.perf_counter

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[key] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[key] += clock() - t0
        return counted

    def snapshot(self) -> dict:
        return {k: (self.calls[k], self.seconds[k]) for k in self.calls}
