"""Layer tracing from outside the program.

The tracer replaces public kinoplan functions with timing wrappers in every
kinoplan module that looks them up, so a call made inside the program is
caught wherever it comes from.  Each call is a span with a parent (the
innermost traced call it happened in).  Spans are aggregated as they close:
per name the call count, inclusive time and self time (inclusive minus the
time of traced children), and per (parent, name) edge the count and
inclusive time.  Keeping aggregates instead of every span bounds memory on
runs with millions of calls.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

RAISED = object()  # the result ``on_exit`` sees when the call raised


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # [name, child_time] per open span
        self.calls: dict[str, int] = defaultdict(int)
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.edges: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0])
        self.counters: dict[str, float] = defaultdict(float)
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, fn, name, on_exit=None, span=True):
        """A wrapper around ``fn`` recording a span called ``name``.

        ``name`` may be a callable of the call's arguments.  ``on_exit(result,
        args, kwargs, seconds)`` runs after each call; ``result`` is RAISED
        when the call raised.  With ``span=False`` only ``on_exit`` runs, so
        the call's time stays with its caller.
        """
        stack, perf = self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            nm = name(*args, **kwargs) if callable(name) else name
            frame = [nm, 0.0]
            if span:
                stack.append(frame)
            result = RAISED
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dt = perf() - t0
                if span:
                    stack.pop()
                    parent = stack[-1][0] if stack else ""
                    if stack:
                        stack[-1][1] += dt
                    self.calls[nm] += 1
                    self.inclusive[nm] += dt
                    self.self_time[nm] += dt - frame[1]
                    edge = self.edges[(parent, nm)]
                    edge[0] += 1
                    edge[1] += dt
                if on_exit is not None:
                    on_exit(result, args, kwargs, dt)

        return wrapper

    def patch(self, fn, name, on_exit=None, span=True) -> None:
        """Replace ``fn`` by its wrapper in every loaded kinoplan module that binds it."""
        wrapper = self.wrap(fn, name, on_exit, span)
        hits = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "kinoplan" or mod_name.startswith("kinoplan.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
                    hits += 1
        if hits == 0:
            raise LookupError(f"no kinoplan module binds {fn!r}")

    def patch_method(self, cls, attr: str, name, on_exit=None) -> None:
        fn = cls.__dict__[attr]
        self._undo.append((cls, attr, fn))
        setattr(cls, attr, self.wrap(fn, name, on_exit))

    def restore(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def span_count(self) -> int:
        return sum(self.calls.values())

    def edge_report(self) -> list[dict]:
        return [{"parent": p, "name": n, "calls": c, "inclusive_s": t}
                for (p, n), (c, t) in sorted(self.edges.items())]


def per_span_cost(samples: int = 20000) -> float:
    """Seconds one traced call adds over a direct call, measured on a no-op."""
    def noop(x):
        return x

    tracer = Tracer()
    wrapped = tracer.wrap(noop, "noop")
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for i in range(samples):
            noop(i)
        t1 = time.perf_counter()
        for i in range(samples):
            wrapped(i)
        t2 = time.perf_counter()
        best = min(best, ((t2 - t1) - (t1 - t0)) / samples)
    return max(best, 0.0)
