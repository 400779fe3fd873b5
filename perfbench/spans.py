"""In-memory spans around calls into tccbench's layers, and their self times.

A span is a dict with name, start, end, parent (the id of the enclosing
span or None), workload and run. The layer of a span is the part of its
name before the first dot.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, workload: str, run: str):
        self.workload = workload
        self.run = run
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._open[-1] if self._open else None,
               "workload": self.workload, "run": self.run,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def instrument(self, span_name: str, func, record=None):
        """Make every tccbench module that binds `func` call it inside a span.

        `record(result, *args, **kwargs)`, given the call's result and
        arguments, may return extra fields to store on the span.
        Calls made by the package itself are covered too, so a layer's
        calls into another layer become child spans.
        """
        @functools.wraps(func)
        def traced(*args, **kwargs):
            with self.span(span_name) as rec:
                result = func(*args, **kwargs)
                if record is not None:
                    rec.update(record(result, *args, **kwargs))
            return result

        for name, module in list(sys.modules.items()):
            if name == "tccbench" or name.startswith("tccbench."):
                for attr, value in list(vars(module).items()):
                    if value is func:
                        setattr(module, attr, traced)


def self_times(spans: list[dict]) -> dict[int, float]:
    """Duration of each span minus the part of it its children cover.

    Spans come from one thread, so a span's children are disjoint and lie
    inside it: the covered part is the sum of their durations.
    """
    out = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def summarize(spans: list[dict]) -> dict[str, float]:
    """Inclusive seconds per span name (`<name>_s`), self seconds per layer
    (`<layer>.self_s`) and the call count per span name (`<name>.calls`)."""
    out: dict[str, float] = {}
    for s in spans:
        out[f"{s['name']}_s"] = out.get(f"{s['name']}_s", 0.0) + s["end"] - s["start"]
        out[f"{s['name']}.calls"] = out.get(f"{s['name']}.calls", 0) + 1
    own = self_times(spans)
    for s in spans:
        key = f"{s['name'].split('.', 1)[0]}.self_s"
        out[key] = out.get(key, 0.0) + own[s["id"]]
    return out
