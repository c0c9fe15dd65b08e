"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's side of each layer boundary: the
benchmark's own call sites open spans explicitly, and ``Tracer.patched``
swaps the public symspin functions that the program calls internally
(closure inside ``closure_report``, Hamiltonian builders inside
``evolve``, ...) for wrappers that open a span around the original.
Nothing in ``src/`` is modified; the originals are restored on exit.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict


class Tracer:
    """Collects spans (name, start, end, parent, operation id) and counters.

    A disabled tracer records nothing; its ``span`` is a no-op context.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.counters: dict[str, float] = defaultdict(float)
        self.op = -1
        self.tag = ""
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter(), None, parent, self.op]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float = 1.0) -> None:
        if self.enabled:
            self.counters[name] += value

    def _wrap(self, fn, namer, after):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = namer(*args, **kwargs)
            with self.span(name):
                try:
                    out = fn(*args, **kwargs)
                except Exception:
                    self.count(name + ".failures")
                    raise
            if after is not None:
                after(self, out, *args, **kwargs)
            return out

        return wrapper

    @contextlib.contextmanager
    def patched(self, table):
        """Replace ``module.attr`` by a span-recording wrapper for every
        ``(module, attr, namer, after)`` row of ``table``; restore on exit.

        ``namer(*args)`` gives the span name of one call and ``after``, if
        not None, records counters from the call's result.
        """
        saved = []
        try:
            for module, attr, namer, after in table:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, namer, after))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path) -> None:
        """Write the spans as JSON lines, one object per span."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end,
                         "parent": parent, "op": op}
                    )
                    + "\n"
                )

    def summary(self) -> dict:
        """Per span name: calls, total and self time, and the number of
        distinct operations that made the call.

        Self time is the span's duration minus the time its direct child
        spans cover.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        table: dict[str, dict] = {}
        for i, (name, start, end, _, op) in enumerate(self.spans):
            row = table.setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "ops": set()}
            )
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[i]
            row["ops"].add(op)
        for row in table.values():
            row["ops"] = len(row["ops"])
        return table
