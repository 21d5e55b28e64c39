"""In-memory spans around calls into msfou, and per-layer self times.

A span is (name, start, end, parent, request): ``name`` is
``<layer>.<function>``, ``parent`` the index of the enclosing span (or
None), ``request`` the replication or path the call served. Spans are kept
in a list while the run goes and written out once at the end.

The package is treated as a black box: a span is recorded by replacing the
name a calling module looks up (``msfou.harness.euler_msfou``, say) with a
timing wrapper. Nothing under ``src/`` is edited, and a name that a later
version of the package no longer has is skipped rather than failing the
run.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager

LAYERS = ("noise", "paths", "numerics", "estimators", "mle", "harness", "cli")


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.request = None
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.request)

    def wrap(self, module, attr: str, name: str, new_request: bool = False) -> None:
        """Record a span around every call of ``module.attr``.

        With ``new_request`` each call starts a new request id, which the
        spans it encloses (and later siblings, until the next such call)
        carry; the harness uses this to label replications.
        """
        fn = getattr(module, attr, None)
        if not callable(fn):
            return

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if new_request:
                self.request = 0 if self.request is None else self.request + 1
            with self.span(name):
                return fn(*args, **kwargs)

        self._patched.append((module, attr, fn))
        setattr(module, attr, traced)

    def restore(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def records(self) -> list[dict]:
        keys = ("name", "start", "end", "parent", "request")
        return [dict(zip(keys, s)) for s in self.spans]

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.records(), fh)


def self_times(spans: list[dict]) -> dict[str, float]:
    """Seconds each layer spent in its own code, children excluded.

    A span's self time is its duration minus the durations of its direct
    children (calls are nested, never overlapping, in one thread). Layers
    are the first dotted part of the span name.
    """
    covered = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    out: dict[str, float] = {}
    for s, child in zip(spans, covered):
        layer = s["name"].split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + (s["end"] - s["start"]) - child
    return out


def child_time(spans: list[dict], parent_name: str) -> tuple[float, float]:
    """(total duration of spans named parent_name, of their direct children)."""
    total = 0.0
    children = 0.0
    roots = {i for i, s in enumerate(spans) if s["name"] == parent_name}
    for i in roots:
        total += spans[i]["end"] - spans[i]["start"]
    for s in spans:
        if s["parent"] in roots:
            children += s["end"] - s["start"]
    return total, children
