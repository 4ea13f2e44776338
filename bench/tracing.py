"""Spans and counts around the package's public functions, from outside.

A span records (name, start, end, parent).  Spans and counts stay in memory
while the workload runs and are written out at the end, the spans as one
array per field with names as indices into `names`.  A layer's self
time is the total duration of its spans minus the time their child spans
cover; since the benchmark is single-threaded, children nest inside their
parent and that is a plain subtraction.

Each traced function is replaced in its defining module and in every module
of the package that imported it by name, so calls through either path are
seen.  A function that no longer exists stops the run with a message: a
missing layer is never reported as zero.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
import time
from array import array
from typing import Callable, Optional

PACKAGE = "toricgraph"


class TraceError(RuntimeError):
    """The package no longer has a function the trace wraps."""


class Tracer:
    """Spans in flat arrays: no per-span objects for the garbage collector
    to walk, so tracing does not slow collection down as spans pile up."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids = array("i")
        self.parents = array("i")  # index of the enclosing span, or -1
        self.starts = array("d")
        self.ends = array("d")
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def peak(self, key: str, value: float) -> None:
        if value > self.counts.get(key, 0):
            self.counts[key] = value

    def parent_name(self) -> Optional[str]:
        return self.names[self.name_ids[self._stack[-1]]] if self._stack else None

    def wrap(self, name: str, fn: Callable, on_result: Optional[Callable]) -> Callable:
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        stack, clock = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(self, result, args, kwargs)
            return result

        return traced

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        covered = [0.0] * len(self.starts)
        for parent, start, end in zip(self.parents, self.starts, self.ends):
            if parent >= 0:
                covered[parent] += end - start
        totals = [0.0] * len(self.names)
        for nid, start, end, child in zip(self.name_ids, self.starts, self.ends, covered):
            totals[nid] += end - start - child
        return dict(zip(self.names, totals))

    def dump(self, path: str, meta: dict) -> None:
        payload = {
            **meta,
            "names": self.names,
            "spans": {
                "name": self.name_ids.tolist(),
                "start": self.starts.tolist(),
                "end": self.ends.tolist(),
                "parent": self.parents.tolist(),
            },
            "counts": self.counts,
        }
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(payload, fh, separators=(",", ":"))


def install(tracer: Tracer, targets) -> None:
    """Wrap each (module, attribute, span name, on_result) target.

    `attribute` may be "Class.method".  Every module of the package that
    holds the same function object under any name gets the wrapper too.
    """
    modules = [m for k, m in sys.modules.items() if k == PACKAGE or k.startswith(PACKAGE + ".")]
    for module_name, attribute, span, on_result in targets:
        try:
            owner = importlib.import_module(f"{PACKAGE}.{module_name}")
            *path, leaf = attribute.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
        except (ImportError, AttributeError):
            raise TraceError(
                f"traced function {PACKAGE}.{module_name}.{attribute} no longer exists; "
                "update the targets in bench/run.py"
            ) from None
        wrapped = tracer.wrap(span, original, on_result)
        setattr(owner, leaf, wrapped)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
