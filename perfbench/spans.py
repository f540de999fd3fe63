"""Span recorder used by the traced benchmark run.

Spans are recorded from outside the package: the benchmark swaps the public
names a caller resolves (``mtsens.cli.fit_ppca``, ``mtsens.rr_curve``, ...)
for wrappers that time the call with ``time.perf_counter`` and note the
enclosing span as parent. Warnings raised inside a wrapped call are caught
with ``warnings.catch_warnings(record=True)`` and counted against that call's
layer, so they are attributed to the innermost wrapped call.
"""
from __future__ import annotations

import os
import time
import warnings
from collections import Counter
from contextlib import contextmanager

# substrings of the package's warning messages, by the kind they are counted as
WARNING_KINDS = (
    ("did not stabilize", "unstable"),
    ("clamp", "clamp_warnings"),
    ("importance weights", "weight_warnings"),
)


def warning_kind(message: str) -> str:
    for needle, kind in WARNING_KINDS:
        if needle in message:
            return kind
    return "other_warnings"


class Tracer:
    """In-memory spans of one pass: (id, parent id, name, start, end)."""

    def __init__(self):
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._next_id = 0

    @contextmanager
    def span(self, name: str):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        layer = name.split(".", 1)[0]
        start = time.perf_counter()
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, name, start, end))
            for w in caught:
                self.counts[f"{layer}.{warning_kind(str(w.message))}"] += 1

    def wrap(self, fn, name: str, label=None):
        """fn timed as span ``name``; ``label(args, kwargs)`` may append a
        suffix such as the norm of an MCC solve."""

        def wrapper(*args, **kwargs):
            full = name if label is None else f"{name}.{label(args, kwargs)}"
            with self.span(full):
                result = fn(*args, **kwargs)
            self.counts[f"{full}.calls"] += 1
            n_iter = getattr(result, "n_iter", None)
            if n_iter is not None:
                self.counts[f"{full}.n_iter"] += int(n_iter)
            return result

        return wrapper

    def total(self, name: str) -> float:
        """Summed duration of the spans called ``name``."""
        return sum(e - s for _, _, n, s, e in self.spans if n == name)

    def self_time(self, prefix: str) -> float:
        """Summed duration of spans whose name starts with ``prefix``, minus
        the time their direct children cover."""
        child = Counter()
        for _, parent, _, s, e in self.spans:
            if parent is not None:
                child[parent] += e - s
        return sum(
            (e - s) - child[sid]
            for sid, _, n, s, e in self.spans
            if n.startswith(prefix)
        )


@contextmanager
def patched(tracer: Tracer, module, table: dict):
    """Replace ``module.<attr>`` by a traced wrapper for every entry of
    ``table`` ({attr: span name or (span name, label)}), restoring on exit."""
    saved = {}
    try:
        for attr, spec in table.items():
            name, label = spec if isinstance(spec, tuple) else (spec, None)
            saved[attr] = getattr(module, attr)
            setattr(module, attr, tracer.wrap(saved[attr], name, label))
        yield
    finally:
        for attr, fn in saved.items():
            setattr(module, attr, fn)


class IoCounter:
    """Exact bytes the package moves through ``open``: the size of every file
    opened for reading (each is read whole) and, once ``flush`` is called,
    of every file opened for writing."""

    def __init__(self):
        self.bytes_read = 0
        self.bytes_written = 0
        self._written: list[str] = []

    def open(self, path, mode="r", *args, **kwargs):
        fh = open(path, mode, *args, **kwargs)
        if "r" in mode:
            self.bytes_read += os.path.getsize(path)
        else:
            self._written.append(path)
        return fh

    def flush(self) -> None:
        self.bytes_written += sum(os.path.getsize(p) for p in self._written)
        self._written.clear()


@contextmanager
def counting_open(counter: IoCounter, modules):
    """Shadow the builtin ``open`` inside ``modules`` with ``counter.open``."""
    try:
        for mod in modules:
            mod.open = counter.open
        yield
    finally:
        for mod in modules:
            del mod.open
        counter.flush()
