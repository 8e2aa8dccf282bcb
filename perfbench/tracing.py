"""Spans and counters recorded around jumplab's public functions.

Nothing under ``src/`` is edited: the tracer replaces module attributes and
class methods with timing wrappers for the duration of a traced run and puts
the originals back afterwards.  Each wrapper opens a span (name, start, end,
parent); a span's self time is its duration minus the time of its child
spans, so the self times of all spans add up to the root span.
"""
from __future__ import annotations

import math
import os
import sys
import threading
import time
import contextlib
from collections import defaultdict


class Span:
    __slots__ = ("name", "parent", "start", "end", "child_s", "attrs")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = time.perf_counter()
        self.end = None
        self.child_s = 0.0
        self.attrs = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class RssPeak:
    """Growth of resident memory over a block: peak minus the value at entry.

    A thread samples /proc/self/statm every millisecond.  tracemalloc would
    count allocations exactly, but it slows the Python-bound stepping loops
    several-fold and so distorts every span it encloses.
    """

    _PAGE = os.sysconf("SC_PAGE_SIZE")

    def __init__(self, interval=0.001):
        self.interval = interval
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _rss(self) -> int:
        with open("/proc/self/statm") as fh:
            return int(fh.read().split()[1]) * self._PAGE

    def _sample(self):
        while not self._stop.wait(self.interval):
            self.peak = max(self.peak, self._rss())

    def __enter__(self):
        self.base = self.peak = self._rss()
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self.peak = max(self.peak, self._rss())

    @property
    def growth_mb(self) -> float:
        return (self.peak - self.base) / 2 ** 20


class Patcher:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self):
        self._undo = []

    def set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def everywhere(self, func, wrapper):
        """Replace ``func`` in every loaded jumplab module that holds it."""
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "jumplab" or name.startswith("jumplab.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is func:
                    self.set(mod, attr, wrapper)

    def undo(self):
        while self._undo:
            owner, attr, val = self._undo.pop()
            setattr(owner, attr, val)


class Tracer:
    """In-memory span store; spans are aggregated into metrics at the end."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts = defaultdict(float)
        self.values = {}
        self._stack: list[Span] = []

    @contextlib.contextmanager
    def span(self, name, peak_key=None):
        parent = self._stack[-1] if self._stack else None
        sp = Span(name, parent)
        self._stack.append(sp)
        rss = RssPeak() if peak_key is not None else contextlib.nullcontext()
        try:
            with rss:
                yield sp
        finally:
            if peak_key is not None:
                self.values[peak_key] = max(self.values.get(peak_key, 0.0), rss.growth_mb)
            sp.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                parent.child_s += sp.duration
            self.spans.append(sp)

    def wrap(self, func, name, after=None, peak_key=None):
        """Wrapper that runs ``func`` inside a span named ``name``.

        ``after(span, args, kwargs, result)`` runs inside the span once the
        call has returned; it records counts on ``span.attrs``.
        """
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.span(name, peak_key) as sp:
                result = func(*args, **kwargs)
                if after is not None:
                    after(sp, args, kwargs, result)
            return result

        wrapper.__wrapped__ = func
        return wrapper

    def count(self, func, key):
        """Wrapper that counts calls without opening a span."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return func(*args, **kwargs)

        wrapper.__wrapped__ = func
        return wrapper

    # --- aggregation --------------------------------------------------------

    def by_name(self, name):
        return [s for s in self.spans if s.name == name]

    def total(self, name) -> float:
        return sum(s.duration for s in self.by_name(name))

    def self_total(self, prefix) -> float:
        return sum(s.self_s for s in self.spans if s.name.startswith(prefix))

    def calls(self, name) -> int:
        return len(self.by_name(name))

    def roots(self):
        return [s for s in self.spans if s.parent is None]

    def self_time_gap(self) -> float:
        """|sum of all self times - sum of root durations| in seconds."""
        roots = sum(s.duration for s in self.roots())
        return abs(math.fsum(s.self_s for s in self.spans) - roots)
