"""Spans around calls into the library, recorded from outside it.

A :class:`Tracer` replaces a function name in a module namespace with a
wrapper that records one span per call: name, start, end, parent span and
op id.  Wrapping the name a caller looks up (``tinregion.timesharing.linprog``
rather than ``scipy.optimize.linprog``) times exactly the calls made from that
module.  Spans are kept in flat arrays in memory and written out once, at the
end of a run.  A name that no longer exists is noted as missing instead of
raising, so that metrics built on it can report ``None`` after a refactor.
"""

from __future__ import annotations

import importlib
import math
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        # one number kept from each call's result (NaN when not asked for)
        self.value = array("d")
        self.missing: set[str] = set()
        self.op_id = -1
        self.active = False  # spans are recorded only inside a timed op
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def install(self, wraps) -> None:
        """Wrap every ``(module, attribute, span, keep)`` entry of ``wraps``.

        ``keep`` is ``None`` or a function mapping the call's result to a
        number stored with the span.
        """
        for module_name, attr, span, keep in wraps:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.missing.add(span)
                continue
            setattr(module, attr, self._wrapper(fn, self._intern(span), keep))
            self._undo.append((module, attr, fn))

    def restore(self) -> None:
        """Put every wrapped name back."""
        while self._undo:
            module, attr, fn = self._undo.pop()
            setattr(module, attr, fn)

    def _intern(self, span: str) -> int:
        if span not in self._ids:
            self._ids[span] = len(self.names)
            self.names.append(span)
        return self._ids[span]

    def _wrapper(self, fn, sid: int, keep):
        stack = self._stack

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            i = len(self.start)
            self.name.append(sid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.op_id)
            self.end.append(math.nan)
            self.value.append(math.nan)
            stack.append(i)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = perf_counter()
                stack.pop()
            if keep is not None:
                try:
                    self.value[i] = float(keep(result))
                except (TypeError, ValueError, IndexError):
                    pass  # result shape changed: the kept value stays NaN
            return result

        traced.__wrapped__ = fn
        return traced

    def table(self) -> "SpanTable":
        return SpanTable(self)

    def write(self, path: Path) -> None:
        """Write all spans to ``path`` as a NumPy ``.npz`` archive."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            value=np.frombuffer(self.value, dtype=float),
        )


class SpanTable:
    """Array view of a tracer's spans with per-name totals.

    Every query returns ``None`` when a span name it needs was missing at
    install time, so a refactor that removes a wrapped function yields a
    ``null`` metric rather than a wrong zero.
    """

    def __init__(self, tracer: Tracer):
        self.missing = set(tracer.missing)
        self._ids = {n: i for i, n in enumerate(tracer.names)}
        self.name = np.frombuffer(tracer.name, dtype=np.int32).copy()
        self.parent = np.frombuffer(tracer.parent, dtype=np.int32).copy()
        self.op = np.frombuffer(tracer.op, dtype=np.int32).copy()
        self.value = np.frombuffer(tracer.value, dtype=float).copy()
        self.dur = np.frombuffer(tracer.end, dtype=float) - np.frombuffer(
            tracer.start, dtype=float
        )
        child = np.zeros(len(self.dur))
        nested = self.parent >= 0
        np.add.at(child, self.parent[nested], self.dur[nested])
        # A layer's self time: its span minus the time its child spans cover.
        self.self_dur = self.dur - child

    def select(self, span: str, parent: str | None = None):
        """Boolean mask of spans named ``span`` (called from ``parent``);
        ``None`` if either name is missing."""
        if span in self.missing or parent in self.missing:
            return None
        mask = self.name == self._ids.get(span, -1)
        if parent is not None:
            pid = self._ids.get(parent, -1)
            has_parent = self.parent >= 0
            from_parent = np.zeros_like(mask)
            from_parent[has_parent] = self.name[self.parent[has_parent]] == pid
            mask &= from_parent
        return mask

    def count(self, span: str, parent: str | None = None):
        mask = self.select(span, parent)
        return None if mask is None else int(mask.sum())

    def total(self, span: str, parent: str | None = None):
        mask = self.select(span, parent)
        return None if mask is None else float(self.dur[mask].sum())

    def self_total(self, span: str):
        mask = self.select(span)
        return None if mask is None else float(self.self_dur[mask].sum())

    def top_level_total(self, span: str):
        """Time in calls made directly by the benchmark, not from inside
        another wrapped call."""
        mask = self.select(span)
        return None if mask is None else float(self.dur[mask & (self.parent < 0)].sum())

    def last_value_per_op(self, span: str):
        """The kept value of the last span named ``span`` in each op."""
        mask = self.select(span)
        if mask is None:
            return None
        last: dict[int, float] = {}
        for op, value in zip(self.op[mask], self.value[mask]):
            last[int(op)] = float(value)
        return list(last.values())
