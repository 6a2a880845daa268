"""In-memory spans recorded from outside the program.

The benchmark never edits ``src/``.  In a traced unit it replaces the
public entry points of each layer with class-level (or module-level)
wrappers that record a span — name, layer, start, end, parent and the
unit's work id — into a list, and restores the originals afterwards.
Instance-level wrappers are never used: ``RetrievalService`` checks
``"query" in self.__dict__`` and would switch off batching and
speculation, so the traced program would differ from the measured one.

A layer's *self time* is the time its spans cover minus the part their
child spans cover.  With properly nested spans on one thread the self
times of a unit's span tree add up to the unit's root span exactly;
:func:`self_times` computes them and :func:`tree_error` checks the sum.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import Counter

#: Field positions of one span record (a list, for speed).
NAME, LAYER, START, END, PARENT, WORK = range(6)


class SpanRecorder:
    """Collects spans and per-layer counts while :attr:`enabled`."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.enabled = False
        self.work_id: str | None = None
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, layer: str) -> int:
        stack = self._stack()
        index = len(self.spans)
        self.spans.append([name, layer, time.perf_counter(), None,
                           stack[-1] if stack else None, self.work_id])
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()


def self_times(spans: list[list], indexes: list[int]) -> dict[int, float]:
    """Self time of each span in ``indexes`` (a closed set of subtrees)."""
    child = {index: 0.0 for index in indexes}
    for index in indexes:
        record = spans[index]
        parent = record[PARENT]
        if parent in child:
            child[parent] += record[END] - record[START]
    return {index: spans[index][END] - spans[index][START] - child[index]
            for index in indexes}


def subtree(spans: list[list], root: int) -> list[int]:
    """Indexes of ``root`` and every span recorded under it.

    Spans are appended in open order, so a subtree is the run of
    records after ``root`` whose parent chain reaches it.
    """
    members = {root}
    ordered = [root]
    for index in range(root + 1, len(spans)):
        if spans[index][PARENT] in members:
            members.add(index)
            ordered.append(index)
        elif spans[index][START] > spans[root][END]:
            break
    return ordered


def tree_error(spans: list[list], root: int, wall_s: float) -> float:
    """|sum of self times under ``root`` − ``wall_s``| as a share of it."""
    members = subtree(spans, root)
    total = sum(self_times(spans, members).values())
    return abs(total - wall_s) / wall_s if wall_s > 0 else 0.0


class Patcher:
    """Replaces attributes and puts every original back on :meth:`undo`."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner: object, attr: str, value: object) -> None:
        if isinstance(owner, dict):
            self._undo.append((owner, attr, owner[attr]))
            owner[attr] = value
        else:
            self._undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)

    def method(self, cls: type, attr: str, make) -> None:
        """Wrap ``cls.attr`` (defined on ``cls`` itself) with ``make(orig)``."""
        self.set(cls, attr, make(cls.__dict__[attr]))

    def function(self, original, make, module_prefix: str = "repro") -> None:
        """Wrap a module-level function in every module that binds it.

        ``from x import f`` copies the binding, so patching only the
        defining module would miss call sites that imported the name.
        Only the program's own modules (``module_prefix``) are searched.
        """
        wrapped = make(original)
        for name, module in list(sys.modules.items()):
            if not name.startswith(module_prefix):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.set(module, attr, wrapped)

    def undo(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)


def spanned(recorder: SpanRecorder, name: str, layer: str, after=None):
    """Wrapper factory: record a span per call, then ``after(args, result)``."""
    def make(func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not recorder.enabled:
                return func(*args, **kwargs)
            index = recorder.open(name, layer)
            try:
                result = func(*args, **kwargs)
            finally:
                recorder.close(index)
            if after is not None:
                after(args, kwargs, result)
            return result
        return wrapper
    return make


def counted(recorder: SpanRecorder, key: str, amount=None):
    """Wrapper factory: count calls (or ``amount(args, kwargs)``), no span."""
    def make(func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if recorder.enabled:
                recorder.counts[key] += 1 if amount is None \
                    else amount(args, kwargs)
            return func(*args, **kwargs)
        return wrapper
    return make
