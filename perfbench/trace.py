"""Benchmark-owned tracing: wrappers around the program's public callables.

The program is not edited.  :class:`Tracer.install` wraps each target and
rebinds every ``repro.*`` module global that *is* the original function
(several are imported by name, e.g. ``net_effects`` in
``repro.core.engine``); :meth:`Tracer.uninstall` restores them all.  A
wrapper pushes a span on its thread's stack, so ``parent`` is the enclosing
span on the same thread; spans stay in memory until :meth:`Tracer.spans`.

Self time = duration - time covered by child spans on the same thread.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple


class Span(NamedTuple):
    """One traced call.  ``parent`` is a span id or -1; ``note`` an optional
    count the boundary's ``note`` hook took from the call's result."""

    id: int
    name: str
    start: float
    end: float
    parent: int
    thread: str
    note: Optional[float] = None


class Target(NamedTuple):
    """A callable to wrap: ``module`` + dotted ``path`` inside it."""

    boundary: str
    module: str
    path: str  # "function" or "Class.method"
    note: Optional[Callable[[object], float]] = None


class _ThreadLog(threading.local):
    """Per-thread open-span stack and finished-span rows."""

    def __init__(self) -> None:
        self.stack: List[int] = []
        self.rows: Optional[List[list]] = None


class Tracer:
    """Installs span-recording wrappers and collects what they saw."""

    def __init__(self) -> None:
        self._log = _ThreadLog()
        self._logs: List[Tuple[str, List[list]]] = []
        self._lock = threading.Lock()
        self._undo: List[Callable[[], None]] = []
        #: boundaries whose target no longer exists in the program
        self.absent: List[str] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _rows(self) -> List[list]:
        rows = self._log.rows
        if rows is None:
            rows = self._log.rows = []
            with self._lock:
                self._logs.append((threading.current_thread().name, rows))
        return rows

    def wrap(self, name: str, function: Callable,
             note: Optional[Callable[[object], float]] = None) -> Callable:
        """``function`` with a span named ``name`` around every call."""
        log = self._log
        clock = time.perf_counter

        @functools.wraps(function)
        def traced(*args, **kwargs):
            rows = log.rows
            if rows is None:
                rows = self._rows()
            stack = log.stack
            # [name, start, end, parent row, note]
            row = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            index = len(rows)
            rows.append(row)
            stack.append(index)
            row[1] = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                row[2] = clock()
                stack.pop()
            if note is not None:
                row[4] = note(result)
            return result

        return traced

    # ------------------------------------------------------------------
    # installing
    # ------------------------------------------------------------------
    def install(self, targets: Iterable[Target]) -> None:
        for target in targets:
            try:
                self._install(target)
            except (ImportError, AttributeError):
                if target.boundary not in self.absent:
                    self.absent.append(target.boundary)

    def _install(self, target: Target) -> None:
        module = importlib.import_module(target.module)
        owner_name, _, attr = target.path.rpartition(".")
        if not owner_name:
            original = getattr(module, attr)
            traced = self.wrap(target.boundary, original, target.note)
            # by-name imports hold their own reference: rebind each one
            for other in list(sys.modules.values()):
                if other is None or not getattr(other, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(other).items()):
                    if value is original:
                        setattr(other, key, traced)
                        self._undo.append(
                            functools.partial(setattr, other, key, original)
                        )
            return
        owner = getattr(module, owner_name)
        inherited = attr not in vars(owner)
        raw = vars(owner).get(attr, getattr(owner, attr))
        if isinstance(raw, (classmethod, staticmethod)):
            traced = type(raw)(
                self.wrap(target.boundary, raw.__func__, target.note)
            )
        else:
            traced = self.wrap(target.boundary, raw, target.note)
        setattr(owner, attr, traced)
        if inherited:
            self._undo.append(functools.partial(delattr, owner, attr))
        else:
            self._undo.append(functools.partial(setattr, owner, attr, raw))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    # reading back
    # ------------------------------------------------------------------
    def spans(self) -> List[Span]:
        """Every finished span, ids unique across threads."""
        out: List[Span] = []
        with self._lock:
            logs = list(self._logs)
        for thread, rows in logs:
            base = len(out)
            for index, (name, start, end, parent, note) in enumerate(rows):
                out.append(Span(
                    base + index, name, start, end,
                    base + parent if parent >= 0 else -1, thread, note,
                ))
        return out


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Span id -> duration minus the time its same-thread children cover.

    Children of one span on one thread never overlap (they come off a
    stack), so their durations add.
    """
    spans = list(spans)
    threads = {span.id: span.thread for span in spans}
    own = {span.id: span.end - span.start for span in spans}
    for span in spans:
        if span.parent >= 0 and threads.get(span.parent) == span.thread:
            own[span.parent] -= span.end - span.start
    return own


def write_spans(path: str, spans: Iterable[Span]) -> None:
    """One JSON object per line: id, name, start, end, parent, thread."""
    with open(path, "w") as handle:
        for span in spans:
            record = span._asdict()
            if record["note"] is None:
                del record["note"]
            handle.write(json.dumps(record))
            handle.write("\n")
