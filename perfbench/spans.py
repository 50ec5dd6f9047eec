"""In-memory spans and counters recorded around calls into the program.

Nothing here edits the program: :meth:`Patches.patch` swaps a class or
module attribute for a wrapper around the original, and
:meth:`Patches.undo` puts every original back.  A span records its name,
start, end, the span that caused it and the request it belongs to; spans
stay in memory until :meth:`Tracer.dump` writes them out.

Parenthood follows the calling thread.  The socket server runs request
bodies on its worker threads, so a span opened on a thread with nothing
open yet takes the innermost open span of the thread driving the
request as its parent (the client's round trip, blocked on the reply).
That is sound only because the benchmark is a closed loop with one
client: at most one request is in flight at a time.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

_MISSING = object()


class Patches:
    """Attribute swaps made on the program, undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any]] = []

    def patch(
        self, owner: Any, attr: str, make: Callable[[Callable], Callable]
    ) -> None:
        """Replace ``owner.attr`` with ``make(original)``."""
        own = vars(owner).get(attr, _MISSING)
        original = getattr(owner, attr)
        wrapper = functools.wraps(original)(make(original))
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, own))

    def undo(self) -> None:
        while self._undo:
            owner, attr, own = self._undo.pop()
            if own is _MISSING:
                delattr(owner, attr)  # the original was inherited
            else:
                setattr(owner, attr, own)


class FirstTouches:
    """Counts key-power indices the wrapped ``KeyOracle.power`` has not
    served before: each one is a ``g^{s^i}`` the process had to compute."""

    def __init__(self) -> None:
        self.seen: set[int] = set()
        self.count = 0
        self._lock = threading.Lock()

    def wrap(self, original: Callable) -> Callable:
        def power(oracle: Any, index: int) -> Any:
            with self._lock:  # client and server threads both ask for powers
                if index not in self.seen:
                    self.seen.add(index)
                    self.count += 1
            return original(oracle, index)

        return power


class Tracer:
    """Spans and counters for one traced run."""

    def __init__(self) -> None:
        #: ``(span_id, parent_id, request_id, name, start, end)``
        self.spans: list[tuple[int, int | None, int, str, float, float]] = []
        self.counters: Counter[str] = Counter()
        self.request_id = 0
        self._ids = itertools.count(1)
        self._driver: list[int] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        stack = self._stack()
        driver = self._driver
        parent = stack[-1] if stack else (driver[-1] if driver else None)
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, parent, self.request_id, name, start, end))

    @contextmanager
    def request(self) -> Iterator[None]:
        """The root span, named ``request``, of one closed-loop operation."""
        self.request_id += 1
        with self.span("request"):
            self._driver = self._stack()
            try:
                yield
            finally:
                self._driver = []

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:  # server worker threads count too
            self.counters[name] += amount

    def timed(self, name: str, on_result: Callable[[Any], None] | None = None):
        """A :meth:`Patches.patch` factory recording ``name`` spans."""

        def make(original: Callable) -> Callable:
            def traced(*args: Any, **kwargs: Any) -> Any:
                with self.span(name):
                    result = original(*args, **kwargs)
                if on_result is not None:
                    on_result(result)
                return result

            return traced

        return make

    def durations(self) -> dict[str, float]:
        """Total seconds spent inside each span name (inclusive)."""
        totals: dict[str, float] = defaultdict(float)
        for _sid, _parent, _req, name, start, end in self.spans:
            totals[name] += end - start
        return totals

    def self_times(self) -> dict[str, float]:
        """Seconds per span name not covered by the span's children."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for _sid, parent, _req, _name, start, end in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        totals: dict[str, float] = defaultdict(float)
        for sid, _parent, _req, name, start, end in self.spans:
            totals[name] += (end - start) - _covered(start, end, children.get(sid, []))
        return totals

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ("span", "parent", "request", "name", "start", "end")
        with path.open("w") as out:
            for record in self.spans:
                out.write(json.dumps(dict(zip(fields, record))) + "\n")


def _covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    covered = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered
