"""Span recorder for traced benchmark runs.

The benchmark measures layers from the outside: for a traced fuse (or for
the life of a traced server) it wraps public callables of ``repro``, records
one span per call and derives the per-layer metrics from those spans.
Untraced runs never install a wrapper, so end-to-end numbers measure the
unmodified program.

Recording rules:

* a class method is wrapped on the class, a module-level function under the
  name its caller looks it up by (see :func:`Tracer.installed`);
* a span's *self time* is its duration minus the time its child spans on the
  same thread cover;
* an iterator returned by a wrapped generator function is timed only while
  inside ``next()`` — the consumer's work between items is not the layer's;
* coroutine spans (the asyncio server) are recorded detached: interleaved
  coroutines share one thread, so they cannot nest, and count no children;
* counters are read from the call's return value or from public statistics
  by a *probe*: ``probe(args)`` runs before the call and returns
  ``finish(result) -> dict``, which runs after it.

Spans are kept in memory and exported as Chrome trace events, whose ``args``
carry each span's self time and counters; :func:`aggregate` sums them back.
"""

from __future__ import annotations

import contextlib
import functools
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

Probe = Callable[[tuple], Callable[[Any], Dict[str, float]]]

#: How a wrapped callable is timed: a plain call, an iterator, a coroutine,
#: or a factory of async context managers (timed in ``__aenter__``).
CALL, ITERATOR, COROUTINE, ASYNC_CONTEXT = "call", "iterator", "coroutine", "async_context"


@dataclass
class Span:
    """One recorded call."""

    name: str
    start: float
    thread: int
    duration: float = 0.0
    child: float = 0.0
    counters: Dict[str, float] = field(default_factory=dict)

    @property
    def self_s(self) -> float:
        return self.duration - self.child


@dataclass(frozen=True)
class Hook:
    """One callable to wrap: ``owner.attribute`` timed as span *name*."""

    owner: Any
    attribute: str
    name: str
    kind: str = CALL
    probe: Optional[Probe] = None


class Tracer:
    """Records spans from wrapped callables, on any number of threads."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.origin = clock()
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- span bookkeeping ------------------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, span: Span) -> float:
        self._stack().append(span)
        return self.clock()

    def _exit(self, span: Span, started: float) -> None:
        elapsed = self.clock() - started
        stack = self._stack()
        stack.pop()
        span.duration += elapsed
        if stack:
            stack[-1].child += elapsed

    def _record(self, span: Span) -> None:
        with self._lock:
            self.spans.append(span)

    def _new(self, name: str) -> Span:
        return Span(name, self.clock(), threading.get_ident())

    # -- wrappers --------------------------------------------------------------------

    def wrap(self, hook: Hook, function: Callable) -> Callable:
        """The traced replacement for *function*."""
        builders = {
            CALL: self._wrap_call,
            ITERATOR: self._wrap_iterator,
            COROUTINE: self._wrap_coroutine,
            ASYNC_CONTEXT: self._wrap_async_context,
        }
        return functools.wraps(function)(builders[hook.kind](hook, function))

    def _wrap_call(self, hook: Hook, function: Callable) -> Callable:
        def traced(*args, **kwargs):
            span = self._new(hook.name)
            finish = hook.probe(args) if hook.probe else None
            started = self._enter(span)
            try:
                result = function(*args, **kwargs)
            finally:
                self._exit(span, started)
                self._record(span)
            if finish is not None:
                span.counters.update(finish(result))
            return result

        return traced

    def _wrap_iterator(self, hook: Hook, function: Callable) -> Callable:
        def traced(*args, **kwargs):
            finish = hook.probe(args) if hook.probe else None
            return _TimedIterator(self, self._new(hook.name), function(*args, **kwargs), finish)

        return traced

    def _wrap_coroutine(self, hook: Hook, function: Callable) -> Callable:
        async def traced(*args, **kwargs):
            span = self._new(hook.name)
            try:
                return await function(*args, **kwargs)
            finally:
                span.duration = self.clock() - span.start
                self._record(span)

        return traced

    def _wrap_async_context(self, hook: Hook, function: Callable) -> Callable:
        def traced(*args, **kwargs):
            return _TimedAsyncContext(self, hook.name, function(*args, **kwargs))

        return traced

    @contextlib.contextmanager
    def installed(self, hooks: Iterable[Hook]):
        """Wrap every hook's target for the duration of the block.

        Targets must be defined on the owner itself (not inherited), so
        restoring the saved attribute undoes the patch exactly.
        """
        saved: List[Tuple[Any, str, Any]] = []
        try:
            for hook in hooks:
                original = vars(hook.owner)[hook.attribute]
                setattr(hook.owner, hook.attribute, self.wrap(hook, original))
                saved.append((hook.owner, hook.attribute, original))
            yield self
        finally:
            for owner, attribute, original in reversed(saved):
                setattr(owner, attribute, original)

    # -- export ----------------------------------------------------------------------

    def chrome_trace(self) -> Dict[str, Any]:
        """The spans as a Chrome trace-event document."""
        with self._lock:
            spans = list(self.spans)
        pid = os.getpid()
        events = [
            {
                "name": span.name,
                "cat": "repro",
                "ph": "X",
                "ts": (span.start - self.origin) * 1e6,
                "dur": span.duration * 1e6,
                "pid": pid,
                "tid": span.thread,
                "args": {"self_us": span.self_s * 1e6, **span.counters},
            }
            for span in spans
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}


class _TimedIterator:
    """Times an iterator inside ``next()`` only; records its span at exhaustion."""

    def __init__(self, tracer: Tracer, span: Span, iterator, finish) -> None:
        self._tracer = tracer
        self._span = span
        self._iterator = iterator
        self._finish = finish
        self._items = 0

    def __iter__(self):
        return self

    def __next__(self):
        started = self._tracer._enter(self._span)
        try:
            item = next(self._iterator)
        except StopIteration:
            self._tracer._exit(self._span, started)
            if self._finish is not None:
                self._span.counters.update(self._finish(self._items))
            self._tracer._record(self._span)
            raise
        except BaseException:
            self._tracer._exit(self._span, started)
            raise
        self._tracer._exit(self._span, started)
        self._items += 1
        return item


class _TimedAsyncContext:
    """Times an async context manager's entry (the wait to be admitted)."""

    def __init__(self, tracer: Tracer, name: str, context) -> None:
        self._tracer = tracer
        self._name = name
        self._context = context

    async def __aenter__(self):
        span = self._tracer._new(self._name)
        try:
            return await self._context.__aenter__()
        except Exception:
            span.counters["rejected"] = 1
            raise
        finally:
            span.duration = self._tracer.clock() - span.start
            self._tracer._record(span)

    async def __aexit__(self, *exc_info):
        return await self._context.__aexit__(*exc_info)


def aggregate(events: Iterable[Dict[str, Any]]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, summed self seconds ``s``, wall ``wall_s``
    and every counter summed."""
    totals: Dict[str, Dict[str, float]] = {}
    for event in events:
        total = totals.setdefault(event["name"], {"calls": 0, "s": 0.0, "wall_s": 0.0})
        total["calls"] += 1
        total["wall_s"] += event["dur"] / 1e6
        for key, value in event["args"].items():
            if key == "self_us":
                total["s"] += value / 1e6
            else:
                total[key] = total.get(key, 0) + value
    return totals


def durations(events: Iterable[Dict[str, Any]], name: str) -> List[float]:
    """Wall seconds of every span called *name*."""
    return [event["dur"] / 1e6 for event in events if event["name"] == name]
