"""Outside-in span tracing for the traced benchmark run.

The benchmark never edits the program under test. Instead it replaces a
layer's public entry points — methods, classmethods and module functions —
with wrappers that record a span per call. Each span knows its layer key
and the root it runs under (one root per pause, per read query, per
set-up), so per-layer numbers can be split by what the tool was doing.

Self time is a span's duration minus the time of the child spans it
covers. Every child adds its whole duration to its parent, so the self
times of all spans under a root add up *exactly* to the root's duration;
what no wrapper claims stays as the root's own self time (``other``).

A wrapped function that calls itself (``diff_tree``, ``apply_patch``) is
timed only at its outermost call: a call whose parent span has the same
key passes straight through. For a recursive module function,
:meth:`Tracer.patch` goes further and points the recursion at an unwrapped
copy, so inner calls pay nothing for the wrapper.

The current span lives in a :class:`contextvars.ContextVar`, so each
asyncio task and each thread keeps its own span stack. Calls made outside
any root — in the inferior's thread, in transport pump threads, in oracle
checks — are not recorded.
"""

from __future__ import annotations

import contextlib
import contextvars
import inspect
import time
import types
from collections import defaultdict
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

OTHER = "other"


class _Span:
    __slots__ = ("key", "root", "child_ns")

    def __init__(self, key: str, root: str) -> None:
        self.key = key
        self.root = root
        self.child_ns = 0


class Tracer:
    """Collects spans and counts, keyed by ``(root name, layer key)``."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self._clock = clock
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        #: (root, key) -> [calls, inclusive ns, self ns]
        self.spans: Dict[Tuple[str, str], List[int]] = defaultdict(
            lambda: [0, 0, 0]
        )
        #: (root, name) -> summed count
        self.counts: Dict[Tuple[str, str], int] = defaultdict(int)
        #: root -> [roots closed, summed duration ns]
        self.roots: Dict[str, List[int]] = defaultdict(lambda: [0, 0])
        self._patched: List[Tuple[Any, str, Any]] = []

    # -- spans -----------------------------------------------------------

    @contextlib.contextmanager
    def root(self, name: str) -> Iterator[None]:
        """One root span: a pause, a read query, a set-up."""
        span = _Span(OTHER, name)
        token = self._current.set(span)
        start = self._clock()
        try:
            yield
        finally:
            elapsed = self._clock() - start
            self._current.reset(token)
            self._close(span, elapsed)
            entry = self.roots[name]
            entry[0] += 1
            entry[1] += elapsed

    def _close(self, span: _Span, elapsed: int) -> None:
        entry = self.spans[(span.root, span.key)]
        entry[0] += 1
        entry[1] += elapsed
        entry[2] += elapsed - span.child_ns

    def count(self, name: str, amount: int = 1) -> None:
        """Add to a count under the current root (ignored outside roots)."""
        span = self._current.get()
        if span is not None:
            self.counts[(span.root, name)] += amount

    def wrap(
        self,
        function: Callable[..., Any],
        key: str,
        on_result: Optional[Callable[["Tracer", Any], None]] = None,
    ) -> Callable[..., Any]:
        """A wrapper recording one ``key`` span per (outermost) call."""
        current = self._current
        clock = self._clock
        close = self._close

        if inspect.iscoroutinefunction(function):

            async def async_wrapper(*args: Any, **kwargs: Any) -> Any:
                parent = current.get()
                if parent is None or parent.key == key:
                    return await function(*args, **kwargs)
                span = _Span(key, parent.root)
                token = current.set(span)
                start = clock()
                try:
                    result = await function(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    current.reset(token)
                    parent.child_ns += elapsed
                    close(span, elapsed)
                if on_result is not None:
                    on_result(self, result)
                return result

            async_wrapper.__wrapped__ = function  # type: ignore[attr-defined]
            return async_wrapper

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            parent = current.get()
            if parent is None or parent.key == key:
                return function(*args, **kwargs)
            span = _Span(key, parent.root)
            token = current.set(span)
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = clock() - start
                current.reset(token)
                parent.child_ns += elapsed
                close(span, elapsed)
            if on_result is not None:
                on_result(self, result)
            return result

        wrapper.__wrapped__ = function  # type: ignore[attr-defined]
        return wrapper

    # -- installing wrappers ---------------------------------------------

    def patch(
        self,
        owner: Any,
        attribute: str,
        key: str,
        on_result: Optional[Callable[["Tracer", Any], None]] = None,
        recursive: bool = False,
    ) -> None:
        """Replace ``owner.attribute`` (function, method, classmethod or
        staticmethod) with a recording wrapper; :meth:`unpatch_all` undoes
        it.

        ``recursive`` is for a module function that calls itself by its
        global name: the wrapper then calls a copy of the function whose
        globals bind that name to the copy, so only the outermost call
        passes through the wrapper.
        """
        raw = inspect.getattr_static(owner, attribute)
        if recursive:
            namespace = dict(owner.__dict__)
            raw = types.FunctionType(
                raw.__code__, namespace, raw.__name__, raw.__defaults__,
                raw.__closure__,
            )
            namespace[attribute] = raw
        if isinstance(raw, classmethod):
            new: Any = classmethod(self.wrap(raw.__func__, key, on_result))
        elif isinstance(raw, staticmethod):
            new = staticmethod(self.wrap(raw.__func__, key, on_result))
        else:
            new = self.wrap(raw, key, on_result)
        self._patched.append((owner, attribute, owner.__dict__.get(attribute)))
        setattr(owner, attribute, new)

    def unpatch_all(self) -> None:
        while self._patched:
            owner, attribute, previous = self._patched.pop()
            if previous is None:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, previous)

    # -- reading ---------------------------------------------------------

    def self_ns(self, root: str, *keys: str) -> int:
        return sum(self.spans[(root, key)][2] for key in keys if (root, key) in self.spans)

    def inclusive_ns(self, root: str, *keys: str) -> int:
        return sum(self.spans[(root, key)][1] for key in keys if (root, key) in self.spans)

    def calls(self, root: str, *keys: str) -> int:
        return sum(self.spans[(root, key)][0] for key in keys if (root, key) in self.spans)
