"""The supervision layer: deadlines, interrupts, and crash recovery.

The paper's control interface promises that every control call *returns
only when the inferior is paused or terminated*. The seed implementations
made that promise unconditionally: a spinning inferior, a crashed debug
server, or a garbled MI pipe would block the embedding tool forever. This
module makes the promise enforceable, the same way for every backend:

- :class:`Deadline` — a monotonic-clock budget threaded through a control
  call. When it expires the backend *interrupts* the inferior (settrace
  async-pause flag for the Python tracker, ``-exec-interrupt`` down the
  pipe for the debug server) so the call still returns with the tracker
  paused; :class:`repro.core.errors.ControlTimeout` is raised only when
  the interrupt itself fails to land within the grace period.
- :class:`BackoffPolicy` + :func:`run_with_recovery` — bounded exponential
  backoff around backend restarts. Exhausted retries degrade to a terminal
  ``"unavailable"`` health state
  (:class:`repro.core.errors.BackendUnavailableError`), never a hang.
- :class:`SupervisionEvent` — restarts, interrupts and wedged inferiors
  are surfaced as events (``Tracker.drain_supervision_events``) and
  counted in :class:`repro.core.engine.TrackerStats`.

Shared by all four tracker backends, analogous to how
:class:`repro.core.engine.ControlPointEngine` unified pause dispatch.
"""

from __future__ import annotations

import linecache
import re
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple, TypeVar

from repro.core.errors import BackendUnavailableError

__all__ = [
    "BackoffPolicy",
    "Deadline",
    "StallDetector",
    "StallVerdict",
    "SupervisionEvent",
    "ThreadSample",
    "BACKEND_RESTARTED",
    "BACKEND_UNAVAILABLE",
    "INFERIOR_DEADLOCK_SUSPECTED",
    "INFERIOR_INTERRUPTED",
    "INFERIOR_PROCESS_DIED",
    "INFERIOR_WEDGED",
    "format_thread_stack",
    "run_with_recovery",
]

#: Event kinds (``SupervisionEvent.kind`` values).
BACKEND_RESTARTED = "backend-restarted"
BACKEND_UNAVAILABLE = "backend-unavailable"
INFERIOR_INTERRUPTED = "inferior-interrupted"
INFERIOR_WEDGED = "inferior-wedged"
#: The process hosting the inferior died mid-run (subprocess isolation:
#: a segfault, ``os._exit``, OOM kill or rlimit kill took the child down).
INFERIOR_PROCESS_DIED = "inferior-process-died"
#: A control-call deadline expired and every inferior thread was found
#: blocked on synchronization primitives — the stall detector converted
#: the timeout into a ``DEADLOCK_SUSPECTED`` pause.
INFERIOR_DEADLOCK_SUSPECTED = "inferior-deadlock-suspected"

#: Floor on the interrupt grace period, so tiny deadlines still leave the
#: interrupt a realistic chance to land before ControlTimeout.
_MIN_GRACE = 0.05


class Deadline:
    """A monotonic-clock deadline for one control call.

    The budget is split in two phases of equal length (the acceptance
    contract is "returns within 2x the deadline"): at ``timeout`` the
    supervisor requests an interrupt; if the inferior still has not paused
    after the *grace* phase — another ``timeout`` seconds (at least
    ``0.05 s``) — the call gives up with ``ControlTimeout``.
    """

    def __init__(self, timeout: float):
        if timeout <= 0:
            raise ValueError(f"timeout must be positive, got {timeout!r}")
        self.timeout = timeout
        self.grace = max(timeout, _MIN_GRACE)
        self._start = time.monotonic()
        #: Set once the interrupt request has been issued.
        self.interrupt_requested = False

    def remaining(self) -> float:
        """Seconds left before the interrupt phase starts (may be < 0)."""
        return self.timeout - (time.monotonic() - self._start)

    def expired(self) -> bool:
        return self.remaining() <= 0

    def grace_remaining(self) -> float:
        """Seconds left before the call must give up entirely."""
        return (self.timeout + self.grace) - (time.monotonic() - self._start)

    def grace_expired(self) -> bool:
        return self.grace_remaining() <= 0


@dataclass
class SupervisionEvent:
    """One supervision occurrence (restart, interrupt, wedge, give-up)."""

    kind: str
    message: str
    details: Dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        return f"[{self.kind}] {self.message}"


@dataclass
class BackoffPolicy:
    """Bounded exponential backoff for backend crash recovery.

    Attributes:
        max_restarts: restart attempts before degrading to
            ``BackendUnavailableError`` (0 disables recovery).
        initial_delay: seconds slept before the first restart attempt.
        multiplier: factor applied to the delay after each attempt.
        max_delay: upper bound on any single delay.
    """

    max_restarts: int = 2
    initial_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0

    def delays(self) -> Iterator[float]:
        """The deterministic delay schedule, one entry per attempt."""
        delay = self.initial_delay
        for _ in range(self.max_restarts):
            yield min(delay, self.max_delay)
            delay *= self.multiplier


_T = TypeVar("_T")


def run_with_recovery(
    call: Callable[[], _T],
    *,
    restart: Callable[[BaseException], None],
    policy: Optional[BackoffPolicy],
    recoverable: tuple = (Exception,),
    on_restarted: Optional[Callable[[BaseException, int], None]] = None,
    on_unavailable: Optional[Callable[[BaseException], None]] = None,
    sleep: Callable[[float], None] = time.sleep,
) -> _T:
    """Run ``call``; on a recoverable failure restart the backend and retry.

    Args:
        call: the supervised operation. Retried at most once per restart.
        restart: brings the backend back up; receives the triggering error
            and may itself raise a recoverable error (counts as a failed
            attempt).
        policy: the backoff schedule; ``None`` or ``max_restarts=0`` means
            the first failure is already terminal.
        recoverable: exception classes that trigger recovery; anything
            else propagates untouched.
        on_restarted: called after each successful restart with the error
            that caused it and the 1-based attempt number.
        on_unavailable: called once when retries are exhausted, just
            before ``BackendUnavailableError`` is raised.
        sleep: injection point for tests (defaults to ``time.sleep``).

    Raises:
        BackendUnavailableError: when the schedule is exhausted; the last
            backend error is chained as ``__cause__``.
    """
    try:
        return call()
    except recoverable as error:
        last_error: BaseException = error
    schedule = list(policy.delays()) if policy is not None else []
    for attempt, delay in enumerate(schedule, start=1):
        sleep(delay)
        try:
            restart(last_error)
        except recoverable as error:
            last_error = error
            continue
        if on_restarted is not None:
            on_restarted(last_error, attempt)
        try:
            return call()
        except recoverable as error:
            last_error = error
    if on_unavailable is not None:
        on_unavailable(last_error)
    raise BackendUnavailableError(
        f"backend did not survive {len(schedule)} restart attempt(s): "
        f"{last_error}"
    ) from last_error


def format_thread_stack(thread: threading.Thread) -> str:
    """Render the current Python stack of ``thread`` (best effort).

    Used when an inferior thread refuses to die: the warning that marks
    the tracker invalid includes where the inferior is stuck, via
    ``sys._current_frames()``.
    """
    import sys

    ident = thread.ident
    if ident is None:
        return "<thread not started>"
    frame = sys._current_frames().get(ident)
    if frame is None:
        return "<no stack available>"
    return "".join(traceback.format_stack(frame))


# ---------------------------------------------------------------------------
# Stall detection: classify a hung inferior on deadline expiry
# ---------------------------------------------------------------------------

#: ``threading.py`` functions whose presence on a stack means the thread is
#: parked in a Python-level synchronization wait (Condition.wait,
#: Thread.join, Semaphore.acquire run Python code; plain ``Lock.acquire``
#: is a C call and is classified from the caller's source line instead).
_BLOCKING_FUNCS = frozenset(
    {"wait", "wait_for", "join", "acquire", "_wait_for_tstate_lock",
     "_acquire_restore"}
)

_IDENTIFIER_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)*")
_OWNER_RE = re.compile(r"owner=(\d+)")

#: Python keywords that the line scanner must not try to resolve.
_SCAN_SKIP = frozenset(
    {"with", "if", "while", "for", "in", "and", "or", "not", "return",
     "self", "True", "False", "None", "lambda", "try", "except", "as",
     "is", "else", "elif", "def", "class", "await", "async"}
)


@dataclass
class ThreadSample:
    """One inferior thread's state as sampled by :class:`StallDetector`.

    ``thread`` is the tracker's stable thread index; ``ident`` the OS
    ident the frame was sampled under. ``blocked`` means the sampler found
    the thread waiting on a synchronization primitive; ``waiting_on`` is a
    short description of that primitive and ``owner_ident`` the OS ident
    of the thread holding it, when the primitive exposes one (C ``RLock``
    reprs do).
    """

    thread: int
    name: str
    ident: int
    function: Optional[str] = None
    line: Optional[int] = None
    filename: Optional[str] = None
    blocked: bool = False
    waiting_on: Optional[str] = None
    waiting_on_id: Optional[int] = None
    owner_ident: Optional[int] = None


@dataclass
class StallVerdict:
    """The stall classification: a lock-wait graph over blocked threads.

    Produced only when *every* sampled thread is blocked; carried in the
    ``details`` payload of a ``DEADLOCK_SUSPECTED`` pause.
    """

    samples: List[ThreadSample]
    edges: List[Tuple[int, int, str]] = field(default_factory=list)
    cycle: List[int] = field(default_factory=list)

    def to_details(self) -> Dict[str, Any]:
        """The JSON-serializable lock-wait graph."""
        return {
            "threads": [
                {
                    "thread": sample.thread,
                    "name": sample.name,
                    "function": sample.function,
                    "line": sample.line,
                    "filename": sample.filename,
                    "waiting_on": sample.waiting_on,
                    "owner": self._owner_index(sample),
                }
                for sample in self.samples
            ],
            "edges": [
                {"from": src, "to": dst, "lock": lock}
                for src, dst, lock in self.edges
            ],
            "cycle": list(self.cycle),
        }

    def _owner_index(self, sample: ThreadSample) -> Optional[int]:
        for src, dst, _lock in self.edges:
            if src == sample.thread:
                return dst
        return None


class StallDetector:
    """Classify a hung inferior by sampling all of its thread stacks.

    When a control-call deadline expires and the interrupt cannot land
    (no Python bytecode is executing, so no trace event ever services the
    interrupt flag), the supervisor asks this detector *why*. It samples
    every registered inferior thread via ``sys._current_frames()`` and
    declares a suspected deadlock only when **all** of them are blocked on
    synchronization primitives — a busy-spinning thread anywhere means the
    inferior is merely slow, and the ordinary interrupt/ControlTimeout
    path applies.

    Two classification paths per thread:

    - the stack contains a ``threading.py`` wait function
      (``Condition.wait``, ``Thread.join``, ``Semaphore.acquire`` — these
      run Python code), or
    - the innermost *inferior* frame's current source line references a
      lock-like object (has ``acquire``/``release``) whose repr says it is
      locked — the shape a C-level ``Lock.acquire``/``with lock:`` block
      leaves on the stack.

    Lock ownership (for the wait graph's edges) is read from C ``RLock``
    reprs (``owner=<ident>``); plain ``Lock`` objects carry no owner, so
    their edges are omitted and only the per-thread wait facts remain.
    """

    def __init__(
        self,
        is_inferior_file: Optional[Callable[[str], bool]] = None,
        machinery_files: Optional[List[str]] = None,
    ):
        #: Predicate deciding which frames belong to the inferior program
        #: (defaults to "not an importlib/threading internals frame").
        self._is_inferior_file = is_inferior_file or (
            lambda filename: not filename.startswith("<")
            and "threading.py" not in filename
        )
        #: Files of the tracker's own machinery: a thread with one of
        #: these on its stack is inside the pause handshake (delivering or
        #: parked), *not* deadlocked — it must veto the verdict, or an
        #: interrupt landing mid-sample would be misread as a lock wait
        #: (the handshake waits on a Condition, which is a threading.py
        #: wait like any other).
        self._machinery_files = frozenset(machinery_files or [])

    # -- sampling -------------------------------------------------------

    def sample(
        self, threads: List[Tuple[int, str, Optional[int]]]
    ) -> List[ThreadSample]:
        """Sample the current stacks of the given ``(index, name, ident)``.

        Threads whose ident is gone from ``sys._current_frames()``
        (already finished) are skipped — they cannot hold up the verdict.
        """
        import sys

        frames = sys._current_frames()
        samples: List[ThreadSample] = []
        for index, name, ident in threads:
            if ident is None:
                continue
            frame = frames.get(ident)
            if frame is None:
                continue
            samples.append(self._classify_thread(index, name, ident, frame))
        return samples

    def _classify_thread(
        self, index: int, name: str, ident: int, frame: Any
    ) -> ThreadSample:
        sample = ThreadSample(thread=index, name=name, ident=ident)
        inferior_frame = None
        walker = frame
        while walker is not None:
            code = walker.f_code
            filename = code.co_filename
            if filename in self._machinery_files and inferior_frame is None:
                # Tracker machinery *inner* to all inferior frames means
                # the thread is inside the pause handshake (delivering or
                # parked) — pausing, not hung. Machinery *outer* to the
                # inferior frames is just the launcher scaffolding every
                # inferior thread sits on and proves nothing.
                sample.blocked = False
                break
            if inferior_frame is None and self._is_inferior_file(filename):
                inferior_frame = walker
            if (
                filename.endswith("threading.py")
                and code.co_name in _BLOCKING_FUNCS
            ):
                sample.blocked = True
                sample.waiting_on = self._describe_threading_wait(walker)
            walker = walker.f_back
        if inferior_frame is not None:
            sample.function = inferior_frame.f_code.co_name
            sample.line = inferior_frame.f_lineno
            sample.filename = inferior_frame.f_code.co_filename
        if not sample.blocked and inferior_frame is not None:
            self._classify_from_source_line(sample, inferior_frame)
        return sample

    def _describe_threading_wait(self, frame: Any) -> str:
        owner = frame.f_locals.get("self")
        if owner is None:
            return f"threading.{frame.f_code.co_name}"
        return f"{type(owner).__name__}.{frame.f_code.co_name}"

    def _classify_from_source_line(self, sample: ThreadSample, frame: Any) -> None:
        """Detect a C-level lock wait from the blocked line's identifiers.

        ``lock.acquire()`` on a C lock leaves no Python callee frame; the
        evidence is the inferior frame sitting on a line that names a
        currently-locked synchronization object. ``SUSPECTED`` semantics:
        a thread merely executing past such a line can be misread as
        blocked, which the double-sample in :meth:`confirmed_deadlock`
        filters out.
        """
        line_text = linecache.getline(frame.f_code.co_filename, frame.f_lineno)
        if not line_text:
            return
        for match in _IDENTIFIER_RE.finditer(line_text):
            dotted = match.group(0)
            root = dotted.split(".", 1)[0]
            if root in _SCAN_SKIP:
                continue
            resolved = self._resolve(dotted, frame)
            if resolved is None or not _is_lock_like(resolved):
                continue
            rendered = repr(resolved)
            if not rendered.startswith("<locked"):
                continue
            sample.blocked = True
            sample.waiting_on = dotted
            sample.waiting_on_id = id(resolved)
            owner = _OWNER_RE.search(rendered)
            if owner is not None:
                sample.owner_ident = int(owner.group(1))
            return

    @staticmethod
    def _resolve(dotted: str, frame: Any) -> Any:
        parts = dotted.split(".")
        scope = frame.f_locals
        if parts[0] in scope:
            value = scope[parts[0]]
        elif parts[0] in frame.f_globals:
            value = frame.f_globals[parts[0]]
        else:
            return None
        for attr in parts[1:]:
            try:
                value = getattr(value, attr)
            except AttributeError:
                return None
        return value

    # -- verdict --------------------------------------------------------

    def classify(self, samples: List[ThreadSample]) -> Optional[StallVerdict]:
        """A :class:`StallVerdict` iff every sampled thread is blocked."""
        live = [s for s in samples if s is not None]
        if not live or not all(s.blocked for s in live):
            return None
        by_ident = {s.ident: s.thread for s in live}
        edges: List[Tuple[int, int, str]] = []
        for s in live:
            if s.owner_ident is not None and s.owner_ident in by_ident:
                owner_index = by_ident[s.owner_ident]
                if owner_index != s.thread:
                    edges.append((s.thread, owner_index, s.waiting_on or "?"))
        return StallVerdict(samples=live, edges=edges, cycle=_find_cycle(edges))

    def confirmed_deadlock(
        self,
        threads: List[Tuple[int, str, Optional[int]]],
        *,
        recheck_delay: float = 0.05,
        sleep: Callable[[float], None] = time.sleep,
    ) -> Optional[StallVerdict]:
        """Sample twice with a delay; a verdict must hold in both samples.

        The double sample rejects transient contention (a thread briefly
        parked on a busy lock moves between samples) without waiting out
        the whole grace period.
        """
        first = self.classify(self.sample(threads))
        if first is None:
            return None
        sleep(recheck_delay)
        second = self.classify(self.sample(threads))
        if second is None:
            return None
        held = {(s.thread, s.line, s.waiting_on) for s in first.samples}
        again = {(s.thread, s.line, s.waiting_on) for s in second.samples}
        if held != again:
            return None
        return second


def _is_lock_like(candidate: Any) -> bool:
    """Duck-typed synchronization primitive: acquire+release+locked repr."""
    return (
        callable(getattr(candidate, "acquire", None))
        and callable(getattr(candidate, "release", None))
        and not isinstance(candidate, type)
    )


def _find_cycle(edges: List[Tuple[int, int, str]]) -> List[int]:
    """First cycle in the waits-for graph, as a thread-index list."""
    graph: Dict[int, int] = {src: dst for src, dst, _lock in edges}
    for start in graph:
        seen: List[int] = []
        node = start
        while node in graph and node not in seen:
            seen.append(node)
            node = graph[node]
        if node in seen:
            return seen[seen.index(node):]
    return []
