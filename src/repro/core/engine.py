"""The control-point engine: one indexed, observable decision core.

Every tracker backend must answer the same question on every trace event:
*given the installed control points and the current step mode, should the
inferior pause here, and why?* :meth:`ControlPointEngine.decide` is the
one answer: the live Python trackers, the MI debug server and the replay
tracker all hand it their events and only translate the returned
:class:`PauseDecision` into their own output, so a recorded run pauses
for the same reasons as the live one. The precedence it applies is the
canonical one:

- a ``call`` event: function breakpoint, then tracked-function entry;
- a ``line`` event: watchpoint, then line breakpoint, then address
  breakpoint, then the step mode;
- a ``return`` event: tracked-function exit.

The engine compiles the control-point registries into indexed structures
once (and again only when a registry changes, tracked by a dirty flag):

- a ``frozenset`` of all breakpoint line numbers, so the common case
  ("this line has no breakpoint") is one O(1) membership test;
- per-line candidate buckets preserving installation order, so the first
  installed matching point wins;
- dict-keyed lookups for function breakpoints, tracked functions, and
  address breakpoints;
- a per-file "any control point here?" map, so the Python tracker can
  return ``None`` from its local trace function and skip whole frames;
- a step-mode/depth state machine shared by ``step``/``next``/``finish``;
- unified watchpoint change-detection over backend-supplied values.

The engine is also the observability layer: :class:`TrackerStats` counts
events seen/suppressed per kind, pauses by reason, watchpoint evaluations
and pause latency, and is exposed uniformly through the inspection API
(:meth:`repro.core.tracker.Tracker.get_stats`), the MI server
(``-tracker-stats``) and the DAP adapter (``trackerStats`` request).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Tuple,
)

from repro.core.pause import PauseReason, PauseReasonType

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (types only)
    from repro.core.tracker import (
        FunctionBreakpoint,
        LineBreakpoint,
        TrackedFunction,
        Watchpoint,
    )

__all__ = [
    "AddressBreakpoint",
    "ControlPointEngine",
    "PauseDecision",
    "TrackerStats",
    "split_variable_id",
]


@dataclass
class AddressBreakpoint:
    """A pause request before executing the instruction at ``address``.

    Used by the MI debug server for assembly inferiors (``-break-insert
    *0x...``) and by the GDB tracker's ret-scan exit breakpoints.
    """

    address: int
    maxdepth: Optional[int] = None
    enabled: bool = True
    #: Restrict to one inferior thread index (``None`` = any thread).
    thread: Optional[int] = None


class PauseDecision(NamedTuple):
    """The winning pause of one event, as :meth:`ControlPointEngine.decide`
    returns it: the reason type, the control point that claimed the event
    (``None`` for a step), the function of a ``call``/``return`` event, and
    a watch's old and new rendered values."""

    type: PauseReasonType
    point: Any = None
    function: Optional[str] = None
    old: Optional[str] = None
    new: Optional[str] = None

    def reason(self, line: Optional[int]) -> PauseReason:
        """The tracker-API pause reason for this decision, paused at ``line``."""
        watch = self.type is PauseReasonType.WATCH
        return PauseReason(
            type=self.type,
            function=self.function,
            variable=self.point.variable_id if watch else None,
            old_value=self.old,
            new_value=self.new,
            line=line,
        )


def split_variable_id(variable_id: str) -> Tuple[Optional[str], str]:
    """Split a watch identifier into ``(function_or_None, variable_name)``.

    The syntax is ``name`` (global or current-frame variable) or
    ``function:name`` to scope the watch to one function's local. The
    function part may be dotted (``Class.method``). Edge cases handled:

    - an empty function part (``":x"``) means no function scope;
    - only the *first* scope colon splits (``"f:x:y"`` watches ``"x:y"``
      inside ``f``);
    - a colon inside brackets or quotes belongs to the variable path
      (``'d[":k"]'`` is an unscoped watch of a dict element).
    """
    separator = _find_scope_colon(variable_id)
    if separator < 0:
        return None, variable_id
    function = variable_id[:separator]
    name = variable_id[separator + 1:]
    if not function:
        return None, name
    return function, name


def _find_scope_colon(variable_id: str) -> int:
    """Index of the scope-separating colon, or -1 if there is none."""
    bracket_depth = 0
    quote: Optional[str] = None
    for index, char in enumerate(variable_id):
        if quote is not None:
            if char == quote:
                quote = None
            continue
        if char in "'\"":
            quote = char
        elif char == "[":
            bracket_depth += 1
        elif char == "]":
            bracket_depth = max(bracket_depth - 1, 0)
        elif char == ":" and bracket_depth == 0:
            # Only a plain (possibly dotted) identifier may be a function
            # scope; anything with path syntax before the colon is part of
            # the variable name itself.
            prefix = variable_id[:index]
            if prefix == "" or _is_dotted_identifier(prefix):
                return index
            return -1
    return -1


def _is_dotted_identifier(text: str) -> bool:
    return all(part.isidentifier() for part in text.split("."))


@dataclass
class TrackerStats:
    """Uniform observability counters for any tracker backend.

    Attributes:
        events_seen: trace events received by the backend, per event kind
            (``"line"``, ``"call"``, ``"return"``, ...).
        events_paused: events that resulted in a pause, per event kind.
        pauses: pauses taken, keyed by ``PauseReasonType`` value.
        watch_evaluations: individual watchpoint value fetches performed.
        recompiles: times the engine rebuilt its indexes (dirty-flag hits).
        last_pause_latency_ns: event-receipt-to-pause-decision time of the
            most recent pause, in nanoseconds.
        total_pause_latency_ns: sum of all pause decision latencies.
        interrupts: inferior interrupts delivered after a control-call
            deadline expired (the inferior paused instead of hanging).
        control_timeouts: control calls that raised ``ControlTimeout``
            because the interrupt itself failed to land.
        backend_restarts: debug-server restarts performed by the
            supervision layer after a backend crash.
        wedged_inferiors: inferior threads that survived ``terminate``'s
            grace period and were abandoned (tracker marked invalid).
        faults_injected: faults injected by the testing harness
            (:mod:`repro.testing.faults`).
        faults_recovered: injected faults the supervision layer recovered
            from (backend restarted, or inferior interrupted).
        settrace_tamperings: times the inferior disarmed or replaced the
            trace function (``sys.settrace(None)``) and the tracker's
            profile-hook guard detected it and re-armed tracing.
        output_chars_dropped: captured-stdout characters evicted from the
            bounded output ring (:class:`repro.core.ringbuffer.RingTextBuffer`).
        transport_lines_dropped: pipe lines evicted by the client
            transport's bounded stdout/stderr rings
            (:mod:`repro.mi.transport`) — a log-flooding child cannot grow
            client memory, but what it pushed out is counted here.
    """

    events_seen: Dict[str, int] = field(default_factory=dict)
    events_paused: Dict[str, int] = field(default_factory=dict)
    pauses: Dict[str, int] = field(default_factory=dict)
    watch_evaluations: int = 0
    recompiles: int = 0
    last_pause_latency_ns: int = 0
    total_pause_latency_ns: int = 0
    interrupts: int = 0
    control_timeouts: int = 0
    backend_restarts: int = 0
    wedged_inferiors: int = 0
    faults_injected: int = 0
    faults_recovered: int = 0
    settrace_tamperings: int = 0
    output_chars_dropped: int = 0
    transport_lines_dropped: int = 0

    @property
    def events_suppressed(self) -> Dict[str, int]:
        """Events that did *not* pause, per kind (seen minus paused)."""
        return {
            kind: count - self.events_paused.get(kind, 0)
            for kind, count in self.events_seen.items()
        }

    @property
    def pause_count(self) -> int:
        return sum(self.pauses.values())

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-serializable snapshot (crosses the MI / DAP boundary)."""
        return {
            "events_seen": dict(self.events_seen),
            "events_suppressed": self.events_suppressed,
            "pauses": dict(self.pauses),
            "pause_count": self.pause_count,
            "watch_evaluations": self.watch_evaluations,
            "recompiles": self.recompiles,
            "last_pause_latency_ns": self.last_pause_latency_ns,
            "total_pause_latency_ns": self.total_pause_latency_ns,
            "interrupts": self.interrupts,
            "control_timeouts": self.control_timeouts,
            "backend_restarts": self.backend_restarts,
            "wedged_inferiors": self.wedged_inferiors,
            "faults_injected": self.faults_injected,
            "faults_recovered": self.faults_recovered,
            "settrace_tamperings": self.settrace_tamperings,
            "output_chars_dropped": self.output_chars_dropped,
            "transport_lines_dropped": self.transport_lines_dropped,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TrackerStats":
        """Rebuild a stats snapshot from :meth:`to_dict` output."""
        stats = cls(
            events_seen={k: int(v) for k, v in data.get("events_seen", {}).items()},
            pauses={k: int(v) for k, v in data.get("pauses", {}).items()},
            watch_evaluations=int(data.get("watch_evaluations", 0)),
            recompiles=int(data.get("recompiles", 0)),
            last_pause_latency_ns=int(data.get("last_pause_latency_ns", 0)),
            total_pause_latency_ns=int(data.get("total_pause_latency_ns", 0)),
            interrupts=int(data.get("interrupts", 0)),
            control_timeouts=int(data.get("control_timeouts", 0)),
            backend_restarts=int(data.get("backend_restarts", 0)),
            wedged_inferiors=int(data.get("wedged_inferiors", 0)),
            faults_injected=int(data.get("faults_injected", 0)),
            faults_recovered=int(data.get("faults_recovered", 0)),
            settrace_tamperings=int(data.get("settrace_tamperings", 0)),
            output_chars_dropped=int(data.get("output_chars_dropped", 0)),
            transport_lines_dropped=int(
                data.get("transport_lines_dropped", 0)
            ),
        )
        suppressed = data.get("events_suppressed", {})
        stats.events_paused = {
            kind: count - int(suppressed.get(kind, 0))
            for kind, count in stats.events_seen.items()
        }
        return stats

    def merged(self, other: "TrackerStats") -> "TrackerStats":
        """Combine two stats snapshots (e.g. client-side plus server-side)."""
        merged = TrackerStats(
            events_seen=dict(self.events_seen),
            events_paused=dict(self.events_paused),
            pauses=dict(self.pauses),
            watch_evaluations=self.watch_evaluations + other.watch_evaluations,
            recompiles=self.recompiles + other.recompiles,
            last_pause_latency_ns=max(
                self.last_pause_latency_ns, other.last_pause_latency_ns
            ),
            total_pause_latency_ns=(
                self.total_pause_latency_ns + other.total_pause_latency_ns
            ),
            interrupts=self.interrupts + other.interrupts,
            control_timeouts=self.control_timeouts + other.control_timeouts,
            backend_restarts=self.backend_restarts + other.backend_restarts,
            wedged_inferiors=self.wedged_inferiors + other.wedged_inferiors,
            faults_injected=self.faults_injected + other.faults_injected,
            faults_recovered=self.faults_recovered + other.faults_recovered,
            settrace_tamperings=(
                self.settrace_tamperings + other.settrace_tamperings
            ),
            output_chars_dropped=(
                self.output_chars_dropped + other.output_chars_dropped
            ),
            transport_lines_dropped=(
                self.transport_lines_dropped + other.transport_lines_dropped
            ),
        )
        for kind, count in other.events_seen.items():
            merged.events_seen[kind] = merged.events_seen.get(kind, 0) + count
        for kind, count in other.events_paused.items():
            merged.events_paused[kind] = merged.events_paused.get(kind, 0) + count
        for reason, count in other.pauses.items():
            merged.pauses[reason] = merged.pauses.get(reason, 0) + count
        return merged


class ControlPointEngine:
    """Indexed pause decisions over the shared control-point registries.

    The engine owns the registry lists; :class:`repro.core.tracker.Tracker`
    aliases its public ``line_breakpoints``/... attributes to them, so
    appends made through the control interface and direct list manipulation
    (the DAP adapter clears and refills ``line_breakpoints``) both land
    here. Mutations must be followed by :meth:`mark_dirty` (the base
    tracker's ``_control_points_changed`` does this); ``enabled`` flips
    need no notification because enabled-ness is checked at match time.
    """

    def __init__(self) -> None:
        self.line_breakpoints: List[LineBreakpoint] = []
        self.function_breakpoints: List[FunctionBreakpoint] = []
        self.tracked_functions: List[TrackedFunction] = []
        self.watchpoints: List[Watchpoint] = []
        self.address_breakpoints: List[AddressBreakpoint] = []
        self.stats = TrackerStats()
        #: step-mode state machine: "resume", "step", "next" or "finish"
        self.mode: str = "resume"
        self.mode_depth: int = 0
        #: Thread index the step mode is scoped to (``None`` = any thread;
        #: multi-thread backends arm stepping for the paused thread only).
        self.mode_thread: Optional[int] = None
        self._dirty = True
        self._watch_snapshots: Dict[int, Optional[str]] = {}
        self._synced_ids: set = set()
        self._event_ns: int = 0
        self._event_kind: str = ""
        # Compiled indexes (rebuilt lazily by _recompile).
        self._bp_lines: FrozenSet[int] = frozenset()
        self._line_index: Dict[int, List[LineBreakpoint]] = {}
        self._function_index: Dict[str, List[FunctionBreakpoint]] = {}
        self._tracked_index: Dict[str, List[TrackedFunction]] = {}
        self._address_index: Dict[int, List[AddressBreakpoint]] = {}
        self._bp_files: Optional[FrozenSet[str]] = frozenset()
        self._has_watchpoints = False
        #: Callbacks fired after every index rebuild (dirty-flag hits).
        #: The sys.monitoring backend uses this to re-arm per-code-object
        #: event sets and restart ``DISABLE``d locations the moment the
        #: compiled indexes change underneath it.
        self._recompile_listeners: List[Callable[[], None]] = []

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------

    def mark_dirty(self) -> None:
        """Note that a registry changed; indexes rebuild on next use."""
        self._dirty = True

    def add_recompile_listener(self, listener: Callable[[], None]) -> None:
        """Call ``listener`` after every index rebuild.

        Backends whose instrumentation is compiled from the indexes (the
        ``python-mon`` backend's per-code-object event sets) register here
        so a registry change propagates to the substrate the moment the
        dirty flag is serviced, wherever the triggering ``refresh`` ran.
        """
        self._recompile_listeners.append(listener)

    def refresh(self) -> None:
        """Rebuild the indexes if a registry changed since the last build."""
        if self._dirty:
            self._recompile()

    def _recompile(self) -> None:
        line_index: Dict[int, List[LineBreakpoint]] = {}
        files: Optional[set] = set()
        for breakpoint_ in self.line_breakpoints:
            line_index.setdefault(breakpoint_.line, []).append(breakpoint_)
            if breakpoint_.filename is None:
                # A file-agnostic breakpoint can fire anywhere: the per-file
                # skip map degenerates to "never skip".
                files = None
            elif files is not None:
                files.add(os.path.abspath(breakpoint_.filename))
                files.add(os.path.basename(breakpoint_.filename))
        function_index: Dict[str, List[FunctionBreakpoint]] = {}
        for breakpoint_ in self.function_breakpoints:
            function_index.setdefault(breakpoint_.function, []).append(breakpoint_)
        tracked_index: Dict[str, List[TrackedFunction]] = {}
        for tracked in self.tracked_functions:
            tracked_index.setdefault(tracked.function, []).append(tracked)
        address_index: Dict[int, List[AddressBreakpoint]] = {}
        for breakpoint_ in self.address_breakpoints:
            address_index.setdefault(breakpoint_.address, []).append(breakpoint_)
        self._line_index = line_index
        self._bp_lines = frozenset(line_index)
        self._bp_files = None if files is None else frozenset(files)
        self._function_index = function_index
        self._tracked_index = tracked_index
        self._address_index = address_index
        self._has_watchpoints = bool(self.watchpoints)
        self.stats.recompiles += 1
        self._dirty = False
        for listener in self._recompile_listeners:
            listener()

    # ------------------------------------------------------------------
    # Registry plumbing shared with protocol servers
    # ------------------------------------------------------------------

    def all_points(self) -> Iterator[Any]:
        """Every registered control point, in registry order."""
        yield from self.line_breakpoints
        yield from self.function_breakpoints
        yield from self.address_breakpoints
        yield from self.tracked_functions
        yield from self.watchpoints

    def clear(self) -> None:
        """Drop every control point (and the sync bookkeeping)."""
        self.line_breakpoints.clear()
        self.function_breakpoints.clear()
        self.tracked_functions.clear()
        self.watchpoints.clear()
        self.address_breakpoints.clear()
        self._synced_ids.clear()
        self.mark_dirty()

    def take_unsynced(self) -> List[Any]:
        """Control points added since the last call (for remote backends).

        The GDB tracker forwards each control point to its debug server
        exactly once; the engine tracks which have already crossed the
        pipe so re-syncs after new installs are incremental.
        """
        fresh = [
            point
            for point in self.all_points()
            if id(point) not in self._synced_ids
        ]
        for point in fresh:
            self._synced_ids.add(id(point))
        return fresh

    def reset_sync(self) -> None:
        """Forget which control points were synced (server restarted)."""
        self._synced_ids.clear()

    def resync_points(self) -> List[Any]:
        """The full registry, marked for a from-scratch re-install.

        The crash-recovery path uses this after a backend restart: the
        client-side registry index is the source of truth, so every
        control point is re-sent to the fresh server and the incremental
        sync bookkeeping starts over.
        """
        self.reset_sync()
        return self.take_unsynced()

    # ------------------------------------------------------------------
    # Step-mode state machine
    # ------------------------------------------------------------------

    def arm(
        self, mode: str, depth: int = 0, thread: Optional[int] = None
    ) -> None:
        """Enter a run mode: ``resume``, ``step``, ``next`` or ``finish``.

        ``depth`` is the frame depth at which the command was issued; it is
        the reference for ``next`` (pause at depth <= issue depth) and
        ``finish`` (pause at depth < issue depth). ``thread`` scopes the
        step mode to one inferior thread (multi-thread backends pass the
        paused thread's index so stepping does not complete in a sibling
        thread); ``None`` keeps the single-threaded semantics.
        """
        self.mode = mode
        self.mode_depth = depth
        self.mode_thread = thread

    def should_step_pause(self, depth: int, thread: int = 0) -> bool:
        """Whether the current step mode pauses at a line at ``depth``.

        ``thread`` is the event's inferior thread index; when the mode was
        armed for a specific thread, events from the others never complete
        the step.
        """
        mode = self.mode
        if self.mode_thread is not None and thread != self.mode_thread:
            return False
        if mode == "step":
            return True
        if mode == "next":
            return depth <= self.mode_depth
        if mode == "finish":
            return depth < self.mode_depth
        return False

    # ------------------------------------------------------------------
    # Event accounting
    # ------------------------------------------------------------------

    def note_event(self, kind: str) -> None:
        """Record receipt of one trace event (stats + latency baseline)."""
        seen = self.stats.events_seen
        seen[kind] = seen.get(kind, 0) + 1
        self._event_kind = kind
        self._event_ns = time.perf_counter_ns()

    def record_pause(self, reason_type: Any) -> None:
        """Record a pause decision for the most recent event."""
        latency = (
            time.perf_counter_ns() - self._event_ns if self._event_ns else 0
        )
        stats = self.stats
        key = getattr(reason_type, "value", str(reason_type))
        stats.pauses[key] = stats.pauses.get(key, 0) + 1
        if self._event_kind:
            paused = stats.events_paused
            paused[self._event_kind] = paused.get(self._event_kind, 0) + 1
        stats.last_pause_latency_ns = latency
        stats.total_pause_latency_ns += latency

    # ------------------------------------------------------------------
    # Pause decisions
    # ------------------------------------------------------------------

    def decide(
        self,
        event: str,
        backend: Any,
        at: Any,
        function: Optional[str] = None,
        line: Optional[int] = None,
        filename: Optional[str] = None,
    ) -> Optional[PauseDecision]:
        """The winning pause for one ``call``/``line``/``return`` event.

        Refreshes the indexes, counts the event, then applies the canonical
        precedence (see the module docstring). ``at`` is the backend's
        handle on the event (a Python frame, a mini-C event, a recorded
        snapshot); the engine reads from it through ``backend`` only once
        something could match:

        - ``backend._event_depth(at)`` and ``backend._event_thread(at)``;
        - ``backend._event_watch(at, function, name)``, the rendered value
          of a watched variable or ``None`` when it is not visible;
        - ``backend._event_pc(at)``, asked only while address
          breakpoints exist.

        ``function`` names the function of a ``call``/``return`` event;
        ``line`` and ``filename`` locate a ``line`` event (``filename`` is
        ``None`` for backends whose breakpoints are file-agnostic). Any
        other event kind is counted and never pauses.
        """
        if self._dirty:
            self._recompile()
        self.note_event(event)
        if event == "line":
            if not (
                line in self._bp_lines
                or self._has_watchpoints
                or self._address_index
                or self.mode != "resume"
            ):
                return None
            depth = backend._event_depth(at)
            thread = backend._event_thread(at)
            if self._has_watchpoints:
                hit = self._changed_watch(
                    depth, thread, backend._event_watch, at
                )
                if hit is not None:
                    watchpoint, old, new = hit
                    return PauseDecision(
                        PauseReasonType.WATCH, watchpoint, None, old, new
                    )
            point = self.match_line(filename, line, depth, thread)
            if point is None and self._address_index:
                point = self.match_address(backend._event_pc(at), depth, thread)
            if point is not None:
                return PauseDecision(PauseReasonType.BREAKPOINT, point)
            if self.should_step_pause(depth, thread):
                return PauseDecision(PauseReasonType.STEP)
            return None
        if event == "call":
            kind = PauseReasonType.CALL
        elif event == "return":
            kind = PauseReasonType.RETURN
        else:
            return None
        if (
            function not in self._function_index
            and function not in self._tracked_index
        ):
            return None
        depth = backend._event_depth(at)
        thread = backend._event_thread(at)
        if kind is PauseReasonType.CALL:
            point = self.match_function_breakpoint(function, depth, thread)
            if point is not None:
                return PauseDecision(PauseReasonType.BREAKPOINT, point, function)
        point = self.match_tracked(function, depth, thread)
        if point is not None:
            return PauseDecision(kind, point, function)
        return None

    @property
    def has_watchpoints(self) -> bool:
        """Whether any watchpoints are installed (enabled or not)."""
        return self._has_watchpoints

    @property
    def has_address_breakpoints(self) -> bool:
        return bool(self._address_index)

    @property
    def has_tracked_functions(self) -> bool:
        """Whether any tracked functions are installed (enabled or not)."""
        return bool(self._tracked_index)

    def lines_may_fire_in(self, filename: str) -> bool:
        """Whether any line breakpoint could fire in ``filename``.

        The per-file projection of the line index: ``True`` when a
        file-agnostic breakpoint exists or ``filename`` (by absolute path
        or basename) carries one. This is what the ``python-mon`` backend
        compiles into its per-code-object ``LINE`` event masks — line
        events are requested only where a line control point could match
        (stepping and watchpoints force them separately).
        """
        if self._bp_files is None:
            return True
        return (
            filename in self._bp_files
            or os.path.basename(filename) in self._bp_files
        )

    def may_match_line(self, line: int) -> bool:
        """O(1) fast reject: is there *any* breakpoint on this line?"""
        return line in self._bp_lines

    def may_match_function(self, function: str) -> bool:
        """O(1) fast reject for call events: any control point on it?"""
        return function in self._function_index or function in self._tracked_index

    def match_line(
        self, filename: Optional[str], line: int, depth: int, thread: int = 0
    ) -> Optional[LineBreakpoint]:
        """First enabled line breakpoint matching (file, line, depth, thread).

        ``filename`` is the executing file, or ``None`` for backends whose
        breakpoints are file-agnostic (the MI server, the PT tracker).
        ``thread`` is the event's inferior thread index; a breakpoint with
        ``thread=None`` matches events from any thread.
        """
        candidates = self._line_index.get(line)
        if candidates is None:
            return None
        for breakpoint_ in candidates:
            if not breakpoint_.enabled:
                continue
            if (
                filename is not None
                and breakpoint_.filename is not None
                and not _filename_matches(breakpoint_.filename, filename)
            ):
                continue
            if breakpoint_.maxdepth is not None and depth > breakpoint_.maxdepth:
                continue
            if (
                breakpoint_.thread is not None
                and breakpoint_.thread != thread
            ):
                continue
            return breakpoint_
        return None

    def match_function_breakpoint(
        self, function: str, depth: int, thread: int = 0
    ) -> Optional[FunctionBreakpoint]:
        """First enabled function breakpoint matching (function, depth)."""
        return _first_allowed(self._function_index.get(function), depth, thread)

    def match_tracked(
        self, function: str, depth: int, thread: int = 0
    ) -> Optional[TrackedFunction]:
        """First enabled tracked function matching (function, depth)."""
        return _first_allowed(self._tracked_index.get(function), depth, thread)

    def match_address(
        self, address: Optional[int], depth: int, thread: int = 0
    ) -> Optional[AddressBreakpoint]:
        """First enabled address breakpoint matching (pc, depth)."""
        if address is None:
            return None
        return _first_allowed(self._address_index.get(address), depth, thread)

    def can_skip_frame(self, filename: str, function: str) -> bool:
        """Whether a frame needs no local tracing at all.

        True only when nothing that requires per-line or return events can
        fire inside this frame *and* no later pause could re-arm stepping
        while the frame is still live: free-running mode, no watchpoints,
        no function breakpoints or tracked functions anywhere (either could
        pause in a nested call, after which ``finish``/``next`` would need
        line events in this already-untraced frame), and no line breakpoint
        targeting the frame's file.
        """
        if self.mode != "resume" or self._has_watchpoints:
            return False
        if self._function_index or self._tracked_index:
            return False
        return not self.lines_may_fire_in(filename)

    # ------------------------------------------------------------------
    # Watchpoints: unified value-change detection
    # ------------------------------------------------------------------

    def seed_watch(self, watchpoint: Watchpoint, value: Optional[str]) -> None:
        """Record a baseline value for one watchpoint (added mid-run)."""
        self._watch_snapshots[id(watchpoint)] = value

    def baseline_watches(
        self, fetch: Callable[[Optional[str], str], Optional[str]]
    ) -> None:
        """Record baselines for every watchpoint without firing any.

        Used by backends whose variables exist (initialized) before the
        first event — a watch fires on *modification*, not on the
        pre-existing initial value.
        """
        for watchpoint in self.watchpoints:
            function, name = split_variable_id(watchpoint.variable_id)
            self._watch_snapshots[id(watchpoint)] = fetch(function, name)
            self.stats.watch_evaluations += 1

    def evaluate_watches(
        self,
        depth: int,
        fetch: Callable[[Optional[str], str], Optional[str]],
        thread: int = 0,
    ) -> Optional[Tuple[Watchpoint, Optional[str], str]]:
        """Check every enabled watchpoint for a value change.

        Args:
            depth: current frame depth (for the maxdepth filter).
            fetch: backend callback resolving ``(function, name)`` to the
                variable's rendered value, or ``None`` when it is not
                currently visible.

        Returns:
            ``(watchpoint, old_value, new_value)`` for the first watchpoint
            whose value changed (``old_value`` is ``None`` on first
            sighting), or ``None``. Snapshots of watchpoints checked before
            a hit are updated; later ones keep their previous snapshot,
            matching the seed trackers' scan behaviour.
        """
        return self._changed_watch(
            depth, thread, lambda _at, function, name: fetch(function, name), None
        )

    def _changed_watch(
        self,
        depth: int,
        thread: int,
        fetch: Callable[[Any, Optional[str], str], Optional[str]],
        at: Any,
    ) -> Optional[Tuple[Watchpoint, Optional[str], str]]:
        snapshots = self._watch_snapshots
        stats = self.stats
        for watchpoint in self.watchpoints:
            if not watchpoint.enabled:
                continue
            if watchpoint.thread is not None and watchpoint.thread != thread:
                # A thread-scoped watch is only *sampled* on its thread's
                # events; other threads must not consume its baseline.
                continue
            function, name = split_variable_id(watchpoint.variable_id)
            current = fetch(at, function, name)
            stats.watch_evaluations += 1
            key = id(watchpoint)
            previous = snapshots.get(key)
            snapshots[key] = current
            if current is None:
                continue
            if previous != current:
                if (
                    watchpoint.maxdepth is None
                    or depth <= watchpoint.maxdepth
                ):
                    return watchpoint, previous, current
        return None


def _first_allowed(
    candidates: Optional[List[Any]], depth: int, thread: int = 0
) -> Optional[Any]:
    if candidates is None:
        return None
    for point in candidates:
        if not point.enabled:
            continue
        if point.maxdepth is not None and depth > point.maxdepth:
            continue
        point_thread = getattr(point, "thread", None)
        if point_thread is not None and point_thread != thread:
            continue
        return point
    return None


def _filename_matches(requested: str, actual: str) -> bool:
    """The seed's filename matching: by absolute path or by basename."""
    return os.path.abspath(requested) == actual or os.path.basename(
        requested
    ) == os.path.basename(actual)
