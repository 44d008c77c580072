"""The backend-independent half of an MI debug server.

Two servers speak the MI protocol in this reproduction: the event-loop
server over the mini-C / RISC-V interpreters (:mod:`repro.mi.server`) and
the out-of-process Python server hosting a :class:`PythonTracker` in a
child interpreter (:mod:`repro.subproc.server`). Everything that is about
*being an MI server* rather than about a particular inferior substrate
lives here:

- the stop-record codec: :func:`reason_from_stop` (``*stopped`` payload
  to :class:`PauseReason`, used by every MI client and by the server's
  own recorder) and :func:`stop_from_reason` (the inverse, used by the
  server hosting a client-style tracker), so a recorded pause and a live
  one are decoded by the same code;
- :class:`ServerCore` — command dispatch (``-name`` to ``_cmd_name``),
  defensive error translation (a handler bug becomes an ``^error`` record,
  never a dead pipe), session-id echo (a command prefixed ``s1-...`` gets
  every reply record prefixed ``s1``, the multiplexed-session framing; an
  id-less command stays id-less, preserving wire compatibility with
  legacy clients), interrupts aimed at a numbered command, the
  control-point number registry shared by enable/disable/delete, and the
  ``-timeline-*`` recording family over a recorder each server supplies;
- :class:`StdioServerLoop` / :func:`serve_stdio` — the loop that drives a
  server over stdin/stdout, shared by both ``main`` entry points: one
  long-lived reader thread queues command lines and turns each
  ``-exec-interrupt`` into an interrupt aimed at the last queued
  command; the main thread dispatches the queue; SIGINT aims at the
  command being dispatched. A run loop stops with ``interrupted`` only
  while it runs the targeted command, so a late interrupt is dropped.

``ServerCore.handle`` is pure (command line in, record lines out), so
every server built on it is unit-testable without pipes.
"""

from __future__ import annotations

import os
import queue
import signal
import sys
import threading
from typing import Any, Dict, Iterator, List, Optional

from repro.core.errors import ProgramLoadError, ProtocolError, TrackerError
from repro.core.pause import PauseReason, PauseReasonType
from repro.core.state import Value, value_from_dict, value_to_dict
from repro.mi import protocol

#: MI stop-reason strings -> core pause-reason types.
REASON_TYPES = {
    "breakpoint-hit": PauseReasonType.BREAKPOINT,
    "function-entry": PauseReasonType.CALL,
    "function-exit": PauseReasonType.RETURN,
    "watchpoint-trigger": PauseReasonType.WATCH,
    "end-stepping-range": PauseReasonType.STEP,
    "exited": PauseReasonType.EXIT,
    "interrupted": PauseReasonType.INTERRUPT,
    "deadlock-suspected": PauseReasonType.DEADLOCK_SUSPECTED,
}

#: The inverse map, for servers that build stop payloads from a
#: client-style :class:`PauseReason` (the subprocess Python server).
REASON_NAMES = {reason: name for name, reason in REASON_TYPES.items()}

#: Stop reasons whose payload names the function (``func``) it is about.
_FUNCTION_REASONS = ("breakpoint-hit", "function-entry", "function-exit")


def reason_from_stop(payload: Dict[str, Any]) -> PauseReason:
    """Decode a ``*stopped`` payload into the pause reason it reports.

    Unknown reasons decode as ``STEP``; every non-exit pause is stamped
    with the payload's ``thread``/``thread-name``; a ``retval`` that
    crossed the pipe as a serialized ``Value`` dict is rebuilt.
    """
    kind = payload.get("reason")
    if kind == "exited":
        return PauseReason(type=PauseReasonType.EXIT)
    reason = PauseReason(
        type=REASON_TYPES.get(kind, PauseReasonType.STEP),
        line=payload.get("line"),
        thread=payload.get("thread"),
        thread_name=payload.get("thread-name"),
    )
    if kind in _FUNCTION_REASONS:
        reason.function = payload.get("func")
    if kind == "function-exit":
        retval = payload.get("retval")
        if isinstance(retval, dict) and "abstract_type" in retval:
            retval = value_from_dict(retval)
        reason.return_value = retval
    elif kind == "watchpoint-trigger":
        reason.variable = payload.get("var")
        reason.old_value = payload.get("old")
        reason.new_value = payload.get("new")
    elif kind == "deadlock-suspected":
        reason.details = payload.get("deadlock")
    return reason


def stop_from_reason(
    reason: PauseReason, line: Optional[int], depth: int
) -> Dict[str, Any]:
    """Encode a (non-exit) pause reason as a ``*stopped`` payload.

    ``line`` stands in when the reason carries none; a ``Value`` return
    value is serialized so :func:`reason_from_stop` can rebuild it.
    """
    payload: Dict[str, Any] = {
        "reason": REASON_NAMES.get(reason.type, "end-stepping-range"),
        "line": reason.line if reason.line is not None else line,
        "depth": depth,
    }
    if reason.function is not None:
        payload["func"] = reason.function
    if reason.thread is not None:
        payload["thread"] = reason.thread
    if reason.thread_name:
        payload["thread-name"] = reason.thread_name
    if reason.type is PauseReasonType.DEADLOCK_SUSPECTED:
        payload["deadlock"] = reason.details or {}
    if reason.type is PauseReasonType.WATCH:
        payload["var"] = reason.variable
        payload["old"] = reason.old_value
        payload["new"] = reason.new_value
    if reason.type is PauseReasonType.RETURN:
        value = reason.return_value
        payload["retval"] = (
            value_to_dict(value) if isinstance(value, Value) else value
        )
    return payload


class ServerCore:
    """Dispatch and bookkeeping common to every MI debug server.

    Subclasses provide ``_cmd_<name>`` handlers (dashes in the MI command
    name map to underscores), an ``engine``
    (:class:`repro.core.engine.ControlPointEngine`) holding the
    control-point registries, and a recorder (``_start_recording``,
    ``_stop_recording``, ``_recorded_timeline``); this base owns the MI
    ``number`` assignment, the number-addressed enable/disable/delete
    commands and the ``-timeline-*`` family.
    """

    def __init__(self) -> None:
        self._number = 0
        self._finished = False
        #: How many commands ``handle`` has dispatched. The stdin reader
        #: numbers the lines it queues the same way, so "command k" names
        #: the same command on both threads.
        self._command = 0
        #: The newest command an interrupt was aimed at. A run loop stops
        #: with reason "interrupted" only while it runs that command.
        self._interrupt_target = 0

    def request_interrupt(self, target: Optional[int] = None) -> None:
        """Aim an interrupt at command ``target`` (default: the current one).

        The stdin reader aims an ``-exec-interrupt`` line at the last
        command it queued, which may not be dispatched yet; SIGINT aims at
        the command being dispatched. The target only moves forward, and
        an interrupt whose command already stopped is never honoured.
        Async-signal-safe (bare attribute stores): callable from a signal
        handler, another thread, or a test.
        """
        if target is None:
            target = self._command
        if target > self._interrupt_target:
            self._interrupt_target = target

    # ------------------------------------------------------------------
    # Command dispatch
    # ------------------------------------------------------------------

    def handle(self, line: str) -> List[str]:
        """Process one command line; return the record lines to emit.

        A command prefixed with a session id (``s1-exec-run``) gets every
        reply record prefixed with the same id (``s1^running`` ...); an
        id-less legacy command gets id-less replies. The two interleave
        freely on one pipe — this server is single-session, so the id is
        pure echo, but it means a multiplexing client can talk to old and
        new servers with one framing.
        """
        self._command += 1
        session, _ = protocol.split_session(line.strip())
        records = self._dispatch(line)
        if session is None:
            return records
        return [protocol.tag_record(record, session) for record in records]

    def _dispatch(self, line: str) -> List[str]:
        try:
            command = protocol.parse_command(line)
        except ProtocolError as error:
            return [protocol.format_error(str(error))]
        handler = getattr(
            self, "_cmd_" + command.name.lstrip("-").replace("-", "_"), None
        )
        if handler is None:
            return [protocol.format_error(f"undefined command {command.name}")]
        try:
            return handler(command)
        except (TrackerError, ProgramLoadError) as error:
            return [protocol.format_error(str(error))]
        except Exception as error:  # defensive: never kill the pipe
            return [protocol.format_error(f"{type(error).__name__}: {error}")]

    def _cmd_gdb_exit(self, command) -> List[str]:
        self._finished = True
        return [protocol.format_done()]

    def _cmd_exec_interrupt(self, command) -> List[str]:
        """An interrupt dispatched as a command: nothing runs, answer nothing.

        Over stdio this handler is never reached — the reader thread turns
        ``-exec-interrupt`` into :meth:`request_interrupt` and the
        ``*stopped`` record of the interrupted command answers it.
        Emitting nothing keeps a client's request/reply pairing intact.
        """
        return []

    # ------------------------------------------------------------------
    # Control-point numbering (enable/disable/delete addressing)
    # ------------------------------------------------------------------

    def _register(self, point: Any) -> int:
        """Assign the next MI number to a freshly appended control point."""
        self._number += 1
        point.number = self._number
        self.engine.mark_dirty()
        return self._number

    def _cmd_break_delete(self, command) -> List[str]:
        if not command.args or command.args[0] == "all":
            self.engine.clear()
            return [protocol.format_done()]
        number = int(command.args[0])
        removed = False
        for registry in (
            self.engine.line_breakpoints,
            self.engine.function_breakpoints,
            self.engine.address_breakpoints,
            self.engine.tracked_functions,
            self.engine.watchpoints,
        ):
            kept = [
                point
                for point in registry
                if getattr(point, "number", None) != number
            ]
            if len(kept) != len(registry):
                registry[:] = kept
                removed = True
        if not removed:
            return [protocol.format_error(f"no control point {number}")]
        self.engine.mark_dirty()
        return [protocol.format_done()]

    def _cmd_break_disable(self, command) -> List[str]:
        return self._set_enabled(command, False)

    def _cmd_break_enable(self, command) -> List[str]:
        return self._set_enabled(command, True)

    def _set_enabled(self, command, enabled: bool) -> List[str]:
        # One number may address several points (a ret-scan tracked
        # function and its exit points), so every match is updated.
        number = int(command.args[0])
        found = False
        for point in self.engine.all_points():
            if getattr(point, "number", None) == number:
                point.enabled = enabled
                found = True
        if not found:
            return [protocol.format_error(f"no control point {number}")]
        return [protocol.format_done()]

    def _cmd_tracker_stats(self, command) -> List[str]:
        return [protocol.format_done(self.engine.stats.to_dict())]

    # ------------------------------------------------------------------
    # Timeline recording: the server-side half of time travel
    # ------------------------------------------------------------------

    def _start_recording(
        self, keyframe_interval: int, max_snapshots: Optional[int]
    ) -> None:
        """Begin capturing a snapshot at every ``*stopped`` record."""
        raise NotImplementedError

    def _stop_recording(self) -> None:
        """Stop capturing; the timeline so far stays readable."""
        raise NotImplementedError

    def _recorded_timeline(self) -> Optional[Any]:
        """The current :class:`repro.core.timeline.Timeline`, if any."""
        raise NotImplementedError

    def _require_timeline(self) -> Any:
        timeline = self._recorded_timeline()
        if timeline is None:
            raise TrackerError("no timeline; send -timeline-start first")
        return timeline

    def _cmd_timeline_start(self, command) -> List[str]:
        interval = command.option_int("keyframe-interval")
        self._start_recording(
            interval if interval is not None else 16,
            command.option_int("max-snapshots"),
        )
        return [protocol.format_done({"recording": True})]

    def _cmd_timeline_stop(self, command) -> List[str]:
        self._stop_recording()
        return [protocol.format_done({"recording": False})]

    def _cmd_timeline_length(self, command) -> List[str]:
        timeline = self._require_timeline()
        return [
            protocol.format_done(
                {
                    "length": len(timeline),
                    "start": timeline.start_index,
                    "retained": timeline.retained,
                }
            )
        ]

    def _cmd_timeline_dump(self, command) -> List[str]:
        return [protocol.format_done(self._require_timeline().to_dict())]

    def _cmd_timeline_snapshot(self, command) -> List[str]:
        if not command.args:
            return [protocol.format_error("timeline-snapshot needs an index")]
        timeline = self._require_timeline()
        return [
            protocol.format_done(
                timeline.snapshot(int(command.args[0])).to_dict()
            )
        ]

    def _cmd_timeline_drop_last(self, command) -> List[str]:
        return [
            protocol.format_done(
                {"dropped": self._require_timeline().drop_last()}
            )
        ]

    def _cmd_timeline_query(self, command) -> List[str]:
        """Run a trace query (``x changed``, ``f() == v``, ``len(x) > n``)
        against the server-side timeline, so the recording never crosses
        the pipe.
        """
        from repro.core.tracestore import TimelineView

        if not command.args:
            return [protocol.format_error("timeline-query needs an expression")]
        timeline = self._require_timeline()
        view = getattr(self, "_query_view", None)
        if view is None or view.timeline is not timeline:
            # One cached view per timeline: its index extends
            # incrementally instead of rebuilding on every query.
            view = TimelineView(timeline)
            self._query_view = view
        text = " ".join(command.args)
        return [protocol.format_done(view.query(text).to_dict())]


def _read_lines(fd: int) -> Iterator[str]:
    """The lines arriving on ``fd`` until EOF, a final unterminated one too.

    Reads the raw fd rather than ``sys.stdin``: a daemon thread blocked
    inside a buffered reader would still hold its lock at interpreter
    shutdown.
    """
    buffer = b""
    while True:
        try:
            chunk = os.read(fd, 65536)
        except OSError:
            chunk = b""
        if not chunk:
            break
        *lines, buffer = (buffer + chunk).split(b"\n")
        for raw in lines:
            yield raw.decode("utf-8", "replace")
    if buffer:
        yield buffer.decode("utf-8", "replace")


class StdioServerLoop:
    """Drives a :class:`ServerCore` over stdin/stdout.

    One daemon thread owns stdin for the whole life of the server. It
    queues every command line, numbered in order, and turns an
    ``-exec-interrupt`` line (session-prefixed or not) into
    ``server.request_interrupt(n)`` aimed at ``n``, the last command it
    queued — so a busy run loop learns of the interrupt without reading
    stdin itself. The main thread takes commands off the queue, hands
    them to ``server.handle`` and prints the records. SIGINT aims at the
    command being dispatched.
    """

    def __init__(self, server: ServerCore, fd: int):
        self.server = server
        self.fd = fd
        self.commands: "queue.SimpleQueue[Optional[str]]" = (
            queue.SimpleQueue()
        )
        self.queued = 0

    def read_commands(self) -> None:
        """The reader thread: queue commands, deliver interrupts."""
        for line in _read_lines(self.fd):
            _, body = protocol.split_session(line.strip())
            if body == "-exec-interrupt":
                self.server.request_interrupt(self.queued)
            elif body:
                self.queued += 1
                self.commands.put(line)
        self.commands.put(None)

    def install_sigint(self) -> None:
        """Route SIGINT to ``server.request_interrupt`` (best effort)."""
        try:
            signal.signal(
                signal.SIGINT, lambda *_: self.server.request_interrupt()
            )
        except (ValueError, OSError, AttributeError):  # not the main thread
            pass

    def run(self, greeting: Dict[str, Any]) -> int:
        """Serve until EOF or ``-gdb-exit``; returns the exit status."""
        self.install_sigint()
        print(protocol.format_done(greeting), flush=True)
        threading.Thread(
            target=self.read_commands, name="mi-stdin-reader", daemon=True
        ).start()
        while True:
            line = self.commands.get()
            if line is None:
                break
            for record in self.server.handle(line):
                print(record, flush=True)
            if self.server._finished:
                break
        return 0


def serve_stdio(server: ServerCore, greeting: Dict[str, Any]) -> int:
    """Run ``server`` over stdin/stdout until EOF or ``-gdb-exit``."""
    return StdioServerLoop(server, sys.stdin.fileno()).run(greeting)
