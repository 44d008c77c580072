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
  legacy clients), the async-interrupt flag, the control-point number
  registry shared by enable/disable/delete, and the ``-timeline-*``
  recording family over a recorder each server supplies;
- :class:`LineChannel` — exact, pollable line reads over a raw fd, which
  is what lets a busy run loop notice an ``-exec-interrupt`` arriving
  mid-run, including *sleeping* waits (``select`` with a timeout) so a
  watcher thread burns no CPU while nothing is pending;
- :class:`StdioServerLoop` / :func:`serve_stdio` — the loop that drives a
  server over stdin/stdout (greeting, pending-command queue, stdin
  interrupt poller, SIGINT handler), shared by both ``main`` entry
  points. Dispatch is loop-driven: the loop *sleeps* until a line is
  readable and hands it to the server, rather than spinning on a
  zero-timeout poll.

``ServerCore.handle`` is pure (command line in, record lines out), so
every server built on it is unit-testable without pipes.
"""

from __future__ import annotations

import os
import select
import signal
import sys
from typing import Any, Callable, Dict, List, Optional

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
        #: Set asynchronously (SIGINT handler) or via the stdin poller to
        #: make a busy run-control loop stop with reason "interrupted".
        self._interrupt_requested = False
        #: Injected by ``serve_stdio``: polls stdin for an
        #: ``-exec-interrupt`` that arrived while the server is busy.
        #: Accepts an optional ``timeout`` (seconds to *sleep* in select
        #: when nothing is pending, instead of busy-spinning) and an
        #: optional ``wake_fd`` (an extra fd whose readability cuts the
        #: sleep short, the self-pipe idiom). ``None`` in unit-test use
        #: (tests set the flag directly).
        self.interrupt_poll: Optional[Callable[..., bool]] = None

    def request_interrupt(self) -> None:
        """Ask the busy run-control loop to stop at the next opportunity.

        Async-signal-safe (a bare attribute store): callable from a signal
        handler, another thread, or a test.
        """
        self._interrupt_requested = True

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


class LineChannel:
    """Line-oriented reads over a raw fd, with a non-blocking poll.

    The stdlib's buffered ``sys.stdin`` cannot be polled reliably — data
    may be hidden in its Python-level buffer where ``select`` cannot see
    it. Owning the buffer makes ``poll_line`` exact, which is what lets
    the busy run-control loop notice an ``-exec-interrupt`` command that
    arrived mid-run.
    """

    def __init__(self, fd: int):
        self._fd = fd
        self._buffer = b""
        self._eof = False

    def poll_line(self) -> Optional[str]:
        """A complete line if one is available right now, else ``None``."""
        while b"\n" not in self._buffer and not self._eof:
            try:
                ready, _, _ = select.select([self._fd], [], [], 0)
            except (OSError, ValueError):  # unpollable stdin: poll disabled
                return None
            if not ready:
                return None
            self._fill()
        return self._take_line()

    def wait_readable(
        self, timeout: float, extra_fd: Optional[int] = None
    ) -> bool:
        """Sleep in ``select`` until the fd is readable (or timeout).

        This is what lets an interrupt watcher *wait* for input instead
        of spinning on :meth:`poll_line`: the select wakes the moment a
        command byte (or a byte on ``extra_fd``, the self-pipe wake-up)
        arrives, and costs nothing while the pipe is idle. Returns
        whether a complete line is already buffered or the fd became
        readable; ``False`` on a plain timeout.
        """
        if b"\n" in self._buffer or self._eof:
            return True
        fds = [self._fd] if extra_fd is None else [self._fd, extra_fd]
        try:
            ready, _, _ = select.select(fds, [], [], max(timeout, 0))
        except (OSError, ValueError):  # unpollable stdin: degrade to sleep
            return False
        return bool(ready)

    def read_line(self) -> Optional[str]:
        """Blocking read of the next line; ``None`` at EOF."""
        while True:
            line = self._take_line()
            if line is not None:
                return line
            if self._eof:
                return None
            self._fill()

    def _fill(self) -> None:
        chunk = os.read(self._fd, 4096)
        if not chunk:
            self._eof = True
        else:
            self._buffer += chunk

    def _take_line(self) -> Optional[str]:
        if b"\n" in self._buffer:
            raw, self._buffer = self._buffer.split(b"\n", 1)
            return raw.decode("utf-8", "replace")
        if self._eof and self._buffer:
            raw, self._buffer = self._buffer, b""
            return raw.decode("utf-8", "replace")
        return None


class StdioServerLoop:
    """Drives a :class:`ServerCore` over a line channel (stdin/stdout).

    Owns the pieces ``serve_stdio`` used to build inline: the greeting,
    the pending-command queue, the interrupt poller, and the SIGINT
    handler. Dispatch is loop-driven — the loop blocks in
    :meth:`LineChannel.read_line` until a command arrives, hands it to
    ``server.handle``, and emits the records. The interrupt poller is a
    bound method so run loops can *sleep* on stdin between interrupt
    checks (``poll_interrupt(timeout=..., wake_fd=...)``) instead of
    spinning on a zero-timeout select.
    """

    def __init__(self, server: ServerCore, channel: LineChannel):
        self.server = server
        self.channel = channel
        #: non-interrupt commands that arrived while a run loop was busy
        #: (rare: only a command racing a natural stop); served before
        #: reading the channel again.
        self.pending: List[str] = []
        server.interrupt_poll = self.poll_interrupt

    def poll_interrupt(
        self, timeout: float = 0.0, wake_fd: Optional[int] = None
    ) -> bool:
        """Check the channel for an ``-exec-interrupt``; optionally sleep.

        With ``timeout > 0`` the call first sleeps in ``select`` until
        the channel (or ``wake_fd``, a self-pipe the server pokes when
        the run ends) becomes readable, so a watcher thread costs no CPU
        while the inferior runs. Then every complete line available
        right now is consumed: interrupts set the return flag, anything
        else is queued as pending. Session-prefixed interrupts
        (``s1-exec-interrupt``) count too — the busy run is the only
        thing an interrupt can be aimed at on a single-session pipe.
        """
        if timeout > 0:
            self.channel.wait_readable(timeout, wake_fd)
        interrupted = False
        while True:
            line = self.channel.poll_line()
            if line is None:
                break
            _, body = protocol.split_session(line.strip())
            if body == "-exec-interrupt":
                interrupted = True
            elif line.strip():
                self.pending.append(line)
        return interrupted

    def install_sigint(self) -> None:
        """Route SIGINT to ``server.request_interrupt`` (best effort)."""
        try:
            signal.signal(
                signal.SIGINT, lambda *_: self.server.request_interrupt()
            )
        except (ValueError, OSError, AttributeError):  # not the main thread
            pass

    def next_line(self) -> Optional[str]:
        """The next command to dispatch; ``None`` at channel EOF."""
        if self.pending:
            return self.pending.pop(0)
        return self.channel.read_line()

    def run(self, greeting: Dict[str, Any]) -> int:
        """Serve until EOF or ``-gdb-exit``; returns the exit status."""
        self.install_sigint()
        print(protocol.format_done(greeting), flush=True)
        while True:
            line = self.next_line()
            if line is None:
                break
            if not line.strip():
                continue
            for record in self.server.handle(line):
                print(record, flush=True)
            if self.server._finished:
                break
        return 0


def serve_stdio(server: ServerCore, greeting: Dict[str, Any]) -> int:
    """Run ``server`` over stdin/stdout until EOF or ``-gdb-exit``."""
    loop = StdioServerLoop(server, LineChannel(sys.stdin.fileno()))
    return loop.run(greeting)
