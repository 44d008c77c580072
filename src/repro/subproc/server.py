"""The out-of-process Python debug server.

Runs as a subprocess (``python -m repro.subproc.server program.py``),
reads MI commands on stdin, emits records on stdout — the exact
architecture of the mini-C debug server, but the inferior substrate is a
full :class:`repro.pytracker.PythonTracker` hosted in *this* (child)
interpreter. The tool process on the other side of the pipe
(:class:`repro.subproc.tracker.SubprocPythonTracker`) gets settrace-grade
Python tracking without sharing its address space, CPU or lifetime with
the inferior.

Run-control commands block in the hosted tracker (that is the tracker
contract); a watcher thread polls stdin meanwhile, so an
``-exec-interrupt`` (or SIGINT) arriving mid-run is delivered to the
tracker's async-interrupt path and the command still answers with a
``*stopped,reason="interrupted"`` record.

Resource limits (``--limit-as``, ``--limit-cpu``, ``--limit-fsize``) are
applied to this whole process before the server starts — the child *is*
the sandbox.

The server can also boot **idle** (``python -m repro.subproc.server
--idle``): no program loaded, interpreter warm. The tracker service's
warm pool (:mod:`repro.service.pool`) pre-forks idle children so opening
a session costs one ``-file-exec-and-symbols prog.py args...`` round
trip instead of an interpreter boot. Two commands exist for that pooled
life: ``-file-exec-and-symbols`` with arguments (re)loads a program into
a fresh tracker, and ``-apply-limits`` lowers this process's rlimits at
session bind time (rlimits only go down, so a limited child is spent —
the pool discards it instead of reusing it).
"""

from __future__ import annotations

import os
import sys
import threading
from typing import Any, Dict, List, Optional

from repro.core.errors import ProgramLoadError
from repro.core.pause import PauseReason, PauseReasonType
from repro.core.state import frame_to_dict, variable_to_dict
from repro.mi import protocol
from repro.mi.servercore import ServerCore, serve_stdio, stop_from_reason
from repro.pytracker.tracker import PythonTracker
from repro.subproc.limits import ResourceLimits

#: Seconds the interrupt watcher *sleeps* in select per check while a
#: control call blocks. The select wakes early the moment stdin (an
#: ``-exec-interrupt`` line) or the wake pipe (the control call ending)
#: becomes readable, so this bounds only the reaction to a bare SIGINT
#: flag set by a non-main-thread path — it can be generous.
_INTERRUPT_POLL_INTERVAL = 0.5

#: Fallback cadence for zero-arg pollers (injected by tests) that cannot
#: sleep on our behalf.
_LEGACY_POLL_INTERVAL = 0.05


class PythonDebugServer(ServerCore):
    """One debugging session over one Python inferior, MI on the outside.

    The hosted tracker is driven through its *public* API (``start``,
    ``resume``, ``break_before_line``, ``watch``, ``enable_recording``...),
    so in-process and out-of-process tracking cannot drift apart: the
    pause decisions, watch semantics and timeline snapshots are literally
    the same code.
    """

    def __init__(
        self,
        path: Optional[str] = None,
        args: Optional[List[str]] = None,
        tracker: Optional[PythonTracker] = None,
    ):
        super().__init__()
        self.path = path
        self.tracker = tracker if tracker is not None else PythonTracker(
            capture_output=True
        )
        if path is not None:
            self.tracker.load_program(path, list(args or []))
        self.engine = self.tracker.engine
        self._running = False
        #: Characters of inferior output already emitted as stream records
        #: (an *absolute* position: survives ring-buffer eviction).
        self._emitted_output = 0
        #: Whether ``-apply-limits`` lowered this process's rlimits —
        #: rlimits cannot be raised back, so the warm pool must not hand
        #: this child to another session.
        self.limits_applied = False

    def request_interrupt(self) -> None:
        super().request_interrupt()
        # Also poke the tracker directly: safe from a signal handler (the
        # flag store plus frame re-arming are async-tolerant), and faster
        # than waiting for the watcher thread's next poll.
        if self._running and self.tracker.get_exit_code() is None:
            self.tracker._request_interrupt()

    # ------------------------------------------------------------------
    # Lifecycle + run control
    # ------------------------------------------------------------------

    def _cmd_file_exec_and_symbols(self, command) -> List[str]:
        """Report the loaded program — or, with args, (re)load one.

        ``-file-exec-and-symbols prog.py [args...]`` is how a pooled idle
        child becomes a session: the warm interpreter loads the program
        and is ready to ``-exec-run``. On an already-loaded server the
        same command starts over with a *fresh* tracker (the old one is
        terminated first), so control points, stats, and MI numbering all
        reset — a failed load leaves the server idle rather than
        half-bound to the retired program.
        """
        if not command.args:
            if self.path is None:
                return [protocol.format_error("no program loaded")]
            return [
                protocol.format_done({"file": self.tracker._program_abspath})
            ]
        if self.path is not None:
            self.tracker.terminate()
            self.tracker = PythonTracker(capture_output=True)
            self.engine = self.tracker.engine
            self.path = None
            self._running = False
            self._emitted_output = 0
            self._number = 0
            self._interrupt_requested = False
        self.tracker.load_program(command.args[0], list(command.args[1:]))
        self.path = command.args[0]
        return [protocol.format_done({"file": self.tracker._program_abspath})]

    def _cmd_exec_run(self, command) -> List[str]:
        if self.path is None:
            return [protocol.format_error("no program loaded")]
        if self._running:
            return [protocol.format_error("the inferior is already running")]
        self._running = True
        return self._exec(self.tracker.start)

    def _cmd_exec_continue(self, command) -> List[str]:
        return self._guarded_exec(self.tracker.resume)

    def _cmd_exec_step(self, command) -> List[str]:
        return self._guarded_exec(self.tracker.step)

    def _cmd_exec_next(self, command) -> List[str]:
        return self._guarded_exec(self.tracker.next)

    def _cmd_exec_finish(self, command) -> List[str]:
        return self._guarded_exec(self.tracker.finish)

    def _cmd_exec_interrupt(self, command) -> List[str]:
        """A stale interrupt: the inferior stopped before it arrived.

        The live case never reaches command dispatch — while a control
        call is busy, ``-exec-interrupt`` is consumed by the stdin poller
        (or delivered as SIGINT) and answered by the ``*stopped`` record
        of the interrupted exec command. Emitting nothing keeps the stale
        case from desynchronizing the client's request/reply pairing.
        """
        return []

    def _cmd_gdb_exit(self, command) -> List[str]:
        self.tracker.terminate()
        return super()._cmd_gdb_exit(command)

    def _cmd_apply_limits(self, command) -> List[str]:
        """Lower this process's rlimits at session-bind time.

        Pooled children are forked *before* their session exists, so the
        session's :class:`ResourceLimits` cannot ride the command line;
        this command applies them in-process instead. One-way: the child
        is marked spent (``limits_applied``) and will not be reused.
        """
        limits = ResourceLimits(
            address_space=command.option_int("as"),
            cpu_seconds=command.option_int("cpu"),
            file_size=command.option_int("fsize"),
        )
        limited = limits != ResourceLimits()
        if limited:
            limits.apply()
            self.limits_applied = True
        return [protocol.format_done({"limits_applied": self.limits_applied})]

    def _cmd_server_info(self, command) -> List[str]:
        """Liveness + reuse probe: pid, load state, taint flags."""
        return [
            protocol.format_done(
                {
                    "pid": os.getpid(),
                    "loaded": self.path,
                    "started": self._running,
                    "exitcode": self.tracker.get_exit_code(),
                    "limits_applied": self.limits_applied,
                }
            )
        ]

    def _guarded_exec(self, control) -> List[str]:
        if not self._running:
            return [protocol.format_error("the inferior has not been started")]
        if self.tracker.get_exit_code() is not None:
            return [protocol.format_error("the inferior has exited")]
        return self._exec(control)

    def _exec(self, control) -> List[str]:
        """Run one blocking control call under the interrupt watcher.

        The watcher gets a wake pipe (self-pipe idiom): when the control
        call returns, one byte written to it snaps the watcher out of its
        stdin select immediately, so the reply is never delayed by the
        watcher's poll interval.
        """
        stop = threading.Event()
        wake_read, wake_write = os.pipe()
        watcher = threading.Thread(
            target=self._watch_for_interrupt,
            args=(stop, wake_read),
            name="subproc-interrupt-watch",
            daemon=True,
        )
        watcher.start()
        try:
            control()
        finally:
            stop.set()
            try:
                os.write(wake_write, b"x")
            except OSError:  # pragma: no cover - wake pipe gone
                pass
            watcher.join()
            os.close(wake_read)
            os.close(wake_write)
        records = [protocol.format_running()]
        records.extend(self._drain_output())
        records.append(protocol.format_stopped(self._stop_payload()))
        return records

    def _watch_for_interrupt(
        self, stop: threading.Event, wake_fd: int
    ) -> None:
        """Deliver a mid-run ``-exec-interrupt``/SIGINT to the tracker.

        With the stdio loop's poller installed, each check *sleeps* in
        ``select`` on stdin plus the wake pipe — zero CPU while the
        inferior runs, instant wake-up when an interrupt line arrives or
        the run ends. A zero-arg poller (tests inject those) degrades to
        the old fixed-cadence poll.
        """
        poll = self.interrupt_poll
        sleeping = poll is not None
        while not stop.is_set():
            pending = self._interrupt_requested
            if poll is not None:
                if sleeping:
                    try:
                        pending = (
                            poll(
                                timeout=_INTERRUPT_POLL_INTERVAL,
                                wake_fd=wake_fd,
                            )
                            or pending
                        )
                    except TypeError:  # zero-arg poller: cannot sleep for us
                        sleeping = False
                if not sleeping:
                    pending = poll() or pending
            if pending:
                self._interrupt_requested = False
                self.tracker._request_interrupt()
            if not sleeping:
                stop.wait(_LEGACY_POLL_INTERVAL)

    # ------------------------------------------------------------------
    # Stop payloads and output streaming
    # ------------------------------------------------------------------

    def _drain_output(self) -> List[str]:
        """New inferior output since the last drain, as stream records."""
        buffer = self.tracker._output
        text = buffer.getvalue()
        dropped = buffer.dropped
        start = max(self._emitted_output - dropped, 0)
        self._emitted_output = dropped + len(text)
        delta = text[start:]
        return [protocol.format_stream(delta)] if delta else []

    def _stop_payload(self) -> Dict[str, Any]:
        tracker = self.tracker
        exit_code = tracker.get_exit_code()
        if exit_code is not None:
            payload: Dict[str, Any] = {
                "reason": "exited",
                "exitcode": exit_code,
            }
            error = tracker.get_inferior_exception()
            if error is not None:
                payload["error"] = f"{type(error).__name__}: {error}"
            return payload
        reason = tracker.pause_reason or PauseReason(type=PauseReasonType.STEP)
        return stop_from_reason(
            reason, tracker.next_lineno, tracker._current_depth()
        )

    # ------------------------------------------------------------------
    # Control points (over the tracker's public API)
    # ------------------------------------------------------------------

    def _cmd_break_insert(self, command) -> List[str]:
        if not command.args:
            return [protocol.format_error("break-insert needs a location")]
        location = command.args[0]
        maxdepth = command.option_int("maxdepth")
        thread = command.option_int("thread")
        if location.startswith("*"):
            return [
                protocol.format_error(
                    "address breakpoints are not supported for Python "
                    "inferiors"
                )
            ]
        if ":" in location:
            filename, _, line = location.rpartition(":")
            point: Any = self.tracker.break_before_line(
                int(line), filename=filename or None, maxdepth=maxdepth,
                thread=thread,
            )
        elif location.isdigit():
            point = self.tracker.break_before_line(
                int(location), maxdepth=maxdepth, thread=thread
            )
        else:
            point = self.tracker.break_before_func(
                location, maxdepth=maxdepth, thread=thread
            )
        return [protocol.format_done({"number": self._register(point)})]

    def _cmd_break_watch(self, command) -> List[str]:
        if not command.args:
            return [protocol.format_error("break-watch needs a variable id")]
        point = self.tracker.watch(
            command.args[0], maxdepth=command.option_int("maxdepth")
        )
        return [protocol.format_done({"number": self._register(point)})]

    def _cmd_track_function(self, command) -> List[str]:
        if not command.args:
            return [protocol.format_error("track-function needs a name")]
        point = self.tracker.track_function(
            command.args[0], maxdepth=command.option_int("maxdepth")
        )
        return [protocol.format_done({"number": self._register(point)})]

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    def _cmd_stack_list_frames(self, command) -> List[str]:
        return [
            protocol.format_done(frame_to_dict(self.tracker.get_current_frame()))
        ]

    def _cmd_data_list_globals(self, command) -> List[str]:
        payload = {
            name: variable_to_dict(variable)
            for name, variable in self.tracker.get_global_variables().items()
        }
        return [protocol.format_done(payload)]

    def _cmd_inferior_position(self, command) -> List[str]:
        filename, line = self.tracker.get_position()
        return [protocol.format_done({"file": filename, "line": line})]

    def _cmd_thread_info(self, command) -> List[str]:
        from repro.core.threads import thread_to_dict

        return [
            protocol.format_done({
                "threads": [
                    thread_to_dict(info) for info in self.tracker.get_threads()
                ],
            })
        ]

    def _cmd_data_evaluate_expression(self, command) -> List[str]:
        name = command.args[0]
        frame_name = command.options.get("frame")
        rendered = self.tracker._render_watched(
            self.tracker._paused_py_frame, frame_name, name
        )
        if rendered is None:
            return [protocol.format_error(f"no variable {name!r} in scope")]
        return [protocol.format_done({"value": rendered})]

    def _cmd_list_functions(self, command) -> List[str]:
        return [protocol.format_done(_function_names(self.tracker._code))]

    # ------------------------------------------------------------------
    # Timeline recording: the tracker's own recorder, server-side
    # ------------------------------------------------------------------

    def _start_recording(
        self, keyframe_interval: int, max_snapshots: Optional[int]
    ) -> None:
        self.tracker.enable_recording(
            keyframe_interval=keyframe_interval, max_snapshots=max_snapshots
        )

    def _stop_recording(self) -> None:
        self.tracker.disable_recording()

    def _recorded_timeline(self):
        return self.tracker.timeline


def _function_names(code, _names: Optional[List[str]] = None) -> List[str]:
    """Function names defined in a compiled module, nested ones included."""
    if _names is None:
        _names = []
    for constant in code.co_consts:
        if hasattr(constant, "co_name") and hasattr(constant, "co_consts"):
            if not constant.co_name.startswith("<"):
                _names.append(constant.co_name)
            _function_names(constant, _names)
    return _names


def main(argv: Optional[List[str]] = None) -> int:
    """Entry: ``python -m repro.subproc.server [--limit-*] prog.py [args]``.

    With ``--idle`` (and no program), boots a warm program-less server
    for the tracker service's pool; the program arrives later via
    ``-file-exec-and-symbols``.
    """
    argv = argv if argv is not None else sys.argv[1:]
    try:
        limits, rest = ResourceLimits.consume_argv(argv)
    except ValueError as error:
        print(protocol.format_error(str(error)), flush=True)
        return 2
    idle = "--idle" in rest
    rest = [token for token in rest if token != "--idle"]
    if not rest and not idle:
        print(
            protocol.format_error(
                "usage: server [--idle] [--limit-as N] [--limit-cpu N] "
                "[--limit-fsize N] [<program.py> [args...]]"
            ),
            flush=True,
        )
        return 2
    limits.apply()
    try:
        server = PythonDebugServer(rest[0] if rest else None, rest[1:])
    except (ProgramLoadError, OSError) as error:
        print(protocol.format_error(str(error)), flush=True)
        return 1
    greeting = {"loaded": rest[0]} if rest else {"idle": True}
    return serve_stdio(server, greeting)


if __name__ == "__main__":
    sys.exit(main())
