"""The debug server: GDB's role in the reproduction.

Runs as a subprocess (``python -m repro.mi.server program.c``), reads MI
commands on stdin, emits records on stdout. Inside, it drives a mini-C or
RISC-V inferior through its event generator and implements all run control:
line/function/address breakpoints with the ``maxdepth`` extension, byte-
level watchpoints, function entry/exit tracking, and step/next/finish.

Function-exit tracking on RISC-V inferiors is the paper's ret-scan
(Section II-C1): ``-track-function`` disassembles the function, plants an
address point on each return instruction, and reports a pause there as
``function-exit`` (``a0`` as the return value), so the callee is still the
current frame — exactly the record the mini-C path emits from its native
return event.

The protocol-side plumbing (dispatch, interrupt flag, control-point
numbering, the stdio loop) lives in :mod:`repro.mi.servercore`, shared
with the out-of-process Python server (:mod:`repro.subproc.server`); this
module adds the event-generator run loop over the interpreter inferiors.

``DebugServer.handle`` is pure (command line in, record lines out), so the
whole server is unit-testable without pipes; ``main`` adds the stdio loop.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional

from repro.core.engine import AddressBreakpoint, ControlPointEngine
from repro.core.errors import ProgramLoadError, TrackerError
from repro.core.pause import PauseReasonType
from repro.core.state import frame_to_dict, variable_to_dict
from repro.core.timeline import (
    EVENT_CALL,
    EVENT_EXIT,
    EVENT_LINE,
    EVENT_RETURN,
    StateSnapshot,
    Timeline,
)
from repro.core.tracker import (
    FunctionBreakpoint,
    LineBreakpoint,
    TrackedFunction,
    Watchpoint,
)
from repro.minic.events import (
    AllocEvent,
    CallEvent,
    Event,
    ExitEvent,
    LineEvent,
    OutputEvent,
    ReturnEvent,
)
from repro.mi import protocol
from repro.mi.inferiors import InferiorAdapter, open_inferior
from repro.mi.servercore import (
    REASON_TYPES,
    ServerCore,
    reason_from_stop,
    serve_stdio,
)

#: How many inferior events run between two interrupt-poll callbacks.
#: The flag itself is checked on every event; the poll (a select() on
#: stdin) is the expensive part worth batching.
_INTERRUPT_POLL_EVERY = 128


@dataclass
class _ExitPoint(AddressBreakpoint):
    """A ret-scan address point: pausing here is ``function``'s exit."""

    function: str = ""


class DebugServer(ServerCore):
    """One debugging session over one inferior program.

    Control points are stored as the *core* dataclasses
    (:class:`repro.core.tracker.LineBreakpoint` etc., plus
    :class:`repro.core.engine.AddressBreakpoint`) inside a
    :class:`repro.core.engine.ControlPointEngine`, the same decision core
    the in-process trackers use; the server only adds an MI ``number``
    attribute to each point for enable/disable/delete addressing.
    """

    def __init__(self, path: str, args: Optional[List[str]] = None):
        super().__init__()
        self.path = path
        self.inferior: InferiorAdapter = open_inferior(path, args)
        self._events: Optional[Iterator[Event]] = None
        self.engine = ControlPointEngine()
        self._running = False
        self._exited = False
        self._exit_code: Optional[int] = None
        self._depth = 0
        self._line: Optional[int] = None
        self._last_line: Optional[int] = None
        self._watch_baseline_done = False
        self._events_since_poll = 0
        #: Server-side timeline recording (the ``-timeline-*`` family):
        #: snapshots are captured at every ``*stopped`` while recording is
        #: on, so the whole history crosses the pipe once, on demand.
        self._timeline: Optional[Timeline] = None
        self._recording = False
        self._stdout = ""
        self._event_kind = EVENT_LINE
        self._func: Optional[str] = None
        self._last_stop: Optional[Dict[str, Any]] = None

    # -- lifecycle -------------------------------------------------------

    def _cmd_file_exec_and_symbols(self, command) -> List[str]:
        return [protocol.format_done({"file": self.inferior.filename})]

    def _cmd_exec_run(self, command) -> List[str]:
        if self._running:
            return [protocol.format_error("the inferior is already running")]
        self._events = self.inferior.events()
        self._running = True
        return [protocol.format_running()] + self._advance("step")

    def _cmd_exec_continue(self, command) -> List[str]:
        return self._exec("continue")

    def _cmd_exec_step(self, command) -> List[str]:
        return self._exec("step")

    def _cmd_exec_next(self, command) -> List[str]:
        return self._exec("next")

    def _cmd_exec_finish(self, command) -> List[str]:
        return self._exec("finish")

    def _exec(self, mode: str) -> List[str]:
        if not self._running:
            return [protocol.format_error("the inferior has not been started")]
        if self._exited:
            return [protocol.format_error("the inferior has exited")]
        return [protocol.format_running()] + self._advance(mode)

    def _cmd_exec_interrupt(self, command) -> List[str]:
        """A stale interrupt: the inferior stopped before it arrived.

        The live case never reaches command dispatch — while the run
        loop is busy, ``-exec-interrupt`` is consumed by the stdin poller
        (or delivered as SIGINT) and answered by the ``*stopped`` record
        of the interrupted exec command. Emitting nothing here keeps the
        stale case from desynchronizing the client's request/reply
        pairing.
        """
        return []

    # -- control points --------------------------------------------------

    def _cmd_break_insert(self, command) -> List[str]:
        if not command.args:
            return [protocol.format_error("break-insert needs a location")]
        location = command.args[0]
        maxdepth = command.option_int("maxdepth")
        if location.startswith("*"):
            point: Any = AddressBreakpoint(
                address=int(location[1:], 0), maxdepth=maxdepth
            )
            self.engine.address_breakpoints.append(point)
        elif ":" in location:
            point = LineBreakpoint(
                line=int(location.rsplit(":", 1)[1]), maxdepth=maxdepth
            )
            self.engine.line_breakpoints.append(point)
        elif location.isdigit():
            point = LineBreakpoint(line=int(location), maxdepth=maxdepth)
            self.engine.line_breakpoints.append(point)
        else:
            point = FunctionBreakpoint(function=location, maxdepth=maxdepth)
            self.engine.function_breakpoints.append(point)
        return [protocol.format_done({"number": self._register(point)})]

    def _cmd_break_watch(self, command) -> List[str]:
        if not command.args:
            return [protocol.format_error("break-watch needs a variable id")]
        watch = Watchpoint(
            variable_id=command.args[0],
            maxdepth=command.option_int("maxdepth"),
        )
        if self._running:
            # Installed mid-run: the current value is the baseline; only a
            # later modification fires.
            function, name = watch.split()
            self.engine.seed_watch(
                watch, self.inferior.render_watch(function, name)
            )
        self.engine.watchpoints.append(watch)
        return [protocol.format_done({"number": self._register(watch)})]

    def _cmd_track_function(self, command) -> List[str]:
        if not command.args:
            return [protocol.format_error("track-function needs a name")]
        function = command.args[0]
        maxdepth = command.option_int("maxdepth")
        exits: List[_ExitPoint] = []
        if self.inferior.ret_scan:
            exits = [
                _ExitPoint(
                    address=site["address"], maxdepth=maxdepth, function=function
                )
                for site in self.inferior.disassemble(function)
                if site["is_return"]
            ]
            if not exits:
                return [
                    protocol.format_error(
                        f"no return instruction found in {function!r}; "
                        "cannot track its exit"
                    )
                ]
        tracked = TrackedFunction(function=function, maxdepth=maxdepth)
        self.engine.tracked_functions.append(tracked)
        number = self._register(tracked)
        # The exit points share the tracked function's number, so
        # enable/disable/delete address all of them at once.
        for point in exits:
            point.number = number
        self.engine.address_breakpoints.extend(exits)
        return [protocol.format_done({"number": number})]

    # -- inspection --------------------------------------------------------

    def _cmd_stack_list_frames(self, command) -> List[str]:
        self._require_paused()
        return [protocol.format_done(frame_to_dict(self.inferior.frame_chain()))]

    def _cmd_data_list_globals(self, command) -> List[str]:
        self._require_paused()
        payload = {
            name: variable_to_dict(variable)
            for name, variable in self.inferior.globals_map().items()
        }
        return [protocol.format_done(payload)]

    def _cmd_data_list_register_values(self, command) -> List[str]:
        registers = self.inferior.registers()
        if registers is None:
            return [protocol.format_error("this inferior has no registers")]
        return [protocol.format_done(registers)]

    def _cmd_data_read_memory(self, command) -> List[str]:
        address = int(command.args[0], 0)
        count = int(command.args[1], 0)
        raw = self.inferior.read_memory(address, count)
        return [protocol.format_done({"address": address, "bytes": raw.hex()})]

    def _cmd_data_disassemble(self, command) -> List[str]:
        return [protocol.format_done(self.inferior.disassemble(command.args[0]))]

    def _cmd_data_evaluate_expression(self, command) -> List[str]:
        self._require_paused()
        name = command.args[0]
        frame_name = command.options.get("frame")
        rendered = self.inferior.render_watch(frame_name, name)
        if rendered is None:
            return [protocol.format_error(f"no variable {name!r} in scope")]
        return [protocol.format_done({"value": rendered})]

    def _cmd_inferior_position(self, command) -> List[str]:
        return [
            protocol.format_done(
                {"file": self.inferior.filename, "line": self._line}
            )
        ]

    def _cmd_list_functions(self, command) -> List[str]:
        return [protocol.format_done(self.inferior.function_names())]

    def _cmd_heap_blocks(self, command) -> List[str]:
        payload = {
            f"{address:#x}": size
            for address, size in self.inferior.heap_blocks().items()
        }
        return [protocol.format_done(payload)]

    def _require_paused(self) -> None:
        if not self._running:
            raise TrackerError("the inferior has not been started")
        if self._exited:
            raise TrackerError("the inferior has exited")

    # ------------------------------------------------------------------
    # Run control: the server-side analog of the settrace handler
    # ------------------------------------------------------------------

    def _advance(self, mode: str) -> List[str]:
        """Consume events until a pause decision; return the record lines."""
        if self._events is None:
            return [protocol.format_error("the inferior has not been started")]
        if self._exited:
            return [protocol.format_error("the inferior has exited")]
        records: List[str] = []
        engine = self.engine
        engine.arm("resume" if mode == "continue" else mode, self._depth)
        engine.refresh()
        while True:
            if self._interrupt_pending():
                self._interrupt_requested = False
                return self._stop(
                    records,
                    {
                        "reason": "interrupted",
                        "line": self._line,
                        "depth": self._depth,
                    },
                )
            try:
                event = next(self._events)
            except StopIteration:
                stopped = self._stop_exited(records)
                return stopped
            if isinstance(event, OutputEvent):
                self._stdout += event.text
                records.append(protocol.format_stream(event.text))
                continue
            if isinstance(event, AllocEvent):
                records.append(
                    protocol.format_notify(
                        "alloc",
                        {
                            "kind": event.kind,
                            "address": event.address,
                            "size": event.size,
                        },
                    )
                )
                continue
            if isinstance(event, ExitEvent):
                self._exit_code = event.code
                return self._stop_exited(records, event)
            if isinstance(event, CallEvent):
                self._depth = event.depth
                self._event_kind = EVENT_CALL
                self._func = event.function
                reason = self._check_call(event)
                if reason is not None:
                    return self._stop(records, reason)
                continue
            if isinstance(event, ReturnEvent):
                self._event_kind = EVENT_RETURN
                self._func = event.function
                reason = self._check_return(event)
                self._depth = max(event.depth - 1, 0)
                if reason is not None:
                    return self._stop(records, reason)
                continue
            if isinstance(event, LineEvent):
                self._depth = event.depth
                self._event_kind = EVENT_LINE
                self._func = event.function
                self._last_line = self._line
                self._line = event.line
                reason = self._check_line(event)
                if reason is not None:
                    return self._stop(records, reason)
                continue
            # WriteEvent and any future event kinds: no run-control effect.

    def _interrupt_pending(self) -> bool:
        """Whether an interrupt arrived (flag, or stdin every N events)."""
        if self._interrupt_requested:
            return True
        self._events_since_poll += 1
        if (
            self.interrupt_poll is not None
            and self._events_since_poll >= _INTERRUPT_POLL_EVERY
        ):
            self._events_since_poll = 0
            return self.interrupt_poll()
        return False

    def _stop(
        self, records: List[str], reason: Dict[str, Any]
    ) -> List[str]:
        self.engine.record_pause(
            REASON_TYPES.get(reason.get("reason"), reason.get("reason"))
        )
        self._last_stop = reason
        self._record_snapshot(reason)
        records.append(protocol.format_stopped(reason))
        return records

    def _stop_exited(
        self, records: List[str], event: Optional[ExitEvent] = None
    ) -> List[str]:
        self._exited = True
        self.engine.note_event("exit")
        payload: Dict[str, Any] = {
            "reason": "exited",
            "exitcode": self._exit_code if self._exit_code is not None else 0,
        }
        error = self.inferior.exit_error()
        if event is not None and event.error:
            error = event.error
        if error:
            payload["error"] = error
        return self._stop(records, payload)

    def _check_call(self, event: CallEvent) -> Optional[Dict[str, Any]]:
        engine = self.engine
        engine.note_event("call")
        if not engine.may_match_function(event.function):
            return None
        matched = engine.match_function_breakpoint(event.function, event.depth)
        if matched is not None:
            return {
                "reason": "breakpoint-hit",
                "func": event.function,
                "line": event.line,
                "depth": event.depth,
                "bkptno": getattr(matched, "number", 0),
            }
        if engine.match_tracked(event.function, event.depth) is not None:
            return {
                "reason": "function-entry",
                "func": event.function,
                "line": event.line,
                "depth": event.depth,
            }
        return None

    def _check_return(self, event: ReturnEvent) -> Optional[Dict[str, Any]]:
        engine = self.engine
        engine.note_event("return")
        # A ret-scan substrate reports exits from its return instructions
        # instead: this event fires after the callee's frame is gone.
        if self.inferior.ret_scan or not engine.may_match_function(
            event.function
        ):
            return None
        if engine.match_tracked(event.function, event.depth) is not None:
            return {
                "reason": "function-exit",
                "func": event.function,
                "line": event.line,
                "depth": event.depth,
                "retval": event.value,
            }
        return None

    def _check_line(self, event: LineEvent) -> Optional[Dict[str, Any]]:
        engine = self.engine
        engine.note_event("line")
        if not self._watch_baseline_done:
            # C globals exist (initialized) before the first line runs, so
            # the first check only records baselines — a watch fires on
            # *modification*, not on the pre-existing initial value.
            self._watch_baseline_done = True
            engine.baseline_watches(self.inferior.render_watch)
        elif engine.has_watchpoints:
            hit = engine.evaluate_watches(
                event.depth, self.inferior.render_watch
            )
            if hit is not None:
                watch, old, new = hit
                return {
                    "reason": "watchpoint-trigger",
                    "var": watch.variable_id,
                    "old": old,
                    "new": new,
                    "line": event.line,
                    "func": event.function,
                    "depth": event.depth,
                    "wpnum": getattr(watch, "number", 0),
                }
        # The program counter is only fetched when something needs it:
        # an address breakpoint is installed or a stop payload is built.
        pc: Optional[int] = None
        if engine.may_match_line(event.line):
            matched = engine.match_line(None, event.line, event.depth)
            if matched is not None:
                pc = self.inferior.current_pc()
                return {
                    "reason": "breakpoint-hit",
                    "line": event.line,
                    "func": event.function,
                    "depth": event.depth,
                    "bkptno": getattr(matched, "number", 0),
                    "pc": pc,
                }
        if engine.has_address_breakpoints:
            pc = self.inferior.current_pc()
            matched = engine.match_address(pc, event.depth)
            if isinstance(matched, _ExitPoint):
                self._event_kind = EVENT_RETURN
                return {
                    "reason": "function-exit",
                    "func": matched.function,
                    "line": event.line,
                    "depth": event.depth,
                    "retval": self.inferior.return_value(),
                }
            if matched is not None:
                return {
                    "reason": "breakpoint-hit",
                    "line": event.line,
                    "func": event.function,
                    "depth": event.depth,
                    "bkptno": getattr(matched, "number", 0),
                    "pc": pc,
                }
        if engine.should_step_pause(event.depth):
            if pc is None:
                pc = self.inferior.current_pc()
            return {
                "reason": "end-stepping-range",
                "line": event.line,
                "func": event.function,
                "depth": event.depth,
                "pc": pc,
            }
        return None

    # ------------------------------------------------------------------
    # Timeline recording: the server-side half of time travel
    # ------------------------------------------------------------------

    def _start_recording(
        self, keyframe_interval: int, max_snapshots: Optional[int]
    ) -> None:
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                source = handle.read()
        except OSError:
            source = ""
        self._timeline = Timeline(
            keyframe_interval=keyframe_interval,
            max_snapshots=max_snapshots,
            program=self.path,
            source=source,
            backend="GDB",
        )
        self._recording = True
        if self._running and self._last_stop is not None and not self._exited:
            # Already paused mid-run: the current state opens the timeline.
            self._record_snapshot(self._last_stop)

    def _stop_recording(self) -> None:
        self._recording = False

    def _recorded_timeline(self) -> Optional[Timeline]:
        return self._timeline

    def _record_snapshot(self, reason: Dict[str, Any]) -> None:
        if self._timeline is None or not self._recording:
            return
        decoded = reason_from_stop(reason)
        if decoded.type is PauseReasonType.EXIT:
            self._timeline.append(
                StateSnapshot(
                    frame=None,
                    globals={},
                    filename=self.inferior.filename,
                    line=self._line,
                    depth=0,
                    stdout=self._stdout,
                    exit_code=reason.get("exitcode", 0),
                    reason=decoded,
                    event=EVENT_EXIT,
                )
            )
            return
        line = reason.get("line", self._line)
        frame = self.inferior.frame_chain()
        self._timeline.append(
            StateSnapshot(
                frame=frame,
                globals=self.inferior.globals_map(),
                filename=self.inferior.filename,
                line=line,
                depth=reason.get("depth", self._depth),
                stdout=self._stdout,
                exit_code=None,
                reason=decoded,
                event=self._event_kind,
                func_name=reason.get("func") or self._func or frame.name,
            )
        )


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point: ``python -m repro.mi.server program.c [args...]``.

    A ``.py`` program is delegated to the out-of-process Python server
    (:mod:`repro.subproc.server`), so one entry point serves every
    substrate.
    """
    argv = argv if argv is not None else sys.argv[1:]
    if not argv:
        print(protocol.format_error("usage: server <program> [args...]"))
        return 2
    if argv[0].endswith(".py"):
        from repro.subproc.server import main as python_main

        return python_main(argv)
    try:
        server = DebugServer(argv[0], argv[1:])
    except (ProgramLoadError, OSError) as error:
        print(protocol.format_error(str(error)), flush=True)
        return 1
    return serve_stdio(server, {"loaded": argv[0]})


if __name__ == "__main__":
    sys.exit(main())
