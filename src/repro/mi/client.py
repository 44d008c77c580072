"""A pygdbmi-style client for the debug server, with supervision.

Spawns ``python -m repro.mi.server <program>`` as a subprocess and talks MI
records over its stdin/stdout pipe — the same process architecture as the
paper's GDB tracker (Fig. 4): tool process on one side, debugger process
(with the inferior inside it) on the other, serialized state crossing the
pipe.

Robustness additions over the seed client:

- reads are pumped by a background thread into a queue, so every receive
  can carry a deadline — the client can *never* block forever on a silent
  or wedged server;
- liveness is checked on every send and detected promptly on pipe EOF; a
  dead server is reaped and reported as
  :class:`repro.core.errors.ServerCrashError` carrying the exit code and
  the last ~20 stderr lines;
- a control call whose deadline expires interrupts the inferior
  (``-exec-interrupt`` down the pipe, which the server's stdin reader
  takes even while a command runs) and keeps waiting one grace period for
  the ``*stopped`` record; only if that also fails does it raise
  :class:`repro.core.errors.ControlTimeout`;
- :meth:`MIClient.restart` respawns the server subprocess in place, so the
  supervision layer (see :mod:`repro.core.supervision`) can recover from
  crashes without rebuilding the client;
- :meth:`close`/:meth:`stop` are idempotent, including after a crash.

The transport is a swappable object (:class:`PipeTransport`, which lives
in :mod:`repro.mi.transport` alongside its asyncio sibling
:class:`~repro.mi.transport.AsyncPipeTransport`) so the fault injection
harness (:mod:`repro.testing.faults`) can wrap it.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.core.errors import (
    ControlTimeout,
    ProtocolError,
    TrackerError,
)
from repro.core.supervision import Deadline
from repro.mi import protocol
from repro.mi.transport import (
    SPAWN_TIMEOUT,
    PipeTransport,
    default_transport_factory,
)


class MIClient:
    """Drives one debug-server subprocess.

    Args:
        program: path of the inferior source (.c or .s).
        args: command-line arguments for the inferior.
        transport_factory: builds the transport on (re)spawn; injection
            point for the fault harness. Defaults to a
            :class:`PipeTransport` over ``python -m repro.mi.server``.
    """

    def __init__(
        self,
        program: str,
        args: Optional[List[str]] = None,
        *,
        transport_factory: Optional[Callable[[], PipeTransport]] = None,
    ):
        self.program = program
        self._transport_factory = transport_factory or default_transport_factory(
            program, list(args or [])
        )
        #: all inferior output seen so far, in order
        self.console: List[str] = []
        #: async notifications (e.g. heap allocations), in order
        self.notifications: List[protocol.Record] = []
        #: server restarts performed over this client's lifetime
        self.restart_count = 0
        self._transport: Optional[PipeTransport] = None
        self._spawn()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def _spawn(self) -> None:
        self._transport = self._transport_factory()
        greeting = self._read_record(Deadline(SPAWN_TIMEOUT), interrupts=False)
        if greeting.kind == "error":
            self.close()
            raise TrackerError(
                f"debug server refused {self.program!r}: {greeting.payload}"
            )
        if greeting.kind != "done":
            self.close()
            raise ProtocolError(f"unexpected greeting record: {greeting}")

    def restart(self) -> None:
        """Kill whatever is left of the server and spawn a fresh one.

        The new server knows nothing: the caller (the supervision layer in
        :class:`repro.gdbtracker.tracker.GDBTracker`) re-installs the
        control-point registry from the client-side engine index and
        re-runs the inferior.
        """
        if self._transport is not None:
            self._transport.close(graceful_exit=False)
        self._spawn()
        self.restart_count += 1

    def alive(self) -> bool:
        """Whether the server subprocess is currently running."""
        return self._transport is not None and self._transport.alive()

    def transport_lines_dropped(self) -> int:
        """Lines evicted by the transport's bounded stdout/stderr rings.

        Zero for transports without ring bounds (the scripted fault
        transports); surfaced as ``TrackerStats.transport_lines_dropped``.
        """
        counter = getattr(self._transport, "lines_dropped", None)
        return counter() if callable(counter) else 0

    # ------------------------------------------------------------------
    # Record plumbing
    # ------------------------------------------------------------------

    def _read_record(
        self, deadline: Optional[Deadline], interrupts: bool
    ) -> protocol.Record:
        """Read one record within ``deadline``.

        With ``interrupts``, the deadline's expiry first interrupts the
        inferior, and the grace period then bounds the wait for its stop.
        """
        while True:
            timeout = None
            if deadline is not None:
                if interrupts and not deadline.interrupt_requested:
                    timeout = deadline.remaining()
                    if timeout <= 0:
                        deadline.interrupt_requested = True
                        self._transport.interrupt()
                if not interrupts or deadline.interrupt_requested:
                    timeout = deadline.grace_remaining()
                    if timeout <= 0:
                        raise ControlTimeout(
                            f"the inferior did not pause within {deadline.timeout}s "
                            "and the interrupt went unanswered for the grace period"
                            if interrupts
                            else "the debug server did not answer within "
                            f"{deadline.timeout + deadline.grace:.2f}s"
                        )
            line = self._transport.recv_line(timeout=timeout)
            if line is not None:
                return protocol.parse_record(line)

    # ------------------------------------------------------------------
    # Command API
    # ------------------------------------------------------------------

    def execute(
        self,
        name: str,
        args: Optional[List[str]] = None,
        options: Optional[Dict[str, Any]] = None,
        deadline: Optional[Deadline] = None,
    ) -> Any:
        """Run a synchronous command; return the ``^done`` payload.

        Raises:
            TrackerError: on a ``^error`` reply.
            ServerCrashError: the server died mid-command (recoverable by
                the supervision layer).
            ControlTimeout: the deadline expired with no reply.
        """
        return self._reply(name, args, options, deadline, exec_command=False)

    def run_control(
        self,
        name: str,
        args: Optional[List[str]] = None,
        options: Optional[Dict[str, Any]] = None,
        deadline: Optional[Deadline] = None,
    ) -> Dict[str, Any]:
        """Run an exec command; block until ``*stopped``; return its payload.

        This blocking read is exactly the synchronous contract of the
        tracker control interface: the call returns only when the inferior
        is paused or terminated. With a ``deadline``, expiry first
        *interrupts* the inferior (the server answers with a
        ``*stopped,reason="interrupted"`` record, so the contract still
        holds); ``ControlTimeout`` is raised only when the interrupt also
        goes unanswered for the grace period.
        """
        return self._reply(name, args, options, deadline, exec_command=True)

    def _reply(
        self,
        name: str,
        args: Optional[List[str]],
        options: Optional[Dict[str, Any]],
        deadline: Optional[Deadline],
        exec_command: bool,
    ) -> Any:
        """Send one command; read its reply up to the record that ends it.

        An exec reply opens with ``^running``. The server buffers all of a
        run's records until it stops, so even the first read must be able
        to interrupt a busy inferior.
        """
        self._transport.send_line(protocol.format_command(name, args, options))
        running = False
        while True:
            record = self._read_record(deadline, interrupts=exec_command)
            if exec_command and not running and record.kind != "error":
                if record.kind != "running":
                    raise ProtocolError(f"expected ^running, got {record.kind}")
                running = True
            elif protocol.ends_reply(record, exec_command):
                if record.kind != "error":
                    return record.payload
                if running:
                    raise ProtocolError(f"unexpected ^error while running {name}")
                raise TrackerError(str(record.payload))
            elif record.kind == "stream":
                self.console.append(record.payload)
            elif record.kind == "notify":
                self.notifications.append(record)
            elif not (running and record.kind == "done"):
                # (a ^done mid-run is a stale interrupt the server
                # acknowledged after stopping on its own: tolerated)
                raise ProtocolError(f"unexpected record {record.kind} for {name}")

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Terminate the server subprocess (idempotent, crash-tolerant)."""
        if self._transport is not None:
            self._transport.close()

    #: Alias kept deliberately: tools written against other debugger
    #: client libraries call ``stop()``; both are safe after a crash.
    stop = close

    def __enter__(self) -> "MIClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
