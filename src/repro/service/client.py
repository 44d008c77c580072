"""The asyncio client: many trackers over one service connection.

:class:`ServiceClient` owns the socket, one reader task and one request
loop. The reader files each incoming record under its session-id prefix
into that id's queue; ``None`` keys the id-less control channel (opens,
stats). It never creates a queue: a session-tagged record with no queue
has no waiter and is dropped. The request loop sends one command line
and awaits the record that ends its reply
(:func:`repro.mi.protocol.ends_reply`) on the queue of the id the line
carries. A live tracker's queue lives as long as the tracker; any other
id gets a queue for that one request, so an unknown session's ``^error``
reaches its caller at once. :class:`AsyncTracker` is the per-session
facade over that loop — the tracker control interface of the paper
(``start`` / ``resume`` / ``break_before_line`` /
``get_global_variables`` ...) with every control call a coroutine, so a
grading script can drive dozens of inferiors concurrently from one
thread::

    client = await ServiceClient.connect(host, port)
    a = await client.open_tracker("submission_a.py")
    b = await client.open_tracker("submission_b.py")
    await asyncio.gather(a.start(), b.start())

Deadline semantics mirror the blocking client
(:class:`~repro.mi.client.MIClient`): a run-control call with a
``timeout`` first *interrupts* the inferior when the deadline passes (the
service answers with ``*stopped,reason="interrupted"``, so the call still
returns a pause) and raises
:class:`~repro.core.errors.ControlTimeout` only when the interrupt itself
goes unanswered for the grace period.

**Reconnection.** A dropped TCP connection no longer kills the trackers
riding on it: the client reconnects with bounded backoff (``reconnect``
policy), re-authenticates, and re-attaches every open session via
``-session-attach`` — the service has been holding the sessions detached
(for its ``detach_grace``) and flushes any records produced in the gap,
including the answer of a command that was in flight when the connection
died. A call that was awaiting a reply simply keeps awaiting; the caller
never notices beyond the delay. Only when every reconnect attempt fails
(or the service refuses the attach) do pending calls fail with the usual
typed :class:`~repro.core.errors.ServerCrashError`.

Service-level rejections arrive as typed errors —
:class:`~repro.service.manager.ServiceDraining` (with ``retry_after``),
:class:`~repro.service.manager.SessionOverloaded`,
:class:`~repro.service.manager.ProgramQuarantined`,
:class:`~repro.service.manager.ServiceBusy`,
:class:`~repro.service.manager.ServiceAuthError` — so callers can
distinguish "back off and retry" from "give up".
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, List, Optional, Tuple

from repro.core.errors import (
    ControlTimeout,
    ProtocolError,
    ServerCrashError,
    TrackerError,
)
from repro.core.state import Frame, Variable, frame_from_dict, variable_from_dict
from repro.core.supervision import BackoffPolicy
from repro.mi import protocol
from repro.mi.transport import _ASYNC_LINE_LIMIT, SPAWN_TIMEOUT
from repro.service.manager import (
    SESSION_RESURRECTED,
    ProgramQuarantined,
    ServiceAuthError,
    ServiceBusy,
    ServiceDraining,
    SessionOverloaded,
)
from repro.subproc.limits import ResourceLimits

#: Grace period after an interrupt before ``ControlTimeout`` (seconds).
INTERRUPT_GRACE = 5.0

#: Default reconnect schedule after a TCP drop (bounded backoff).
DEFAULT_RECONNECT = BackoffPolicy(
    max_restarts=5, initial_delay=0.05, max_delay=1.0
)

#: Sentinel queued to every session when the connection drops for good.
_CLOSED = object()


def _client_ssl_context(tls_ca: Optional[str]) -> Any:
    """Client-side TLS context, verifying against ``tls_ca`` when given.

    With a CA bundle (typically the server's own self-signed certificate)
    the chain is verified against exactly that file; hostname checking is
    kept off because self-signed deployment certificates rarely carry the
    right SAN — the chain pin is the trust anchor. Without ``tls_ca`` the
    system trust store applies in full, hostname check included.
    """
    import ssl

    if tls_ca:
        context = ssl.create_default_context(cafile=tls_ca)
        context.check_hostname = False
        return context
    return ssl.create_default_context()


def _typed_error(payload: Any) -> TrackerError:
    """Map a service ``^error`` message onto the typed error hierarchy."""
    message = str(payload)
    retry_after = protocol.parse_retry_after(message)
    if "draining" in message:
        return ServiceDraining(message, retry_after=retry_after)
    if "overloaded" in message:
        return SessionOverloaded(message, retry_after=retry_after)
    if "quarantined" in message:
        return ProgramQuarantined(message)
    if "at capacity" in message:
        return ServiceBusy(message)
    if (
        "authentication required" in message
        or "invalid service token" in message
    ):
        return ServiceAuthError(message)
    return TrackerError(message)


class ServiceClient:
    """One connection to a :class:`~repro.service.server.TrackerService`."""

    def __init__(self) -> None:
        self._host: Optional[str] = None
        self._port: Optional[int] = None
        self._token: Optional[str] = None
        self._ssl: Any = None
        self._reconnect_policy: Optional[BackoffPolicy] = DEFAULT_RECONNECT
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._reader_task: Optional["asyncio.Task[None]"] = None
        #: reply queues by session id; ``None`` is the control channel
        self._queues: Dict[Optional[str], "asyncio.Queue"] = {
            None: asyncio.Queue()
        }
        #: serializes id-less request/reply (opens, stats) — their replies
        #: are only attributable by arrival order
        self._control_lock = asyncio.Lock()
        #: set while a live, authenticated connection is up; cleared
        #: during reconnection so sends park instead of failing
        self._ready = asyncio.Event()
        #: open trackers by session id, for re-attach after reconnect
        self._trackers: Dict[str, "AsyncTracker"] = {}
        #: connections established over this client's lifetime (1 = the
        #: original; each successful reconnect adds one)
        self.connections = 0
        self._closed = False

    @classmethod
    async def connect(
        cls,
        host: str,
        port: int,
        *,
        token: Optional[str] = None,
        tls: bool = False,
        tls_ca: Optional[str] = None,
        reconnect: Optional[BackoffPolicy] = DEFAULT_RECONNECT,
    ) -> "ServiceClient":
        """Connect, verify the greeting, authenticate if needed.

        ``reconnect`` bounds the transparent-reconnect backoff after a
        TCP drop; ``None`` disables reconnection (a drop fails all
        pending calls immediately, the pre-reconnect behavior).

        ``tls`` wraps the connection in TLS; ``tls_ca`` pins the CA
        bundle (or self-signed server certificate) used for verification
        — without it the system store decides, which rejects the
        self-signed certificates ``repro serve --tls-cert`` typically
        runs with.
        """
        client = cls()
        client._host = host
        client._port = port
        client._token = token
        if tls or tls_ca:
            client._ssl = _client_ssl_context(tls_ca)
        client._reconnect_policy = reconnect
        await client._establish()
        client._ready.set()
        client._reader_task = asyncio.ensure_future(client._run())
        return client

    # ------------------------------------------------------------------
    # Connection establishment and supervision
    # ------------------------------------------------------------------

    async def _establish(self) -> None:
        """Open a socket, consume the greeting, authenticate.

        All reads are direct (the pump is not running), so greeting and
        auth replies cannot be misrouted into session queues.
        """
        reader, writer = await asyncio.open_connection(
            self._host, self._port, limit=_ASYNC_LINE_LIMIT, ssl=self._ssl
        )
        try:
            greeting = await self._read_direct(reader, SPAWN_TIMEOUT)
            if greeting.kind != "done" or "service" not in (
                greeting.payload or {}
            ):
                raise ProtocolError(
                    f"unexpected service greeting: {greeting.payload!r}"
                )
            if self._token is not None:
                writer.write(
                    (
                        protocol.format_command(
                            "-service-auth", [self._token]
                        )
                        + "\n"
                    ).encode("utf-8")
                )
                await writer.drain()
                reply = await self._read_direct(reader, SPAWN_TIMEOUT)
                if reply.kind == "error":
                    raise ServiceAuthError(str(reply.payload))
        except BaseException:
            writer.close()
            raise
        self._reader = reader
        self._writer = writer
        self.connections += 1

    @staticmethod
    async def _read_direct(
        reader: asyncio.StreamReader, timeout: float
    ) -> protocol.Record:
        """One parsed record straight off ``reader`` (no demux running)."""
        loop = asyncio.get_event_loop()
        deadline = loop.time() + timeout
        while True:
            remaining = deadline - loop.time()
            if remaining <= 0:
                raise asyncio.TimeoutError("service setup went unanswered")
            raw = await asyncio.wait_for(reader.readline(), remaining)
            if not raw:
                raise ServerCrashError(
                    "the tracker service closed the connection during "
                    "setup",
                    exit_code=None,
                    stderr_tail=[],
                )
            line = raw.decode("utf-8", "replace").strip()
            if not line:
                continue
            try:
                return protocol.parse_record(line)
            except ProtocolError:
                continue

    async def _run(self) -> None:
        """The supervisor: pump records, reconnect on drop, finalize."""
        while True:
            await self._read_loop()
            if self._closed:
                break
            # Connection lost: fail control waiters fast (their replies
            # are unattributable across a reconnect), keep session
            # waiters parked (the service holds their sessions and will
            # flush the backlog after re-attach).
            self._ready.clear()
            stale_control = self._queues[None]
            self._queues[None] = asyncio.Queue()
            stale_control.put_nowait(_CLOSED)
            if self._reconnect_policy is None:
                break
            if not await self._reconnect():
                break
        self._finalize()

    async def _read_loop(self) -> None:
        reader = self._reader
        try:
            while True:
                raw = await reader.readline()
                if not raw:
                    break
                line = raw.decode("utf-8", "replace").rstrip("\n")
                if not line.strip():
                    continue
                try:
                    record = protocol.parse_record(line)
                except ProtocolError:
                    continue  # tolerate noise on the shared pipe
                self._demux(record)
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass

    def _demux(self, record: protocol.Record) -> None:
        queue = self._queues.get(record.session)
        if queue is not None:  # else nobody waits for it: drop it
            queue.put_nowait(record)

    async def _reconnect(self) -> bool:
        """Bounded-backoff reconnect + re-attach; whether it succeeded."""
        delays = [0.0] + list(self._reconnect_policy.delays())
        for delay in delays:
            if delay:
                await asyncio.sleep(delay)
            if self._closed:
                return False
            try:
                await self._establish()
                await self._reattach()
            except ServiceAuthError:
                return False  # the token is wrong; retrying won't help
            except (
                OSError,
                TrackerError,
                asyncio.TimeoutError,
            ):
                if self._writer is not None:
                    self._writer.close()
                    self._writer = None
                continue
            self._ready.set()
            return True
        return False

    async def _reattach(self) -> None:
        """Re-adopt every open session on the fresh connection.

        Runs before the pump restarts, reading directly: attach replies
        are id-less, backlog records are session-tagged and demuxed into
        their queues (where the in-flight waiters from before the drop
        are still listening).
        """
        for sid in list(self._trackers):
            tracker = self._trackers.get(sid)
            if tracker is None or tracker._closed:
                continue
            self._writer.write(
                (
                    protocol.format_command("-session-attach", [sid])
                    + "\n"
                ).encode("utf-8")
            )
            await self._writer.drain()
            while True:
                record = await self._read_direct(
                    self._reader, SPAWN_TIMEOUT
                )
                if record.session is None and protocol.ends_reply(
                    record, exec_command=False
                ):
                    break
                self._demux(record)
            if record.kind == "error":
                message = str(record.payload)
                if "another connection" in message:
                    # The service has not yet noticed the old connection
                    # died; retry the whole attempt after a backoff step.
                    raise TrackerError(message)
                # The session is gone (reaped, drained, or closed):
                # fail its waiters, keep the rest of the reconnect.
                self._trackers.pop(sid, None)
                self._queues[sid].put_nowait(_CLOSED)
                continue
            payload = record.payload or {}
            tracker._note_attach(payload)

    def _finalize(self) -> None:
        self._closed = True
        for queue in self._queues.values():
            queue.put_nowait(_CLOSED)
        self._ready.set()  # unblock parked senders; they see _closed

    # ------------------------------------------------------------------
    # Demux plumbing
    # ------------------------------------------------------------------

    async def _next(
        self, queue: "asyncio.Queue", timeout: Optional[float]
    ) -> Optional[protocol.Record]:
        """Next record from ``queue``; ``None`` when ``timeout`` expires."""
        try:
            if timeout is None:
                record = await queue.get()
            else:
                record = await asyncio.wait_for(queue.get(), timeout)
        except asyncio.TimeoutError:
            return None
        if record is _CLOSED:
            queue.put_nowait(_CLOSED)  # keep later reads failing fast
            raise ServerCrashError(
                "the tracker service connection closed",
                exit_code=None,
                stderr_tail=[],
            )
        return record

    # ------------------------------------------------------------------
    # The control channel (id-less request/reply)
    # ------------------------------------------------------------------

    async def _send_line(self, line: str) -> None:
        if not self._ready.is_set() and not self._closed:
            await self._ready.wait()  # park while a reconnect is running
        if self._closed or self._writer is None:
            raise ServerCrashError(
                "the tracker service connection closed",
                exit_code=None,
                stderr_tail=[],
            )
        try:
            self._writer.write((line + "\n").encode("utf-8"))
            await self._writer.drain()
        except (ConnectionResetError, BrokenPipeError, OSError) as error:
            raise ServerCrashError(
                f"the tracker service connection dropped mid-send "
                f"({error})",
                exit_code=None,
                stderr_tail=[],
            ) from error

    async def _request(
        self,
        line: str,
        exec_command: bool = False,
        timeout: Optional[float] = SPAWN_TIMEOUT,
        grace: float = INTERRUPT_GRACE,
        tracker: Optional["AsyncTracker"] = None,
    ) -> protocol.Record:
        """Send one command line; the record that ends its reply.

        Reads the queue of the session id ``line`` carries. Earlier
        records go to ``tracker`` (console output, notifications) or are
        skipped. When an exec command's ``timeout`` expires the inferior
        is interrupted; ``ControlTimeout`` follows only if that goes
        unanswered for ``grace`` seconds.
        """
        session = protocol.split_session(line)[0]
        queue = self._queues.get(session)
        transient = queue is None
        if transient:
            queue = self._queues[session] = asyncio.Queue()
        try:
            await self._send_line(line)
            if session is None:
                # A send parked across a reconnect awaits the new
                # connection's control queue; the stale one fails fast.
                queue = self._queues[None]
            loop = asyncio.get_event_loop()
            deadline = None if timeout is None else loop.time() + timeout
            interrupted = False
            while True:
                wait = None
                if deadline is not None:
                    wait = max(deadline - loop.time(), 0.001)
                record = await self._next(queue, wait)
                if record is None:
                    if interrupted:
                        raise ControlTimeout(
                            f"the inferior did not pause within {timeout}s "
                            "and the interrupt went unanswered for the "
                            "grace period"
                        )
                    if not exec_command:
                        raise ControlTimeout(
                            f"{line} went unanswered for {timeout:.2f}s"
                        )
                    interrupted = True
                    deadline = loop.time() + grace
                    await self._send_line(
                        protocol.format_command(
                            "-exec-interrupt", session=session
                        )
                    )
                elif protocol.ends_reply(record, exec_command):
                    if record.kind == "error":
                        raise _typed_error(record.payload)
                    return record
                elif tracker is not None:
                    tracker._absorb(record)
        finally:
            if transient and self._queues.get(session) is queue:
                del self._queues[session]

    async def _control_request(
        self, line: str, timeout: float = SPAWN_TIMEOUT
    ) -> Any:
        """An id-less request; its payload.

        Serialized, because id-less replies are attributable only by
        arrival order.
        """
        async with self._control_lock:
            return (await self._request(line, timeout=timeout)).payload

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    async def open_tracker(
        self,
        program: str,
        args: Optional[List[str]] = None,
        *,
        limits: Optional[ResourceLimits] = None,
        timeout: float = SPAWN_TIMEOUT,
    ) -> "AsyncTracker":
        """Open a session and wrap it in an :class:`AsyncTracker`."""
        options: Dict[str, Any] = {}
        if limits is not None:
            if limits.address_space is not None:
                options["as"] = limits.address_space
            if limits.cpu_seconds is not None:
                options["cpu"] = limits.cpu_seconds
            if limits.file_size is not None:
                options["fsize"] = limits.file_size
        payload = await self._control_request(
            protocol.format_command(
                "-session-open", [program] + list(args or []), options
            ),
            timeout=timeout,
        )
        session_id = payload["session"]
        self._queues[session_id] = asyncio.Queue()
        tracker = AsyncTracker(self, session_id)
        tracker._pid = payload.get("pid")
        tracker._epoch = payload.get("epoch", 1)
        self._trackers[session_id] = tracker
        return tracker

    async def service_stats(self) -> Dict[str, Any]:
        return await self._control_request(
            protocol.format_command("-service-stats")
        )

    async def close(self) -> None:
        """Drop the connection (the service closes or detaches sessions)."""
        self._closed = True
        self._ready.set()
        if self._writer is not None:
            try:
                self._writer.close()
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except asyncio.CancelledError:
                pass
        self._finalize()

    async def __aenter__(self) -> "ServiceClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()


class AsyncTracker:
    """The paper's tracker control interface, as coroutines, per session.

    Obtained from :meth:`ServiceClient.open_tracker`; all methods must be
    awaited on the same event loop as the client.
    """

    def __init__(self, client: ServiceClient, session_id: str):
        self.client = client
        self.session_id = session_id
        #: everything the inferior printed, in arrival order
        self.console: List[str] = []
        #: async notifications (heap events etc.), in arrival order
        self.notifications: List[protocol.Record] = []
        self._exit_code: Optional[int] = None
        self._last_stop: Optional[Dict[str, Any]] = None
        self._pid: Optional[int] = None
        self._epoch: int = 1
        self._degraded: bool = False
        self._resurrections: int = 0
        self._closed = False

    # -- crash-only introspection ---------------------------------------

    @property
    def pid(self) -> Optional[int]:
        """The child server's pid (changes across resurrections)."""
        return self._pid

    @property
    def epoch(self) -> int:
        """The session epoch: 1 + the number of resurrections seen."""
        return self._epoch

    @property
    def degraded(self) -> bool:
        """The last resurrection lost the execution position."""
        return self._degraded

    @property
    def resurrections(self) -> int:
        """``=session-resurrected`` notifications observed so far."""
        return self._resurrections

    def _note_attach(self, payload: Dict[str, Any]) -> None:
        self._epoch = payload.get("epoch", self._epoch)
        self._degraded = payload.get("degraded", self._degraded)
        self._pid = payload.get("pid", self._pid)

    # -- record plumbing -------------------------------------------------

    def _absorb(self, record: protocol.Record) -> None:
        if record.kind == "stream":
            self.console.append(record.payload)
        elif record.kind == "notify":
            if record.notify_name == SESSION_RESURRECTED:
                payload = record.payload or {}
                self._resurrections += 1
                self._note_attach(payload)
            self.notifications.append(record)

    async def execute(
        self,
        name: str,
        args: Optional[List[str]] = None,
        options: Optional[Dict[str, Any]] = None,
        timeout: Optional[float] = SPAWN_TIMEOUT,
    ) -> Any:
        """One synchronous command round trip; the ``^done`` payload."""
        line = protocol.format_command(
            name, args, options, session=self.session_id
        )
        record = await self.client._request(
            line, timeout=timeout, tracker=self
        )
        return record.payload

    async def _run_control(
        self,
        name: str,
        timeout: Optional[float] = None,
        grace: float = INTERRUPT_GRACE,
    ) -> Dict[str, Any]:
        """An exec command: block (asynchronously) until ``*stopped``."""
        record = await self.client._request(
            protocol.format_command(name, session=self.session_id),
            exec_command=True,
            timeout=timeout,
            grace=grace,
            tracker=self,
        )
        payload = record.payload or {}
        self._last_stop = payload
        if payload.get("reason") == "exited":
            self._exit_code = payload.get("exitcode")
        return payload

    async def interrupt(self) -> None:
        """Fire-and-forget: pause the running inferior.

        A no-op when nothing runs: the server aims the interrupt at the
        command in flight and drops it once that command has stopped.
        """
        await self.client._send_line(
            protocol.format_command(
                "-exec-interrupt", session=self.session_id
            )
        )

    # -- run control -----------------------------------------------------

    async def start(
        self, timeout: Optional[float] = None
    ) -> Dict[str, Any]:
        return await self._run_control("-exec-run", timeout)

    async def resume(
        self, timeout: Optional[float] = None
    ) -> Dict[str, Any]:
        return await self._run_control("-exec-continue", timeout)

    async def step(self, timeout: Optional[float] = None) -> Dict[str, Any]:
        return await self._run_control("-exec-step", timeout)

    async def next(self, timeout: Optional[float] = None) -> Dict[str, Any]:
        return await self._run_control("-exec-next", timeout)

    async def finish(
        self, timeout: Optional[float] = None
    ) -> Dict[str, Any]:
        return await self._run_control("-exec-finish", timeout)

    # -- control points --------------------------------------------------

    async def break_before_line(
        self,
        line: int,
        filename: Optional[str] = None,
        maxdepth: Optional[int] = None,
    ) -> int:
        location = f"{filename}:{line}" if filename else str(line)
        return await self._break_insert(location, maxdepth)

    async def break_before_func(
        self, name: str, maxdepth: Optional[int] = None
    ) -> int:
        return await self._break_insert(name, maxdepth)

    async def _break_insert(
        self, location: str, maxdepth: Optional[int]
    ) -> int:
        options = {} if maxdepth is None else {"maxdepth": maxdepth}
        payload = await self.execute("-break-insert", [location], options)
        return payload["number"]

    async def watch(
        self, name: str, maxdepth: Optional[int] = None
    ) -> int:
        options = {} if maxdepth is None else {"maxdepth": maxdepth}
        payload = await self.execute("-break-watch", [name], options)
        return payload["number"]

    async def track_function(
        self, name: str, maxdepth: Optional[int] = None
    ) -> int:
        options = {} if maxdepth is None else {"maxdepth": maxdepth}
        payload = await self.execute("-track-function", [name], options)
        return payload["number"]

    async def delete_breakpoint(self, number: int) -> None:
        await self.execute("-break-delete", [str(number)])

    # -- inspection ------------------------------------------------------

    async def get_position(self) -> Tuple[str, Optional[int]]:
        payload = await self.execute("-inferior-position")
        return payload["file"], payload["line"]

    async def get_current_frame(self) -> Frame:
        return frame_from_dict(await self.execute("-stack-list-frames"))

    async def get_global_variables(self) -> Dict[str, Variable]:
        payload = await self.execute("-data-list-globals")
        return {
            name: variable_from_dict(data)
            for name, data in payload.items()
        }

    def get_output(self) -> str:
        """Everything the inferior printed so far (already received)."""
        return "".join(self.console)

    def get_exit_code(self) -> Optional[int]:
        """The inferior's exit code, once a stop reported it."""
        return self._exit_code

    @property
    def last_stop(self) -> Optional[Dict[str, Any]]:
        """The most recent ``*stopped`` payload."""
        return self._last_stop

    # -- teardown --------------------------------------------------------

    async def close(self) -> None:
        """End the session (idempotent); its child may be pool-reused."""
        if self._closed:
            return
        self._closed = True
        self.client._trackers.pop(self.session_id, None)
        try:
            await self.execute("-session-close")
        except (TrackerError, ServerCrashError, ControlTimeout):
            pass
        finally:
            self.client._queues.pop(self.session_id, None)

    async def __aenter__(self) -> "AsyncTracker":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()
