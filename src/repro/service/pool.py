"""The warm inferior pool: pre-forked idle child servers.

Cold session open costs a full child-interpreter boot — fork, Python
startup, importing the tracker stack — hundreds of milliseconds that
dominate short debugging sessions. The pool pays that cost *ahead of
demand*: it keeps ``size`` idle children (``python -m repro.subproc.server
--idle``) parked and hands one out per session open, so binding a session
is one ``-file-exec-and-symbols`` round trip into an already-running
interpreter. A background task refills the pool after every acquisition,
so sustained churn keeps finding warm children.

Reuse is deliberately conservative. A child goes back to the shelf only
when its session closed cleanly AND the inferior either never started or
ran to completion AND no resource limits were applied (rlimits only go
down — a limited child would leak one session's sandbox into the next).
Anything else — crash, mid-run abandon, taint — is discarded and replaced
by a fresh fork. Every parked child is health-checked (``-server-info``
round trip) before being handed out; a poisoned child is discarded and
the next one tried, falling back to a cold spawn when the shelf runs
empty.
"""

from __future__ import annotations

import asyncio
import sys
from typing import Any, Callable, Dict, List, Optional

from repro.core.errors import ProtocolError, ServerCrashError, TrackerError
from repro.mi import protocol
from repro.mi.transport import SPAWN_TIMEOUT, AsyncPipeTransport

#: Deadline on the health-check round trip for a parked child.
PING_TIMEOUT = 5.0

#: Command line of a warm (program-less) child server.
IDLE_ARGV = [sys.executable, "-m", "repro.subproc.server", "--idle"]


class ChildHandle:
    """One pooled child server and the request plumbing to drive it.

    Wraps an :class:`AsyncPipeTransport` with one reply reader,
    :meth:`read_reply`. The pool, the session binding and the resurrection
    replay use it through :meth:`request`; the session layer forwards the
    records of a live dialogue through it.
    """

    def __init__(self, transport: AsyncPipeTransport, warm: bool):
        self.transport = transport
        #: whether this child came off the shelf (vs a cold spawn)
        self.warm = warm
        #: sessions this child has served so far
        self.sessions_served = 0

    @property
    def pid(self) -> Optional[int]:
        return self.transport.pid

    def alive(self) -> bool:
        return self.transport.alive()

    async def request(
        self,
        name: str,
        args: Optional[List[str]] = None,
        options: Optional[Dict[str, Any]] = None,
        timeout: float = PING_TIMEOUT,
    ) -> Any:
        """One command round trip; the payload of the record ending it.

        That is the ``^done`` payload, or the ``*stopped`` one for an exec
        command. Raises ``TrackerError`` on ``^error``,
        ``ServerCrashError`` when the child dies, ``asyncio.TimeoutError``
        when it goes mute.
        """
        return await self.request_line(
            protocol.format_command(name, args, options), timeout=timeout
        )

    async def request_line(
        self, line: str, timeout: float = PING_TIMEOUT
    ) -> Any:
        """:meth:`request` for an already-formatted command line.

        The session-resurrection replay path uses this: recovery
        manifests store verbatim command bodies, which replay id-less
        against a fresh child. Output of the re-executed inferior is
        discarded (replay must not re-deliver output the client already
        saw).
        """
        await self.transport.send_line(line)
        record = await self.read_reply(line, timeout)
        if record.kind == "error":
            raise TrackerError(str(record.payload))
        return record.payload

    async def read_reply(
        self,
        line: str,
        timeout: Optional[float] = PING_TIMEOUT,
        forward: Optional[Callable[[str], None]] = None,
    ) -> protocol.Record:
        """Read the reply to ``line``, already sent; return its last record.

        ``forward`` receives every raw record line, the last included.
        Without it, stream and notify records (stale output from a
        previous life) and the rest of a run are skipped, and any other
        record in a synchronous reply is a ``ProtocolError``.
        """
        command = protocol.split_session(line)[1].split(None, 1)[0]
        exec_command = command in protocol.EXEC_COMMANDS
        loop = asyncio.get_event_loop()
        deadline = None if timeout is None else loop.time() + timeout
        while True:
            remaining = None
            if deadline is not None:
                remaining = deadline - loop.time()
                if remaining <= 0:
                    raise asyncio.TimeoutError(f"{line} went unanswered")
            raw = await self.transport.recv_line(timeout=remaining)
            if raw is None:
                continue
            record = protocol.parse_record(raw)
            if forward is not None:
                forward(raw.rstrip("\n"))
            if protocol.ends_reply(record, exec_command):
                return record
            if forward is None and not exec_command and record.kind not in (
                "stream",
                "notify",
            ):
                raise ProtocolError(
                    f"unexpected record {record.kind} for {line}"
                )

    async def close(self, graceful_exit: bool = True) -> None:
        await self.transport.close(graceful_exit=graceful_exit)


class WarmPool:
    """A shelf of idle child servers, refilled in the background.

    Args:
        size: target number of parked idle children (0 disables warming:
            every acquire is a cold spawn).
        spawn_argv: child command line, overridable for tests (e.g. a
            crashing stub to exercise the discard path).
        transport_spawner: factory awaited as ``spawner(argv)`` to build
            the child transport — the chaos harness injects fault-wrapped
            transports here (see ``repro.testing.faults``). Defaults to
            :meth:`AsyncPipeTransport.spawn`.
    """

    def __init__(
        self,
        size: int = 4,
        spawn_argv: Optional[List[str]] = None,
        transport_spawner: Optional[Callable[[List[str]], Any]] = None,
    ):
        self.size = size
        self._spawn_argv = list(spawn_argv or IDLE_ARGV)
        self._spawn_transport = transport_spawner or AsyncPipeTransport.spawn
        self._idle: List[ChildHandle] = []
        self._refill_task: Optional["asyncio.Task[None]"] = None
        self._closed = False
        #: observability counters, surfaced via ``-service-stats``
        self.stats: Dict[str, int] = {
            "spawned": 0,
            "warm_hits": 0,
            "cold_spawns": 0,
            "discarded": 0,
            "reused": 0,
        }

    # ------------------------------------------------------------------
    # Spawning and filling
    # ------------------------------------------------------------------

    async def _spawn_child(self, warm: bool) -> ChildHandle:
        transport = await self._spawn_transport(self._spawn_argv)
        try:
            line = await transport.recv_line(timeout=SPAWN_TIMEOUT)
            if line is None or protocol.parse_record(line).kind != "done":
                raise TrackerError(f"pool child refused to start: {line!r}")
        except BaseException:
            # Cancellation included: close() cancels a refill right here.
            await transport.close(graceful_exit=False)
            raise
        self.stats["spawned"] += 1
        return ChildHandle(transport, warm=warm)

    async def start(self) -> None:
        """Fill the shelf to ``size`` (spawns happen concurrently)."""
        need = self.size - len(self._idle)
        if need <= 0:
            return
        children = await asyncio.gather(
            *(self._spawn_child(warm=True) for _ in range(need)),
            return_exceptions=True,
        )
        for child in children:
            if isinstance(child, ChildHandle):
                self._idle.append(child)

    def _schedule_refill(self) -> None:
        if self._closed or len(self._idle) >= self.size:
            return
        if self._refill_task is not None and not self._refill_task.done():
            return
        self._refill_task = asyncio.ensure_future(self._refill())

    async def _refill(self) -> None:
        while not self._closed and len(self._idle) < self.size:
            try:
                child = await self._spawn_child(warm=True)
            except (TrackerError, ServerCrashError, OSError):
                return  # transient spawn trouble; next acquire retries
            if self._closed or len(self._idle) >= self.size:
                await child.close(graceful_exit=False)
                return
            self._idle.append(child)

    # ------------------------------------------------------------------
    # Acquire / release
    # ------------------------------------------------------------------

    async def _healthy(self, child: ChildHandle) -> bool:
        """A parked child is usable iff it answers ``-server-info``."""
        if not child.alive():
            return False
        try:
            info = await child.request("-server-info")
        except (TrackerError, ServerCrashError, ProtocolError,
                asyncio.TimeoutError):
            return False
        return not info.get("limits_applied", False)

    async def acquire(self) -> ChildHandle:
        """A live child, warm when possible; always schedules a refill."""
        if self._closed:
            raise TrackerError("the pool is closed")
        try:
            while self._idle:
                child = self._idle.pop(0)
                if await self._healthy(child):
                    self.stats["warm_hits"] += 1
                    if child.sessions_served:
                        self.stats["reused"] += 1
                    child.sessions_served += 1
                    return child
                self.stats["discarded"] += 1
                await child.close(graceful_exit=False)
            self.stats["cold_spawns"] += 1
            child = await self._spawn_child(warm=False)
            child.sessions_served += 1
            return child
        finally:
            self._schedule_refill()

    async def release(self, child: ChildHandle, reusable: bool) -> None:
        """Park a child back on the shelf, or retire it.

        ``reusable`` is the *caller's* verdict (clean close, untainted);
        the pool adds its own checks — liveness, shelf space — and a
        parked child is re-verified again at the next acquire.
        """
        if (
            reusable
            and not self._closed
            and child.alive()
            and len(self._idle) < self.size
        ):
            self._idle.append(child)
            return
        self.stats["discarded"] += 1
        await child.close(graceful_exit=True)

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------

    async def close(self) -> None:
        """Retire every parked child (idempotent)."""
        self._closed = True
        if self._refill_task is not None:
            self._refill_task.cancel()
            try:
                await self._refill_task
            except (asyncio.CancelledError, Exception):
                pass
        children, self._idle = self._idle, []
        await asyncio.gather(
            *(child.close(graceful_exit=False) for child in children),
            return_exceptions=True,
        )
