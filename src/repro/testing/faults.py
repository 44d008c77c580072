"""Deterministic fault injection for the tracker runtime.

The supervision layer (deadlines, crash recovery, graceful degradation —
see :mod:`repro.core.supervision`) only earns its keep under failure, and
real failures are rare and racy. This module makes them cheap and exactly
reproducible:

- :class:`FaultPlan` is a deterministic schedule — *which* pipe operation
  gets *which* fault: a server crash, a slowed response, a garbled MI
  line.
- :class:`FaultyTransport` wraps the real :class:`~repro.mi.client.PipeTransport`
  and executes the plan. Because :class:`~repro.mi.client.MIClient` takes a
  ``transport_factory``, the whole stack above the pipe (client, GDB
  tracker, DAP adapter) runs unmodified against injected faults.
- :class:`FaultHarness` builds those factories and tallies what happened
  into the tracker's :class:`~repro.core.engine.TrackerStats`
  (``faults_injected`` / ``faults_recovered``), so recovery coverage is
  visible through the same observability surface as everything else.
- :class:`ScriptedTransport` skips the subprocess entirely and feeds the
  client a verbatim line script — the tool for protocol-level fuzzing
  (truncated records, interleaved async lines, mid-record EOF).

Everything above is deterministic: operations are counted, faults fire on
exact counts, and each fault fires exactly once.

The *service-level* chaos harness scales the same idea up to the whole
crash-only tracker service, on both hops of its topology:

- :class:`ChaosPlan` is a seeded schedule over proxy/pipe operations —
  scripted faults fire on exact operation counts, random ones are drawn
  from a :class:`random.Random` seeded for exact reproducibility, and
  every injected fault is appended to an event trace you can dump as a
  JSON artifact.
- :class:`ChaosProxy` is a TCP man-in-the-middle for the client↔service
  hop: delays, partial writes, and hard disconnects per chunk, plus
  :meth:`ChaosProxy.drop_connections` to sever every live connection at
  once (the reconnect-path hammer).
- :class:`ChaosChildTransport` wraps the service's
  :class:`~repro.mi.transport.AsyncPipeTransport` on the service↔child
  hop: delays and child SIGKILLs per pipe operation, injected through
  ``WarmPool``'s ``transport_spawner`` hook (the resurrection-path
  hammer).

The invariant the harness exists to check: under any such schedule,
every client call terminates (result or typed error), every session ends
resolved, and nothing hangs. See ``tests/test_service_chaos.py``.
"""

from __future__ import annotations

import asyncio
import json
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.core.errors import ServerCrashError
from repro.core.supervision import (
    BACKEND_RESTARTED,
    INFERIOR_INTERRUPTED,
    SupervisionEvent,
)
from repro.mi.transport import PipeTransport, default_transport_factory

#: A mini-C inferior that never pauses on its own (for deadline tests).
NEVER_PAUSING_C = """\
int main() {
    int i;
    i = 0;
    while (i < 1000000000) {
        i = i + 1;
    }
    return 0;
}
"""

#: A Python inferior that never pauses on its own (for deadline tests).
NEVER_PAUSING_PY = """\
i = 0
while i < 1000000000:
    i = i + 1
"""


@dataclass
class FaultPlan:
    """A deterministic, one-shot fault schedule over transport operations.

    Counters index the operations of *one plan* across all transports it
    is applied to, so a fault scheduled past a crash point lands on the
    restarted server. Every scheduled fault fires at most once.
    """

    #: kill the server just before the Nth ``send_line`` (0-based)
    crash_before_send: Optional[int] = None
    #: kill the server just after the Nth line is received (0-based)
    crash_after_recv: Optional[int] = None
    #: Nth received line -> replacement garbage delivered instead
    garble_recv: Dict[int, str] = field(default_factory=dict)
    #: Nth received line -> extra seconds to sit on it (slow server)
    delay_recv: Dict[int, float] = field(default_factory=dict)

    # live counters/markers (shared across restarts on purpose)
    _sends: int = field(default=0, repr=False)
    _recvs: int = field(default=0, repr=False)
    _fired: Set[str] = field(default_factory=set, repr=False)

    def _once(self, key: str) -> bool:
        if key in self._fired:
            return False
        self._fired.add(key)
        return True


class FaultyTransport:
    """A :class:`~repro.mi.client.PipeTransport` that executes a fault plan.

    Liveness, teardown, and interrupt delegate to the wrapped transport;
    only ``send_line``/``recv_line`` consult the plan.
    """

    def __init__(
        self,
        inner: PipeTransport,
        plan: FaultPlan,
        on_inject: Optional[Callable[[str], None]] = None,
    ):
        self._inner = inner
        self._plan = plan
        self._on_inject = on_inject or (lambda kind: None)

    # -- faulted I/O -----------------------------------------------------

    def send_line(self, line: str) -> None:
        plan = self._plan
        index = plan._sends
        plan._sends += 1
        if plan.crash_before_send == index and plan._once(f"send-crash-{index}"):
            self._kill("crash-before-send")
        self._inner.send_line(line)

    def recv_line(self, timeout: Optional[float] = None) -> Optional[str]:
        plan = self._plan
        line = self._inner.recv_line(timeout=timeout)
        if line is None:
            return None
        index = plan._recvs
        plan._recvs += 1
        if index in plan.delay_recv and plan._once(f"delay-{index}"):
            self._on_inject("delay-recv")
            time.sleep(plan.delay_recv[index])
        if plan.crash_after_recv == index and plan._once(f"recv-crash-{index}"):
            self._kill("crash-after-recv")
        if index in plan.garble_recv and plan._once(f"garble-{index}"):
            self._on_inject("garble-recv")
            return plan.garble_recv[index]
        return line

    def _kill(self, kind: str) -> None:
        self._on_inject(kind)
        self._inner._process.kill()
        self._inner._process.wait(timeout=5)

    # -- plain delegation ------------------------------------------------

    def alive(self) -> bool:
        return self._inner.alive()

    def exit_code(self) -> Optional[int]:
        return self._inner.exit_code()

    def stderr_tail(self) -> List[str]:
        return self._inner.stderr_tail()

    def lines_dropped(self) -> int:
        return self._inner.lines_dropped()

    def interrupt(self) -> None:
        self._inner.interrupt()

    def close(self, graceful_exit: bool = True) -> None:
        self._inner.close(graceful_exit=graceful_exit)


class FaultHarness:
    """Builds fault-injecting transports and scores the recovery.

    Usage::

        harness = FaultHarness(FaultPlan(crash_before_send=4))
        tracker = GDBTracker(
            transport_factory=harness.transport_factory(program)
        )
        harness.attach(tracker)
        ...
        assert tracker.get_stats().faults_recovered == harness.injected

    ``attach`` wires a supervision listener: every backend restart or
    deadline interrupt that follows an injected fault counts as a
    recovery, mirrored into the tracker's ``TrackerStats``.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        #: faults actually fired so far
        self.injected = 0
        #: supervision recoveries observed after an injection
        self.recovered = 0
        self._stats: List[Any] = []

    def transport_factory(
        self, program: str, args: Optional[List[str]] = None
    ) -> Callable[[], FaultyTransport]:
        """A zero-arg factory for :class:`MIClient` / :class:`GDBTracker`."""
        build_inner = default_transport_factory(program, list(args or []))

        def build() -> FaultyTransport:
            return FaultyTransport(build_inner(), self.plan, self._note_injected)

        return build

    def attach(self, tracker: Any) -> None:
        """Mirror injection/recovery tallies into the tracker's stats."""
        stats = tracker.engine.stats
        self._stats.append(stats)
        tracker.add_supervision_listener(self._make_listener(stats))

    def _note_injected(self, kind: str) -> None:
        self.injected += 1
        for stats in self._stats:
            stats.faults_injected += 1

    def _make_listener(self, stats: Any) -> Callable[[SupervisionEvent], None]:
        def listener(event: SupervisionEvent) -> None:
            if event.kind in (BACKEND_RESTARTED, INFERIOR_INTERRUPTED):
                if self.recovered < self.injected:
                    self.recovered += 1
                    stats.faults_recovered += 1

        return listener


class ScriptedTransport:
    """A transport that replays a verbatim line script — no subprocess.

    For protocol-level client tests: feed :class:`MIClient` exact server
    output (truncated records, interleaved async lines) and observe the
    typed errors. After the script runs out, behavior follows ``on_empty``:

    - ``"eof"`` (default): raise :class:`ServerCrashError`, like a server
      whose stdout closed mid-record;
    - ``"silence"``: time out every receive (return ``None``), like a
      wedged server that is alive but mute.
    """

    def __init__(self, lines: List[str], on_empty: str = "eof"):
        self.script = list(lines)
        self.on_empty = on_empty
        #: every line the client sent, in order
        self.sent: List[str] = []
        self.interrupts = 0
        self.closed = False
        self._eof_seen = False

    def send_line(self, line: str) -> None:
        if self._eof_seen:
            raise self._crashed("before the command could be sent")
        self.sent.append(line)

    def recv_line(self, timeout: Optional[float] = None) -> Optional[str]:
        if self.script:
            return self.script.pop(0)
        if self.on_empty == "silence":
            if timeout:
                time.sleep(min(timeout, 0.01))
            return None  # a "timeout": alive but mute
        self._eof_seen = True
        raise self._crashed("its output pipe closed")

    def _crashed(self, context: str) -> ServerCrashError:
        return ServerCrashError(
            f"the debug server died ({context})",
            exit_code=-9,
            stderr_tail=["scripted transport: script exhausted"],
        )

    def alive(self) -> bool:
        return not self._eof_seen and not self.closed

    def exit_code(self) -> Optional[int]:
        return -9 if self._eof_seen else None

    def stderr_tail(self) -> List[str]:
        return []

    def interrupt(self) -> None:
        self.interrupts += 1

    def close(self, graceful_exit: bool = True) -> None:
        self.closed = True


# ---------------------------------------------------------------------------
# Service-level chaos: seeded fault schedules over both service hops
# ---------------------------------------------------------------------------

#: Hop names used in :class:`ChaosPlan` schedules and event traces.
TCP_HOP = "tcp"
CHILD_HOP = "child"


@dataclass
class ChaosPlan:
    """A seeded (or scripted) fault schedule for the tracker service.

    Each hop keeps its own operation counter. On every operation the plan
    is consulted: a fault scripted for ``(hop, index)`` fires first;
    otherwise one is drawn from the seeded RNG using the per-kind rates.
    Every fault that fires is recorded in :attr:`events`, so a failing
    chaos run is fully explained by its seed plus its trace.

    Fault kinds by hop — :data:`TCP_HOP` (:class:`ChaosProxy`):
    ``delay``, ``partial`` (split write), ``disconnect``;
    :data:`CHILD_HOP` (:class:`ChaosChildTransport`): ``delay``, ``kill``
    (SIGKILL the child mid-dialogue). Kinds a hop cannot express are
    ignored there, so one plan can drive both hops.
    """

    #: RNG seed; ``None`` disables random faults (scripted only)
    seed: Optional[int] = None
    #: probability of an artificial delay, per operation
    delay_rate: float = 0.0
    #: probability of splitting a proxied chunk into two writes
    partial_rate: float = 0.0
    #: probability of severing the proxied connection
    disconnect_rate: float = 0.0
    #: probability of SIGKILLing the child on a pipe operation
    kill_rate: float = 0.0
    #: longest artificial delay (seconds); draws are uniform in (0, max]
    max_delay: float = 0.05
    #: exact-count overrides: ``(hop, op_index) -> fault kind``
    scripted: Dict[Tuple[str, int], str] = field(default_factory=dict)

    #: every fault that fired: ``{hop, op, kind, ...extras}``
    events: List[Dict[str, Any]] = field(default_factory=list)
    _ops: Dict[str, int] = field(default_factory=dict, repr=False)
    _rng: Optional[random.Random] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.seed is not None:
            self._rng = random.Random(self.seed)

    def draw(self, hop: str) -> Optional[str]:
        """Consume one operation on ``hop``; the fault to inject, if any."""
        index = self._ops.get(hop, 0)
        self._ops[hop] = index + 1
        fault = self.scripted.get((hop, index))
        if fault is None and self._rng is not None:
            roll = self._rng.random()
            for kind, rate in (
                ("delay", self.delay_rate),
                ("partial", self.partial_rate),
                ("disconnect", self.disconnect_rate),
                ("kill", self.kill_rate),
            ):
                if roll < rate:
                    fault = kind
                    break
                roll -= rate
        if fault is not None:
            self.events.append({"hop": hop, "op": index, "kind": fault})
        return fault

    def delay_seconds(self) -> float:
        """How long the next ``delay`` fault should sit on the data."""
        if self._rng is None:
            return self.max_delay
        return self._rng.uniform(0.001, self.max_delay)

    def annotate(self, **extra: Any) -> None:
        """Attach context (e.g. a pid) to the most recent event."""
        if self.events:
            self.events[-1].update(extra)

    def dump_trace(self, path: str) -> None:
        """Write the seed + full event trace as a JSON artifact."""
        with open(path, "w") as handle:
            json.dump(
                {
                    "seed": self.seed,
                    "rates": {
                        "delay": self.delay_rate,
                        "partial": self.partial_rate,
                        "disconnect": self.disconnect_rate,
                        "kill": self.kill_rate,
                    },
                    "operations": dict(self._ops),
                    "events": self.events,
                },
                handle,
                indent=2,
            )


class ChaosProxy:
    """A faulty TCP man-in-the-middle for the client↔service hop.

    Listens on an ephemeral loopback port and forwards byte chunks to the
    real service, consulting a :class:`ChaosPlan` per chunk in each
    direction: ``delay`` sits on the chunk, ``partial`` splits it into
    two writes with a gap (exercising the line reassembly on both ends),
    ``disconnect`` severs the connection mid-stream (exercising client
    reconnect + ``-session-attach``). :meth:`drop_connections` severs
    every live connection at once.

    Usage::

        proxy = ChaosProxy("127.0.0.1", service_port, plan)
        await proxy.start()
        client = await ServiceClient.connect("127.0.0.1", proxy.port)
    """

    def __init__(self, target_host: str, target_port: int, plan: ChaosPlan):
        self.target_host = target_host
        self.target_port = target_port
        self.plan = plan
        self.port: Optional[int] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._writers: List[asyncio.StreamWriter] = []
        #: connections accepted / severed by an injected disconnect
        self.accepted = 0
        self.severed = 0

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle, "127.0.0.1", 0
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.accepted += 1
        try:
            up_reader, up_writer = await asyncio.open_connection(
                self.target_host, self.target_port
            )
        except OSError:
            writer.close()
            return
        self._writers.extend([writer, up_writer])
        pair = (writer, up_writer)
        await asyncio.gather(
            self._pump(reader, up_writer, pair),
            self._pump(up_reader, writer, pair),
            return_exceptions=True,
        )
        for half in pair:
            self._close_writer(half)

    async def _pump(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        pair: Tuple[asyncio.StreamWriter, asyncio.StreamWriter],
    ) -> None:
        try:
            while True:
                chunk = await reader.read(4096)
                if not chunk:
                    break
                fault = self.plan.draw(TCP_HOP)
                if fault == "delay":
                    await asyncio.sleep(self.plan.delay_seconds())
                elif fault == "disconnect":
                    self.severed += 1
                    break
                if fault == "partial" and len(chunk) > 1:
                    middle = len(chunk) // 2
                    writer.write(chunk[:middle])
                    await writer.drain()
                    await asyncio.sleep(0.005)
                    writer.write(chunk[middle:])
                else:
                    writer.write(chunk)
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass
        finally:
            # Sever both halves: a half-open proxy link would stall the
            # other direction forever instead of surfacing the drop.
            for half in pair:
                self._close_writer(half)

    @staticmethod
    def _close_writer(writer: asyncio.StreamWriter) -> None:
        try:
            if not writer.is_closing():
                writer.close()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass

    def drop_connections(self) -> int:
        """Sever every live proxied connection; how many were dropped."""
        dropped = 0
        for writer in self._writers:
            if not writer.is_closing():
                dropped += 1
                self._close_writer(writer)
        self._writers = []
        if dropped:
            self.plan.events.append(
                {"hop": TCP_HOP, "op": None, "kind": "drop-all",
                 "writers": dropped}
            )
        return dropped

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self.drop_connections()


class ChaosChildTransport:
    """An :class:`~repro.mi.transport.AsyncPipeTransport` under chaos.

    Consults the plan once per pipe operation (each send, each received
    line): ``delay`` inserts an artificial stall, ``kill`` SIGKILLs the
    child — *before* a send (the dialogue fails immediately with
    :class:`~repro.core.errors.ServerCrashError`) or *after* a receive
    (the crash lands mid-dialogue) — which is exactly the signal the
    session-resurrection machinery recovers from.

    Inject via ``WarmPool(transport_spawner=ChaosChildTransport.spawner(plan))``
    or ``ServiceConfig(transport_spawner=...)``; everything above the
    transport runs unmodified.
    """

    def __init__(self, inner: Any, plan: ChaosPlan):
        self._inner = inner
        self._plan = plan

    @classmethod
    def spawner(cls, plan: ChaosPlan) -> Callable[[List[str]], Any]:
        """A ``transport_spawner`` for :class:`~repro.service.pool.WarmPool`."""
        from repro.mi.transport import AsyncPipeTransport

        async def spawn(argv: List[str]) -> "ChaosChildTransport":
            return cls(await AsyncPipeTransport.spawn(argv), plan)

        return spawn

    async def _maybe_fault(self, op: str) -> None:
        fault = self._plan.draw(CHILD_HOP)
        if fault == "delay":
            await asyncio.sleep(self._plan.delay_seconds())
        elif fault == "kill":
            self._plan.annotate(where=op, pid=self._inner.pid)
            self._inner.kill()

    # -- faulted I/O -----------------------------------------------------

    async def send_line(self, line: str) -> None:
        await self._maybe_fault("send")
        await self._inner.send_line(line)

    async def recv_line(self, timeout: Optional[float] = None) -> Optional[str]:
        line = await self._inner.recv_line(timeout=timeout)
        if line is not None:
            await self._maybe_fault("recv")
        return line

    # -- plain delegation ------------------------------------------------

    @property
    def pid(self) -> Optional[int]:
        return self._inner.pid

    def alive(self) -> bool:
        return self._inner.alive()

    def exit_code(self) -> Optional[int]:
        return self._inner.exit_code()

    def stderr_tail(self) -> List[str]:
        return self._inner.stderr_tail()

    def lines_dropped(self) -> int:
        return self._inner.lines_dropped()

    def kill(self) -> None:
        self._inner.kill()

    async def interrupt(self) -> None:
        await self._inner.interrupt()

    async def close(self, graceful_exit: bool = True) -> None:
        await self._inner.close(graceful_exit=graceful_exit)
