"""The subprocess-isolated Python tracker (backend ``"python-subproc"``).

Same language, same semantics as the in-process
:class:`repro.pytracker.PythonTracker` — the server side literally *hosts*
one — but the inferior runs in a spawned child interpreter behind the MI
pipe. What isolation buys:

- a hostile or buggy inferior cannot take the tool down: ``os._exit``, a
  segfault in an extension, an OOM kill or a runaway allocation kills the
  *child*, and this tracker reports a terminal exited state carrying the
  process exit code (128 + signal for signal deaths);
- the child can be capped with :class:`repro.subproc.limits.ResourceLimits`
  (address space, CPU seconds, file size) — ``setrlimit`` applies to a
  whole process, which is exactly the unit the child is;
- the tool's GIL, allocator and module state are untouched by the
  inferior.

The cost is a pipe round-trip per control call/inspection (see
``benchmarks/test_overhead.py`` for the measured multiplier).

All client plumbing — supervised calls, deadlines, crash recovery for the
*protocol* layer, control-point sync, server-side timeline recording — is
inherited from :class:`repro.mi.remote.MIRemoteTracker`. The one real
override is crash semantics during run control: the child hosts the
inferior, so the child dying *is* the inferior dying, not a tool failure
to recover from.
"""

from __future__ import annotations

import sys
from typing import Any, Callable, Dict, List, Optional

from repro.core.errors import ControlTimeout, ServerCrashError
from repro.core.supervision import (
    INFERIOR_PROCESS_DIED,
    BackoffPolicy,
    SupervisionEvent,
)
from repro.mi.transport import PipeTransport
from repro.mi.remote import MIRemoteTracker
from repro.subproc.limits import ResourceLimits


def _process_exit_code(returncode: Optional[int]) -> int:
    """Shell convention for a child's death: signal -N becomes 128 + N."""
    if returncode is None:
        return 1
    if returncode < 0:
        return 128 - returncode
    return returncode


class SubprocPythonTracker(MIRemoteTracker):
    """Tracker for Python inferiors in a sandboxed child interpreter.

    Args:
        restart_policy: backoff schedule for *protocol-layer* crash
            recovery on synchronous commands (see
            :class:`repro.mi.remote.MIRemoteTracker`). Run-control
            crashes are not recovered — they are the inferior's death.
        transport_factory: forwarded to :class:`MIClient` (fault
            injection hook, see :mod:`repro.testing.faults`).
        resource_limits: ``setrlimit`` caps applied inside the child
            before the inferior runs (:class:`ResourceLimits`);
            ``None`` = unlimited.
    """

    backend = "python-subproc"
    # the hosted PythonTracker counts interrupts; -tracker-stats merges
    # its counters in, so counting here too would double count
    _count_interrupts_locally = False

    def __init__(
        self,
        restart_policy: Optional[BackoffPolicy] = None,
        transport_factory: Optional[Callable[[], Any]] = None,
        resource_limits: Optional[ResourceLimits] = None,
    ) -> None:
        super().__init__(
            restart_policy=restart_policy, transport_factory=transport_factory
        )
        self.resource_limits = resource_limits or ResourceLimits()

    # ------------------------------------------------------------------
    # Substrate hooks (see MIRemoteTracker)
    # ------------------------------------------------------------------

    def _make_transport_factory(
        self, path: str, args: List[str]
    ) -> Callable[[], PipeTransport]:
        if self._transport_factory is not None:
            return self._transport_factory
        argv = (
            [sys.executable, "-m", "repro.subproc.server"]
            + self.resource_limits.to_argv()
            + [path]
            + list(args)
        )
        return lambda: PipeTransport(argv)

    def _dispatch_run_control(self, name: str) -> Dict[str, Any]:
        """Run control where a server crash means the *inferior* died.

        The child process hosts the inferior: when it disappears mid-run
        (segfault, ``os._exit``, OOM kill, CPU-limit kill), that is the
        inferior's own death — a terminal exited state, not a tool
        failure to roll back and retry. Protocol garbage and timeouts
        keep the inherited supervised behavior.
        """

        def attempt() -> Dict[str, Any]:
            try:
                return self._client.run_control(
                    name, deadline=self._attempt_deadline()
                )
            except ControlTimeout:
                raise
            except ServerCrashError as error:
                return self._death_payload(error)

        return self._supervised_call(attempt)

    def _death_payload(self, error: ServerCrashError) -> Dict[str, Any]:
        exit_code = _process_exit_code(error.exit_code)
        stderr_tail = list(error.stderr_tail or [])
        self._emit_supervision_event(
            SupervisionEvent(
                INFERIOR_PROCESS_DIED,
                "the inferior process died mid-run "
                f"(exit code {exit_code}); the tracker is terminated",
                {"exitcode": exit_code, "stderr_tail": stderr_tail},
            )
        )
        payload: Dict[str, Any] = {
            "reason": "exited",
            "exitcode": exit_code,
            "error": f"inferior process died: {error}",
        }
        return payload
