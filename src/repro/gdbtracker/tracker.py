"""The GDB tracker: the Tracker API over the MI debug server.

This is the reproduction of the paper's GDB-based implementation
(Section II-C1): the tracker runs the debugger as a subprocess in
machine-interface mode and adapts the high-level control/inspection API to
MI commands. All the client plumbing — supervised calls with deadlines and
crash recovery, control-point sync, payload ingestion, server-side
timeline recording — is the shared :class:`repro.mi.remote.MIRemoteTracker`
base (also used by the subprocess-isolated Python tracker); this class
adds the inspection extensions specific to the mini-C / RISC-V substrate.
The two GDB gaps the paper closes are closed the same way here:

- **maxdepth** rides along on every breakpoint/watch command (the paper
  adds custom breakpoint commands via a GDB Python extension; our server
  accepts the extension natively);
- **function-exit tracking**: GDB can break on entry but not exit. For
  assembly inferiors the server's ``-track-function`` uses the paper's
  mechanism literally — disassemble the function, find its return
  instruction (``ret`` = ``jalr x0, 0(ra)`` on RISC-V, standing in for
  x86 ``retq``), and plant an address point there; a pause on it is
  reported as a ``function-exit`` stop record with the callee still the
  current frame. For mini-C inferiors the same command uses the
  interpreter's return event. Either way this client sees one record
  format.

Inspection state (frames, variables, values) is built server-side,
serialized, piped across, and deserialized here — both sides speak the
:mod:`repro.core.state` model.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.mi.remote import MIRemoteTracker


class GDBTracker(MIRemoteTracker):
    """Tracker for mini-C (.c) and RISC-V assembly (.s) inferiors.

    Args:
        restart_policy: backoff schedule for debug-server crash recovery
            (see :class:`repro.mi.remote.MIRemoteTracker`).
        transport_factory: forwarded to :class:`MIClient` (fault
            injection hook, see :mod:`repro.testing.faults`).
    """

    backend = "GDB"

    # ------------------------------------------------------------------
    # GDB-tracker-specific extensions (named as in the paper)
    # ------------------------------------------------------------------

    def get_registers_gdb(self) -> Dict[str, int]:
        """All machine registers by name (assembly inferiors only)."""
        return self._execute("-data-list-register-values")

    def get_value_at_gdb(self, address: int, count: int) -> bytes:
        """Read ``count`` raw bytes of inferior memory at ``address``."""
        payload = self._execute(
            "-data-read-memory", [hex(address), str(count)]
        )
        return bytes.fromhex(payload["bytes"])

    def get_heap_blocks(self) -> Dict[int, int]:
        """Live heap blocks (address -> size) from the allocator registry."""
        payload = self._execute("-heap-blocks")
        return {int(address, 16): size for address, size in payload.items()}

    def disassemble(self, function: str) -> List[Dict[str, Any]]:
        """The function's instruction listing (assembly inferiors)."""
        return self._execute("-data-disassemble", [function])
