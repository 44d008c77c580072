"""The machine-interface layer: protocol, debug server, client.

Reproduces the paper's GDB/MI architecture (Fig. 4): the tracker process
talks to a debugger subprocess over a pipe; the debugger owns the inferior
and serializes abstract program state back across the pipe.

The debug server (:mod:`repro.mi.server`) is not re-exported: it runs as
``python -m repro.mi.server``, and importing it here would load that
module a second time, with a ``RuntimeWarning``, in every server process.
"""

from repro.mi.client import MIClient
from repro.mi.inferiors import (
    InferiorAdapter,
    MinicInferior,
    RiscvInferior,
    open_inferior,
)
from repro.mi.protocol import (
    Command,
    Record,
    format_command,
    format_done,
    format_error,
    format_notify,
    format_running,
    format_stopped,
    format_stream,
    parse_command,
    parse_record,
)
from repro.mi.staterender import CStateRenderer, render_watch

__all__ = [
    "CStateRenderer",
    "Command",
    "InferiorAdapter",
    "MIClient",
    "MinicInferior",
    "Record",
    "RiscvInferior",
    "format_command",
    "format_done",
    "format_error",
    "format_notify",
    "format_running",
    "format_stopped",
    "format_stream",
    "open_inferior",
    "parse_command",
    "parse_record",
    "render_watch",
]
