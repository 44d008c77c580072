"""Which entry points the traced run wraps, and the per-layer metrics.

Wrapped keys, by layer (the module each lives in):

==================  ==================================================
key                 wrapped entry points
==================  ==================================================
``control``         ``Tracker.start/step/resume`` (``core.tracker``;
                    in process, its self time is the ``pytracker``
                    pause handshake plus engine dispatch)
``capture``         ``Tracker.snapshot/get_variable/get_position``,
                    ``StateSnapshot.capture`` (``core.timeline``)
``frames``          ``Tracker.get_current_frame`` (``pytracker.introspect``)
``globals``         ``Tracker.get_global_variables``
``encode``          ``StateSnapshot.to_dict`` (``core.state`` codecs)
``decode``          ``StateSnapshot.from_dict``
``diff``/``patch``  ``diff_tree`` / ``apply_patch`` (``core.timeline``),
                    outermost call only
``append``          ``Timeline.append``
``observe``         ``TraceIndex.observe`` (``core.tracestore``)
``at`` ...          ``TimelineView.at/history/calls/query``
``mi.call``         ``MIClient.execute/run_control`` (``mi.client``)
``mi.send``         ``PipeTransport.send_line`` (``mi.transport``)
``mi.wait``         ``PipeTransport.recv_line``; with ``mi.send``, the
                    time blocked on the child
``mi.decode``       ``frame_from_dict``/``variable_from_dict`` as called
                    by ``mi.remote`` and ``service.client``
``service.call``    ``AsyncTracker.execute/_run_control``: one service
                    round trip (``service.client``)
``service.open``    ``ServiceClient.open_tracker``
==================  ==================================================

Per-pause metrics divide by the number of tool-loop iterations (root
``pause`` spans): one control call plus the inspection after it. A metric
whose layer does not run on a workload reads 0.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from measure import mean, percentile
from spans import OTHER, Tracer
from workloads import Run

#: (name, unit), in the order BENCHMARK.json lists them.
PER_LAYER: List[Tuple[str, str]] = [
    ("engine.events_per_pause", "count"),
    ("engine.watch_evals_per_pause", "count"),
    ("engine.decision_ns_per_pause", "ns"),
    ("engine.ns_per_event", "ns"),
    ("handshake.us_per_pause", "us"),
    ("capture.us_per_pause", "us"),
    ("introspect.frames_us", "us"),
    ("introspect.globals_us", "us"),
    ("capture.nodes_per_pause", "count"),
    ("encode.us_per_pause", "us"),
    ("encode.bytes_per_pause", "bytes"),
    ("decode.us_per_snapshot", "us"),
    ("delta.us_per_pause", "us"),
    ("delta.changed_fraction", "ratio"),
    ("timeline.append_self_us", "us"),
    ("timeline.json_bytes", "bytes"),
    ("read.patches_per_at", "count"),
    ("index.us_per_pause", "us"),
    ("read.at_us", "us"),
    ("query.history_ms", "ms"),
    ("query.where_ms", "ms"),
    ("query.calls_ms", "ms"),
    ("query.snapshots_per_query", "count"),
    ("mi.roundtrips_per_pause", "count"),
    ("mi.wait_us_per_pause", "us"),
    ("mi.client_self_us_per_pause", "us"),
    ("mi.bytes_in_per_pause", "bytes"),
    ("mi.decode_us_per_pause", "us"),
    ("child.decision_ns_per_pause", "ns"),
    ("service.rtt_us", "us"),
    ("service.us_per_pause", "us"),
    ("service.roundtrips_per_pause", "count"),
    ("service.open_ms", "ms"),
    ("service.queued", "count"),
    ("pool.warm_hits", "count"),
    ("pool.cold_spawns", "count"),
    ("other.us_per_pause", "us"),
    ("trace.pause_us", "us"),
    ("trace.sum_gap_us", "us"),
    ("trace.overhead_ratio", "ratio"),
    ("fail.interrupts", "count"),
    ("fail.control_timeouts", "count"),
    ("fail.backend_restarts", "count"),
    ("fail.transport_lines_dropped", "count"),
    ("fail.rejected", "count"),
    ("fail.overloaded", "count"),
    ("fail.resurrected", "count"),
    ("fail.child_deaths", "count"),
]

#: Per-pause self-time metrics and the keys each one covers. Together with
#: ``other`` they partition every key recorded under a pause root, which
#: is what makes them add up to ``trace.pause_us``.
PAUSE_PARTITION: Dict[str, Tuple[str, ...]] = {
    "handshake.us_per_pause": ("control",),
    "capture.us_per_pause": ("capture", "frames", "globals"),
    "encode.us_per_pause": ("encode",),
    "delta.us_per_pause": ("diff", "patch"),
    "timeline.append_self_us": ("append",),
    "index.us_per_pause": ("observe",),
    "mi.client_self_us_per_pause": ("mi.call",),
    # With everything on one CPU the child runs inside whichever pipe call
    # hands it the CPU, the write as often as the read, so both count as
    # time blocked on the child.
    "mi.wait_us_per_pause": ("mi.send", "mi.wait"),
    "mi.decode_us_per_pause": ("mi.decode",),
    "service.us_per_pause": ("service.call",),
    "other.us_per_pause": (OTHER,),
}

_READS = ("read:at", "read:history", "read:calls", "read:where")
_QUERIES = ("read:history", "read:calls", "read:where")


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point listed in the module docstring."""
    import repro.core.timeline as timeline_module
    import repro.core.tracestore as tracestore_module
    import repro.mi.remote as remote_module
    import repro.service.client as service_module
    from repro.core.timeline import StateSnapshot, Timeline
    from repro.core.tracestore import TimelineView, TraceIndex
    from repro.core.tracker import Tracker
    from repro.mi.client import MIClient
    from repro.mi.transport import PipeTransport

    for name in ("start", "step", "resume"):
        tracer.patch(Tracker, name, "control")
    for name in ("snapshot", "get_variable", "get_position"):
        tracer.patch(Tracker, name, "capture")
    tracer.patch(StateSnapshot, "capture", "capture")
    tracer.patch(Tracker, "get_current_frame", "frames")
    tracer.patch(Tracker, "get_global_variables", "globals")
    tracer.patch(StateSnapshot, "to_dict", "encode")
    tracer.patch(StateSnapshot, "from_dict", "decode")
    tracer.patch(timeline_module, "diff_tree", "diff", recursive=True)
    tracer.patch(tracestore_module, "diff_tree", "diff")
    tracer.patch(timeline_module, "apply_patch", "patch", recursive=True)
    tracer.patch(Timeline, "append", "append")
    tracer.patch(TraceIndex, "observe", "observe")
    for name in ("at", "history", "calls", "query"):
        tracer.patch(TimelineView, name, name)
    tracer.patch(MIClient, "execute", "mi.call")
    tracer.patch(MIClient, "run_control", "mi.call")
    tracer.patch(PipeTransport, "send_line", "mi.send")
    tracer.patch(PipeTransport, "recv_line", "mi.wait", on_result=_count_bytes_in)
    for module in (remote_module, service_module):
        tracer.patch(module, "frame_from_dict", "mi.decode")
        tracer.patch(module, "variable_from_dict", "mi.decode")
    tracer.patch(service_module.AsyncTracker, "execute", "service.call")
    tracer.patch(service_module.AsyncTracker, "_run_control", "service.call")
    tracer.patch(service_module.ServiceClient, "open_tracker", "service.open")


def _count_bytes_in(tracer: Tracer, line: Any) -> None:
    if line is not None:  # None: the receive timed out this slice
        tracer.count("mi.bytes_in", len(line))


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(
    tracer: Tracer, traced: Run, untraced_rate: float, in_process: bool
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric from one traced run."""
    loops, loop_ns = tracer.roots.get("pause", [0, 0])
    metrics: Dict[str, float] = {}
    for name, keys in PAUSE_PARTITION.items():
        metrics[name] = _ratio(tracer.self_ns("pause", *keys), loops) / 1e3
    metrics["trace.pause_us"] = _ratio(loop_ns, loops) / 1e3
    metrics["trace.sum_gap_us"] = metrics["trace.pause_us"] - sum(
        metrics[name] for name in PAUSE_PARTITION
    )
    traced_rate = percentile(traced.window_rates, 0.5) if traced.window_rates else 0.0
    metrics["trace.overhead_ratio"] = _ratio(traced_rate, untraced_rate)

    engine = traced.engine
    control_ns = tracer.self_ns("pause", "control")
    metrics["engine.events_per_pause"] = _ratio(engine["events"], traced.pauses)
    metrics["engine.watch_evals_per_pause"] = _ratio(
        engine["watch_evaluations"], traced.pauses
    )
    decision = _ratio(engine["decision_ns"], engine["pauses"])
    metrics["engine.decision_ns_per_pause"] = decision if in_process else 0.0
    metrics["child.decision_ns_per_pause"] = 0.0 if in_process else decision
    metrics["engine.ns_per_event"] = (
        _ratio(control_ns, engine["events"]) if in_process else 0.0
    )

    metrics["introspect.frames_us"] = _ratio(
        tracer.self_ns("pause", "frames"), tracer.calls("pause", "frames")
    ) / 1e3
    metrics["introspect.globals_us"] = _ratio(
        tracer.self_ns("pause", "globals"), tracer.calls("pause", "globals")
    ) / 1e3
    metrics["capture.nodes_per_pause"] = mean(traced.tree_nodes)
    metrics["delta.changed_fraction"] = _ratio(
        sum(patch for patch, _ in traced.changes),
        sum(nodes for _, nodes in traced.changes),
    )
    metrics["encode.bytes_per_pause"] = mean(traced.tree_bytes)
    metrics["timeline.json_bytes"] = mean(traced.timeline_bytes)

    decodes = sum(tracer.calls(root, "decode") for root in _READS)
    metrics["decode.us_per_snapshot"] = _ratio(
        sum(tracer.self_ns(root, "decode") for root in _READS), decodes
    ) / 1e3
    metrics["read.patches_per_at"] = _ratio(
        sum(tracer.calls(root, "patch") for root in _READS),
        sum(tracer.calls(root, "at") for root in _READS),
    )
    metrics["read.at_us"] = _root_mean_ns(tracer, "read:at") / 1e3
    metrics["query.history_ms"] = _root_mean_ns(tracer, "read:history") / 1e6
    metrics["query.where_ms"] = _root_mean_ns(tracer, "read:where") / 1e6
    metrics["query.calls_ms"] = _root_mean_ns(tracer, "read:calls") / 1e6
    metrics["query.snapshots_per_query"] = _ratio(
        sum(tracer.calls(root, "decode") for root in _QUERIES),
        sum(tracer.roots.get(root, [0, 0])[0] for root in _QUERIES),
    )

    metrics["mi.roundtrips_per_pause"] = _ratio(tracer.calls("pause", "mi.call"), loops)
    metrics["mi.bytes_in_per_pause"] = _ratio(
        tracer.counts.get(("pause", "mi.bytes_in"), 0), loops
    )
    metrics["service.rtt_us"] = _ratio(
        tracer.inclusive_ns("pause", "service.call"),
        tracer.calls("pause", "service.call"),
    ) / 1e3
    metrics["service.roundtrips_per_pause"] = _ratio(
        tracer.calls("pause", "service.call"), loops
    )
    metrics["service.open_ms"] = _ratio(
        tracer.inclusive_ns("setup", "service.open"),
        tracer.calls("setup", "service.open"),
    ) / 1e6
    metrics["service.queued"] = float(traced.service["queued"])
    metrics["pool.warm_hits"] = float(traced.service["warm_hits"])
    metrics["pool.cold_spawns"] = float(traced.service["cold_spawns"])
    for name, _ in PER_LAYER:
        if name.startswith("fail."):
            metrics[name] = float(traced.failures[name[len("fail."):]])
    return metrics


def _root_mean_ns(tracer: Tracer, root: str) -> float:
    count, total = tracer.roots.get(root, [0, 0])
    return _ratio(total, count)


def check_partition(tracer: Tracer) -> List[str]:
    """Keys recorded under pause roots that no partition entry covers."""
    covered = {key for keys in PAUSE_PARTITION.values() for key in keys}
    return sorted(
        key for (root, key) in tracer.spans if root == "pause" and key not in covered
    )


def as_report(metrics: Dict[str, float]) -> Dict[str, Any]:
    units = dict(PER_LAYER)
    return {name: {"value": metrics[name], "unit": units[name]} for name, _ in PER_LAYER}
