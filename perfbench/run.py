"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload step-inspect --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` spends half the time untraced and half with every layer's
entry points wrapped (see ``layers.py``), and prints the per-layer
metrics instead. Either way the second-to-last line of stdout is a full
report (environment stamp, every metric with its sample count, failure
counters, input properties) and the last line is the result object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

The program under test is imported from ``src/`` next to this directory;
without it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: No session starts later than this after launch, so a run ends well
#: within three minutes even on a slow host.
WALL_LIMIT_S = 140.0

#: The gated end-to-end metrics: (name, unit). Each is reported on every
#: workload and is never 0 when the run succeeds.
END_TO_END: List[Tuple[str, str]] = [
    ("pause_p50_us", "us"),
    ("inspect_p50_us", "us"),
    ("pauses_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def end_to_end(run: Any, remote: bool) -> Dict[str, Dict[str, Any]]:
    """Every end-to-end metric with its unit and sample count; gated or
    not. Times are at the reference speed (``measure.REFERENCE_NS``); the
    ``raw_`` entries are the same medians as measured. A value is ``None``
    where the workload has no such samples or a tail has fewer than ten
    samples beyond it."""
    from measure import summary
    from workloads import peak_rss_mb

    def timing(samples: List[float], q: float, unit: str) -> Dict[str, Any]:
        return dict(summary(samples, q), unit=unit)

    return {
        "setup_s": timing(run.setup_s, 0.5, "s"),
        "pause_p50_us": timing(run.pause_us, 0.5, "us"),
        "pause_p99_us": timing(run.pause_us, 0.99, "us"),
        "inspect_p50_us": timing(run.inspect_us, 0.5, "us"),
        "inspect_p99_us": timing(run.inspect_us, 0.99, "us"),
        # The median over windows of WINDOW pauses, so one stall cannot
        # move it.
        "pauses_per_s": timing(run.window_rates, 0.5, "1/s"),
        "query_p50_ms": timing(run.query_ms, 0.5, "ms"),
        "query_p90_ms": timing(run.query_ms, 0.9, "ms"),
        "peak_rss_mb": {"value": peak_rss_mb(remote), "unit": "MB", "samples": 1},
        "error_rate": {
            "value": run.failed / run.attempted if run.attempted else 1.0,
            "unit": "ratio",
            "samples": run.attempted,
        },
        "raw_pause_p50_us": timing(run.raw_pause_us, 0.5, "us"),
        "raw_inspect_p50_us": timing(run.raw_inspect_us, 0.5, "us"),
        "reference_scale_p50": timing(run.scales, 0.5, "ratio"),
    }


def _run_facts(run: Any) -> Dict[str, Any]:
    return {
        "sessions": run.sessions,
        "pauses": run.pauses,
        "attempted": run.attempted,
        "failed": run.failed,
        "problems": run.problems,
        "failure_counters": dict(run.failures),
        "engine": dict(run.engine),
        "service": dict(run.service),
        "read_ops": dict(run.query_kinds),
    }


def pin_to_one_cpu() -> Optional[int]:
    """Pin this process (and so its future threads and children) to the
    highest-numbered CPU it may run on; ``None`` where affinity is not
    supported."""
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def main(argv: Optional[List[str]] = None) -> int:
    options = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(
            f"perfbench: the program under test is missing ({SRC}/repro); "
            "run from the root of a full checkout",
            file=sys.stderr,
        )
        return 2
    # One CPU for the benchmark and every process it starts: thread and
    # process handoffs (tool <-> inferior, client <-> child) then stay on
    # one core instead of paying a cross-CPU wake-up whose cost swings
    # with the load of a shared host.
    cpu = pin_to_one_cpu()
    sys.path.insert(0, SRC)
    # Child interpreters (python-subproc servers, repro serve) must import
    # the same checkout.
    inherited = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = SRC + (os.pathsep + inherited if inherited else "")

    import layers
    import measure
    import workloads
    from spans import Tracer

    workload = workloads.WORKLOADS.get(options.workload)
    if workload is None:
        print(
            f"perfbench: unknown workload {options.workload!r}; "
            f"choose from {sorted(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    if options.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    deadline = time.monotonic() + WALL_LIMIT_S
    workdir = os.path.join(ROOT, ".perfbench-work", str(os.getpid()))
    os.makedirs(workdir)
    report: Dict[str, Any] = {
        "workload": workload.name,
        "seed": options.seed,
        "seconds": options.seconds,
        "trace": options.trace,
        "environment": dict(measure.environment(ROOT), cpu=cpu),
    }
    # Orphaned grandchildren (serve-step's pool children) re-parent to this
    # process, which then reaps them before it exits.
    report["environment"]["subreaper"] = workloads.become_subreaper()
    try:
        if options.trace:
            untraced = workloads.run_workload(
                workload, options.seed, options.seconds / 2, workdir, workloads.Run(),
                deadline,
            )
            tracer = Tracer()
            layers.install(tracer)
            try:
                traced = workloads.run_workload(
                    workload, options.seed, options.seconds / 2, workdir,
                    workloads.Run(tracer), deadline,
                )
            finally:
                tracer.unpatch_all()
            rate = end_to_end(untraced, workload.remote)["pauses_per_s"]["value"] or 0.0
            values = layers.per_layer_metrics(
                tracer, traced, rate, in_process=not workload.remote
            )
            stray = layers.check_partition(tracer)
            traced.check([f"pause-root keys outside the partition: {stray}"] if stray else [])
            gap = values["trace.sum_gap_us"]
            traced.check(
                [] if abs(gap) <= 1e-6 * max(values["trace.pause_us"], 1.0)
                else [f"layer self times miss the pause time by {gap} us"]
            )
            runs = [untraced, traced]
            metrics = layers.as_report(values)
            report["untraced"] = _run_facts(untraced)
            report["traced"] = _run_facts(traced)
            report["per_layer"] = metrics
        else:
            run = workloads.run_workload(
                workload, options.seed, options.seconds, workdir, workloads.Run(),
                deadline,
            )
            runs = [run]
            measured = end_to_end(run, workload.remote)
            report["end_to_end"] = measured
            report["run"] = _run_facts(run)
            metrics = {
                name: {"value": measured[name]["value"] or 0.0, "unit": unit}
                for name, unit in END_TO_END
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run is using it, or it is already gone

    attempted = sum(run.attempted for run in runs)
    failed = sum(run.failed for run in runs)
    report["error_rate"] = failed / attempted if attempted else 1.0
    print(json.dumps(report, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": failed == 0 and attempted > 0,
                "attempted": max(attempted, 1),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
