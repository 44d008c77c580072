"""The five workloads: closed-loop tool loops over the public API.

Each workload drives the tracker the way a visualisation tool does: one
control call, then the inspection the tool needs, then the next control
call once that returns (a closed loop with one client, or two sessions on
``serve-step``). A *session* runs one generated inferior from nothing to
its exit; a run repeats sessions, cycling through the seed's program
variants, until the measured time is spent.

What counts as measured time: the tool loop (control calls plus
inspections) and, on ``record-query``, the read phase. Set-up, the oracle
checks, the reference timings and the traced run's bookkeeping happen off
the clock. Gated times are scaled to the reference speed
(``measure.REFERENCE_NS``); the raw pause and inspection times are kept too.

Every operation the tool performs is *attempted*; a raised error, a
timeout, or an answer that disagrees with the oracle is *failed*, and so
is every nonzero failure counter the tracker or the service reports.
"""

from __future__ import annotations

import array
import asyncio
import contextlib
import ctypes
import functools
import json
import os
import random
import re
import resource
import signal
import sys
import time
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Tuple

import generator
import measure
import oracle
from generator import Inferior
from spans import Tracer

from repro.api import init_tracker
from repro.core.engine import TrackerStats
from repro.core.state import frame_to_dict, variable_to_dict
from repro.core.timeline import diff_tree

#: Every control call carries this deadline, so a hang becomes a counted
#: ``ControlTimeout`` instead of a wedged run.
CONTROL_TIMEOUT = 10.0
#: Set-up is timed at least this many times per run (extra set-ups are
#: made after the measured phase when sessions were fewer).
MIN_SETUPS = 5
#: List sizes of the sort inferiors (subproc-step shares step-inspect's).
SORT_SIZE = 16
SERVE_SORT_SIZE = 10
#: Concurrent sessions on serve-step.
SERVE_SESSIONS = 2
#: The reference work is timed again after this much loop time, so a long
#: session follows the host's speed changes.
CALIBRATE_EVERY_NS = 250_000_000
#: Pauses per throughput window: ``pauses_per_s`` is the median window rate.
WINDOW = 32
#: Read operations per record-query session, by kind.
READ_MIX = (("at", 24), ("history", 3), ("calls", 3), ("where", 1))

#: Counters that must stay zero; any increment is a failed operation.
TRACKER_FAILURE_COUNTERS = (
    "interrupts",
    "control_timeouts",
    "backend_restarts",
    "transport_lines_dropped",
)
SERVICE_FAILURE_COUNTERS = ("rejected", "overloaded", "resurrected", "child_deaths")

_NO_ROOT = contextlib.nullcontext()
clock = time.perf_counter_ns


class Run:
    """Samples and counts gathered by one run of one workload."""

    def __init__(self, tracer: Optional[Tracer] = None) -> None:
        self.tracer = tracer
        #: gated times, at the reference speed (see ``measure.REFERENCE_NS``);
        #: per-pause samples are packed arrays, so the harness's own memory
        #: barely grows with the pause count and peak RSS stays the
        #: tracker's
        self.setup_s: List[float] = []
        self.pause_us = array.array("d")
        self.inspect_us = array.array("d")
        self.query_ms: List[float] = []
        #: the same pause and inspection times as measured, unscaled
        self.raw_pause_us = array.array("d")
        self.raw_inspect_us = array.array("d")
        #: reference-clock factor of the current session, and every one seen
        self.scale = 1.0
        self.scales: List[float] = []
        self._calibrated_at = 0
        self.query_kinds: Counter = Counter()
        self.pauses = 0
        self.sessions = 0
        #: pauses per second of each window of WINDOW consecutive pauses
        self.window_rates: List[float] = []
        self._window = [0.0, 0]  # [scaled loop time so far, pauses]
        #: tool-loop time (control calls + inspections)
        self.loop_ns = 0
        #: record-query read-phase time
        self.read_ns = 0
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        #: failure-counter sums (tracker and service)
        self.failures: Counter = Counter()
        #: engine counters summed over sessions (``TrackerStats``)
        self.engine: Counter = Counter()
        #: service counters summed over rounds
        self.service: Counter = Counter()
        #: traced run only: per-pause state-tree sizes
        self.tree_nodes: List[int] = []
        #: (patch nodes, tree nodes) for pauses that have a predecessor
        self.changes: List[Tuple[int, int]] = []
        self.tree_bytes: List[int] = []
        self.timeline_bytes: List[int] = []
        #: last observed tree per session (sessions may interleave)
        self._previous_trees: Dict[Any, Any] = {}

    # -- timing ----------------------------------------------------------

    def root(self, name: str):
        return self.tracer.root(name) if self.tracer is not None else _NO_ROOT

    @property
    def measured_ns(self) -> int:
        return self.loop_ns + self.read_ns

    def calibrate(self, now_ns: int) -> None:
        """Time the reference work; the times that follow scale by it.
        ``now_ns`` is the measured-time clock (wall time on serve-step),
        for :meth:`recalibrate`."""
        self.scale = measure.REFERENCE_NS / measure.reference_ns()
        self.scales.append(self.scale)
        self._calibrated_at = now_ns

    def recalibrate(self, now_ns: int) -> None:
        """Calibrate again once CALIBRATE_EVERY_NS of loop clock passed."""
        if now_ns - self._calibrated_at >= CALIBRATE_EVERY_NS:
            self.calibrate(now_ns)

    def setup_done(self, elapsed_ns: int) -> None:
        self.attempted += 1
        self.setup_s.append(elapsed_ns * self.scale / 1e9)

    def paused(self, control_ns: int, inspect_ns: int, advance_ns: int) -> None:
        """One pause: its control call and its inspection succeeded.

        ``advance_ns`` is how far the loop clock moved since the previous
        pause: this iteration's time for one session at a time (so a
        window may span sessions), wall time since the last pause of any
        session when sessions run concurrently.
        """
        self.attempted += 2
        self.pauses += 1
        self.raw_pause_us.append(control_ns / 1e3)
        self.raw_inspect_us.append(inspect_ns / 1e3)
        self.pause_us.append(control_ns * self.scale / 1e3)
        self.inspect_us.append(inspect_ns * self.scale / 1e3)
        window = self._window
        window[0] += advance_ns * self.scale
        window[1] += 1
        if window[1] == WINDOW:
            self.window_rates.append(WINDOW / (window[0] / 1e9))
            self._window = [0.0, 0]

    def loops_interrupted(self) -> None:
        """Set-up or checks ran since the last pause: a wall-clocked
        window must not span them."""
        self._window = [0.0, 0]

    # -- outcomes --------------------------------------------------------

    def fail(self, message: str) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)

    def check(self, problems: List[str]) -> None:
        """One oracle check; any mismatch fails it."""
        if problems:
            self.fail("; ".join(problems))
        else:
            self.attempted += 1

    def read_tracker_stats(self, stats: TrackerStats) -> None:
        for name in TRACKER_FAILURE_COUNTERS:
            self.failures[name] += getattr(stats, name)
        self.engine["events"] += sum(stats.events_seen.values())
        self.engine["watch_evaluations"] += stats.watch_evaluations
        self.engine["decision_ns"] += stats.total_pause_latency_ns
        self.engine["pauses"] += stats.pause_count

    def read_service_stats(self, stats: Dict[str, Any]) -> None:
        for name in SERVICE_FAILURE_COUNTERS:
            self.failures[name] += int(stats.get(name, 0))
        self.service["queued"] += int(stats.get("queued", 0))
        pool = stats.get("pool", {})
        self.service["warm_hits"] += int(pool.get("warm_hits", 0))
        self.service["cold_spawns"] += int(pool.get("cold_spawns", 0))

    def count_failure_counters(self) -> None:
        """Each nonzero failure counter is one failed operation."""
        for name, value in sorted(self.failures.items()):
            if value:
                self.fail(f"{name} = {value}")

    # -- traced-run input properties ---------------------------------------

    def observe_tree(self, session: Any, tree: Any, encoded: bool = False) -> None:
        """Size one pause's state tree and its change since the session's
        last pause (off the clock; only the traced run calls this)."""
        nodes = count_nodes(tree)
        self.tree_nodes.append(nodes)
        previous = self._previous_trees.get(session)
        if previous is not None:
            patch = diff_tree(previous, tree)
            self.changes.append((count_nodes(patch) if patch is not None else 0, nodes))
        if encoded:
            self.tree_bytes.append(len(json.dumps(tree, separators=(",", ":"))))
        self._previous_trees[session] = tree

    def end_session(self) -> None:
        self.sessions += 1
        self._previous_trees.clear()


def count_nodes(tree: Any) -> int:
    """Containers and leaves in a JSON tree."""
    if isinstance(tree, dict):
        return 1 + sum(count_nodes(value) for value in tree.values())
    if isinstance(tree, list):
        return 1 + sum(count_nodes(value) for value in tree)
    return 1


def _failure_message(error: BaseException) -> str:
    return f"{type(error).__name__}: {error}"


# ---------------------------------------------------------------------------
# Sessions. Every session function takes
# ``(run, inferior, path, native, seed, setup_only)``.
# ---------------------------------------------------------------------------


def _session(
    run: Run,
    backend: str,
    path: str,
    setup_only: bool,
    prepare: Callable[[Any], None],
    body: Callable[[Any], None],
) -> None:
    """Set up one local tracker, run ``body`` on it, always tear down."""
    tracker = None
    try:
        run.calibrate(run.measured_ns)
        start = clock()
        with run.root("setup"):
            tracker = init_tracker(
                backend, **({"capture_output": True} if backend == "python" else {})
            )
            tracker.load_program(path)
            prepare(tracker)
            tracker.start(timeout=CONTROL_TIMEOUT)
        run.setup_done(clock() - start)
        if not setup_only:
            body(tracker)
            run.read_tracker_stats(tracker.get_stats())
    except Exception as error:  # a failed session is counted; the run goes on
        run.fail(_failure_message(error))
    finally:
        if tracker is not None:
            tracker.terminate()
        run.end_session()


def _tool_loop(
    run: Run,
    tracker: Any,
    control: Callable[..., None],
    inspect: Callable[[], Any],
    after: Callable[[Any], None],
) -> None:
    """Control call, then inspection, until the inferior exits.

    ``after`` receives each inspection's result off the clock.
    """
    while tracker.get_exit_code() is None:
        with run.root("pause"):
            began = clock()
            control(timeout=CONTROL_TIMEOUT)
            controlled = clock()
            exited = tracker.get_exit_code() is not None
            if not exited:
                seen = inspect()
        ended = clock()
        run.loop_ns += ended - began
        if exited:
            run.attempted += 1
            return
        run.paused(controlled - began, ended - controlled, ended - began)
        after(seen)
        run.recalibrate(run.measured_ns)


def step_session(
    backend: str, run: Run, inferior: Inferior, path: str,
    native: oracle.NativeResult, seed: int, setup_only: bool,
) -> None:
    """step-inspect / subproc-step: ``step()`` to exit, ``snapshot()`` at
    every pause."""

    def body(tracker: Any) -> None:
        last: List[Any] = [None]

        def after(snapshot: Any) -> None:
            last[0] = snapshot
            if run.tracer is not None:
                run.observe_tree(tracker, snapshot.to_dict())

        _tool_loop(run, tracker, tracker.step, tracker.snapshot, after)
        final = last[0]
        run.check(
            oracle.compare(
                native,
                final.globals if final is not None else None,
                tracker.get_output(),
                tracker.get_exit_code(),
            )
        )

    _session(run, backend, path, setup_only, lambda tracker: None, body)


def hunt_session(
    run: Run, inferior: Inferior, path: str, native: oracle.NativeResult,
    seed: int, setup_only: bool,
) -> None:
    """resume-hunt: ``resume()`` to exit through rare hits, reading one
    variable per hit."""
    names = inferior.names
    final_line = inferior.lines["final"]

    def prepare(tracker: Any) -> None:
        tracker.break_before_line(inferior.lines["hit"])
        tracker.break_before_func(names["rare"])
        for line in inferior.extra["never"]:
            tracker.break_before_line(line)
        tracker.break_before_line(final_line)
        tracker.watch(names["phase"])

    def body(tracker: Any) -> None:
        final: List[Any] = [None]
        hits = [0]

        def after(value: Any) -> None:
            if value is None:
                run.fail(f"{names['acc']} not visible at a pause")
            if tracker.get_position()[1] == final_line:
                final[0] = tracker.get_global_variables()
            else:
                hits[0] += 1
            if run.tracer is not None:
                run.observe_tree(tracker, tracker.snapshot().to_dict())

        # Scoped to the module frame, so reading it costs about the same
        # whether the pause is at module level or inside the function.
        _tool_loop(
            run, tracker, tracker.resume,
            lambda: tracker.get_variable(names["acc"], function="<module>"), after,
        )
        expected = inferior.extra["hits"]
        run.check([] if hits[0] == expected else [f"{hits[0]} hits, expected {expected}"])
        run.check(
            oracle.compare(native, final[0], tracker.get_output(), tracker.get_exit_code())
        )

    _session(run, "python", path, setup_only, prepare, body)


def _read_plan(inferior: Inferior, length: int, rng: random.Random) -> List[Tuple[str, Any]]:
    plan: List[Tuple[str, Any]] = []
    for kind, count in READ_MIX:
        for number in range(count):
            if kind == "at":
                plan.append((kind, rng.randrange(length)))
            elif kind == "history":
                names = inferior.extra["history"]
                plan.append((kind, names[number % len(names)]))
            elif kind == "calls":
                plan.append((kind, inferior.names["fold"]))
            else:
                plan.append((kind, inferior.extra["query"]))
    rng.shuffle(plan)
    return plan


def record_session(
    run: Run, inferior: Inferior, path: str, native: oracle.NativeResult,
    seed: int, setup_only: bool,
) -> None:
    """record-query: recorded ``step()`` to exit, then a seeded read mix
    over the recording, checked against a brute-force scan."""
    names = inferior.names

    def prepare(tracker: Any) -> None:
        tracker.track_function(names["fold"])
        tracker.enable_recording()

    def body(tracker: Any) -> None:
        def after(value: Any) -> None:
            if value is None:
                run.fail(f"{names['hot']} not visible at a pause")

        _tool_loop(
            run, tracker, tracker.step,
            lambda: tracker.get_variable(names["hot"]), after,
        )
        view = tracker.timeline_view()
        rng = random.Random(f"read:{seed}:{run.sessions}")
        answers: Dict[Tuple[str, Any], Any] = {}
        for kind, argument in _read_plan(inferior, len(view), rng):
            with run.root("read:" + kind):
                began = clock()
                if kind == "at":
                    answer: Any = view.at(argument)
                elif kind == "history":
                    answer = [(event.index, event.value) for event in view.history(argument)]
                elif kind == "calls":
                    answer = view.calls(argument)
                else:
                    answer = view.query(argument).indices
                elapsed = clock() - began
            run.read_ns += elapsed
            run.query_ms.append(elapsed * run.scale / 1e6)
            run.recalibrate(run.measured_ns)
            run.query_kinds[kind] += 1
            run.attempted += 1
            answers[(kind, argument)] = answer

        _check_recording(run, inferior, native, tracker, view, answers)
        if run.tracer is not None:
            run.timeline_bytes.append(tracker.timeline.stats()["json_bytes"])

    _session(run, "python", path, setup_only, prepare, body)


def _check_recording(
    run: Run, inferior: Inferior, native: oracle.NativeResult, tracker: Any,
    view: Any, answers: Dict[Tuple[str, Any], Any],
) -> None:
    """Brute force over ``at()``: final state, histories, where, calls."""
    acc = inferior.names["acc"]
    threshold = inferior.extra["threshold"]
    watched = inferior.extra["history"]
    histories: Dict[str, List[Tuple[int, Optional[str]]]] = {name: [] for name in watched}
    last: Dict[str, Any] = {name: object() for name in watched}
    matches: List[int] = []
    final = None
    for index in range(view.first_index, len(view)):
        snapshot = view.at(index)
        if run.tracer is not None:
            # The recorded tree, sized here rather than at record time so
            # the traced pauses neither pay for it nor keep every tree alive.
            run.observe_tree(tracker, snapshot.to_dict(), encoded=True)
        if snapshot.frame is not None:
            final = snapshot
        for name in watched:
            rendered = oracle.render(snapshot.lookup(name))
            if rendered is not None and rendered != last[name]:
                histories[name].append((index, rendered))
            last[name] = rendered
        value = oracle.render(snapshot.lookup(acc))
        if value is not None and float(value) > threshold:
            matches.append(index)
    run.check(
        oracle.compare(
            native,
            final.globals if final is not None else None,
            tracker.get_output(),
            tracker.get_exit_code(),
        )
    )
    for (kind, argument), answer in answers.items():
        if kind == "history":
            run.check(
                [] if answer == histories[argument]
                else [f"history({argument}) disagrees with a scan"]
            )
        elif kind == "where":
            run.check([] if answer == matches else [f"query({argument}) disagrees with a scan"])
        elif kind == "calls":
            complete = all(
                record.call_index is not None and record.return_index is not None
                for record in answer
            )
            run.check(
                [] if complete and len(answer) == inferior.extra["calls"]
                else [f"calls({argument}): {len(answer)} records"]
            )


# -- serve-step ----------------------------------------------------------


_LISTENING = re.compile(r"listening on \S+:(\d+)")


async def _listening_port(process: Any) -> int:
    while True:
        line = await asyncio.wait_for(process.stderr.readline(), timeout=30)
        if not line:
            raise RuntimeError("repro serve exited before listening")
        found = _LISTENING.search(line.decode("utf-8", "replace"))
        if found:
            return int(found.group(1))


async def _drain(stream: Any) -> None:
    while await stream.readline():
        pass


#: ``prctl`` option that makes orphaned descendants re-parent to the caller.
PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> bool:
    """Adopt this process's orphaned descendants (Linux only), so that
    :func:`_reap_group` can wait for them; ``False`` where unsupported."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def _reap_group(group: int, timeout: float = 10.0) -> None:
    """Kill whatever is left of process group ``group`` and wait until it
    is empty. A pool child whose spawn the service's shutdown cut short
    outlives ``repro serve``; as a subreaper this process inherits and
    reaps it, elsewhere it polls until the group is gone."""
    try:
        os.killpg(group, signal.SIGKILL)
    except ProcessLookupError:
        return
    give_up = time.monotonic() + timeout
    while time.monotonic() < give_up:
        try:
            os.waitpid(-group, 0)
            continue
        except ChildProcessError:
            pass  # no (more) adopted members; any left belong to others
        try:
            os.killpg(group, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


async def _stop(process: Any) -> None:
    """Stop ``repro serve`` (SIGTERM drains it) and every process it
    started. It runs in a session of its own, so its process group holds
    exactly its descendants."""
    if process.returncode is None:
        process.terminate()
        try:
            await asyncio.wait_for(process.wait(), timeout=20)
        except asyncio.TimeoutError:
            process.kill()
            await process.wait()
    _reap_group(process.pid)


async def _serve_drive(
    run: Run, tracker: Any, last_pause: List[int], seen: List[Tuple[Any, Any]]
) -> Optional[Dict[str, Any]]:
    """One session's tool loop. ``last_pause`` holds the wall time of the
    latest pause of any session; the traced run keeps what each pause
    fetched in ``seen`` and sizes it after the round, off the clock."""
    final = None
    while tracker.get_exit_code() is None:
        with run.root("pause"):
            began = clock()
            await tracker.step(timeout=CONTROL_TIMEOUT)
            stepped = clock()
            exited = tracker.get_exit_code() is not None
            if not exited:
                frame = await tracker.get_current_frame()
                variables = await tracker.get_global_variables()
        ended = clock()
        if exited:
            run.attempted += 1
            break
        run.paused(stepped - began, ended - stepped, ended - last_pause[0])
        final = variables
        # Between this session's calls; the other session's reply may wait
        # the few milliseconds this takes, about once every 250 ms.
        run.recalibrate(ended)
        last_pause[0] = clock()
        if run.tracer is not None:
            seen.append((frame, variables))
    return final


def _state_tree(frame: Any, variables: Dict[str, Any]) -> Dict[str, Any]:
    return {
        "frame": frame_to_dict(frame),
        "globals": {name: variable_to_dict(v) for name, v in variables.items()},
    }


async def _serve_round(
    run: Run, path: str, native: oracle.NativeResult, setup_only: bool
) -> None:
    """One service lifetime: spawn ``repro serve``, open two sessions on
    one connection, step both to exit concurrently, stop the service."""
    from repro.service.client import ServiceClient

    process = None
    client = None
    drain = None
    try:
        run.calibrate(clock())
        start = clock()
        with run.root("setup"):
            process = await asyncio.create_subprocess_exec(
                sys.executable, "-m", "repro", "serve", "--port", "0",
                "--pool", str(SERVE_SESSIONS),
                stdin=asyncio.subprocess.DEVNULL,
                stdout=asyncio.subprocess.DEVNULL,
                stderr=asyncio.subprocess.PIPE,
                start_new_session=True,
            )
            port = await _listening_port(process)
            drain = asyncio.ensure_future(_drain(process.stderr))
            client = await ServiceClient.connect("127.0.0.1", port)
            trackers = []
            for _ in range(SERVE_SESSIONS):
                trackers.append(await client.open_tracker(path))
            for tracker in trackers:
                await tracker.start(timeout=CONTROL_TIMEOUT)
        run.setup_done(clock() - start)
        if setup_only:
            return
        seen: List[List[Tuple[Any, Any]]] = [[] for _ in trackers]
        run.calibrate(clock())
        began = clock()
        run.loops_interrupted()
        last_pause = [began]
        finals = await asyncio.gather(
            *(_serve_drive(run, t, last_pause, pauses) for t, pauses in zip(trackers, seen))
        )
        run.loop_ns += clock() - began
        for tracker, pauses in zip(trackers, seen):
            for frame, variables in pauses:
                run.observe_tree(tracker, _state_tree(frame, variables))
        for tracker, final in zip(trackers, finals):
            run.check(
                oracle.compare(native, final, tracker.get_output(), tracker.get_exit_code())
            )
            run.read_tracker_stats(
                TrackerStats.from_dict(await tracker.execute("-tracker-stats"))
            )
        run.read_service_stats(await client.service_stats())
        for tracker in trackers:
            await tracker.close()
    except Exception as error:  # a failed round is counted; the run goes on
        run.fail(_failure_message(error))
    finally:
        if client is not None:
            await client.close()
        if process is not None:
            await _stop(process)
        if drain is not None:
            await drain
        run.end_session()


def serve_session(
    run: Run, inferior: Inferior, path: str, native: oracle.NativeResult,
    seed: int, setup_only: bool,
) -> None:
    asyncio.run(_serve_round(run, path, native, setup_only))


# ---------------------------------------------------------------------------
# Workload table and the run loop
# ---------------------------------------------------------------------------


class Workload:
    """A name, its program generator, and its session function."""

    def __init__(
        self,
        name: str,
        build: Callable[[int, int], Inferior],
        session: Callable[..., None],
        remote: bool,
    ) -> None:
        self.name = name
        self.build = build
        self.session = session
        #: remote workloads report the peak RSS of their largest child
        self.remote = remote

    def inferiors(self, seed: int) -> List[Inferior]:
        return [self.build(seed, v) for v in range(generator.VARIANTS)]


def _sorts(stream: str, size: int) -> Callable[[int, int], Inferior]:
    return lambda seed, variant: generator.sort_program(stream, seed, variant, size)


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "step-inspect", _sorts("step-inspect", SORT_SIZE),
            functools.partial(step_session, "python"), remote=False,
        ),
        Workload("record-query", generator.record_program, record_session, remote=False),
        Workload("resume-hunt", generator.hunt_program, hunt_session, remote=False),
        # The same programs as step-inspect: only the backend differs,
        # which isolates the MI pipe and the child server.
        Workload(
            "subproc-step", _sorts("step-inspect", SORT_SIZE),
            functools.partial(step_session, "python-subproc"), remote=True,
        ),
        Workload(
            "serve-step", _sorts("serve-step", SERVE_SORT_SIZE), serve_session,
            remote=True,
        ),
    )
}


def run_workload(
    workload: Workload, seed: int, seconds: float, workdir: str, run: Run,
    deadline: float,
) -> Run:
    """Repeat sessions until ``seconds`` of measured time, then pad set-up
    samples to :data:`MIN_SETUPS`. No session starts after ``deadline``
    (``time.monotonic()``); stopping short of the budget is a failure."""
    inferiors = workload.inferiors(seed)
    programs = []
    for variant, inferior in enumerate(inferiors):
        path = os.path.join(workdir, f"{workload.name}_{seed}_{variant}.py")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(inferior.source)
        programs.append((inferior, path, oracle.run_native(inferior.source, path)))
    budget = int(seconds * 1e9)
    index = 0
    while run.measured_ns < budget:
        if time.monotonic() > deadline:
            run.fail(f"wall-clock limit reached after {run.measured_ns / 1e9:.1f}s measured")
            break
        inferior, path, native = programs[index % len(programs)]
        workload.session(run, inferior, path, native, seed, False)
        index += 1
        if run.failed and run.measured_ns == 0:
            break  # nothing is being measured; stop instead of spinning
    while len(run.setup_s) < MIN_SETUPS and run.failed == 0 and time.monotonic() < deadline:
        inferior, path, native = programs[index % len(programs)]
        workload.session(run, inferior, path, native, seed, True)
        index += 1
    run.count_failure_counters()
    return run


def peak_rss_mb(remote: bool) -> float:
    """Peak RSS of this process, or of its largest (reaped) child."""
    who = resource.RUSAGE_CHILDREN if remote else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0
