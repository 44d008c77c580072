"""Cross-backend timeline parity.

The reverse control calls are backend-agnostic by construction — they
replay recorded snapshots instead of driving the inferior — so the same
program recorded under ``PythonTracker`` and under the MiniC debug server
(``GDBTracker``, where snapshots are captured *server-side* and fetched
over ``-timeline-dump``) must yield equivalent timelines: same pause
kinds, lines, depths, and variable values at every recorded pause, and
identical reverse-navigation behavior over them.

Mirrors :mod:`tests.test_maxdepth_semantics`: one recursive program
written twice with aligned line numbers. On a parity mismatch the two
timelines are saved as ``.timeline.json`` files under ``ARTIFACTS_DIR``
(default ``tests/_artifacts``) so CI can upload them for inspection.
"""

import os

import pytest

from repro.core.errors import NotPausedError
from repro.core.factory import init_tracker
from repro.core.pause import PauseReasonType
from repro.core.timeline import StateSnapshot

# rec(3) runs at depths 1..4 (module/main is depth 0); the x = n
# assignment sits on line 2 in both programs.
PY_PROGRAM = """\
def rec(n):
    x = n
    if n == 0:
        return 0
    return rec(n - 1)

rec(3)
"""

C_PROGRAM = """\
int rec(int n) {
    int x = n;
    if (n == 0) {
        return 0;
    }
    return rec(n - 1);
}

int main(void) {
    rec(3);
    return 0;
}
"""


def _record(tracker, path, keyframe_interval=16):
    """Record every breakpoint pause at line 2 until exit; keep paused
    trackers out: returns the tracker still alive, rewindable."""
    tracker.load_program(path)
    tracker.break_before_line(2)
    tracker.enable_recording(keyframe_interval=keyframe_interval)
    tracker.start()
    for _ in range(50):
        if tracker.get_exit_code() is not None:
            return tracker
        tracker.resume()
    pytest.fail("inferior did not terminate")


def _record_python(tmp_path, **kwargs):
    from repro.pytracker import PythonTracker

    path = tmp_path / "prog.py"
    path.write_text(PY_PROGRAM)
    return _record(PythonTracker(capture_output=True), str(path), **kwargs)


def _record_minic(tmp_path, **kwargs):
    from repro.gdbtracker import GDBTracker

    path = tmp_path / "prog.c"
    path.write_text(C_PROGRAM)
    return _record(GDBTracker(), str(path), **kwargs)


def _record_subproc(tmp_path, **kwargs):
    from repro.subproc import SubprocPythonTracker

    path = tmp_path / "prog.py"
    path.write_text(PY_PROGRAM)
    return _record(SubprocPythonTracker(), str(path), **kwargs)


def _record_mon(tmp_path, **kwargs):
    from repro.pytracker import MonitoringTracker
    from repro.pytracker.monitoring import HAVE_MONITORING, SKIP_REASON

    if not HAVE_MONITORING:
        pytest.skip(SKIP_REASON)
    path = tmp_path / "prog.py"
    path.write_text(PY_PROGRAM)
    return _record(MonitoringTracker(capture_output=True), str(path), **kwargs)


def _int_or(value):
    try:
        return int(value)
    except (TypeError, ValueError):
        return value


def _render(variable):
    if variable is None:
        return None
    value = variable.value
    while value.abstract_type.value == "ref" and value.content is not None:
        value = value.content
    return value.render()


def _normalize(snapshot: StateSnapshot):
    """Backend-independent projection of one recorded snapshot.

    The entry pause is collapsed to a marker: Python pauses on the first
    module line, MiniC inside ``main``, and that difference is inherent to
    the backends, not to the timeline machinery under test.
    """
    if snapshot.frame is None:
        return ("exit", snapshot.exit_code)
    if snapshot.depth == 0 and (
        snapshot.reason is None
        or snapshot.reason.type is PauseReasonType.STEP
    ):
        return ("entry",)
    kind = snapshot.reason.type.value if snapshot.reason else "step"
    value = _render(snapshot.lookup("x") or snapshot.lookup("n"))
    return (kind, snapshot.line, snapshot.depth, _int_or(value))


def _dump_artifacts(py_timeline, c_timeline):
    directory = os.environ.get(
        "ARTIFACTS_DIR", os.path.join(os.path.dirname(__file__), "_artifacts")
    )
    os.makedirs(directory, exist_ok=True)
    py_path = os.path.join(directory, "parity_python.timeline.json")
    c_path = os.path.join(directory, "parity_minic.timeline.json")
    py_timeline.save(py_path)
    c_timeline.save(c_path)
    return py_path, c_path


def _assert_parity(py_timeline, c_timeline):
    py_states = [_normalize(s) for s in py_timeline.snapshots()]
    c_states = [_normalize(s) for s in c_timeline.snapshots()]
    if py_states != c_states:
        py_path, c_path = _dump_artifacts(py_timeline, c_timeline)
        pytest.fail(
            "timeline parity mismatch (artifacts saved to "
            f"{py_path} and {c_path}):\n"
            f"  python: {py_states}\n"
            f"  minic:  {c_states}"
        )


def test_recorded_timelines_agree(tmp_path):
    python = _record_python(tmp_path)
    minic = _record_minic(tmp_path)
    try:
        # entry pause + 4 breakpoint hits (depths 1..4) + exit snapshot
        assert python.timeline.retained == 6
        assert minic.timeline.retained == 6
        _assert_parity(python.timeline, minic.timeline)
    finally:
        python.terminate()
        minic.terminate()


def test_reverse_navigation_parity(tmp_path):
    """backward_step walks both backends through identical states."""
    python = _record_python(tmp_path)
    minic = _record_minic(tmp_path)
    try:
        rewound = {"python": [], "minic": []}
        for name, tracker in (("python", python), ("minic", minic)):
            for _ in range(tracker.timeline.retained - 1):
                tracker.timeline_view().backward_step()
                rewound[name].append(_normalize(tracker.snapshot()))
            with pytest.raises(NotPausedError):
                tracker.timeline_view().backward_step()
        assert rewound["python"] == rewound["minic"]
    finally:
        python.terminate()
        minic.terminate()


def test_goto_and_backward_resume_on_minic(tmp_path):
    """The GDB backend (remote recording) services the reverse calls."""
    tracker = _record_minic(tmp_path)
    try:
        timeline = tracker.timeline
        assert tracker.get_exit_code() is not None
        # Jump to the first breakpoint hit; inspection serves history.
        landed = tracker.timeline_view().goto(timeline.start_index + 1)
        assert landed.reason.type is PauseReasonType.BREAKPOINT
        assert tracker.get_position()[1] == 2
        variable = tracker.get_variable("x") or tracker.get_variable("n")
        assert variable is not None
        # backward_resume from live lands on the last breakpoint hit.
        tracker.timeline_view().goto(-1)
        tracker.timeline_view().backward_resume()
        assert tracker.snapshot().reason.type is PauseReasonType.BREAKPOINT
        assert tracker.snapshot().depth == 4
    finally:
        tracker.terminate()


def test_recorded_timeline_agrees_on_subproc(tmp_path):
    """The isolated Python backend records server-side (the hosted
    tracker's own recorder), yet the timeline must match the in-process
    one snapshot for snapshot."""
    python = _record_python(tmp_path)
    subproc = _record_subproc(tmp_path)
    try:
        assert subproc.timeline.retained == 6
        _assert_parity(python.timeline, subproc.timeline)
    finally:
        python.terminate()
        subproc.terminate()


def test_reverse_navigation_parity_on_subproc(tmp_path):
    python = _record_python(tmp_path)
    subproc = _record_subproc(tmp_path)
    try:
        rewound = {"python": [], "subproc": []}
        for name, tracker in (("python", python), ("subproc", subproc)):
            for _ in range(tracker.timeline.retained - 1):
                tracker.timeline_view().backward_step()
                rewound[name].append(_normalize(tracker.snapshot()))
            with pytest.raises(NotPausedError):
                tracker.timeline_view().backward_step()
        assert rewound["python"] == rewound["subproc"]
    finally:
        python.terminate()
        subproc.terminate()


def test_goto_and_backward_resume_on_subproc(tmp_path):
    """Reverse control calls are served from the child's recording."""
    tracker = _record_subproc(tmp_path)
    try:
        timeline = tracker.timeline
        assert tracker.get_exit_code() is not None
        landed = tracker.timeline_view().goto(timeline.start_index + 1)
        assert landed.reason.type is PauseReasonType.BREAKPOINT
        assert tracker.get_position()[1] == 2
        variable = tracker.get_variable("x") or tracker.get_variable("n")
        assert variable is not None
        tracker.timeline_view().goto(-1)
        tracker.timeline_view().backward_resume()
        assert tracker.snapshot().reason.type is PauseReasonType.BREAKPOINT
        assert tracker.snapshot().depth == 4
    finally:
        tracker.terminate()


def test_record_false_suppresses_on_subproc(tmp_path):
    """``record=False`` reaches the child as ``-timeline-drop-last``."""
    from repro.subproc import SubprocPythonTracker

    path = tmp_path / "prog.py"
    path.write_text(PY_PROGRAM)
    tracker = SubprocPythonTracker()
    tracker.load_program(str(path))
    tracker.enable_recording()
    tracker.start()
    length = len(tracker.timeline)
    tracker.step(record=False)
    assert len(tracker.timeline) == length
    tracker.step()
    assert len(tracker.timeline) == length + 1
    tracker.terminate()


def test_record_false_suppresses_on_minic(tmp_path):
    """``record=False`` reaches the server as ``-timeline-drop-last``."""
    from repro.gdbtracker import GDBTracker

    path = tmp_path / "prog.c"
    path.write_text(C_PROGRAM)
    tracker = GDBTracker()
    tracker.load_program(str(path))
    tracker.enable_recording()
    tracker.start()
    length = len(tracker.timeline)
    tracker.step(record=False)
    assert len(tracker.timeline) == length
    tracker.step()
    assert len(tracker.timeline) == length + 1
    tracker.terminate()


def test_recorded_timeline_agrees_on_monitoring(tmp_path):
    """The sys.monitoring backend reuses the settrace tracker's recorder
    wholesale, so its timeline must match snapshot for snapshot."""
    mon = _record_mon(tmp_path)
    python = _record_python(tmp_path)
    try:
        assert mon.timeline.retained == 6
        _assert_parity(python.timeline, mon.timeline)
    finally:
        python.terminate()
        mon.terminate()


def test_reverse_navigation_parity_on_monitoring(tmp_path):
    mon = _record_mon(tmp_path)
    python = _record_python(tmp_path)
    try:
        rewound = {"python": [], "mon": []}
        for name, tracker in (("python", python), ("mon", mon)):
            for _ in range(tracker.timeline.retained - 1):
                tracker.timeline_view().backward_step()
                rewound[name].append(_normalize(tracker.snapshot()))
            with pytest.raises(NotPausedError):
                tracker.timeline_view().backward_step()
        assert rewound["python"] == rewound["mon"]
    finally:
        python.terminate()
        mon.terminate()


# double_it(3) returns 6, double_it(6) returns 12. The RISC-V program is
# the one of test_gdbtracker's TestAssemblyRetScan: its exits come from
# the ret-scan, so the exit pause sits on the ``ret`` line (9).
ASM_DOUBLE_IT = """\
main:
    li a0, 3
    call double_it
    call double_it
    li a7, 93
    ecall
double_it:
    add a0, a0, a0
    ret
"""

C_DOUBLE_IT = """\
int double_it(int v) {
    return v + v;
}

int main(void) {
    int x = double_it(3);
    x = double_it(x);
    return 0;
}
"""

PY_DOUBLE_IT = """\
def double_it(v):
    return v + v

x = double_it(3)
x = double_it(x)
"""

#: case -> (backend, file name, source, line of the exit pause)
_DOUBLE_IT = {
    "asm": ("GDB", "prog.s", ASM_DOUBLE_IT, 9),
    "c": ("GDB", "prog.c", C_DOUBLE_IT, 2),
    "subproc": ("python-subproc", "prog.py", PY_DOUBLE_IT, 2),
}


@pytest.mark.parametrize("case", sorted(_DOUBLE_IT))
def test_recorded_pauses_match_live(case, tmp_path):
    """A server-side recording of ``track_function`` says what the live
    run said: the same pause kinds, counted as such by the stats, and
    queryable by return value, on every remote backend."""
    backend, filename, source, exit_line = _DOUBLE_IT[case]
    path = tmp_path / filename
    path.write_text(source)
    tracker = init_tracker(backend)
    try:
        tracker.load_program(str(path))
        tracker.track_function("double_it")
        tracker.enable_recording()
        tracker.start()
        live = [tracker.pause_reason.type]
        for _ in range(20):
            if tracker.get_exit_code() is not None:
                break
            tracker.resume()
            live.append(tracker.pause_reason.type)
            if live[-1] is PauseReasonType.RETURN:
                assert tracker.get_position()[1] == exit_line
                assert tracker.get_current_frame().name == "double_it"
        assert live[1:] == [
            PauseReasonType.CALL, PauseReasonType.RETURN,
            PauseReasonType.CALL, PauseReasonType.RETURN,
            PauseReasonType.EXIT,
        ]
        snapshots = list(tracker.timeline.snapshots())
        assert [snapshot.reason.type for snapshot in snapshots] == live
        for snapshot in snapshots:
            if snapshot.reason.type is PauseReasonType.RETURN:
                assert snapshot.line == exit_line
                assert snapshot.frame.name == "double_it"
        pauses = tracker.get_stats().pauses
        assert (pauses.get("call"), pauses.get("return")) == (2, 2)
        assert "breakpoint" not in pauses
        query = tracker.timeline_query("double_it() == 6")
        assert len(query["matches"]) == 1
    finally:
        tracker.terminate()


_RECORDERS = {
    "python": _record_python,
    "minic": _record_minic,
    "subproc": _record_subproc,
    "mon": _record_mon,
}


@pytest.mark.parametrize("recorder", sorted(_RECORDERS))
def test_replay_tracker_replays_either_backend(recorder, tmp_path):
    """Acceptance: a saved timeline from any backend drives the shared
    ReplayTracker — breakpoints re-fire and reverse calls work."""
    live = _RECORDERS[recorder](tmp_path)
    saved = str(tmp_path / f"{recorder}.timeline.json")
    try:
        live.timeline.save(saved)
    finally:
        live.terminate()

    replay = init_tracker("replay")
    replay.load_program(saved)
    replay.break_before_line(2)
    replay.start()
    hits = []
    while replay.get_exit_code() is None:
        replay.resume()
        if replay.get_exit_code() is None:
            reason = replay.pause_reason
            hits.append((reason.type.value, replay.get_position()[1]))
    assert hits == [("breakpoint", 2)] * 4
    replay.timeline_view().backward_step()
    assert replay.get_exit_code() is None
    replay.timeline_view().goto(replay.timeline.start_index)
    assert replay.step_index == replay.timeline.start_index
    replay.terminate()
