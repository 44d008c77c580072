"""Hostile inferiors: every case ends paused or terminated, never hung.

The robustness contract of the tracker API is that a control call
*returns* — with the inferior paused or terminated — no matter what the
inferior does: exit behind the tracker's back, tamper with the tracing
machinery, recurse to death, allocate without bound, or spin forever.
This suite throws each of those at both Python backends:

- ``python`` — the in-process settrace tracker, which must contain what
  is containable in-process (tampering, recursion, instant allocation
  failure) and interrupt what is not (spinning);
- ``python-subproc`` — the subprocess-isolated tracker, which must
  additionally survive what kills a whole interpreter (``os._exit``,
  resource blow-ups under ``setrlimit`` caps).

A hang is the one unacceptable outcome; the per-test timeout is the
tripwire, and every control loop is bounded.
"""

import pytest

from repro.core.errors import TrackerError
from repro.core.pause import PauseReasonType
from repro.pytracker.tracker import PythonTracker
from repro.subproc.limits import XCPU_EXIT_CODE, ResourceLimits
from repro.subproc.tracker import SubprocPythonTracker

BACKENDS = ["python", "python-subproc"]


def make_tracker(backend, **kwargs):
    if backend == "python":
        kwargs.pop("resource_limits", None)
        return PythonTracker(capture_output=True, **kwargs)
    return SubprocPythonTracker(**kwargs)


def run_to_exit(tracker, max_pauses=200):
    tracker.start()
    for _ in range(max_pauses):
        if tracker.get_exit_code() is not None:
            return tracker
        tracker.resume()
    pytest.fail("inferior did not terminate within the pause budget")


@pytest.fixture(params=BACKENDS)
def backend(request):
    return request.param


class TestExitsBehindTheTrackersBack:
    def test_sys_exit_is_a_clean_termination(self, backend, write_program):
        tracker = make_tracker(backend)
        tracker.load_program(
            write_program("prog.py", "import sys\nx = 1\nsys.exit(3)\n")
        )
        run_to_exit(tracker)
        assert tracker.get_exit_code() == 3
        assert tracker.pause_reason.type is PauseReasonType.EXIT
        tracker.terminate()

    def test_unhandled_error_terminates_with_code_one(
        self, backend, write_program
    ):
        tracker = make_tracker(backend)
        tracker.load_program(
            write_program("prog.py", "x = 1\nraise RuntimeError('hostile')\n")
        )
        run_to_exit(tracker)
        assert tracker.get_exit_code() == 1
        tracker.terminate()

    def test_os_exit_only_kills_the_child(self, write_program):
        """``os._exit`` skips atexit, finally blocks and the tracing
        teardown — in-process it would take the tool down with it; the
        subprocess backend reports it as the inferior's death."""
        tracker = make_tracker("python-subproc")
        tracker.load_program(
            write_program("prog.py", "import os\nx = 1\nos._exit(7)\n")
        )
        run_to_exit(tracker)
        assert tracker.get_exit_code() == 7
        assert tracker.pause_reason.type is PauseReasonType.EXIT
        kinds = [e.kind for e in tracker.drain_supervision_events()]
        assert "inferior-process-died" in kinds
        # dead means dead: further control calls are typed errors
        with pytest.raises(TrackerError):
            tracker.resume()
        tracker.terminate()
        tracker.terminate()  # idempotent


TAMPER_PROGRAM = """\
import sys
sys.settrace(None)
for i in range(5):
    x = i
y = "done"
z = 1
"""


class TestSettraceTampering:
    def test_breakpoints_survive_settrace_none(self, backend, write_program):
        tracker = make_tracker(backend)
        tracker.load_program(write_program("prog.py", TAMPER_PROGRAM))
        tracker.break_before_line(5)
        tracker.start()
        hits = 0
        for _ in range(50):
            if tracker.get_exit_code() is not None:
                break
            tracker.resume()
            if tracker.pause_reason.type is PauseReasonType.BREAKPOINT:
                hits += 1
        # the tamper guard re-armed tracing: the breakpoint still fired
        assert hits == 1
        assert tracker.get_stats().settrace_tamperings >= 1
        tracker.terminate()

    def test_watch_survives_settrace_none(self, backend, write_program):
        tracker = make_tracker(backend)
        tracker.load_program(write_program("prog.py", TAMPER_PROGRAM))
        tracker.watch("y")
        tracker.start()
        hits = []
        for _ in range(50):
            if tracker.get_exit_code() is not None:
                break
            tracker.resume()
            reason = tracker.pause_reason
            if reason.type is PauseReasonType.WATCH:
                hits.append((reason.variable, reason.new_value))
        assert ("y", "'done'") in hits
        tracker.terminate()

    def test_clean_program_counts_no_tampering(self, backend, write_program):
        source = "def f(v):\n    return len([v])\n\nfor i in range(5):\n    x = f(i)\n"
        tracker = make_tracker(backend)
        tracker.load_program(write_program("prog.py", source))
        tracker.break_before_line(5)
        run_to_exit(tracker)
        assert tracker.get_stats().settrace_tamperings == 0
        tracker.terminate()


class TestResourceBombs:
    def test_deep_recursion_is_a_clean_exit(self, backend, write_program):
        source = "def f():\n    return f()\nf()\n"
        tracker = make_tracker(backend)
        tracker.load_program(write_program("prog.py", source))
        run_to_exit(tracker)
        assert tracker.get_exit_code() == 1  # RecursionError, unhandled
        tracker.terminate()

    def test_instant_memory_bomb_is_contained(self, backend, write_program):
        # One impossible allocation: raises MemoryError immediately on
        # both backends without actually consuming the memory.
        source = "x = [0] * (10 ** 12)\n"
        tracker = make_tracker(backend)
        tracker.load_program(write_program("prog.py", source))
        run_to_exit(tracker)
        assert tracker.get_exit_code() == 1
        tracker.terminate()

    def test_incremental_memory_bomb_hits_the_rlimit(self, write_program):
        """A gradual allocator would genuinely consume the tool's memory
        in-process; under RLIMIT_AS the child fails cleanly instead."""
        source = (
            "x = []\n"
            "while True:\n"
            "    x.append('a' * (1 << 20))\n"
        )
        tracker = make_tracker(
            "python-subproc",
            resource_limits=ResourceLimits(address_space=512 * 1024 * 1024),
        )
        tracker.load_program(write_program("prog.py", source))
        run_to_exit(tracker, max_pauses=20)
        # MemoryError inside the child (clean exit 1) or, if the
        # allocator aborted outright, the child's death code — terminal
        # either way, and the tool process is untouched.
        assert tracker.get_exit_code() is not None
        tracker.terminate()

    def test_cpu_spin_dies_at_the_cpu_limit(self, write_program):
        tracker = make_tracker(
            "python-subproc",
            resource_limits=ResourceLimits(cpu_seconds=1),
        )
        tracker.load_program(
            write_program("prog.py", "while True:\n    pass\n")
        )
        run_to_exit(tracker, max_pauses=20)
        assert tracker.get_exit_code() == XCPU_EXIT_CODE
        tracker.terminate()

    def test_cpu_spin_is_interruptible_by_deadline(
        self, backend, write_program
    ):
        """Without rlimits, the deadline path must still win: resume on a
        spinning inferior returns within ~2x the timeout, paused."""
        tracker = make_tracker(backend)
        tracker.load_program(
            write_program("prog.py", "while True:\n    pass\n")
        )
        tracker.start()
        tracker.resume(timeout=0.5)
        assert tracker.get_exit_code() is None
        assert tracker.pause_reason.type is PauseReasonType.INTERRUPT
        tracker.terminate()


class TestOutputFlood:
    def test_output_flood_is_bounded_in_process(self, write_program):
        source = (
            "for i in range(2000):\n"
            "    print('x' * 100)\n"
        )
        tracker = PythonTracker(capture_output=True, output_limit=10_000)
        tracker.load_program(write_program("prog.py", source))
        run_to_exit(tracker)
        output = tracker.get_output()
        assert len(output) <= 10_000
        assert tracker.get_stats().output_chars_dropped > 0
        # the newest output is what survives
        assert output.endswith("x" * 100 + "\n")
        tracker.terminate()

    def test_output_flood_does_not_wedge_the_subproc_pipe(
        self, write_program
    ):
        source = (
            "for i in range(2000):\n"
            "    print('x' * 100)\n"
        )
        tracker = make_tracker("python-subproc")
        tracker.load_program(write_program("prog.py", source))
        run_to_exit(tracker)
        assert tracker.get_exit_code() == 0
        assert tracker.get_output().endswith("x" * 100 + "\n")
        tracker.terminate()
