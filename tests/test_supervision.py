"""The supervised runtime under injected failure.

Three contracts from the robustness layer, each exercised end-to-end with
the fault harness (:mod:`repro.testing.faults`):

(a) a control call with a deadline on a never-pausing inferior returns a
    *paused* tracker within twice the deadline — on both the in-process
    PythonTracker and the subprocess-backed GDB tracker;
(b) after an injected server crash, the client restarts the backend and
    the previously installed control points still fire;
(c) when restarts are exhausted, the tracker degrades to a terminal
    unavailable state — an exception, never a hang.

Plus unit coverage of the supervision primitives themselves (Deadline,
BackoffPolicy, run_with_recovery) and of the wedged-inferior and
dead-server satellite fixes.
"""

import sys
import time

import pytest

from repro.core.errors import (
    BackendUnavailableError,
    ControlTimeout,
    ProtocolError,
    ServerCrashError,
    TrackerError,
)
from repro.core.pause import PauseReasonType
from repro.core.supervision import (
    BACKEND_RESTARTED,
    BACKEND_UNAVAILABLE,
    INFERIOR_INTERRUPTED,
    INFERIOR_WEDGED,
    BackoffPolicy,
    Deadline,
    run_with_recovery,
)
from repro.gdbtracker.tracker import GDBTracker
from repro.mi.client import MIClient
from repro.mi.transport import PipeTransport
from repro.pytracker.tracker import PythonTracker
from repro.testing.faults import (
    NEVER_PAUSING_C,
    NEVER_PAUSING_PY,
    FaultHarness,
    FaultPlan,
)

#: Fast backoff for tests: recovery in milliseconds, not seconds.
FAST = BackoffPolicy(max_restarts=2, initial_delay=0.01, max_delay=0.05)

BREAKPOINT_C = """\
int counter = 0;

int bump(int x) {
    counter = counter + x;
    return counter;
}

int main(void) {
    int i = 0;
    while (i < 5) {
        bump(i);
        i = i + 1;
    }
    return 0;
}
"""


# ---------------------------------------------------------------------------
# Unit: the primitives
# ---------------------------------------------------------------------------


class TestDeadline:
    def test_counts_down(self):
        deadline = Deadline(0.5)
        assert 0 < deadline.remaining() <= 0.5
        assert not deadline.expired()

    def test_expires(self):
        deadline = Deadline(0.01)
        time.sleep(0.03)
        assert deadline.expired()
        assert deadline.remaining() <= 0

    def test_rejects_nonpositive_timeouts(self):
        with pytest.raises(ValueError):
            Deadline(0.0)

    def test_grace_is_a_second_budget(self):
        deadline = Deadline(0.2)
        assert deadline.grace >= 0.05
        assert deadline.grace_remaining() > deadline.remaining()


class TestBackoffPolicy:
    def test_delays_grow_and_cap(self):
        policy = BackoffPolicy(
            max_restarts=5, initial_delay=0.1, multiplier=2.0, max_delay=0.3
        )
        assert list(policy.delays()) == [0.1, 0.2, 0.3, 0.3, 0.3]

    def test_zero_restarts_means_no_delays(self):
        assert list(BackoffPolicy(max_restarts=0).delays()) == []


class TestRunWithRecovery:
    def test_success_needs_no_restart(self):
        restarts = []
        result = run_with_recovery(
            lambda: 42, restart=restarts.append, policy=FAST
        )
        assert result == 42
        assert restarts == []

    def test_recovers_after_restart(self):
        calls = []

        def flaky():
            calls.append("call")
            if len(calls) == 1:
                raise ProtocolError("boom")
            return "ok"

        restarted = []
        result = run_with_recovery(
            flaky,
            restart=lambda error: None,
            policy=FAST,
            recoverable=(ProtocolError,),
            on_restarted=lambda error, attempt: restarted.append(attempt),
            sleep=lambda _: None,
        )
        assert result == "ok"
        assert restarted == [1]

    def test_exhausted_raises_unavailable(self):
        def always_broken():
            raise ProtocolError("down")

        unavailable = []
        with pytest.raises(BackendUnavailableError):
            run_with_recovery(
                always_broken,
                restart=lambda error: None,
                policy=BackoffPolicy(max_restarts=2, initial_delay=0),
                recoverable=(ProtocolError,),
                on_unavailable=unavailable.append,
                sleep=lambda _: None,
            )
        assert len(unavailable) == 1

    def test_failing_restart_counts_as_attempt(self):
        def broken():
            raise ProtocolError("down")

        def broken_restart(error):
            raise ProtocolError("respawn failed")

        with pytest.raises(BackendUnavailableError):
            run_with_recovery(
                broken,
                restart=broken_restart,
                policy=BackoffPolicy(max_restarts=3, initial_delay=0),
                recoverable=(ProtocolError,),
                sleep=lambda _: None,
            )

    def test_unrecoverable_error_passes_through(self):
        def wrong():
            raise TrackerError("a plain ^error reply")

        with pytest.raises(TrackerError):
            run_with_recovery(
                wrong,
                restart=lambda error: None,
                policy=FAST,
                recoverable=(ProtocolError,),
            )


# ---------------------------------------------------------------------------
# (a) deadline on a never-pausing inferior -> paused within 2x deadline
# ---------------------------------------------------------------------------


class TestDeadlineInterrupt:
    TIMEOUT = 0.4

    def _assert_interrupted(self, tracker):
        start = time.monotonic()
        tracker.resume(timeout=self.TIMEOUT)
        elapsed = time.monotonic() - start
        assert elapsed <= 2 * self.TIMEOUT + 0.2  # small scheduling slack
        assert tracker.get_exit_code() is None
        assert tracker.pause_reason.type is PauseReasonType.INTERRUPT
        stats = tracker.get_stats()
        assert stats.interrupts == 1
        kinds = [event.kind for event in tracker.drain_supervision_events()]
        assert INFERIOR_INTERRUPTED in kinds

    def test_python_tracker_interrupts(self, write_program):
        tracker = PythonTracker()
        tracker.load_program(write_program("spin.py", NEVER_PAUSING_PY))
        tracker.start()
        try:
            self._assert_interrupted(tracker)
            tracker.step()  # still controllable after the interrupt
            assert tracker.pause_reason.type is PauseReasonType.STEP
        finally:
            tracker.terminate()

    def test_gdb_tracker_interrupts(self, write_program):
        tracker = GDBTracker()
        tracker.load_program(write_program("spin.c", NEVER_PAUSING_C))
        tracker.start()
        try:
            self._assert_interrupted(tracker)
            tracker.step()
            assert tracker.pause_reason.type is PauseReasonType.STEP
        finally:
            tracker.terminate()

    def test_default_timeout_applies_to_all_control_calls(self, write_program):
        tracker = PythonTracker()
        tracker.default_timeout = self.TIMEOUT
        tracker.load_program(write_program("spin.py", NEVER_PAUSING_PY))
        tracker.start()
        try:
            self._assert_interrupted(tracker)
        finally:
            tracker.terminate()


# ---------------------------------------------------------------------------
# (b) injected crash -> restart -> control points still fire
# ---------------------------------------------------------------------------


class TestCrashRecovery:
    def test_breakpoints_survive_injected_crash(self, write_program):
        # Crash the server on a later command; by then the breakpoint and
        # watchpoint below have crossed the pipe and must be re-installed
        # from the client-side registry on restart.
        harness = FaultHarness(FaultPlan(crash_before_send=6))
        program = write_program("prog.c", BREAKPOINT_C)
        tracker = GDBTracker(
            restart_policy=FAST,
            transport_factory=harness.transport_factory(program),
        )
        harness.attach(tracker)
        tracker.load_program(program)
        tracker.break_before_func("bump")
        tracker.watch("counter")
        tracker.start()
        hits = []
        try:
            while tracker.get_exit_code() is None:
                tracker.resume()
                if tracker.get_exit_code() is None:
                    hits.append(tracker.pause_reason.type)
        finally:
            stats = tracker.get_stats()
            tracker.terminate()
        assert harness.injected == 1
        assert PauseReasonType.BREAKPOINT in hits  # fired after the restart
        assert PauseReasonType.WATCH in hits
        assert stats.backend_restarts == 1
        assert stats.faults_injected == 1
        assert stats.faults_recovered == 1

    def test_garbled_line_triggers_recovery(self, write_program):
        harness = FaultHarness(
            FaultPlan(garble_recv={3: '*stopped,{"reason": truncated'})
        )
        program = write_program("prog.c", BREAKPOINT_C)
        tracker = GDBTracker(
            restart_policy=FAST,
            transport_factory=harness.transport_factory(program),
        )
        harness.attach(tracker)
        tracker.load_program(program)
        tracker.break_before_func("bump")
        tracker.start()
        try:
            tracker.resume()
            assert tracker.pause_reason.type is PauseReasonType.BREAKPOINT
            stats = tracker.get_stats()
            assert stats.faults_injected == 1
        finally:
            tracker.terminate()

    def test_restart_emits_supervision_event(self, write_program):
        # sends: -file-exec-and-symbols(0), -break-insert(1),
        # -exec-run(2); the crash lands on the first -exec-continue(3)
        harness = FaultHarness(FaultPlan(crash_before_send=3))
        program = write_program("prog.c", BREAKPOINT_C)
        tracker = GDBTracker(
            restart_policy=FAST,
            transport_factory=harness.transport_factory(program),
        )
        harness.attach(tracker)
        tracker.load_program(program)
        tracker.break_before_func("bump")
        tracker.start()
        try:
            tracker.resume()
            kinds = [e.kind for e in tracker.drain_supervision_events()]
            assert BACKEND_RESTARTED in kinds
        finally:
            tracker.terminate()


# ---------------------------------------------------------------------------
# (c) exhausted restarts -> BackendUnavailable, never a hang
# ---------------------------------------------------------------------------


class TestGracefulDegradation:
    def _doomed_tracker(self, write_program):
        """A tracker whose server dies and whose respawns die instantly."""
        program = write_program("prog.c", BREAKPOINT_C)
        tracker = GDBTracker(
            restart_policy=BackoffPolicy(max_restarts=1, initial_delay=0.01)
        )
        tracker.load_program(program)
        tracker.start()
        tracker._client._transport._process.kill()
        tracker._client._transport._process.wait(timeout=5)
        tracker._client._transport_factory = lambda: PipeTransport(
            [sys.executable, "-c", "import sys; sys.exit(3)"]
        )
        return tracker

    def test_exhausted_restarts_raise_unavailable(self, write_program):
        tracker = self._doomed_tracker(write_program)
        try:
            with pytest.raises(BackendUnavailableError):
                tracker.resume()
            assert tracker.health == "unavailable"
            kinds = [e.kind for e in tracker.drain_supervision_events()]
            assert BACKEND_UNAVAILABLE in kinds
        finally:
            tracker.terminate()

    def test_unavailable_tracker_fails_fast(self, write_program):
        tracker = self._doomed_tracker(write_program)
        try:
            with pytest.raises(BackendUnavailableError):
                tracker.resume()
            start = time.monotonic()
            with pytest.raises(BackendUnavailableError):
                tracker.resume()  # no second recovery round
            assert time.monotonic() - start < 0.5
        finally:
            tracker.terminate()


# ---------------------------------------------------------------------------
# Satellite: the dead-server diagnosis and idempotent teardown
# ---------------------------------------------------------------------------


class TestDeadServerDiagnosis:
    def test_crash_error_carries_exit_code_and_stderr(self, write_program):
        program = write_program("prog.c", BREAKPOINT_C)
        client = MIClient(program)
        client._transport._process.kill()
        client._transport._process.wait(timeout=5)
        with pytest.raises(ServerCrashError) as info:
            client.execute("-stack-list-frames")
        assert info.value.exit_code == -9
        assert "exit code" in str(info.value)
        client.close()

    def test_stop_is_idempotent_after_crash(self, write_program):
        program = write_program("prog.c", BREAKPOINT_C)
        client = MIClient(program)
        client._transport._process.kill()
        client._transport._process.wait(timeout=5)
        client.stop()
        client.stop()
        client.close()
        assert not client.alive()

    def test_restart_revives_the_client(self, write_program):
        program = write_program("prog.c", BREAKPOINT_C)
        client = MIClient(program)
        client._transport._process.kill()
        client._transport._process.wait(timeout=5)
        client.restart()
        assert client.alive()
        assert client.restart_count == 1
        assert client.execute("-list-functions")
        client.close()


# ---------------------------------------------------------------------------
# Satellite: the wedged-inferior terminate path
# ---------------------------------------------------------------------------


class TestWedgedInferior:
    WEDGED_PY = """\
import time
time.sleep(60)
"""

    def _wedge(self, write_program):
        """A tracker whose inferior is stuck inside a native sleep.

        The settrace interrupt cannot land while the inferior sits in a C
        call, so the deadline degenerates to ControlTimeout and terminate
        cannot join the thread within its grace.
        """
        tracker = PythonTracker(terminate_grace=0.3)
        tracker.load_program(write_program("wedged.py", self.WEDGED_PY))
        tracker.start()
        with pytest.raises(ControlTimeout):
            tracker.resume(timeout=0.2)
        return tracker

    def test_terminate_marks_wedged_inferior_invalid(self, write_program):
        tracker = self._wedge(write_program)
        with pytest.warns(RuntimeWarning, match="did not exit"):
            tracker.terminate()
        assert tracker.health == "invalid"
        assert tracker.get_stats().wedged_inferiors == 1
        assert tracker.get_stats().control_timeouts == 1
        kinds = [e.kind for e in tracker.drain_supervision_events()]
        assert INFERIOR_WEDGED in kinds

    def test_wedged_warning_carries_the_inferior_stack(self, write_program):
        tracker = self._wedge(write_program)
        with pytest.warns(RuntimeWarning) as caught:
            tracker.terminate()
        text = str(caught[0].message)
        assert "sleep" in text  # where the inferior is actually stuck

    def test_invalid_tracker_rejects_control_calls(self, write_program):
        tracker = self._wedge(write_program)
        with pytest.warns(RuntimeWarning):
            tracker.terminate()
        with pytest.raises(BackendUnavailableError):
            tracker.resume()


# ---------------------------------------------------------------------------
# The stats surface: recovery counters are visible via get_stats()
# ---------------------------------------------------------------------------


class TestStatsSurface:
    def test_supervision_counters_round_trip(self):
        from repro.core.engine import TrackerStats

        stats = TrackerStats(
            interrupts=1,
            control_timeouts=2,
            backend_restarts=3,
            wedged_inferiors=4,
            faults_injected=5,
            faults_recovered=6,
        )
        clone = TrackerStats.from_dict(stats.to_dict())
        assert clone.interrupts == 1
        assert clone.control_timeouts == 2
        assert clone.backend_restarts == 3
        assert clone.wedged_inferiors == 4
        assert clone.faults_injected == 5
        assert clone.faults_recovered == 6

    def test_merged_adds_supervision_counters(self):
        from repro.core.engine import TrackerStats

        merged = TrackerStats(interrupts=1, backend_restarts=1).merged(
            TrackerStats(interrupts=2, faults_injected=1)
        )
        assert merged.interrupts == 3
        assert merged.backend_restarts == 1
        assert merged.faults_injected == 1
