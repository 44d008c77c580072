"""The queryable trace store: index, spill, TimelineView, query grammar.

Covers the PR's tentpole pieces: incremental index maintenance from the
codec's own diff patches (and its parity with a scan-built index), the
``.tracedir/`` spill layout (eviction moves segments to disk; reads load
them back lazily), the unified :class:`TimelineView` query API over live
and reopened recordings, the query expression grammar, typed
:class:`TraceStoreError` on corruption, and navigation through the view.
"""

import json
import os
import warnings

import pytest

from repro.api import TimelineView, TraceStoreError, parse_query
from repro.core.errors import TrackerError
from repro.core.pause import PauseReason, PauseReasonType
from repro.core.state import AbstractType, Value, Variable
from repro.core.timeline import (
    EVENT_CALL,
    EVENT_RETURN,
    StateSnapshot,
    Timeline,
    load_timeline,
)
from repro.core.tracestore import (
    SegmentSpool,
    TraceIndex,
    TraceStore,
    changed_variable_ids,
    open_spooled_timeline,
)
from repro.pytracker import PythonTracker

PROGRAM = """\
def f(n):
    y = n * 2
    return y

x = 0
heap = []
for i in range(5):
    x = f(i)
    heap.append(i)
done = True
"""


@pytest.fixture
def program(tmp_path):
    path = tmp_path / "prog.py"
    path.write_text(PROGRAM)
    return str(path)


def _record(program, **kwargs):
    """Step a program to completion with recording (and f tracked)."""
    tracker = PythonTracker()
    tracker.load_program(program)
    tracker.enable_recording(**kwargs)
    tracker.start()
    tracker.track_function("f")
    for _ in range(500):
        if tracker.get_exit_code() is not None:
            return tracker
        tracker.step()
    pytest.fail("inferior did not terminate")


# ---------------------------------------------------------------------------
# The inverted index
# ---------------------------------------------------------------------------


class TestTraceIndex:
    def test_record_time_index_matches_scan_built(self, program):
        """The incrementally-maintained index (observing the codec's own
        patches) must be identical to one built by scanning the stored
        recording — the guarantee that lets queries trust either."""
        tracker = _record(program, keyframe_interval=4)
        live = tracker._trace_index
        assert live is not None
        scan = TimelineView(tracker.timeline).ensure_index()
        assert live.to_dict() == scan.to_dict()
        tracker.terminate()

    def test_change_indices_plain_name_merges_scopes(self, program):
        tracker = _record(program, keyframe_interval=4)
        index = tracker._trace_index
        # 'y' exists only as a local of f; the plain name finds it.
        assert index.change_indices("y") == index.change_indices("f:y")
        assert index.change_indices("y")
        tracker.terminate()

    def test_call_records_pair_calls_with_returns(self, program):
        tracker = _record(program, keyframe_interval=4)
        records = tracker._trace_index.call_records("f")
        assert len(records) == 5
        for position, record in enumerate(records):
            assert record["call"] is not None
            assert record["return"] is not None
            assert record["call"] < record["return"]
            assert record["returned"] == str(position * 2)
        tracker.terminate()

    def test_reason_indices(self, program):
        tracker = _record(program, keyframe_interval=4)
        index = tracker._trace_index
        timeline = tracker.timeline
        for reason in ("call", "return"):
            for position in index.reason_indices(reason):
                snapshot = timeline.snapshot(position)
                assert snapshot.reason.type.value == reason
        tracker.terminate()

    def test_forget_rolls_back_the_last_observation(self):
        index = TraceIndex()
        tree_a = _snapshot_tree(line=1, variables={"x": 1})
        tree_b = _snapshot_tree(line=2, variables={"x": 2})
        index.observe(0, None, tree_a, None)
        before = json.loads(json.dumps(index.to_dict()))
        from repro.core.timeline import diff_tree

        index.observe(1, tree_a, tree_b, diff_tree(tree_a, tree_b))
        assert index.forget(1)
        after = index.to_dict()
        before["observed"] = after["observed"]  # high-water mark may stay
        assert after["changes"] == before["changes"]
        assert after["reasons"] == before["reasons"]

    def test_index_survives_serialization(self, program):
        tracker = _record(program, keyframe_interval=4)
        index = tracker._trace_index
        clone = TraceIndex.from_dict(
            json.loads(json.dumps(index.to_dict()))
        )
        assert clone.to_dict() == index.to_dict()
        assert clone.change_indices("x") == index.change_indices("x")
        tracker.terminate()


def _snapshot_tree(line, variables):
    return StateSnapshot(
        frame=None,
        globals={
            name: Variable(
                name=name,
                value=Value(
                    abstract_type=AbstractType.PRIMITIVE, content=value
                ),
                scope="global",
            )
            for name, value in variables.items()
        },
        line=line,
    ).to_dict()


class TestChangeExtraction:
    def test_first_snapshot_counts_all_visible_variables(self):
        tree = _snapshot_tree(line=1, variables={"x": 1, "y": 2})
        assert changed_variable_ids(None, tree, None) == {"x", "y"}

    def test_patch_names_only_the_changed_variable(self):
        from repro.core.timeline import diff_tree

        old = _snapshot_tree(line=1, variables={"x": 1, "y": 2})
        new = _snapshot_tree(line=2, variables={"x": 5, "y": 2})
        changed = changed_variable_ids(old, new, diff_tree(old, new))
        assert changed == {"x"}


# ---------------------------------------------------------------------------
# Spill parity: in-memory vs spilled-to-disk recordings answer alike
# ---------------------------------------------------------------------------


class TestSpillParity:
    def test_where_and_history_identical_after_spill(self, program, tmp_path):
        reference = _record(program, keyframe_interval=4)
        spilled = _record(
            program,
            keyframe_interval=4,
            max_snapshots=5,  # tiny: forces nearly everything to disk
            tracedir=str(tmp_path / "run.tracedir"),
        )
        assert spilled.timeline.start_index > 0  # eviction really happened
        assert spilled.timeline.first_index == 0  # ... but nothing was lost
        view_a = reference.timeline_view()
        view_b = spilled.timeline_view()
        for name in ("x", "heap", "y", "done"):
            assert [
                (event.index, event.value) for event in view_a.history(name)
            ] == [(event.index, event.value) for event in view_b.history(name)]
        for predicate in ("len(heap) > 3", "x >= 4", "x changed", "f() == 6"):
            assert view_a.where(predicate) == view_b.where(predicate)
        reference.terminate()
        spilled.terminate()

    def test_sealed_tracedir_reopens_with_identical_answers(
        self, program, tmp_path
    ):
        tracedir = str(tmp_path / "run.tracedir")
        tracker = _record(
            program, keyframe_interval=4, max_snapshots=5, tracedir=tracedir
        )
        live_history = [
            (event.index, event.value)
            for event in tracker.timeline_view().history("x")
        ]
        live_len = len(tracker.timeline)
        tracker.terminate()  # seals the store

        view = TimelineView.open(tracedir)
        assert len(view) == live_len
        assert view.first_index == 0
        # The record-time index was persisted in the manifest.
        assert view.index is not None
        assert [
            (event.index, event.value) for event in view.history("x")
        ] == live_history
        # Snapshots reconstruct lazily from the mmap'd segment files.
        assert view.at(0).line is not None
        assert view.at(-1).exit_code == 0

    def test_load_timeline_opens_a_tracedir(self, program, tmp_path):
        tracedir = str(tmp_path / "run.tracedir")
        tracker = _record(program, keyframe_interval=4, tracedir=tracedir)
        count = len(tracker.timeline)
        tracker.terminate()
        timeline = load_timeline(tracedir)
        assert len(timeline) == count
        assert timeline.snapshot(0).line is not None

    def test_goto_reaches_spilled_snapshots(self, program, tmp_path):
        tracker = _record(
            program,
            keyframe_interval=4,
            max_snapshots=5,
            tracedir=str(tmp_path / "run.tracedir"),
        )
        view = tracker.timeline_view()
        assert tracker.timeline.start_index > 0
        snapshot = view.goto(0)  # before the in-memory window
        assert snapshot.line is not None
        assert view.position == 0
        view.goto(-1)
        tracker.terminate()

    def test_eviction_without_spool_still_drops(self, program):
        tracker = _record(program, keyframe_interval=4, max_snapshots=5)
        timeline = tracker.timeline
        assert timeline.start_index > 0
        assert timeline.first_index == timeline.start_index
        with pytest.raises(TrackerError):
            tracker.timeline_view().goto(0)
        tracker.terminate()


# ---------------------------------------------------------------------------
# Corruption: typed errors, never stack traces
# ---------------------------------------------------------------------------


class TestCorruption:
    def _sealed_tracedir(self, program, tmp_path):
        tracedir = str(tmp_path / "run.tracedir")
        tracker = _record(
            program, keyframe_interval=4, max_snapshots=5, tracedir=tracedir
        )
        tracker.terminate()
        return tracedir

    def test_corrupt_manifest_raises_typed_error(self, program, tmp_path):
        tracedir = self._sealed_tracedir(program, tmp_path)
        with open(os.path.join(tracedir, "manifest.json"), "w") as handle:
            handle.write("{definitely not json")
        with pytest.raises(TraceStoreError):
            TimelineView.open(tracedir)

    def test_wrong_format_manifest_raises_typed_error(
        self, program, tmp_path
    ):
        tracedir = self._sealed_tracedir(program, tmp_path)
        with open(os.path.join(tracedir, "manifest.json"), "w") as handle:
            json.dump({"format": "something-else"}, handle)
        with pytest.raises(TraceStoreError):
            TimelineView.open(tracedir)

    def test_missing_directory_raises_typed_error(self, tmp_path):
        with pytest.raises(TraceStoreError):
            SegmentSpool.open(str(tmp_path / "nope.tracedir"))

    def test_missing_path_raises_typed_error(self, tmp_path):
        with pytest.raises(TraceStoreError):
            TimelineView.open(str(tmp_path / "nope.timeline.json"))

    def test_corrupt_segment_raises_typed_error(self, program, tmp_path):
        tracedir = self._sealed_tracedir(program, tmp_path)
        segment = sorted(
            name
            for name in os.listdir(tracedir)
            if name.startswith("segment-")
        )[0]
        with open(os.path.join(tracedir, segment), "w") as handle:
            handle.write("garbage")
        view = TimelineView.open(tracedir)  # manifest alone is fine (lazy)
        with pytest.raises(TraceStoreError):
            view.at(0)

    def test_cli_surfaces_error_exit_2(self, program, tmp_path, capsys):
        from repro.cli import main

        tracedir = self._sealed_tracedir(program, tmp_path)
        with open(os.path.join(tracedir, "manifest.json"), "w") as handle:
            handle.write("{broken")
        assert main(["timeline", "query", "--tracedir", tracedir, "x",
                     "changed"]) == 2
        assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# TimelineView queries
# ---------------------------------------------------------------------------


class TestTimelineView:
    def test_history_orders_change_events(self, program):
        tracker = _record(program, keyframe_interval=4)
        events = tracker.timeline_view().history("x")
        assert [event.value for event in events] == ["0", "2", "4", "6", "8"]
        assert events == sorted(events, key=lambda event: event.index)
        tracker.terminate()

    def test_last_change(self, program):
        tracker = _record(program, keyframe_interval=4)
        view = tracker.timeline_view()
        last = view.last_change("x")
        assert last.value == "8"
        assert last.index == view.history("x")[-1].index
        assert view.last_change("no_such_variable") is None
        tracker.terminate()

    def test_calls_filter_by_return_value(self, program):
        tracker = _record(program, keyframe_interval=4)
        view = tracker.timeline_view()
        assert len(view.calls("f")) == 5
        matching = view.calls("f", returned="4")
        assert len(matching) == 1
        assert matching[0].returned == "4"
        tracker.terminate()

    def test_where_callable_predicate(self, program):
        tracker = _record(program, keyframe_interval=4)
        view = tracker.timeline_view()
        deep = view.where(lambda snapshot: snapshot.depth > 0)
        assert deep
        assert all(view.at(i).depth > 0 for i in deep)
        tracker.terminate()

    def test_changes_between(self, program):
        tracker = _record(program, keyframe_interval=4)
        view = tracker.timeline_view()
        first_x = view.history("x")[0].index
        last_x = view.history("x")[-1].index
        diff = view.changes_between(first_x, last_x)
        assert diff["variables"]["x"]["old"] == "0"
        assert diff["variables"]["x"]["new"] == "8"
        tracker.terminate()

    def test_invalid_return_values_match_INVALID(self):
        timeline = Timeline(keyframe_interval=4)
        invalid = Value(abstract_type=AbstractType.INVALID, content=None)
        for position, event in enumerate([EVENT_CALL, EVENT_RETURN]):
            reason = PauseReason(
                type=(
                    PauseReasonType.CALL
                    if event == EVENT_CALL
                    else PauseReasonType.RETURN
                ),
                function="g",
                return_value=invalid if event == EVENT_RETURN else None,
                line=position + 1,
            )
            timeline.append(
                StateSnapshot(
                    frame=None,
                    globals={},
                    line=position + 1,
                    reason=reason,
                    event=event,
                    func_name="g",
                )
            )
        view = TimelineView(timeline)
        matches = view.query("g() == INVALID").matches
        assert len(matches) == 1
        assert matches[0]["returned"] == "<invalid>"

    def test_unbound_view_refuses_navigation(self, program):
        tracker = _record(program, keyframe_interval=4)
        view = TimelineView(tracker.timeline)
        with pytest.raises(TrackerError):
            view.goto(0)
        tracker.terminate()

    def test_mi_timeline_query_command(self, tmp_path):
        from repro.subproc.server import PythonDebugServer

        path = tmp_path / "prog.py"
        path.write_text(PROGRAM)
        server = PythonDebugServer(str(path))
        try:
            assert server.handle("-timeline-start")[0].startswith("^done")
            server.handle("-exec-run")
            for _ in range(200):
                if "exited" in "".join(server.handle("-exec-step")):
                    break
            reply = server.handle('-timeline-query "x changed"')[0]
            assert reply.startswith("^done")
            payload = json.loads(reply[len("^done,"):])
            assert payload["kind"] == "history"
            assert [m["value"] for m in payload["matches"]] == [
                "0", "2", "4", "6", "8",
            ]
            bad = server.handle("-timeline-query nonsense ~~ 3")[0]
            assert bad.startswith("^error")
        finally:
            server.handle("-gdb-exit")


# ---------------------------------------------------------------------------
# The query grammar
# ---------------------------------------------------------------------------


class TestQueryGrammar:
    def test_parse_forms(self):
        assert parse_query("x changed").kind == "changed"
        assert parse_query("f() == INVALID").kind == "calls"
        assert parse_query("len(heap) > 100").kind == "len"
        assert parse_query("x >= 7").kind == "var"
        query = parse_query("f:y != 'abc'")
        assert query.kind == "var"
        assert query.name == "f:y"

    def test_parse_rejects_nonsense_with_typed_error(self):
        for text in ("", "x", "f(", "x ~~ 3", "== 3"):
            with pytest.raises(TraceStoreError):
                parse_query(text)

    def test_value_predicates(self, program):
        tracker = _record(program, keyframe_interval=4)
        view = tracker.timeline_view()
        geq = view.where("x >= 4")
        assert geq
        # Matches start exactly where history says x first reached 4,
        # and the complementary predicate is disjoint ...
        threshold = next(
            event.index
            for event in view.history("x")
            if int(event.value) >= 4
        )
        assert min(geq) >= threshold
        assert set(geq).isdisjoint(view.where("x < 4"))
        # ... and string comparison handles quotes either way.
        assert view.where("done == True") == view.where("done == 'True'")
        tracker.terminate()


# ---------------------------------------------------------------------------
# Navigation through the view
# ---------------------------------------------------------------------------


class TestDeprecatedNavigation:
    def test_view_navigation_does_not_warn(self, program):
        tracker = _record(program, keyframe_interval=4)
        view = tracker.timeline_view()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("error", DeprecationWarning)
            view.goto(2)
            view.backward_step()
            view.backward_resume()
        assert caught == []
        tracker.terminate()
