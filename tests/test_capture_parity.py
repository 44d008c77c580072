"""Differential parity of recorded pauses against the reference capture.

A recorded pause is encoded straight from the live objects
(``Tracker._capture_tree``; on the Python backends a
:class:`repro.pytracker.introspect.TreeEncoder` that reuses what the last
pause encoded). The reference is the public inspection path:
``tracker.snapshot().to_dict()`` — ``Snapshotter`` + ``value_to_dict``.
At every pause, the stored tree and the stored patch must serialize
byte for byte like the reference tree and ``diff_tree`` of consecutive
reference trees: cycle cuts, truncation marks, capture limits and all.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.timeline import Timeline, diff_tree
from repro.pytracker import PythonTracker
from repro.pytracker.introspect import CaptureLimits

KEYFRAME_INTERVAL = 4
MAX_PAUSES = 600

INFERIORS = {
    "aliasing": """\
__version__ = "1.0"  # a global the module frame's locals do not show
shared = [1, 2, 3]
alias = shared
table = {"a": shared, "b": [shared, alias]}

def touch(item):
    local = shared
    local.append(item)
    table["c"] = local
    return len(local)

for n in range(3):
    touch(n)
alias = [0]
shared.pop()
""",
    "self_reference": """\
items = [1]
items.append(items)
mapping = {"k": 1}
mapping["self"] = mapping
pair = [items, mapping]
items.append(mapping)
mapping["items"] = items
items[0] = 2
del mapping["k"]
""",
    "doubly_linked": """\
class Node:
    def __init__(self, value):
        self.value = value
        self.prev = None
        self.next = None

head = Node(0)
tail = head
for value in range(1, 6):
    node = Node(value)
    node.prev = tail
    tail.next = node
    tail = node
head.value = 10
tail.prev.value = 20
middle = head.next.next
""",
    "parent_tree": """\
class Tree:
    def __init__(self, label, parent=None):
        self.label = label
        self.parent = parent
        self.children = []
        if parent is not None:
            parent.children.append(self)

root = Tree("root")
left = Tree("left", root)
right = Tree("right", root)
leaf = Tree("leaf", left)
leaf.label = "renamed"
right.children.append(leaf)
""",
    "slots_and_dict": """\
class Slotted:
    __slots__ = ("x", "y", "z")

    def __init__(self, x):
        self.x = x
        self.y = [x]

class Plain:
    def __init__(self):
        self.a = 1
        self.b = "two"

s = Slotted(1)
p = Plain()
s.z = p
p.back = s
s.x = 5
p.a = 2
""",
    "primitives": """\
words = {"pear", "apple", "fig", "kiwi"}
blob = b"ab\\x80\\xff" * 3
number = 1 + 2j
nan = float("nan")
flags = [True, 1, 1.0, False, 0, None]
text = "x" * 12
words.add("banana")
flags[0] = 1
blob = blob + b"!"
frozen = frozenset(words)
""",
    "tuple_keys": """\
class Key:
    pass

grid = {(0, 0): "a", (0, 1): "b", ("x", (1, 2)): "c"}
alike = {Key(): 1, Key(): 2}
grid[(1, 1)] = alike
alike[Key()] = 3

class Holder:
    pass

holder = Holder()
loop_key = (holder, "k")
holder.key = loop_key
holder.me = holder
looped = {loop_key: 1, "other": [loop_key, holder]}
del holder, loop_key

class Box:
    pass

boxes = []
box = Box()
boxes.append((box, 1))
box.table = {boxes[0]: "keyed by a tuple that holds the dict's owner"}
box.index = {box: "keyed by the dict's owner", (box, 2): "and by a tuple"}
""",
    "wide": """\
numbers = list(range(1000, 1060))
scaled = {"k%d" % i: i * 1.5 for i in range(50)}
numbers[0] = -1
scaled["k0"] = "x" * 9
""",
    "recursion": """\
def rec(n, acc):
    acc.append(n)
    if n == 0:
        return acc
    inner = rec(n - 1, acc)
    return inner

out = rec(4, [])
again = rec(2, out)
""",
    "second_thread": """\
import threading

box = {"count": 0}

def worker():
    for _ in range(3):
        box["count"] += 1

thread = threading.Thread(target=worker)
thread.start()
thread.join()
box["done"] = True
""",
}

#: A breakpoint in the worker, so stepping pauses on the second thread too.
BREAKPOINTS = {"second_thread": 7}

LIMITS = {
    "defaults": {},
    "tight": {
        "capture_limits": CaptureLimits(
            max_items=3, max_string=5, max_values=40, max_depth=4
        )
    },
    "snapshot_depth_1": {"snapshot_depth": 1},
    # max_items=3 above keeps a pause under 40 values; this cut does fire.
    "values_cap": {"capture_limits": CaptureLimits(max_values=25)},
}


def _write(tmp_path, source):
    # A last line, so the state the inferior's own last line leaves is
    # captured at a pause too.
    path = tmp_path / "prog.py"
    path.write_text(source + "end_of_program = True\n")
    return str(path)


def _step_recorded(tracker, path, inferior=None):
    """Step a recorded run to exit; return the reference trees (one per
    pause, exit included) and the patches the index was fed."""
    tracker.load_program(path)
    if inferior in BREAKPOINTS:
        tracker.break_before_line(BREAKPOINTS[inferior])
    recorder = tracker.enable_recording(keyframe_interval=KEYFRAME_INTERVAL)
    patches = []
    if hasattr(recorder, "timeline") and recorder.timeline is not None:
        recorder.timeline.add_append_listener(
            lambda index, previous, tree, patch: patches.append(patch)
        )
    tracker.start()
    references = []
    for _ in range(MAX_PAUSES):
        references.append(tracker.snapshot().to_dict())
        if tracker.get_exit_code() is not None:
            return references, patches
        tracker.step()
    pytest.fail("inferior did not terminate")


def _expected_segments(references):
    segments = []
    for index, tree in enumerate(references):
        if index % KEYFRAME_INTERVAL == 0:
            segments.append({"key": tree, "deltas": []})
        else:
            segments[-1]["deltas"].append(diff_tree(references[index - 1], tree))
    return segments


def _assert_parity(timeline_dict, references, patches=None):
    assert len(references) > 2
    segments = timeline_dict["segments"]
    expected = _expected_segments(references)
    assert len(segments) == len(expected)
    for number, (got, want) in enumerate(zip(segments, expected)):
        base = number * KEYFRAME_INTERVAL
        assert json.dumps(got["key"]) == json.dumps(want["key"]), f"tree {base}"
        for offset, (patch, reference) in enumerate(zip(got["deltas"], want["deltas"])):
            assert json.dumps(patch) == json.dumps(reference), f"patch {base + offset + 1}"
        assert len(got["deltas"]) == len(want["deltas"])
    if patches is not None:
        assert len(patches) == len(references)
        for index in range(1, len(references)):
            reference = diff_tree(references[index - 1], references[index])
            assert json.dumps(patches[index]) == json.dumps(reference), f"patch {index}"
    # Navigable after a save/load: every index decodes to the reference
    # state (apply_patch appends added keys, so key order may differ).
    timeline = Timeline.from_dict(json.loads(json.dumps(timeline_dict)))
    for index, reference in enumerate(references):
        assert json.dumps(timeline.snapshot(index).to_dict(), sort_keys=True) == json.dumps(
            reference, sort_keys=True
        ), f"decoded tree {index}"


def _record_in_process(tracker, path, inferior=None):
    references, patches = _step_recorded(tracker, path, inferior)
    try:
        _assert_parity(tracker.timeline.to_dict(), references, patches)
    finally:
        tracker.terminate()


@pytest.mark.parametrize("limits", sorted(LIMITS))
@pytest.mark.parametrize("inferior", sorted(INFERIORS))
def test_python_recording_matches_reference(tmp_path, inferior, limits):
    tracker = PythonTracker(capture_output=True, **LIMITS[limits])
    _record_in_process(tracker, _write(tmp_path, INFERIORS[inferior]), inferior)


@pytest.mark.parametrize("limits", sorted(LIMITS))
@pytest.mark.parametrize("inferior", sorted(INFERIORS))
def test_monitoring_recording_matches_reference(tmp_path, inferior, limits):
    from repro.pytracker.monitoring import HAVE_MONITORING, SKIP_REASON

    if not HAVE_MONITORING:
        pytest.skip(SKIP_REASON)
    from repro.pytracker import MonitoringTracker

    tracker = MonitoringTracker(capture_output=True, **LIMITS[limits])
    _record_in_process(tracker, _write(tmp_path, INFERIORS[inferior]), inferior)


@pytest.mark.parametrize("inferior", sorted(INFERIORS))
def test_subproc_recording_matches_reference(tmp_path, inferior):
    """The child records; ``-timeline-dump`` must match the client-side
    reference, which is decoded from the inspection commands."""
    from repro.subproc import SubprocPythonTracker

    tracker = SubprocPythonTracker()
    try:
        references, _ = _step_recorded(
            tracker, _write(tmp_path, INFERIORS[inferior]), inferior
        )
        _assert_parity(tracker._execute("-timeline-dump"), references)
    finally:
        tracker.terminate()


def test_dict_entries_rendering_alike_survive_recording(tmp_path):
    tracker = PythonTracker()
    _step_recorded(tracker, _write(tmp_path, INFERIORS["tuple_keys"]))
    try:
        alike = tracker.timeline.snapshot(-2).globals["alike"].value.deref()
        assert len(alike.content) == 3
    finally:
        tracker.terminate()


# ---------------------------------------------------------------------------
# Property: random aliased and cyclic object graphs, mutated between pauses
# ---------------------------------------------------------------------------

_NODE_KINDS = ("list", "dict", "obj", "slots")
_VALUES = ("0", "1", "True", "None", "'s'", "1.5", "b'b'", "(1, 'x')", "float('nan')")


def _program(kinds, operations):
    lines = [
        "class Obj:",
        "    pass",
        "",
        "class Slots:",
        "    __slots__ = ('a', 'b')",
        "",
        "def visit(first, second):",
        "    pair = [first, second]",
        "    first_alias = first",
        "    return len(pair)",
        "",
    ]
    constructors = {"list": "[]", "dict": "{}", "obj": "Obj()", "slots": "Slots()"}
    for index, kind in enumerate(kinds):
        lines.append(f"n{index} = {constructors[kind]}")
    count = len(kinds)
    for op, left, right, value in operations:
        target, other = f"n{left % count}", f"n{right % count}"
        kind = kinds[left % count]
        payload = other if op in ("link", "call") else _VALUES[value % len(_VALUES)]
        if op == "call":
            lines.append(f"visit({target}, {other})")
        elif op == "rebind":
            lines.append(f"{target} = {other}")
            kinds = list(kinds)
            kinds[left % count] = kinds[right % count]
        elif kind == "list":
            if op == "drop":
                lines.append(f"{target}.pop() if {target} else None")
            else:
                lines.append(f"{target}.append({payload})")
        elif kind == "dict":
            key = ("'k%d'" % (value % 3), "(1, 'x')", str(value % 4))[value % 3]
            if op == "drop":
                lines.append(f"{target}.pop({key}, None)")
            else:
                lines.append(f"{target}[{key}] = {payload}")
        else:
            attr = ("a", "b")[value % 2]
            if op == "drop":
                lines.append(f"{target}.{attr} = None")
            else:
                lines.append(f"{target}.{attr} = {payload}")
    lines.append("done = True")
    return "\n".join(lines) + "\n"


_operations = st.lists(
    st.tuples(
        st.sampled_from(("link", "set", "drop", "call", "rebind")),
        st.integers(0, 7),
        st.integers(0, 7),
        st.integers(0, 11),
    ),
    min_size=1,
    max_size=14,
)


@settings(max_examples=100, deadline=None, suppress_health_check=list(HealthCheck))
@given(
    kinds=st.lists(st.sampled_from(_NODE_KINDS), min_size=1, max_size=5),
    operations=_operations,
    limits=st.sampled_from(sorted(LIMITS)),
)
def test_random_graphs_record_like_reference(tmp_path_factory, kinds, operations, limits):
    path = _write(tmp_path_factory.mktemp("graph"), _program(kinds, operations))
    tracker = PythonTracker(capture_output=True, **LIMITS[limits])
    _record_in_process(tracker, path)


# ---------------------------------------------------------------------------
# Lifetime: recording keeps no inferior object alive
# ---------------------------------------------------------------------------

LIFETIME = """\
import weakref

class Noisy:
    def __del__(self):
        print("deleted")

class Watched:
    pass

noisy = Noisy()
watched = Watched()
probe = weakref.ref(watched)
weakref.finalize(watched, print, "finalized")
items = [noisy, watched, {"w": watched}]
noisy = None
watched = None
items = None
gone = probe() is None
print("gone", gone)
"""


def _native_run(path):
    import contextlib
    import io

    namespace = {"__name__": "__main__"}
    output = io.StringIO()
    with open(path, encoding="utf-8") as source:
        code = compile(source.read(), path, "exec")
    with contextlib.redirect_stdout(output):
        exec(code, namespace)
    return output.getvalue(), namespace["gone"]


def _tracked_run(path, record):
    tracker = PythonTracker(capture_output=True)
    tracker.load_program(path)
    if record:
        tracker.enable_recording()
    tracker.start()
    gone = None
    for _ in range(MAX_PAUSES):
        if tracker.get_exit_code() is not None:
            break
        variable = tracker.get_variable("gone")
        if variable is not None:
            gone = variable.value.deref().content
        tracker.step()
    output = tracker.get_output()
    tracker.terminate()
    return output, gone


def test_recording_keeps_no_object_alive(tmp_path):
    path = _write(tmp_path, LIFETIME)
    native = _native_run(path)
    assert native[1] is True and "deleted" in native[0] and "finalized" in native[0]
    assert _tracked_run(path, record=False) == native
    assert _tracked_run(path, record=True) == native


def test_second_thread_inferior_really_threads(tmp_path):
    """The threaded inferior above must pause on the worker, or its
    parity says nothing about a second thread."""
    tracker = PythonTracker()
    references, _ = _step_recorded(
        tracker, _write(tmp_path, INFERIORS["second_thread"]), "second_thread"
    )
    tracker.terminate()
    assert {tree.get("thread") for tree in references} >= {0, 1}
