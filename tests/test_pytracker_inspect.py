"""Tests for the Python tracker's inspection interface and snapshotter."""

import pytest

from repro.core.state import AbstractType, Location
from repro.core.timeline import StateSnapshot
from repro.pytracker.introspect import Snapshotter, build_variable
from repro.pytracker.tracker import PythonTracker

NESTED = """\
class Node:
    def __init__(self, value):
        self.value = value
        self.next = None

def build():
    head = Node(1)
    head.next = Node(2)
    shared = [10, 20]
    pair = (shared, shared)
    table = {"a": 1, 2: "b"}
    marker = None
    return head

result = build()
done = 1
"""


@pytest.fixture
def paused(write_program):
    """A tracker paused at the `return head` line inside build()."""
    tracker = PythonTracker()
    tracker.load_program(write_program("p.py", NESTED))
    tracker.break_before_line(13)
    tracker.start()
    tracker.resume()
    yield tracker
    tracker.terminate()


class TestFrames:
    def test_frame_chain_and_depths(self, paused):
        frame = paused.get_current_frame()
        assert frame.name == "build"
        assert frame.depth == 1
        assert frame.parent.name == "<module>"
        assert frame.parent.depth == 0
        assert frame.parent.parent is None

    def test_get_frames_lists_innermost_first(self, paused):
        names = [frame.name for frame in paused.get_frames()]
        assert names == ["build", "<module>"]

    def test_position(self, paused):
        filename, line = paused.get_position()
        assert filename.endswith("p.py")
        assert line == 13

    def test_source_lines(self, paused):
        lines = paused.get_source_lines()
        assert lines[0] == "class Node:"


class TestVariableModel:
    def test_every_variable_is_a_ref_into_the_heap(self, paused):
        frame = paused.get_current_frame()
        for variable in frame.variables.values():
            assert variable.value.abstract_type is AbstractType.REF
            assert variable.value.location is Location.STACK

    def test_instance_becomes_struct(self, paused):
        head = paused.get_current_frame().variables["head"].value.content
        assert head.abstract_type is AbstractType.STRUCT
        assert head.language_type == "Node"
        assert head.content["value"].content == 1
        assert head.content["next"].content["value"].content == 2

    def test_none_abstract_type(self, paused):
        marker = paused.get_current_frame().variables["marker"].value.content
        assert marker.abstract_type is AbstractType.NONE

    def test_list_and_tuple_language_types(self, paused):
        variables = paused.get_current_frame().variables
        shared = variables["shared"].value.content
        pair = variables["pair"].value.content
        assert shared.abstract_type is AbstractType.LIST
        assert shared.language_type == "list"
        assert pair.language_type == "tuple"

    def test_dict_keys_are_values(self, paused):
        table = paused.get_current_frame().variables["table"].value.content
        assert table.abstract_type is AbstractType.DICT
        rendered = {k.render(): v.render() for k, v in table.content.items()}
        assert rendered == {"'a'": "1", "2": "'b'"}

    def test_dict_keys_rendering_alike_stay_distinct(self, write_program):
        tracker = PythonTracker()
        tracker.load_program(
            write_program(
                "keys.py", "class K:\n    pass\n\nd = {K(): 1, K(): 2}\ndone = 1\n"
            )
        )
        tracker.break_before_line(5)
        tracker.start()
        tracker.resume()
        try:
            captured = [
                tracker.get_global_variables()["d"].value.content,
                tracker.snapshot().globals["d"].value.content,
            ]
            tree = tracker.snapshot().to_dict()
        finally:
            tracker.terminate()
        decoded = StateSnapshot.from_dict(tree).globals["d"].value.content
        for table in captured + [decoded]:
            assert [k.render() for k in table.content] == ["{}", "{}"]
            assert sorted(v.content for v in table.content.values()) == [1, 2]
        assert StateSnapshot.from_dict(tree).to_dict() == tree

    def test_sharing_is_preserved_within_a_pause(self, paused):
        variables = paused.get_current_frame().variables
        pair = variables["pair"].value.content
        first, second = pair.content
        assert first is second  # same Value instance: aliasing is visible
        assert first is variables["shared"].value.content

    def test_addresses_come_from_id(self, paused):
        shared = paused.get_current_frame().variables["shared"].value.content
        assert isinstance(shared.address, int)
        assert shared.address > 0

    def test_argument_scope(self, write_program):
        tracker = PythonTracker()
        tracker.load_program(
            write_program("p.py", "def f(a):\n    b = a\n    return b\nf(1)\n")
        )
        tracker.break_before_line(3)
        tracker.start()
        tracker.resume()
        variables = tracker.get_current_frame().variables
        assert variables["a"].scope == "argument"
        assert variables["b"].scope == "local"
        tracker.terminate()

    def test_globals_hide_plumbing_and_modules(self, write_program):
        tracker = PythonTracker()
        tracker.load_program(
            write_program("p.py", "import os\nvalue = 5\npath = os.sep\n")
        )
        tracker.start()
        tracker.resume()  # run to completion? watch: no control points ->
        # resume runs to the end, so break first:
        tracker.terminate()
        tracker = PythonTracker()
        tracker.load_program(
            write_program("p2.py", "import os\nvalue = 5\npath = os.sep\n")
        )
        tracker.break_before_line(3)
        tracker.start()
        tracker.resume()
        names = set(tracker.get_global_variables())
        assert "value" in names
        assert "os" not in names  # modules are hidden
        assert "__name__" not in names
        tracker.terminate()

    def test_raw_object_extension(self, paused):
        shared = paused.get_current_frame().variables["shared"]
        assert shared.raw_object == [10, 20]  # the live Python object


class TestSnapshotter:
    def test_cycle_in_list(self):
        cyclic = []
        cyclic.append(cyclic)
        value = Snapshotter().snapshot(cyclic)
        assert value.abstract_type is AbstractType.LIST
        assert value.content[0] is value  # the cycle is represented

    def test_shared_object_memoized(self):
        shared = [1]
        snapshotter = Snapshotter()
        container = snapshotter.snapshot([shared, shared])
        assert container.content[0] is container.content[1]

    def test_bool_is_primitive_not_int_subclass_surprise(self):
        value = Snapshotter().snapshot(True)
        assert value.abstract_type is AbstractType.PRIMITIVE
        assert value.language_type == "bool"

    def test_set_renders_as_list(self):
        value = Snapshotter().snapshot({3, 1, 2})
        assert value.abstract_type is AbstractType.LIST
        assert value.language_type == "set"
        assert sorted(v.content for v in value.content) == [1, 2, 3]

    def test_function_value(self):
        def sample():
            pass

        value = Snapshotter().snapshot(sample)
        assert value.abstract_type is AbstractType.FUNCTION
        assert "sample" in value.content

    def test_class_is_function_like(self):
        value = Snapshotter().snapshot(int)
        assert value.abstract_type is AbstractType.FUNCTION

    def test_depth_cap_summarizes(self):
        deep = [[[[[1]]]]]
        value = Snapshotter(max_depth=2).snapshot(deep)
        # Depths 0..2 are real LISTs; depth 3 is replaced by a summary.
        innermost = value.content[0].content[0].content[0]
        assert innermost.abstract_type is AbstractType.PRIMITIVE
        assert isinstance(innermost.content, str)  # a summary, not the list

    def test_slots_instance(self):
        class Slotted:
            __slots__ = ("x",)

        instance = Slotted()
        instance.x = 9
        value = Snapshotter().snapshot(instance)
        assert value.abstract_type is AbstractType.STRUCT
        assert value.content["x"].content == 9

    def test_complex_encoded_as_primitive_repr(self):
        value = Snapshotter().snapshot(3 + 4j)
        assert value.abstract_type is AbstractType.PRIMITIVE
        assert value.content == "(3+4j)"

    def test_build_variable_wraps_in_ref(self):
        variable = build_variable("v", [1], "local", Snapshotter())
        assert variable.value.abstract_type is AbstractType.REF
        assert variable.value.content.abstract_type is AbstractType.LIST
        assert variable.raw_object == [1]
