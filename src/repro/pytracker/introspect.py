"""Convert live Python objects and frames into the abstract state model.

The Python tracker runs in the same interpreter as the inferior, so — as the
paper notes — inspection is the easy half: we walk real objects with ``id()``
providing addresses. Conceptually every Python variable is a ``REF`` value in
the stack pointing at an object in the heap, and that is exactly how this
module builds the model: :func:`build_variable` wraps the heap snapshot of
the object in a ``REF``.

Snapshots are *deep copies into the model*: mutating the inferior afterwards
does not change an already-taken snapshot. Shared objects are memoized by
identity so aliasing is visible (two variables referencing one list yield two
``REF`` values whose targets are the same ``Value`` instance), and reference
cycles are handled by filling container contents after memoization.

Two capture paths apply the same rules. :class:`Snapshotter` builds the
:class:`Value` graph behind the inspection calls (``snapshot()``,
``get_current_frame()``...). :class:`TreeEncoder` serves recorded pauses: it
encodes the same objects straight into the JSON tree the timeline stores,
equal to ``value_to_dict`` of the Snapshotter's graph, and reuses last
pause's dict for whatever did not change — a leaf holding the same object, a
container whose every child encoding is the identical dict — so the delta
codec skips unchanged subtrees by identity. Both take the type dispatch
(:func:`_capture_kind`), the limit checks (:func:`_limit_cut`) and the
element walks from one place, so they cannot drift apart.
"""

from __future__ import annotations

import inspect
import itertools
import operator
import reprlib
import types
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.core.state import (
    AbstractType,
    Frame,
    Location,
    Value,
    Variable,
    _HashableValueKey,
)

#: Global names never shown to tools (interpreter plumbing, not user state).
HIDDEN_GLOBALS = frozenset(
    {
        "__builtins__",
        "__cached__",
        "__doc__",
        "__file__",
        "__loader__",
        "__name__",
        "__package__",
        "__spec__",
        "__annotations__",
    }
)

_PRIMITIVE_TYPES = (int, float, str, bool, complex, bytes)

#: Bounded-cost repr for summaries (never walks a whole bomb container).
_SUMMARY_REPR = reprlib.Repr()
_SUMMARY_REPR.maxstring = 120
_SUMMARY_REPR.maxother = 120


@dataclass(frozen=True)
class CaptureLimits:
    """Bounds on how much of the inferior's object graph a pause captures.

    A hostile (or merely enormous) inferior state — a million-element
    list, a megabyte string, a structure nested hundreds of levels deep —
    must never wedge or exhaust the tool at a pause. Every bound marks
    what it cut with ``Value.truncated = True`` so tools can show the cut
    explicitly instead of silently lying about the state.

    Attributes:
        max_items: elements captured per container (list/tuple/set/dict
            entries, instance attributes); the rest are dropped.
        max_string: characters (or bytes) captured per string value.
        max_depth: hard cap on capture nesting depth — a safety net far
            below the interpreter recursion limit, independent of the
            presentation-level ``snapshot_depth``.
        max_values: total values captured per snapshot across the whole
            graph; beyond it everything collapses to summaries.

    ``None`` disables the corresponding bound.
    """

    max_items: Optional[int] = 1000
    max_string: Optional[int] = 4096
    max_depth: Optional[int] = 100
    max_values: Optional[int] = 100_000


#: The default bounds: generous for pedagogy, fatal for memory bombs.
DEFAULT_CAPTURE_LIMITS = CaptureLimits()

#: Opt-out: capture everything (the seed behavior, cycles still safe).
UNBOUNDED_CAPTURE = CaptureLimits(
    max_items=None, max_string=None, max_depth=None, max_values=None
)


class PyVariable(Variable):
    """A :class:`Variable` that also carries the live Python object.

    This is the "extended API" of Section II-C2: tools that only target
    Python inferiors may read :attr:`raw_object` directly instead of walking
    the abstract model.
    """

    def __init__(self, name: str, value: Value, scope: str, raw_object: Any):
        super().__init__(name=name, value=value, scope=scope)
        self.raw_object = raw_object


# ---------------------------------------------------------------------------
# The capture rules both paths share: type dispatch, limit checks, walks
# ---------------------------------------------------------------------------

#: Capture kinds, one per way of modeling an object (all truthy).
_NONE, _PRIMITIVE, _SEQUENCE, _SET, _MAPPING, _FUNCTION, _INSTANCE = range(1, 8)

#: Exact types answered by one lookup; anything else (subclasses, odd
#: metaclasses, objects faking ``__class__``) goes through the isinstance
#: chain of :func:`_capture_kind`, which decides the same way for these.
_EXACT_KINDS = {
    type(None): _NONE,
    bool: _PRIMITIVE,
    int: _PRIMITIVE,
    float: _PRIMITIVE,
    str: _PRIMITIVE,
    complex: _PRIMITIVE,
    bytes: _PRIMITIVE,
    list: _SEQUENCE,
    tuple: _SEQUENCE,
    set: _SET,
    frozenset: _SET,
    dict: _MAPPING,
    types.FunctionType: _FUNCTION,
    types.BuiltinFunctionType: _FUNCTION,
    types.MethodType: _FUNCTION,
    type: _FUNCTION,
}


def _capture_kind(obj: Any) -> int:
    """How a capture models ``obj`` (one of the ``_NONE``... kinds)."""
    kind = _EXACT_KINDS.get(type(obj))
    if kind is not None:
        return kind
    if obj is None:
        return _NONE
    if isinstance(obj, _PRIMITIVE_TYPES):
        return _PRIMITIVE
    if isinstance(obj, (list, tuple)):
        return _SEQUENCE
    if isinstance(obj, (set, frozenset)):
        return _SET
    if isinstance(obj, dict):
        return _MAPPING
    if _is_function_like(obj):
        return _FUNCTION
    return _INSTANCE


def _limit_cut(
    captured: int, depth: int, limits: CaptureLimits, snapshot_depth: Optional[int]
) -> Optional[bool]:
    """Whether the ``captured``-th value of a walk, at ``depth``, is cut.

    ``None``: capture it. ``True``: a hard bound cut it (a truncated
    summary). ``False``: it lies below the presentation-level
    ``snapshot_depth`` (a plain summary).
    """
    if (limits.max_values is not None and captured > limits.max_values) or (
        limits.max_depth is not None and depth > limits.max_depth
    ):
        return True
    if snapshot_depth is not None and depth > snapshot_depth:
        return False
    return None


def _limit_thresholds(
    limits: CaptureLimits, snapshot_depth: Optional[int]
) -> Tuple[float, float]:
    """``(values, depth)``: :func:`_limit_cut` returns ``None`` exactly
    while ``captured <= values and depth <= depth`` (so a hot walk can
    test two numbers and call it only when a cut is due)."""
    unbounded = float("inf")
    depths = [bound for bound in (limits.max_depth, snapshot_depth) if bound is not None]
    values = limits.max_values if limits.max_values is not None else unbounded
    return values, min(depths) if depths else unbounded


#: Primitive types whose content is the object itself, never cut.
_VERBATIM = frozenset({int, float, bool})


def _primitive_content(obj: Any, max_string: Optional[int]) -> Tuple[Any, bool]:
    """``(content, truncated)`` of a primitive leaf."""
    if type(obj) in _VERBATIM:
        return obj, False
    if isinstance(obj, (str, bytes)) and max_string is not None and len(obj) > max_string:
        return obj[:max_string], True
    if isinstance(obj, complex):
        # complex is not JSON-serializable; keep its repr, still PRIMITIVE.
        return repr(obj), False
    return obj, False


def _elements(obj: Any, kind: int, cap: Optional[int]) -> Iterable[Any]:
    """The elements a LIST capture walks, in order (a set sorted by repr)."""
    elements = obj
    if kind == _SET:
        if cap is not None and len(obj) > cap:
            # Slice before sorting so a giant set costs O(cap log cap),
            # not a full sort of the bomb.
            elements = itertools.islice(obj, cap)
        elements = sorted(elements, key=repr)
    if cap is not None:
        elements = itertools.islice(elements, cap)
    return elements


def _items(obj: dict, cap: Optional[int]) -> Tuple[Iterable[Tuple[Any, Any]], bool]:
    """``(entries walked, truncated)`` of a DICT capture."""
    if cap is not None and len(obj) > cap:
        return itertools.islice(obj.items(), cap), True
    return obj.items(), False


#: Stands in for the attribute of an instance that has neither
#: ``__dict__`` nor ``__slots__``: its one field is a summary of itself.
_REPR = object()


def _fields(obj: Any, cap: Optional[int]) -> Iterator[Optional[Tuple[str, Any]]]:
    """The fields a STRUCT capture walks: ``(name, attribute)`` pairs in
    order, then ``None`` when ``cap`` cut the walk short."""
    attributes = getattr(obj, "__dict__", None)
    if attributes is not None:
        for count, pair in enumerate(attributes.items()):
            if cap is not None and count >= cap:
                yield None
                return
            yield pair
    elif hasattr(type(obj), "__slots__"):
        count = 0
        for name in type(obj).__slots__:
            if cap is not None and count >= cap:
                yield None
                return
            if hasattr(obj, name):
                count += 1
                yield name, getattr(obj, name)
    else:
        yield "<repr>", _REPR


def _inferior_frames(py_frame: Any, is_inferior_frame) -> List[Any]:
    """The inferior's live frames, innermost first."""
    raw_frames = []
    frame = py_frame
    while frame is not None:
        if is_inferior_frame(frame):
            raw_frames.append(frame)
        frame = frame.f_back
    return raw_frames


def _frame_locals(raw: Any) -> Iterator[Tuple[str, Any, str]]:
    """``(name, object, scope)`` of each variable a frame capture shows."""
    code = raw.f_code
    arg_names = set(code.co_varnames[: code.co_argcount + code.co_kwonlyargcount])
    for name, obj in raw.f_locals.items():
        if name.startswith("__") and name.endswith("__"):
            continue
        if isinstance(obj, types.ModuleType):
            # Same rule as the globals: imported modules are interpreter
            # plumbing, not program state — and walking one (e.g.
            # ``threading._active``) can pull the *tool's* object graph
            # into an inferior snapshot.
            continue
        yield name, obj, "argument" if name in arg_names else "local"


def _visible_globals(globals_dict: Dict[str, Any]) -> Iterator[Tuple[str, Any]]:
    """The global bindings a capture shows (interpreter plumbing hidden)."""
    for name, obj in globals_dict.items():
        if name in HIDDEN_GLOBALS or isinstance(obj, types.ModuleType):
            continue
        yield name, obj


# ---------------------------------------------------------------------------
# Snapshotter: live objects -> Value graph (the public inspection path)
# ---------------------------------------------------------------------------


class Snapshotter:
    """Builds :class:`Value` graphs from live objects, with memoization.

    One snapshotter is used per pause so that sharing within a single pause
    is preserved while distinct pauses get independent snapshots.

    Args:
        max_depth: cap on container nesting depth; deeper content is
            replaced by an ``INVALID``-free primitive summary. ``None``
            means unlimited (cycles are still safe).
        limits: hard safety bounds on capture size
            (:class:`CaptureLimits`); defaults to
            :data:`DEFAULT_CAPTURE_LIMITS`. Everything a bound cuts is
            marked with ``Value.truncated``.
    """

    def __init__(
        self,
        max_depth: Optional[int] = None,
        limits: Optional[CaptureLimits] = None,
    ):
        self.max_depth = max_depth
        self.limits = limits if limits is not None else DEFAULT_CAPTURE_LIMITS
        self._memo: Dict[int, Value] = {}
        self._captured = 0

    def snapshot(self, obj: Any, depth: int = 0) -> Value:
        """Return the heap :class:`Value` modeling ``obj``."""
        address = id(obj)
        memoized = self._memo.get(address)
        if memoized is not None:
            return memoized
        self._captured += 1
        cut = _limit_cut(self._captured, depth, self.limits, self.max_depth)
        if cut is not None:
            return self._summary(obj, truncated=cut)
        kind = _capture_kind(obj)
        if kind == _PRIMITIVE:
            return self._primitive(obj)
        if kind == _NONE:
            return self._leaf(AbstractType.NONE, None, obj)
        if kind == _FUNCTION:
            return self._leaf(AbstractType.FUNCTION, _function_name(obj), obj)
        if kind == _MAPPING:
            return self._mapping(obj, depth)
        if kind == _INSTANCE:
            return self._instance(obj, depth)
        return self._sequence(obj, depth, kind)

    # -- builders --------------------------------------------------------

    @staticmethod
    def _leaf(
        kind: AbstractType, content: Any, obj: Any, truncated: bool = False
    ) -> Value:
        return Value(
            abstract_type=kind,
            content=content,
            location=Location.HEAP,
            address=id(obj),
            language_type=type(obj).__name__,
            truncated=truncated,
        )

    def _summary(self, obj: Any, truncated: bool = False) -> Value:
        return self._leaf(AbstractType.PRIMITIVE, _summarize(obj), obj, truncated)

    def _primitive(self, obj: Any) -> Value:
        content, truncated = _primitive_content(obj, self.limits.max_string)
        value = self._leaf(AbstractType.PRIMITIVE, content, obj, truncated)
        self._memo[id(obj)] = value
        return value

    def _container(self, kind: AbstractType, obj: Any, content: Any) -> Value:
        # Memoize before recursing so self-referencing containers terminate.
        value = self._leaf(kind, content, obj)
        self._memo[id(obj)] = value
        return value

    def _sequence(self, obj: Any, depth: int, kind: int) -> Value:
        value = self._container(AbstractType.LIST, obj, ())
        value.content = tuple(
            self.snapshot(element, depth + 1)
            for element in _elements(obj, kind, self.limits.max_items)
        )
        if self.limits.max_items is not None and len(value.content) < len(obj):
            value.truncated = True
        return value

    def _mapping(self, obj: dict, depth: int) -> Value:
        value = self._container(AbstractType.DICT, obj, {})
        items, value.truncated = _items(obj, self.limits.max_items)
        content: Dict[Value, Value] = {}
        for key, item in items:
            key_value = _HashableValueKey.wrap(self.snapshot(key, depth + 1))
            content[key_value] = self.snapshot(item, depth + 1)
        value.content = content
        return value

    def _instance(self, obj: Any, depth: int) -> Value:
        value = self._container(AbstractType.STRUCT, obj, {})
        fields: Dict[str, Value] = {}
        for pair in _fields(obj, self.limits.max_items):
            if pair is None:
                value.truncated = True
                break
            name, attr = pair
            if attr is _REPR:
                fields[name] = self._summary(obj)
            else:
                fields[name] = self.snapshot(attr, depth + 1)
        value.content = fields
        return value


def _is_function_like(obj: Any) -> bool:
    return isinstance(
        obj,
        (
            types.FunctionType,
            types.BuiltinFunctionType,
            types.MethodType,
            types.LambdaType,
            type,
        ),
    ) or inspect.isroutine(obj)


def _function_name(obj: Any) -> str:
    return getattr(obj, "__qualname__", None) or getattr(obj, "__name__", repr(obj))


def _summarize(obj: Any) -> str:
    # reprlib bounds the cost of summarizing huge builtin containers (a
    # plain repr() of a million-element list would build the whole string
    # before we could truncate it) and survives a raising __repr__.
    try:
        text = _SUMMARY_REPR.repr(obj)
    except Exception:
        text = object.__repr__(obj)
    if len(text) > 120:
        text = text[:117] + "..."
    return text




# ---------------------------------------------------------------------------
# TreeEncoder: live objects -> timeline JSON tree (the recording path)
# ---------------------------------------------------------------------------

_HEAP = Location.HEAP.value


class _Node:
    """A container or instance met by one encoder walk.

    While it is being walked, ``done`` is false. Once walked, a node whose
    encoding holds a cycle cut keeps its children (``children``: the
    entries — a clean dict or another node — recorded at its first
    encounter), because ``value_to_dict`` serializes it afresh at every
    later encounter, with the cuts the *current* path makes.
    """

    __slots__ = ("address", "kind", "language_type", "truncated", "children", "done")

    def __init__(self, address: int, kind: str, language_type: str) -> None:
        self.address = address
        self.kind = kind
        self.language_type = language_type
        self.truncated = False
        self.children: Any = None
        self.done = False


def _same(old: List[Any], new: List[Any]) -> bool:
    return len(old) == len(new) and all(map(operator.is_, old, new))


class TreeEncoder:
    """Encodes a paused inferior straight into the timeline's JSON tree.

    The output is exactly ``value_to_dict`` of what :class:`Snapshotter`
    would build — same walk order, memo, counts and depths (so the same
    :class:`CaptureLimits` cuts), same cycle cuts — without building the
    :class:`Value` graph: one pass instead of capture, encode and diff.

    A clean encoding (one holding no cycle cut) does not depend on the
    path it is reached by, so a memo hit reuses it as is; a memo hit on a
    node whose encoding holds a cut is serialized again from its children
    against the current path, as ``value_to_dict`` does with a memoized
    ``Value``.

    Between pauses the encoder keeps the last pause's dicts by ``id()`` and
    returns the *same* dict whenever it would build an equal one:

    - an immutable leaf when the cached dict holds the very same object
      (or, for derived content — a cut string, bytes, a complex repr, a
      summary — an equal one);
    - a list, tuple, set, dict or instance, still walked, when every child
      encoding is the identical object and its type name, length and
      truncation flag match;
    - a variable when its target dict is reused, a frame's variables and
      the globals when every variable is, a frame when its variables and
      parent are.

    ``diff_tree`` returns early on ``old is new``, so an unchanged subtree
    costs the delta codec one identity test. The cache holds no container
    or instance, only the primitives the stored trees already hold (a cut
    string is held as its stored prefix), so no inferior object lives
    longer for being recorded.
    """

    def __init__(
        self,
        max_depth: Optional[int] = None,
        limits: Optional[CaptureLimits] = None,
    ) -> None:
        self.max_depth = max_depth
        self.limits = limits if limits is not None else DEFAULT_CAPTURE_LIMITS
        self._value_cap, self._depth_cap = _limit_thresholds(self.limits, max_depth)
        # Cross-pause caches: this pause's encodings, then last pause's.
        self._current: Dict[Any, Dict[str, Any]] = {}
        self._previous: Dict[Any, Dict[str, Any]] = {}
        self._frames: List[Dict[str, Any]] = []  # last pause, outermost first
        self._globals: Optional[Dict[str, Any]] = None
        # Per-walk state (one walk for the frame chain, one for globals,
        # with separate memos, as the inspection calls have).
        self._memo: Dict[int, Any] = {}
        self._captured = 0
        self._active: Set[int] = set()
        self._cuts = 0
        self._owners: Dict[int, _Node] = {}
        self._pending: List[Tuple[Dict[str, Any], _Node, Set[int]]] = []

    # -- one pause ---------------------------------------------------------

    def encode(
        self,
        py_frame: Any,
        is_inferior_frame,
        thread: Optional[int],
        globals_dict: Dict[str, Any],
    ) -> Tuple[Dict[str, Any], Dict[str, Any]]:
        """``(frame tree, globals tree)`` of one pause, as
        ``frame_to_dict``/``variable_to_dict`` encode the model that
        ``build_frame_chain`` (stamped with ``thread``) and
        ``build_globals`` would build."""
        self._previous, self._current = self._current, {}
        raw_frames = _inferior_frames(py_frame, is_inferior_frame)
        frame, walked = self._frame_chain(raw_frames, thread)
        if not (len(raw_frames) == 1 and raw_frames[0].f_locals is globals_dict):
            walked = None
        return frame, self._globals_tree(globals_dict, walked)

    def _frame_chain(
        self, raw_frames: List[Any], thread: Optional[int]
    ) -> Tuple[Dict[str, Any], List[Tuple[str, Any, Dict[str, Any]]]]:
        """The frame tree, and ``(name, object, target dict)`` of every
        variable in walk order."""
        self._begin_walk()
        variables = []
        walked = []
        for raw in raw_frames:
            names = {}
            for name, obj, scope in _frame_locals(raw):
                target = self._encode(obj, 0)
                names[name] = self._variable(name, scope, Location.STACK.value, obj, target)
                walked.append((name, obj, target))
            variables.append(names)
        self._end_walk()
        if not raw_frames:
            self._frames = []
            return _frame_dict("<module>", 0, {}, None, None, "", thread), walked
        previous = self._frames
        frames: List[Dict[str, Any]] = []
        parent = None
        # Outermost first, so an unchanged caller frame is reused whole.
        for depth, raw in enumerate(reversed(raw_frames)):
            names = variables[len(raw_frames) - 1 - depth]
            old = previous[depth] if depth < len(previous) else None
            code = raw.f_code
            if old is not None:
                if _same_values(old["variables"], names):
                    names = old["variables"]
                if (
                    old["variables"] is names
                    and old["parent"] is parent
                    and old["name"] == code.co_name
                    and old["line"] == raw.f_lineno
                    and old["filename"] == code.co_filename
                    and old.get("thread") == thread
                ):
                    parent = old
                    frames.append(old)
                    continue
            parent = _frame_dict(
                code.co_name, depth, names, parent, raw.f_lineno, code.co_filename, thread
            )
            frames.append(parent)
        self._frames = frames
        return parent, walked

    def _globals_tree(
        self,
        globals_dict: Dict[str, Any],
        module_walk: Optional[List[Tuple[str, Any, Dict[str, Any]]]],
    ) -> Dict[str, Any]:
        visible = list(_visible_globals(globals_dict))
        location = Location.GLOBAL.value
        if module_walk is not None and _same_bindings(module_walk, visible):
            # Paused at module level with the same bindings in view: the
            # globals walk would repeat the frame walk step for step (same
            # memo, counts, depths and paths), so its targets are reused.
            tree = {
                name: self._variable(name, "global", location, obj, target)
                for name, obj, target in module_walk
            }
        else:
            self._begin_walk()
            tree = {
                name: self._variable(name, "global", location, obj, self._encode(obj, 0))
                for name, obj in visible
            }
            self._end_walk()
        if self._globals is not None and _same_values(self._globals, tree):
            tree = self._globals
        self._globals = tree
        return tree

    def _begin_walk(self) -> None:
        self._memo = {}
        self._captured = 0
        self._active = set()
        self._owners = {}
        self._pending = []

    def _end_walk(self) -> None:
        # Serializations deferred until the DICT key they needed was fully
        # walked (see _revisit); every node is done by now.
        for placeholder, node, path in self._pending:
            self._active = path
            placeholder.update(self._reserialize(node, False))
        self._memo = {}
        self._owners = {}
        self._pending = []

    def _cached(self, key: Any) -> Optional[Dict[str, Any]]:
        return self._current.get(key) or self._previous.get(key)

    def _variable(
        self, name: str, scope: str, location: str, obj: Any, target: Dict[str, Any]
    ) -> Dict[str, Any]:
        """A variable: a ``REF`` to ``target``, the encoding of ``obj``.
        (A cached one holds its target, so its ``id`` names it.)"""
        key = (name, scope, id(target))
        cached = self._cached(key)
        if cached is None:
            cached = {
                "name": name,
                "value": {
                    "abstract_type": "ref",
                    "content": target,
                    "location": location,
                    "address": None,
                    "language_type": type(obj).__name__,
                },
                "scope": scope,
            }
        self._current[key] = cached
        return cached

    # -- the walk ----------------------------------------------------------

    def _encode(self, obj: Any, depth: int) -> Dict[str, Any]:
        """The encoding of ``obj`` at this position of the walk."""
        address = id(obj)
        entry = self._memo.get(address)
        if entry is None:
            if (
                type(obj) in _VERBATIM
                and self._captured < self._value_cap
                and depth <= self._depth_cap
            ):
                # _first's path for the commonest value, minus two calls.
                self._captured += 1
                return self._verbatim(obj, address)
            return self._first(obj, depth, False)
        if type(entry) is dict:
            return entry
        if entry.address in self._active:
            return self._cut(entry)
        return self._revisit(entry, False)

    def _key(self, obj: Any, depth: int) -> Dict[str, Any]:
        """The encoding of a DICT key. The model wraps each key in a fresh
        ``Value`` (:class:`_HashableValueKey`), so the key object itself is
        never on the cut path: only what it contains can be cut."""
        entry = self._memo.get(id(obj))
        if entry is None:
            return self._first(obj, depth, True)
        if type(entry) is dict:
            return entry
        return self._revisit(entry, True)

    def _first(self, obj: Any, depth: int, as_key: bool) -> Dict[str, Any]:
        self._captured += 1
        address = id(obj)
        if self._captured > self._value_cap or depth > self._depth_cap:
            cut = _limit_cut(self._captured, depth, self.limits, self.max_depth)
            return self._leaf(
                ("summary", address), address, "primitive", _summarize(obj),
                type(obj).__name__, cut,
            )
        kind = _EXACT_KINDS.get(type(obj)) or _capture_kind(obj)
        if kind == _PRIMITIVE:
            return self._primitive(obj, address)
        if kind == _NONE:
            return self._leaf(address, address, "none", None, "NoneType")
        if kind == _FUNCTION:
            return self._leaf(
                address, address, "function", _function_name(obj), type(obj).__name__
            )
        if kind == _MAPPING:
            return self._mapping(obj, address, depth, as_key)
        if kind == _INSTANCE:
            return self._instance(obj, address, depth, as_key)
        return self._sequence(obj, address, kind, depth, as_key)

    # -- leaves --------------------------------------------------------------

    def _primitive(self, obj: Any, address: int) -> Dict[str, Any]:
        content, truncated = _primitive_content(obj, self.limits.max_string)
        if content is obj and not isinstance(obj, bytes):
            return self._verbatim(obj, address)
        if isinstance(content, bytes):
            content = {"__bytes__": content.decode("latin-1")}
        encoded = self._leaf(
            address, address, "primitive", content, type(obj).__name__, truncated
        )
        self._memo[address] = encoded
        return encoded

    def _verbatim(self, obj: Any, address: int) -> Dict[str, Any]:
        """A primitive leaf whose content is ``obj`` itself, reused when
        the cached dict holds that very object."""
        cached = self._current.get(address) or self._previous.get(address)
        if (
            cached is None
            or cached["content"] is not obj
            or cached["abstract_type"] != "primitive"
        ):
            cached = {
                "abstract_type": "primitive",
                "content": obj,
                "location": _HEAP,
                "address": address,
                "language_type": type(obj).__name__,
            }
        self._current[address] = cached
        self._memo[address] = cached
        return cached

    def _leaf(
        self,
        key: Any,
        address: int,
        kind: str,
        content: Any,
        language_type: str,
        truncated: bool = False,
    ) -> Dict[str, Any]:
        """A leaf whose content is derived, so compared by value; ``key``
        names it in the cache (its address, or a tagged address for a
        summary, which the same object may also have a full encoding
        beside)."""
        cached = self._cached(key)
        if (
            cached is not None
            and cached["abstract_type"] == kind
            and cached["language_type"] == language_type
            and cached.get("truncated", False) == truncated
            and type(cached["content"]) is type(content)
            and cached["content"] == content
        ):
            self._current[key] = cached
            return cached
        encoded = {
            "abstract_type": kind,
            "content": content,
            "location": _HEAP,
            "address": address,
            "language_type": language_type,
        }
        if truncated:
            encoded["truncated"] = True
        self._current[key] = encoded
        return encoded

    # -- containers ----------------------------------------------------------

    def _open(self, obj: Any, address: int, kind: str, as_key: bool) -> _Node:
        # Registered before the walk so self-reference is seen as a cycle.
        node = _Node(address, kind, type(obj).__name__)
        self._memo[address] = node
        if not as_key:
            self._active.add(address)
        return node

    def _close(
        self, node: _Node, content: Any, as_key: bool, clean: bool, same
    ) -> Dict[str, Any]:
        """Finish a walked node: reuse last pause's dict when ``same``
        says every child is identical, and remember how later encounters
        must serialize it."""
        address = node.address
        if not as_key:
            self._active.discard(address)
        cached = self._cached(address)
        if not (
            cached is not None
            and cached["abstract_type"] == node.kind
            and cached["language_type"] == node.language_type
            and cached.get("truncated", False) == node.truncated
            and same(cached["content"], content)
        ):
            cached = {
                "abstract_type": node.kind,
                "content": content,
                "location": _HEAP,
                "address": address,
                "language_type": node.language_type,
            }
            if node.truncated:
                cached["truncated"] = True
        self._current[address] = cached
        node.done = True
        if clean:
            self._memo[address] = cached
        else:
            node.children = self._entries(node.kind, content)
            self._owners[id(cached)] = node
        return cached

    def _sequence(
        self, obj: Any, address: int, kind: int, depth: int, as_key: bool
    ) -> Dict[str, Any]:
        node = self._open(obj, address, "list", as_key)
        cuts = self._cuts
        cap = self.limits.max_items
        encode = self._encode
        content = [encode(element, depth + 1) for element in _elements(obj, kind, cap)]
        node.truncated = cap is not None and len(content) < len(obj)
        return self._close(node, content, as_key, cuts == self._cuts, _same)

    def _mapping(self, obj: dict, address: int, depth: int, as_key: bool) -> Dict[str, Any]:
        node = self._open(obj, address, "dict", as_key)
        cuts = self._cuts
        items, node.truncated = _items(obj, self.limits.max_items)
        content = [
            [self._key(key, depth + 1), self._encode(item, depth + 1)]
            for key, item in items
        ]
        return self._close(node, content, as_key, cuts == self._cuts, _same_pairs)

    def _instance(self, obj: Any, address: int, depth: int, as_key: bool) -> Dict[str, Any]:
        node = self._open(obj, address, "struct", as_key)
        cuts = self._cuts
        fields: Dict[str, Any] = {}
        for pair in _fields(obj, self.limits.max_items):
            if pair is None:
                node.truncated = True
                break
            name, attr = pair
            if attr is _REPR:
                fields[name] = self._leaf(
                    ("repr", address), address, "primitive", _summarize(obj),
                    node.language_type,
                )
            else:
                fields[name] = self._encode(attr, depth + 1)
        return self._close(node, fields, as_key, cuts == self._cuts, _same_values)

    # -- encodings holding cycle cuts ---------------------------------------

    def _entries(self, kind: str, content: Any) -> Any:
        """The children of a node holding a cut, as walk entries: a
        child's clean dict, or the node a cut-holding dict encodes."""
        owner = self._owners.get
        if kind == "list":
            return [owner(id(child), child) for child in content]
        if kind == "dict":
            return [
                (owner(id(key), key), owner(id(item), item)) for key, item in content
            ]
        return [(name, owner(id(child), child)) for name, child in content.items()]

    def _cut(self, node: _Node) -> Dict[str, Any]:
        """The back-edge ``value_to_dict`` cuts: an INVALID stub that
        keeps the target's address."""
        self._cuts += 1
        cut = self._leaf(
            ("cut", node.address), node.address, "invalid", None, node.language_type
        )
        self._owners[id(cut)] = node
        return cut

    def _revisit(self, node: _Node, as_key: bool) -> Dict[str, Any]:
        """A memo hit on a node whose encoding holds a cut (or that is
        still being walked): serialize it again against the current path."""
        if node.done:
            return self._reserialize(node, as_key)
        # Only a DICT key's walk can be unfinished here (nothing else is
        # off the cut path while walked).
        if as_key:
            # The model wraps a key as it is met, copying its Value as it
            # stands: a key met inside its own walk keeps the content it
            # had then — none — and the flags set so far.
            return self._leaf(
                ("unfilled", node.address), node.address, node.kind,
                {} if node.kind == "struct" else [], node.language_type,
                node.truncated,
            )
        # A value, though, is serialized in full once the walk is over.
        self._cuts += 1
        placeholder: Dict[str, Any] = {}
        self._pending.append((placeholder, node, set(self._active)))
        self._owners[id(placeholder)] = node
        return placeholder

    def _reserialize(self, node: _Node, as_key: bool) -> Dict[str, Any]:
        active = self._active
        if not as_key:
            active.add(node.address)
        entry = self._entry
        if node.kind == "list":
            content: Any = [entry(child, False) for child in node.children]
        elif node.kind == "dict":
            content = [
                [entry(key, True), entry(item, False)] for key, item in node.children
            ]
        else:
            content = {name: entry(child, False) for name, child in node.children}
        if not as_key:
            active.discard(node.address)
        encoded = {
            "abstract_type": node.kind,
            "content": content,
            "location": _HEAP,
            "address": node.address,
            "language_type": node.language_type,
        }
        if node.truncated:
            encoded["truncated"] = True
        self._owners[id(encoded)] = node
        return encoded

    def _entry(self, child: Any, as_key: bool) -> Dict[str, Any]:
        if type(child) is dict:
            return child
        if not as_key and child.address in self._active:
            return self._cut(child)
        return self._revisit(child, as_key)


def _same_pairs(old: List[List[Any]], new: List[List[Any]]) -> bool:
    return len(old) == len(new) and all(
        a[0] is b[0] and a[1] is b[1] for a, b in zip(old, new)
    )


def _same_bindings(
    walked: List[Tuple[str, Any, Dict[str, Any]]], visible: List[Tuple[str, Any]]
) -> bool:
    return len(walked) == len(visible) and all(
        a[0] == b[0] and a[1] is b[1] for a, b in zip(walked, visible)
    )


def _same_values(old: Dict[str, Any], new: Dict[str, Any]) -> bool:
    """Same keys in the same order, each value the identical object."""
    return len(old) == len(new) and all(
        a[0] == b[0] and a[1] is b[1] for a, b in zip(old.items(), new.items())
    )


def _frame_dict(
    name: str,
    depth: int,
    variables: Dict[str, Any],
    parent: Optional[Dict[str, Any]],
    line: Optional[int],
    filename: str,
    thread: Optional[int],
) -> Dict[str, Any]:
    """``frame_to_dict`` of one frame whose parent is already encoded."""
    encoded = {
        "name": name,
        "depth": depth,
        "variables": variables,
        "parent": parent,
        "line": line,
        "filename": filename,
    }
    if thread is not None:
        encoded["thread"] = thread
    return encoded


def build_variable(
    name: str,
    obj: Any,
    scope: str,
    snapshotter: Snapshotter,
    ref_location: Location = Location.STACK,
) -> PyVariable:
    """Model one Python variable: a stack ``REF`` to the heap snapshot.

    Args:
        name: variable name.
        obj: the live object the variable is bound to.
        scope: ``"local"``, ``"argument"`` or ``"global"``.
        snapshotter: the per-pause snapshotter (preserves sharing).
        ref_location: where the reference cell itself lives.
    """
    target = snapshotter.snapshot(obj)
    reference = Value(
        abstract_type=AbstractType.REF,
        content=target,
        location=ref_location,
        address=None,
        language_type=type(obj).__name__,
    )
    return PyVariable(name=name, value=reference, scope=scope, raw_object=obj)


def build_frame_chain(
    py_frame: Any,
    is_inferior_frame,
    snapshotter: Optional[Snapshotter] = None,
    max_depth: Optional[int] = None,
    limits: Optional[CaptureLimits] = None,
) -> Frame:
    """Build the model :class:`Frame` chain from a live Python frame.

    Args:
        py_frame: the innermost inferior ``types.FrameType``.
        is_inferior_frame: predicate selecting inferior frames (the chain
            stops at, and skips, tracker/runner frames).
        snapshotter: shared snapshotter; a fresh one is created if omitted.
        max_depth: snapshot depth cap, forwarded to a fresh snapshotter.
        limits: capture bounds, forwarded to a fresh snapshotter.

    Returns:
        The innermost :class:`Frame`, with ``parent`` links to the entry
        frame and ``depth`` 0 at the entry frame.
    """
    if snapshotter is None:
        snapshotter = Snapshotter(max_depth=max_depth, limits=limits)
    raw_frames = _inferior_frames(py_frame, is_inferior_frame)
    # raw_frames is innermost-first; depth counts from the entry frame.
    model_frames = [
        Frame(
            name=raw.f_code.co_name,
            depth=len(raw_frames) - 1 - index,
            variables={
                name: build_variable(name, obj, scope, snapshotter)
                for name, obj, scope in _frame_locals(raw)
            },
            line=raw.f_lineno,
            filename=raw.f_code.co_filename,
        )
        for index, raw in enumerate(raw_frames)
    ]
    for inner, outer in zip(model_frames, model_frames[1:]):
        inner.parent = outer
    if not model_frames:
        return Frame(name="<module>", depth=0)
    return model_frames[0]


def build_globals(
    globals_dict: Dict[str, Any],
    snapshotter: Optional[Snapshotter] = None,
    limits: Optional[CaptureLimits] = None,
) -> Dict[str, Variable]:
    """Model the inferior's global namespace (interpreter plumbing hidden)."""
    if snapshotter is None:
        snapshotter = Snapshotter(limits=limits)
    return {
        name: build_variable(
            name, obj, "global", snapshotter, ref_location=Location.GLOBAL
        )
        for name, obj in _visible_globals(globals_dict)
    }
