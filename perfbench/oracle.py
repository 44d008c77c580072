"""Correctness oracle: the tracked run must match a plain ``exec``.

Every generated inferior also runs natively, off the clock. Its final
globals, its stdout and its exit code are the reference the tracked run
is checked against. Values are compared in a canonical form both sides
can produce: lists and tuples become lists, dicts become key-sorted pair
lists, and only plain data (numbers, strings, None, containers of them)
takes part — functions and modules have no portable value.
"""

from __future__ import annotations

import builtins
import contextlib
import io
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.core.state import AbstractType, Value, Variable

_PLAIN = (int, float, str, bool, type(None), list, tuple, dict)


@dataclass
class NativeResult:
    globals: Dict[str, Any]
    stdout: str
    exit_code: int


def run_native(source: str, path: str) -> NativeResult:
    """Execute ``source`` as ``__main__`` and capture its observable end."""
    namespace: Dict[str, Any] = {
        "__name__": "__main__",
        "__file__": path,
        "__builtins__": builtins,
    }
    output = io.StringIO()
    exit_code = 0
    with contextlib.redirect_stdout(output):
        try:
            exec(compile(source, path, "exec"), namespace)
        except SystemExit as stop:
            code = stop.code
            exit_code = code if isinstance(code, int) else (0 if code is None else 1)
    return NativeResult(
        {
            name: _canon_native(value)
            for name, value in namespace.items()
            if not name.startswith("__") and isinstance(value, _PLAIN)
        },
        output.getvalue(),
        exit_code,
    )


def _canon_native(value: Any) -> Any:
    if isinstance(value, (list, tuple)):
        return [_canon_native(item) for item in value]
    if isinstance(value, dict):
        return sorted(
            ([_canon_native(k), _canon_native(v)] for k, v in value.items()),
            key=lambda pair: repr(pair[0]),
        )
    return value


def _deref(value: Value) -> Value:
    seen = 0
    while value.abstract_type is AbstractType.REF and seen < 64:
        value = value.content
        seen += 1
    return value


def _canon_tracked(value: Value) -> Any:
    value = _deref(value)
    kind = value.abstract_type
    if kind is AbstractType.LIST:
        return [_canon_tracked(item) for item in value.content]
    if kind is AbstractType.DICT:
        return sorted(
            (
                [_canon_tracked(k), _canon_tracked(v)]
                for k, v in value.content.items()
            ),
            key=lambda pair: repr(pair[0]),
        )
    return value.content


def tracked_globals(variables: Dict[str, Variable]) -> Dict[str, Any]:
    """The plain-data globals of a tracked pause, canonicalized."""
    result = {}
    for name, variable in variables.items():
        if name.startswith("__"):
            continue
        kind = _deref(variable.value).abstract_type
        if kind in (
            AbstractType.PRIMITIVE,
            AbstractType.NONE,
            AbstractType.LIST,
            AbstractType.DICT,
        ):
            result[name] = _canon_tracked(variable.value)
    return result


def compare(
    native: NativeResult,
    final_globals: Optional[Dict[str, Variable]],
    stdout: str,
    exit_code: Optional[int],
) -> List[str]:
    """Mismatches between the tracked run's end and the native one."""
    problems = []
    if final_globals is None:
        problems.append("no final pause was captured")
    else:
        tracked = tracked_globals(final_globals)
        if tracked != native.globals:
            differing = sorted(
                name
                for name in set(tracked) | set(native.globals)
                if tracked.get(name) != native.globals.get(name)
            )
            problems.append(f"final globals differ: {differing}")
    if stdout != native.stdout:
        problems.append(f"stdout differs: {stdout!r} != {native.stdout!r}")
    if exit_code != native.exit_code:
        problems.append(f"exit code {exit_code} != {native.exit_code}")
    return problems


def render(variable: Optional[Variable]) -> Optional[str]:
    """The rendered value a trace query reports for ``variable``."""
    if variable is None:
        return None
    return _deref(variable.value).render()
