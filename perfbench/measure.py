"""Percentiles with their sample counts, the reference clock, and the
environment stamp."""

from __future__ import annotations

import math
import os
import platform
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

#: A tail percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0..1) by linear interpolation between ranks."""
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile {q} outside [0, 1]")
    ordered = sorted(samples)
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return ordered[low] + (ordered[high] - ordered[low]) * fraction


def beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie strictly above the ``q`` rank."""
    return count - 1 - math.floor(q * (count - 1)) if count else 0


def summary(samples: Sequence[float], q: float) -> Dict[str, Any]:
    """``{"value", "samples", "beyond"}``; ``value`` is ``None`` when the
    percentile has fewer than :data:`MIN_BEYOND` samples beyond it (the
    median needs only one sample)."""
    count = len(samples)
    over = beyond(count, q)
    enough = count > 0 and (q <= 0.5 or over >= MIN_BEYOND)
    return {
        "value": percentile(samples, q) if enough else None,
        "samples": count,
        "beyond": over,
    }


# ---------------------------------------------------------------------------
# The reference clock
#
# A shared host changes speed on its own: the same CPU-bound loop runs at
# one level for tens of seconds, then 10% or 2x slower for a while. The
# slowdown is uniform, so a fixed piece of work timed in the same process
# right before each session measures it. Every gated time is reported at
# the reference speed: the raw duration times REFERENCE_NS over what the
# reference took just before that session. The reference is this module's
# own code, so a change to the program under test cannot move it.
# ---------------------------------------------------------------------------

#: What the reference work takes, by definition, at the reference speed.
REFERENCE_NS = 1_000_000

_REFERENCE_DATA = {f"k{i}": [i, str(i), (i, i + 1), {"x": i}] for i in range(60)}


class _Node:
    __slots__ = ("kind", "content", "address")

    def __init__(self, kind: str, content: Any, address: int) -> None:
        self.kind = kind
        self.content = content
        self.address = address


def _convert(obj: Any, memo: Dict[int, _Node]) -> _Node:
    """Model an object graph the way state capture does (memoised by id)."""
    address = id(obj)
    if address in memo:
        return memo[address]
    if isinstance(obj, dict):
        node = _Node("dict", {_convert(k, memo): _convert(v, memo) for k, v in obj.items()}, address)
    elif isinstance(obj, (list, tuple)):
        node = _Node("list", tuple(_convert(item, memo) for item in obj), address)
    else:
        node = _Node("value", obj, address)
    memo[address] = node
    return node


def reference_ns(repeats: int = 3, conversions: int = 2) -> float:
    """The median of ``repeats`` timings of a fixed capture-like workload."""
    timings = []
    for _ in range(repeats):
        began = time.perf_counter_ns()
        for _ in range(conversions):
            _convert(_REFERENCE_DATA, {})
        timings.append(time.perf_counter_ns() - began)
    return percentile(timings, 0.5)


def git_commit(root: str) -> Optional[str]:
    """HEAD of the checkout at ``root``, or ``None`` outside a git work
    tree (the search never climbs above ``root``)."""
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        done = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, env=env,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if done.returncode != 0:
        return None
    return done.stdout.strip() or None


def environment(root: str) -> Dict[str, Any]:
    """What a report must carry so numbers from different interpreters or
    machines are never compared as if alike."""
    from repro.api import available_trackers

    return {
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "nproc": os.cpu_count(),
        "trackers": available_trackers(),
        "commit": git_commit(root),
        "platform": platform.platform(),
    }


def mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0
