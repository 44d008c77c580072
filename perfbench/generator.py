"""Seeded inferior programs for the benchmark workloads.

Every workload runs Python inferiors written by this module from the
workload seed. The same ``(stream, seed, variant)`` always yields
byte-identical source; another seed changes identifiers, data values and
messages. The *shape* of each program — list sizes, loop counts, the
spacing of breakpoint hits — is fixed per workload, so the cost of one
pause stays the same across seeds and run-to-run spread measures the
tracker, not the generator.

Each builder returns an :class:`Inferior`: the source plus the facts the
tool loop and the oracle need (breakpoint lines, variable names, the
value-predicate query and its threshold).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List

#: Programs a run cycles through, so one unlucky data set cannot set a
#: whole run's medians.
VARIANTS = 4

_SYLLABLES = (
    "ka", "lo", "mi", "ne", "ru", "ta", "vo", "zi", "pe", "su",
    "da", "fe", "go", "hu", "ji", "be", "no", "ra", "te", "wu",
)


@dataclass
class Inferior:
    """One generated program and the facts its workload uses."""

    source: str
    #: role -> identifier chosen for it
    names: Dict[str, str]
    #: role -> 1-based line number
    lines: Dict[str, int] = field(default_factory=dict)
    #: workload-specific extras (never-hit lines, queries, counts)
    extra: Dict[str, Any] = field(default_factory=dict)


def _rng(stream: str, seed: int, variant: int) -> random.Random:
    # String seeds hash through SHA-512, so this is stable across runs and
    # interpreters (no PYTHONHASHSEED dependence).
    return random.Random(f"{stream}:{seed}:{variant}")


def _word(rng: random.Random, syllables: int = 3) -> str:
    return "".join(rng.choice(_SYLLABLES) for _ in range(syllables))


def _names(rng: random.Random, roles: List[str]) -> Dict[str, str]:
    """A distinct identifier per role: a seeded stem plus the role."""
    return {role: f"{_word(rng)}_{role}" for role in roles}


class _Lines:
    """Source builder that remembers the line number of labelled lines."""

    def __init__(self) -> None:
        self.lines: List[str] = []
        self.labels: Dict[str, int] = {}

    def add(self, text: str, label: str = "") -> int:
        self.lines.append(text)
        number = len(self.lines)
        if label:
            self.labels[label] = number
        return number

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"


def sort_program(stream: str, seed: int, variant: int, size: int) -> Inferior:
    """A recursive merge sort over ``size`` seeded integers.

    Frames nest ``log2(size)`` deep and the locals of the innermost frame
    change at almost every line, so most of the captured state changes per
    pause. The recursion tree depends only on ``size``; the data only moves
    which side of a merge wins.
    """
    rng = _rng(stream, seed, variant)
    n = _names(rng, ["data", "label", "stats", "msort", "merge", "result"])
    data = [rng.randrange(1, 1000) for _ in range(size)]
    src = _Lines()
    src.add(f"{n['data']} = {data!r}")
    src.add(f"{n['label']} = {_word(rng, 4)!r}")
    src.add(f"{n['stats']} = {{'merges': 0, 'moves': 0}}")
    src.add("")
    src.add(f"def {n['msort']}(xs):")
    src.add("    if len(xs) <= 1:")
    src.add("        return xs")
    src.add("    mid = len(xs) // 2")
    src.add(f"    left = {n['msort']}(xs[:mid])")
    src.add(f"    right = {n['msort']}(xs[mid:])")
    src.add(f"    return {n['merge']}(left, right)")
    src.add("")
    src.add(f"def {n['merge']}(left, right):")
    src.add("    out = []")
    src.add("    i = j = 0")
    src.add("    while i < len(left) and j < len(right):")
    src.add("        if left[i] <= right[j]:")
    src.add("            out.append(left[i])")
    src.add("            i += 1")
    src.add("        else:")
    src.add("            out.append(right[j])")
    src.add("            j += 1")
    src.add("    out.extend(left[i:])")
    src.add("    out.extend(right[j:])")
    src.add(f"    {n['stats']}['merges'] += 1")
    src.add(f"    {n['stats']}['moves'] += len(out)")
    src.add("    return out")
    src.add("")
    src.add(f"{n['result']} = {n['msort']}({n['data']})")
    src.add(
        f"print({n['label']}, sum({n['result']}), {n['result']}[0], "
        f"{n['result']}[-1])"
    )
    src.add("pass", "final")
    return Inferior(src.source(), n, src.labels)


#: record-query shape: a large static state, a short loop of hot updates.
RECORD_TABLE = 30
RECORD_GRID = 40
RECORD_LOOP = 90
RECORD_CALL_EVERY = 9


def record_program(seed: int, variant: int) -> Inferior:
    """Mostly static globals with a few hot variables.

    A 30-entry table, a 40-item list and a tuple never change after the
    first lines; the loop updates an accumulator, the loop variable and,
    every ninth iteration, a value computed by a tracked function. So a
    small share of the captured state changes per pause.
    """
    rng = _rng("record-query", seed, variant)
    n = _names(
        rng, ["table", "grid", "tags", "acc", "hot", "idx", "fold"]
    )
    table = {
        f"{_word(rng, 2)}{k}": [rng.randrange(1, 100), _word(rng, 2)]
        for k in range(RECORD_TABLE)
    }
    grid = [rng.randrange(1, 1000) for _ in range(RECORD_GRID)]
    tags = tuple(_word(rng, 2) for _ in range(8))
    multiplier = rng.randrange(3, 9)
    src = _Lines()
    src.add(f"{n['hot']} = 1")
    src.add(f"{n['table']} = {table!r}")
    src.add(f"{n['grid']} = {grid!r}")
    src.add(f"{n['tags']} = {tags!r}")
    src.add(f"{n['acc']} = 0")
    src.add("")
    src.add(f"def {n['fold']}(v):")
    src.add(f"    return (v * {multiplier} + 1) % 1009")
    src.add("")
    src.add(f"for {n['idx']} in range({RECORD_LOOP}):")
    src.add(f"    {n['acc']} += {n['grid']}[{n['idx']} % {RECORD_GRID}]")
    src.add(f"    if {n['idx']} % {RECORD_CALL_EVERY} == 0:")
    src.add(f"        {n['hot']} = {n['fold']}({n['hot']})")
    src.add(f"print({n['acc']}, {n['hot']})")
    src.add("pass", "final")
    # The threshold splits the accumulator's trajectory in half, so the
    # value predicate matches about half of the recorded pauses.
    acc = 0
    for index in range(RECORD_LOOP // 2):
        acc += grid[index % RECORD_GRID]
    calls = len(range(0, RECORD_LOOP, RECORD_CALL_EVERY))
    return Inferior(
        src.source(),
        n,
        src.labels,
        {
            "query": f"{n['acc']} > {acc}",
            "threshold": acc,
            "history": [n["acc"], n["hot"], n["idx"]],
            "calls": calls,
        },
    )


#: resume-hunt shape: hits are spaced by loop counts, never by data. One
#: hit every HUNT_GAP iterations, so nearly every resume() runs the same
#: number of iterations. Most hits are the line breakpoint; the watch and
#: the function breakpoint take two slots each, so the per-hit read (whose
#: cost differs a little by hit kind) has one dominant cluster for its
#: median to sit in.
HUNT_LOOP = 3000
HUNT_GAP = 200
HUNT_WATCH_AT = (800, 2200)
HUNT_CALL_AT = (1400, 2800)
HUNT_DEAD_FUNCTIONS = 4


def hunt_program(seed: int, variant: int) -> Inferior:
    """A long loop where breakpoints are rare and watch checks are not.

    Every 200 iterations one control point fires: the line breakpoint 11
    times, the watched variable twice and the function breakpoint twice.
    Twenty more breakpoints sit on lines that never run: the bodies of
    uncalled functions and a branch whose condition is never true. So
    almost every trace event is a no-hit dispatch plus one watch
    evaluation.
    """
    rng = _rng("resume-hunt", seed, variant)
    n = _names(rng, ["phase", "acc", "log", "rare", "idx"])
    dead = [f"{_word(rng)}_dead{k}" for k in range(HUNT_DEAD_FUNCTIONS)]
    mul = rng.randrange(3, 50)
    mod = rng.randrange(50000, 100000)
    src = _Lines()
    never: List[int] = []
    src.add(f"{n['acc']} = {rng.randrange(1, 100)}")
    src.add(f"{n['log']} = []")
    src.add(f"{n['phase']} = 0")
    src.add("")
    src.add(f"def {n['rare']}(v):")
    src.add(f"    return v % {rng.randrange(50, 200)} + 1")
    for name in dead:
        src.add("")
        src.add(f"def {name}(v):")
        never.append(src.add(f"    w = v * {rng.randrange(2, 9)}"))
        never.append(src.add(f"    w = w + {rng.randrange(1, 99)}"))
        never.append(src.add("    w = w % 7"))
        never.append(src.add("    return w"))
    src.add("")
    src.add(f"for {n['idx']} in range({HUNT_LOOP}):")
    src.add(f"    {n['acc']} = ({n['acc']} + {n['idx']} * {mul}) % {mod}")
    others = HUNT_WATCH_AT + HUNT_CALL_AT
    src.add(f"    if {n['idx']} % {HUNT_GAP} == 0 and {n['idx']} not in {others!r}:")
    src.add(f"        {n['log']}.append({n['acc']})", "hit")
    src.add(f"    if {n['idx']} in {HUNT_WATCH_AT!r}:")
    src.add(f"        {n['phase']} += 1")
    src.add(f"    if {n['idx']} in {HUNT_CALL_AT!r}:")
    src.add(f"        {n['acc']} = {n['rare']}({n['acc']})")
    src.add(f"    if {n['acc']} < 0:")
    never.append(src.add(f"        {n['acc']} = 0"))
    never.append(src.add(f"        {n['log']}.append(-1)"))
    never.append(src.add(f"        {n['phase']} -= 1"))
    never.append(src.add(f"        {dead[0]}({n['acc']})"))
    src.add(f"print(len({n['log']}), {n['acc']}, {n['phase']})")
    src.add("pass", "final")
    # One hit per HUNT_GAP iterations, plus the watch firing once when the
    # watched name is first bound.
    hits = 1 + len(range(0, HUNT_LOOP, HUNT_GAP))
    return Inferior(
        src.source(), n, src.labels, {"never": never, "hits": hits}
    )
