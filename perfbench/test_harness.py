"""Self-tests for the benchmark harness (not for the program under test).

Run from the root of a checkout::

    python3 -m pytest -q perfbench/test_harness.py
"""

import asyncio
import json
import os
import subprocess
import sys
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import generator  # noqa: E402
import layers  # noqa: E402
import measure  # noqa: E402
import oracle  # noqa: E402
import run as entry  # noqa: E402
import workloads  # noqa: E402
from spans import OTHER, Tracer  # noqa: E402


class ManualClock:
    """A clock that moves only when a test advances it."""

    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now

    def advance(self, ns):
        self.now += ns


# -- spans ---------------------------------------------------------------


def test_self_time_of_nested_spans_adds_up_to_the_root():
    clock = ManualClock()
    tracer = Tracer(clock)

    def inner():
        clock.advance(5)

    def outer():
        clock.advance(10)
        inner()
        clock.advance(3)

    inner = tracer.wrap(inner, "b")
    outer = tracer.wrap(outer, "a")
    with tracer.root("pause"):
        clock.advance(2)
        outer()
        clock.advance(1)

    assert tracer.spans[("pause", "b")] == [1, 5, 5]
    assert tracer.spans[("pause", "a")] == [1, 18, 13]
    assert tracer.spans[("pause", OTHER)] == [1, 21, 3]
    assert tracer.roots["pause"] == [1, 21]
    total = sum(entry[2] for (root, _), entry in tracer.spans.items() if root == "pause")
    assert total == tracer.roots["pause"][1]


def test_recursive_call_is_timed_only_at_the_outermost_call():
    clock = ManualClock()
    tracer = Tracer(clock)
    calls = []

    def walk(depth):
        calls.append(depth)
        clock.advance(2)
        if depth:
            wrapped(depth - 1)

    wrapped = tracer.wrap(walk, "r")
    with tracer.root("pause"):
        wrapped(3)

    assert calls == [3, 2, 1, 0]
    assert tracer.spans[("pause", "r")] == [1, 8, 8]
    assert tracer.spans[("pause", OTHER)][2] == 0


def test_recursive_module_function_bypasses_the_wrapper_inside():
    module = types.ModuleType("synthetic")
    exec(
        "def depth(tree):\n"
        "    if not isinstance(tree, list):\n"
        "        return 0\n"
        "    return 1 + max([depth(x) for x in tree] or [0])\n",
        module.__dict__,
    )
    original = module.depth
    tracer = Tracer()
    tracer.patch(module, "depth", "d", recursive=True)
    with tracer.root("pause"):
        assert module.depth([[1, [2]], 3]) == 3
    assert tracer.calls("pause", "d") == 1
    tracer.unpatch_all()
    assert module.depth is original


def test_calls_outside_a_root_are_not_recorded():
    tracer = Tracer()
    wrapped = tracer.wrap(lambda: 7, "x")
    assert wrapped() == 7
    tracer.count("bytes", 3)
    assert not tracer.spans and not tracer.counts


def test_concurrent_tasks_keep_separate_span_stacks():
    clock = ManualClock()
    tracer = Tracer(clock)

    async def call(ns):
        await asyncio.sleep(0)
        clock.advance(ns)
        await asyncio.sleep(0)

    wrapped = tracer.wrap(call, "io")

    async def session(ns):
        with tracer.root("pause"):
            await wrapped(ns)
            await wrapped(ns)

    async def main():
        await asyncio.gather(session(3), session(5))

    asyncio.run(main())
    io_self = tracer.spans[("pause", "io")][2]
    other = tracer.spans[("pause", OTHER)][2]
    assert tracer.roots["pause"][0] == 2
    assert io_self + other == tracer.roots["pause"][1]


# -- percentiles ---------------------------------------------------------


def test_percentile_interpolates_between_ranks():
    samples = [float(x) for x in range(1, 101)]
    assert measure.percentile(samples, 0.5) == 50.5
    assert measure.percentile(samples, 0.0) == 1.0
    assert measure.percentile(samples, 1.0) == 100.0
    assert abs(measure.percentile(samples, 0.99) - 99.01) < 1e-9


def test_tail_needs_ten_samples_beyond_it():
    assert measure.beyond(1000, 0.99) == 10
    assert measure.summary(list(range(1000)), 0.99)["value"] is not None
    short = measure.summary(list(range(900)), 0.99)
    assert short["value"] is None
    assert short["samples"] == 900 and short["beyond"] == 9
    assert measure.summary([4.0], 0.5) == {"value": 4.0, "samples": 1, "beyond": 0}
    assert measure.summary([], 0.5)["value"] is None


# -- generator -----------------------------------------------------------


def _all_sources(seed):
    return [
        inferior.source
        for workload in workloads.WORKLOADS.values()
        for inferior in workload.inferiors(seed)
    ]


def test_same_seed_gives_byte_identical_sources():
    assert _all_sources(7) == _all_sources(7)


def test_another_seed_changes_every_source():
    for first, second in zip(_all_sources(7), _all_sources(8)):
        assert first != second


def test_generated_programs_run_natively_and_match_their_facts(tmp_path):
    hunt = generator.hunt_program(3, 0)
    lines = hunt.source.splitlines()
    assert lines[hunt.lines["final"] - 1] == "pass"
    assert len(hunt.extra["never"]) == 20
    for workload in workloads.WORKLOADS.values():
        for inferior in workload.inferiors(3):
            path = str(tmp_path / "prog.py")
            result = oracle.run_native(inferior.source, path)
            assert result.exit_code == 0 and result.stdout


# -- oracle ----------------------------------------------------------------


def test_oracle_accepts_a_faithful_tracked_run(tmp_path):
    inferior = generator.sort_program("step-inspect", 5, 0, 8)
    path = tmp_path / "sort.py"
    path.write_text(inferior.source)
    native = oracle.run_native(inferior.source, str(path))
    run = workloads.Run()
    workloads.step_session("python", run, inferior, str(path), native, 5, False)
    assert run.failed == 0, run.problems
    assert run.pauses > 100


def test_oracle_reports_a_wrong_final_state():
    native = oracle.NativeResult({"x": 1}, "out\n", 0)
    assert oracle.compare(native, {}, "out\n", 0) == ["final globals differ: ['x']"]
    assert len(oracle.compare(native, None, "", 1)) == 3


# -- process cleanup -------------------------------------------------------


ORPHANING_PARENT = """
import subprocess, sys
child = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
print(child.pid, flush=True)
"""


def test_reap_group_stops_an_orphaned_grandchild():
    workloads.become_subreaper()
    parent = subprocess.Popen(
        [sys.executable, "-c", ORPHANING_PARENT],
        stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    grandchild = int(parent.stdout.readline())
    parent.wait()
    parent.stdout.close()
    os.kill(grandchild, 0)  # the grandchild outlived its parent
    workloads._reap_group(parent.pid)
    try:
        os.killpg(parent.pid, 0)
    except ProcessLookupError:
        pass
    else:
        raise AssertionError("a process of the group is still there")


# -- the benchmark definition ---------------------------------------------


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == entry.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.PER_LAYER


def test_every_per_layer_metric_is_computed():
    tracer = Tracer()
    metrics = layers.per_layer_metrics(tracer, workloads.Run(), 1.0, in_process=True)
    assert set(metrics) == {name for name, _ in layers.PER_LAYER}
